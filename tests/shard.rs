//! Sharded-receiver integration tests: event streams must be
//! bit-identical across shard counts (the keyed map returns events in
//! input order), and the stream path's bounded queues must apply
//! backpressure without ever dropping a buffer.

use proptest::prelude::*;
use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::noise::awgn_vec;
use zigzag::channel::scenario::{hidden_pair, synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig, StreamConfig};
use zigzag::core::engine::ShardedReceiver;
use zigzag::core::receiver::ReceiverEvent;
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn air(src: u16, seq: u16, len: usize, seed: u64) -> zigzag::phy::frame::AirFrame {
    let f = Frame::with_random_payload(0, src, seq, len, seed);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// One client set's links plus its retransmission-group buffers, in
/// arrival order.
struct SetTraffic {
    clients: Vec<(u16, LinkProfile)>,
    buffers: Vec<Vec<Complex>>,
}

/// A two-sender hidden pair: two collisions of the same two frames at
/// different offsets (store → match).
fn k2_group(ids: [u16; 2], omegas: [f64; 2], payload: usize, seed: u64) -> SetTraffic {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = [
        LinkProfile::clean_with_omega(17.0, omegas[0]),
        LinkProfile::clean_with_omega(17.0, omegas[1]),
    ];
    let a = air(ids[0], seed as u16, payload, 60_000 + seed * 7);
    let b = air(ids[1], seed as u16, payload, 61_000 + seed * 11);
    let offsets = [(420, 140), (300, 120), (420, 180), (360, 150)][seed as usize % 4];
    let hp = hidden_pair(&a, &b, &links[0], &links[1], offsets.0, offsets.1, &mut rng);
    SetTraffic {
        clients: vec![(ids[0], links[0].clone()), (ids[1], links[1].clone())],
        buffers: vec![hp.collision1.buffer, hp.collision2.buffer],
    }
}

/// A three-sender set: three collisions with distinct offset structure
/// (store → store → k-way match), the known-decodable patterns the k3
/// bench workload uses.
fn k3_group(ids: [u16; 3], omegas: [f64; 3], payload: usize, seed: u64) -> SetTraffic {
    let mut rng = StdRng::seed_from_u64(9000 + seed);
    let links: Vec<LinkProfile> =
        omegas.iter().map(|&w| LinkProfile::clean_with_omega(17.0, w)).collect();
    let airs: Vec<_> =
        (0..3).map(|i| air(ids[i], seed as u16, payload, 90_000 + seed * 7 + i as u64)).collect();
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    let offs = [[0usize, 310, 620], [0, 620, 310], [100, 0, 450]];
    let buffers = offs
        .iter()
        .map(|o| {
            let placed: Vec<PlacedTx<'_>> =
                (0..3).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: o[i] }).collect();
            synth_collision(&placed, 1.0, &mut rng).buffer
        })
        .collect();
    SetTraffic {
        clients: ids.iter().zip(links.iter()).map(|(&i, l)| (i, l.clone())).collect(),
        buffers,
    }
}

/// Interleaves the sets' buffer streams into one arrival order
/// (per-set order preserved — a retransmission can't precede the
/// original), deterministically from `seed`, and builds the AP-wide
/// registry.
fn interleave(sets: Vec<SetTraffic>, seed: u64) -> (ClientRegistry, Vec<Vec<Complex>>) {
    let mut registry = ClientRegistry::new();
    for set in &sets {
        for (id, l) in &set.clients {
            registry.associate(
                *id,
                ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
            );
        }
    }
    let mut queues: Vec<std::collections::VecDeque<Vec<Complex>>> =
        sets.into_iter().map(|s| s.buffers.into()).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1337);
    let mut stream = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len()).filter(|&i| !queues[i].is_empty()).collect();
        let pick = live[rng.gen_range(0..live.len())];
        stream.push(queues[pick].pop_front().expect("picked from non-empty"));
    }
    (registry, stream)
}

/// Runs one buffer stream at several shard counts and asserts the merged
/// per-buffer event streams are bit-identical; returns the reference
/// events.
fn assert_shard_invariant(
    registry: &ClientRegistry,
    stream: &[Vec<Complex>],
    queue_depth: usize,
) -> Vec<Vec<ReceiverEvent>> {
    let run = |shards: usize| {
        let mut rx = ShardedReceiver::new(
            DecoderConfig::shared_ap(),
            ShardConfig { shards, queue_depth },
            registry.clone(),
        );
        let out = rx.process_batch(stream);
        assert_eq!(
            rx.loads().iter().sum::<u64>(),
            stream.len() as u64,
            "every buffer must be routed exactly once"
        );
        out
    };
    let reference = run(1);
    for shards in [2, 4] {
        assert_eq!(
            reference,
            run(shards),
            "{shards}-shard event streams diverged from single-shard (depth {queue_depth})"
        );
    }
    for (i, ev) in reference.iter().enumerate() {
        assert!(!ev.is_empty(), "buffer {i} produced no events — dropped?");
    }
    reference
}

/// The k=2 acceptance workload: three disjoint hidden pairs saturating
/// one AP, interleaved, decoded identically at 1/2/4 shards — and
/// non-trivially (every pair's zigzag match fires; seeds pre-screened
/// the way the bench's `K3_SEEDS` are, since §5.3a false positives from
/// *other sets'* clients can legitimately leave a group stored-unmatched).
#[test]
fn multi_set_k2_workload_is_shard_count_invariant() {
    let sets = vec![
        k2_group([1, 2], [-0.13, 0.14], 150, 0),
        k2_group([3, 4], [-0.08, 0.02], 150, 1),
        k2_group([6, 7], [-0.18, 0.19], 150, 5),
    ];
    let (registry, stream) = interleave(sets, 5);
    let events = assert_shard_invariant(&registry, &stream, 2);
    let delivered =
        events.iter().flatten().filter(|e| matches!(e, ReceiverEvent::Delivered { .. })).count();
    assert!(delivered >= 6, "all three pairs must decode: {delivered} deliveries");
}

/// The k=3 acceptance workload (the bench's k3 construction, seed 0):
/// store → store → 3-way match through the sharded receiver, identical
/// at every shard count, with all three frames recovered.
#[test]
fn k3_workload_is_shard_count_invariant_and_decodes() {
    let set = k3_group([1, 2, 3], [-0.08, 0.02, 0.09], 150, 0);
    let (registry, stream) = interleave(vec![set], 0);
    let events = assert_shard_invariant(&registry, &stream, 2);
    let delivered =
        events.iter().flatten().filter(|e| matches!(e, ReceiverEvent::Delivered { .. })).count();
    assert_eq!(delivered, 3, "the 3×3 system must decode all three frames");
}

/// One-at-a-time (one-buffer `process_batch` calls) and batched
/// ingestion run the same router and shards, so their event streams
/// must agree.
#[test]
fn streaming_and_batched_ingestion_agree() {
    let sets = vec![
        k2_group([1, 2], [-0.13, 0.14], 150, 1),
        k3_group([3, 4, 5], [-0.08, 0.02, 0.09], 150, 0),
    ];
    let (registry, stream) = interleave(sets, 9);
    let cfg = ShardConfig { shards: 4, queue_depth: 2 };
    let mut batched = ShardedReceiver::new(DecoderConfig::shared_ap(), cfg, registry.clone());
    let out_batched = batched.process_batch(&stream);
    let mut streaming = ShardedReceiver::new(DecoderConfig::shared_ap(), cfg, registry);
    let out_streaming: Vec<Vec<ReceiverEvent>> =
        stream.chunks(1).flat_map(|b| streaming.process_batch(b)).collect();
    assert_eq!(out_batched, out_streaming);
}

/// Queue-full backpressure: a finite batch has no queues, so its events
/// ignore the queue depth; on the stream path, with the smallest
/// possible queues and more regions than total queue capacity, the
/// carver must block rather than drop — every sample is accepted and
/// every region decodes exactly as with deep queues on one shard.
#[test]
fn queue_full_backpressure_never_drops_a_buffer() {
    let sets = vec![
        k2_group([1, 2], [-0.13, 0.14], 120, 0),
        k2_group([3, 4], [-0.08, 0.02], 120, 1),
        k2_group([5, 6], [0.09, -0.03], 120, 3),
    ];
    let (registry, stream) = interleave(sets, 21);
    let deep = assert_shard_invariant(&registry, &stream, 32);
    let shallow = assert_shard_invariant(&registry, &stream, 1);
    assert_eq!(deep, shallow, "queue depth must never change batch events");

    // the same buffers as one continuous air, gaps wider than max_packet
    let mut rng = StdRng::seed_from_u64(21);
    let mut air = awgn_vec(&mut rng, 5000, 1.0);
    for buffer in &stream {
        air.extend_from_slice(buffer);
        air.extend(awgn_vec(&mut rng, 5000, 1.0));
    }
    let run = |shards: usize, queue_depth: usize| {
        let mut rx = ShardedReceiver::new(
            DecoderConfig::shared_ap(),
            ShardConfig { shards, queue_depth },
            registry.clone(),
        );
        rx.process_stream(&StreamConfig::default(), |src| {
            for chunk in air.chunks(1000) {
                src.push_samples(chunk);
            }
        })
    };
    let (deep, shallow) = (run(1, 32), run(4, 1));
    assert_eq!(shallow.stats.samples, air.len() as u64, "no sample may be dropped");
    assert!(shallow.regions.len() >= stream.len(), "every collision must carve a region");
    assert!(shallow.regions.iter().all(|r| !r.events.is_empty()), "a region was dropped");
    assert_eq!(shallow.events(), deep.events(), "queue depth must change pacing, never events");
}

proptest! {
    /// Randomized k=2/k=3 workloads (random set shapes, offsets,
    /// payloads, channel noise, and interleaving) decode bit-identically
    /// at 1, 2, and 4 shards, at randomized queue depths.
    #[test]
    fn random_workloads_are_shard_count_invariant(seed in 0u64..1_000_000, depth in 1usize..4) {
        let mut sets = vec![k2_group([1, 2], [-0.13, 0.14], 100 + 10 * (seed % 4) as usize, seed)];
        if seed % 3 == 0 {
            sets.push(k3_group([3, 4, 5], [-0.08, 0.02, 0.09], 100, seed % 32));
        } else {
            sets.push(k2_group([3, 4], [-0.08, 0.02], 100 + 10 * (seed % 3) as usize, seed / 3));
        }
        let (registry, stream) = interleave(sets, seed);
        assert_shard_invariant(&registry, &stream, depth);
    }
}
