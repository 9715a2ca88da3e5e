//! Decoding one continuous IQ stream through the flowgraph front end.
//!
//! Every other example hands the receiver pre-cut collision buffers. A
//! real AP never gets those: it gets an unbroken sample stream — noise,
//! then a collision burst, then noise again — from which the receive
//! buffers must be carved. `ShardedReceiver::process_stream` runs that
//! whole flowgraph:
//!
//! * a producer (your SDR callback; here a closure pushing synthesized
//!   air in arbitrary-sized chunks) feeds a bounded sample ring;
//! * the receiver's one collision detector runs the preamble
//!   correlation a window at a time — no sample is scanned twice, and a
//!   one-shot scan of the whole air is one final advance of the same
//!   detector, so the detections are the same;
//! * a carver cuts collision regions around detection runs (a region
//!   stays open while new preambles keep landing, so collisions
//!   straddling window boundaries come out whole) and routes each
//!   region to a decode shard by its detected client set;
//! * backpressure runs end-to-end: full shard queue → carver stalls →
//!   ring fills → `push_samples` blocks. Bounded memory, zero drops.
//!
//! The decode events are bit-identical to pre-cutting the same air and
//! batch-decoding the regions — checked at the end.
//!
//! Run: `cargo run --release --example stream_receiver`

use zigzag::channel::fading::LinkProfile;
use zigzag::core::config::{DecoderConfig, ShardConfig, StreamConfig};
use zigzag::core::engine::ShardedReceiver;
use zigzag::core::receiver::ReceiverEvent;
use zigzag::core::stream::carve_buffer;
use zigzag::testbed::{continuous_air, ExperimentConfig, SetScenario};

fn main() {
    // Two hidden senders on clean 17 dB links; six collision groups
    // (each k=2 group needs its k collisions on air to be decodable)
    // spliced into a continuous stream with noise gaps between bursts.
    let scenario = SetScenario {
        links: vec![
            LinkProfile::clean_with_omega(17.0, -0.13),
            LinkProfile::clean_with_omega(17.0, 0.14),
        ],
        p_sense: 0.0,
        seed: 11,
    };
    let exp = ExperimentConfig { payload: 200, ..Default::default() };
    let air = continuous_air(&scenario, &exp, 6, 5000);
    println!(
        "air: {} samples, {} collision bursts, {} clients",
        air.samples.len(),
        air.bursts,
        scenario.links.len()
    );

    let cfg = DecoderConfig::shared_ap();
    let scfg = StreamConfig::default();

    // Stream decode: push the air in SDR-callback-sized chunks; each
    // push carves and routes on this thread while the shard workers
    // decode.
    let mut rx = ShardedReceiver::new(
        cfg.clone(),
        ShardConfig { shards: 2, queue_depth: 4 },
        air.registry.clone(),
    );
    let out = rx.process_stream(&scfg, |src| {
        for chunk in air.samples.chunks(2048) {
            src.push_samples(chunk);
        }
    });

    for r in &out.regions {
        let delivered =
            r.events.iter().filter(|e| matches!(e, ReceiverEvent::Delivered { .. })).count();
        println!(
            "region {} @ {:>7}: {:>5} samples, {} events, {} delivered, queue wait {} us",
            r.seq,
            r.start,
            r.len,
            r.events.len(),
            delivered,
            r.queue_wait_ns / 1_000
        );
    }
    let delivered: usize = out
        .regions
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
        .count();
    let s = &out.stats;
    println!(
        "stream: {} samples in, {} regions ({} carved samples), {} frames delivered",
        s.samples, s.regions, s.carved_samples, delivered
    );
    println!(
        "backpressure: {} source stalls, ring high water {}, shard stalls {:?}, queue high water {:?}",
        s.source_stalls, s.ring_high_water, s.shard_stalls, s.queue_high_water
    );

    // The determinism contract: same air, pre-cut into regions and
    // batch-decoded, yields the identical event stream.
    let regions = carve_buffer(&air.samples, &cfg, &air.registry, &scfg);
    let buffers: Vec<_> = regions.iter().map(|r| r.samples.clone()).collect();
    let mut batch =
        ShardedReceiver::new(cfg, ShardConfig { shards: 1, queue_depth: 4 }, air.registry.clone());
    let precut = batch.process_batch(&buffers);
    assert_eq!(out.events(), precut, "stream decode must equal pre-cut decode bit-for-bit");
    println!("stream events == pre-cut events: identical ({} bursts decoded)", regions.len());
}
