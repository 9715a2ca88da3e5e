//! What every workload shares: run settings, environment record, the
//! delivered-frame gate and the process's peak memory.

use std::collections::BTreeMap;
use std::time::Instant;
use zigzag_core::config::DecoderConfig;
use zigzag_core::ReceiverEvent;
use zigzag_phy::frame::Frame;

/// Settings of one run.
pub struct Bench {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: f64,
}

/// The machine and program a result was measured on.
pub struct Environment {
    pub nproc: usize,
    pub backend: &'static str,
    pub seed: u64,
    pub commit: String,
}

impl Environment {
    pub fn capture(seed: u64) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            backend: DecoderConfig::default().backend.name(),
            seed,
            commit: git_commit(),
        }
    }

    pub fn line(&self, workload: &str, trace: bool) -> String {
        format!(
            "env workload={workload} trace={} nproc={} backend={} seed={} commit={}",
            u8::from(trace),
            self.nproc,
            self.backend,
            self.seed,
            self.commit
        )
    }
}

/// The checkout's commit, or `unknown` outside a git work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `a` and `b` on the same input, `a` first for even `k` and `b`
/// first for odd `k`, so whichever pass benefits from running second
/// (warm caches, a recycled heap) does so equally often.
pub fn paired<A, B>(k: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if k.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The frames offered to one receiver, keyed by `(src, seq)`.
#[derive(Default)]
pub struct Offered {
    frames: BTreeMap<(u16, u16), Frame>,
}

/// How a receiver's deliveries compare with what was offered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Deliveries {
    /// Distinct offered frames delivered intact.
    pub delivered: u64,
    pub offered: u64,
    /// Delivered frames that match no offered `(src, seq, payload)`.
    pub wrong: u64,
}

impl Deliveries {
    pub fn add(&mut self, other: Deliveries) {
        self.delivered += other.delivered;
        self.offered += other.offered;
        self.wrong += other.wrong;
    }

    pub fn ratio(&self) -> f64 {
        self.delivered as f64 / self.offered as f64
    }
}

impl Offered {
    pub fn insert(&mut self, frame: Frame) {
        self.frames.insert((frame.src, frame.seq), frame);
    }

    /// Scores every `Delivered` event in `events` against the offered
    /// frames; a frame delivered twice counts once.
    pub fn score<'a>(&self, events: impl IntoIterator<Item = &'a ReceiverEvent>) -> Deliveries {
        let mut got = std::collections::BTreeSet::new();
        let mut wrong = 0;
        for e in events {
            if let ReceiverEvent::Delivered { frame, .. } = e {
                match self.frames.get(&(frame.src, frame.seq)) {
                    Some(f) if f.payload == frame.payload => {
                        got.insert((frame.src, frame.seq));
                    }
                    _ => wrong += 1,
                }
            }
        }
        Deliveries { delivered: got.len() as u64, offered: self.frames.len() as u64, wrong }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_core::receiver::DecodePath;

    #[test]
    fn deliveries_count_distinct_intact_frames() {
        let frame =
            |src, seq, fill| Frame { dst: 0, src, seq, retry: false, payload: vec![fill; 4] };
        let mut offered = Offered::default();
        offered.insert(frame(1, 0, 7));
        offered.insert(frame(2, 0, 8));
        let ev = |f| ReceiverEvent::Delivered { frame: f, path: DecodePath::Zigzag };
        let events = [
            ev(frame(1, 0, 7)),
            ev(frame(1, 0, 7)),
            ev(frame(2, 0, 9)),
            ev(frame(3, 0, 7)),
            ReceiverEvent::CollisionStored,
        ];
        let d = offered.score(&events);
        assert_eq!(d, Deliveries { delivered: 1, offered: 2, wrong: 2 });
        assert_eq!(d.ratio(), 0.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
