//! The bounded sample ring the streaming front end ingests through.
//!
//! A [`SampleRing`] holds a contiguous window of the unbounded IQ stream
//! in *absolute* sample coordinates: [`live`](SampleRing::live) returns
//! the retained samples with the stream index of the first one, and
//! [`end`](SampleRing::end) is the total number of samples ever
//! accepted. Absolute indexing is what lets the sliding scanner and the
//! carver speak the same coordinate system regardless of how the
//! producer chunked its pushes.
//!
//! The ring is a policy-free single-threaded container owned by the
//! [`Segmenter`](super::Segmenter), which frees it by advancing the scan
//! whenever it fills; it never blocks.

use zigzag_phy::complex::Complex;

/// A bounded contiguous window over the sample stream, addressed by
/// absolute sample index.
#[derive(Debug)]
pub(crate) struct SampleRing {
    cap: usize,
    start: usize,
    data: Vec<Complex>,
    high_water: usize,
}

impl SampleRing {
    /// An empty ring holding at most `cap` samples (at least 1).
    pub fn new(cap: usize) -> Self {
        Self { cap: cap.max(1), start: 0, data: Vec::new(), high_water: 0 }
    }

    /// Absolute index one past the newest sample — the total number of
    /// samples ever accepted.
    pub fn end(&self) -> usize {
        self.start + self.data.len()
    }

    /// Remaining capacity.
    pub fn free(&self) -> usize {
        self.cap - self.data.len()
    }

    /// Highest retained-sample count the ring has reached.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Appends as much of `chunk` as fits, returning how many samples
    /// were accepted (possibly 0 — the caller decides whether to block,
    /// drain, or drop; the ring itself never drops).
    pub fn push(&mut self, chunk: &[Complex]) -> usize {
        let take = chunk.len().min(self.free());
        self.data.extend_from_slice(&chunk[..take]);
        self.high_water = self.high_water.max(self.data.len());
        take
    }

    /// Every retained sample, with its absolute base index.
    pub fn live(&self) -> (usize, &[Complex]) {
        (self.start, &self.data)
    }

    /// Releases every sample before absolute index `abs` (clamped to the
    /// retained range), freeing ring capacity.
    pub fn discard_to(&mut self, abs: usize) {
        let abs = abs.clamp(self.start, self.end());
        let k = abs - self.start;
        if k > 0 {
            self.data.drain(..k);
            self.start = abs;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f64) -> Complex {
        Complex::real(v)
    }

    #[test]
    fn absolute_indexing_survives_discard() {
        let mut r = SampleRing::new(8);
        assert_eq!(r.push(&[s(0.0), s(1.0), s(2.0), s(3.0)]), 4);
        assert_eq!((r.live().0, r.end()), (0, 4));
        r.discard_to(2);
        assert_eq!((r.live().0, r.end(), r.live().1.len()), (2, 4, 2));
        assert_eq!(r.push(&[s(4.0), s(5.0)]), 2);
        let (base, live) = r.live();
        assert_eq!(base, 2);
        assert_eq!(live.iter().map(|c| c.re).collect::<Vec<_>>(), [2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn push_accepts_only_what_fits() {
        let mut r = SampleRing::new(3);
        let chunk: Vec<Complex> = (0..5).map(|i| s(i as f64)).collect();
        assert_eq!(r.push(&chunk), 3, "bounded: excess is refused, not dropped silently");
        assert_eq!(r.free(), 0);
        assert_eq!(r.high_water(), 3);
        r.discard_to(2);
        assert_eq!(r.push(&chunk[3..]), 2);
        assert_eq!(r.end(), 5);
    }

    #[test]
    fn discard_is_clamped_and_idempotent() {
        let mut r = SampleRing::new(4);
        r.push(&[s(0.0), s(1.0)]);
        r.discard_to(0); // no-op
        r.discard_to(10); // clamped to end
        assert_eq!((r.live().0, r.live().1.len()), (2, 0));
        r.discard_to(1); // behind start: no-op
        assert_eq!(r.live().0, 2);
    }
}
