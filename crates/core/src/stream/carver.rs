//! The region carver: collision buffers cut out of the continuous
//! stream around runs of detections.
//!
//! The paper's receive path starts from a *buffer* containing a
//! collision; on a real AP that buffer has to be carved out of the air.
//! [`RegionCarver`] folds the scanner's committed spikes into regions:
//!
//! * the first spike opens a region [`StreamConfig::lead`] samples
//!   early (quiet context for the decoder's interpolation and for the
//!   suppression neighborhoods the spikes were decided with);
//! * every further spike — raw, pre-merge, so even a collapsed
//!   near-duplicate counts as evidence — extends the close horizon to
//!   `spike + max_packet`, which is how a collision whose second packet
//!   starts several windows later stays in one region;
//! * the region closes once the scanner has committed past the horizon
//!   with no new spike (or at [`StreamConfig::max_region`], the runaway
//!   bound), and is emitted with its finalized merged detections
//!   attached, rebased to region coordinates — all the segmenting
//!   thread needs to route the region and, when it prepares one, run its
//!   capture attempt, with no re-scan.
//!
//! Samples are copied into the open region incrementally at every
//! advance, so ring retention never depends on region length: the ring
//! holds one advance, whatever the regions.
//!
//! [`StreamConfig::lead`]: crate::config::StreamConfig::lead
//! [`StreamConfig::max_region`]: crate::config::StreamConfig::max_region

use crate::detect::{Detection, ScanSpan};
use zigzag_phy::complex::Complex;

/// One carved collision region: a `UnitCtx`-ready buffer plus the
/// detections found in it, in region-relative coordinates.
#[derive(Clone, Debug, PartialEq)]
pub struct CarvedRegion {
    /// Region sequence number (0-based, in stream order) — the
    /// deterministic-merge key, exactly like a batch buffer index.
    pub seq: usize,
    /// Absolute stream index of `samples[0]`.
    pub start: usize,
    /// The carved samples.
    pub samples: Vec<Complex>,
    /// The detections inside this region, positions relative to
    /// `start`, exactly as the windowed scanner finalized them.
    pub detections: Vec<Detection>,
}

#[derive(Debug)]
struct OpenRegion {
    start: usize,
    /// Close horizon: the region closes once the scan commits past this
    /// with no spike at or before it.
    end_cand: usize,
    /// Absolute index up to which samples have been copied in.
    filled: usize,
    samples: Vec<Complex>,
}

/// Assembles [`CarvedRegion`]s from scanner spans (see module docs).
#[derive(Debug)]
pub(crate) struct RegionCarver {
    lead: usize,
    max_packet: usize,
    max_region: usize,
    next_seq: usize,
    open: Option<OpenRegion>,
    /// Finalized merged detections not yet attached to a closed region.
    pending: Vec<Detection>,
}

impl RegionCarver {
    pub fn new(lead: usize, max_packet: usize, max_region: usize) -> Self {
        Self {
            lead,
            max_packet: max_packet.max(1),
            max_region: max_region.max(max_packet.max(1) + lead),
            next_seq: 0,
            open: None,
            pending: Vec::new(),
        }
    }

    /// Regions emitted so far.
    pub fn regions(&self) -> usize {
        self.next_seq
    }

    /// Lowest absolute sample index the carver may still read (the open
    /// region's fill point) — the driver keeps the ring at least this
    /// far back, minus `lead` for a region that might open just behind
    /// the commit point.
    pub fn min_sample_needed(&self, commit: usize) -> usize {
        let open_from = self.open.as_ref().map(|o| o.filled).unwrap_or(usize::MAX);
        open_from.min(commit.saturating_sub(self.lead))
    }

    /// Folds one committed span into the carve state: opens/extends/
    /// closes regions from `span.raw`, buffers `span.merged` for
    /// attachment, copies samples through `upto` (the new commit point),
    /// and emits every region that closed.
    pub fn advance(
        &mut self,
        span: &ScanSpan,
        slice: &[Complex],
        base: usize,
        upto: usize,
        out: &mut Vec<CarvedRegion>,
    ) {
        self.pending.extend_from_slice(&span.merged);
        for &p in &span.raw {
            if matches!(&self.open, Some(o) if p > o.end_cand) {
                let region = self.close(slice, base, None);
                out.push(region);
            }
            match &mut self.open {
                Some(o) => o.end_cand = (p + self.max_packet).min(o.start + self.max_region),
                None => {
                    let start = p.saturating_sub(self.lead);
                    self.open = Some(OpenRegion {
                        start,
                        end_cand: (p + self.max_packet).min(start + self.max_region),
                        filled: start,
                        samples: Vec::new(),
                    });
                }
            }
        }
        let mut closes = false;
        if let Some(o) = &mut self.open {
            let fill_to = upto.min(o.end_cand);
            if fill_to > o.filled {
                o.samples.extend_from_slice(&slice[o.filled - base..fill_to - base]);
                o.filled = fill_to;
            }
            closes = upto >= o.end_cand;
        }
        if closes {
            let region = self.close(slice, base, None);
            out.push(region);
        }
    }

    /// Closes any still-open region at stream end `end` (the final
    /// flush: the air ended before the close horizon was reached).
    pub fn finish(
        &mut self,
        slice: &[Complex],
        base: usize,
        end: usize,
        out: &mut Vec<CarvedRegion>,
    ) {
        if self.open.is_some() {
            let region = self.close(slice, base, Some(end));
            out.push(region);
        }
        self.pending.clear();
    }

    fn close(
        &mut self,
        slice: &[Complex],
        base: usize,
        truncate_at: Option<usize>,
    ) -> CarvedRegion {
        let mut o = self.open.take().expect("close without an open region");
        let end = truncate_at.map_or(o.end_cand, |e| e.min(o.end_cand));
        if end > o.filled {
            o.samples.extend_from_slice(&slice[o.filled - base..end - base]);
        }
        let mut detections = Vec::new();
        self.pending.retain(|d| {
            if d.pos < end {
                let mut d = *d;
                d.pos -= o.start;
                detections.push(d);
                false
            } else {
                true
            }
        });
        let seq = self.next_seq;
        self.next_seq += 1;
        CarvedRegion { seq, start: o.start, samples: o.samples, detections }
    }
}
