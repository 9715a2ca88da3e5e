//! The sliding detect operator: the §4.2.1 preamble scan over an
//! unbounded stream, windowed, with nothing scanned twice.
//!
//! [`WindowScanner`] reproduces [`detect_packets`]'s result
//! incrementally. The canonical one-shot scan computes, per associated
//! client and per sampling grid (integer and half-sample), the
//! frequency-compensated correlation at every position, finds local
//! maxima over a ±L window above the client's §5.3(a) threshold, then
//! merges near-duplicates across clients. The scanner does exactly the
//! same work in absolute stream coordinates, carrying three things
//! across window boundaries so the overlap is *reused* rather than
//! re-scanned:
//!
//! * the last `L` correlation values per (client, grid) — the left
//!   suppression context for the next window's candidates;
//! * the shared half-sample interpolation stream (each half-grid value
//!   is interpolated exactly once, like each correlation position is
//!   correlated exactly once);
//! * the cross-client merge head — a detection can only be finalized
//!   once no later spike within half a preamble can replace it.
//!
//! A position is *committed* (peak-decided) only when its full `+L`
//! right neighborhood of correlation values exists, which is why the
//! driver holds back [`StreamConfig::effective_overlap`] samples of
//! lookahead; at stream end the `final` flush truncates exactly the way
//! a pre-cut buffer's edge does.
//!
//! [`detect_packets`]: crate::detect::detect_packets

use crate::config::{ClientRegistry, DecoderConfig};
use crate::detect::{client_threshold, Detection};
use zigzag_phy::complex::Complex;
use zigzag_phy::kernel::Kernel;
use zigzag_phy::preamble::Preamble;

/// What one scanner advance committed: the finalized cross-client merged
/// detections and every raw per-(client, grid) peak position, both in
/// absolute stream coordinates and ascending order. The carver shapes
/// regions from `raw` (every above-threshold spike is evidence of a
/// packet, even one the merge collapsed) and attaches `merged` (what the
/// canonical detector would return for the carved buffer).
#[derive(Debug, Default)]
pub(crate) struct ScanSpan {
    pub merged: Vec<Detection>,
    pub raw: Vec<usize>,
}

/// Per-(client, grid) correlation carry: values and magnitudes for
/// positions `[corr_base, corr_next)` (bases shared scanner-wide).
#[derive(Debug, Default)]
struct GridCarry {
    vals: Vec<Complex>,
    mags: Vec<f64>,
}

#[derive(Debug)]
struct ClientScan {
    id: u16,
    omega: f64,
    threshold: f64,
    grids: [GridCarry; 2],
}

/// The incremental windowed preamble scanner (see module docs).
#[derive(Debug)]
pub(crate) struct WindowScanner {
    symbols: Vec<Complex>,
    l: usize,
    clients: Vec<ClientScan>,
    /// First position not yet peak-committed.
    commit: usize,
    /// First position without correlation values, both grids, all clients.
    corr_next: usize,
    /// Absolute position of `GridCarry.vals[0]`.
    corr_base: usize,
    /// Shared half-sample stream: `half_vals[i]` is the buffer
    /// interpolated at `half_base + i + 0.5`.
    half_vals: Vec<Complex>,
    half_base: usize,
    half_next: usize,
    /// Cross-client merge head: a finalized-candidate detection that a
    /// not-yet-committed spike could still replace.
    pending: Option<Detection>,
    tmp: Vec<Complex>,
}

impl WindowScanner {
    /// A scanner for the given association snapshot. Clients are ordered
    /// by id so the scan order (and any exact-tie outcome) is
    /// deterministic across runs.
    pub fn new(preamble: &Preamble, registry: &ClientRegistry, cfg: &DecoderConfig) -> Self {
        let l = preamble.len();
        let mut clients: Vec<ClientScan> = registry
            .iter()
            .map(|(id, info)| ClientScan {
                id,
                omega: info.omega,
                threshold: client_threshold(cfg, l, info.snr_db),
                grids: [GridCarry::default(), GridCarry::default()],
            })
            .collect();
        clients.sort_by_key(|c| c.id);
        Self {
            symbols: preamble.symbols().to_vec(),
            l,
            clients,
            commit: 0,
            corr_next: 0,
            corr_base: 0,
            half_vals: Vec::new(),
            half_base: 0,
            half_next: 0,
            pending: None,
            tmp: Vec::new(),
        }
    }

    /// First position not yet peak-committed.
    pub fn commit(&self) -> usize {
        self.commit
    }

    /// Commits every position in `[commit, target)` — or through the end
    /// of `slice` when `final_` — deciding peaks, and returns the span's
    /// finalized detections. `slice` holds stream samples
    /// `[base, base + slice.len())`; non-final advances require
    /// `slice.len() + base ≥ target + effective_overlap` so every
    /// committed position has full context.
    pub fn advance(
        &mut self,
        slice: &[Complex],
        base: usize,
        target: usize,
        final_: bool,
        kernel: &mut Kernel,
    ) -> ScanSpan {
        let l = self.l;
        let end = base + slice.len();
        let commit_hi = if final_ { end } else { target };
        let mut span = ScanSpan::default();
        if commit_hi <= self.commit && !final_ {
            return span;
        }
        let commit_hi = commit_hi.max(self.commit);
        if self.clients.is_empty() {
            // nothing to scan for; just advance the cursors
            self.commit = commit_hi;
            self.corr_next = self.corr_next.max(commit_hi);
            self.half_next = self.half_next.max(commit_hi);
            self.prune();
            return span;
        }
        // how far correlation values (and under them, half-grid samples)
        // must extend so every committed position has its +L suppression
        // neighborhood and full-length sums; at stream end both truncate
        // at `end`, reproducing a pre-cut buffer's edge semantics
        let corr_hi = if final_ { end } else { commit_hi + l };
        let vals_hi = if final_ { end } else { corr_hi + l };

        // 1. extend the shared half-sample stream (each value once)
        if vals_hi > self.half_next {
            debug_assert!(self.half_next >= base || self.half_next == 0);
            let n = vals_hi - self.half_next;
            let start = (self.half_next - base) as f64 + 0.5;
            kernel.resample_into(slice, start, 1.0, n, &mut self.tmp);
            self.half_vals.extend_from_slice(&self.tmp);
            self.half_next = vals_hi;
        }

        // 2. extend the correlation carries (each position once)
        if corr_hi > self.corr_next {
            let int_range = (self.corr_next - base)..(corr_hi - base);
            let half_range = (self.corr_next - self.half_base)..(corr_hi - self.half_base);
            for c in &mut self.clients {
                kernel.scan_into(slice, &self.symbols, c.omega, int_range.clone(), &mut self.tmp);
                c.grids[0].vals.extend_from_slice(&self.tmp);
                c.grids[0].mags.extend(self.tmp.iter().map(|v| v.abs()));
                kernel.scan_into(
                    &self.half_vals,
                    &self.symbols,
                    c.omega,
                    half_range.clone(),
                    &mut self.tmp,
                );
                c.grids[1].vals.extend_from_slice(&self.tmp);
                c.grids[1].mags.extend(self.tmp.iter().map(|v| v.abs()));
            }
            self.corr_next = corr_hi;
        }

        // 3. decide peaks over the newly committed positions — the same
        // threshold + ±L local-max + tie-break rule as `find_peaks`
        let cb = self.corr_base;
        let mut all: Vec<Detection> = Vec::new();
        for c in &self.clients {
            for g in &c.grids {
                for p in self.commit..commit_hi {
                    let mag = g.mags[p - cb];
                    // `detect_packets`' rule: a non-finite correlation is
                    // never a spike
                    if mag < c.threshold || !mag.is_finite() {
                        continue;
                    }
                    let lo = p.saturating_sub(l).max(cb);
                    let hi = (p + l + 1).min(self.corr_next);
                    let suppressed =
                        (lo..hi).any(|j| g.mags[j - cb] > mag || (g.mags[j - cb] == mag && j < p));
                    if suppressed {
                        continue;
                    }
                    span.raw.push(p);
                    all.push(Detection {
                        pos: p,
                        client: c.id,
                        corr: g.vals[p - cb],
                        score: mag / c.threshold,
                    });
                }
            }
        }
        span.raw.sort_unstable();
        span.raw.dedup();

        // 4. incremental cross-client merge (< L/2 ⇒ keep highest score):
        // a head is final only when no future spike can still join its
        // chain, i.e. every position within L/2 after it is committed
        all.sort_by(|a, b| a.pos.cmp(&b.pos).then(b.score.total_cmp(&a.score)));
        for d in all {
            match self.pending {
                None => self.pending = Some(d),
                Some(h) if d.pos - h.pos < l / 2 => {
                    if d.score > h.score {
                        self.pending = Some(d);
                    }
                }
                Some(h) => {
                    span.merged.push(h);
                    self.pending = Some(d);
                }
            }
        }
        if let Some(h) = self.pending {
            if final_ || h.pos + l / 2 <= commit_hi {
                span.merged.push(h);
                self.pending = None;
            }
        }

        self.commit = commit_hi;
        self.prune();
        span
    }

    /// Drops carry entries no future advance can read: correlation
    /// values more than `L` behind the commit point and half-grid
    /// samples behind the correlation frontier.
    fn prune(&mut self) {
        let keep_corr = self.commit.saturating_sub(self.l).max(self.corr_base);
        let k = keep_corr - self.corr_base;
        if k > 0 {
            for c in &mut self.clients {
                for g in &mut c.grids {
                    g.vals.drain(..k);
                    g.mags.drain(..k);
                }
            }
            self.corr_base = keep_corr;
        }
        let keep_half = self.corr_next.max(self.half_base);
        let k = keep_half - self.half_base;
        if k > 0 {
            self.half_vals.drain(..k.min(self.half_vals.len()));
            self.half_base = keep_half;
        }
    }
}
