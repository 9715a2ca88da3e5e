//! The cancellation core shared by the ZigZag executor
//! ([`crate::zigzag`]) and the recovery solver ([`crate::recovery`]).
//!
//! Both decode a set of collisions by one loop (§4.2.3–§4.2.4, §4.5
//! Step 2): decide some symbols of a packet, re-encode them through the
//! packet's channel view in every collision holding it, subtract the
//! image, and correct the view from what the subtraction exposed. This
//! module owns the state that loop keeps per (collision × packet): the
//! residual of each collision and the accumulated image of each packet
//! in it, under the invariant
//!
//! ```text
//!   residual[c] = buffer[c] − Σ_q acc[c][q]
//! ```
//!
//! [`Cancellation::render`] renders a packet's image over an *expanded*
//! span from all of its currently decided symbols and subtracts only the
//! delta against the accumulator. So the boundary tails of earlier
//! renders (ISI post-cursors, sinc skirts) heal as soon as the
//! neighbouring symbols are decided instead of polluting the other
//! packets, and re-rendering an already rendered range (after a view is
//! re-estimated) replaces its image instead of subtracting it twice.

use crate::config::debug_trace;
use crate::engine::scratch::Scratch;
use crate::view::{ChannelView, Tracking};
use std::ops::Range;
use zigzag_phy::complex::{Complex, ZERO};

/// Minimum rendered range (symbols) for reconstruction feedback to fire:
/// tiny ranges carry too little energy for a stable estimate.
pub(crate) const MIN_FEEDBACK_CHUNK: usize = 16;

/// Residuals and accumulated images of a set of collisions decoded
/// together (see the module docs).
pub(crate) struct Cancellation {
    residuals: Vec<Vec<Complex>>,
    /// `acc[c][q]`: the image of packet `q` currently subtracted from
    /// collision `c`, on `c`'s sample grid.
    acc: Vec<Vec<Vec<Complex>>>,
}

impl Cancellation {
    /// Nothing subtracted yet: each residual is its buffer.
    pub(crate) fn new<'b>(
        buffers: impl IntoIterator<Item = &'b [Complex]>,
        packets: usize,
    ) -> Self {
        let residuals: Vec<Vec<Complex>> = buffers.into_iter().map(<[Complex]>::to_vec).collect();
        let acc = residuals.iter().map(|b| vec![vec![ZERO; b.len()]; packets]).collect();
        Self { residuals, acc }
    }

    /// Collision `c` with every rendered image subtracted.
    pub(crate) fn residual(&self, c: usize) -> &[Complex] {
        &self.residuals[c]
    }

    /// Collision `c` with the images of every packet *but* `q`
    /// subtracted, `residual[c] + acc[c][q]`: packet `q` as if it had been
    /// received alone.
    pub(crate) fn cleaned(&self, c: usize, q: usize) -> impl Iterator<Item = Complex> + '_ {
        self.residuals[c].iter().zip(&self.acc[c][q]).map(|(&r, &a)| r + a)
    }

    /// Renders packet `q`'s image in collision `c` through `view` over
    /// `range` widened by the view's [margin](ChannelView::margin)
    /// (clipped to `decided`), from the decided symbols (`None` renders as
    /// zero), and delta-subtracts it against the accumulator. Unless
    /// `tracking` is [`Tracking::Off`], the span's observed image (the
    /// residual plus the old accumulator) is then fed back to `view` when
    /// `range` holds at least [`MIN_FEEDBACK_CHUNK`] symbols and the image
    /// lies inside the buffer. Temporaries come from `ws`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn render(
        &mut self,
        c: usize,
        q: usize,
        view: &mut ChannelView,
        range: Range<usize>,
        decided: &[Option<Complex>],
        tracking: Tracking<'_>,
        ws: &mut Scratch,
    ) {
        let Scratch { pool, image, kernel, .. } = ws;
        let sym_fn = |n: usize| decided.get(n).copied().flatten();
        let m = view.margin();
        let exp = range.start.saturating_sub(m)..(range.end + m).min(decided.len());
        view.synthesize_into(exp.clone(), &sym_fn, pool, kernel, image);
        let (residual, acc) = (&mut self.residuals[c], &mut self.acc[c][q]);
        let blen = residual.len();
        let span = image.first.min(blen)..image.range().end.min(blen);
        let observed = (!matches!(tracking, Tracking::Off)).then(|| {
            let mut o = pool.take();
            o.extend(span.clone().map(|p| residual[p] + acc[p]));
            o
        });
        for (k, p) in span.clone().enumerate() {
            let new_val = image.samples[k];
            residual[p] -= new_val - acc[p];
            acc[p] = new_val;
        }
        let Some(observed) = observed else { return };
        if debug_trace() {
            let before = zigzag_phy::complex::mean_power(&observed);
            let after = zigzag_phy::complex::mean_power(&residual[span]);
            eprintln!("    sub q{q} from c{c} at {range:?}: pwr {before:.2} -> {after:.2}");
        }
        if range.len() >= MIN_FEEDBACK_CHUNK && observed.len() == image.samples.len() {
            view.feedback(&observed, image, exp, &sym_fn, pool, kernel, tracking);
        }
        pool.put(observed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DecoderConfig;
    use crate::view::WindowPll;
    use rand::prelude::*;
    use zigzag_phy::filter::Fir;

    fn noise(rng: &mut StdRng) -> Complex {
        Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
    }

    /// `max |residual[c] + Σ_q acc[c][q] − buffer[c]|` over the samples,
    /// and the scale it is measured against: the largest `|buffer|` plus
    /// the largest `|acc|`.
    fn invariant_error(sic: &Cancellation, c: usize, buffer: &[Complex]) -> (f64, f64) {
        let (mut err, mut scale) = (0.0f64, 0.0f64);
        for (p, &b) in buffer.iter().enumerate() {
            let mut sum = sic.residuals[c][p];
            let mut acc_abs = 0.0;
            for acc in &sic.acc[c] {
                sum += acc[p];
                acc_abs += acc[p].abs();
            }
            err = err.max((sum - b).abs());
            scale = scale.max(b.abs() + acc_abs);
        }
        (err, scale)
    }

    proptest::proptest! {
        /// Whatever is rendered, in whatever order, with any tracking mode
        /// moving the views in between, over partial ranges and re-renders
        /// of ranges already rendered, each residual plus the packets'
        /// accumulated images is still the buffer it started from — and
        /// `cleaned` is the residual plus the packet's own image.
        #[test]
        fn residual_plus_images_is_the_buffer(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n_cols, n_pkts) = (rng.gen_range(1..4usize), rng.gen_range(1..4usize));
            let cfg = DecoderConfig::default();
            let isi = Fir::new(vec![Complex::new(0.1, 0.05), Complex::real(1.0), Complex::new(0.2, -0.1)], 1);
            let buffers: Vec<Vec<Complex>> = (0..n_cols)
                .map(|_| (0..rng.gen_range(120..400)).map(|_| noise(&mut rng)).collect())
                .collect();
            let mut views: Vec<Vec<ChannelView>> = buffers
                .iter()
                .map(|b| {
                    (0..n_pkts)
                        .map(|_| {
                            let taps = if rng.gen_range(0..2) == 0 { Fir::identity() } else { isi.clone() };
                            ChannelView::from_params(
                                rng.gen_range(0..b.len()),
                                rng.gen_range(-0.5..0.5),
                                rng.gen_range(0.2..4.0),
                                rng.gen_range(-3.0..3.0),
                                rng.gen_range(-0.05..0.05),
                                taps,
                                &cfg,
                            )
                        })
                        .collect()
                })
                .collect();
            let mut decided: Vec<Vec<Option<Complex>>> = (0..n_pkts)
                .map(|_| vec![None; rng.gen_range(40..300)])
                .collect();
            let mut pll = vec![vec![WindowPll::default(); n_pkts]; n_cols];
            let mut sic = Cancellation::new(buffers.iter().map(Vec::as_slice), n_pkts);
            let mut ws = Scratch::default();
            let mut rendered: Vec<(usize, usize, Range<usize>)> = Vec::new();
            for _ in 0..rng.gen_range(1..24) {
                let (c, q, range) = if !rendered.is_empty() && rng.gen_range(0..4) == 0 {
                    rendered[rng.gen_range(0..rendered.len())].clone()
                } else {
                    let q = rng.gen_range(0..n_pkts);
                    let len = decided[q].len();
                    let a = rng.gen_range(0..len);
                    let b = rng.gen_range(a..(a + 64).min(len) + 1);
                    (rng.gen_range(0..n_cols), q, a..b)
                };
                for n in range.clone() {
                    if rng.gen_range(0..4) != 0 {
                        decided[q][n] = Some(noise(&mut rng));
                    }
                }
                let tracking = match rng.gen_range(0..3) {
                    0 => Tracking::Off,
                    1 => Tracking::Chunk,
                    _ => Tracking::Window(&mut pll[c][q]),
                };
                sic.render(c, q, &mut views[c][q], range.clone(), &decided[q], tracking, &mut ws);
                rendered.push((c, q, range));
                for (c, buffer) in buffers.iter().enumerate() {
                    let (err, scale) = invariant_error(&sic, c, buffer);
                    proptest::prop_assert!(err <= 1e-9 * scale, "collision {c}: error {err} at scale {scale}");
                }
            }
            for c in 0..n_cols {
                for q in 0..n_pkts {
                    let cleaned: Vec<Complex> = sic.cleaned(c, q).collect();
                    for (p, &x) in cleaned.iter().enumerate() {
                        proptest::prop_assert_eq!(x, sic.residuals[c][p] + sic.acc[c][q][p]);
                    }
                }
            }
        }
    }
}
