//! Differential harness for the kernel backends: for every hot-loop
//! primitive (correlate, fir, interp, mrc, match metric), the `Simd`
//! backend must match the `Scalar` reference within 1e-9 across random
//! lengths, taps and frequency offsets — including the edge cases (empty
//! input, scan offset at the buffer end, ω = 0, identity filter). This
//! is the numerical-equivalence bar that lets the decode engine switch
//! backends without bit-level decode divergence. The resampler is held
//! to more: the channel simulator synthesizes air on it, so it must equal
//! the scalar reference bit for bit.

use proptest::prelude::*;
use zigzag_phy::complex::Complex;
use zigzag_phy::filter::Fir;
use zigzag_phy::kernel::{BackendKind, CorrFootprint, Kernel, MatchScore};

fn to_complex(raw: &[(f64, f64)]) -> Vec<Complex> {
    raw.iter().map(|&(re, im)| Complex::new(re, im)).collect()
}

fn assert_close(a: &[Complex], b: &[Complex], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch {} vs {}", a.len(), b.len());
    for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!((*x - *y).abs() < tol, "{what}[{k}]: {x:?} vs {y:?} (err {})", (*x - *y).abs());
    }
}

proptest! {
    #[test]
    fn scan_matches_scalar(
        y_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..300),
        s_raw in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..80),
        omega in -0.5f64..0.5,
    ) {
        let y = to_complex(&y_raw);
        let s = to_complex(&s_raw);
        let mut scalar = Kernel::new(BackendKind::Scalar);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        // positions deliberately run past the buffer end: offsets with a
        // partial (or empty) overlap must agree too
        let positions = 0..y.len() + 4;
        scalar.scan_into(&y, &s, omega, positions.clone(), &mut a);
        let mut fast = Kernel::new(BackendKind::Simd);
        fast.scan_into(&y, &s, omega, positions.clone(), &mut b);
        assert_close(&a, &b, 1e-9, "simd");
    }

    #[test]
    fn fir_matches_scalar(
        x_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..200),
        taps_raw in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..12),
        delay_pick in 0usize..12,
    ) {
        let x = to_complex(&x_raw);
        let taps = to_complex(&taps_raw);
        let fir = Fir::new(taps.clone(), delay_pick % taps.len());
        let mut scalar = Kernel::new(BackendKind::Scalar);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar.fir_apply_into(&fir, &x, &mut a);
        let mut fast = Kernel::new(BackendKind::Simd);
        fast.fir_apply_into(&fir, &x, &mut b);
        assert_close(&a, &b, 1e-9, "simd");
    }

    #[test]
    fn resample_matches_scalar(
        x_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..200),
        start in -20.0f64..220.0,
        drift in -0.01f64..0.01,
        n in 0usize..250,
        integer_step in 0u8..2,
    ) {
        let x = to_complex(&x_raw);
        // step = 1 exercises the cached-tap fast path; step = 1 + drift
        // the per-output cache-miss path
        let step = if integer_step == 1 { 1.0 } else { 1.0 + drift };
        let mut scalar = Kernel::new(BackendKind::Scalar);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar.resample_into(&x, start, step, n, &mut a);
        let mut fast = Kernel::new(BackendKind::Simd);
        fast.resample_into(&x, start, step, n, &mut b);
        assert_close(&a, &b, 1e-9, "simd");
    }

    #[test]
    fn mrc_matches_scalar(
        s1_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..120),
        s2_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..120),
        s3_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..120),
        w1 in 0.0f64..10.0,
        w2 in 0.0f64..10.0,
        w3 in 0.0f64..10.0,
    ) {
        let (s1, s2, s3) = (to_complex(&s1_raw), to_complex(&s2_raw), to_complex(&s3_raw));
        let streams: Vec<(&[Complex], f64)> = vec![(&s1, w1), (&s2, w2), (&s3, w3)];
        let mut scalar = Kernel::new(BackendKind::Scalar);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        scalar.combine_weighted_into(&streams, &mut a);
        let mut fast = Kernel::new(BackendKind::Simd);
        // 1- and 2-stream prefixes hit dedicated kernels; cover them
        // alongside the 3-stream general path
        for take in 1..=streams.len() {
            let (mut sa, mut sb) = (Vec::new(), Vec::new());
            scalar.combine_weighted_into(&streams[..take], &mut sa);
            fast.combine_weighted_into(&streams[..take], &mut sb);
            assert_close(&sa, &sb, 1e-9, "simd");
        }
        fast.combine_weighted_into(&streams, &mut b);
        assert_close(&a, &b, 1e-9, "simd");
    }
}

/// Output counts at the `Simd` resampler's block boundaries: just below,
/// at and above its 16-output block, two blocks, and a long run.
const BLOCK_EDGES: [usize; 9] = [15, 16, 17, 31, 32, 33, 255, 256, 257];

proptest! {
    /// The channel simulator synthesizes every air sample through the
    /// `Simd` resampler, so its output must equal the scalar reference
    /// `interp::resample_into` bit for bit (compared by `to_bits`), not
    /// merely within a tolerance. Cases span the channel's calls (start
    /// µ ∈ [−0.5, 0.5), n = len, step 1 or 1 ± drift up to 20 ppm,
    /// frames up to 3000 samples) plus starts before the buffer, starts
    /// past its end, and n ≠ len. Three more placements aim at the
    /// block path: n at its block boundaries, starts just below a power
    /// of two (where `start + k` rounds to a coarser fraction, so the run
    /// of equal fractions ends inside a block), and runs whose last
    /// windows are clipped by the end of the buffer.
    #[test]
    fn resample_is_bit_identical_to_the_reference(
        x_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 1..3001),
        mu in -0.5f64..0.5,
        placement in 0u8..7,
        shift in 0.0f64..64.0,
        step_kind in 0u8..3,
        drift in 0.0f64..2e-5,
        n_pick in 0usize..4096,
        power in 4u32..12,
    ) {
        let x = to_complex(&x_raw);
        let len = x.len();
        let edge_n = BLOCK_EDGES[n_pick % BLOCK_EDGES.len()];
        let before_power = (1u64 << power) as f64 - (n_pick % 20) as f64;
        // 0: the channel's call (start µ, n = len); 1: start µ with any
        // n; 2: a start before the buffer; 3: a start past its end;
        // 4: n at a block boundary; 5: a run crossing 2^power; 6: a run
        // ending past the buffer's end
        let (start, n) = match placement {
            0 => (mu, len),
            1 => (mu, n_pick % (len + 64)),
            2 => (mu - shift, n_pick % (len + 64)),
            3 => (len as f64 + mu + shift, n_pick % (len + 64)),
            4 => (mu + (n_pick % len) as f64, edge_n),
            5 => (before_power + mu, edge_n),
            _ => (len as f64 - edge_n as f64 + mu + shift / 4.0, edge_n),
        };
        let step = match step_kind {
            0 => 1.0,
            1 => 1.0 + drift,
            _ => 1.0 - drift,
        };
        let mut want = Vec::new();
        zigzag_phy::interp::resample_into(&x, start, step, n, &mut want);
        let mut got = Vec::new();
        Kernel::new(BackendKind::Simd).resample_into(&x, start, step, n, &mut got);
        assert_eq!(got.len(), n);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "output {k} of start {start}, step {step}, n {n}, len {len}: {g:?} vs {w:?}"
            );
        }
    }
}

/// Asserts the match-metric agreement bar: metrics within `tol`, and
/// the argmax τ within one sweep step of each other, or else a tie.
/// Both backends sweep ascending and break exact ties toward the earlier
/// τ, but a ≤1e-9 metric difference may flip a near-tie to another step.
/// Usually that is a neighbour; on a flat sweep (a one-sample overlap
/// scores 1 at every τ) it can be any step. So a farther τ passes only
/// if each path's metric at the other path's τ is within `tol` of its
/// own maximum: `at_a(τ)` and `at_b(τ)` are the two paths' metrics at
/// one τ.
fn assert_match_close(
    a: MatchScore,
    b: MatchScore,
    tau_step: f64,
    tol: f64,
    what: &str,
    (at_a, at_b): (&dyn Fn(f64) -> f64, &dyn Fn(f64) -> f64),
) {
    assert!(
        (a.metric - b.metric).abs() < tol,
        "{what}: metric {} vs {} (err {})",
        a.metric,
        b.metric,
        (a.metric - b.metric).abs()
    );
    if (a.tau - b.tau).abs() < tau_step + 1e-9 {
        return;
    }
    let (a_there, b_there) = (at_a(b.tau), at_b(a.tau));
    assert!(
        a_there > a.metric - tol && b_there > b.metric - tol,
        "{what}: argmax τ {} vs {} further than one step ({tau_step}) and not a tie: \
         metric {a_there} at τ {} against a maximum {}, {b_there} at τ {} against {}",
        a.tau,
        b.tau,
        b.tau,
        a.metric,
        a.tau,
        b.metric
    );
}

/// The match metric of `a` against the samples `b`, from its definition.
fn metric_of(a: &[Complex], b: impl Iterator<Item = Complex>) -> f64 {
    let (mut acc, mut ea, mut eb) = (Complex::default(), 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        acc += *x * y.conj();
        ea += x.norm_sq();
        eb += y.norm_sq();
    }
    if ea > 0.0 && eb > 0.0 {
        acc.abs() / (ea * eb).sqrt()
    } else {
        0.0
    }
}

/// The overlap `match_score` scores: `window` clamped to both tails.
fn overlap(a: &[Complex], start_a: usize, b_len: usize, start_b: usize, window: usize) -> usize {
    window.min(a.len().saturating_sub(start_a)).min(b_len.saturating_sub(start_b))
}

/// The raw path's metric at one τ: `b` interpolated from the buffer.
fn raw_metric_at(
    a: &[Complex],
    start_a: usize,
    b: &[Complex],
    start_b: usize,
    window: usize,
    tau: f64,
) -> f64 {
    let n = overlap(a, start_a, b.len(), start_b, window);
    if n == 0 {
        return 0.0;
    }
    let b_at = |k: usize| zigzag_phy::interp::interp_at(b, start_b as f64 + k as f64 + tau);
    metric_of(&a[start_a..start_a + n], (0..n).map(b_at))
}

/// The footprint path's metric at one τ: `b` read from the lane at τ's
/// fraction.
fn fp_metric_at(
    a: &[Complex],
    start_a: usize,
    fp: &CorrFootprint,
    start_b: usize,
    window: usize,
    tau: f64,
) -> f64 {
    let n = overlap(a, start_a, fp.source_len(), start_b, window);
    if n == 0 {
        return 0.0;
    }
    let lane = fp.lane(tau - tau.floor()).expect("the footprint covers the sweep");
    let base = (start_b as isize + tau.floor() as isize + 1) as usize;
    metric_of(&a[start_a..start_a + n], lane.samples()[base..base + n].iter().copied())
}

proptest! {
    /// `match_score` differential: with `bail: None` the simd sweep
    /// must reproduce the scalar reference loop — metric ≤ 1e-9, argmax
    /// τ within one step — across random spans, windows and sweep
    /// resolutions (including spans that overhang either buffer).
    #[test]
    fn match_score_matches_scalar(
        a_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..260),
        b_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..260),
        start_a in 0usize..280,
        start_b in 0usize..280,
        window in 0usize..200,
        step_pick in 0u8..3,
    ) {
        let a = to_complex(&a_raw);
        let b = to_complex(&b_raw);
        let tau_step = [0.25, 0.5, 1.0][step_pick as usize];
        let mut scalar = Kernel::new(BackendKind::Scalar);
        let ms = scalar.match_score(&a, start_a, &b, start_b, window, tau_step, None);
        let mut fast = Kernel::new(BackendKind::Simd);
        let mf = fast.match_score(&a, start_a, &b, start_b, window, tau_step, None);
        let at = |tau| raw_metric_at(&a, start_a, &b, start_b, window, tau);
        assert_match_close(ms, mf, tau_step, 1e-9, "simd", (&at, &at));
    }

    /// The bail contract: when the exact metric clears the bail bar the
    /// abandoning backends must return it exactly (abandonment never
    /// clips a survivor); below the bar any returned value must itself
    /// stay below the bar (a rejection, never a fake survivor).
    #[test]
    fn match_score_bail_contract(
        a_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 8..200),
        b_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 8..200),
        start_b in 0usize..64,
        window in 16usize..160,
        bail in 0.0f64..1.0,
    ) {
        let a = to_complex(&a_raw);
        let b = to_complex(&b_raw);
        let mut scalar = Kernel::new(BackendKind::Scalar);
        let exact = scalar.match_score(&a, 0, &b, start_b, window, 0.25, None);
        let mut fast = Kernel::new(BackendKind::Simd);
        let bailed = fast.match_score(&a, 0, &b, start_b, window, 0.25, Some(bail));
        if exact.metric >= bail {
            let at = |tau| raw_metric_at(&a, 0, &b, start_b, window, tau);
            assert_match_close(exact, bailed, 0.25, 1e-9, "simd", (&at, &at));
        } else {
            prop_assert!(
                bailed.metric < bail + 1e-9,
                "simd: abandoned metric {} breached the bail bar {bail}",
                bailed.metric
            );
        }
    }

    /// Footprint-backed scoring is the raw path, cached: for a footprint
    /// built by `ensure_footprint`, `match_score_fp` must agree with
    /// `match_score` on the raw buffer — on every backend, including at
    /// the coarser sweeps (0.5, 1.0) whose lanes are a subset of the
    /// 0.25 build.
    #[test]
    fn footprint_scoring_matches_raw(
        a_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 4..200),
        b_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 4..200),
        start_a in 0usize..64,
        start_b in 0usize..64,
        window in 1usize..160,
        step_pick in 0u8..3,
    ) {
        let a = to_complex(&a_raw);
        let b = to_complex(&b_raw);
        let tau_step = [0.25, 0.5, 1.0][step_pick as usize];
        let mut fp_kernel = Kernel::new(BackendKind::Simd);
        let mut fp = CorrFootprint::default();
        fp_kernel.ensure_footprint(&mut fp, &b, 0.25, &mut Vec::new);
        prop_assert!(fp.covers(b.len(), tau_step));
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let mut kernel = Kernel::new(kind);
            let raw = kernel.match_score(&a, start_a, &b, start_b, window, tau_step, None);
            let cached = kernel.match_score_fp(&a, start_a, &fp, start_b, window, tau_step, None);
            let raw_at = |tau| raw_metric_at(&a, start_a, &b, start_b, window, tau);
            let fp_at = |tau| fp_metric_at(&a, start_a, &fp, start_b, window, tau);
            assert_match_close(raw, cached, tau_step, 1e-9, kind.name(), (&raw_at, &fp_at));
        }
    }
}

#[test]
fn match_score_edge_cases() {
    let a: Vec<Complex> = (0..96).map(|k| Complex::cis(0.13 * k as f64)).collect();
    let b: Vec<Complex> = (0..64).map(|k| Complex::cis(0.13 * k as f64 + 0.4)).collect();
    let mut fp_kernel = Kernel::new(BackendKind::Simd);
    let mut fp = CorrFootprint::default();
    fp_kernel.ensure_footprint(&mut fp, &b, 0.25, &mut Vec::new);
    let zero = MatchScore::default();
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let mut kernel = Kernel::new(kind);
        // empty span: a zero-length window scores zero, not NaN
        assert_eq!(kernel.match_score(&a, 0, &b, 0, 0, 0.25, None), zero);
        assert_eq!(kernel.match_score_fp(&a, 0, &fp, 0, 0, 0.25, None), zero);
        // empty buffers on either side
        assert_eq!(kernel.match_score(&[], 0, &b, 0, 64, 0.25, None), zero);
        assert_eq!(kernel.match_score(&a, 0, &[], 0, 64, 0.25, None), zero);
        // start exactly at (and past) the buffer tail: zero overlap
        assert_eq!(kernel.match_score(&a, a.len(), &b, 0, 64, 0.25, None), zero);
        assert_eq!(kernel.match_score(&a, 0, &b, b.len(), 64, 0.25, None), zero);
        assert_eq!(kernel.match_score_fp(&a, 0, &fp, b.len() + 7, 64, 0.25, None), zero);
    }
    // window longer than either buffer: clamps to the shorter tail and
    // still agrees across backends and against the footprint path
    let mut scalar = Kernel::new(BackendKind::Scalar);
    let ms = scalar.match_score(&a, 10, &b, 3, 10_000, 0.25, None);
    assert!(ms.metric > 0.9, "aligned tones must correlate, got {}", ms.metric);
    let mut fast = Kernel::new(BackendKind::Simd);
    let mo = fast.match_score(&a, 10, &b, 3, 10_000, 0.25, None);
    let mf = fast.match_score_fp(&a, 10, &fp, 3, 10_000, 0.25, None);
    let raw_at = |tau| raw_metric_at(&a, 10, &b, 3, 10_000, tau);
    let fp_at = |tau| fp_metric_at(&a, 10, &fp, 3, 10_000, tau);
    assert_match_close(ms, mo, 0.25, 1e-9, "clamped window", (&raw_at, &raw_at));
    assert_match_close(ms, mf, 0.25, 1e-9, "clamped window fp", (&raw_at, &fp_at));
}

#[test]
fn scan_edge_cases() {
    let y: Vec<Complex> = (0..64).map(|k| Complex::cis(0.21 * k as f64)).collect();
    let s: Vec<Complex> = (0..16).map(|k| Complex::cis(-0.4 * k as f64)).collect();
    let mut scalar = Kernel::new(BackendKind::Scalar);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut fast = Kernel::new(BackendKind::Simd);
    for omega in [0.0, 0.1] {
        // empty received buffer
        scalar.scan_into(&[], &s, omega, 0..4, &mut a);
        fast.scan_into(&[], &s, omega, 0..4, &mut b);
        assert_close(&a, &b, 1e-12, "scan empty y");
        // empty reference sequence
        scalar.scan_into(&y, &[], omega, 0..y.len(), &mut a);
        fast.scan_into(&y, &[], omega, 0..y.len(), &mut b);
        assert_close(&a, &b, 1e-12, "scan empty s");
        // δ exactly at / one past the buffer end (zero-sample overlap)
        scalar.scan_into(&y, &s, omega, y.len() - 1..y.len() + 1, &mut a);
        fast.scan_into(&y, &s, omega, y.len() - 1..y.len() + 1, &mut b);
        assert_close(&a, &b, 1e-9, "scan at buffer end");
        // empty position range
        scalar.scan_into(&y, &s, omega, 5..5, &mut a);
        fast.scan_into(&y, &s, omega, 5..5, &mut b);
        assert!(a.is_empty() && b.is_empty());
    }
}

#[test]
fn fir_identity_and_empty() {
    let x: Vec<Complex> = (0..32).map(|k| Complex::new(k as f64, -(k as f64))).collect();
    let mut scalar = Kernel::new(BackendKind::Scalar);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut fast = Kernel::new(BackendKind::Simd);
    // identity filter takes the pass-through shortcut on both backends
    scalar.fir_apply_into(&Fir::identity(), &x, &mut a);
    fast.fir_apply_into(&Fir::identity(), &x, &mut b);
    assert_eq!(a, x);
    assert_eq!(b, x);
    // empty input
    let f = Fir::from_real(&[0.2, 1.0, -0.1], 1);
    scalar.fir_apply_into(&f, &[], &mut a);
    fast.fir_apply_into(&f, &[], &mut b);
    assert!(a.is_empty() && b.is_empty());
    // single-tap non-identity (delay 0 edge)
    let f1 = Fir::from_real(&[-0.7], 0);
    scalar.fir_apply_into(&f1, &x, &mut a);
    fast.fir_apply_into(&f1, &x, &mut b);
    assert_close(&a, &b, 1e-12, "single tap");
}

#[test]
fn resample_edge_cases() {
    let x: Vec<Complex> = (0..40).map(|k| Complex::cis(0.07 * k as f64)).collect();
    let mut scalar = Kernel::new(BackendKind::Scalar);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut fast = Kernel::new(BackendKind::Simd);
    // empty input buffer, and n = 0
    scalar.resample_into(&[], 0.3, 1.0, 8, &mut a);
    fast.resample_into(&[], 0.3, 1.0, 8, &mut b);
    assert_close(&a, &b, 1e-12, "resample empty buffer");
    scalar.resample_into(&x, 0.3, 1.0, 0, &mut a);
    fast.resample_into(&x, 0.3, 1.0, 0, &mut b);
    assert!(a.is_empty() && b.is_empty());
    // positions entirely out of range on both sides
    for start in [-1e4, 1e4] {
        scalar.resample_into(&x, start, 1.0, 8, &mut a);
        fast.resample_into(&x, start, 1.0, 8, &mut b);
        assert_close(&a, &b, 1e-12, "resample out of range");
    }
    // exactly integer positions (the sinc(0) = 1 special case)
    scalar.resample_into(&x, 0.0, 1.0, x.len(), &mut a);
    fast.resample_into(&x, 0.0, 1.0, x.len(), &mut b);
    assert_close(&a, &b, 1e-12, "resample integer grid");
    // Far-out and non-finite starts, on unit and drifting grids: no
    // backend may panic or read outside the buffer, and every output is
    // the reference's zero, bit for bit. Past ~9.2e18 the window's index
    // arithmetic would overflow `isize`; at 1e300 a unit step leaves
    // the position unchanged, so the whole call is one run of equal
    // fractions whose windows all lie outside the buffer.
    for start in [1e19, -1e19, 1e300, -1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for step in [1.0, 1.0 + 2e-5, 1.0 - 2e-5] {
            let mut want = Vec::new();
            zigzag_phy::interp::resample_into(&x, start, step, 12, &mut want);
            scalar.resample_into(&x, start, step, 12, &mut a);
            fast.resample_into(&x, start, step, 12, &mut b);
            for (what, got) in [("reference", &want), ("scalar", &a), ("simd", &b)] {
                assert_eq!(got.len(), 12, "{what} at {start}+k*{step}");
                for (k, v) in got.iter().enumerate() {
                    assert!(
                        v.re.to_bits() == 0 && v.im.to_bits() == 0,
                        "{what} output {k} at {start}+k*{step}: {v:?}, want +0"
                    );
                }
            }
        }
    }
}

#[test]
fn mrc_edge_cases() {
    let s: Vec<Complex> = (0..8).map(|k| Complex::real(k as f64)).collect();
    let mut scalar = Kernel::new(BackendKind::Scalar);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let mut fast = Kernel::new(BackendKind::Simd);
    // all-zero weights must yield zeros, not NaNs, on both backends
    let streams: Vec<(&[Complex], f64)> = vec![(&s, 0.0), (&s, 0.0)];
    scalar.combine_weighted_into(&streams, &mut a);
    fast.combine_weighted_into(&streams, &mut b);
    assert_eq!(a, b);
    assert!(a.iter().all(|v| *v == Complex::default()));
    // empty streams
    let empty: Vec<(&[Complex], f64)> = vec![(&[], 1.0)];
    scalar.combine_weighted_into(&empty, &mut a);
    fast.combine_weighted_into(&empty, &mut b);
    assert!(a.is_empty() && b.is_empty());
}
