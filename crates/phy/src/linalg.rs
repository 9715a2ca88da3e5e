//! Small dense complex linear algebra.
//!
//! The receiver solves three kinds of least-squares problems: channel
//! (ISI tap) estimation from the known preamble and zero-forcing inverse
//! filter design (§4.2.4d), both a handful of unknowns, and recovery's
//! sliding-window joint solves, about 64 equations in 55–64 unknown
//! symbols. Gaussian elimination with partial pivoting on the normal
//! equations is adequate for all of them and dependency-free.
//!
//! [`lstsq_cond`] builds the Hermitian normal matrix `AᴴA` in one flat
//! row-major `m×m` buffer. It accumulates only the upper triangle, and
//! only over each row's nonzero entries: recovery's coefficient columns
//! are unit-impulse images a few samples wide, so most products are
//! exact zeros. The lower triangle is then mirrored from the upper one.
//! The elimination runs in place on the same buffer and subtracts only
//! the pivot row's nonzero entries. Every shortcut is bitwise exact
//! against the plain dense computation for finite inputs (see
//! [`lstsq_cond`]).

use crate::complex::{Complex, ZERO};

/// Solves the dense square system `A·x = b` in place by Gaussian
/// elimination with partial pivoting. `a` is `A` in row-major order
/// (`n×n` for `n = b.len()`) and, like `b`, must hold no `-0`
/// component; [`normal_equations`] never produces one. Returns the
/// solution and a conditioning diagnostic: the min/max pivot-magnitude
/// ratio observed during elimination (`1.0` = perfectly balanced,
/// `→ 0` = nearly singular). Returns `None` for (numerically) singular
/// systems.
fn solve_flat(a: &mut [Complex], b: &mut [Complex]) -> Option<(Vec<Complex>, f64)> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix must be square and match the vector");

    let mut pivot_min = f64::INFINITY;
    let mut pivot_max = 0.0f64;
    let mut nonzero: Vec<usize> = Vec::with_capacity(n);
    for col in 0..n {
        // partial pivot (ties go to the last maximal row)
        let (pivot_row, pivot_mag) =
            (col..n).map(|r| (r, a[r * n + col].norm_sq())).max_by(|x, y| x.1.total_cmp(&y.1))?;
        if pivot_mag < 1e-24 {
            return None;
        }
        pivot_min = pivot_min.min(pivot_mag);
        pivot_max = pivot_max.max(pivot_mag);
        if pivot_row != col {
            let (upper, lower) = a.split_at_mut(pivot_row * n);
            upper[col * n..(col + 1) * n].swap_with_slice(&mut lower[..n]);
            b.swap(col, pivot_row);
        }

        let (head, tail) = a.split_at_mut((col + 1) * n);
        let pivot = &head[col * n..(col + 1) * n];
        let inv_pivot = pivot[col].inv();
        // Only the pivot row's nonzero entries right of the diagonal are
        // subtracted. Column `col` below the diagonal is never read
        // again. A zero product leaves its entry unchanged: `x − ±0 = x`
        // unless `x` is -0, and `x − y` is -0 only when `x` already is.
        nonzero.clear();
        nonzero.extend((col + 1..n).filter(|&c| pivot[c] != ZERO));
        let (b_head, b_tail) = b.split_at_mut(col + 1);
        let bv = b_head[col];
        for (row, br) in tail.chunks_exact_mut(n).zip(b_tail.iter_mut()) {
            let factor = row[col] * inv_pivot;
            if factor == ZERO {
                continue;
            }
            for &c in &nonzero {
                row[c] -= factor * pivot[c];
            }
            *br -= factor * bv;
        }
    }

    // back substitution
    let mut x = vec![ZERO; n];
    for row in (0..n).rev() {
        let a_row = &a[row * n..(row + 1) * n];
        let mut acc = b[row];
        for (&a_rc, &x_c) in a_row[row + 1..].iter().zip(&x[row + 1..]) {
            acc -= a_rc * x_c;
        }
        x[row] = acc * a_row[row].inv();
    }
    // pivot magnitudes are norm_sq; report the amplitude-domain ratio
    let cond = if n == 0 || pivot_max <= 0.0 { 1.0 } else { (pivot_min / pivot_max).sqrt() };
    Some((x, cond))
}

/// Solves the least-squares problem `min ‖A·x − b‖²` via the normal
/// equations `AᴴA·x = Aᴴb`, with Tikhonov regularisation `λ` on the
/// diagonal for robustness against ill-conditioned training sequences.
///
/// `rows` holds the rows of `A`; every row must have the same length.
pub fn lstsq(rows: &[Vec<Complex>], b: &[Complex], lambda: f64) -> Option<Vec<Complex>> {
    lstsq_cond(rows, b, lambda).map(|(x, _)| x)
}

/// [`lstsq`] that also reports the regularised normal matrix's measured
/// conditioning (the elimination pivot ratio, `1.0` = balanced, `→ 0` =
/// nearly singular) so callers can log it or adapt their ridge between
/// solves. Identical arithmetic to [`lstsq`].
///
/// For finite inputs the result is bit for bit the one a plain dense
/// build of every `AᴴA` entry and a dense elimination would give,
/// although only the upper triangle is accumulated and only over
/// nonzero entries:
/// * every entry sums its terms in row order from `+0`, and such a sum
///   never becomes `-0`, so the skipped `±0` products cannot change it;
/// * `conj(rᵢ)·rⱼ` has the same real part as `conj(rⱼ)·rᵢ` and the
///   exactly negated imaginary part, except that a zero stays `+0`.
///   Sums of negated terms round to the negated sum, so each lower entry
///   is its upper mirror with the imaginary part `0 − im` (a plain
///   `conj` would store `-0` where the dense build stores `+0`);
/// * so no entry of the system is `-0`, and elimination keeps it that
///   way (`x − y` is `-0` only when `x` is), which makes subtracting a
///   zero product a no-op the elimination can skip.
pub fn lstsq_cond(
    rows: &[Vec<Complex>],
    b: &[Complex],
    lambda: f64,
) -> Option<(Vec<Complex>, f64)> {
    assert_eq!(rows.len(), b.len(), "row/observation count mismatch");
    let (mut ata, mut atb) = normal_equations(rows, b, lambda)?;
    solve_flat(&mut ata, &mut atb)
}

/// The regularised normal equations of [`lstsq_cond`]: `AᴴA + λI` as a
/// flat row-major `m×m` buffer, and `Aᴴb`. `None` when there are no rows.
fn normal_equations(
    rows: &[Vec<Complex>],
    b: &[Complex],
    lambda: f64,
) -> Option<(Vec<Complex>, Vec<Complex>)> {
    let m = rows.first()?.len();
    let mut ata = vec![ZERO; m * m];
    let mut atb = vec![ZERO; m];
    let mut nonzero: Vec<usize> = Vec::with_capacity(m);
    for (row, &obs) in rows.iter().zip(b.iter()) {
        debug_assert_eq!(row.len(), m);
        nonzero.clear();
        nonzero.extend((0..m).filter(|&j| row[j] != ZERO));
        for (t, &i) in nonzero.iter().enumerate() {
            let ci = row[i].conj();
            let upper = &mut ata[i * m..(i + 1) * m];
            for &j in &nonzero[t..] {
                upper[j] += ci * row[j];
            }
            atb[i] += ci * obs;
        }
    }
    for i in 0..m {
        for j in 0..i {
            let u = ata[j * m + i];
            ata[i * m + j] = Complex::new(u.re, 0.0 - u.im);
        }
        ata[i * m + i] += Complex::real(lambda);
    }
    Some((ata, atb))
}

/// Normalised Gram determinant of a set of equation rows:
/// `|det(G)| / ∏ G[i][i]` where `G[i][j] = ⟨rowᵢ, rowⱼ⟩` — `1.0` for
/// mutually orthogonal rows, `0.0` for a linearly dependent set
/// (Hadamard's inequality bounds it to `[0, 1]` for the Gram matrix of
/// any row set). Recovery's salvage-pool recruitment scores candidate
/// equation sets with this before committing to a solve: a recruit whose
/// channel-proxy row is near-collinear with the rows already admitted
/// contributes no diversity and drags the joint normal matrix toward
/// singularity.
///
/// An empty set and a single row trivially score `1.0` (nothing to be
/// collinear with); an all-zero row among others scores `0.0` (it can
/// never add an equation).
pub fn gram_conditioning(rows: &[Vec<Complex>]) -> f64 {
    let m = rows.len();
    if m <= 1 {
        return 1.0;
    }
    let mut g = vec![vec![ZERO; m]; m];
    for i in 0..m {
        for j in 0..m {
            let mut acc = ZERO;
            for (a, b) in rows[i].iter().zip(rows[j].iter()) {
                acc += a.conj() * *b;
            }
            g[i][j] = acc;
        }
    }
    let mut denom = 1.0f64;
    for (i, row) in g.iter().enumerate() {
        let d = row[i].re;
        if d <= 0.0 {
            return 0.0;
        }
        denom *= d;
    }
    // |det(G)| = ∏ |pivots| under partial pivoting (row swaps only flip
    // the sign)
    let mut det = 1.0f64;
    for col in 0..m {
        let pivot_row = (col..m)
            .max_by(|&x, &y| g[x][col].norm_sq().total_cmp(&g[y][col].norm_sq()))
            .expect("non-empty pivot range");
        if g[pivot_row][col].norm_sq() < 1e-24 * denom.powf(1.0 / m as f64).max(1e-300) {
            return 0.0;
        }
        g.swap(col, pivot_row);
        det *= g[col][col].abs();
        let inv_pivot = g[col][col].inv();
        let (pivot_rows, rest) = g.split_at_mut(col + 1);
        let pivot = &pivot_rows[col];
        for row in rest.iter_mut() {
            let factor = row[col] * inv_pivot;
            if factor == ZERO {
                continue;
            }
            for (dst, &src) in row[col..m].iter_mut().zip(pivot[col..m].iter()) {
                *dst -= factor * src;
            }
        }
    }
    (det / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// The nested-row solver `solve_flat` replaced, kept verbatim as the
    /// oracle for the flat one.
    fn solve_nested(a: &mut [Vec<Complex>], b: &mut [Complex]) -> Option<(Vec<Complex>, f64)> {
        let n = b.len();
        let mut pivot_min = f64::INFINITY;
        let mut pivot_max = 0.0f64;
        for col in 0..n {
            let (pivot_row, pivot_mag) =
                (col..n).map(|r| (r, a[r][col].norm_sq())).max_by(|x, y| x.1.total_cmp(&y.1))?;
            if pivot_mag < 1e-24 {
                return None;
            }
            pivot_min = pivot_min.min(pivot_mag);
            pivot_max = pivot_max.max(pivot_mag);
            a.swap(col, pivot_row);
            b.swap(col, pivot_row);

            let inv_pivot = a[col][col].inv();
            for r in col + 1..n {
                let factor = a[r][col] * inv_pivot;
                if factor == ZERO {
                    continue;
                }
                #[allow(clippy::needless_range_loop)] // the oracle keeps its original indexing
                for c in col..n {
                    let v = a[col][c];
                    a[r][c] -= factor * v;
                }
                let bv = b[col];
                b[r] -= factor * bv;
            }
        }
        let mut x = vec![ZERO; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for col in row + 1..n {
                acc -= a[row][col] * x[col];
            }
            x[row] = acc * a[row][row].inv();
        }
        let cond = if n == 0 || pivot_max <= 0.0 { 1.0 } else { (pivot_min / pivot_max).sqrt() };
        Some((x, cond))
    }

    /// The dense nested-row normal-equation build `lstsq_cond` replaced:
    /// every `AᴴA` entry summed over every row.
    fn normal_equations_nested(
        rows: &[Vec<Complex>],
        b: &[Complex],
        lambda: f64,
    ) -> Option<(Vec<Vec<Complex>>, Vec<Complex>)> {
        let m = rows.first()?.len();
        let mut ata = vec![vec![ZERO; m]; m];
        let mut atb = vec![ZERO; m];
        for (row, &obs) in rows.iter().zip(b.iter()) {
            for i in 0..m {
                let ci = row[i].conj();
                for j in 0..m {
                    ata[i][j] += ci * row[j];
                }
                atb[i] += ci * obs;
            }
        }
        for (i, row) in ata.iter_mut().enumerate() {
            row[i] += Complex::real(lambda);
        }
        Some((ata, atb))
    }

    fn lstsq_cond_nested(
        rows: &[Vec<Complex>],
        b: &[Complex],
        lambda: f64,
    ) -> Option<(Vec<Complex>, f64)> {
        let (mut ata, mut atb) = normal_equations_nested(rows, b, lambda)?;
        solve_nested(&mut ata, &mut atb)
    }

    /// Asserts the flat normal equations equal the nested build bit for
    /// bit, entry by entry.
    fn assert_normal_equations_match(rows: &[Vec<Complex>], b: &[Complex], lambda: f64) {
        let (ata, atb) = normal_equations(rows, b, lambda).expect("rows");
        let (ata_nested, atb_nested) = normal_equations_nested(rows, b, lambda).expect("rows");
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        let flat_nested: Vec<Complex> = ata_nested.into_iter().flatten().collect();
        assert_eq!(bits(&ata), bits(&flat_nested), "AᴴA diverged");
        assert_eq!(bits(&atb), bits(&atb_nested), "Aᴴb diverged");
    }

    /// Bit patterns of a solve result, `None` kept distinct.
    fn bits(sol: &Option<(Vec<Complex>, f64)>) -> Option<(Vec<(u64, u64)>, u64)> {
        sol.as_ref().map(|(x, cond)| {
            (x.iter().map(|v| (v.re.to_bits(), v.im.to_bits())).collect(), cond.to_bits())
        })
    }

    /// Solves a square system given by rows through `solve_flat`,
    /// checking it bit for bit against the nested oracle.
    fn solve_rows(a: &[Vec<Complex>], b: &[Complex]) -> Option<Vec<Complex>> {
        let mut flat: Vec<Complex> = a.iter().flatten().copied().collect();
        let flat_sol = solve_flat(&mut flat, &mut b.to_vec());
        let nested_sol = solve_nested(&mut a.to_vec(), &mut b.to_vec());
        assert_eq!(bits(&flat_sol), bits(&nested_sol), "flat and nested solves diverged");
        flat_sol.map(|(x, _)| x)
    }

    #[test]
    fn solve_identity() {
        let a = vec![vec![c(1.0, 0.0), ZERO], vec![ZERO, c(1.0, 0.0)]];
        let x = solve_rows(&a, &[c(3.0, 1.0), c(-2.0, 0.5)]).unwrap();
        assert!((x[0] - c(3.0, 1.0)).abs() < 1e-12);
        assert!((x[1] - c(-2.0, 0.5)).abs() < 1e-12);
    }

    #[test]
    fn solve_known_complex_system() {
        // A = [[1+j, 2], [3, 4-j]], x = [1-j, 2+j]; b = A·x
        let a = vec![vec![c(1.0, 1.0), c(2.0, 0.0)], vec![c(3.0, 0.0), c(4.0, -1.0)]];
        let x_true = [c(1.0, -1.0), c(2.0, 1.0)];
        let b: Vec<Complex> = a.iter().map(|row| row[0] * x_true[0] + row[1] * x_true[1]).collect();
        let x = solve_rows(&a, &b).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-10);
        assert!((x[1] - x_true[1]).abs() < 1e-10);
    }

    #[test]
    fn singular_returns_none() {
        let a = vec![vec![c(1.0, 0.0), c(2.0, 0.0)], vec![c(2.0, 0.0), c(4.0, 0.0)]];
        assert!(solve_rows(&a, &[c(1.0, 0.0), c(2.0, 0.0)]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = vec![vec![ZERO, c(1.0, 0.0)], vec![c(1.0, 0.0), ZERO]];
        let x = solve_rows(&a, &[c(5.0, 0.0), c(7.0, 0.0)]).unwrap();
        assert!((x[0] - c(7.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(5.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn pivoting_ties_pick_the_last_maximal_row() {
        // equal pivot magnitudes in column 0: rows 1 and 2 tie, and the
        // last one must win in both solvers
        let a = vec![
            vec![c(0.5, 0.0), c(1.0, 2.0), c(0.0, 1.0)],
            vec![c(1.0, 0.0), c(3.0, 0.0), c(1.0, 1.0)],
            vec![c(0.0, 1.0), c(-1.0, 0.5), c(2.0, 0.0)],
        ];
        let x = solve_rows(&a, &[c(1.0, 0.0), c(0.0, 1.0), c(2.0, -1.0)]).unwrap();
        for (row, &rhs) in a.iter().zip(&[c(1.0, 0.0), c(0.0, 1.0), c(2.0, -1.0)]) {
            let lhs = row.iter().zip(&x).fold(ZERO, |acc, (&r, &v)| acc + r * v);
            assert!((lhs - rhs).abs() < 1e-10);
        }
    }

    #[test]
    fn lstsq_exact_system() {
        // Overdetermined but consistent.
        let rows = vec![
            vec![c(1.0, 0.0), c(0.0, 0.0)],
            vec![c(0.0, 0.0), c(1.0, 0.0)],
            vec![c(1.0, 0.0), c(1.0, 0.0)],
        ];
        let b = vec![c(2.0, 0.0), c(3.0, 0.0), c(5.0, 0.0)];
        let x = lstsq(&rows, &b, 0.0).unwrap();
        assert!((x[0] - c(2.0, 0.0)).abs() < 1e-10);
        assert!((x[1] - c(3.0, 0.0)).abs() < 1e-10);
    }

    #[test]
    fn lstsq_minimises_residual() {
        // Inconsistent system: solution must beat small perturbations.
        let rows = vec![vec![c(1.0, 0.0)], vec![c(1.0, 0.0)]];
        let b = vec![c(0.0, 0.0), c(2.0, 0.0)];
        let x = lstsq(&rows, &b, 0.0).unwrap();
        assert!((x[0] - c(1.0, 0.0)).abs() < 1e-10); // mean
    }

    #[test]
    fn lstsq_cond_matches_lstsq_and_ranks_conditioning() {
        let rows = vec![
            vec![c(1.0, 0.0), c(0.0, 0.0)],
            vec![c(0.0, 0.0), c(1.0, 0.0)],
            vec![c(1.0, 0.0), c(1.0, 0.0)],
        ];
        let b = vec![c(2.0, 0.0), c(3.0, 0.0), c(5.0, 0.0)];
        let (x, cond) = lstsq_cond(&rows, &b, 0.0).unwrap();
        let x_plain = lstsq(&rows, &b, 0.0).unwrap();
        assert_eq!(x, x_plain, "the diagnostic must not perturb the solve");
        assert!(cond > 0.0 && cond <= 1.0, "cond {cond}");

        // a nearly-collinear system must measure as worse conditioned
        let bad_rows = vec![vec![c(1.0, 0.0), c(1.0, 0.0)], vec![c(1.0, 0.0), c(1.0 + 1e-3, 0.0)]];
        let bad_b = vec![c(1.0, 0.0), c(1.0, 0.0)];
        let (_, bad_cond) = lstsq_cond(&bad_rows, &bad_b, 1e-9).unwrap();
        assert!(bad_cond < cond, "collinear rows: {bad_cond} vs {cond}");
    }

    #[test]
    fn gram_conditioning_spans_orthogonal_to_collinear() {
        // orthogonal rows: perfectly conditioned
        let ortho = vec![vec![c(2.0, 0.0), ZERO], vec![ZERO, c(0.5, 0.0)]];
        assert!((gram_conditioning(&ortho) - 1.0).abs() < 1e-12);
        // scaled duplicates: no diversity at all
        let dup = vec![vec![c(1.0, 0.5), c(2.0, 0.0)], vec![c(2.0, 1.0), c(4.0, 0.0)]];
        assert!(gram_conditioning(&dup) < 1e-9);
        // a global phase rotation is still a duplicate equation
        let rot: Vec<Vec<Complex>> =
            vec![dup[0].clone(), dup[0].iter().map(|&v| v * Complex::cis(1.1)).collect()];
        assert!(gram_conditioning(&rot) < 1e-9);
        // partial overlap lands strictly between
        let mid = vec![vec![c(1.0, 0.0), ZERO], vec![c(1.0, 0.0), c(1.0, 0.0)]];
        let g = gram_conditioning(&mid);
        assert!(g > 0.1 && g < 0.9, "partial overlap: {g}");
        // trivial sets
        assert!((gram_conditioning(&[]) - 1.0).abs() < 1e-12);
        assert!((gram_conditioning(&[vec![c(3.0, 0.0)]]) - 1.0).abs() < 1e-12);
        assert_eq!(gram_conditioning(&[vec![c(1.0, 0.0)], vec![ZERO]]), 0.0);
    }

    #[test]
    fn regularisation_stabilises_singular_normal_eqs() {
        let rows = vec![vec![c(1.0, 0.0), c(1.0, 0.0)]];
        let b = vec![c(2.0, 0.0)];
        // Without λ this is singular; with λ it returns the minimum-norm-ish
        // solution.
        let x = lstsq(&rows, &b, 1e-6).unwrap();
        assert!((x[0] - x[1]).abs() < 1e-6);
        assert!(((x[0] + x[1]) - c(2.0, 0.0)).abs() < 1e-3);
    }

    use proptest::prelude::*;
    use rand::prelude::*;

    /// A random entry: with probability `p_zero` an exact zero of either
    /// sign in either component, otherwise sometimes purely real or
    /// purely imaginary.
    fn entry(rng: &mut StdRng, p_zero: f64) -> Complex {
        let zero = |rng: &mut StdRng| if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
        let value = |rng: &mut StdRng| rng.gen_range(-2.0..2.0);
        if rng.gen_bool(p_zero) {
            return c(zero(rng), zero(rng));
        }
        match rng.gen_range(0..8u8) {
            0 => c(zero(rng), value(rng)),
            1 => c(value(rng), zero(rng)),
            _ => c(value(rng), value(rng)),
        }
    }

    /// Recovery-like columns: the unknowns split between two packets,
    /// and each column is a unit-impulse image, a short band of nonzero
    /// samples around the symbol's position in the window, zero
    /// elsewhere.
    fn banded_rows(rng: &mut StdRng, n_rows: usize, n_cols: usize) -> Vec<Vec<Complex>> {
        let mut rows = vec![vec![ZERO; n_cols]; n_rows];
        let split = rng.gen_range(0..n_cols + 1);
        let offsets = [rng.gen_range(0..8usize), rng.gen_range(0..8usize)];
        let half_width = rng.gen_range(1..12usize);
        for j in 0..n_cols {
            let (packet, sym) = if j < split { (0, j) } else { (1, j - split) };
            let centre = offsets[packet] + sym;
            let lo = centre.saturating_sub(half_width);
            let hi = (centre + half_width + 1).min(n_rows);
            for row in rows.iter_mut().take(hi).skip(lo) {
                row[j] = entry(rng, 0.1);
            }
        }
        rows
    }

    /// Makes the column set rank deficient: a zero column, a scaled
    /// duplicate column, or more columns than rows (already deficient).
    fn make_deficient(rng: &mut StdRng, rows: &mut [Vec<Complex>]) {
        let n_cols = rows[0].len();
        let (dst, src) = (rng.gen_range(0..n_cols), rng.gen_range(0..n_cols));
        let scale = entry(rng, 0.0);
        let zero_it = rng.gen_bool(0.5);
        for row in rows.iter_mut() {
            row[dst] = if zero_it { ZERO } else { row[src] * scale };
        }
    }

    proptest! {
        #[test]
        fn flat_lstsq_matches_nested_oracle_bitwise(
            seed: u64,
            n_rows in 1usize..71,
            n_cols in 1usize..65,
            shape in 0u8..4,
            lambda_pick in 0u8..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows: Vec<Vec<Complex>> = match shape {
                0 => (0..n_rows).map(|_| (0..n_cols).map(|_| entry(&mut rng, 0.3)).collect()).collect(),
                _ => banded_rows(&mut rng, n_rows, n_cols),
            };
            if shape == 3 {
                make_deficient(&mut rng, &mut rows);
            }
            let b: Vec<Complex> = (0..n_rows).map(|_| entry(&mut rng, 0.05)).collect();
            let lambda = match lambda_pick {
                0 => 0.0,
                1 => 1e-9,
                _ => rng.gen_range(1e-6..1e-1),
            };
            assert_normal_equations_match(&rows, &b, lambda);
            let flat = lstsq_cond(&rows, &b, lambda);
            let nested = lstsq_cond_nested(&rows, &b, lambda);
            prop_assert_eq!(bits(&flat), bits(&nested));
        }
    }

    #[test]
    fn zero_column_without_ridge_is_singular_in_both() {
        let rows = vec![vec![c(1.0, 0.5), ZERO], vec![c(-0.5, 2.0), ZERO]];
        let b = [c(1.0, 0.0), c(0.0, 1.0)];
        assert!(lstsq_cond(&rows, &b, 0.0).is_none());
        assert!(lstsq_cond_nested(&rows, &b, 0.0).is_none());
    }

    #[test]
    fn lower_triangle_mirror_keeps_positive_zero() {
        // conj(r0)·r1 has imaginary part +0 here, so a plain `conj`
        // mirror would store -0 where the dense build stores +0
        let rows = vec![vec![c(1.0, 0.0), c(2.0, 0.0)], vec![c(0.0, 1.0), c(0.0, 3.0)]];
        let b = [c(1.0, 0.0), c(0.0, -1.0)];
        assert_normal_equations_match(&rows, &b, 1e-3);
        assert_eq!(bits(&lstsq_cond(&rows, &b, 1e-3)), bits(&lstsq_cond_nested(&rows, &b, 1e-3)));
    }
}
