//! Small dense complex linear algebra.
//!
//! The receiver solves two kinds of tiny least-squares problems: channel
//! (ISI tap) estimation from the known preamble, and zero-forcing inverse
//! filter design (§4.2.4d). Systems are at most ~15 unknowns, so plain
//! Gaussian elimination with partial pivoting on the normal equations is
//! both adequate and dependency-free.

use crate::complex::{Complex, ZERO};

/// Solves the dense square system `A·x = b` in place by Gaussian
/// elimination with partial pivoting. Returns `None` for (numerically)
/// singular systems.
pub fn solve_in_place(a: &mut [Vec<Complex>], b: &mut [Complex]) -> Option<Vec<Complex>> {
    solve_tracking(a, b).map(|(x, _)| x)
}

/// [`solve_in_place`] that additionally reports a conditioning
/// diagnostic: the min/max pivot-magnitude ratio observed during
/// elimination (`1.0` = perfectly balanced, `→ 0` = nearly singular).
/// The arithmetic is identical to [`solve_in_place`] — the ratio is a
/// pure observation of the pivots the elimination takes anyway.
pub fn solve_tracking(a: &mut [Vec<Complex>], b: &mut [Complex]) -> Option<(Vec<Complex>, f64)> {
    let n = b.len();
    assert_eq!(a.len(), n, "matrix/vector size mismatch");
    for row in a.iter() {
        assert_eq!(row.len(), n, "matrix must be square");
    }

    let mut pivot_min = f64::INFINITY;
    let mut pivot_max = 0.0f64;
    for col in 0..n {
        // partial pivot
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
            #[allow(clippy::needless_range_loop)] // pivot search indexes rows by position
            for c in col..n {
                let v = a[col][c];
                a[r][c] -= factor * v;
            }
            let bv = b[col];
            b[r] -= factor * bv;
        }
    }

    // back substitution
    let mut x = vec![ZERO; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for col in row + 1..n {
            acc -= a[row][col] * x[col];
        }
        x[row] = acc * a[row][row].inv();
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
/// conditioning (the elimination pivot ratio of
/// [`solve_tracking`], `1.0` = balanced, `→ 0` = nearly singular) so
/// callers can log it or adapt their ridge between solves. Identical
/// arithmetic to [`lstsq`].
pub fn lstsq_cond(
    rows: &[Vec<Complex>],
    b: &[Complex],
    lambda: f64,
) -> Option<(Vec<Complex>, f64)> {
    assert_eq!(rows.len(), b.len(), "row/observation count mismatch");
    let m = rows.first()?.len();
    let mut ata = vec![vec![ZERO; m]; m];
    let mut atb = vec![ZERO; m];
    for (row, &obs) in rows.iter().zip(b.iter()) {
        debug_assert_eq!(row.len(), m);
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
    solve_tracking(&mut ata, &mut atb)
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

    #[test]
    fn solve_identity() {
        let mut a = vec![vec![c(1.0, 0.0), ZERO], vec![ZERO, c(1.0, 0.0)]];
        let mut b = vec![c(3.0, 1.0), c(-2.0, 0.5)];
        let x = solve_in_place(&mut a, &mut b).unwrap();
        assert!((x[0] - c(3.0, 1.0)).abs() < 1e-12);
        assert!((x[1] - c(-2.0, 0.5)).abs() < 1e-12);
    }

    #[test]
    fn solve_known_complex_system() {
        // A = [[1+j, 2], [3, 4-j]], x = [1-j, 2+j]; b = A·x
        let a0 = vec![vec![c(1.0, 1.0), c(2.0, 0.0)], vec![c(3.0, 0.0), c(4.0, -1.0)]];
        let x_true = [c(1.0, -1.0), c(2.0, 1.0)];
        let b0: Vec<Complex> =
            a0.iter().map(|row| row[0] * x_true[0] + row[1] * x_true[1]).collect();
        let mut a = a0.clone();
        let mut b = b0.clone();
        let x = solve_in_place(&mut a, &mut b).unwrap();
        assert!((x[0] - x_true[0]).abs() < 1e-10);
        assert!((x[1] - x_true[1]).abs() < 1e-10);
    }

    #[test]
    fn singular_returns_none() {
        let mut a = vec![vec![c(1.0, 0.0), c(2.0, 0.0)], vec![c(2.0, 0.0), c(4.0, 0.0)]];
        let mut b = vec![c(1.0, 0.0), c(2.0, 0.0)];
        assert!(solve_in_place(&mut a, &mut b).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let mut a = vec![vec![ZERO, c(1.0, 0.0)], vec![c(1.0, 0.0), ZERO]];
        let mut b = vec![c(5.0, 0.0), c(7.0, 0.0)];
        let x = solve_in_place(&mut a, &mut b).unwrap();
        assert!((x[0] - c(7.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(5.0, 0.0)).abs() < 1e-12);
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
}
