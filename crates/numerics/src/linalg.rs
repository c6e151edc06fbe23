//! Direct linear solvers for the structured systems arising from implicit
//! diffusion discretisations.
//!
//! The Crank–Nicolson treatment of the (σ²/2)·f_qq term in the
//! Fokker–Planck solver produces one tridiagonal system per ν-row per time
//! step, so [`solve_tridiagonal`] (the Thomas algorithm) is the hot path.
//! A general banded LU with partial pivoting ([`BandedMatrix`]) is provided
//! for wider stencils and as a cross-check in tests.

use crate::{NumericsError, Result};

/// Solve a tridiagonal system `A x = d` in place by the Thomas algorithm.
///
/// `sub` is the sub-diagonal (length `n`, `sub[0]` unused), `diag` the main
/// diagonal (length `n`), `sup` the super-diagonal (length `n`,
/// `sup[n-1]` unused). On success `d` holds the solution. `scratch` must
/// have length `n` and is clobbered.
///
/// The Thomas algorithm is stable for diagonally dominant systems, which
/// all our Crank–Nicolson matrices are (diagonal `1 + α`, off-diagonals
/// `-α/2`).
///
/// # Errors
/// * [`NumericsError::DimensionMismatch`] when slice lengths disagree or
///   `n == 0`.
/// * [`NumericsError::Singular`] when a pivot underflows.
pub fn solve_tridiagonal(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    d: &mut [f64],
    scratch: &mut [f64],
) -> Result<()> {
    let n = diag.len();
    if n == 0 || sub.len() != n || sup.len() != n || d.len() != n || scratch.len() != n {
        return Err(NumericsError::DimensionMismatch {
            context: "solve_tridiagonal: all slices must share a positive length",
        });
    }
    const TINY: f64 = 1e-300;
    // Forward sweep: scratch holds the modified super-diagonal c'.
    let mut beta = diag[0];
    if beta.abs() < TINY {
        return Err(NumericsError::Singular {
            context: "solve_tridiagonal: zero pivot at row 0",
        });
    }
    scratch[0] = sup[0] / beta;
    d[0] /= beta;
    for i in 1..n {
        beta = diag[i] - sub[i] * scratch[i - 1];
        if beta.abs() < TINY {
            return Err(NumericsError::Singular {
                context: "solve_tridiagonal: zero pivot",
            });
        }
        scratch[i] = sup[i] / beta;
        d[i] = (d[i] - sub[i] * d[i - 1]) / beta;
    }
    // Back substitution.
    for i in (0..n - 1).rev() {
        d[i] -= scratch[i] * d[i + 1];
    }
    Ok(())
}

/// A square banded matrix with `kl` sub-diagonals and `ku` super-diagonals,
/// stored in LAPACK-style band storage with row-pivoted LU factorisation.
#[derive(Debug, Clone)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    /// Band storage with `kl` extra rows for pivot fill-in:
    /// `ab[(kl + ku + i - j) * n + j] = A[i][j]`.
    ab: Vec<f64>,
}

impl BandedMatrix {
    /// Create an `n × n` zero banded matrix with bandwidths `kl`, `ku`.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `n == 0` or a bandwidth is
    /// `>= n`.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Result<Self> {
        if n == 0 || kl >= n || ku >= n {
            return Err(NumericsError::InvalidParameter {
                context: "BandedMatrix: need n > 0 and bandwidths < n",
            });
        }
        let rows = 2 * kl + ku + 1;
        Ok(Self {
            n,
            kl,
            ku,
            ab: vec![0.0; rows * n],
        })
    }

    /// Matrix dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    fn slot(&self, i: usize, j: usize) -> Option<usize> {
        if i >= self.n || j >= self.n {
            return None;
        }
        let (i, j) = (i as isize, j as isize);
        let (kl, ku) = (self.kl as isize, self.ku as isize);
        if i - j > kl || j - i > ku {
            return None;
        }
        let row = kl + ku + i - j;
        Some(row as usize * self.n + j as usize)
    }

    /// Set entry `(i, j)`.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `(i, j)` lies outside the
    /// band or the matrix.
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        match self.slot(i, j) {
            Some(s) => {
                self.ab[s] = v;
                Ok(())
            }
            None => Err(NumericsError::InvalidParameter {
                context: "BandedMatrix::set: index outside band",
            }),
        }
    }

    /// Read entry `(i, j)`; zero outside the band.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.slot(i, j).map_or(0.0, |s| self.ab[s])
    }

    /// `out = A x`.
    ///
    /// # Errors
    /// [`NumericsError::DimensionMismatch`] on inconsistent lengths.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.n || out.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                context: "BandedMatrix::matvec",
            });
        }
        for i in 0..self.n {
            let j_lo = i.saturating_sub(self.kl);
            let j_hi = (i + self.ku).min(self.n - 1);
            let mut acc = 0.0;
            for j in j_lo..=j_hi {
                acc += self.get(i, j) * x[j];
            }
            out[i] = acc;
        }
        Ok(())
    }

    /// Solve `A x = b` by banded Gaussian elimination with partial
    /// pivoting, overwriting `b` with the solution. The matrix is consumed
    /// because elimination destroys the band.
    ///
    /// # Errors
    /// [`NumericsError::Singular`] when a pivot column is entirely zero;
    /// [`NumericsError::DimensionMismatch`] when `b.len() != n`.
    pub fn solve_into(mut self, b: &mut [f64]) -> Result<()> {
        if b.len() != self.n {
            return Err(NumericsError::DimensionMismatch {
                context: "BandedMatrix::solve_into",
            });
        }
        let n = self.n;
        let kl = self.kl;
        let ku = self.ku;
        // Work on a dense copy of the band window per column. For the
        // small bandwidths used here (kl, ku <= 2) this is cheap and keeps
        // the pivoting logic transparent.
        //
        // Elimination with row swaps can widen the upper bandwidth to
        // kl + ku; `zeros` already reserved that fill-in space.
        for col in 0..n {
            // Find pivot in rows col..=min(col+kl, n-1).
            let mut piv = col;
            let mut piv_val = self.get(col, col).abs();
            for r in col + 1..=(col + kl).min(n - 1) {
                let v = self.get(r, col).abs();
                if v > piv_val {
                    piv = r;
                    piv_val = v;
                }
            }
            if piv_val < 1e-300 {
                return Err(NumericsError::Singular {
                    context: "BandedMatrix::solve_into: zero pivot column",
                });
            }
            if piv != col {
                // Swap rows piv and col across the (widened) band.
                let j_hi = (col + kl + ku).min(n - 1);
                for j in col..=j_hi {
                    let a = self.get(col, j);
                    let b2 = self.get(piv, j);
                    // Swapped entries always stay within the widened band.
                    let _ = self.set(col, j, b2);
                    let _ = self.set(piv, j, a);
                }
                b.swap(col, piv);
            }
            let pivot = self.get(col, col);
            for r in col + 1..=(col + kl).min(n - 1) {
                let factor = self.get(r, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                let j_hi = (col + kl + ku).min(n - 1);
                for j in col..=j_hi {
                    let v = self.get(r, j) - factor * self.get(col, j);
                    let _ = self.set(r, j, v);
                }
                b[r] -= factor * b[col];
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let j_hi = (i + kl + ku).min(n - 1);
            let mut acc = b[i];
            for j in i + 1..=j_hi {
                acc -= self.get(i, j) * b[j];
            }
            b[i] = acc / self.get(i, i);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn thomas_solves_identity() {
        let n = 5;
        let sub = vec![0.0; n];
        let diag = vec![1.0; n];
        let sup = vec![0.0; n];
        let mut d: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut scratch = vec![0.0; n];
        solve_tridiagonal(&sub, &diag, &sup, &mut d, &mut scratch).unwrap();
        for (i, v) in d.iter().enumerate() {
            assert!(approx_eq(*v, i as f64, 1e-14, 1e-14));
        }
    }

    #[test]
    fn thomas_solves_laplacian() {
        // -u'' = f discretised: [-1, 2, -1]; solve A x = A x_true.
        let n = 20;
        let sub = vec![-1.0; n];
        let diag = vec![2.0; n];
        let sup = vec![-1.0; n];
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let applied = |i: usize| {
            let left = if i > 0 { x_true[i - 1] } else { 0.0 };
            let right = x_true.get(i + 1).copied().unwrap_or(0.0);
            2.0 * x_true[i] - left - right
        };
        let mut rhs: Vec<f64> = (0..n).map(applied).collect();
        let mut scratch = vec![0.0; n];
        solve_tridiagonal(&sub, &diag, &sup, &mut rhs, &mut scratch).unwrap();
        for (a, b) in rhs.iter().zip(x_true.iter()) {
            assert!(approx_eq(*a, *b, 1e-10, 1e-10), "{a} vs {b}");
        }
    }

    #[test]
    fn thomas_detects_singular() {
        let sub = vec![0.0, 1.0];
        let diag = vec![0.0, 1.0];
        let sup = vec![1.0, 0.0];
        let mut d = vec![1.0, 1.0];
        let mut s = vec![0.0, 2.0];
        assert!(matches!(
            solve_tridiagonal(&sub, &diag, &sup, &mut d, &mut s),
            Err(NumericsError::Singular { .. })
        ));
    }

    #[test]
    fn thomas_rejects_mismatched_lengths() {
        let mut d = vec![1.0];
        let mut s = vec![0.0];
        assert!(solve_tridiagonal(&[0.0, 0.0], &[1.0], &[0.0], &mut d, &mut s).is_err());
    }

    #[test]
    fn banded_get_set_roundtrip() {
        let mut m = BandedMatrix::zeros(5, 1, 2).unwrap();
        m.set(0, 0, 1.0).unwrap();
        m.set(0, 2, 3.0).unwrap();
        m.set(4, 3, -2.0).unwrap();
        assert!(approx_eq(m.get(0, 0), 1.0, 0.0, 0.0));
        assert!(approx_eq(m.get(0, 2), 3.0, 0.0, 0.0));
        assert!(approx_eq(m.get(4, 3), -2.0, 0.0, 0.0));
        assert!(approx_eq(m.get(2, 0), 0.0, 0.0, 0.0)); // outside band reads 0
        assert!(m.set(0, 4, 1.0).is_err()); // outside ku=2 band
    }

    #[test]
    fn banded_solve_matches_tridiagonal() {
        let n = 12;
        let mut m = BandedMatrix::zeros(n, 1, 1).unwrap();
        let sub = vec![-1.0; n];
        let diag = vec![3.0; n];
        let sup = vec![-1.5; n];
        for i in 0..n {
            m.set(i, i, diag[i]).unwrap();
            if i > 0 {
                m.set(i, i - 1, sub[i]).unwrap();
            }
            if i + 1 < n {
                m.set(i, i + 1, sup[i]).unwrap();
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b = vec![0.0; n];
        m.matvec(&x_true, &mut b).unwrap();
        m.solve_into(&mut b).unwrap();
        for (a, t) in b.iter().zip(x_true.iter()) {
            assert!(approx_eq(*a, *t, 1e-10, 1e-10));
        }
    }

    #[test]
    fn banded_solve_needs_pivoting() {
        // Matrix with a zero on the diagonal that plain elimination would
        // choke on: [[0, 1], [1, 0]] — pentadiagonal storage kl=ku=1.
        let mut m = BandedMatrix::zeros(2, 1, 1).unwrap();
        m.set(0, 1, 1.0).unwrap();
        m.set(1, 0, 1.0).unwrap();
        let mut b = vec![3.0, 4.0];
        m.solve_into(&mut b).unwrap();
        assert!(approx_eq(b[0], 4.0, 1e-12, 0.0));
        assert!(approx_eq(b[1], 3.0, 1e-12, 0.0));
    }

    #[test]
    fn banded_pentadiagonal_solve() {
        let n = 15;
        let mut m = BandedMatrix::zeros(n, 2, 2).unwrap();
        for i in 0..n {
            m.set(i, i, 6.0).unwrap();
            if i >= 1 {
                m.set(i, i - 1, -1.0).unwrap();
            }
            if i >= 2 {
                m.set(i, i - 2, -0.5).unwrap();
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0).unwrap();
            }
            if i + 2 < n {
                m.set(i, i + 2, -0.5).unwrap();
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut b = vec![0.0; n];
        m.matvec(&x_true, &mut b).unwrap();
        m.solve_into(&mut b).unwrap();
        for (a, t) in b.iter().zip(x_true.iter()) {
            assert!(approx_eq(*a, *t, 1e-9, 1e-9));
        }
    }

    #[test]
    fn banded_detects_singular() {
        let m = BandedMatrix::zeros(3, 1, 1).unwrap();
        let mut b = vec![1.0, 1.0, 1.0];
        assert!(m.solve_into(&mut b).is_err());
    }
}
