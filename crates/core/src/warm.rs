//! First-class warm starts for sequences of correlated eigenproblems.
//!
//! ChASE's raison d'être (Section 1) is *sequences*: in a DFT
//! self-consistency loop each Hamiltonian is a small perturbation of the
//! previous one, so the previous eigenvectors are an excellent initial
//! subspace and the previous spectral bounds remain valid up to a small
//! margin. [`WarmStart`] packages exactly that hand-off: the solver accepts
//! it directly (no caller-side padding loop) and skips the Lanczos
//! estimation phase when cached bounds are supplied.

use crate::result::ChaseResult;
use chase_linalg::{Matrix, RealScalar, Scalar, SpectralBounds};

/// The state one solve hands to the next solve of a correlated sequence.
///
/// `v0` holds `k` approximate eigenvectors as its columns (`n x k`, with
/// `1 <= k <= ne`); the solver pads the remaining `ne - k` search directions
/// with its seeded random block, so callers no longer hand-roll that loop.
/// `bounds` optionally carries the previous solve's refined spectral
/// estimates; when present the Lanczos phase is skipped entirely and the
/// upper bound is inflated by a small safety margin (the next matrix is a
/// perturbation, so its spectrum may poke slightly past the old `b_sup`).
#[derive(Debug, Clone)]
pub struct WarmStart<T: Scalar> {
    /// Global approximate eigenvectors (`n x k`, `k <= ne`).
    pub v0: Matrix<T>,
    /// Cached spectral bounds from the previous solve.
    pub bounds: Option<SpectralBounds<T::Real>>,
}

impl<T: Scalar> WarmStart<T> {
    /// Warm start from explicit vectors only (bounds re-estimated).
    pub fn from_vectors(v0: Matrix<T>) -> Self {
        Self { v0, bounds: None }
    }

    /// Build the warm-start payload for the next solve in a sequence from
    /// the per-rank results of an SPMD run (a single-element slice for
    /// serial solves). Assembles the full eigenvector block and reuses the
    /// refined spectral bounds.
    pub fn from_results(results: &[ChaseResult<T>]) -> Self {
        assert!(!results.is_empty());
        let v0 = ChaseResult::assemble_eigenvectors(results);
        Self {
            v0,
            bounds: Some(results[0].bounds),
        }
    }

    /// Check that this payload fits a problem of order `n` with an
    /// `ne`-column search space: `v0` must have `n` rows and `1..=ne`
    /// columns. A warm start carried over from a differently sized step of
    /// a sequence fails here with a message instead of reaching the solver.
    pub fn check_fits(&self, n: usize, ne: usize) -> Result<(), String> {
        let (rows, k) = (self.v0.rows(), self.v0.cols());
        if rows != n {
            return Err(format!(
                "warm-start block has {rows} rows, problem size is {n}"
            ));
        }
        if !(1..=ne).contains(&k) {
            return Err(format!(
                "warm-start block must have 1..=ne columns (got {k}, ne {ne})"
            ));
        }
        Ok(())
    }

    /// Bytes a session cache pays to keep this payload resident.
    pub fn bytes(&self) -> usize {
        self.v0.bytes() + std::mem::size_of::<SpectralBounds<T::Real>>()
    }

    /// The bounds the solver will actually filter with: cached bounds with
    /// `b_sup` inflated by `margin` (relative to the spectral span), so a
    /// perturbed Hamiltonian whose spectrum crept past the old estimate
    /// still lands inside the damped interval.
    pub fn inflated_bounds(&self, margin: f64) -> Option<SpectralBounds<T::Real>> {
        self.bounds.map(|b| {
            let span = (b.b_sup - b.mu_1).abs_r();
            SpectralBounds {
                mu_1: b.mu_1,
                mu_ne: b.mu_ne,
                b_sup: b.b_sup + span * T::Real::from_f64_r(margin),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_linalg::C64;

    #[test]
    fn inflation_extends_upper_bound_only() {
        let w = WarmStart::<C64> {
            v0: Matrix::zeros(4, 2),
            bounds: Some(SpectralBounds {
                mu_1: -1.0,
                mu_ne: 0.0,
                b_sup: 1.0,
            }),
        };
        let b = w.inflated_bounds(0.01).unwrap();
        assert_eq!(b.mu_1, -1.0);
        assert_eq!(b.mu_ne, 0.0);
        assert!((b.b_sup - 1.02).abs() < 1e-12);
    }

    #[test]
    fn from_vectors_has_no_bounds() {
        let w = WarmStart::<f64>::from_vectors(Matrix::zeros(3, 1));
        assert!(w.bounds.is_none());
        assert!(w.bytes() >= 3 * std::mem::size_of::<f64>());
    }
}
