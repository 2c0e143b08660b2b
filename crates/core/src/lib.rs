//! # chase-core
//!
//! The ChASE eigensolver — Chebyshev Accelerated Subspace iteration for
//! dense Hermitian problems — with the SC'23 paper's novel parallelization
//! scheme, flexible communication-avoiding QR, condition-number-driven QR
//! switching, and backend-dependent (MPI-staged vs NCCL device-direct)
//! collective accounting.
//!
//! Entry points (each returns a typed [`ChaseError`] on failure; a warm
//! start is an optional input, not a separate function):
//! * [`try_solve_dist`] — SPMD solve inside a [`chase_comm::run_grid`] region.
//! * [`try_solve_serial`] — one-rank solve on a replicated matrix.
//! * [`try_solve_elastic`] — SPMD solve that survives rank crashes by
//!   shrinking the grid and resuming from the latest checkpoint.
//! * [`lms::solve_lms`] — the legacy v1.2 layout (redundant QR/RR/residuals),
//!   kept as the ChASE(LMS) baseline of the paper's evaluation.

pub mod ckpt;
pub mod condest;
pub mod degrees;
pub mod elastic;
pub mod filter;
pub mod hemm;
pub mod layout;
pub mod lms;
pub mod params;
pub mod plan;
pub mod qr;
pub mod result;
pub mod solver;
pub mod warm;

pub use ckpt::{load_latest, CkptError, Snapshot, CKPT_FORMAT, CKPT_VERSION};
pub use condest::{cond_est, growth_factor};
pub use degrees::{degree_sort_permutation, optimal_degree, optimize_degrees};
pub use elastic::{try_solve_elastic, ElasticOutcome};
pub use filter::{
    chebyshev_filter, chebyshev_filter_mixed, chebyshev_filter_with, FilterBounds, FilterError,
    FilterExec,
};
pub use hemm::{hemm_b_to_c, hemm_b_to_c_pipelined, hemm_c_to_b, hemm_c_to_b_pipelined};
pub use layout::{DistHerm, MemoryReport, RowDist};
pub use params::{Params, PrecisionMode, QrStrategy};
pub use plan::{PlanSource, SolvePlan};
pub use qr::{
    cholesky_qr, flexible_qr, householder_qr_dist, ladder_start, next_rung, qr_ladder,
    shifted_cholesky_qr2, LadderAttempt, QrError, QrVariant, COND_SHIFTED, COND_SINGLE,
};
pub use result::{
    ChaseError, ChaseErrorKind, ChaseResult, IterStats, RecoveryEvent, RecoveryEventKind,
    RecoveryLog,
};
pub use solver::{estimate_bounds_dist, try_solve_dist, try_solve_serial, Chase};
pub use warm::WarmStart;
