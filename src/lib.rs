//! # chase
//!
//! Facade crate for the ChASE reproduction workspace: re-exports the public
//! API of every sub-crate. See `README.md` for a tour and `DESIGN.md` for
//! the paper-to-module map.

pub use chase_comm as comm;
pub use chase_core as core;
pub use chase_device as device;
pub use chase_direct as direct;
pub use chase_linalg as linalg;
pub use chase_matgen as matgen;
pub use chase_perfmodel as perfmodel;
pub use chase_serve as serve;
pub use chase_trace as trace;

pub use chase_core::{
    try_solve_dist, try_solve_elastic, try_solve_serial, ChaseError, ChaseResult, Params,
    QrStrategy, WarmStart,
};
pub use chase_linalg::{Matrix, C32, C64};
pub use chase_serve::{JobSpec, Scheduler, SchedulerConfig};
