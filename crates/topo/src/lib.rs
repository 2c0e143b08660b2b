//! `chase-topo`: topology-aware collective algorithms with per-hop pricing.
//!
//! The collective engine in `chase-comm` moves data in one shot; a flat
//! collective records one event per call — fine for counting volumes, blind
//! to *how* the wire protocol actually moves bytes. This crate adds the cost
//! layer NCCL's algorithm selection occupies in the real library (paper,
//! Section 3.2):
//!
//! * [`topology`] — a hierarchical machine model (JUWELS-Booster-like:
//!   4-GPU NVLink nodes joined by 4x HDR-200 InfiniBand) assigning every
//!   rank pair a link class with alpha-beta parameters for both the
//!   device-direct (NCCL) and host-staged (MPI) data paths.
//! * [`exec`] — ring, binomial-tree and recursive-doubling schedules for
//!   allreduce / bcast / allgather as a pure cost plan: [`hop_plan`] emits
//!   the chunk-granular `(bytes, link)` hops one rank sends, without moving
//!   data. The engine still moves the data, so every schedule is bitwise
//!   identical to flat by construction.
//! * [`cost`] — analytic alpha-beta costs of those schedules (lockstep
//!   steps priced at their slowest link, fill-drain chunk pipelining).
//! * [`tuner`] — an NCCL-style selector minimizing the analytic cost over
//!   (algorithm, chunk size) per call, given message size, communicator
//!   span and transport.
//!
//! `chase-device` prices its collectives through this crate when a solver
//! run asks for a non-flat [`CollectiveAlgo`].

pub mod cost;
pub mod exec;
pub mod topology;
pub mod tuner;

pub use cost::{collective_cost, CollOp};
pub use exec::{hop_plan, Algo, HopOp};
pub use topology::{CommSpan, LinkParams, Topology};
pub use tuner::{Choice, Tuner, CHUNK_MENU, NOMINAL_GEMM_FLOPS, PANEL_MENU};

/// Solver-facing knob: which collective execution path to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveAlgo {
    /// The flat path (one collective event per call).
    #[default]
    Flat,
    /// Force the ring schedule.
    Ring,
    /// Force the binomial-tree schedule.
    Tree,
    /// Force the recursive-doubling schedule.
    Doubling,
    /// Let the tuner pick per call from message size and topology.
    Auto,
}

impl CollectiveAlgo {
    pub const ALL: [CollectiveAlgo; 5] = [
        CollectiveAlgo::Flat,
        CollectiveAlgo::Ring,
        CollectiveAlgo::Tree,
        CollectiveAlgo::Doubling,
        CollectiveAlgo::Auto,
    ];

    /// The forced schedule, if this knob pins one (`Flat` and `Auto` don't).
    pub fn forced(self) -> Option<Algo> {
        match self {
            CollectiveAlgo::Ring => Some(Algo::Ring),
            CollectiveAlgo::Tree => Some(Algo::Tree),
            CollectiveAlgo::Doubling => Some(Algo::Doubling),
            CollectiveAlgo::Flat | CollectiveAlgo::Auto => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::Flat => "flat",
            CollectiveAlgo::Ring => "ring",
            CollectiveAlgo::Tree => "tree",
            CollectiveAlgo::Doubling => "doubling",
            CollectiveAlgo::Auto => "auto",
        }
    }
}
