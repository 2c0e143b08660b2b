//! Seam for a measurement-driven collective tuner (see `chase-tune`).
//!
//! `chase-topo`'s alpha-beta model predicts collective cost analytically;
//! the `chase-tune` crate *measures* it by running the real hop schedules
//! and persists the winners in a plan database. The two meet here: a
//! [`CollectiveTuneHook`] installed on a [`crate::RankCtx`] is consulted by
//! the device layer before the analytic tuner whenever a collective knob is
//! left on `Auto`. The hook returning `None` (no DB entry for this
//! operation/size) falls back to the analytic cost model, so a partially
//! populated plan database degrades gracefully instead of failing.
//!
//! Like [`crate::trace_hook::TraceHook`], the hook is per-rank and purely
//! local: `choose` must be a pure function of its arguments (which are
//! SPMD-uniform across the communicator), so every member resolves the same
//! schedule and ranks can never diverge.

/// Collective operation classes a measured plan can pin.
///
/// Mirrors `chase_topo::CollOp` without depending on it — `chase-topo`
/// depends on this crate, so the seam speaks a neutral vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuneOp {
    AllReduce,
    Bcast,
    AllGather,
}

impl TuneOp {
    pub fn name(self) -> &'static str {
        match self {
            TuneOp::AllReduce => "allreduce",
            TuneOp::Bcast => "bcast",
            TuneOp::AllGather => "allgather",
        }
    }
}

/// Hop schedule a measured plan selects, mirroring `chase_topo::exec::Algo`
/// plus the flat reference (a measured trial can conclude that
/// *no* hop schedule beats the flat collective for a given size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuneAlgo {
    Flat,
    Ring,
    Tree,
    Doubling,
}

impl TuneAlgo {
    pub fn name(self) -> &'static str {
        match self {
            TuneAlgo::Flat => "flat",
            TuneAlgo::Ring => "ring",
            TuneAlgo::Tree => "tree",
            TuneAlgo::Doubling => "doubling",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "flat" => TuneAlgo::Flat,
            "ring" => TuneAlgo::Ring,
            "tree" => TuneAlgo::Tree,
            "doubling" => TuneAlgo::Doubling,
            _ => return None,
        })
    }
}

/// One resolved decision: which schedule to run and at what chunk
/// granularity (`chunk_bytes` is ignored for [`TuneAlgo::Flat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneChoice {
    pub algo: TuneAlgo,
    pub chunk_bytes: u64,
}

/// A measured collective plan consulted per collective call.
///
/// Implementations must be deterministic pure functions: `(op, bytes,
/// members)` are SPMD-uniform for a given call site, so a pure hook keeps
/// every rank on the same schedule without any agreement traffic.
pub trait CollectiveTuneHook: Send + Sync {
    /// Resolve a schedule for `op` moving `bytes` over a communicator of
    /// `members` ranks, or `None` when the plan has no matching entry (the
    /// caller falls back to the analytic model).
    fn choose(&self, op: TuneOp, bytes: u64, members: usize) -> Option<TuneChoice>;
}
