//! Per-layer figures of one traced solve, from its ledgers, its wall-clock
//! profiles and the replays.

use crate::hook::{RankProfile, REGIONS};
use chase_comm::{Category, EventKind, Ledger};
use chase_perfmodel::{price_ledger, CommFlavor, Machine, PriceCtx, ScalarKind};

/// Figures read off the ledgers of one solve; each is the worst rank's.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerFigures {
    /// Full-precision GEMMs with more than one right-hand side.
    pub gemm_s: f64,
    pub gemm_flops: f64,
    pub gemm_bytes: f64,
    /// Full-precision GEMMs with one right-hand side (Lanczos MatVecs).
    pub gemv_s: f64,
    /// Demoted GEMMs of the mixed-precision filter.
    pub gemm_lo_s: f64,
    pub allreduce_calls: f64,
    pub allreduce_bytes: f64,
    pub allgather_calls: f64,
    pub allgather_bytes: f64,
    pub bcast_calls: f64,
    /// Post-to-wait spans of nonblocking collectives.
    pub nb_inflight_s: f64,
    /// The ledger priced on the stock machine model.
    pub model_s: f64,
    /// Modeled seconds per region, indexed like [`REGIONS`].
    pub model_region_s: [f64; 6],
}

fn max_assign(a: &mut f64, b: f64) {
    *a = a.max(b);
}

/// Read one solve's ledgers (one per rank) for scalar `kind`.
pub fn ledger_figures(ledgers: &[Ledger], kind: ScalarKind) -> LedgerFigures {
    let machine = Machine::juwels_booster();
    let mut out = LedgerFigures::default();
    for l in ledgers {
        let mut f = LedgerFigures::default();
        for ev in l.events() {
            let span = ev.span_us() as f64 * 1e-6;
            match ev.kind {
                EventKind::Gemm { .. } if ev.lo => f.gemm_lo_s += span,
                EventKind::Gemm { n: 1, .. } => f.gemv_s += span,
                EventKind::Gemm { m, n, k } => {
                    f.gemm_s += span;
                    f.gemm_flops += (2 * m * n * k) as f64 * kind.flop_mult();
                    f.gemm_bytes += ((m * k + k * n + 2 * m * n) as usize * kind.bytes()) as f64;
                }
                EventKind::AllReduce { bytes, .. } => {
                    f.allreduce_calls += 1.0;
                    f.allreduce_bytes += bytes as f64;
                }
                EventKind::AllGather { .. } => {
                    f.allgather_calls += 1.0;
                    f.allgather_bytes += ev.kind.bytes() as f64;
                }
                EventKind::Bcast { .. } => f.bcast_calls += 1.0,
                _ => {}
            }
            if ev.kind.category() == Category::Comm && ev.t1_us > ev.t0_us {
                f.nb_inflight_s += span;
            }
        }
        let ctx = PriceCtx {
            scalar: kind,
            flavor: CommFlavor::NcclDeviceDirect,
            gpus_per_rank: 1.0,
        };
        let priced = price_ledger(l, &machine, ctx);
        for (i, r) in REGIONS.iter().enumerate() {
            f.model_region_s[i] = priced.get(r).map_or(0.0, |c| c.total());
        }
        f.model_s = f.model_region_s.iter().sum();
        max_assign(&mut out.gemm_s, f.gemm_s);
        max_assign(&mut out.gemm_flops, f.gemm_flops);
        max_assign(&mut out.gemm_bytes, f.gemm_bytes);
        max_assign(&mut out.gemv_s, f.gemv_s);
        max_assign(&mut out.gemm_lo_s, f.gemm_lo_s);
        max_assign(&mut out.allreduce_calls, f.allreduce_calls);
        max_assign(&mut out.allreduce_bytes, f.allreduce_bytes);
        max_assign(&mut out.allgather_calls, f.allgather_calls);
        max_assign(&mut out.allgather_bytes, f.allgather_bytes);
        max_assign(&mut out.bcast_calls, f.bcast_calls);
        max_assign(&mut out.nb_inflight_s, f.nb_inflight_s);
        max_assign(&mut out.model_s, f.model_s);
        for i in 0..REGIONS.len() {
            max_assign(&mut out.model_region_s[i], f.model_region_s[i]);
        }
    }
    out
}

/// Region wall time of one solve: worst rank per region, and the largest
/// share of the solve's wall time any rank leaves outside every region.
pub fn region_figures(profiles: &[RankProfile], wall_s: f64) -> ([f64; 6], f64) {
    let mut regions = [0.0f64; 6];
    let mut unattributed: f64 = 0.0;
    for p in profiles {
        for (r, v) in regions.iter_mut().zip(p.region_s) {
            *r = r.max(v);
        }
        let covered: f64 = p.region_s.iter().sum();
        unattributed = unattributed.max(1.0 - covered / wall_s);
    }
    (regions, unattributed)
}
