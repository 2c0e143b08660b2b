//! One timed solve through the public entry points, and one SCF chain
//! through `chase-serve`.

use crate::hook::{now_s, RankProfile, Span, WallHook};
use crate::workload::{Problem, Workload};
use chase_comm::{run_grid, GridShape, Ledger, Reduce, TraceHook};
use chase_core::{try_solve_dist, DistHerm, Params};
use chase_device::Backend;
use chase_linalg::{RealScalar, Scalar};
use chase_serve::{JobSpec, MatrixSource, Scheduler, SchedulerConfig, ServeMetrics, WarmKind};
use std::sync::Arc;

/// What the benchmark keeps of one solve.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Wall seconds from the first rank entering the solver to the last
    /// rank returning.
    pub wall_s: f64,
    pub matvecs: u64,
    pub lowprec_matvecs: u64,
    pub iterations: usize,
    pub recovery_events: usize,
    pub warm: bool,
    /// Why the solve counts as failed, if it does.
    pub error: Option<String>,
    /// Per-rank ledgers (kept only by the traced run).
    pub ledgers: Vec<Ledger>,
    /// Per-rank wall-clock profiles (traced run only).
    pub profiles: Vec<RankProfile>,
    /// Rank 0's eigenvalue bits: the rank-agreement check compares the
    /// other ranks against them.
    pub eigen_bits: Vec<u64>,
}

fn to_f64s<R: RealScalar>(xs: &[R]) -> Vec<f64> {
    xs.iter().map(|x| x.to_f64()).collect()
}

/// Solve `problem` on `grid` with `try_solve_dist`, timing from the moment
/// every rank holds its `DistHerm` block to the last rank's return. With
/// `traced = Some(id)` a [`WallHook`] tagged `id` is installed on every rank
/// and the per-rank ledgers are kept.
pub fn solve_dist<T: Scalar + Reduce>(
    problem: &Problem<T>,
    grid: GridShape,
    params: &Params,
    traced: Option<u64>,
) -> Sample
where
    T::Real: Reduce,
    T::Lo: Reduce,
{
    let out = run_grid(grid, |ctx| {
        let dh = DistHerm::from_global(&problem.h, ctx);
        // Every rank starts the clock after the set-up of every rank.
        ctx.world.barrier();
        let hook = traced.map(|id| Arc::new(WallHook::new(ctx.world_rank(), id)));
        if let Some(h) = &hook {
            ctx.set_trace_hook(Some(h.clone() as Arc<dyn TraceHook>));
        }
        let t0 = now_s();
        let res = try_solve_dist(ctx, Backend::Nccl, dh, params, None);
        let t1 = now_s();
        let profile = hook.map(|h| {
            ctx.set_trace_hook(None);
            h.finish()
        });
        (res, t0, t1, profile)
    });
    let t0 = out
        .results
        .iter()
        .map(|r| r.1)
        .fold(f64::INFINITY, f64::min);
    let t1 = out.results.iter().map(|r| r.2).fold(0.0, f64::max);
    let mut sample = Sample {
        wall_s: t1 - t0,
        ..Sample::default()
    };
    if traced.is_some() {
        sample.ledgers = out.ledgers;
    }
    let mut results = Vec::with_capacity(out.results.len());
    for (res, _, _, profile) in out.results {
        sample.profiles.extend(profile);
        results.push(res);
    }
    match &results[0] {
        Ok(r) => {
            sample.matvecs = r.matvecs;
            sample.lowprec_matvecs = r.lowprec_matvecs;
            sample.iterations = r.iterations;
            sample.recovery_events = r.recovery.events.len();
            sample.eigen_bits = r.eigenvalues.iter().map(|x| x.to_f64().to_bits()).collect();
            sample.error = problem
                .check(
                    params.tol,
                    r.converged,
                    &to_f64s(&r.eigenvalues),
                    &to_f64s(&r.residuals),
                    r.norm_h,
                )
                .err();
        }
        Err(e) => sample.error = Some(format!("solver error: {e}")),
    }
    // Every rank must agree with rank 0.
    if sample.error.is_none() {
        for (rank, r) in results.iter().enumerate().skip(1) {
            let agrees = r.as_ref().is_ok_and(|r| {
                r.matvecs == sample.matvecs
                    && r.eigenvalues
                        .iter()
                        .map(|x| x.to_f64().to_bits())
                        .eq(sample.eigen_bits.iter().copied())
            });
            if !agrees {
                sample.error = Some(format!("rank {rank} disagrees with rank 0"));
                break;
            }
        }
    }
    sample
}

/// One SCF session through a 1-worker scheduler.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    /// First submit to last report.
    pub chain_s: f64,
    /// One sample per step; `wall_s` spans the step's submit and drain.
    pub steps: Vec<Sample>,
    pub metrics: ServeMetrics,
    /// One span per step around `drain()` (traced run only).
    pub spans: Vec<Span>,
    /// Per-step, per-rank ledgers rebuilt from the scheduler's own traces
    /// (traced run only; they carry no wall time).
    pub ledgers: Vec<Vec<Ledger>>,
}

/// Run the SCF chain `steps` as one session: step `k` is submitted only
/// after step `k - 1` was drained, so every step after the first can start
/// warm from the session cache.
pub fn run_chain<T: Scalar + Reduce>(
    steps: &[(Arc<chase_linalg::Matrix<T>>, &Problem<T>)],
    wl: &Workload,
    params: &Params,
    traced: bool,
) -> Chain
where
    T::Real: Reduce,
    T::Lo: Reduce,
{
    let mut sched: Scheduler<T> = Scheduler::new(SchedulerConfig {
        workers: 1,
        record_traces: traced,
        ..SchedulerConfig::default()
    });
    let mut chain = Chain::default();
    let start = now_s();
    for (k, (h, problem)) in steps.iter().enumerate() {
        let mut spec = JobSpec::new(
            format!("{}-step{k}", wl.name),
            MatrixSource::InMemory(h.clone()),
            params.clone(),
        )
        .in_session("scf", k);
        spec.grid = wl.grid;
        let t0 = now_s();
        let mut sample = Sample::default();
        let reports = match sched.submit(spec) {
            Ok(_) => sched.drain(),
            Err(e) => {
                sample.error = Some(format!("submit refused: {e}"));
                Vec::new()
            }
        };
        let t1 = now_s();
        sample.wall_s = t1 - t0;
        if traced {
            chain.spans.push(Span {
                name: "serve.drain".into(),
                rank: 0,
                solve: k as u64,
                start_s: t0,
                end_s: t1,
                parent: None,
            });
        }
        if let Some(report) = reports.first() {
            sample.warm = report.warm == WarmKind::Warm;
            if let Some(tr) = &report.trace {
                chain
                    .ledgers
                    .push(tr.ranks.iter().map(chase_trace::to_ledger).collect());
            }
            match (report.solve(), report.failed()) {
                (Some(s), _) => {
                    sample.matvecs = s.matvecs;
                    sample.lowprec_matvecs = s.lowprec_matvecs;
                    sample.iterations = s.iterations;
                    sample.recovery_events = s.recovery.events.len();
                    sample.eigen_bits =
                        s.eigenvalues.iter().map(|x| x.to_f64().to_bits()).collect();
                    sample.error = problem
                        .check(
                            params.tol,
                            s.converged,
                            &to_f64s(&s.eigenvalues),
                            &to_f64s(&s.residuals),
                            s.bounds.mu_1.abs_r().max_r(s.bounds.b_sup.abs_r()).to_f64(),
                        )
                        .err();
                }
                (None, Some(e)) => sample.error = Some(format!("solver error: {e}")),
                (None, None) => sample.error = Some("job did not run".into()),
            }
        } else if sample.error.is_none() {
            sample.error = Some("drain returned no report".into());
        }
        chain.steps.push(sample);
    }
    chain.chain_s = now_s() - start;
    chain.metrics = sched.metrics;
    chain
}
