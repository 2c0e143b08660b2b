//! One benchmark run: set-up, the closed-loop measurement, and (with
//! tracing) the per-layer split.

use crate::hook::{now_s, region_key, Span, REGIONS};
use crate::host;
use crate::layers::{ledger_figures, region_figures, LedgerFigures};
use crate::replay::{allreduce_latency_us, replay_collectives, replay_kernels};
use crate::solve::{run_chain, solve_dist, Chain, Sample};
use crate::stats::{median, tail};
use crate::workload::{settle, Kind, Problem, ScalarType, Workload};
use chase_comm::{run_grid, Reduce};
use chase_core::DistHerm;
use chase_linalg::{Matrix, Scalar, C64};
use chase_matgen::io::{load, save_c64, save_f64, LoadedMatrix};
use chase_perfmodel::ScalarKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The scalar types the benchmark drives, with what it needs of each.
pub trait BenchScalar: Scalar<Real: Reduce, Lo: Reduce> + Reduce {
    const KIND: ScalarKind;
    fn save(m: &Matrix<Self>, path: &Path) -> std::io::Result<()>;
    fn from_loaded(m: LoadedMatrix) -> Option<Matrix<Self>>;
}

impl BenchScalar for f64 {
    const KIND: ScalarKind = ScalarKind::F64;
    fn save(m: &Matrix<Self>, path: &Path) -> std::io::Result<()> {
        save_f64(m, path)
    }
    fn from_loaded(m: LoadedMatrix) -> Option<Matrix<Self>> {
        match m {
            LoadedMatrix::F64(m) => Some(m),
            LoadedMatrix::C64(_) => None,
        }
    }
}

impl BenchScalar for C64 {
    const KIND: ScalarKind = ScalarKind::C64;
    fn save(m: &Matrix<Self>, path: &Path) -> std::io::Result<()> {
        save_c64(m, path)
    }
    fn from_loaded(m: LoadedMatrix) -> Option<Matrix<Self>> {
        match m {
            LoadedMatrix::C64(m) => Some(m),
            LoadedMatrix::F64(_) => None,
        }
    }
}

/// How to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Measurement budget. With tracing, every solve runs untraced and
    /// then traced within it.
    pub seconds: f64,
    pub trace: bool,
    /// Where scratch files (the set-up's matrix file) go.
    pub out_dir: PathBuf,
}

/// One metric of a run: every sample behind it, and how the reported
/// value is taken from them.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
    /// The reported value (the median unless stated otherwise).
    pub value: f64,
}

impl Metric {
    fn median(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        let value = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        Metric {
            name: name.into(),
            unit,
            samples,
            value,
        }
    }

    fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            samples: vec![value],
            value,
        }
    }
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Percentile and sample count behind `solve_s_tail`.
    pub tail_percentile: u32,
    pub tail_samples: usize,
    /// Traced run only: the wall-clock spans, and per region the measured
    /// and the modeled seconds per solve.
    pub spans: Vec<Span>,
    pub regions: Vec<(&'static str, f64, f64)>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

pub fn run(wl: &Workload, cfg: &RunConfig) -> Outcome {
    match wl.scalar {
        ScalarType::F64 => run_typed::<f64>(wl, cfg),
        ScalarType::C64 => run_typed::<C64>(wl, cfg),
    }
}

struct Setup<T: Scalar> {
    problems: Vec<Problem<T>>,
    times: SetupTimes,
}

/// Seconds of every set-up repetition: the whole, and its parts.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    load_s: Vec<f64>,
}

/// Generate the workload's matrices and build every `DistHerm` once, as a
/// user pays before the first solve. The cold workload also round-trips
/// its matrix through a `chase_matgen::io` file, the path every CLI solve
/// takes.
fn set_up_once<T: BenchScalar>(
    wl: &Workload,
    cfg: &RunConfig,
    times: &mut SetupTimes,
) -> Result<Vec<Problem<T>>, String> {
    let path = cfg
        .out_dir
        .join(format!("{}-{}.chasemat", wl.name, std::process::id()));
    let t0 = now_s();
    let mut problems = wl.generate::<T>(cfg.seed, 0);
    let t1 = now_s();
    if wl.kind == Kind::Cold {
        for p in &mut problems {
            T::save(&p.h, &path).map_err(|e| format!("save {}: {e}", path.display()))?;
            let loaded = load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
            p.h = T::from_loaded(loaded).ok_or("loaded matrix has the wrong scalar type")?;
        }
        let _ = std::fs::remove_file(&path);
    }
    let t2 = now_s();
    for p in &problems {
        run_grid(wl.grid, |ctx| {
            std::hint::black_box(DistHerm::from_global(&p.h, ctx));
        });
    }
    let t3 = now_s();
    times.setup_s.push(t3 - t0);
    times.gen_s.push(t1 - t0);
    if wl.kind == Kind::Cold {
        times.load_s.push(t2 - t1);
    }
    Ok(problems)
}

/// Set-up repetitions before the first pass. One more runs before every
/// later pass, so the reported median samples the whole run and not one
/// moment of it.
const SETUP_REPEATS: usize = 3;

/// The set-up before the first pass, [`SETUP_REPEATS`] times, keeping the
/// last problems; the references of perturbed problems are settled
/// afterwards, untimed.
fn setup<T: BenchScalar>(wl: &Workload, cfg: &RunConfig) -> Result<Setup<T>, String> {
    let mut times = SetupTimes::default();
    let mut problems = Vec::new();
    for _ in 0..SETUP_REPEATS {
        problems = set_up_once(wl, cfg, &mut times)?;
    }
    settle(&mut problems, wl.nev);
    Ok(Setup { problems, times })
}

/// What the measurement loop produced.
#[derive(Default)]
struct Phase {
    /// Untraced solves, in order.
    samples: Vec<Sample>,
    /// With tracing, the traced twin of every untraced solve, run right
    /// after it so that CPU-speed drift cancels in their ratio.
    traced: Vec<Sample>,
    /// Wall time of each pass; with tracing it includes the traced twins.
    pass_s: Vec<f64>,
    /// Mean filter MatVecs per untraced solve of each pass.
    pass_matvecs: Vec<f64>,
    /// Traced SCF sessions.
    chains: Vec<Chain>,
}

/// Run whole passes over the workload's problems until another pass of
/// the mean length so far would overrun the budget, or the workload's pass
/// cap is reached; at least two passes untraced, one traced. Before every
/// pass after the first, the set-up is repeated once more. That repetition,
/// and generating and settling a new SCF session, are not charged to the
/// budget.
fn measure<T: BenchScalar>(
    wl: &Workload,
    cfg: &RunConfig,
    problems: &[Problem<T>],
    setup_times: &mut SetupTimes,
) -> Result<Phase, String> {
    let params = wl.params();
    let min_passes = if cfg.trace { 1 } else { 2 };
    // The fixed mixed-precision set is rotated by the seed; the other
    // workloads' problems already come from it.
    let order: Vec<usize> = {
        let k = problems.len();
        let shift = if wl.kind == Kind::Mixed {
            (cfg.seed % k as u64) as usize
        } else {
            0
        };
        (0..k).map(|i| (i + shift) % k).collect()
    };
    let mut phase = Phase::default();
    let start = now_s();
    let mut uncharged = 0.0;
    let mut solve_id = 0u64;
    loop {
        let pass = phase.pass_s.len() as u64;
        let first = phase.samples.len();
        if pass > 0 {
            let t0 = now_s();
            set_up_once::<T>(wl, cfg, setup_times)?;
            uncharged += now_s() - t0;
        }
        if wl.kind == Kind::Scf {
            // A new session per pass, generated outside the timed chain.
            let fresh;
            let chain_problems = if pass == 0 {
                problems
            } else {
                let t0 = now_s();
                fresh = wl.problems::<T>(cfg.seed, pass);
                uncharged += now_s() - t0;
                &fresh[..]
            };
            let steps: Vec<_> = chain_problems
                .iter()
                .map(|p| (Arc::new(p.h.clone()), p))
                .collect();
            let chain = run_chain(&steps, wl, &params, false);
            phase.pass_s.push(chain.chain_s);
            phase.samples.extend(chain.steps);
            if cfg.trace {
                let chain = run_chain(&steps, wl, &params, true);
                phase.traced.extend(chain.steps.iter().cloned());
                phase.chains.push(chain);
            }
        } else {
            let t0 = now_s();
            for &i in &order {
                phase
                    .samples
                    .push(solve_dist(&problems[i], wl.grid, &params, None));
                if cfg.trace {
                    phase
                        .traced
                        .push(solve_dist(&problems[i], wl.grid, &params, Some(solve_id)));
                    solve_id += 1;
                }
            }
            phase.pass_s.push(now_s() - t0);
        }
        let done = &phase.samples[first..];
        phase
            .pass_matvecs
            .push(done.iter().map(|s| s.matvecs as f64).sum::<f64>() / done.len() as f64);
        let elapsed = now_s() - start - uncharged;
        let passes = phase.pass_s.len();
        if wl.max_passes.is_some_and(|m| passes >= m)
            || (passes >= min_passes && elapsed + elapsed / passes as f64 > cfg.seconds)
        {
            break;
        }
    }
    Ok(phase)
}

fn run_typed<T: BenchScalar>(wl: &Workload, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let measured = setup::<T>(wl, cfg).and_then(|mut setup| {
        let phase = measure(wl, cfg, &setup.problems, &mut setup.times)?;
        Ok((setup, phase))
    });
    let (setup, phase) = match measured {
        Ok(m) => m,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.failures.push(format!("set-up failed: {e}"));
            return out;
        }
    };
    for s in phase.samples.iter().chain(&phase.traced) {
        out.attempted += 1;
        if let Some(e) = &s.error {
            out.failed += 1;
            out.failures.push(e.clone());
        }
    }
    if cfg.trace {
        per_layer::<T>(wl, &setup, &phase, &mut out);
        return out;
    }
    let walls: Vec<f64> = phase.samples.iter().map(|s| s.wall_s).collect();
    let (pct, tail_s) = tail(&walls);
    out.tail_percentile = pct;
    out.tail_samples = walls.len();
    out.metrics = vec![
        Metric::median("setup_s", "s", setup.times.setup_s),
        Metric::median("solve_s", "s", walls.clone()),
        Metric {
            name: "solve_s_tail".into(),
            unit: "s",
            samples: walls,
            value: tail_s,
        },
        Metric::median("chain_s", "s", phase.pass_s),
        Metric::median("matvecs", "count", phase.pass_matvecs),
        Metric::single("peak_rss_mb", "MiB", host::peak_rss_mb()),
    ];
    out
}

/// At most this many traced solves are replayed (kernels and collectives).
const MAX_REPLAYS: usize = 8;

fn per_layer<T: BenchScalar>(wl: &Workload, setup: &Setup<T>, phase: &Phase, out: &mut Outcome) {
    let samples = &phase.traced;
    let untraced_walls: Vec<f64> = phase.samples.iter().map(|s| s.wall_s).collect();
    let untraced_solve_s = median(&untraced_walls);
    let traced_walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    // Ledgers per solve: the solver's own on direct solves; rebuilt from
    // the scheduler's traces (no wall time) on the serve workload.
    let ledgers: Vec<&[chase_comm::Ledger]> = if wl.kind == Kind::Scf {
        phase
            .chains
            .iter()
            .flat_map(|c| c.ledgers.iter().map(Vec::as_slice))
            .collect()
    } else {
        samples.iter().map(|s| s.ledgers.as_slice()).collect()
    };
    let figs: Vec<LedgerFigures> = ledgers.iter().map(|l| ledger_figures(l, T::KIND)).collect();
    let per = |f: fn(&LedgerFigures) -> f64| figs.iter().map(f).collect::<Vec<f64>>();

    let mut kernels = Vec::new();
    let mut colls = Vec::new();
    for l in ledgers.iter().take(MAX_REPLAYS) {
        let reps: Vec<_> = l.iter().map(replay_kernels::<T>).collect();
        let worst =
            |f: fn(&crate::replay::KernelReplay) -> f64| reps.iter().map(f).fold(0.0, f64::max);
        kernels.push([
            worst(|r| r.herk_s),
            worst(|r| r.potrf_s),
            worst(|r| r.trsm_s),
            worst(|r| r.heevd_s),
        ]);
    }
    for s in samples
        .iter()
        .filter(|s| !s.profiles.is_empty())
        .take(MAX_REPLAYS)
    {
        let issues: Vec<_> = s.profiles.iter().map(|p| p.collectives.clone()).collect();
        colls.push(replay_collectives(wl.grid, &issues));
    }
    let kern = |i: usize| kernels.iter().map(|k| k[i]).collect::<Vec<f64>>();

    let mut regions: Vec<[f64; 6]> = Vec::new();
    let mut unattributed = Vec::new();
    for s in samples.iter().filter(|s| !s.profiles.is_empty()) {
        let (r, u) = region_figures(&s.profiles, s.wall_s);
        regions.push(r);
        unattributed.push(u);
    }

    let mut m = Vec::new();
    let gemm_s = per(|f| f.gemm_s);
    let gemm_flops = per(|f| f.gemm_flops);
    let gemm_bytes = per(|f| f.gemm_bytes);
    m.push(Metric::median("linalg.gemm_s", "s", gemm_s.clone()));
    m.push(Metric::median(
        "linalg.gemm_gflops",
        "GFLOP/s",
        gemm_flops
            .iter()
            .zip(&gemm_s)
            .filter(|(_, &s)| s > 0.0)
            .map(|(f, s)| f / s / 1e9)
            .collect(),
    ));
    m.push(Metric::median(
        "linalg.gemm_flops",
        "flop",
        gemm_flops.clone(),
    ));
    m.push(Metric::median(
        "linalg.gemm_bytes_computed",
        "B",
        gemm_bytes.clone(),
    ));
    m.push(Metric::median(
        "linalg.gemm_flops_per_byte",
        "flop/B",
        gemm_flops
            .iter()
            .zip(&gemm_bytes)
            .filter(|(_, &b)| b > 0.0)
            .map(|(f, b)| f / b)
            .collect(),
    ));
    m.push(Metric::median("linalg.gemv_s", "s", per(|f| f.gemv_s)));
    m.push(Metric::median(
        "linalg.gemm_lo_s",
        "s",
        per(|f| f.gemm_lo_s),
    ));
    for (i, name) in ["herk", "potrf", "trsm", "heevd"].iter().enumerate() {
        m.push(Metric::median(format!("linalg.{name}_s"), "s", kern(i)));
    }

    m.push(Metric::median(
        "comm.allreduce_calls",
        "count",
        per(|f| f.allreduce_calls),
    ));
    m.push(Metric::median(
        "comm.allreduce_bytes",
        "B",
        per(|f| f.allreduce_bytes),
    ));
    m.push(Metric::median(
        "comm.allgather_calls",
        "count",
        per(|f| f.allgather_calls),
    ));
    m.push(Metric::median(
        "comm.allgather_bytes",
        "B",
        per(|f| f.allgather_bytes),
    ));
    m.push(Metric::median(
        "comm.bcast_calls",
        "count",
        per(|f| f.bcast_calls),
    ));
    m.push(Metric::median(
        "comm.collective_s",
        "s",
        colls.iter().map(|c| c.collective_s).collect(),
    ));
    m.push(Metric::median(
        "comm.wait_s",
        "s",
        colls.iter().map(|c| c.wait_s).collect(),
    ));
    m.push(Metric::median(
        "comm.xfer_s",
        "s",
        colls.iter().map(|c| c.xfer_s).collect(),
    ));
    m.push(Metric::median(
        "comm.latency_us",
        "us",
        allreduce_latency_us(7, 2000),
    ));
    m.push(Metric::median(
        "comm.nb_inflight_s",
        "s",
        per(|f| f.nb_inflight_s),
    ));

    for (i, r) in REGIONS.iter().enumerate() {
        m.push(Metric::median(
            format!("core.{}_s", region_key(*r)),
            "s",
            regions.iter().map(|x| x[i]).collect(),
        ));
    }
    m.push(Metric::median(
        "core.unattributed_share",
        "ratio",
        unattributed,
    ));
    m.push(Metric::median(
        "core.iterations",
        "count",
        samples.iter().map(|s| s.iterations as f64).collect(),
    ));
    m.push(Metric::median(
        "core.lowprec_share",
        "ratio",
        samples
            .iter()
            .filter(|s| s.matvecs > 0)
            .map(|s| s.lowprec_matvecs as f64 / s.matvecs as f64)
            .collect(),
    ));
    m.push(Metric::median(
        "core.recovery_events",
        "count",
        samples.iter().map(|s| s.recovery_events as f64).collect(),
    ));

    let chains = &phase.chains;
    m.push(Metric::median(
        "serve.warm_hit_ratio",
        "ratio",
        chains.iter().map(|c| c.metrics.warm_hit_rate()).collect(),
    ));
    m.push(Metric::median(
        "serve.matvecs_saved_ratio",
        "ratio",
        chains
            .iter()
            .map(|c| {
                let done = (c.metrics.total_matvecs + c.metrics.matvecs_saved) as f64;
                c.metrics.matvecs_saved as f64 / done.max(1.0)
            })
            .collect(),
    ));
    let steps = chains.iter().flat_map(|c| &c.steps);
    m.push(Metric::median(
        "serve.cold_step_s",
        "s",
        steps
            .clone()
            .filter(|s| !s.warm)
            .map(|s| s.wall_s)
            .collect(),
    ));
    m.push(Metric::median(
        "serve.warm_step_s",
        "s",
        steps.filter(|s| s.warm).map(|s| s.wall_s).collect(),
    ));
    m.push(Metric::median(
        "serve.cache_high_water_mb",
        "MiB",
        chains
            .iter()
            .map(|c| c.metrics.cache_high_water_bytes as f64 / (1 << 20) as f64)
            .collect(),
    ));

    m.push(Metric::median(
        "matgen.gen_s",
        "s",
        setup.times.gen_s.clone(),
    ));
    m.push(Metric::median(
        "matgen.load_s",
        "s",
        setup.times.load_s.clone(),
    ));

    let model = per(|f| f.model_s);
    let model_s = if model.is_empty() {
        0.0
    } else {
        median(&model)
    };
    m.push(Metric::median("model.solve_s", "s", model));
    m.push(Metric::single(
        "model.measured_ratio",
        "ratio",
        if model_s > 0.0 {
            untraced_solve_s / model_s
        } else {
            0.0
        },
    ));
    m.push(Metric::median("trace.solve_s", "s", traced_walls.clone()));
    // One sample per pair of back-to-back untraced and traced solves.
    m.push(Metric::median(
        "trace.overhead_ratio",
        "ratio",
        traced_walls
            .iter()
            .zip(&untraced_walls)
            .map(|(t, u)| t / u - 1.0)
            .collect(),
    ));

    let llc = host::llc_bytes().unwrap_or(32 << 20);
    let copy = host::copy_bandwidth(4 * llc, 5);
    m.push(Metric::single("host.nproc", "count", host::nproc() as f64));
    m.push(Metric::single(
        "host.llc_mb",
        "MiB",
        llc as f64 / (1 << 20) as f64,
    ));
    m.push(Metric::single("host.copy_gbs", "GB/s", copy.gbs));
    m.push(Metric::single(
        "host.copy_buffer_mb",
        "MiB",
        copy.buffer_bytes as f64 / (1 << 20) as f64,
    ));

    out.regions = REGIONS
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let measured: Vec<f64> = regions.iter().map(|x| x[i]).collect();
            let modeled: Vec<f64> = figs.iter().map(|f| f.model_region_s[i]).collect();
            let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
            (region_key(*r), med(&measured), med(&modeled))
        })
        .collect();
    out.spans = samples
        .iter()
        .flat_map(|s| s.profiles.iter().flat_map(|p| p.spans.iter().cloned()))
        .chain(chains.iter().flat_map(|c| c.spans.iter().cloned()))
        .collect();
    out.metrics = m;
}
