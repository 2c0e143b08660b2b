//! Tests of the benchmark itself, at toy sizes.

use chase_benchmark::replay::{replay_collectives, replay_kernels};
use chase_benchmark::run::{run, RunConfig};
use chase_benchmark::solve::solve_dist;
use chase_benchmark::workload::{Workload, NAMES};
use chase_comm::{CommScope, EventKind, Ledger};
use chase_linalg::C64;
use std::path::PathBuf;

const END_TO_END: [&str; 6] = [
    "setup_s",
    "solve_s",
    "solve_s_tail",
    "chain_s",
    "matvecs",
    "peak_rss_mb",
];

fn cfg(trace: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.01,
        trace,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

fn toy(name: &str) -> Workload {
    Workload::by_name(name).expect("listed workload").toy()
}

#[test]
fn every_workload_runs_at_toy_size_and_passes_its_checks() {
    for name in NAMES {
        let out = run(&toy(name), &cfg(false));
        assert!(out.attempted > 0, "{name}: nothing attempted");
        assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "{name}");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{name}: a zero metric"
        );
    }
}

#[test]
fn traced_run_reports_the_layers_and_passes_its_checks() {
    for name in NAMES {
        let out = run(&toy(name), &cfg(true));
        assert_eq!(out.failed, 0, "{name}: {:?}", out.failures);
        for key in [
            "core.filter_s",
            "comm.wait_s",
            "serve.warm_hit_ratio",
            "host.copy_gbs",
        ] {
            assert!(out.metric(key).is_some(), "{name}: no {key}");
        }
        if name.starts_with("scf") {
            assert!(out.metric("serve.warm_hit_ratio").unwrap().value > 0.0);
        } else {
            assert!(out.metric("core.filter_s").unwrap().value > 0.0, "{name}");
            let share = out.metric("core.unattributed_share").unwrap().value;
            assert!((0.0..1.0).contains(&share), "{name}: share {share}");
        }
    }
}

#[test]
fn trace_hook_leaves_eigenvalues_and_matvecs_bitwise_identical() {
    // One single-rank workload and the two-rank pipelined mixed one.
    for name in ["cold-c64-n1000-1x1", "mixed-f64-n600-1x2"] {
        let wl = toy(name);
        let params = wl.params();
        let (plain, traced) = if name.starts_with("cold") {
            let p = &wl.generate::<C64>(3, 0)[0];
            (
                solve_dist(p, wl.grid, &params, None),
                solve_dist(p, wl.grid, &params, Some(0)),
            )
        } else {
            let p = &wl.generate::<f64>(3, 0)[1];
            (
                solve_dist(p, wl.grid, &params, None),
                solve_dist(p, wl.grid, &params, Some(0)),
            )
        };
        assert!(plain.error.is_none() && traced.error.is_none(), "{name}");
        assert!(!traced.profiles.is_empty() && plain.profiles.is_empty());
        assert_eq!(plain.eigen_bits, traced.eigen_bits, "{name}");
        assert_eq!(plain.matvecs, traced.matvecs, "{name}");
        assert_eq!(plain.lowprec_matvecs, traced.lowprec_matvecs, "{name}");
    }
}

fn ledger_count(ledgers: &[Ledger], pick: impl Fn(&EventKind) -> bool) -> u64 {
    ledgers
        .iter()
        .flat_map(|l| l.events())
        .filter(|e| pick(&e.kind))
        .count() as u64
}

#[test]
fn replayed_kernel_and_collective_counts_equal_the_ledger() {
    for name in ["batch-f64-n300-2x1", "mixed-f64-n600-1x2"] {
        let wl = toy(name);
        let p = &wl.generate::<f64>(5, 0)[0];
        let s = solve_dist(p, wl.grid, &wl.params(), Some(0));
        assert!(s.error.is_none(), "{name}: {:?}", s.error);

        let mut calls = [0u64; 4];
        for l in &s.ledgers {
            let r = replay_kernels::<f64>(l);
            for (c, r) in calls.iter_mut().zip(r.calls) {
                *c += r;
            }
        }
        let expect = [
            ledger_count(&s.ledgers, |k| matches!(k, EventKind::Herk { .. })),
            ledger_count(&s.ledgers, |k| matches!(k, EventKind::Potrf { .. })),
            ledger_count(&s.ledgers, |k| matches!(k, EventKind::Trsm { .. })),
            ledger_count(&s.ledgers, |k| matches!(k, EventKind::Heevd { .. })),
        ];
        assert_eq!(calls, expect, "{name}: kernels");
        assert!(expect.iter().all(|&c| c > 0), "{name}: {expect:?}");

        // The replay runs exactly the collectives the communicators saw.
        let issues: Vec<_> = s.profiles.iter().map(|p| p.collectives.clone()).collect();
        let rep = replay_collectives(wl.grid, &issues);
        let replayed = |ops: &[&str]| -> u64 {
            ops.iter()
                .map(|o| rep.calls.get(o).copied().unwrap_or(0))
                .sum()
        };
        let issued = |ops: &[&str], world_only: bool| -> u64 {
            issues
                .iter()
                .flatten()
                .filter(|c| ops.contains(&c.op) && (!world_only || c.scope == CommScope::World))
                .count() as u64
        };
        let all = |ops: &[&str]| issued(ops, false);
        const AR: [&str; 2] = ["allreduce", "iallreduce"];
        const AG: [&str; 2] = ["allgather", "iallgather"];
        const BC: [&str; 2] = ["bcast", "ibcast"];
        assert_eq!(replayed(&AR), all(&AR), "{name}: allreduce replay");
        assert_eq!(replayed(&AG), all(&AG), "{name}: allgather replay");
        assert_eq!(replayed(&BC), all(&BC), "{name}: bcast replay");
        // Every collective the ledger records is replayed. The solver's
        // world-wide agreements and sums, issued on the communicator
        // directly, are the only calls the ledger leaves out.
        let ledger_ar = ledger_count(&s.ledgers, |k| matches!(k, EventKind::AllReduce { .. }));
        assert!(all(&AR) >= ledger_ar, "{name}: allreduce");
        assert!(
            all(&AR) - ledger_ar <= issued(&AR, true),
            "{name}: extra allreduce"
        );
        assert_eq!(
            all(&AG),
            ledger_count(&s.ledgers, |k| matches!(k, EventKind::AllGather { .. })),
            "{name}: allgather"
        );
        assert_eq!(
            all(&BC),
            ledger_count(&s.ledgers, |k| matches!(k, EventKind::Bcast { .. })),
            "{name}: bcast"
        );
        assert!(rep.wait_s >= 0.0 && rep.xfer_s > 0.0);
    }
}

#[test]
fn scf_check_rejects_eigenvalues_shifted_by_one_on_the_last_step() {
    let wl = Workload::by_name("scf-c64-n400-chain").expect("listed workload");
    let chain = wl.problems::<C64>(1, 0);
    assert_eq!(chain.len(), 5);
    let last = &chain[4];
    let e = &last.expected;
    let zero = vec![0.0; e.len()];
    assert_eq!(last.check(wl.tol, true, e, &zero, last.norm), Ok(()));
    // A solve that skipped the lowest eigenvalue: every value one level up.
    let mut shifted = e[1..].to_vec();
    shifted.push(2.0 * e[e.len() - 1] - e[e.len() - 2]);
    assert!(last
        .check(wl.tol, true, &shifted, &zero, last.norm)
        .is_err());
    // Two neighbouring levels swapped.
    let mut swapped = e.clone();
    swapped.swap(0, 1);
    assert!(last
        .check(wl.tol, true, &swapped, &zero, last.norm)
        .is_err());
}
