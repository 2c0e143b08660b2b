//! Property and stress tests for the topology-aware collectives.
//!
//! The contract under test: whatever hop schedule prices a device
//! collective (flat, ring, binomial tree, recursive doubling, or the
//! tuner's choice), the data moves on the one collective engine, so the
//! result is *bitwise identical* to the sequential member-order reference
//! for any communicator size, payload length (including 0 and 1), scalar
//! type and node placement; the recorded hops are exactly the rank's
//! `hop_plan`; and the whole machinery is deterministic under a fixed seed
//! and robust to hundreds of interleaved collectives racing on row and
//! column communicators at once.

use chase_comm::{run_grid, EventKind, GridShape, RankCtx, Reduce, SpmdOutput};
use chase_device::{Backend, CollectiveAlgo, Device, Topology};
use chase_linalg::{Scalar, C64};
use chase_topo::{hop_plan, HopOp, Tuner};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Deterministic per-member input block.
fn block<T: Scalar>(member: usize, len: usize, seed: u64) -> Vec<T> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (member as u64).wrapping_mul(0x9E37));
    (0..len).map(|_| T::sample_standard(&mut rng)).collect()
}

/// Sequential member-order reference reduction — the canonical fold every
/// schedule must reproduce bit for bit.
fn reference_sum<T: Reduce>(inputs: &[Vec<T>]) -> Vec<T> {
    let mut acc = inputs[0].clone();
    for v in &inputs[1..] {
        for (a, b) in acc.iter_mut().zip(v) {
            a.reduce(b);
        }
    }
    acc
}

fn algo_from(idx: usize) -> CollectiveAlgo {
    CollectiveAlgo::ALL[idx % CollectiveAlgo::ALL.len()]
}

/// Run `f` on the column communicators of a `k x q` grid: `k` members at
/// world ranks `c, c+q, c+2q, ...`, so `q` varies the node placement.
fn run_cols<R, F>(k: usize, q: usize, algo: CollectiveAlgo, f: F) -> SpmdOutput<R>
where
    R: Send,
    F: Fn(&Device<'_>, &RankCtx) -> R + Send + Sync,
{
    run_grid(GridShape::new(k, q), |ctx| {
        let dev = Device::with_collectives(ctx, Backend::Nccl, algo, Topology::juwels_booster());
        f(&dev, ctx)
    })
}

/// Wall-clock-free projection of a ledger's comm events.
fn comm_events(out: &SpmdOutput<impl Sized>) -> Vec<Vec<EventKind>> {
    out.ledgers
        .iter()
        .map(|l| {
            l.events()
                .iter()
                .map(|e| e.kind)
                .filter(|k| {
                    matches!(
                        k,
                        EventKind::P2p { .. }
                            | EventKind::AllReduce { .. }
                            | EventKind::Bcast { .. }
                    )
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce: any schedule, size, length (incl. 0 and 1) and placement
    /// is bitwise identical to the member-order reference, for both a real
    /// and a complex scalar type.
    #[test]
    fn allreduce_bitwise_matches_reference(
        k in 2usize..10,
        len_sel in 0usize..5,
        algo_sel in 0usize..5,
        seed in 0u64..1000,
    ) {
        let len = [0usize, 1, 2, 17, 64][len_sel];
        let algo = algo_from(algo_sel);
        let q = 1 + seed as usize % 2;

        let inputs_f: Vec<Vec<f64>> = (0..k).map(|r| block(r, len, seed)).collect();
        let want_f = reference_sum(&inputs_f);
        let got_f = run_cols(k, q, algo, |dev, ctx| {
            let mut buf = block::<f64>(ctx.row, len, seed);
            dev.allreduce_sum(&ctx.col_comm, &mut buf);
            buf
        });
        for g in &got_f.results {
            prop_assert_eq!(g, &want_f);
        }

        let inputs_z: Vec<Vec<C64>> = (0..k).map(|r| block(r, len, seed + 1)).collect();
        let want_z = reference_sum(&inputs_z);
        let got_z = run_cols(k, q, algo, |dev, ctx| {
            let mut buf = block::<C64>(ctx.row, len, seed + 1);
            dev.allreduce_sum(&ctx.col_comm, &mut buf);
            buf
        });
        for g in &got_z.results {
            prop_assert_eq!(g, &want_z);
        }
    }

    /// Bcast from an arbitrary root delivers the root's exact buffer.
    #[test]
    fn bcast_delivers_root_block(
        k in 2usize..10,
        len_sel in 0usize..4,
        algo_sel in 0usize..5,
        root_sel in 0usize..16,
        seed in 0u64..1000,
    ) {
        let len = [1usize, 2, 17, 64][len_sel];
        let algo = algo_from(algo_sel);
        let root = root_sel % k;
        let want = block::<f32>(root, len, seed);
        let got = run_cols(k, 1 + seed as usize % 2, algo, |dev, ctx| {
            let mut buf = if ctx.row == root {
                block::<f32>(root, len, seed)
            } else {
                vec![0.0f32; len]
            };
            dev.bcast(&ctx.col_comm, &mut buf, root);
            buf
        });
        for g in &got.results {
            prop_assert_eq!(g, &want);
        }
    }

    /// Allgather of ragged blocks concatenates in member order.
    #[test]
    fn allgather_concatenates_in_member_order(
        k in 2usize..10,
        algo_sel in 0usize..5,
        seed in 0u64..1000,
    ) {
        let algo = algo_from(algo_sel);
        // Ragged: member r contributes (seed + r) % 5 values — some empty.
        let len_of = |r: usize| (seed as usize + r) % 5;
        let want: Vec<f64> = (0..k).flat_map(|r| block(r, len_of(r), seed)).collect();
        let got = run_cols(k, 1 + seed as usize % 2, algo, |dev, ctx| {
            dev.allgather(&ctx.col_comm, &block::<f64>(ctx.row, len_of(ctx.row), seed))
        });
        for g in &got.results {
            prop_assert_eq!(g, &want);
        }
    }

    /// Fixed seed in, identical bits and identical hop streams out — across
    /// two full runs including the recorded (bytes, link) sequences, which
    /// are exactly each rank's `hop_plan`.
    #[test]
    fn deterministic_under_fixed_seed(
        k in 2usize..8,
        algo_sel in 1usize..4,
        seed in 0u64..1000,
    ) {
        let algo = algo_from(algo_sel);
        let q = 1 + seed as usize % 2;
        let run = || {
            run_cols(k, q, algo, |dev, ctx| {
                let mut buf = block::<f64>(ctx.row, 31, seed);
                dev.allreduce_sum(&ctx.col_comm, &mut buf);
                buf
            })
        };
        let a = run();
        let b = run();
        prop_assert_eq!(&a.results, &b.results);
        prop_assert_eq!(comm_events(&a), comm_events(&b));

        let topo = Topology::juwels_booster();
        let bytes = 31 * 8;
        for (wr, events) in comm_events(&a).into_iter().enumerate() {
            let labels: Vec<usize> = (0..k).map(|i| i * q + wr % q).collect();
            let forced = algo.forced().unwrap();
            let chunk = Tuner::new(topo.clone(), true).chunk_for(
                HopOp::AllReduce { len: 31 }.class(),
                forced,
                bytes,
                &labels,
            );
            let want: Vec<EventKind> =
                hop_plan(HopOp::AllReduce { len: 31 }, forced, 8, chunk, wr / q, &labels, &topo)
                    .into_iter()
                    .map(|(bytes, link)| EventKind::P2p { bytes, link })
                    .collect();
            prop_assert_eq!(events, want);
        }
    }
}

/// Solver-facing end-to-end check on a grid: every `CollectiveAlgo` setting
/// gives bitwise identical device-collective results on row *and* column
/// communicators.
#[test]
fn grid_collectives_identical_across_algo_settings() {
    let shape = GridShape::new(2, 3);
    let reference = run_grid(shape, |ctx| {
        let dev = Device::new(ctx, Backend::Nccl);
        let mut row = block::<C64>(ctx.world_rank(), 13, 7);
        dev.allreduce_sum(&ctx.row_comm, &mut row);
        let mut col = block::<C64>(ctx.world_rank(), 9, 8);
        dev.allreduce_sum(&ctx.col_comm, &mut col);
        let gathered = dev.allgather(&ctx.col_comm, &block::<C64>(ctx.world_rank(), 4, 9));
        (row, col, gathered)
    });
    for algo in CollectiveAlgo::ALL {
        let out = run_grid(shape, move |ctx| {
            let dev =
                Device::with_collectives(ctx, Backend::Nccl, algo, Topology::juwels_booster());
            let mut row = block::<C64>(ctx.world_rank(), 13, 7);
            dev.allreduce_sum(&ctx.row_comm, &mut row);
            let mut col = block::<C64>(ctx.world_rank(), 9, 8);
            dev.allreduce_sum(&ctx.col_comm, &mut col);
            let gathered = dev.allgather(&ctx.col_comm, &block::<C64>(ctx.world_rank(), 4, 9));
            (row, col, gathered)
        });
        for (a, b) in reference.results.iter().zip(&out.results) {
            assert_eq!(a, b, "CollectiveAlgo::{} diverged from flat", algo.name());
        }
    }
}

/// Stress: a 3x4 grid running a few hundred iterations of interleaved
/// device collectives on the row and column communicators simultaneously,
/// with the schedule rotating through every algorithm setting and
/// randomized thread yields perturbing the interleaving. Any op-key
/// collision between concurrent collectives shows up as a wrong value or a
/// deadlock here.
#[test]
fn stress_interleaved_grid_collectives() {
    let shape = GridShape::new(3, 4);
    let iters = 300usize;
    let out = run_grid(shape, |ctx| {
        let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ ctx.world_rank() as u64);
        let mut checks = 0usize;
        for i in 0..iters {
            if rng.gen::<bool>() {
                std::thread::yield_now();
            }
            let algo = CollectiveAlgo::ALL[i % CollectiveAlgo::ALL.len()];
            let dev =
                Device::with_collectives(ctx, Backend::Nccl, algo, Topology::juwels_booster());

            // Row allreduce: sum of column indices scaled per iteration.
            let mut row_buf = vec![(ctx.col * (i + 1)) as f64; 1 + i % 7];
            dev.allreduce_sum(&ctx.row_comm, &mut row_buf);
            let want_row = ((0..shape.q).sum::<usize>() * (i + 1)) as f64;
            assert!(
                row_buf.iter().all(|&v| v == want_row),
                "iter {i}: row allreduce"
            );

            if rng.gen::<bool>() {
                std::thread::yield_now();
            }

            // Column bcast rotating the root.
            let root = i % shape.p;
            let mut col_buf = vec![
                if ctx.row == root {
                    (root * 131 + i) as f64
                } else {
                    -1.0
                };
                3
            ];
            dev.bcast(&ctx.col_comm, &mut col_buf, root);
            assert!(
                col_buf.iter().all(|&v| v == (root * 131 + i) as f64),
                "iter {i}: col bcast"
            );

            // Column allgather of the rank's row index.
            let gathered = dev.allgather(&ctx.col_comm, &[ctx.row as f64; 2]);
            let want: Vec<f64> = (0..shape.p).flat_map(|r| [r as f64; 2]).collect();
            assert_eq!(gathered, want, "iter {i}: col allgather");

            checks += 3;
        }
        let hops = ctx
            .ledger_snapshot()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::P2p { .. }))
            .count();
        (checks, hops)
    });
    for (c, hops) in out.results {
        assert_eq!(c, iters * 3);
        assert!(hops > 0, "hop-scheduled iterations must record hops");
    }
}
