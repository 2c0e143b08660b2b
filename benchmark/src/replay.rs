//! Replays that time what the ledger records without a duration: the
//! small dense kernels (HERK, POTRF, TRSM, heevd), which the device layer
//! stamps as instantaneous, and the collective sequence, split into wait
//! and transfer.

use crate::hook::{now_s, CollectiveIssue};
use chase_comm::{run_grid, CommScope, EventKind, GridShape, Ledger};
use chase_linalg::{gram, heevd, potrf_upper, trsm_right_upper, Matrix, Scalar};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Replay seconds and call counts of one rank's small kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelReplay {
    pub herk_s: f64,
    pub potrf_s: f64,
    pub trsm_s: f64,
    pub heevd_s: f64,
    /// Calls replayed: herk, potrf, trsm, heevd.
    pub calls: [u64; 4],
}

/// Well-conditioned deterministic test data: a Hermitian positive definite
/// matrix for POTRF/heevd, an upper triangle with a dominant diagonal for
/// TRSM, and a dense block for HERK.
fn block<T: Scalar>(m: usize, n: usize) -> Matrix<T> {
    Matrix::from_fn(m, n, |i, j| {
        T::from_f64((((i * 7 + j * 13) % 17) as f64 - 8.0) / 17.0)
    })
}

fn spd<T: Scalar>(n: usize) -> Matrix<T> {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            T::from_f64(n as f64 + 1.0)
        } else {
            T::from_f64(1.0 / (1.0 + i.abs_diff(j) as f64))
        }
    })
}

fn upper<T: Scalar>(n: usize) -> Matrix<T> {
    Matrix::from_fn(n, n, |i, j| match i.cmp(&j) {
        std::cmp::Ordering::Equal => T::from_f64(2.0),
        std::cmp::Ordering::Less => T::from_f64(0.5 / n as f64),
        std::cmp::Ordering::Greater => T::zero(),
    })
}

/// Replay every HERK/POTRF/TRSM/heevd event of `ledger` once, in scalar
/// `T`, with the recorded shape, and time each call.
pub fn replay_kernels<T: Scalar>(ledger: &Ledger) -> KernelReplay {
    let mut out = KernelReplay::default();
    let mut blocks: HashMap<(usize, usize), Matrix<T>> = HashMap::new();
    let mut spds: HashMap<usize, Matrix<T>> = HashMap::new();
    let mut uppers: HashMap<usize, Matrix<T>> = HashMap::new();
    for ev in ledger.events() {
        match ev.kind {
            EventKind::Herk { m, n } => {
                let x = blocks
                    .entry((m as usize, n as usize))
                    .or_insert_with(|| block(m as usize, n as usize));
                let t = Instant::now();
                std::hint::black_box(gram(x.as_ref()));
                out.herk_s += t.elapsed().as_secs_f64();
                out.calls[0] += 1;
            }
            EventKind::Potrf { n } => {
                let a = spds.entry(n as usize).or_insert_with(|| spd(n as usize));
                let t = Instant::now();
                let r = potrf_upper(std::hint::black_box(&*a));
                out.potrf_s += t.elapsed().as_secs_f64();
                assert!(r.is_ok(), "replay matrix is positive definite");
                out.calls[1] += 1;
            }
            EventKind::Trsm { m, n } => {
                let r = uppers
                    .entry(n as usize)
                    .or_insert_with(|| upper(n as usize));
                // Fresh right-hand side each call, copied outside the clock.
                let mut x = block::<T>(m as usize, n as usize);
                let t = Instant::now();
                trsm_right_upper(x.as_mut(), r);
                out.trsm_s += t.elapsed().as_secs_f64();
                std::hint::black_box(&x);
                out.calls[2] += 1;
            }
            EventKind::Heevd { n } => {
                let a = spds.entry(n as usize).or_insert_with(|| spd(n as usize));
                let t = Instant::now();
                let r = heevd(std::hint::black_box(&*a));
                out.heevd_s += t.elapsed().as_secs_f64();
                assert!(r.is_ok(), "replay matrix has a convergent eigensolve");
                out.calls[3] += 1;
            }
            _ => {}
        }
    }
    out
}

/// Replayed collective time of one solve, worst rank for each figure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectiveReplay {
    /// Arrival to completion, summed over the rank's collectives.
    pub collective_s: f64,
    /// Arrival to the last member's arrival.
    pub wait_s: f64,
    /// Last member's arrival to completion.
    pub xfer_s: f64,
    /// Collectives replayed per operation name, over all ranks.
    pub calls: BTreeMap<&'static str, u64>,
}

/// Replay each rank's recorded collective sequence (`issues[world_rank]`)
/// on a fresh grid of `shape`, with payloads of the recorded sizes, and
/// split every call into wait and transfer.
///
/// Nonblocking posts are waited on at once: the replay measures the
/// collective itself, not how much of it the solver hid behind compute.
pub fn replay_collectives(shape: GridShape, issues: &[Vec<CollectiveIssue>]) -> CollectiveReplay {
    assert_eq!(issues.len(), shape.ranks(), "one issue list per rank");
    let max_len = issues
        .iter()
        .flatten()
        .map(|c| c.bytes.div_ceil(8) as usize)
        .max()
        .unwrap_or(0)
        .max(1);
    let out = run_grid(shape, |ctx| {
        let mine = &issues[ctx.world_rank()];
        let mut buf = vec![1.0f64; max_len];
        let mut recv = vec![0.0f64; max_len];
        let mut gathered: Vec<f64> = Vec::new();
        let mut marks = Vec::with_capacity(mine.len());
        let mut per_comm: HashMap<(CommScope, usize), u64> = HashMap::new();
        ctx.world.barrier();
        for c in mine {
            let (comm, id) = match c.scope {
                CommScope::Row => (&ctx.row_comm, ctx.row),
                CommScope::Col => (&ctx.col_comm, ctx.col),
                CommScope::World | CommScope::Other => (&ctx.world, 0),
            };
            let k = per_comm.entry((c.scope, id)).or_insert(0);
            let key = (c.scope, id, *k);
            *k += 1;
            let len = c.bytes.div_ceil(8) as usize;
            let t0 = now_s();
            match c.op {
                "allreduce" => comm.allreduce_sum(&mut buf[..len]),
                "iallreduce" => comm
                    .iallreduce_sum(&buf[..len])
                    .wait(&mut recv[..len])
                    .expect("replay grid has no faults"),
                "bcast" => comm.bcast(&mut buf[..len], 0),
                "ibcast" => comm
                    .ibcast(&buf[..len], 0)
                    .wait(&mut recv[..len])
                    .expect("replay grid has no faults"),
                "allgather" => gathered = comm.allgather(&buf[..len]),
                "iallgather" => comm
                    .iallgather(&buf[..len])
                    .wait(&mut gathered)
                    .expect("replay grid has no faults"),
                _ => comm.barrier(),
            }
            let t1 = now_s();
            // Keep the payload finite: sums over many replays would grow.
            buf[..len].fill(1.0);
            marks.push((key, c.op, t0, t1));
        }
        std::hint::black_box(&gathered);
        marks
    });
    let mut last_arrival: HashMap<(CommScope, usize, u64), f64> = HashMap::new();
    for marks in &out.results {
        for &(key, _, t0, _) in marks {
            let e = last_arrival.entry(key).or_insert(t0);
            *e = e.max(t0);
        }
    }
    let mut rep = CollectiveReplay::default();
    for marks in &out.results {
        let (mut total, mut wait, mut xfer) = (0.0, 0.0, 0.0);
        for &(key, op, t0, t1) in marks {
            let last = last_arrival[&key];
            total += t1 - t0;
            wait += last - t0;
            xfer += t1 - last;
            *rep.calls.entry(op).or_insert(0) += 1;
        }
        rep.collective_s = rep.collective_s.max(total);
        rep.wait_s = rep.wait_s.max(wait);
        rep.xfer_s = rep.xfer_s.max(xfer);
    }
    rep
}

/// Median one-way time in microseconds of an 8-byte allreduce between two
/// ranks, over `blocks` blocks of `per_block` calls.
pub fn allreduce_latency_us(blocks: usize, per_block: usize) -> Vec<f64> {
    let out = run_grid(GridShape::new(1, 2), |ctx| {
        let mut x = [1.0f64];
        for _ in 0..per_block {
            ctx.world.allreduce_sum(&mut x);
            x[0] = 1.0;
        }
        let mut times = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            ctx.world.barrier();
            let t = Instant::now();
            for _ in 0..per_block {
                ctx.world.allreduce_sum(&mut x);
                x[0] = 1.0;
            }
            times.push(t.elapsed().as_secs_f64() * 1e6 / per_block as f64);
        }
        times
    });
    out.results.into_iter().next().expect("rank 0 exists")
}
