//! Hop schedules as a pure cost plan.
//!
//! The collective engine of `chase-comm` moves every collective's data in
//! one shot and folds reductions in member-index order, so results never
//! depend on the schedule. What a ring, binomial-tree or recursive-doubling
//! schedule changes is only *how* the bytes would cross the fabric. This
//! module answers that question without moving anything: [`hop_plan`]
//! emits the `(bytes, link)` sequence one rank injects into the fabric for
//! one collective call — sized like the real algorithm's wire traffic (a
//! reduced partial vector, not a list of contributions), split at
//! `chunk_bytes` granularity, over the physical link the topology assigns
//! to each pair. `chase-device` records the sequence as `P2p` ledger
//! events in place of the flat collective event, and `chase-tune` prices
//! it. Senders record hops; receivers do not.

use crate::cost::CollOp;
use crate::topology::Topology;
use chase_comm::{block_range, LinkClass};

/// Concrete hop schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Ring: bandwidth-optimal, `O(k)` latency steps of `n/k`-sized hops.
    Ring,
    /// Binomial tree: latency-optimal, `O(log k)` full-size hops.
    Tree,
    /// Recursive doubling (allreduce/allgather) or scatter+ring-allgather
    /// (bcast): the halved-latency large-communicator alternative.
    Doubling,
}

impl Algo {
    pub const ALL: [Algo; 3] = [Algo::Ring, Algo::Tree, Algo::Doubling];

    pub fn name(self) -> &'static str {
        match self {
            Algo::Ring => "ring",
            Algo::Tree => "tree",
            Algo::Doubling => "doubling",
        }
    }
}

/// One collective call to plan, with the sizes its schedule depends on (in
/// elements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOp<'a> {
    /// Sum-allreduce of `len` elements on every member.
    AllReduce { len: usize },
    /// Broadcast of `len` elements from member `root`.
    Bcast { len: usize, root: usize },
    /// Allgather of `counts[m]` elements from each member `m` (ragged
    /// contributions allowed).
    AllGather { counts: &'a [usize] },
}

impl HopOp<'_> {
    /// The collective class (tuner and cost-model vocabulary).
    pub fn class(&self) -> CollOp {
        match self {
            HopOp::AllReduce { .. } => CollOp::AllReduce,
            HopOp::Bcast { .. } => CollOp::Bcast,
            HopOp::AllGather { .. } => CollOp::AllGather,
        }
    }
}

/// The hops member `rank` of a communicator whose members sit at world
/// ranks `labels` sends for one `op` call under schedule `algo`: one
/// `(bytes, link)` record per `chunk_bytes`-sized chunk, in send order.
/// Pure: no data moves and no member needs to call it for the others.
pub fn hop_plan(
    op: HopOp<'_>,
    algo: Algo,
    elem_bytes: u64,
    chunk_bytes: u64,
    rank: usize,
    labels: &[usize],
    topo: &Topology,
) -> Vec<(u64, LinkClass)> {
    let k = labels.len();
    let mut plan = Plan {
        hops: Vec::new(),
        rank,
        labels,
        topo,
        chunk_bytes,
    };
    match op {
        HopOp::AllReduce { len } if k > 1 && len > 0 => match algo {
            Algo::Ring => plan.ring_allreduce(len, elem_bytes),
            Algo::Tree => plan.tree_allreduce(len as u64 * elem_bytes),
            Algo::Doubling => plan.doubling_allreduce(len as u64 * elem_bytes),
        },
        HopOp::Bcast { len, root } => {
            assert!(root < k, "bcast root out of range");
            if k > 1 && len > 0 {
                match algo {
                    Algo::Ring => plan.ring_bcast(root, len as u64 * elem_bytes),
                    Algo::Tree => plan.tree_down(root, len as u64 * elem_bytes),
                    Algo::Doubling => plan.scatter_allgather_bcast(root, len, elem_bytes),
                }
            }
        }
        HopOp::AllGather { counts } if k > 1 => {
            assert_eq!(counts.len(), k, "one count per member");
            let bytes: Vec<u64> = counts.iter().map(|&c| c as u64 * elem_bytes).collect();
            match algo {
                Algo::Ring => plan.ring_allgather(&bytes),
                Algo::Tree => plan.tree_allgather(&bytes),
                Algo::Doubling => plan.doubling_allgather(&bytes),
            }
        }
        _ => {}
    }
    plan.hops
}

/// Hop accumulator for one rank's plan.
struct Plan<'a> {
    hops: Vec<(u64, LinkClass)>,
    rank: usize,
    labels: &'a [usize],
    topo: &'a Topology,
    chunk_bytes: u64,
}

/// Largest power of two not above `k`: the core of the doubling schedules.
fn pow2_core(k: usize) -> usize {
    1 << k.ilog2()
}

impl Plan<'_> {
    fn k(&self) -> usize {
        self.labels.len()
    }

    /// Record a send of `bytes` to member `to` as `ceil(bytes /
    /// chunk_bytes)` chunk-sized hops (the pipelining granularity of the
    /// wire protocol) over the pair's physical link.
    fn send(&mut self, to: usize, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let link = self
            .topo
            .link_between(self.labels[self.rank], self.labels[to]);
        let n = bytes.div_ceil(self.chunk_bytes.max(1));
        let base = bytes / n;
        let rem = bytes % n;
        self.hops
            .extend((0..n).map(|i| (base + u64::from(i < rem), link)));
    }

    /// Ring allreduce: `k-1` reduce-scatter steps followed by `k-1`
    /// allgather steps, each moving one `n/k` segment to the next neighbor.
    fn ring_allreduce(&mut self, len: usize, elem_bytes: u64) {
        let (k, r) = (self.k(), self.rank);
        let seg = |s: usize| block_range(len, k, s).len() as u64 * elem_bytes;
        let next = (r + 1) % k;
        for step in 0..k - 1 {
            self.send(next, seg((r + k - step) % k));
        }
        // This rank now owns the fully-reduced segment (r+1) mod k and
        // circulates the finished segments around the same ring.
        let own = (r + 1) % k;
        for step in 0..k - 1 {
            self.send(next, seg((own + k - step) % k));
        }
    }

    /// Binomial-tree allreduce: reduce to member 0 up the tree (a rank sends
    /// at the level of its lowest set bit), broadcast back down.
    fn tree_allreduce(&mut self, bytes: u64) {
        let (k, r) = (self.k(), self.rank);
        let mut m = 1;
        while m < k {
            if r & m != 0 {
                self.send(r - m, bytes);
                break;
            }
            m <<= 1;
        }
        self.tree_down(0, bytes);
    }

    /// Binomial-tree broadcast of `bytes` from `root` (computed in
    /// root-relative space), mask descending.
    fn tree_down(&mut self, root: usize, bytes: u64) {
        let k = self.k();
        let pos = (self.rank + k - root) % k;
        let mut have = pos == 0;
        let mut m = k.next_power_of_two() / 2;
        while m >= 1 {
            if have && pos.is_multiple_of(2 * m) && pos + m < k {
                self.send((pos + m + root) % k, bytes);
            } else if !have && pos % (2 * m) == m {
                have = true;
            }
            m >>= 1;
        }
    }

    /// Recursive-doubling allreduce: `log2` rounds of full-size pairwise
    /// exchanges on the largest power-of-two core, with a fold-in pre-phase
    /// and a result push post-phase for the remainder ranks.
    fn doubling_allreduce(&mut self, bytes: u64) {
        let (k, r) = (self.k(), self.rank);
        let p2 = pow2_core(k);
        if r >= p2 {
            self.send(r - p2, bytes);
            return;
        }
        let mut m = 1;
        while m < p2 {
            self.send(r ^ m, bytes);
            m <<= 1;
        }
        if r < k - p2 {
            self.send(r + p2, bytes);
        }
    }

    /// Pipelined chain: root -> root+1 -> ... -> root-1.
    fn ring_bcast(&mut self, root: usize, bytes: u64) {
        let (k, r) = (self.k(), self.rank);
        if (r + k - root) % k < k - 1 {
            self.send((r + 1) % k, bytes);
        }
    }

    /// Large-message broadcast: recursive-halving scatter of `k` segments,
    /// then a ring allgather (the van de Geijn scheme NCCL uses for long
    /// payloads).
    fn scatter_allgather_bcast(&mut self, root: usize, len: usize, elem_bytes: u64) {
        let (k, r) = (self.k(), self.rank);
        let pos = (r + k - root) % k;
        let seg = |s: usize| block_range(len, k, s).len() as u64 * elem_bytes;
        // Scatter: the member range [lo, hi) halves each round; the holder
        // of the range hands the upper half's segments to its midpoint.
        let (mut lo, mut hi) = (0usize, k);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if pos < mid {
                if pos == lo {
                    self.send((mid + root) % k, (mid..hi).map(seg).sum());
                }
                hi = mid;
            } else {
                lo = mid;
            }
        }
        // Ring allgather of the segments in root-relative space.
        for step in 0..k - 1 {
            self.send((r + 1) % k, seg((pos + k - step) % k));
        }
    }

    /// Ring allgather: every block travels `k-1` hops around the ring.
    fn ring_allgather(&mut self, bytes: &[u64]) {
        let (k, r) = (self.k(), self.rank);
        for step in 0..k - 1 {
            self.send((r + 1) % k, bytes[(r + k - step) % k]);
        }
    }

    /// Binomial gather to member 0 (a rank forwards its whole subtree
    /// `[r, r+m)`), then a binomial broadcast of the concatenation.
    fn tree_allgather(&mut self, bytes: &[u64]) {
        let (k, r) = (self.k(), self.rank);
        let mut m = 1;
        while m < k {
            if r & m != 0 {
                self.send(r - m, bytes[r..(r + m).min(k)].iter().sum());
                break;
            }
            m <<= 1;
        }
        self.tree_down(0, bytes.iter().sum());
    }

    /// Recursive-doubling allgather: accumulated blocks double each round on
    /// the power-of-two core; remainder ranks fold in before and receive
    /// after.
    fn doubling_allgather(&mut self, bytes: &[u64]) {
        let (k, r) = (self.k(), self.rank);
        let p2 = pow2_core(k);
        let rem = k - p2;
        if r >= p2 {
            self.send(r - p2, bytes[r]);
            return;
        }
        // Core member x carries its own block plus its remainder partner's.
        let carried = |x: usize| bytes[x] + if x < rem { bytes[x + p2] } else { 0 };
        let mut m = 1;
        while m < p2 {
            // Before round m a rank holds the aligned block of m core
            // members containing it.
            let lo = r & !(m - 1);
            self.send(r ^ m, (lo..lo + m).map(carried).sum());
            m <<= 1;
        }
        if r < rem {
            self.send(r + p2, bytes.iter().sum());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden per-rank hop sequences captured from the data-moving ring,
    /// tree and doubling programs these plans replace: k = 2..=5 members at
    /// world ranks 0, 3, 6, 9, 12 (straddling JUWELS-Booster nodes), every
    /// op x algo, zero and non-zero bcast roots, and a ragged allgather
    /// with an empty contribution. One line per call; `hops=` lists each
    /// rank's sequence in rank order, separated by `|` (`-` when empty).
    const GOLDEN: &str = include_str!("../tests/fixtures/hop_plan_golden.txt");

    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("golden line without {key}: {line}"))
    }

    fn num(line: &str, key: &str) -> usize {
        field(line, key).parse().unwrap()
    }

    #[test]
    fn plans_match_the_golden_hop_sequences() {
        let topo = Topology::juwels_booster();
        let mut checked = 0;
        for line in GOLDEN.lines().filter(|l| !l.trim().is_empty()) {
            let mut words = line.split_whitespace();
            let op_name = words.next().unwrap();
            let algo_name = words.next().unwrap();
            let algo = Algo::ALL
                .into_iter()
                .find(|a| a.name() == algo_name)
                .unwrap();
            let k = num(line, "k");
            let counts: Vec<usize> = field(line, "counts")
                .split(',')
                .map(|c| c.parse().unwrap())
                .collect();
            let op = match op_name {
                "allreduce" => HopOp::AllReduce { len: counts[0] },
                "bcast" => HopOp::Bcast {
                    len: counts[0],
                    root: num(line, "root"),
                },
                "allgather" => HopOp::AllGather { counts: &counts },
                other => panic!("unknown op {other}"),
            };
            let labels: Vec<usize> = (0..k).map(|r| 3 * r).collect();
            let per_rank: Vec<&str> = field(line, "hops").split('|').collect();
            assert_eq!(per_rank.len(), k, "{line}");
            for (rank, hops) in per_rank.into_iter().enumerate() {
                let es = num(line, "es") as u64;
                let chunk = num(line, "chunk") as u64;
                let got = hop_plan(op, algo, es, chunk, rank, &labels, &topo);
                let want: Vec<(u64, LinkClass)> = match hops {
                    "-" => Vec::new(),
                    hops => hops
                        .split(',')
                        .map(|h| {
                            let (b, l) = h.split_once(':').unwrap();
                            (b.parse().unwrap(), LinkClass::parse_name(l).unwrap())
                        })
                        .collect(),
                };
                assert_eq!(got, want, "rank {rank} of {line}");
                checked += 1;
            }
        }
        assert_eq!(checked, 294, "golden fixture truncated");
    }

    #[test]
    fn hops_cross_node_boundaries_as_labeled() {
        // A 2-member communicator straddling nodes 0 and 1 must emit only
        // IB hops; one inside node 0 only NVLink hops.
        let topo = Topology::juwels_booster();
        for (labels, want) in [
            (vec![1usize, 5], LinkClass::Ib),
            (vec![1usize, 2], LinkClass::NvLink),
        ] {
            for rank in 0..2 {
                let hops = hop_plan(
                    HopOp::AllReduce { len: 16 },
                    Algo::Tree,
                    8,
                    1 << 20,
                    rank,
                    &labels,
                    &topo,
                );
                assert!(!hops.is_empty() || rank == 0);
                assert!(hops.iter().all(|&(_, l)| l == want));
            }
        }
    }

    #[test]
    fn emitted_bytes_are_chunk_split_and_sum_to_wire_volume() {
        // Ring allreduce over k ranks of L doubles: each rank sends
        // 2(k-1) segments; total emitted bytes = 2(k-1)/k * L * 8 per rank.
        let topo = Topology::single_node(8);
        let (k, len, chunk) = (4usize, 40usize, 32u64);
        let labels: Vec<usize> = (0..k).collect();
        for rank in 0..k {
            let hops = hop_plan(
                HopOp::AllReduce { len },
                Algo::Ring,
                8,
                chunk,
                rank,
                &labels,
                &topo,
            );
            let total: u64 = hops.iter().map(|h| h.0).sum();
            assert_eq!(total, 2 * (k as u64 - 1) * (len / k * 8) as u64);
            assert!(
                hops.iter().all(|h| h.0 <= chunk),
                "chunks must respect granularity"
            );
        }
    }

    #[test]
    fn empty_and_solo_cases_are_noops() {
        let topo = Topology::juwels_booster();
        for algo in Algo::ALL {
            for rank in 0..3 {
                let labels = [0, 1, 2];
                let empty = [
                    HopOp::AllReduce { len: 0 },
                    HopOp::Bcast { len: 0, root: 1 },
                    HopOp::AllGather { counts: &[0, 0, 0] },
                ];
                for op in empty {
                    assert!(hop_plan(op, algo, 8, 64, rank, &labels, &topo).is_empty());
                }
            }
            let solo = [
                HopOp::AllReduce { len: 3 },
                HopOp::Bcast { len: 3, root: 0 },
                HopOp::AllGather { counts: &[3] },
            ];
            for op in solo {
                assert!(hop_plan(op, algo, 8, 64, 0, &[7], &topo).is_empty());
            }
        }
    }
}
