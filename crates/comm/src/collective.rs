//! Collective operations over in-process "ranks" (threads).
//!
//! Each communicator is a set of ranks sharing a rendezvous slot. Collectives
//! are SPMD: every member calls the same operation in the same order, exactly
//! as with MPI/NCCL communicators. One engine moves every collective's data,
//! blocking or nonblocking, through shared memory; what distinguishes the
//! MPI and NCCL builds of ChASE — and the flat and hop-scheduled
//! collectives — is not
//! *whether* the data arrives but what staging and latency costs the paper's
//! machine charges for it — those are recorded in the [`Ledger`] by callers
//! and priced by `chase-perfmodel`.

use crate::schedule::{slot_in_perm, SchedulePoint, SchedulePolicy, ScheduleStream};
use crate::trace_hook::{CommScope, TraceHook};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A nonblocking collective's `wait()` gave up: some member never posted its
/// contribution within the communicator's wait timeout. In a real MPI/NCCL
/// deployment this is the watchdog firing on a dead or wedged peer; here it
/// turns a permanently-stalled `Request` into a typed, recoverable error
/// instead of a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout {
    /// Per-rank sequence number of the op that never completed.
    pub op_id: u64,
    /// The timeout that was exceeded, in milliseconds.
    pub timeout_ms: u64,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nonblocking collective op {} timed out after {} ms (peer never posted)",
            self.op_id, self.timeout_ms
        )
    }
}

impl std::error::Error for WaitTimeout {}

/// Typed failure of a nonblocking collective's `wait()`. Extends the plain
/// [`WaitTimeout`] watchdog with the two outcomes the elastic-recovery layer
/// needs to distinguish: a peer that is *known dead* (crash detected on the
/// grid's dead-rank board — recoverable by shrink-and-resume) and an op the
/// engine has no record of (never posted, dropped by a fault hook, or
/// already drained — a harness bug surfaced gracefully instead of a panic
/// poisoning the thread pool).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The watchdog expired with no evidence of a crash: some member never
    /// posted in time.
    Timeout(WaitTimeout),
    /// One or more members of the grid are marked dead on the dead-rank
    /// board; the op can never complete. Carries the dead world ranks
    /// (sorted) so survivors can enter the agreement round.
    RankDead {
        /// Per-rank sequence number of the op that can never complete.
        op_id: u64,
        /// World ranks marked dead at detection time, sorted ascending.
        dead: Vec<usize>,
    },
    /// The engine has no usable record of the op (never posted, dropped, or
    /// payload of the wrong type).
    UnknownOp { op_id: u64 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout(t) => t.fmt(f),
            CommError::RankDead { op_id, dead } => write!(
                f,
                "nonblocking collective op {op_id} aborted: rank(s) {dead:?} are dead"
            ),
            CommError::UnknownOp { op_id } => write!(
                f,
                "nonblocking collective op {op_id} is unknown to the engine (never posted, dropped, or already drained)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl From<WaitTimeout> for CommError {
    fn from(t: WaitTimeout) -> Self {
        CommError::Timeout(t)
    }
}

/// Panic payload raised out of a *blocking* collective when the
/// grid's dead-rank board shows a crashed member. Blocking collectives
/// return results by value and are called from deep inside the solver's
/// numeric kernels, so the abort travels as a typed panic that the elastic
/// driver catches with `catch_unwind` — the in-process analogue of the
/// process-fatal error MPI delivers after a peer dies.
#[derive(Debug, Clone)]
pub struct RankDeadPanic {
    /// World ranks marked dead at detection time, sorted ascending.
    pub dead: Vec<usize>,
}

/// Shared dead-rank board of one grid: a bitmask of world ranks that have
/// (cooperatively) crashed. One board is shared by the world, row and column
/// communicators of every rank of a grid, so a death marked anywhere is
/// visible to every wait loop. Capacity is 64 ranks — ample for the
/// in-process simulation.
pub struct DeadBoard {
    mask: std::sync::atomic::AtomicU64,
}

impl Default for DeadBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl DeadBoard {
    pub fn new() -> Self {
        Self {
            mask: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Mark world rank `wr` dead.
    pub fn mark(&self, wr: usize) {
        assert!(wr < 64, "dead board capacity is 64 ranks");
        self.mask
            .fetch_or(1u64 << wr, std::sync::atomic::Ordering::SeqCst);
    }

    /// Bitmask of dead world ranks.
    pub fn mask(&self) -> u64 {
        self.mask.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// True when any rank of the grid is dead.
    pub fn any_dead(&self) -> bool {
        self.mask() != 0
    }

    /// True when world rank `wr` is dead.
    pub fn is_dead(&self, wr: usize) -> bool {
        wr < 64 && self.mask() & (1u64 << wr) != 0
    }

    /// Dead world ranks, sorted ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        let m = self.mask();
        (0..64).filter(|r| m & (1u64 << r) != 0).collect()
    }
}

/// How often death-aware wait loops re-check the dead-rank board. The
/// marking rank notifies the condvars of its *own* slots, but waiters parked
/// on unrelated slots (another grid row's communicator) only notice via this
/// poll slice — it bounds crash-detection latency, not steady-state cost.
const DEATH_POLL_MS: u64 = 25;

/// Default watchdog on `Request::wait` — generous enough that legitimate
/// slow collectives never trip it, small enough that a wedged peer surfaces
/// as an error rather than a stuck CI job.
pub const DEFAULT_WAIT_TIMEOUT_MS: u64 = 30_000;

/// Scale a base timeout by the `CHASE_TEST_TIMEOUT_SCALE` environment
/// variable (a float multiplier; unset or unparsable = 1.0). The one knob
/// every timeout-bearing test and harness watchdog routes through: CI jobs
/// on oversubscribed runners set it above 1 so stall-detection tests,
/// serve deadlines, tune trial budgets and schedule-gate watchdogs keep a
/// real margin over scheduler jitter instead of flaking.
pub fn scaled_timeout_ms(base_ms: u64) -> u64 {
    let scale = std::env::var("CHASE_TEST_TIMEOUT_SCALE")
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(1.0);
    ((base_ms as f64 * scale).round() as u64).max(1)
}

/// What a fault hook decides to do with one nonblocking post.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostAction {
    /// Post normally.
    Deliver,
    /// Never post: the op stays incomplete and every member's `wait` times
    /// out. Models a crashed/wedged peer.
    Drop,
    /// Sleep before posting, then deliver. Models a straggler link.
    Delay { ms: u64 },
}

/// Fault-injection hook consulted at every nonblocking post. Installed
/// per-communicator by the chaos harness (`chase-faults`); production runs
/// carry no hook and pay one `RefCell` borrow per post.
pub trait CommFaultHook: Send + Sync {
    /// Decide the fate of nonblocking op `seq` (`op` names the collective:
    /// "iallreduce", "ibcast", "iallgather").
    fn on_post(&self, op: &'static str, seq: u64) -> PostAction;
}

/// Element types that can participate in a sum-allreduce.
pub trait Reduce: Clone + Send + Sync + 'static {
    fn reduce(&mut self, other: &Self);
}

macro_rules! impl_reduce_add {
    ($($t:ty),*) => {$(
        impl Reduce for $t {
            #[inline]
            fn reduce(&mut self, other: &Self) {
                *self += *other;
            }
        }
    )*};
}

impl_reduce_add!(f32, f64, u32, u64, usize, i64);
impl_reduce_add!(num_complex::Complex<f32>, num_complex::Complex<f64>);

type Payload = Box<dyn Any + Send>;

/// Key of one op on the engine: the schedule stream it belongs to plus the
/// stream-local per-rank sequence number. Blocking calls and nonblocking
/// posts keep independent counters, so a rank may hold nonblocking ops in
/// flight across any number of blocking calls on the same communicator.
type OpKey = (ScheduleStream, u64);

/// Panic message of a blocking collective whose members disagree on the
/// payload type.
const TYPE_MISMATCH: &str = "collective type mismatch across ranks";

/// One in-flight collective. Ops are keyed, so a rank can post op `s+1`
/// before anyone has waited on op `s` — the
/// double-buffered filter pipeline depends on never blocking at post time.
struct Op {
    arrived: usize,
    taken: usize,
    payloads: Vec<Option<Payload>>,
    /// Member indices in deposit order (schedule gate + fold canary).
    arrival: Vec<usize>,
    result: Option<Payload>,
    /// Per-member contribution lengths of a gather, in member order.
    counts: Vec<usize>,
}

impl Op {
    fn new(members: usize) -> Self {
        Self {
            arrived: 0,
            taken: 0,
            payloads: (0..members).map(|_| None).collect(),
            arrival: Vec::new(),
            result: None,
            counts: Vec::new(),
        }
    }

    /// Sum-allreduce combine: fold every payload into the first fold
    /// source's box, which becomes the result — no extra buffer, no copy.
    /// The runtime's one order-sensitive reduction: member-index order is
    /// the bitwise-determinism invariant, and the mutation canary
    /// (`arrival_order`) deliberately folds in deposit order instead.
    fn fold_sum<T: Reduce>(&mut self, engine: &mut Engine, arrival_order: bool) {
        let order: Vec<usize> = if arrival_order {
            self.arrival.clone()
        } else {
            (0..self.payloads.len()).collect()
        };
        let mut result = self.payloads[order[0]].take().expect("missing payload");
        {
            let out = result.downcast_mut::<Vec<T>>().expect(TYPE_MISMATCH);
            for &m in &order[1..] {
                let v = self.payloads[m]
                    .as_ref()
                    .expect("missing payload")
                    .downcast_ref::<Vec<T>>()
                    .expect(TYPE_MISMATCH);
                assert_eq!(v.len(), out.len(), "allreduce length mismatch");
                for (a, b) in out.iter_mut().zip(v) {
                    a.reduce(b);
                }
            }
        }
        for b in self.payloads.iter_mut().filter_map(Option::take) {
            engine.checkin(b);
        }
        self.result = Some(result);
    }

    /// Broadcast combine: the root's staging box *is* the result.
    fn take_root(&mut self, root: usize) {
        self.result = Some(self.payloads[root].take().expect("root did not post"));
    }

    /// Allgather combine: member 0's staging box grows into the member-order
    /// concatenation in place; later contributions append and recycle.
    fn concat<T: Clone + Send + 'static>(&mut self, engine: &mut Engine) {
        let mut result = self.payloads[0].take().expect("missing payload");
        self.counts.clear();
        {
            let out = result.downcast_mut::<Vec<T>>().expect(TYPE_MISMATCH);
            self.counts.push(out.len());
            for p in &self.payloads[1..] {
                let v = p
                    .as_ref()
                    .expect("missing payload")
                    .downcast_ref::<Vec<T>>()
                    .expect(TYPE_MISMATCH);
                self.counts.push(v.len());
                out.extend_from_slice(v);
            }
        }
        for b in self.payloads.iter_mut().filter_map(Option::take) {
            engine.checkin(b);
        }
        self.result = Some(result);
    }
}

/// Shared state of the collective engine: in-flight ops plus a pool of
/// recycled type-erased staging buffers. Boxes circulate whole (never
/// unboxed), so a steady-state collective performs zero heap allocations —
/// the discipline NCCL enforces with its persistent communicator buffers.
struct Engine {
    ops: HashMap<OpKey, Op>,
    pool: Vec<Payload>,
    /// Retired op skeletons (payload slot vectors) awaiting reuse.
    free_ops: Vec<Op>,
    /// Staging buffers newly allocated because the pool had no match.
    fresh_allocs: u64,
    /// Staging buffers served from the pool.
    pool_hits: u64,
}

impl Engine {
    /// Take a pooled `Vec<T>` box (cleared, capacity retained) or allocate.
    fn checkout<T: Send + 'static>(&mut self) -> Payload {
        if let Some(pos) = self.pool.iter().position(|p| p.is::<Vec<T>>()) {
            self.pool_hits += 1;
            let mut b = self.pool.swap_remove(pos);
            b.downcast_mut::<Vec<T>>().unwrap().clear();
            b
        } else {
            self.fresh_allocs += 1;
            Box::new(Vec::<T>::new())
        }
    }

    /// Take a pooled `Vec<T>` box resized to `len`. Unlike [`checkout`],
    /// the recycled contents are *not* cleared first: when the pool serves
    /// a buffer of the same length — the steady state of a fixed-shape
    /// pipeline — the resize is a no-op and the caller gets a writable
    /// buffer for free (no zeroing, no copy).
    ///
    /// [`checkout`]: Engine::checkout
    fn checkout_len<T: Clone + Default + Send + 'static>(&mut self, len: usize) -> Payload {
        let exact = self
            .pool
            .iter()
            .position(|p| p.downcast_ref::<Vec<T>>().is_some_and(|v| v.len() == len));
        let mut b =
            if let Some(pos) = exact.or_else(|| self.pool.iter().position(|p| p.is::<Vec<T>>())) {
                self.pool_hits += 1;
                self.pool.swap_remove(pos)
            } else {
                self.fresh_allocs += 1;
                Box::new(Vec::<T>::new()) as Payload
            };
        b.downcast_mut::<Vec<T>>()
            .unwrap()
            .resize(len, T::default());
        b
    }

    fn checkin(&mut self, b: Payload) {
        self.pool.push(b);
    }

    /// Fetch the in-flight op `key`, or start one from the recycled-op
    /// stock. Ownership moves out of the map so the caller can mutate the op
    /// and the pool without borrow conflicts; it must be re-inserted.
    fn take_op(&mut self, key: OpKey, members: usize) -> Op {
        self.ops
            .remove(&key)
            .unwrap_or_else(|| self.free_ops.pop().unwrap_or_else(|| Op::new(members)))
    }

    /// Recycle a fully-drained op (all payload boxes already back in the
    /// pool or moved into the result).
    fn retire(&mut self, mut op: Op) {
        if let Some(r) = op.result.take() {
            self.checkin(r);
        }
        debug_assert!(op.payloads.iter().all(Option::is_none));
        op.arrived = 0;
        op.taken = 0;
        op.arrival.clear();
        self.free_ops.push(op);
    }
}

/// Buffer-pool accounting of one communicator's collective engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NbPoolStats {
    /// Staging/result buffers freshly heap-allocated (pool misses). Constant
    /// after warm-up: the zero-steady-state-allocation invariant.
    pub fresh_allocs: u64,
    /// Buffers served from the pool.
    pub pool_hits: u64,
    /// Buffers currently parked in the pool.
    pub pooled: usize,
    /// Nonblocking ops posted but not fully waited.
    pub in_flight: usize,
}

/// State of the dead-rank agreement round running on one slot. Unlike a
/// collective it tolerates members that never show up: completion is
/// "every member has either joined or is on the dead board", so survivors
/// converge even while the collectives they abandoned stay wedged.
struct AgreeState {
    /// Bitmask (member index) of members that joined the round.
    joined: u64,
    /// OR of every joiner's suspect mask (member index).
    suspects: u64,
    /// The agreed dead set (member index), fixed by the first member that
    /// observes completion; all others read this single value.
    result: Option<u64>,
    /// Joiners that have read the result (round drains when all live
    /// members have taken).
    taken: u64,
}

/// The shared slots of one shrunk grid, built once (under the registry
/// lock) by the first survivor to arrive and reused by the rest. Stored on
/// the *old* world slot, keyed by the agreed dead mask, so every survivor
/// resolves the same replacement rendezvous points without any collective
/// on the wedged communicators.
pub struct ShrunkSlots {
    pub world: Arc<Slot>,
    pub rows: Vec<Arc<Slot>>,
    pub cols: Vec<Arc<Slot>>,
    pub board: Arc<DeadBoard>,
}

/// Shared rendezvous point for one communicator.
pub struct Slot {
    members: usize,
    /// The collective engine: blocking calls and nonblocking posts alike
    /// deposit here and wait on `cv`.
    engine: Mutex<Engine>,
    cv: Condvar,
    /// Dead-rank agreement round, independent of the collective engine so
    /// it completes while collectives are wedged on a crashed member.
    agree: Mutex<AgreeState>,
    agree_cv: Condvar,
    /// Registry of shrunk-grid slot sets keyed by the agreed dead mask.
    shrunk: Mutex<HashMap<u64, Arc<ShrunkSlots>>>,
}

impl Slot {
    pub fn new(members: usize) -> Arc<Self> {
        Arc::new(Self {
            members,
            engine: Mutex::new(Engine {
                ops: HashMap::new(),
                pool: Vec::new(),
                free_ops: Vec::new(),
                fresh_allocs: 0,
                pool_hits: 0,
            }),
            cv: Condvar::new(),
            agree: Mutex::new(AgreeState {
                joined: 0,
                suspects: 0,
                result: None,
                taken: 0,
            }),
            agree_cv: Condvar::new(),
            shrunk: Mutex::new(HashMap::new()),
        })
    }

    /// Fetch the shrunk-slot set for `dead_mask`, building it with `make`
    /// under the registry lock if this is the first survivor to arrive.
    pub fn shrunk_slots(
        &self,
        dead_mask: u64,
        make: impl FnOnce() -> ShrunkSlots,
    ) -> Arc<ShrunkSlots> {
        let mut reg = self.shrunk.lock();
        reg.entry(dead_mask)
            .or_insert_with(|| Arc::new(make()))
            .clone()
    }

    /// Wake every wait loop parked on this slot (used when a death is
    /// marked so detection does not wait out a full poll slice).
    fn notify_all_engines(&self) {
        self.cv.notify_all();
        self.agree_cv.notify_all();
    }
}

/// A handle that lets a (cooperatively) crashing rank announce its death:
/// marks the rank on the grid's dead board and wakes the wait loops of the
/// slots it participated in. `Send + Sync` so the fault plan can carry it
/// across the solver's layers.
pub struct DeathHandle {
    board: Arc<DeadBoard>,
    world_rank: usize,
    wake: Vec<Arc<Slot>>,
}

impl DeathHandle {
    pub fn new(board: Arc<DeadBoard>, world_rank: usize, wake: Vec<Arc<Slot>>) -> Self {
        Self {
            board,
            world_rank,
            wake,
        }
    }

    /// The world rank this handle kills.
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// Mark the rank dead and wake every wait loop that might be blocked
    /// on its participation.
    pub fn mark_dead(&self) {
        self.board.mark(self.world_rank);
        for s in &self.wake {
            s.notify_all_engines();
        }
    }
}

/// A rank's handle to a communicator. Cheap to clone the underlying slot;
/// the handle itself is single-threaded (one per rank).
pub struct Communicator {
    slot: Arc<Slot>,
    my_index: usize,
    /// World rank of each member, in member-index order. The hop-schedule
    /// cost plan (`chase-topo`) uses these to find the physical link a hop
    /// crosses; a plain communicator labels members with their own indices.
    labels: Arc<Vec<usize>>,
    /// Per-rank counter of blocking collective calls — the op key of the
    /// [`ScheduleStream::Blocking`] stream. SPMD discipline (every member
    /// makes the same calls in the same order) keeps it consistent.
    blk_seq: Cell<u64>,
    /// Per-rank counter of nonblocking collective posts — the op key of the
    /// [`ScheduleStream::Nonblocking`] stream.
    nb_seq: Cell<u64>,
    /// Watchdog for `Request::wait`, in milliseconds.
    wait_timeout_ms: Cell<u64>,
    /// Fault-injection hook consulted at nonblocking posts (chaos testing).
    fault_hook: RefCell<Option<Arc<dyn CommFaultHook>>>,
    /// Schedule-exploration policy gating deposit order, tagged with this
    /// handle's grid scope. Installed by `chase-check`; production runs
    /// carry no policy and pay one `RefCell` borrow per collective.
    schedule: RefCell<Option<(Arc<dyn SchedulePolicy>, CommScope)>>,
    /// Mutation canary: fold reductions in *arrival* order instead of
    /// member-index order. Deliberately order-sensitive — exists only so
    /// `chase-check` can prove its invariant checkers catch real bugs.
    order_canary: Cell<bool>,
    /// Tracing hook notified at every collective issue (blocking call or
    /// nonblocking post), tagged with this handle's scope in the grid.
    trace_hook: RefCell<Option<(Arc<dyn TraceHook>, CommScope)>>,
    /// Per-rank sequence number of traced collective issues. SPMD discipline
    /// (every member issues the same collectives in the same order) keeps it
    /// identical across ranks — the key the trace stitcher aligns streams on.
    trace_seq: Cell<u64>,
    /// Grid-wide dead-rank board (world-rank bits). Standalone communicators
    /// carry a private board; the three communicators of a grid rank share
    /// one, installed by `run_grid` / `shrink_ctx`.
    board: Arc<DeadBoard>,
}

impl Communicator {
    pub fn new(slot: Arc<Slot>, my_index: usize) -> Self {
        let labels = Arc::new((0..slot.members).collect());
        Self::with_labels(slot, my_index, labels)
    }

    /// Communicator whose members carry explicit world-rank labels (the row
    /// and column communicators of a 2D grid are sub-sets of the world).
    pub fn with_labels(slot: Arc<Slot>, my_index: usize, labels: Arc<Vec<usize>>) -> Self {
        Self::with_labels_board(slot, my_index, labels, Arc::new(DeadBoard::new()))
    }

    /// Communicator sharing an explicit grid-wide dead-rank board — the
    /// constructor `run_grid` and the shrink path use so a death marked on
    /// any of a rank's communicators aborts waits on all of them.
    pub fn with_labels_board(
        slot: Arc<Slot>,
        my_index: usize,
        labels: Arc<Vec<usize>>,
        board: Arc<DeadBoard>,
    ) -> Self {
        assert!(my_index < slot.members);
        assert_eq!(labels.len(), slot.members, "one label per member");
        Self {
            slot,
            my_index,
            labels,
            blk_seq: Cell::new(0),
            nb_seq: Cell::new(0),
            wait_timeout_ms: Cell::new(DEFAULT_WAIT_TIMEOUT_MS),
            fault_hook: RefCell::new(None),
            schedule: RefCell::new(None),
            order_canary: Cell::new(false),
            trace_hook: RefCell::new(None),
            trace_seq: Cell::new(0),
            board,
        }
    }

    /// The grid-wide dead-rank board this handle consults.
    pub fn dead_board(&self) -> Arc<DeadBoard> {
        self.board.clone()
    }

    /// The shared rendezvous slot behind this handle (shrink registry and
    /// death-handle wiring).
    pub(crate) fn slot(&self) -> Arc<Slot> {
        self.slot.clone()
    }

    /// Set the `wait()` watchdog for this handle, in milliseconds.
    pub fn set_wait_timeout_ms(&self, ms: u64) {
        self.wait_timeout_ms.set(ms);
    }

    /// Current `wait()` watchdog, in milliseconds.
    pub fn wait_timeout_ms(&self) -> u64 {
        self.wait_timeout_ms.get()
    }

    /// Install (or clear) the fault-injection hook consulted at every
    /// nonblocking post on this handle.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn CommFaultHook>>) {
        *self.fault_hook.borrow_mut() = hook;
    }

    /// Consult the fault hook for op `seq`. `Deliver` when none installed.
    fn post_action(&self, op: &'static str, seq: u64) -> PostAction {
        match &*self.fault_hook.borrow() {
            Some(h) => h.on_post(op, seq),
            None => PostAction::Deliver,
        }
    }

    /// Install (or clear) the schedule-exploration policy gating deposit
    /// order on this handle, tagging its decisions with `scope`. All
    /// members of the communicator must install the same policy (SPMD).
    pub fn set_schedule_policy(&self, policy: Option<Arc<dyn SchedulePolicy>>, scope: CommScope) {
        *self.schedule.borrow_mut() = policy.map(|p| (p, scope));
    }

    /// Enable the order-sensitive-fold mutation canary on this handle:
    /// reductions fold in arrival order instead of member-index order,
    /// deliberately breaking the bitwise schedule-independence invariant.
    /// Exists so `chase-check` can prove it catches the bug class; never
    /// set outside the harness.
    pub fn set_order_sensitive_fold(&self, on: bool) {
        self.order_canary.set(on);
    }

    /// This rank's forced deposit slot for op (`stream`, `op`, `seq`), or
    /// `None` when no policy is installed / the policy leaves the op
    /// free-running.
    fn schedule_slot(&self, stream: ScheduleStream, op: &'static str, seq: u64) -> Option<usize> {
        let guard = self.schedule.borrow();
        let (policy, scope) = guard.as_ref()?;
        let point = SchedulePoint {
            scope: *scope,
            stream,
            op,
            seq,
            members: self.slot.members,
        };
        let perm = policy.arrival_order(&point)?;
        Some(slot_in_perm(
            &perm,
            self.slot.members,
            self.my_index,
            &point,
        ))
    }

    /// Deadlock-watchdogged wait inside a deposit gate: block until
    /// `arrived()` reaches `my_slot`, waking on `cv`. Panics with a
    /// diagnostic when the slot never comes up (a dropped predecessor post
    /// or an asymmetric policy install) — a wedged explorer must surface,
    /// not hang CI.
    fn gate_wait<S>(
        &self,
        guard: &mut MutexGuard<'_, S>,
        cv: &Condvar,
        my_slot: usize,
        arrived: impl Fn(&S) -> usize,
        op: &'static str,
        seq: u64,
    ) {
        let timeout_ms = self.wait_timeout_ms.get();
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        loop {
            match arrived(guard).cmp(&my_slot) {
                Ordering::Equal => return,
                Ordering::Greater => panic!(
                    "schedule gate overrun: {op} op {seq}: member {} was assigned slot {} but {} deposits already arrived (policy not installed on every member?)",
                    self.my_index,
                    my_slot,
                    arrived(guard)
                ),
                Ordering::Less => {
                    let now = Instant::now();
                    assert!(
                        now < deadline,
                        "schedule gate deadlock: {op} op {seq}: member {} waiting for slot {} but only {} deposits arrived after {} ms",
                        self.my_index,
                        my_slot,
                        arrived(guard),
                        timeout_ms
                    );
                    cv.wait_for(guard, deadline - now);
                }
            }
        }
    }

    /// Install (or clear) the tracing hook notified at every collective
    /// issued through this handle, tagging it with `scope`.
    pub fn set_trace_hook(&self, hook: Option<Arc<dyn TraceHook>>, scope: CommScope) {
        *self.trace_hook.borrow_mut() = hook.map(|h| (h, scope));
    }

    /// Notify the trace hook of one collective issue (blocking call or
    /// nonblocking post) and advance the per-communicator sequence number.
    /// One `RefCell` borrow when no hook is installed; never a collective.
    fn trace_collective(&self, op: &'static str, bytes: u64) {
        if let Some((h, scope)) = &*self.trace_hook.borrow() {
            let seq = self.trace_seq.get();
            self.trace_seq.set(seq + 1);
            h.collective(*scope, op, seq, bytes, self.slot.members as u64);
        }
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.slot.members
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// World rank of each member, in member-index order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// World rank of member `idx`.
    pub fn label_of(&self, idx: usize) -> usize {
        self.labels[idx]
    }

    /// Trivial communicator containing only this rank (serial builds).
    pub fn solo() -> Self {
        Self::new(Slot::new(1), 0)
    }

    // ---- the collective engine ------------------------------------------
    //
    // Every collective — blocking call or nonblocking post — runs on one
    // engine: each member deposits its contribution under the op's key, the
    // last depositor combines the payloads, and every member then takes the
    // result. Blocking calls are a deposit followed at once by a wait;
    // nonblocking posts return a [`Request`] and wait later. Ops are keyed
    // by `(stream, per-rank sequence number)`, so posting never blocks
    // behind an earlier in-flight op and a rank may hold several
    // outstanding requests on one communicator. SPMD contract: every member
    // issues the same collectives in the same order, and every request must
    // eventually be waited.

    /// Copy `data` into a pooled staging box.
    fn stage<T: Clone + Send + 'static>(&self, data: &[T]) -> Payload {
        let mut b = self.slot.engine.lock().checkout::<T>();
        b.downcast_mut::<Vec<T>>().unwrap().extend_from_slice(data);
        b
    }

    /// Deposit this member's contribution to op `key` (`None` for a bcast
    /// non-root or a barrier). The last depositor runs `combine`, which must
    /// set the op's result, and wakes the waiters. Under a schedule policy
    /// the deposit is held until the forced arrival order reaches this
    /// member's slot.
    fn deposit(
        &self,
        key: OpKey,
        op_name: &'static str,
        mine: Option<Payload>,
        combine: impl FnOnce(&mut Op, &mut Engine),
    ) {
        let gate = self.schedule_slot(key.0, op_name, key.1);
        let slot = &*self.slot;
        let mut engine = slot.engine.lock();
        if let Some(my_slot) = gate {
            self.gate_wait(
                &mut engine,
                &slot.cv,
                my_slot,
                |s| s.ops.get(&key).map_or(0, |o| o.arrived),
                op_name,
                key.1,
            );
        }
        let mut op = engine.take_op(key, slot.members);
        debug_assert!(op.payloads[self.my_index].is_none(), "double post");
        op.payloads[self.my_index] = mine;
        op.arrival.push(self.my_index);
        op.arrived += 1;
        let complete = op.arrived == slot.members;
        if complete {
            combine(&mut op, &mut engine);
        }
        // Completion wakes the waiters; a gated deposit additionally wakes
        // the member holding the next slot.
        if complete || gate.is_some() {
            slot.cv.notify_all();
        }
        engine.ops.insert(key, op);
    }

    /// Block until op `key` has a result, hand it (with a gather's
    /// per-member counts) to `read` under the lock, and drain the op (last
    /// taker recycles every buffer). Gives up with a typed [`CommError`]
    /// instead of hanging or panicking: a crash on the dead-rank board
    /// yields `RankDead` (the op can never complete), the watchdog — armed
    /// only when `watchdog` is set — yields `Timeout`, and an op the engine
    /// has no usable record of (never posted, dropped by a fault hook, or
    /// carrying a mismatched payload type) yields `UnknownOp`. After any
    /// error the op (and partial payloads) stays parked in the map; the
    /// caller is expected to abort the computation, not retry the wait.
    fn complete<T: Send + 'static>(
        &self,
        key: OpKey,
        watchdog: bool,
        read: impl FnOnce(&Vec<T>, &[usize]),
    ) -> Result<(), CommError> {
        let slot = &*self.slot;
        let op_id = key.1;
        let timeout_ms = self.wait_timeout_ms.get();
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let mut engine = slot.engine.lock();
        while engine.ops.get(&key).is_none_or(|op| op.result.is_none()) {
            if self.board.any_dead() {
                return Err(CommError::RankDead {
                    op_id,
                    dead: self.board.dead_ranks(),
                });
            }
            let mut slice = Duration::from_millis(DEATH_POLL_MS);
            if watchdog {
                let now = Instant::now();
                if now >= deadline {
                    return Err(CommError::Timeout(WaitTimeout { op_id, timeout_ms }));
                }
                slice = slice.min(deadline - now);
            }
            slot.cv.wait_for(&mut engine, slice);
        }
        let Some(mut op) = engine.ops.remove(&key) else {
            return Err(CommError::UnknownOp { op_id });
        };
        let Some(r) = op.result.as_ref().and_then(|r| r.downcast_ref::<Vec<T>>()) else {
            engine.ops.insert(key, op);
            return Err(CommError::UnknownOp { op_id });
        };
        read(r, &op.counts);
        op.taken += 1;
        if op.taken == slot.members {
            engine.retire(op);
        } else {
            engine.ops.insert(key, op);
        }
        Ok(())
    }

    // ---- blocking collectives -------------------------------------------
    //
    // A post on the engine followed by a wait with no watchdog and no
    // fault-hook consult. A dead member unwinds the caller with a typed
    // [`RankDeadPanic`]; members disagreeing on the payload type panic.

    fn next_blk_key(&self) -> OpKey {
        let s = self.blk_seq.get();
        self.blk_seq.set(s + 1);
        (ScheduleStream::Blocking, s)
    }

    /// Wait out blocking op `key` (no watchdog), turning engine errors into
    /// the blocking API's panics.
    fn wait_blocking<T: Send + 'static>(&self, key: OpKey, read: impl FnOnce(&Vec<T>, &[usize])) {
        match self.complete(key, false, read) {
            Ok(()) => {}
            Err(CommError::RankDead { dead, .. }) => std::panic::panic_any(RankDeadPanic { dead }),
            Err(e) => panic!("{TYPE_MISMATCH}: {e}"),
        }
    }

    /// Element-wise sum-allreduce, in place. All members must pass buffers of
    /// identical length.
    pub fn allreduce_sum<T: Reduce>(&self, buf: &mut [T]) {
        self.trace_collective("allreduce", std::mem::size_of_val(buf) as u64);
        if self.size() == 1 {
            return;
        }
        let key = self.next_blk_key();
        let canary = self.order_canary.get();
        self.deposit(key, "allreduce", Some(self.stage(buf)), |op, engine| {
            op.fold_sum::<T>(engine, canary)
        });
        self.wait_blocking::<T>(key, |r, _| buf.clone_from_slice(r));
    }

    /// Broadcast `buf` from `root` to every member, in place.
    pub fn bcast<T: Clone + Send + Sync + 'static>(&self, buf: &mut [T], root: usize) {
        assert!(root < self.size());
        self.trace_collective("bcast", std::mem::size_of_val(buf) as u64);
        if self.size() == 1 {
            return;
        }
        let key = self.next_blk_key();
        let mine = (self.my_index == root).then(|| self.stage(buf));
        self.deposit(key, "bcast", mine, |op, _| op.take_root(root));
        self.wait_blocking::<T>(key, |r, _| {
            if self.my_index != root {
                assert_eq!(buf.len(), r.len(), "bcast length mismatch");
                buf.clone_from_slice(r);
            }
        });
    }

    /// Gather every member's contribution, concatenated in member order,
    /// replicated on all ranks. Contributions may differ in length.
    pub fn allgather<T: Clone + Send + Sync + 'static>(&self, mine: &[T]) -> Vec<T> {
        self.allgather_counts(mine).0
    }

    /// [`Communicator::allgather`] that also returns each member's
    /// contribution length, in member order — what a ragged gather's hop
    /// plan needs, with no extra collective.
    pub fn allgather_counts<T: Clone + Send + Sync + 'static>(
        &self,
        mine: &[T],
    ) -> (Vec<T>, Vec<usize>) {
        self.trace_collective("allgather", std::mem::size_of_val(mine) as u64);
        if self.size() == 1 {
            return (mine.to_vec(), vec![mine.len()]);
        }
        let key = self.next_blk_key();
        self.deposit(key, "allgather", Some(self.stage(mine)), |op, engine| {
            op.concat::<T>(engine)
        });
        let mut out = (Vec::new(), Vec::new());
        self.wait_blocking::<T>(key, |r, counts| out = (r.clone(), counts.to_vec()));
        out
    }

    /// Synchronize all members.
    pub fn barrier(&self) {
        self.trace_collective("barrier", 0);
        if self.size() == 1 {
            return;
        }
        let key = self.next_blk_key();
        self.deposit(key, "barrier", None, |op, engine| {
            op.result = Some(engine.checkout::<()>())
        });
        self.wait_blocking::<()>(key, |_, _| {});
    }

    /// Sum-allreduce of a single value.
    pub fn allreduce_scalar<T: Reduce>(&self, v: T) -> T {
        let mut b = [v];
        self.allreduce_sum(&mut b);
        let [out] = b;
        out
    }

    // ---- nonblocking collectives ---------------------------------------
    //
    // The `i*` variants consult the fault hook, deposit, and return a
    // [`Request`] at once; `wait()` blocks only until the result of *that*
    // op is ready, under the communicator's watchdog.

    fn next_nb_seq(&self) -> u64 {
        let s = self.nb_seq.get();
        self.nb_seq.set(s + 1);
        s
    }

    /// Consult the fault hook for nonblocking op `seq`: `false` when the
    /// post must be dropped (the op id stays consumed, so later posts stay
    /// aligned across ranks), after sleeping out any injected delay.
    fn deliver(&self, op: &'static str, seq: u64) -> bool {
        match self.post_action(op, seq) {
            PostAction::Drop => false,
            PostAction::Delay { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                true
            }
            PostAction::Deliver => true,
        }
    }

    /// Buffer-pool statistics of this communicator's collective engine.
    pub fn nb_pool_stats(&self) -> NbPoolStats {
        let engine = self.slot.engine.lock();
        NbPoolStats {
            fresh_allocs: engine.fresh_allocs,
            pool_hits: engine.pool_hits,
            pooled: engine.pool.len(),
            in_flight: engine
                .ops
                .keys()
                .filter(|k| k.0 == ScheduleStream::Nonblocking)
                .count(),
        }
    }

    /// Check out a pooled staging buffer of `len` elements to compute a
    /// contribution *directly into*, then post it with zero copies via
    /// [`Communicator::iallreduce_sum_staged`]. Steady state (a recycled
    /// buffer of the same length) this costs no allocation and no zeroing.
    /// Dropping an unposted `SendBuf` returns the buffer to the pool.
    pub fn nb_staging<T: Clone + Default + Send + 'static>(&self, len: usize) -> SendBuf<'_, T> {
        let buf = self.slot.engine.lock().checkout_len::<T>(len);
        SendBuf {
            comm: self,
            buf: Some(buf),
            _t: std::marker::PhantomData,
        }
    }

    /// Post a nonblocking sum-allreduce of a staged contribution, *moving*
    /// the staging buffer in as the payload — the zero-copy twin of
    /// [`Communicator::iallreduce_sum`]. Folding order and semantics are
    /// identical (bitwise) to the copying path.
    pub fn iallreduce_sum_staged<T: Reduce>(&self, mut staged: SendBuf<'_, T>) -> Request<'_, T> {
        let mine = staged.buf.take().expect("staged buffer already posted");
        let len = mine.downcast_ref::<Vec<T>>().unwrap().len();
        let op_id = self.next_nb_seq();
        self.trace_collective("iallreduce", (len * std::mem::size_of::<T>()) as u64);
        if self.deliver("iallreduce", op_id) {
            self.post_allreduce::<T>(op_id, mine);
        } else {
            // Stall: recycle the staging buffer, never deposit it.
            self.slot.engine.lock().checkin(mine);
        }
        Request::new(self, op_id, len)
    }

    /// Post a nonblocking element-wise sum-allreduce of `buf`. The returned
    /// request's [`Request::wait`] writes the sum (folded in member-index
    /// order — bitwise identical to [`Communicator::allreduce_sum`]) into
    /// the buffer passed to it.
    pub fn iallreduce_sum<T: Reduce>(&self, buf: &[T]) -> Request<'_, T> {
        let op_id = self.next_nb_seq();
        self.trace_collective("iallreduce", std::mem::size_of_val(buf) as u64);
        if self.deliver("iallreduce", op_id) {
            self.post_allreduce::<T>(op_id, self.stage(buf));
        }
        Request::new(self, op_id, buf.len())
    }

    fn post_allreduce<T: Reduce>(&self, op_id: u64, mine: Payload) {
        let canary = self.order_canary.get();
        self.deposit(
            (ScheduleStream::Nonblocking, op_id),
            "iallreduce",
            Some(mine),
            |op, engine| op.fold_sum::<T>(engine, canary),
        );
    }

    /// Post a nonblocking broadcast of `root`'s `buf`. Non-root callers pass
    /// their (ignored) receive buffer so lengths can be checked at wait.
    pub fn ibcast<T: Clone + Send + Sync + 'static>(
        &self,
        buf: &[T],
        root: usize,
    ) -> Request<'_, T> {
        assert!(root < self.size());
        let op_id = self.next_nb_seq();
        self.trace_collective("ibcast", std::mem::size_of_val(buf) as u64);
        if self.deliver("ibcast", op_id) {
            let mine = (self.my_index == root).then(|| self.stage(buf));
            self.deposit(
                (ScheduleStream::Nonblocking, op_id),
                "ibcast",
                mine,
                |op, _| op.take_root(root),
            );
        }
        Request::new(self, op_id, buf.len())
    }

    /// Post a nonblocking allgather of `mine`. Contributions may be ragged;
    /// the result is the member-order concatenation, delivered through
    /// [`GatherRequest::wait`].
    pub fn iallgather<T: Clone + Send + Sync + 'static>(&self, mine: &[T]) -> GatherRequest<'_, T> {
        let op_id = self.next_nb_seq();
        self.trace_collective("iallgather", std::mem::size_of_val(mine) as u64);
        if self.deliver("iallgather", op_id) {
            self.deposit(
                (ScheduleStream::Nonblocking, op_id),
                "iallgather",
                Some(self.stage(mine)),
                |op, engine| op.concat::<T>(engine),
            );
        }
        GatherRequest {
            comm: self,
            op_id,
            done: false,
            _t: std::marker::PhantomData,
        }
    }

    // ---- dead-rank agreement -------------------------------------------

    /// Deterministic agreement round on the dead-rank set, run by survivors
    /// after a crash is detected. Each caller contributes the world ranks it
    /// suspects (typically from a [`CommError::RankDead`] or
    /// [`RankDeadPanic`]); the round completes when every member has either
    /// joined or is on the dead board, and every joiner returns the *same*
    /// agreed set: the union of all suspect sets and the board, fixed by the
    /// first member to observe completion. Runs on machinery independent of
    /// the (wedged) collective engines, so it converges while in-flight
    /// collectives stay parked forever.
    ///
    /// Watchdogged by the handle's wait timeout: if live members never join
    /// (asymmetric detection logic — a harness bug), the round errors out
    /// with [`WaitTimeout`] rather than hanging.
    pub fn agree_dead(&self, suspected: &[usize]) -> Result<Vec<usize>, WaitTimeout> {
        let slot = &*self.slot;
        assert!(slot.members <= 64, "agreement capacity is 64 ranks");
        let all = if slot.members == 64 {
            u64::MAX
        } else {
            (1u64 << slot.members) - 1
        };
        // Translate world-rank suspicions into member-index bits.
        let to_member_mask = |world: u64| -> u64 {
            let mut m = 0u64;
            for (idx, &label) in self.labels.iter().enumerate() {
                if label < 64 && world & (1u64 << label) != 0 {
                    m |= 1u64 << idx;
                }
            }
            m
        };
        let mut suspect_world = 0u64;
        for &wr in suspected {
            assert!(wr < 64);
            suspect_world |= 1u64 << wr;
        }
        let timeout_ms = self.wait_timeout_ms.get();
        let deadline = Instant::now() + Duration::from_millis(timeout_ms);
        let my_bit = 1u64 << self.my_index;
        let mut st = slot.agree.lock();
        st.suspects |= to_member_mask(suspect_world | self.board.mask());
        st.joined |= my_bit;
        let agreed = loop {
            if let Some(r) = st.result {
                break r;
            }
            let dead = to_member_mask(self.board.mask());
            if (st.joined | dead) & all == all {
                let r = st.suspects | dead;
                st.result = Some(r);
                slot.agree_cv.notify_all();
                break r;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(WaitTimeout {
                    op_id: u64::MAX,
                    timeout_ms,
                });
            }
            let slice = (deadline - now).min(Duration::from_millis(DEATH_POLL_MS));
            slot.agree_cv.wait_for(&mut st, slice);
        };
        // Drain the round: the last live taker resets the state so the slot
        // could host another round (defensive — each crash agrees on fresh
        // slots after the shrink).
        st.taken |= my_bit;
        let live = all & !agreed;
        if st.taken & live == live {
            st.joined = 0;
            st.suspects = 0;
            st.result = None;
            st.taken = 0;
        }
        Ok((0..slot.members)
            .filter(|i| agreed & (1u64 << i) != 0)
            .map(|i| self.labels[i])
            .collect())
    }
}

/// A pooled staging buffer checked out with [`Communicator::nb_staging`]:
/// compute the local contribution directly into it, then move it into a
/// collective with [`Communicator::iallreduce_sum_staged`] — the zero-copy
/// posting path.
pub struct SendBuf<'c, T: Send + 'static> {
    comm: &'c Communicator,
    buf: Option<Payload>,
    _t: std::marker::PhantomData<T>,
}

impl<T: Send + 'static> SendBuf<'_, T> {
    /// Number of elements staged.
    pub fn len(&self) -> usize {
        self.buf
            .as_ref()
            .unwrap()
            .downcast_ref::<Vec<T>>()
            .unwrap()
            .len()
    }

    /// True when zero elements are staged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writable view of the staged contribution.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf
            .as_mut()
            .unwrap()
            .downcast_mut::<Vec<T>>()
            .unwrap()
            .as_mut_slice()
    }
}

impl<T: Send + 'static> Drop for SendBuf<'_, T> {
    fn drop(&mut self) {
        // Unposted staging goes straight back to the pool.
        if let Some(b) = self.buf.take() {
            self.comm.slot.engine.lock().checkin(b);
        }
    }
}

/// Handle to an in-flight nonblocking allreduce/bcast. Must be waited; the
/// SPMD contract is broken (and a panic raised) if it is dropped unresolved.
#[must_use = "a nonblocking collective must be waited"]
pub struct Request<'c, T: Send + 'static> {
    comm: &'c Communicator,
    op_id: u64,
    len: usize,
    done: bool,
    _t: std::marker::PhantomData<T>,
}

impl<'c, T: Send + 'static> Request<'c, T> {
    fn new(comm: &'c Communicator, op_id: u64, len: usize) -> Self {
        Self {
            comm,
            op_id,
            len,
            done: false,
            _t: std::marker::PhantomData,
        }
    }

    /// Block until the collective completes and copy the result into `out`
    /// (length must match the posted buffer). Returns a typed [`CommError`]
    /// if some member never posts within the communicator's watchdog, a
    /// member is marked dead, or the engine has no record of the op — `out`
    /// is untouched in every error case.
    pub fn wait(mut self, out: &mut [T]) -> Result<(), CommError>
    where
        T: Clone,
    {
        assert_eq!(self.len, out.len(), "wait buffer length mismatch");
        // Resolved either way: a timed-out request must not panic on drop —
        // the typed error *is* the resolution.
        self.done = true;
        let key = (ScheduleStream::Nonblocking, self.op_id);
        self.comm.complete(key, true, |r: &Vec<T>, _| {
            assert_eq!(r.len(), out.len(), "posted/result length mismatch");
            out.clone_from_slice(r);
        })
    }
}

impl<T: Send + 'static> Drop for Request<'_, T> {
    fn drop(&mut self) {
        if !self.done && !std::thread::panicking() {
            panic!("nonblocking Request dropped without wait()");
        }
    }
}

/// Handle to an in-flight nonblocking allgather (result length is only
/// known once every contribution arrived).
#[must_use = "a nonblocking collective must be waited"]
pub struct GatherRequest<'c, T: Send + 'static> {
    comm: &'c Communicator,
    op_id: u64,
    done: bool,
    _t: std::marker::PhantomData<T>,
}

impl<T: Send + 'static> GatherRequest<'_, T> {
    /// Block until the gather completes and replace `out`'s contents with
    /// the member-order concatenation (capacity is reused across calls).
    /// Returns a typed [`CommError`] if some member never posts, a member
    /// is marked dead, or the engine has no record of the op; `out` is
    /// untouched in every error case.
    pub fn wait(mut self, out: &mut Vec<T>) -> Result<(), CommError>
    where
        T: Clone,
    {
        self.done = true;
        let key = (ScheduleStream::Nonblocking, self.op_id);
        self.comm.complete(key, true, |r: &Vec<T>, _| {
            out.clear();
            out.extend_from_slice(r);
        })
    }
}

impl<T: Send + 'static> Drop for GatherRequest<'_, T> {
    fn drop(&mut self) {
        if !self.done && !std::thread::panicking() {
            panic!("nonblocking GatherRequest dropped without wait()");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_spmd<R: Send + 'static>(
        n: usize,
        f: impl Fn(Communicator) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let slot = Slot::new(n);
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = Communicator::new(slot.clone(), i);
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = run_spmd(n, move |c| {
                let mut buf = vec![c.rank() as f64, 1.0];
                c.allreduce_sum(&mut buf);
                buf
            });
            let expect0: f64 = (0..n).map(|i| i as f64).sum();
            for r in out {
                assert_eq!(r, vec![expect0, n as f64]);
            }
        }
    }

    #[test]
    fn allreduce_complex() {
        use num_complex::Complex;
        let out = run_spmd(4, |c| {
            let mut buf = vec![Complex::new(1.0f64, c.rank() as f64)];
            c.allreduce_sum(&mut buf);
            buf[0]
        });
        for z in out {
            assert_eq!(z, num_complex::Complex::new(4.0, 6.0));
        }
    }

    #[test]
    fn bcast_delivers_root_buffer() {
        let out = run_spmd(4, |c| {
            let mut buf = if c.rank() == 2 {
                vec![7.0f64, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            c.bcast(&mut buf, 2);
            buf
        });
        for r in out {
            assert_eq!(r, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn allgather_concatenates_in_rank_order() {
        let out = run_spmd(3, |c| {
            let mine = vec![c.rank() as u64; c.rank() + 1];
            c.allgather(&mine)
        });
        for r in out {
            assert_eq!(r, vec![0, 1, 1, 2, 2, 2]);
        }
    }

    #[test]
    fn repeated_collectives_stay_ordered() {
        // 100 back-to-back collectives: the op keys must never mix rounds
        // even when threads race.
        let out = run_spmd(4, |c| {
            let mut acc = 0.0f64;
            for round in 0..100 {
                let mut v = [c.rank() as f64 + round as f64];
                c.allreduce_sum(&mut v);
                acc += v[0];
            }
            acc
        });
        let per_round_base: f64 = (0..4).map(|i| i as f64).sum();
        let expect: f64 = (0..100).map(|r| per_round_base + 4.0 * r as f64).sum();
        for r in out {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn barrier_and_scalar() {
        let out = run_spmd(5, |c| {
            c.barrier();
            c.allreduce_scalar(c.rank() as u64)
        });
        for r in out {
            assert_eq!(r, 10);
        }
    }

    #[test]
    fn mixed_collective_sequence() {
        // A bcast followed by an allgather followed by an allreduce, to make
        // sure heterogeneous payload types reuse the slot safely.
        let out = run_spmd(3, |c| {
            let mut b = vec![if c.rank() == 0 { 42u64 } else { 0 }];
            c.bcast(&mut b, 0);
            let g = c.allgather(&[b[0] + c.rank() as u64]);
            let mut s = vec![g.iter().sum::<u64>()];
            c.allreduce_sum(&mut s);
            s[0]
        });
        // g = [42,43,44] on everyone, sum = 129, allreduce over 3 = 387
        for r in out {
            assert_eq!(r, 387);
        }
    }

    #[test]
    fn default_labels_are_identity() {
        let c = Communicator::solo();
        assert_eq!(c.labels(), &[0]);
        let slot = Slot::new(3);
        let c = Communicator::with_labels(slot, 1, Arc::new(vec![4, 9, 14]));
        assert_eq!(c.label_of(1), 9);
        assert_eq!(c.labels(), &[4, 9, 14]);
    }

    #[test]
    fn iallreduce_matches_blocking_bitwise() {
        let out = run_spmd(4, |c| {
            let data: Vec<f64> = (0..17)
                .map(|i| ((c.rank() * 31 + i) as f64).sin())
                .collect();
            let mut blocking = data.clone();
            c.allreduce_sum(&mut blocking);
            let req = c.iallreduce_sum(&data);
            let mut nb = vec![0.0f64; data.len()];
            req.wait(&mut nb).unwrap();
            (blocking, nb)
        });
        for (b, n) in out {
            assert_eq!(b, n, "nonblocking must fold in the same member order");
        }
    }

    #[test]
    fn two_requests_in_flight_do_not_block_posts() {
        // The double-buffered pipeline posts op k+1 before waiting op k;
        // with an epoch-sequenced rendezvous this would deadlock.
        let out = run_spmd(3, |c| {
            let a = vec![c.rank() as f64; 4];
            let b = vec![(c.rank() * 10) as f64; 2];
            let ra = c.iallreduce_sum(&a);
            let rb = c.iallreduce_sum(&b);
            let mut oa = vec![0.0; 4];
            let mut ob = vec![0.0; 2];
            // Wait out of post order, too.
            rb.wait(&mut ob).unwrap();
            ra.wait(&mut oa).unwrap();
            (oa, ob)
        });
        for (oa, ob) in out {
            assert_eq!(oa, vec![3.0; 4]);
            assert_eq!(ob, vec![30.0; 2]);
        }
    }

    #[test]
    fn ibcast_and_iallgather() {
        let out = run_spmd(3, |c| {
            let mine = if c.rank() == 1 {
                vec![5u64, 6]
            } else {
                vec![0, 0]
            };
            let rb = c.ibcast(&mine, 1);
            let rg = c.iallgather(&vec![c.rank() as u64; c.rank() + 1]);
            let mut got = vec![0u64; 2];
            rb.wait(&mut got).unwrap();
            let mut gathered = Vec::new();
            rg.wait(&mut gathered).unwrap();
            (got, gathered)
        });
        for (got, gathered) in out {
            assert_eq!(got, vec![5, 6]);
            assert_eq!(gathered, vec![0, 1, 1, 2, 2, 2]);
        }
    }

    #[test]
    fn nonblocking_interleaves_with_blocking_on_same_communicator() {
        // Stress: a nonblocking op stays in flight across blocking
        // collectives on the same communicator. Blocking and nonblocking
        // ops are keyed on separate streams, so nothing may deadlock or
        // cross-talk.
        let out = run_spmd(4, |c| {
            let mut acc = 0.0f64;
            for round in 0..50u64 {
                let posted = vec![c.rank() as f64 + round as f64; 3];
                let req = c.iallreduce_sum(&posted);
                // Blocking traffic while the request is in flight.
                let mut v = [1.0f64];
                c.allreduce_sum(&mut v);
                let mut b = [if c.rank() == 3 { round } else { 0 }];
                c.bcast(&mut b, 3);
                c.barrier();
                assert_eq!(b[0], round);
                let mut summed = vec![0.0f64; 3];
                req.wait(&mut summed).unwrap();
                assert_eq!(v[0], 4.0);
                acc += summed[0];
            }
            acc
        });
        let expect: f64 = (0..50).map(|r| 6.0 + 4.0 * r as f64).sum();
        for r in out {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn steady_state_collectives_do_not_allocate() {
        let out = run_spmd(2, |c| {
            let data = vec![1.0f64; 64];
            let mut out_buf = vec![0.0f64; 64];
            // Warm-up: populate the pool.
            for _ in 0..3 {
                let r = c.iallreduce_sum(&data);
                r.wait(&mut out_buf).unwrap();
            }
            c.barrier();
            let warm = c.nb_pool_stats().fresh_allocs;
            for _ in 0..100 {
                let r = c.iallreduce_sum(&data);
                r.wait(&mut out_buf).unwrap();
            }
            c.barrier();
            let after = c.nb_pool_stats();
            (warm, after)
        });
        for (warm, after) in out {
            assert_eq!(
                after.fresh_allocs, warm,
                "steady-state nonblocking collectives must not allocate"
            );
            assert!(after.pool_hits >= 200, "pool must serve steady state");
            assert_eq!(after.in_flight, 0);
        }
    }

    #[test]
    fn solo_nonblocking_completes_at_post() {
        let c = Communicator::solo();
        let r = c.iallreduce_sum(&[2.5f64, 1.5]);
        let mut out = [0.0; 2];
        r.wait(&mut out).unwrap();
        assert_eq!(out, [2.5, 1.5]);
        let g = c.iallgather(&[7u64]);
        let mut v = Vec::new();
        g.wait(&mut v).unwrap();
        assert_eq!(v, vec![7]);
        let b = c.ibcast(&[9u64], 0);
        let mut bb = [0u64];
        b.wait(&mut bb).unwrap();
        assert_eq!(bb, [9]);
    }

    /// Hook dropping one specific nonblocking op on every rank.
    struct DropOp(u64);
    impl CommFaultHook for DropOp {
        fn on_post(&self, _op: &'static str, seq: u64) -> PostAction {
            if seq == self.0 {
                PostAction::Drop
            } else {
                PostAction::Deliver
            }
        }
    }

    /// Hook delaying every post by a fixed number of milliseconds.
    struct DelayAll(u64);
    impl CommFaultHook for DelayAll {
        fn on_post(&self, _op: &'static str, _seq: u64) -> PostAction {
            PostAction::Delay { ms: self.0 }
        }
    }

    #[test]
    fn dropped_post_times_out_instead_of_hanging() {
        let out = run_spmd(3, |c| {
            c.set_wait_timeout_ms(50);
            c.set_fault_hook(Some(Arc::new(DropOp(0))));
            let req = c.iallreduce_sum(&[c.rank() as f64]);
            let mut buf = [0.0f64];
            let err = req.wait(&mut buf).unwrap_err();
            // The op after the stalled one must still work once the hook
            // stops dropping.
            c.set_fault_hook(None);
            let req = c.iallreduce_sum(&[1.0f64]);
            let mut ok = [0.0f64];
            req.wait(&mut ok).unwrap();
            (err, buf[0], ok[0])
        });
        for (err, untouched, ok) in out {
            assert_eq!(
                err,
                CommError::Timeout(WaitTimeout {
                    op_id: 0,
                    timeout_ms: 50
                })
            );
            assert_eq!(untouched, 0.0, "timeout must leave the out buffer alone");
            assert_eq!(ok, 3.0);
        }
    }

    #[test]
    fn dropped_gather_times_out() {
        let out = run_spmd(2, |c| {
            c.set_wait_timeout_ms(40);
            c.set_fault_hook(Some(Arc::new(DropOp(0))));
            let req = c.iallgather(&[c.rank() as u64]);
            let mut v = vec![99u64];
            let err = req.wait(&mut v).unwrap_err();
            let CommError::Timeout(t) = err else {
                panic!("expected a timeout, got {err}");
            };
            (t.timeout_ms, v)
        });
        for (ms, v) in out {
            assert_eq!(ms, 40);
            assert_eq!(v, vec![99], "timeout must leave the out buffer alone");
        }
    }

    #[test]
    fn delayed_post_still_delivers() {
        let out = run_spmd(2, |c| {
            if c.rank() == 1 {
                c.set_fault_hook(Some(Arc::new(DelayAll(10))));
            }
            let req = c.iallreduce_sum(&[c.rank() as f64 + 1.0]);
            let mut buf = [0.0f64];
            req.wait(&mut buf).unwrap();
            buf[0]
        });
        for v in out {
            assert_eq!(v, 3.0);
        }
    }

    #[test]
    fn dropped_ibcast_times_out() {
        let out = run_spmd(2, |c| {
            c.set_wait_timeout_ms(40);
            c.set_fault_hook(Some(Arc::new(DropOp(0))));
            let req = c.ibcast(&[c.rank() as u64], 0);
            let mut v = [7u64];
            match req.wait(&mut v).unwrap_err() {
                CommError::Timeout(t) => t.op_id,
                other => panic!("expected a timeout, got {other}"),
            }
        });
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn dead_rank_aborts_nonblocking_wait_typed() {
        // Rank 1 "crashes" (marks itself dead) instead of posting; the
        // survivor's wait must surface RankDead, not a generic timeout.
        let slot = Slot::new(2);
        let board = Arc::new(DeadBoard::new());
        let mk = |i: usize| {
            Communicator::with_labels_board(slot.clone(), i, Arc::new(vec![0, 1]), board.clone())
        };
        let (c0, c1) = (mk(0), mk(1));
        let h = DeathHandle::new(board.clone(), 1, vec![slot.clone()]);
        let t1 = thread::spawn(move || {
            // Dying rank: never posts, announces its death.
            drop(c1);
            h.mark_dead();
        });
        c0.set_wait_timeout_ms(5_000);
        let req = c0.iallreduce_sum(&[1.0f64]);
        let mut out = [0.0f64];
        let err = req.wait(&mut out).unwrap_err();
        assert_eq!(
            err,
            CommError::RankDead {
                op_id: 0,
                dead: vec![1]
            }
        );
        t1.join().unwrap();
    }

    #[test]
    fn dead_rank_aborts_blocking_collective_via_panic() {
        // A blocking allreduce wedged on a dead member must unwind with the
        // typed RankDeadPanic payload instead of hanging forever.
        let slot = Slot::new(2);
        let board = Arc::new(DeadBoard::new());
        let b0 = board.clone();
        let s0 = slot.clone();
        let t0 = thread::spawn(move || {
            let c = Communicator::with_labels_board(s0, 0, Arc::new(vec![0, 1]), b0);
            let mut v = [1.0f64];
            c.allreduce_sum(&mut v);
        });
        DeathHandle::new(board, 1, vec![slot]).mark_dead();
        let payload = t0.join().unwrap_err();
        let p = payload
            .downcast_ref::<RankDeadPanic>()
            .expect("typed RankDeadPanic payload");
        assert_eq!(p.dead, vec![1]);
    }

    #[test]
    fn blocking_collective_has_no_watchdog() {
        // A member arriving after several multiples of the wait timeout must
        // still complete the blocking allreduce: the watchdog guards
        // nonblocking waits only, never a blocking call.
        let out = run_spmd(3, |c| {
            c.set_wait_timeout_ms(20);
            if c.rank() == 2 {
                thread::sleep(Duration::from_millis(150));
            }
            let mut v = [c.rank() as f64 + 1.0];
            c.allreduce_sum(&mut v);
            c.barrier();
            v[0]
        });
        assert_eq!(out, vec![6.0; 3]);
    }

    #[test]
    fn allgather_counts_reports_ragged_lengths() {
        let out = run_spmd(3, |c| {
            c.allgather_counts(&vec![c.rank() as u64; 2 * c.rank()])
        });
        for (all, counts) in out {
            assert_eq!(all, vec![1, 1, 2, 2, 2, 2]);
            assert_eq!(counts, vec![0, 2, 4]);
        }
    }

    #[test]
    fn agree_dead_converges_on_the_union() {
        // Three survivors of a 4-rank world, each suspecting a (possibly
        // empty) subset; every one must return the same agreed set.
        let slot = Slot::new(4);
        let board = Arc::new(DeadBoard::new());
        board.mark(2);
        let handles: Vec<_> = [0usize, 1, 3]
            .into_iter()
            .map(|i| {
                let slot = slot.clone();
                let board = board.clone();
                thread::spawn(move || {
                    let c =
                        Communicator::with_labels_board(slot, i, Arc::new(vec![0, 1, 2, 3]), board);
                    let suspected = if i == 0 { vec![2] } else { vec![] };
                    c.agree_dead(&suspected).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2]);
        }
    }

    /// Policy forcing reversed member order on every op.
    struct Reversed;
    impl SchedulePolicy for Reversed {
        fn arrival_order(&self, p: &SchedulePoint) -> Option<Vec<usize>> {
            Some((0..p.members).rev().collect())
        }
    }

    /// Policy forcing plain member order (identity permutation) — gates
    /// active, schedule equal to the fold order.
    struct Identity;
    impl SchedulePolicy for Identity {
        fn arrival_order(&self, p: &SchedulePoint) -> Option<Vec<usize>> {
            Some((0..p.members).collect())
        }
    }

    #[test]
    fn gated_schedules_leave_results_bitwise_identical() {
        // The determinism invariant under test everywhere else, asserted at
        // the engine level: forcing any deposit order must not change a
        // single bit of any collective's result.
        let free = run_spmd(3, |c| {
            let mut b = vec![(c.rank() as f64 + 1.0) * 0.1; 2];
            c.allreduce_sum(&mut b);
            let req = c.iallreduce_sum(&[(c.rank() as f64 + 1.0) * 0.3]);
            let mut nb = [0.0f64];
            req.wait(&mut nb).unwrap();
            let g = c.allgather(&[c.rank() as u64]);
            (b, nb[0], g)
        });
        for policy in [
            Arc::new(Identity) as Arc<dyn SchedulePolicy>,
            Arc::new(Reversed) as Arc<dyn SchedulePolicy>,
        ] {
            let gated = run_spmd(3, move |c| {
                c.set_schedule_policy(Some(policy.clone()), CommScope::World);
                let mut b = vec![(c.rank() as f64 + 1.0) * 0.1; 2];
                c.allreduce_sum(&mut b);
                let req = c.iallreduce_sum(&[(c.rank() as f64 + 1.0) * 0.3]);
                let mut nb = [0.0f64];
                req.wait(&mut nb).unwrap();
                let g = c.allgather(&[c.rank() as u64]);
                (b, nb[0], g)
            });
            assert_eq!(free, gated, "a forced schedule changed the bits");
        }
    }

    #[test]
    fn canary_fold_is_schedule_sensitive() {
        // (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last ulp:
        // with the order-sensitive-fold canary armed, reversing the forced
        // arrival order must change the result — that observable difference
        // is exactly what chase-check's invariant checkers look for.
        let solve = |policy: Arc<dyn SchedulePolicy>, canary: bool| {
            run_spmd(3, move |c| {
                c.set_schedule_policy(Some(policy.clone()), CommScope::World);
                c.set_order_sensitive_fold(canary);
                let mut blocking = [(c.rank() as f64 + 1.0) * 0.1];
                c.allreduce_sum(&mut blocking);
                let req = c.iallreduce_sum(&[(c.rank() as f64 + 1.0) * 0.1]);
                let mut nb = [0.0f64];
                req.wait(&mut nb).unwrap();
                (blocking[0], nb[0])
            })
        };
        // Correct fold: schedule-independent.
        let id = solve(Arc::new(Identity), false);
        let rev = solve(Arc::new(Reversed), false);
        assert_eq!(id, rev, "member-order fold must ignore the schedule");
        // Canary fold: the reversed schedule flips the fold grouping.
        let id = solve(Arc::new(Identity), true);
        let rev = solve(Arc::new(Reversed), true);
        assert_ne!(
            id[0], rev[0],
            "canary fold must expose the schedule in the bits"
        );
        // Identity-gated canary equals the correct fold (arrival == member
        // order), so the canary is invisible until a schedule perturbs it.
        let clean = solve(Arc::new(Identity), false);
        assert_eq!(id, clean);
    }

    #[test]
    fn gate_deadlock_panics_instead_of_hanging() {
        // Rank 1 never posts (fault hook drops it); rank 0 is gated behind
        // it. The watchdog must turn that into a panic with a diagnostic,
        // not a hung test run.
        let slot = Slot::new(2);
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let c = Communicator::new(slot.clone(), i);
                std::thread::spawn(move || {
                    c.set_wait_timeout_ms(50);
                    c.set_schedule_policy(Some(Arc::new(Reversed)), CommScope::World);
                    if i == 1 {
                        // Member 1 holds slot 0 but never deposits.
                        c.set_fault_hook(Some(Arc::new(DropOp(0))));
                    }
                    let req = c.iallreduce_sum(&[1.0f64]);
                    let mut out = [0.0f64];
                    let _ = req.wait(&mut out);
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        assert!(
            outcomes[0].is_err(),
            "gated rank must panic via the watchdog"
        );
        assert!(outcomes[1].is_ok(), "unblocked rank times out cleanly");
    }

    #[test]
    fn solo_communicator_is_noop() {
        let c = Communicator::solo();
        let mut v = vec![3.0f64];
        c.allreduce_sum(&mut v);
        c.bcast(&mut v, 0);
        c.barrier();
        assert_eq!(c.allgather(&v), vec![3.0]);
        assert_eq!(v, vec![3.0]);
    }
}
