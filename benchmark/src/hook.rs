//! The benchmark's wall-clock trace hook.
//!
//! The program's own `chase-trace` recorder is wall-clock free so its traces
//! replay byte for byte. This hook is the side channel: installed per rank
//! through `RankCtx::set_trace_hook`, it stamps wall time on every region
//! change and span boundary, keeps the spans in memory, and records the
//! collective sequence so the benchmark can replay it. It never issues a
//! collective and never touches the data, so results stay bitwise equal to
//! an untraced run.

use chase_comm::{CommScope, EventKind, Region, TraceHook};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Seconds since the first call in this process; one clock for all ranks.
pub fn now_s() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Solver regions in the order the benchmark reports them.
pub const REGIONS: [Region; 6] = [
    Region::Lanczos,
    Region::Filter,
    Region::Qr,
    Region::RayleighRitz,
    Region::Residuals,
    Region::Other,
];

pub fn region_index(r: Region) -> usize {
    REGIONS
        .iter()
        .position(|&x| x == r)
        .expect("every region is listed")
}

/// One closed span. `solve` is the id shared by all spans of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub rank: usize,
    pub solve: u64,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
}

/// One collective issue as the communicator reported it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveIssue {
    pub scope: CommScope,
    pub op: &'static str,
    pub seq: u64,
    pub bytes: u64,
    pub members: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Indices into `spans` of the open named spans, innermost last.
    open: Vec<usize>,
    /// Current region and the index of the span timing it. Region spans
    /// are leaves and stay off the `open` stack: the solver's region is a
    /// mode that persists across its named spans, so a region span is cut
    /// and continued under the new parent whenever a named span opens or
    /// closes, and the region's accumulated time carries on unbroken.
    region: Option<(Region, usize)>,
    region_s: [f64; 6],
    collectives: Vec<CollectiveIssue>,
}

/// Per-rank wall-clock hook for one solve.
pub struct WallHook {
    rank: usize,
    solve: u64,
    state: Mutex<State>,
}

/// What one rank's hook saw during one solve.
#[derive(Debug, Clone, Default)]
pub struct RankProfile {
    pub spans: Vec<Span>,
    /// Wall seconds per region, indexed like [`REGIONS`].
    pub region_s: [f64; 6],
    pub collectives: Vec<CollectiveIssue>,
}

impl WallHook {
    pub fn new(rank: usize, solve: u64) -> Self {
        Self {
            rank,
            solve,
            state: Mutex::new(State::default()),
        }
    }

    /// Close every open span and hand back what was recorded.
    pub fn finish(&self) -> RankProfile {
        let mut st = self.lock();
        let now = now_s();
        close_region(&mut st, now);
        while let Some(i) = st.open.pop() {
            st.spans[i].end_s = now;
        }
        RankProfile {
            spans: std::mem::take(&mut st.spans),
            region_s: st.region_s,
            collectives: std::mem::take(&mut st.collectives),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("trace hook state poisoned by a panicking rank")
    }

    fn push_span(&self, st: &mut State, name: String, now: f64) -> usize {
        st.spans.push(Span {
            name,
            rank: self.rank,
            solve: self.solve,
            start_s: now,
            end_s: now,
            parent: st.open.last().copied(),
        });
        st.spans.len() - 1
    }

    fn enter_region(&self, st: &mut State, region: Region, now: f64) {
        let span = self.push_span(st, format!("core.{}", region_key(region)), now);
        st.region = Some((region, span));
    }

    /// Cut the current region's span at `now` and continue it under the
    /// innermost open span.
    fn reparent_region(&self, st: &mut State, now: f64) {
        if let Some((r, _)) = st.region {
            close_region(st, now);
            self.enter_region(st, r, now);
        }
    }
}

fn close_region(st: &mut State, now: f64) {
    if let Some((r, span)) = st.region.take() {
        st.region_s[region_index(r)] += now - st.spans[span].start_s;
        st.spans[span].end_s = now;
    }
}

/// Close the innermost open span named `name` and everything opened after it.
fn close_named(st: &mut State, name: &str, now: f64) {
    if let Some(pos) = st.open.iter().rposition(|&i| st.spans[i].name == name) {
        for i in st.open.split_off(pos) {
            st.spans[i].end_s = now;
        }
    }
}

impl TraceHook for WallHook {
    fn event(&self, _region: Region, _kind: EventKind) {}

    fn region(&self, region: Region) {
        let now = now_s();
        let mut st = self.lock();
        close_region(&mut st, now);
        self.enter_region(&mut st, region, now);
    }

    fn span_begin(&self, name: &'static str, _arg: u64) {
        let now = now_s();
        let mut st = self.lock();
        if name == "solve" {
            close_region(&mut st, now);
        }
        // Re-opening a span auto-closes the previous one of that name (the
        // solver opens "iteration" once per pass without closing it).
        close_named(&mut st, name, now);
        let i = self.push_span(&mut st, name.to_owned(), now);
        st.open.push(i);
        self.reparent_region(&mut st, now);
    }

    fn span_end(&self, name: &'static str) {
        let now = now_s();
        let mut st = self.lock();
        close_named(&mut st, name, now);
        if name == "solve" {
            // Region time is solve time: the ledger's region outlives the
            // solve span but the work after it (output sorting) is not a
            // region's.
            close_region(&mut st, now);
        } else {
            self.reparent_region(&mut st, now);
        }
    }

    fn counter(&self, _name: &'static str, _delta: u64) {}

    fn collective(&self, scope: CommScope, op: &'static str, seq: u64, bytes: u64, members: u64) {
        self.lock().collectives.push(CollectiveIssue {
            scope,
            op,
            seq,
            bytes,
            members,
        });
    }
}

/// Lower-case metric key of a region (`core.<key>_s`).
pub fn region_key(r: Region) -> &'static str {
    match r {
        Region::Lanczos => "lanczos",
        Region::Filter => "filter",
        Region::Qr => "qr",
        Region::RayleighRitz => "rr",
        Region::Residuals => "resid",
        Region::Other => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_nest_under_spans_and_account_for_the_solve() {
        let h = WallHook::new(0, 7);
        h.span_begin("solve", 0);
        h.region(Region::Lanczos);
        h.span_begin("iteration", 1);
        h.region(Region::Filter);
        h.span_begin("filter_lo", 30);
        h.span_end("filter_lo");
        h.region(Region::Qr);
        // Re-opening "iteration" closes the previous one.
        h.span_begin("iteration", 2);
        h.region(Region::Residuals);
        h.span_end("solve");
        let p = h.finish();

        let solve = p.spans.iter().position(|s| s.name == "solve").unwrap();
        let iters: Vec<&Span> = p.spans.iter().filter(|s| s.name == "iteration").collect();
        assert_eq!(iters.len(), 2);
        assert!(iters.iter().all(|s| s.parent == Some(solve)));
        assert!(iters[0].end_s <= iters[1].start_s);
        let lo = p.spans.iter().find(|s| s.name == "filter_lo").unwrap();
        assert_eq!(p.spans[lo.parent.unwrap()].name, "iteration");
        assert!(p.spans.iter().all(|s| s.solve == 7 && s.end_s >= s.start_s));
        // Every region span is a leaf under a named span, and the regions
        // cover the solve span from the first region change to its end.
        let covered: f64 = p.region_s.iter().sum();
        let first_region = p
            .spans
            .iter()
            .find(|s| s.name.starts_with("core."))
            .unwrap()
            .start_s;
        let s = &p.spans[solve];
        assert!((covered - (s.end_s - first_region)).abs() < 1e-9);
        assert!(p.region_s[region_index(Region::Filter)] > 0.0);
    }
}
