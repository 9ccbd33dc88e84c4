//! Wall-clock profiling: the timed projection of the event ring.
//!
//! The flight recorder ([`crate::flight`]) answers *what the search
//! did* — a deterministic, bit-identical event stream that parallel
//! merges must reproduce exactly. This module answers *where the wall
//! time went*. Both read the same per-thread ring: while the profile
//! channel is on, unit claims carry a timing (monotonic time,
//! profiling scope, worker) and a few time-only events join them.
//! The flight recording drops every time field and time-only event, so
//! timestamps can never break its contract.
//!
//! Timed records:
//!
//! * **worker alive** — one per spawned worker, so workers that never
//!   win a unit claim still appear (an idle track is a finding);
//! * **unit claim / end** per worker — who ran which search unit, when,
//!   for how long, ticking how many steps;
//! * **phase open / close** — coarse solve phases (`compile`,
//!   `enumerate`, `sketch`, `refine`, `verify`) bracketed by RAII
//!   [`phase`] guards.
//!
//! Profiling is **off by default** and costs one thread-local load per
//! probe while off. Turn it on for the calling thread with [`scoped`],
//! or as every thread's default with the `PKGREC_PROFILE` environment
//! variable.
//!
//! Timed records are tagged with a **scope** id so a solve can be
//! drained on its own: the coordinator calls [`begin_scope`], parallel
//! workers inherit the scope with the rest of the thread's
//! [`Telemetry`] and hand their records back through the ring's
//! drain/replay path, and the owner drains them with [`take_scope`].
//! The drained [`Timeline`] exports to Chrome Trace Event Format JSON
//! ([`Timeline::to_chrome_json`], viewable in Perfetto or
//! `chrome://tracing`) and aggregates into a [`TimelineSummary`] with a
//! human attribution report.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::flight::{self, FlightEvent};
use crate::{json, telemetry, Telemetry, TelemetryGuard};

/// Monotonically increasing scope ids; 0 means "no scope".
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

/// Whether profiling is on for the calling thread. The only cost a
/// probe pays while it is off.
#[inline]
pub fn is_enabled() -> bool {
    telemetry().profile
}

/// Turn profiling on for the calling thread until the guard drops.
#[must_use = "profiling is switched off again when the guard drops"]
pub fn scoped() -> TelemetryGuard {
    Telemetry {
        profile: true,
        ..telemetry()
    }
    .enter()
}

/// The shared time origin. All stamps are nanoseconds since the first
/// probe of the process, so tracks from different threads line up.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process profiling epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Discard the calling thread's timed records and eviction counts
/// (every scope). Flight records stay.
pub fn reset() {
    let _ = flight::take_timed(None);
}

/// RAII guard from [`begin_scope`]: restores the thread's previous
/// scope when dropped.
#[derive(Debug)]
pub struct ScopeGuard {
    id: u64,
    _scope: Option<TelemetryGuard>,
}

impl ScopeGuard {
    /// The scope id, for [`take_scope`]. Zero when profiling was off at
    /// creation.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a fresh profiling scope on this thread. Subsequent timed
/// records from this thread — and from workers it spawns — are drained
/// together by [`take_scope`]. A no-op returning scope 0 while
/// profiling is off.
pub fn begin_scope() -> ScopeGuard {
    let t = telemetry();
    if !t.profile {
        return ScopeGuard {
            id: 0,
            _scope: None,
        };
    }
    let id = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    ScopeGuard {
        id,
        _scope: Some(Telemetry { scope: id, ..t }.enter()),
    }
}

/// Stamp: this thread's worker started in its scope. Call once per
/// spawned worker so even workers that claim no units get a track.
#[inline]
pub fn worker_alive() {
    flight::stamp(FlightEvent::WorkerAlive);
}

/// RAII guard for an open phase; dropping it stamps the close.
#[must_use = "a phase brackets the region until the guard drops"]
#[derive(Debug)]
pub struct PhaseGuard {
    name: Option<&'static str>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            flight::stamp(FlightEvent::PhaseClose { name });
        }
    }
}

/// Open a named solve phase (e.g. `"enumerate"`). A no-op guard while
/// profiling is off.
#[inline]
pub fn phase(name: &'static str) -> PhaseGuard {
    if !is_enabled() {
        return PhaseGuard { name: None };
    }
    flight::stamp(FlightEvent::PhaseOpen { name });
    PhaseGuard { name: Some(name) }
}

/// One timed record: an event tagged with wall time, worker and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Nanoseconds since the process profiling epoch.
    pub t_ns: u64,
    /// The worker index on the stamping thread (coordinator = 0).
    pub worker: u32,
    /// The search unit the event belongs to (claims and unit ends).
    pub unit: u64,
    /// What happened: [`FlightEvent::UnitClaimed`] or one of the
    /// time-only events.
    pub event: FlightEvent,
}

/// The timed records of one scope, time-ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// The scope's stamps, in time order.
    pub stamps: Vec<Stamp>,
    /// The scope's timed records the ring evicted (nonzero means this
    /// timeline lost its oldest stamps).
    pub dropped: u64,
}

/// Drain the calling thread's timed records tagged with `scope`,
/// leaving other scopes' records in place.
pub fn take_scope(scope: u64) -> Timeline {
    let (records, dropped) = flight::take_timed(Some(scope));
    let mut stamps: Vec<Stamp> = records
        .into_iter()
        .filter_map(|rec| {
            let t = rec.timing?;
            Some(Stamp {
                t_ns: t.t_ns,
                worker: t.worker,
                unit: rec.unit,
                event: rec.event,
            })
        })
        .collect();
    // Workers' records arrive in unit order at the merge; put them
    // back in time order.
    stamps.sort_by_key(|s| s.t_ns);
    Timeline { stamps, dropped }
}

/// Stable track index for a phase name in Chrome export and summaries:
/// the canonical solve phases come first in pipeline order, anything
/// else after them in first-appearance order.
const PHASE_ORDER: &[&str] = &["compile", "enumerate", "sketch", "refine", "verify"];

fn phase_tid(name: &str, extras: &mut Vec<String>) -> usize {
    if let Some(i) = PHASE_ORDER.iter().position(|&p| p == name) {
        return i;
    }
    if let Some(i) = extras.iter().position(|p| p == name) {
        return PHASE_ORDER.len() + i;
    }
    extras.push(name.to_string());
    PHASE_ORDER.len() + extras.len() - 1
}

/// Process ids in the Chrome export: worker tracks vs phase tracks.
const PID_WORKERS: u32 = 1;
const PID_PHASES: u32 = 2;

/// What a [`Region`] spans.
#[derive(Clone, Copy, PartialEq)]
enum Spanned {
    Unit(u64),
    Phase(&'static str),
}

/// A claim paired with its unit end, or a phase open with its close.
struct Region {
    what: Spanned,
    worker: u32,
    start: u64,
    end: u64,
    /// The unit's steps; `None` for phases and unfinished units.
    steps: Option<u64>,
    /// Still open at the last stamp (an interrupted solve).
    open: bool,
}

/// Chrome trace events appended to one `traceEvents` array.
struct Events<'a> {
    out: &'a mut String,
    first: bool,
    t0: u64,
}

impl Events<'_> {
    /// One event on track `(pid, tid)`, at `ts` (ns since epoch) for
    /// `dur` ns when given.
    fn push(
        &mut self,
        name: &str,
        ph: &str,
        track: (u32, usize),
        ts: Option<u64>,
        dur: Option<u64>,
        args: &[(&str, String)],
    ) {
        let out = &mut *self.out;
        if !std::mem::take(&mut self.first) {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_string(out, name);
        let _ = write!(
            out,
            ",\"ph\":\"{ph}\",\"pid\":{},\"tid\":{}",
            track.0, track.1
        );
        if let Some(ts) = ts {
            let _ = write!(out, ",\"ts\":{:.3}", (ts - self.t0) as f64 / 1000.0);
        }
        if let Some(dur) = dur {
            let _ = write!(out, ",\"dur\":{:.3}", dur as f64 / 1000.0);
        }
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(out, k);
                out.push(':');
                out.push_str(v);
            }
            out.push('}');
        }
        out.push('}');
    }

    /// Name a process or thread track (`M` metadata).
    fn name_track(&mut self, kind: &str, track: (u32, usize), label: &str) {
        let mut quoted = String::new();
        json::write_string(&mut quoted, label);
        self.push(kind, "M", track, None, None, &[("name", quoted)]);
    }
}

impl Timeline {
    /// Whether no stamps were drained.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// First stamp time (ns since epoch), 0 when empty.
    fn t0(&self) -> u64 {
        self.stamps.iter().map(|s| s.t_ns).min().unwrap_or(0)
    }

    /// Last stamp time (ns since epoch), 0 when empty.
    fn t1(&self) -> u64 {
        self.stamps.iter().map(|s| s.t_ns).max().unwrap_or(0)
    }

    /// Pair each claim with its unit end and each phase open with its
    /// close, per worker, innermost first. Regions still open at the
    /// last stamp extend to it; an end whose start was evicted is a
    /// zero-length region.
    fn regions(&self) -> Vec<Region> {
        let t1 = self.t1();
        let (mut open, mut done): (Vec<Region>, Vec<Region>) = (Vec::new(), Vec::new());
        for s in &self.stamps {
            let (what, steps) = match s.event {
                FlightEvent::UnitClaimed => (Spanned::Unit(s.unit), None),
                FlightEvent::UnitEnd { steps } => (Spanned::Unit(s.unit), Some(steps)),
                FlightEvent::PhaseOpen { name } | FlightEvent::PhaseClose { name } => {
                    (Spanned::Phase(name), None)
                }
                _ => continue,
            };
            let (worker, t) = (s.worker, s.t_ns);
            if matches!(
                s.event,
                FlightEvent::UnitClaimed | FlightEvent::PhaseOpen { .. }
            ) {
                open.push(Region {
                    what,
                    worker,
                    start: t,
                    end: t1,
                    steps,
                    open: true,
                });
                continue;
            }
            let start = open
                .iter()
                .rposition(|r| r.worker == worker && r.what == what)
                .map_or(t, |i| open.remove(i).start);
            done.push(Region {
                what,
                worker,
                start,
                end: t,
                steps,
                open: false,
            });
        }
        done.extend(open);
        done
    }

    /// Serialize as Chrome Trace Event Format JSON (the
    /// `{"traceEvents":[...]}` object form), viewable in Perfetto or
    /// `chrome://tracing`:
    ///
    /// * pid 1 — one thread track per worker, with an `X` (complete)
    ///   slice per claimed unit carrying its step count;
    /// * pid 2 — one thread track per phase name, with an `X` slice
    ///   per phase open/close pair.
    ///
    /// Unfinished units and phases extend to the last stamp, tagged
    /// `"open"`. Timestamps are microseconds relative to the first
    /// stamp.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.stamps.len() * 96);
        self.write_chrome(&mut out);
        out
    }

    /// Append the Chrome trace JSON to `out`, without the trailing
    /// newline. Extra top-level keys record the drop count.
    pub fn write_chrome(&self, out: &mut String) {
        out.push_str("{\"traceEvents\":[");
        let mut ev = Events {
            out,
            first: true,
            t0: self.t0(),
        };
        ev.name_track("process_name", (PID_WORKERS, 0), "workers");
        ev.name_track("process_name", (PID_PHASES, 0), "phases");
        let mut workers: Vec<u32> = self.stamps.iter().map(|s| s.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        for w in workers {
            ev.name_track(
                "thread_name",
                (PID_WORKERS, w as usize),
                &format!("worker {w}"),
            );
        }
        let mut extras = Vec::new();
        let mut named_phases: Vec<&'static str> = Vec::new();
        for stamp in &self.stamps {
            match stamp.event {
                FlightEvent::PhaseOpen { name } if !named_phases.contains(&name) => {
                    named_phases.push(name);
                    ev.name_track(
                        "thread_name",
                        (PID_PHASES, phase_tid(name, &mut extras)),
                        name,
                    );
                }
                // An instant, so the worker's track exists (and shows
                // its start) even if it never claims a unit.
                FlightEvent::WorkerAlive => {
                    ev.push(
                        "alive",
                        "i",
                        (PID_WORKERS, stamp.worker as usize),
                        Some(stamp.t_ns),
                        None,
                        &[],
                    );
                }
                _ => {}
            }
        }
        for r in self.regions() {
            let (name, track, mut args) = match r.what {
                Spanned::Unit(unit) => {
                    let mut args = vec![("unit", unit.to_string())];
                    args.extend(r.steps.map(|steps| ("steps", steps.to_string())));
                    (
                        format!("unit {unit}"),
                        (PID_WORKERS, r.worker as usize),
                        args,
                    )
                }
                Spanned::Phase(name) => {
                    let track = (PID_PHASES, phase_tid(name, &mut extras));
                    (
                        name.to_string(),
                        track,
                        vec![("worker", r.worker.to_string())],
                    )
                }
            };
            if r.open {
                args.push(("open", "true".to_string()));
            }
            ev.push(
                &name,
                "X",
                track,
                Some(r.start),
                Some(r.end - r.start),
                &args,
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ms\",\"stampCount\":{},\"droppedStamps\":{}}}",
            self.stamps.len(),
            self.dropped
        );
    }

    /// Aggregate the stamps into per-phase and per-worker totals.
    pub fn summarize(&self) -> TimelineSummary {
        let mut phases: Vec<PhaseTotal> = Vec::new();
        let mut workers: Vec<WorkerLoad> = Vec::new();
        fn worker_slot(workers: &mut Vec<WorkerLoad>, worker: u32) -> &mut WorkerLoad {
            let idx = workers
                .iter()
                .position(|w| w.worker == worker)
                .unwrap_or_else(|| {
                    workers.push(WorkerLoad {
                        worker,
                        busy_ns: 0,
                        units: 0,
                        steps: 0,
                    });
                    workers.len() - 1
                });
            &mut workers[idx]
        }
        // Materialize every worker's row, so idle workers show up with
        // zero busy time instead of vanishing.
        for stamp in &self.stamps {
            if stamp.event == FlightEvent::WorkerAlive {
                worker_slot(&mut workers, stamp.worker);
            }
        }
        for r in self.regions() {
            let wall = r.end - r.start;
            match r.what {
                Spanned::Unit(_) => {
                    let slot = worker_slot(&mut workers, r.worker);
                    slot.busy_ns += wall;
                    slot.units += 1;
                    slot.steps += r.steps.unwrap_or(0);
                }
                Spanned::Phase(name) => match phases.iter_mut().find(|p| p.name == name) {
                    Some(p) => {
                        p.total_ns += wall;
                        p.count += 1;
                    }
                    None => phases.push(PhaseTotal {
                        name: name.to_string(),
                        total_ns: wall,
                        count: 1,
                    }),
                },
            }
        }
        workers.sort_by_key(|w| w.worker);
        let mut extras = Vec::new();
        phases.sort_by_key(|p| phase_tid(&p.name, &mut extras));
        TimelineSummary {
            wall_ns: self.t1().saturating_sub(self.t0()),
            stamps: self.stamps.len() as u64,
            dropped: self.dropped,
            phases,
            workers,
        }
    }
}

/// Total wall time attributed to one phase name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// The phase name (e.g. `enumerate`).
    pub name: String,
    /// Summed open→close wall time across occurrences, nanoseconds.
    pub total_ns: u64,
    /// Number of occurrences.
    pub count: u64,
}

/// What one worker did over the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLoad {
    /// The worker index (0 = the coordinator's thread, search worker 0).
    pub worker: u32,
    /// Summed claim→end wall time, nanoseconds.
    pub busy_ns: u64,
    /// Units claimed.
    pub units: u64,
    /// Search steps ticked across those units.
    pub steps: u64,
}

/// Aggregated view of one scope's timeline: phase totals and worker
/// utilization, with JSON and human renderings shared by `pkgrec
/// profile` and serve's `/debug/slow`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimelineSummary {
    /// First-to-last stamp wall time, nanoseconds.
    pub wall_ns: u64,
    /// Stamps aggregated.
    pub stamps: u64,
    /// The scope's stamps the ring evicted.
    pub dropped: u64,
    /// Per-phase totals, in pipeline order.
    pub phases: Vec<PhaseTotal>,
    /// Per-worker attribution, by worker index.
    pub workers: Vec<WorkerLoad>,
}

impl TimelineSummary {
    /// Serialize as one JSON object (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    /// Append the JSON object form to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"wall_ns\":{},\"stamps\":{},\"dropped\":{},\"phases\":[",
            self.wall_ns, self.stamps, self.dropped
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(out, &p.name);
            let _ = write!(out, ",\"total_ns\":{},\"count\":{}}}", p.total_ns, p.count);
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"worker\":{},\"busy_ns\":{},\"units\":{},\"steps\":{}}}",
                w.worker, w.busy_ns, w.units, w.steps
            );
        }
        out.push_str("]}");
    }

    /// Multi-line human rendering: phase attribution then the
    /// per-worker utilization table.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if self.stamps == 0 {
            out.push_str("timeline: nothing recorded\n");
            return out;
        }
        let _ = writeln!(
            out,
            "timeline: wall {}, {} stamps, {} dropped",
            super::format_ns(self.wall_ns),
            self.stamps,
            self.dropped
        );
        if !self.phases.is_empty() {
            out.push_str("phases (name, total wall time, % of wall, calls):\n");
            let width = self.phases.iter().map(|p| p.name.len()).max().unwrap_or(0);
            for p in &self.phases {
                let pct = if self.wall_ns > 0 {
                    p.total_ns as f64 * 100.0 / self.wall_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  {:<width$}  {:>12}  {pct:>5.1}%  ×{}",
                    p.name,
                    super::format_ns(p.total_ns),
                    p.count
                );
            }
        }
        if !self.workers.is_empty() {
            out.push_str("workers (id, busy, utilization, units, steps):\n");
            for w in &self.workers {
                let util = if self.wall_ns > 0 {
                    w.busy_ns as f64 * 100.0 / self.wall_ns as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  w{:<3}  {:>12}  {util:>5.1}%  units={} steps={}",
                    w.worker,
                    super::format_ns(w.busy_ns),
                    w.units,
                    w.steps
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests pin the channels explicitly (flight off, profile on), so
    /// they behave the same whatever PKGREC_FLIGHT / PKGREC_PROFILE say.
    fn profiling() -> TelemetryGuard {
        Telemetry {
            profile: true,
            ..Telemetry::default()
        }
        .enter()
    }

    /// Claim-then-end of one unit on the calling thread.
    fn unit(unit: u64, steps: u64) {
        flight::begin_unit(unit);
        flight::end_unit(steps, true);
    }

    fn stamp(t_ns: u64, worker: u32, unit: u64, event: FlightEvent) -> Stamp {
        Stamp {
            t_ns,
            worker,
            unit,
            event,
        }
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _off = Telemetry::default().enter();
        let scope = begin_scope();
        assert_eq!(scope.id(), 0);
        unit(1, 10);
        let _p = phase("compile");
        worker_alive();
        drop(_p);
        assert!(take_scope(0).is_empty());
    }

    #[test]
    fn scopes_isolate_and_drain_their_stamps() {
        let _on = profiling();
        let outer = begin_scope();
        unit(7, 3);
        let inner_id = {
            let inner = begin_scope();
            unit(9, 4);
            inner.id()
        };
        // Back in the outer scope after the inner guard dropped.
        assert_eq!(telemetry().scope, outer.id());
        let inner_tl = take_scope(inner_id);
        assert_eq!(inner_tl.stamps.len(), 2);
        assert_eq!(inner_tl.stamps[0].event, FlightEvent::UnitClaimed);
        assert_eq!(inner_tl.stamps[0].unit, 9);
        let outer_tl = take_scope(outer.id());
        assert_eq!(outer_tl.stamps.len(), 2);
        assert_eq!(outer_tl.stamps[1].event, FlightEvent::UnitEnd { steps: 3 });
        assert_eq!(outer_tl.stamps[1].unit, 7);
    }

    #[test]
    fn worker_state_tags_and_restores() {
        let _on = profiling();
        let scope = begin_scope();
        {
            let _w = Telemetry {
                worker: 3,
                ..telemetry()
            }
            .enter();
            unit(0, 1);
        }
        flight::begin_unit(1);
        let tl = take_scope(scope.id());
        assert_eq!(tl.stamps[0].worker, 3);
        assert_eq!(tl.stamps[2].worker, 0);
    }

    /// The timeline of one request never sees another's records: scopes
    /// on other threads are isolated by construction, and two scopes in
    /// a row on one thread each drain only their own.
    #[test]
    fn per_scope_drop_counts_stay_with_their_scope() {
        let _on = profiling();
        let big = begin_scope();
        for u in 0..(flight::CAPACITY as u64 / 2 + 10) {
            unit(u, 1);
        }
        let overflowed = take_scope(big.id());
        drop(big);
        assert_eq!(overflowed.dropped, 20);
        assert_eq!(overflowed.stamps.len(), flight::CAPACITY);

        let small = begin_scope();
        unit(0, 1);
        let quiet = take_scope(small.id());
        assert_eq!(quiet.dropped, 0, "another scope's overflow is not ours");
        assert_eq!(quiet.stamps.len(), 2);
        assert_eq!(quiet.summarize().dropped, 0);

        let elsewhere = std::thread::spawn(|| {
            let _on = profiling();
            let scope = begin_scope();
            unit(0, 1);
            take_scope(scope.id()).dropped
        });
        assert_eq!(elsewhere.join().unwrap(), 0);
    }

    #[test]
    fn summary_attributes_time_per_phase_and_worker() {
        let stamps = vec![
            stamp(0, 0, 0, FlightEvent::PhaseOpen { name: "compile" }),
            stamp(100, 0, 0, FlightEvent::PhaseClose { name: "compile" }),
            stamp(100, 0, 0, FlightEvent::PhaseOpen { name: "enumerate" }),
            stamp(110, 0, 0, FlightEvent::UnitClaimed),
            stamp(150, 1, 1, FlightEvent::UnitClaimed),
            stamp(200, 0, 0, FlightEvent::UnitEnd { steps: 40 }),
            stamp(260, 1, 1, FlightEvent::UnitEnd { steps: 60 }),
            stamp(300, 0, 0, FlightEvent::PhaseClose { name: "enumerate" }),
        ];
        let tl = Timeline { stamps, dropped: 0 };
        let s = tl.summarize();
        assert_eq!(s.wall_ns, 300);
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].name, "compile");
        assert_eq!(s.phases[0].total_ns, 100);
        assert_eq!(s.phases[1].name, "enumerate");
        assert_eq!(s.phases[1].total_ns, 200);
        assert_eq!(s.workers.len(), 2);
        assert_eq!(s.workers[0].busy_ns, 90);
        assert_eq!(s.workers[0].units, 1);
        assert_eq!(s.workers[0].steps, 40);
        assert_eq!(s.workers[1].busy_ns, 110);
        assert_eq!(s.workers[1].steps, 60);
        let text = s.render_human();
        assert!(text.contains("enumerate"), "{text}");
        assert!(text.contains("w0"), "{text}");
        json::validate(&s.to_json()).expect("summary json valid");
    }

    #[test]
    fn open_regions_extend_to_the_last_stamp() {
        let stamps = vec![
            stamp(0, 0, 0, FlightEvent::PhaseOpen { name: "enumerate" }),
            stamp(10, 2, 5, FlightEvent::UnitClaimed),
            stamp(50, 0, 0, FlightEvent::WorkerAlive),
        ];
        let tl = Timeline { stamps, dropped: 0 };
        let s = tl.summarize();
        assert_eq!(s.phases[0].total_ns, 50);
        assert_eq!(
            s.workers.iter().find(|w| w.worker == 2).unwrap().busy_ns,
            40
        );
        let chrome = tl.to_chrome_json();
        json::validate(&chrome).expect("chrome json valid");
        assert!(chrome.contains("\"open\""), "{chrome}");
    }

    #[test]
    fn chrome_export_validates_and_names_tracks() {
        let _on = profiling();
        let scope = begin_scope();
        {
            let _c = phase("compile");
        }
        {
            let _e = phase("enumerate");
            unit(0, 12);
            {
                let _w = Telemetry {
                    worker: 1,
                    ..telemetry()
                }
                .enter();
                unit(1, 34);
            }
        }
        let tl = take_scope(scope.id());
        let chrome = tl.to_chrome_json();
        json::validate(&chrome).expect("chrome json valid");
        for needle in [
            "\"traceEvents\":[",
            "\"worker 0\"",
            "\"worker 1\"",
            "\"compile\"",
            "\"enumerate\"",
            "\"unit 0\"",
            "\"unit 1\"",
            "\"ph\":\"X\"",
            "\"ph\":\"M\"",
        ] {
            assert!(chrome.contains(needle), "missing {needle} in {chrome}");
        }
        // Phase tracks and worker tracks are separate processes.
        assert!(chrome.contains("\"pid\":1"));
        assert!(chrome.contains("\"pid\":2"));
    }

    #[test]
    fn idle_workers_still_get_tracks_and_summary_rows() {
        let _on = profiling();
        let scope = begin_scope();
        {
            let _e = phase("enumerate");
            unit(0, 5);
            // Workers 1 and 2 spawn but never win a claim.
            for w in [1, 2] {
                let _w = Telemetry {
                    worker: w,
                    ..telemetry()
                }
                .enter();
                worker_alive();
            }
        }
        let tl = take_scope(scope.id());
        let chrome = tl.to_chrome_json();
        json::validate(&chrome).expect("chrome json valid");
        for needle in [
            "\"worker 0\"",
            "\"worker 1\"",
            "\"worker 2\"",
            "\"ph\":\"i\"",
        ] {
            assert!(chrome.contains(needle), "missing {needle} in {chrome}");
        }
        let s = tl.summarize();
        assert_eq!(s.workers.len(), 3);
        let idle = s.workers.iter().find(|w| w.worker == 2).unwrap();
        assert_eq!((idle.busy_ns, idle.units, idle.steps), (0, 0, 0));
    }

    #[test]
    fn reset_discards_timed_records_of_every_scope() {
        let _on = profiling();
        let a = begin_scope();
        unit(0, 1);
        reset();
        assert!(take_scope(a.id()).is_empty());
    }

    #[test]
    fn stamps_are_time_ordered() {
        let _on = profiling();
        let scope = begin_scope();
        for i in 0..8 {
            unit(i, 1);
        }
        let tl = take_scope(scope.id());
        for pair in tl.stamps.windows(2) {
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
    }
}
