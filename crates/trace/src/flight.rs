//! The event ring and its deterministic projection, the flight
//! recorder — the event-level companion to the aggregate counters in
//! the crate root.
//!
//! Aggregates answer "how much work happened"; the flight recorder
//! answers "what was the solver doing *just now*, and why did it give
//! up": every budget interruption can be dumped together with the last
//! N events that led up to it (its black box), and every prune carries
//! a typed [`PruneReason`] saying *which* rule cut the subtree.
//!
//! # One ring, two projections
//!
//! Every thread owns one bounded ring of records (at most
//! [`CAPACITY`], evicting the oldest when full). A record is a
//! [`FlightEvent`] stamped with the search *unit* it happened in, plus
//! two independent marks:
//!
//! * `flight` — the record belongs to the **deterministic projection**,
//!   the flight recording ([`take_recording`]). It never carries a time
//!   field, so an uninterrupted search records the same events bit for
//!   bit at every jobs level;
//! * `timing` — a wall-clock timing (time, profiling scope, worker),
//!   present while the profile channel is on. The **timed projection**
//!   ([`crate::timeline`]) keeps exactly these records.
//!
//! Unit claims belong to both projections; search events (branches,
//! prunes, valid packages, interruptions) only to the deterministic
//! one; worker starts, unit ends and phase brackets only to the timed
//! one. The channels are per thread ([`crate::Telemetry`]): flight
//! recording is **off by default** and costs one thread-local load per
//! probe while off. Turn it on with [`scoped`] or, as every thread's
//! default, with the `PKGREC_FLIGHT` environment variable.
//!
//! Parallel recordings merge through the ring: a worker drains its
//! records per unit ([`mark`] / [`drain_from`]) and the coordinator
//! [`replay`]s the kept units in index order. Timed records of units
//! above the merge floor survive the merge as timed-only records
//! ([`UnitEvents::into_timed`]), so the timeline still shows them.
//!
//! Serialization is JSONL via the crate's hand-rolled writer: one JSON
//! object per record, validated by the bundled `jsonl_check` tool.

use std::cell::RefCell;
use std::collections::VecDeque;

use crate::{json, telemetry, Telemetry, TelemetryGuard};

/// Why a subtree of the package-space search was skipped. Each reason
/// owns one `enumerate.pruned.*` counter (see the registry table in the
/// crate root); the sum over reasons replaces the old lump-sum
/// `enumerate.pruned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// Every superset is over the cost budget (sound via the declared
    /// monotone superset bound).
    CostBound,
    /// The compatibility constraint is violated and declared
    /// anti-monotone, so every superset violates it too.
    Compat,
    /// The resource budget ran out; the rest of the walk is abandoned.
    Budget,
    /// A parallel unit above the merge floor was discarded (its work is
    /// redone by no one — the floor unit already ended the search).
    ParallelFloor,
}

impl PruneReason {
    /// The trace counter this reason bumps.
    pub fn counter_name(self) -> &'static str {
        match self {
            PruneReason::CostBound => "enumerate.pruned.cost",
            PruneReason::Compat => "enumerate.pruned.compat",
            PruneReason::Budget => "enumerate.pruned.budget",
            PruneReason::ParallelFloor => "enumerate.pruned.floor",
        }
    }

    /// Short label used in JSONL records.
    pub fn label(self) -> &'static str {
        match self {
            PruneReason::CostBound => "cost",
            PruneReason::Compat => "compat",
            PruneReason::Budget => "budget",
            PruneReason::ParallelFloor => "floor",
        }
    }
}

/// One structured event. The last four variants are time-only: they
/// are recorded only while profiling and never reach the flight
/// recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A search started, partitioned into `units` units.
    SearchStart {
        /// Total number of units the search was split into.
        units: u64,
    },
    /// A unit was claimed by a search worker.
    UnitClaimed,
    /// A unit's partition was walked to completion.
    UnitFinished,
    /// The DFS entered a branch (enumerated one package).
    BranchEnter {
        /// Package size at this node.
        depth: u32,
    },
    /// A subtree was skipped.
    Prune {
        /// Which rule cut it.
        reason: PruneReason,
        /// Package size at the pruned node.
        depth: u32,
    },
    /// A valid package was found.
    Valid {
        /// Its size.
        size: u32,
    },
    /// The resource budget interrupted the search (recorded by
    /// `pkgrec-guard` when a meter trips, so the recording's tail names
    /// the exact cut point).
    Interrupted {
        /// Which resource ran out (`"steps"`, `"deadline"`,
        /// `"cancelled"`).
        resource: &'static str,
        /// Steps spent when the interruption was noticed.
        steps: u64,
    },
    /// A higher-level candidate was examined (e.g. one relaxation in
    /// QRPP or one adjustment in ARPP).
    Candidate {
        /// What kind of candidate, e.g. `"qrpp.relaxation"`.
        label: &'static str,
    },
    /// Time-only: a parallel worker started. Emitted once per spawned
    /// worker so workers that never win a claim still get a track.
    WorkerAlive,
    /// Time-only: the unit's walk ended (completed, cut or abandoned)
    /// after `steps` steps.
    UnitEnd {
        /// Search steps ticked in the unit.
        steps: u64,
    },
    /// Time-only: a solve phase (e.g. `compile`, `enumerate`) opened.
    PhaseOpen {
        /// The phase name.
        name: &'static str,
    },
    /// Time-only: the matching phase closed.
    PhaseClose {
        /// The phase name.
        name: &'static str,
    },
}

/// One event of the flight recording, stamped with the unit it
/// happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Index of the search unit active when the event fired (0 before
    /// any unit started).
    pub unit: u64,
    /// The event.
    pub event: FlightEvent,
}

impl FlightRecord {
    /// Append this record as one JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"unit\":{},\"event\":", self.unit);
        match self.event {
            FlightEvent::SearchStart { units } => {
                let _ = write!(out, "\"search_start\",\"units\":{units}");
            }
            FlightEvent::UnitClaimed => out.push_str("\"unit_claimed\""),
            FlightEvent::UnitFinished => out.push_str("\"unit_finished\""),
            FlightEvent::BranchEnter { depth } => {
                let _ = write!(out, "\"branch\",\"depth\":{depth}");
            }
            FlightEvent::Prune { reason, depth } => {
                let _ = write!(out, "\"prune\",\"reason\":");
                json::write_string(out, reason.label());
                let _ = write!(out, ",\"depth\":{depth}");
            }
            FlightEvent::Valid { size } => {
                let _ = write!(out, "\"valid\",\"size\":{size}");
            }
            FlightEvent::Interrupted { resource, steps } => {
                let _ = write!(out, "\"interrupted\",\"resource\":");
                json::write_string(out, resource);
                let _ = write!(out, ",\"steps\":{steps}");
            }
            FlightEvent::Candidate { label } => {
                let _ = write!(out, "\"candidate\",\"label\":");
                json::write_string(out, label);
            }
            FlightEvent::WorkerAlive => out.push_str("\"worker_alive\""),
            FlightEvent::UnitEnd { steps } => {
                let _ = write!(out, "\"unit_end\",\"steps\":{steps}");
            }
            FlightEvent::PhaseOpen { name } | FlightEvent::PhaseClose { name } => {
                let open = matches!(self.event, FlightEvent::PhaseOpen { .. });
                out.push_str(if open {
                    "\"phase_open\""
                } else {
                    "\"phase_close\""
                });
                out.push_str(",\"name\":");
                json::write_string(out, name);
            }
        }
        out.push('}');
    }
}

/// When, in which profiling scope and on which worker a timed record
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Timing {
    /// Nanoseconds since the process profiling epoch
    /// ([`crate::timeline::now_ns`]).
    pub(crate) t_ns: u64,
    /// The profiling scope (0 = none).
    pub(crate) scope: u64,
    /// The worker index (coordinator = 0).
    pub(crate) worker: u32,
}

impl Timing {
    fn now(t: &Telemetry) -> Timing {
        Timing {
            t_ns: crate::timeline::now_ns(),
            scope: t.scope,
            worker: t.worker,
        }
    }
}

/// One entry of a thread's event ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    /// Index of the search unit active when the event fired.
    pub(crate) unit: u64,
    /// The event.
    pub(crate) event: FlightEvent,
    /// Present while profiling: the timed projection keeps the record.
    pub(crate) timing: Option<Timing>,
    /// Whether the deterministic projection (the flight recording)
    /// keeps the record.
    pub(crate) flight: bool,
}

/// Records kept per thread ring: the one capacity shared by both
/// projections. Eviction is oldest first and counted per projection
/// (`dropped` of the recording, of the scope's timeline).
pub const CAPACITY: usize = 1 << 16;

/// Per-thread ring buffer. `pushed` is the *logical* stream position —
/// records evicted by capacity still advance it — so marks taken with
/// [`mark`] stay valid as the ring wraps.
#[derive(Default)]
struct Ring {
    records: VecDeque<Record>,
    /// Logical records appended (and not drained/removed).
    pushed: u64,
    /// Flight records evicted by the capacity bound.
    dropped: u64,
    /// Timed records evicted by the capacity bound, per scope.
    timed_dropped: Vec<(u64, u64)>,
    /// Current unit index, stamped onto every record.
    unit: u64,
}

fn add_drops(drops: &mut Vec<(u64, u64)>, scope: u64, n: u64) {
    match drops.iter_mut().find(|(s, _)| *s == scope) {
        Some((_, count)) => *count += n,
        None => drops.push((scope, n)),
    }
}

impl Ring {
    fn push(&mut self, rec: Record) {
        if self.records.len() >= CAPACITY {
            if let Some(old) = self.records.pop_front() {
                if old.flight {
                    self.dropped += 1;
                }
                if let Some(t) = old.timing {
                    add_drops(&mut self.timed_dropped, t.scope, 1);
                }
            }
        }
        self.records.push_back(rec);
        self.pushed += 1;
    }

    /// Push `event` at the current unit.
    fn push_event(&mut self, event: FlightEvent, timing: Option<Timing>, flight: bool) {
        let unit = self.unit;
        self.push(Record {
            unit,
            event,
            timing,
            flight,
        });
    }

    /// Keep the records `keep` returns true for (it may rewrite them);
    /// the logical position moves back by the number removed, so the
    /// positions of the survivors' successors stay consistent.
    fn retain(&mut self, keep: impl FnMut(&mut Record) -> bool) {
        let before = self.records.len();
        self.records.retain_mut(keep);
        self.pushed -= (before - self.records.len()) as u64;
    }
}

thread_local! {
    static RING: RefCell<Ring> = RefCell::new(Ring::default());
}

#[inline]
fn with_ring<R>(f: impl FnOnce(&mut Ring) -> R) -> Option<R> {
    RING.try_with(|r| f(&mut r.borrow_mut())).ok()
}

/// Whether flight recording is on for the calling thread.
#[inline]
pub fn is_enabled() -> bool {
    telemetry().flight
}

/// Turn flight recording on for the calling thread until the guard
/// drops.
#[must_use = "recording is switched off again when the guard drops"]
pub fn scoped() -> TelemetryGuard {
    Telemetry {
        flight: true,
        ..telemetry()
    }
    .enter()
}

/// Record one search event, stamped with the current unit. No-op while
/// recording is off.
#[inline]
pub fn record(event: FlightEvent) {
    if is_enabled() {
        with_ring(|r| r.push_event(event, None, true));
    }
}

/// Record a time-only event. No-op while profiling is off.
pub(crate) fn stamp(event: FlightEvent) {
    let t = telemetry();
    if t.profile {
        with_ring(|r| r.push_event(event, Some(Timing::now(&t)), false));
    }
}

/// Start a new search: reset the unit stamp to 0 and record
/// [`FlightEvent::SearchStart`].
pub fn begin_search(units: u64) {
    if !is_enabled() {
        return;
    }
    with_ring(|r| {
        r.unit = 0;
        r.push_event(FlightEvent::SearchStart { units }, None, true);
    });
}

/// Claim unit `unit`: subsequent records are stamped with it, and one
/// [`FlightEvent::UnitClaimed`] record serves both projections — in the
/// flight recording while it is on, timed while profiling.
pub fn begin_unit(unit: u64) {
    let t = telemetry();
    if !(t.flight || t.profile) {
        return;
    }
    with_ring(|r| {
        r.unit = unit;
        let timing = t.profile.then(|| Timing::now(&t));
        r.push_event(FlightEvent::UnitClaimed, timing, t.flight);
    });
}

/// End the current unit after `steps` steps: a timed
/// [`FlightEvent::UnitEnd`] while profiling, and
/// [`FlightEvent::UnitFinished`] in the flight recording when the walk
/// `completed`.
pub fn end_unit(steps: u64, completed: bool) {
    stamp(FlightEvent::UnitEnd { steps });
    if completed {
        record(FlightEvent::UnitFinished);
    }
}

/// A position in the calling thread's ring; pass to [`drain_from`] /
/// [`discard_from`] to address everything recorded after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mark {
    pos: u64,
    dropped: u64,
}

/// The current position of the calling thread's ring.
pub fn mark() -> Mark {
    with_ring(|r| Mark {
        pos: r.pushed,
        dropped: r.dropped,
    })
    .unwrap_or_default()
}

/// Records drained out of a ring for one unit of work, carried by the
/// worker's outcome until the coordinator [`replay`]s them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitEvents {
    /// The still-buffered records of the range, oldest first.
    records: Vec<Record>,
    /// Flight records of the range already evicted by the capacity
    /// bound.
    dropped: u64,
    /// Timed records evicted, per scope (carried by [`drain_all`]).
    timed_dropped: Vec<(u64, u64)>,
}

impl UnitEvents {
    /// The timed part only, for a unit that leaves the flight
    /// recording (abandoned or above the merge floor) but stays on the
    /// timeline.
    pub fn into_timed(mut self) -> UnitEvents {
        self.records.retain_mut(|rec| {
            rec.flight = false;
            rec.timing.is_some()
        });
        self.dropped = 0;
        self
    }
}

/// Remove and return every record after `from`. Flight records evicted
/// since the mark travel along as a count, so a later
/// [`replay`] restores the exact recording a direct run would have
/// produced.
pub fn drain_from(from: Mark) -> UnitEvents {
    with_ring(|r| {
        let excess = r.pushed.saturating_sub(from.pos);
        let in_ring = (excess.min(r.records.len() as u64)) as usize;
        let at = r.records.len() - in_ring;
        let records: Vec<Record> = r.records.split_off(at).into();
        let dropped = r.dropped.saturating_sub(from.dropped);
        r.dropped -= dropped;
        r.pushed = from.pos;
        UnitEvents {
            records,
            dropped,
            timed_dropped: Vec::new(),
        }
    })
    .unwrap_or_default()
}

/// Drop every record after `from` from the flight recording (an
/// abandoned parallel unit's partial walk), keeping its timed records
/// for the timeline.
pub fn discard_from(from: Mark) {
    replay(&drain_from(from).into_timed());
}

/// Remove and return the calling thread's whole ring, eviction counts
/// included: how a parallel worker hands its leftover timed records
/// (its start, abandoned units) to the coordinator before exiting.
pub fn drain_all() -> UnitEvents {
    with_ring(|r| {
        let ring = std::mem::take(r);
        UnitEvents {
            records: ring.records.into(),
            dropped: ring.dropped,
            timed_dropped: ring.timed_dropped,
        }
    })
    .unwrap_or_default()
}

/// Append drained records to this thread's ring, preserving each
/// record's unit stamp. This is how the parallel coordinator merges the
/// per-worker rings in unit order.
pub fn replay(events: &UnitEvents) {
    with_ring(|r| {
        r.dropped += events.dropped;
        for &(scope, n) in &events.timed_dropped {
            add_drops(&mut r.timed_dropped, scope, n);
        }
        for rec in &events.records {
            r.push(*rec);
        }
    });
}

/// Remove the timed records of `scope` from the ring (every scope for
/// `None`), returning them with the scope's eviction count. Records
/// the flight recording still needs stay, without their timing.
pub(crate) fn take_timed(scope: Option<u64>) -> (Vec<Record>, u64) {
    with_ring(|r| {
        let mut taken = Vec::new();
        r.retain(|rec| match rec.timing {
            Some(t) if scope.is_none_or(|s| s == t.scope) => {
                taken.push(*rec);
                rec.timing = None;
                rec.flight
            }
            _ => true,
        });
        let dropped = match scope {
            Some(s) => r
                .timed_dropped
                .iter()
                .position(|&(id, _)| id == s)
                .map_or(0, |i| r.timed_dropped.swap_remove(i).1),
            None => std::mem::take(&mut r.timed_dropped)
                .iter()
                .map(|d| d.1)
                .sum(),
        };
        (taken, dropped)
    })
    .unwrap_or_default()
}

/// A finished recording: the retained events (oldest first) plus how
/// many older events the capacity bound evicted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightRecording {
    /// Retained records, oldest first.
    pub events: Vec<FlightRecord>,
    /// Records evicted before the retained window.
    pub dropped: u64,
}

impl FlightRecording {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Serialize as JSONL: one JSON object per line. When events were
    /// evicted, the first line is an `{"event":"overflow",...}` record
    /// saying how many.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.events.len() * 32);
        if self.dropped > 0 {
            let _ = writeln!(
                out,
                "{{\"event\":\"overflow\",\"dropped\":{}}}",
                self.dropped
            );
        }
        for rec in &self.events {
            rec.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

/// Take this thread's flight recording — the deterministic projection
/// of its ring — and reset the unit stamp. Timed records stay for the
/// timeline.
pub fn take_recording() -> FlightRecording {
    with_ring(|r| {
        let events = r
            .records
            .iter()
            .filter(|rec| rec.flight)
            .map(|rec| FlightRecord {
                unit: rec.unit,
                event: rec.event,
            })
            .collect();
        let recording = FlightRecording {
            events,
            dropped: std::mem::take(&mut r.dropped),
        };
        r.unit = 0;
        r.retain(|rec| {
            rec.flight = false;
            rec.timing.is_some()
        });
        recording
    })
    .unwrap_or_default()
}

/// Discard this thread's flight recording.
pub fn reset() {
    let _ = take_recording();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests pin their channels explicitly, so they behave the same
    /// whether or not PKGREC_FLIGHT / PKGREC_PROFILE are set.
    fn channels(flight: bool, profile: bool) -> TelemetryGuard {
        Telemetry {
            flight,
            profile,
            ..Telemetry::default()
        }
        .enter()
    }

    fn fr(unit: u64, event: FlightEvent) -> FlightRecord {
        FlightRecord { unit, event }
    }

    #[test]
    fn disabled_records_nothing() {
        let _off = channels(false, false);
        reset();
        record(FlightEvent::UnitClaimed);
        begin_unit(3);
        end_unit(5, true);
        assert!(take_recording().is_empty());
        assert_eq!(mark(), Mark::default());
    }

    #[test]
    fn records_are_stamped_with_the_current_unit() {
        let _on = channels(true, false);
        reset();
        begin_search(7);
        begin_unit(2);
        record(FlightEvent::BranchEnter { depth: 1 });
        let rec = take_recording();
        assert_eq!(
            rec.events,
            vec![
                fr(0, FlightEvent::SearchStart { units: 7 }),
                fr(2, FlightEvent::UnitClaimed),
                fr(2, FlightEvent::BranchEnter { depth: 1 }),
            ]
        );
        assert_eq!(rec.dropped, 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let _on = channels(true, false);
        reset();
        for d in 0..(CAPACITY + 5) {
            record(FlightEvent::BranchEnter { depth: d as u32 });
        }
        let rec = take_recording();
        assert_eq!(rec.events.len(), CAPACITY);
        assert_eq!(rec.dropped, 5);
        // The oldest five were evicted.
        assert_eq!(rec.events[0].event, FlightEvent::BranchEnter { depth: 5 });
    }

    #[test]
    fn drain_and_replay_reproduce_direct_recording() {
        let _on = channels(true, false);
        reset();
        // Direct recording.
        begin_unit(0);
        record(FlightEvent::Valid { size: 1 });
        begin_unit(1);
        record(FlightEvent::Valid { size: 2 });
        let direct = take_recording();

        // Drained per unit and replayed, as the parallel path does.
        let m0 = mark();
        begin_unit(0);
        record(FlightEvent::Valid { size: 1 });
        let u0 = drain_from(m0);
        let m1 = mark();
        begin_unit(1);
        record(FlightEvent::Valid { size: 2 });
        let u1 = drain_from(m1);
        assert!(take_recording().is_empty(), "drained rings are empty");
        replay(&u0);
        replay(&u1);
        assert_eq!(take_recording(), direct);
    }

    #[test]
    fn discard_removes_a_units_events() {
        let _on = channels(true, false);
        reset();
        record(FlightEvent::UnitClaimed);
        let m = mark();
        record(FlightEvent::BranchEnter { depth: 0 });
        record(FlightEvent::BranchEnter { depth: 1 });
        discard_from(m);
        let rec = take_recording();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.dropped, 0);
    }

    #[test]
    fn drain_carries_evicted_counts_through_replay() {
        let _on = channels(true, false);
        reset();
        let m = mark();
        for d in 0..(CAPACITY + 3) {
            record(FlightEvent::BranchEnter { depth: d as u32 });
        }
        let drained = drain_from(m);
        assert_eq!(drained.records.len(), CAPACITY);
        assert_eq!(drained.dropped, 3);
        // The origin ring is clean again.
        let leftover = take_recording();
        assert!(leftover.events.is_empty());
        assert_eq!(leftover.dropped, 0);
        replay(&drained);
        let rec = take_recording();
        assert_eq!(rec.events.len(), CAPACITY);
        assert_eq!(rec.dropped, 3);
    }

    /// With both channels on, a claim is one record in both
    /// projections; the recording drops its time field and the
    /// time-only events, and the timed records outlive the recording.
    #[test]
    fn one_claim_record_serves_both_projections() {
        let _on = channels(true, true);
        reset();
        crate::timeline::reset();
        begin_unit(4);
        record(FlightEvent::Valid { size: 1 });
        end_unit(1, true);
        let recording = take_recording();
        assert_eq!(
            recording.events,
            vec![
                fr(4, FlightEvent::UnitClaimed),
                fr(4, FlightEvent::Valid { size: 1 }),
                fr(4, FlightEvent::UnitFinished),
            ]
        );
        let (timed, dropped) = take_timed(None);
        let events: Vec<FlightEvent> = timed.iter().map(|r| r.event).collect();
        assert_eq!(
            events,
            [FlightEvent::UnitClaimed, FlightEvent::UnitEnd { steps: 1 }]
        );
        assert_eq!(dropped, 0);
        assert!(drain_all().records.is_empty(), "both projections taken");
    }

    /// An abandoned unit leaves the recording but keeps its timing.
    #[test]
    fn discard_keeps_timed_records() {
        let _on = channels(true, true);
        reset();
        crate::timeline::reset();
        let m = mark();
        begin_unit(9);
        record(FlightEvent::BranchEnter { depth: 2 });
        end_unit(1, false);
        discard_from(m);
        assert!(take_recording().is_empty());
        let (timed, _) = take_timed(None);
        assert_eq!(timed.len(), 2);
        assert!(timed.iter().all(|r| !r.flight && r.unit == 9));
    }

    #[test]
    fn jsonl_lines_validate() {
        let _on = channels(true, false);
        reset();
        begin_search(3);
        begin_unit(1);
        record(FlightEvent::BranchEnter { depth: 2 });
        record(FlightEvent::Prune {
            reason: PruneReason::CostBound,
            depth: 2,
        });
        record(FlightEvent::Valid { size: 1 });
        record(FlightEvent::Interrupted {
            resource: "steps",
            steps: 42,
        });
        record(FlightEvent::Candidate {
            label: "qrpp.relaxation",
        });
        let mut rec = take_recording();
        rec.dropped = 9; // force the overflow header line too
        for event in [
            FlightEvent::WorkerAlive,
            FlightEvent::UnitEnd { steps: 3 },
            FlightEvent::PhaseOpen { name: "compile" },
            FlightEvent::PhaseClose { name: "compile" },
        ] {
            rec.events.push(fr(1, event));
        }
        let jsonl = rec.to_jsonl();
        for line in jsonl.lines() {
            json::validate_object(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(jsonl.starts_with("{\"event\":\"overflow\",\"dropped\":9}"));
        assert!(jsonl.contains("\"reason\":\"cost\""));
        assert!(jsonl.contains("\"resource\":\"steps\""));
        assert!(jsonl.contains("\"phase_close\",\"name\":\"compile\""));
    }

    #[test]
    fn prune_reasons_map_to_registry_counters() {
        for (reason, counter, label) in [
            (PruneReason::CostBound, "enumerate.pruned.cost", "cost"),
            (PruneReason::Compat, "enumerate.pruned.compat", "compat"),
            (PruneReason::Budget, "enumerate.pruned.budget", "budget"),
            (
                PruneReason::ParallelFloor,
                "enumerate.pruned.floor",
                "floor",
            ),
        ] {
            assert_eq!(reason.counter_name(), counter);
            assert_eq!(reason.label(), label);
        }
    }
}
