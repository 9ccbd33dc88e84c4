//! Flight-recorder contracts across the whole stack: every jobs level
//! produces the bit-identical merged recording on completed runs,
//! interrupted runs end their black box with the tripping event, the
//! attributed `enumerate.pruned.*` counters agree with the recorded
//! prune events, and the live progress estimate is monotone and exact.
//!
//! Flight recording (like tracing) is per-thread, and the test harness
//! runs each test on its own thread, so enabling it here cannot
//! contaminate other tests' rings.

mod common;

use std::sync::Arc;

use common::{cq, item_instance, Qc};
use pkgrec::core::{
    problems::cpp, problems::frp, Constraint, Ext, Progress, RecInstance, SolveOptions,
};
use pkgrec::query::Query;
use pkgrec_trace::flight::{self, FlightEvent};

const JOBS_LEVELS: [usize; 3] = [2, 4, 8];

/// The golden workload family of `tests/common`: items with groups
/// and scores, budget 2 items, val = total score, k = 1.
fn instance(scores: &[(i64, i64)], qc: Qc) -> RecInstance {
    item_instance(scores, qc, 1)
}

const GOLDEN: [(&[(i64, i64)], Qc); 4] = [
    (&[(0, 10), (1, 20), (2, 30), (0, 40)], Qc::Absent),
    (&[(0, 10), (1, 20), (2, 30), (0, 40), (1, 5)], Qc::PTime),
    (&[(0, 7), (0, 9), (1, 3), (2, 30), (2, 2), (1, 11)], Qc::Query),
    (&[(1, 1)], Qc::Absent),
];

/// Completed runs: the merged recording at jobs N is bit-identical to
/// the jobs = 1 one, for every golden workload.
#[test]
fn parallel_recordings_match_sequential_bit_for_bit() {
    let _on = flight::scoped();
    for (scores, qc) in GOLDEN {
        let inst = instance(scores, qc);
        flight::reset();
        let seq_out = frp::top_k(&inst, &SolveOptions::default().with_jobs(1)).unwrap();
        let seq = flight::take_recording();
        assert!(!seq.events.is_empty(), "the jobs = 1 run recorded events");
        for jobs in JOBS_LEVELS {
            flight::reset();
            let par_out = frp::top_k(&inst, &SolveOptions::default().with_jobs(jobs)).unwrap();
            let par = flight::take_recording();
            assert_eq!(par_out, seq_out, "jobs {jobs}");
            assert_eq!(par.events, seq.events, "jobs {jobs}");
            assert_eq!(par.dropped, seq.dropped, "jobs {jobs}");
        }
    }
}

/// A budget-interrupted run's recording ends with the tripping event —
/// every `SearchLimitExceeded` comes with its black box — at every
/// jobs level.
#[test]
fn interrupted_recordings_end_with_the_tripping_event() {
    let _on = flight::scoped();
    let inst = instance(GOLDEN[1].0, GOLDEN[1].1);
    for jobs in [1usize, 2, 4] {
        flight::reset();
        let out = frp::top_k(&inst, &SolveOptions::limited(3).with_jobs(jobs)).unwrap();
        assert!(out.interrupted.is_some(), "3 steps cannot finish");
        let rec = flight::take_recording();
        let last = rec.events.last().expect("events were recorded").event;
        assert!(
            matches!(last, FlightEvent::Interrupted { resource: "steps", .. }),
            "jobs {jobs}: recording must end at the cut, got {last:?}"
        );
        // Exactly one interruption survives the merge (latch-racing
        // workers above the floor are discarded).
        let cuts = rec
            .events
            .iter()
            .filter(|r| matches!(r.event, FlightEvent::Interrupted { .. }))
            .count();
        assert_eq!(cuts, 1, "jobs {jobs}");
    }
}

/// A `Qc` whose conflict-hypergraph build runs over its internal step
/// cap falls back to the full probe without reporting an interruption:
/// a complete solve records none, and a step-limited one ends its
/// recording with exactly the search's own.
#[test]
fn a_capped_hypergraph_build_is_not_an_interruption() {
    let _on = flight::scoped();
    let _trace = pkgrec_trace::scoped();
    // Four items with rising scores: about 4 × 10^5 witness candidates
    // over 40 items, past the build's cap.
    let scores: Vec<(i64, i64)> = (0..40).map(|i| (i % 3, i)).collect();
    let qc = "qc() :- RQ(a, g1, s1), RQ(b, g2, s2), RQ(c, g3, s3), RQ(d, g4, s4), \
              s1 < s2, s2 < s3, s3 < s4.";
    let inst = instance(&scores, Qc::Absent).with_qc(Constraint::Query(Query::Cq(cq(qc))));
    for (steps, jobs) in [(None, 1), (Some(3), 1), (Some(3), 2), (Some(3), 4)] {
        flight::reset();
        pkgrec_trace::reset();
        let opts = match steps {
            Some(n) => SolveOptions::limited(n),
            None => SolveOptions::default(),
        };
        let out = frp::top_k(&inst, &opts.with_jobs(jobs)).unwrap();
        let report = pkgrec_trace::take();
        let rec = flight::take_recording();
        assert_eq!(report.counters["query.hypergraph_fallbacks"], 1, "jobs {jobs}");
        let cuts = rec
            .events
            .iter()
            .filter(|r| matches!(r.event, FlightEvent::Interrupted { .. }))
            .count();
        let interrupted = report.counters.get("guard.interrupted").copied().unwrap_or(0);
        let want = if steps.is_some() { (true, 1, 1) } else { (false, 0, 0) };
        assert_eq!(
            (out.interrupted.is_some(), cuts, interrupted),
            want,
            "steps {steps:?}, jobs {jobs}"
        );
        if steps.is_some() {
            let last = rec.events.last().expect("events were recorded").event;
            assert!(matches!(last, FlightEvent::Interrupted { resource: "steps", .. }));
        }
    }
}

/// The attributed counters and the recorded events tell the same
/// story: `enumerate.pruned.cost + enumerate.pruned.compat` equals the
/// number of `Prune` records, and every recorded reason has its
/// counter.
#[test]
fn pruned_counters_agree_with_recorded_events() {
    let _on = flight::scoped();
    let _trace = pkgrec_trace::scoped();
    for (scores, qc) in GOLDEN {
        let inst = instance(scores, qc);
        flight::reset();
        pkgrec_trace::reset();
        cpp::count_valid(&inst, Ext::NegInf, &SolveOptions::default().with_jobs(1)).unwrap();
        let report = pkgrec_trace::take();
        let rec = flight::take_recording();
        let counted: u64 = report
            .counters
            .iter()
            .filter(|(name, _)| {
                name.as_str() == "enumerate.pruned.cost"
                    || name.as_str() == "enumerate.pruned.compat"
            })
            .map(|(_, &n)| n)
            .sum();
        let mut by_reason = std::collections::BTreeMap::new();
        for r in &rec.events {
            if let FlightEvent::Prune { reason, .. } = r.event {
                *by_reason.entry(reason.counter_name()).or_insert(0u64) += 1;
            }
        }
        let recorded: u64 = by_reason.values().sum();
        assert_eq!(counted, recorded, "counters and events must agree");
        for (name, n) in by_reason {
            assert_eq!(report.counters.get(name), Some(&n), "{name}");
        }
        assert!(
            !report.counters.contains_key("enumerate.pruned"),
            "the lump-sum counter is gone"
        );
    }
}

/// Recordings serialize to JSONL that the bundled validator accepts,
/// line by line.
#[test]
fn recordings_serialize_to_valid_jsonl() {
    let _on = flight::scoped();
    flight::reset();
    let inst = instance(GOLDEN[2].0, GOLDEN[2].1);
    frp::top_k(&inst, &SolveOptions::limited(20).with_jobs(2)).unwrap();
    let jsonl = flight::take_recording().to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        pkgrec_trace::json::validate_object(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

/// The progress estimate is monotone in the budget (a longer prefix
/// never reports less progress), stays below 1.0 while interrupted,
/// and pins to exactly 1.0 on completed runs — including through the
/// shared handle a CLI monitor would poll.
#[test]
fn progress_is_monotone_and_exact() {
    let inst = instance(GOLDEN[1].0, GOLDEN[1].1);
    let mut last = 0.0f64;
    for budget in 1..40u64 {
        let progress = Arc::new(Progress::new());
        let opts = SolveOptions::limited(budget)
            .with_jobs(1)
            .with_progress(Arc::clone(&progress));
        let out = cpp::count_valid(&inst, Ext::NegInf, &opts).unwrap();
        match out.stats.progress_at_interrupt {
            Some(frac) => {
                assert!((0.0..1.0).contains(&frac), "budget {budget}: {frac}");
                assert!(frac >= last, "budget {budget}: {frac} < {last}");
                assert!((frac - progress.fraction()).abs() < 1e-9);
                last = frac;
            }
            None => {
                assert!(out.stats.interrupted.is_none());
                assert_eq!(progress.fraction(), 1.0, "exact completion pins to 1.0");
                let (done, total) = progress.units();
                assert_eq!(done, total);
                return;
            }
        }
    }
    panic!("40 steps should have exhausted the golden workload");
}

/// Multi-worker completed runs also pin the shared estimate to 1.0.
#[test]
fn parallel_progress_reaches_one() {
    let inst = instance(GOLDEN[0].0, GOLDEN[0].1);
    for jobs in JOBS_LEVELS {
        let progress = Arc::new(Progress::new());
        let opts = SolveOptions::default()
            .with_jobs(jobs)
            .with_progress(Arc::clone(&progress));
        cpp::count_valid(&inst, Ext::NegInf, &opts).unwrap();
        assert_eq!(progress.fraction(), 1.0, "jobs {jobs}");
    }
}
