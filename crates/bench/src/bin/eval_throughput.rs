//! `eval_throughput` — cached compiled-plan versus one-shot probe
//! throughput, on the workloads where the solvers actually spend their
//! query time. The one-shot side calls the per-call API, which compiles
//! a throwaway plan on every call; the cached side compiles once and
//! probes many times, as the solvers do:
//!
//! * `qc_overlay` — the hot probe of compatibility checking: is
//!   `Qc(N, D)` empty? One-shot, every probe binds `R_Q` over a clone
//!   of the whole database (`Database::with_relation`, a new epoch, so
//!   a new snapshot) and compiles `Qc`; cached, the package is bound
//!   as a zero-copy overlay against a plan built once. Example 1.1's
//!   "≤ 2 museums" constraint over a random travel database.
//! * `thm41_membership` — item-membership probes `t ∈ Q(D)` on the
//!   Theorem 4.1 gadget instance, `Query::contains` vs
//!   `CompiledPlan::contains`.
//! * `travel_eval` — repeated full evaluation of the Example 1.1
//!   selection query, `Query::eval` vs `CompiledPlan::eval`.
//!
//! Every timed closure re-checks answer equality against precomputed
//! expectations, so both sides pay the comparison and a speedup can
//! never come from returning the wrong answers.
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin eval_throughput -- BENCH_eval_throughput.json
//! ```
//!
//! `--smoke` shrinks the databases and probe counts for CI shape
//! checks (and skips the ≥ 3× assertion, which only full-size runs
//! must meet).

use std::collections::BTreeSet;
use std::time::Duration;

use pkgrec_bench::time_best_of;
use pkgrec_core::{Constraint, ANSWER_RELATION};
use pkgrec_data::{AttrType, Database, Relation, RelationSchema, Tuple};
use pkgrec_logic::gen;
use pkgrec_query::Query;
use pkgrec_reductions::lemma4_2;
use pkgrec_workloads::travel::{max_two_museums, travel_db, travel_query, TravelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Best-of repetitions per side.
const REPS: usize = 3;

struct WorkloadResult {
    name: &'static str,
    probes: usize,
    one_shot: Duration,
    compiled: Duration,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.one_shot.as_secs_f64() / self.compiled.as_secs_f64()
    }

    fn to_json(&self) -> String {
        let i = self.one_shot.as_secs_f64();
        let c = self.compiled.as_secs_f64();
        format!(
            "{{\"name\":\"{}\",\"probes\":{},\"one_shot_seconds\":{i:.6},\
\"compiled_seconds\":{c:.6},\"one_shot_probes_per_sec\":{:.1},\
\"compiled_probes_per_sec\":{:.1},\"speedup\":{:.3}}}",
            self.name,
            self.probes,
            self.probes as f64 / i,
            self.probes as f64 / c,
            self.speedup()
        )
    }
}

/// The `R_Q` schema the one-shot side materializes per probe.
fn answer_schema(arity: usize) -> RelationSchema {
    RelationSchema::new(
        ANSWER_RELATION,
        (0..arity).map(|i| (format!("c{i}"), AttrType::Int)),
    )
    .expect("generated names are distinct")
}

/// The Example 1.1 query over a route that actually exists in the
/// random database: the (from, to, day) of its first flight.
fn travel_query_for(db: &Database) -> Query {
    let flight = db
        .relation("flight")
        .expect("travel db has flights")
        .iter()
        .next()
        .expect("at least one flight");
    let from = flight[1].as_str().expect("from is a string");
    let to = flight[2].as_str().expect("to is a string");
    let day = flight[3].as_int().expect("day is an int");
    travel_query(from, to, day)
}

/// Compatibility probes: `Qc(N, D) = ∅`? for random packages drawn
/// from the travel item pool.
fn qc_overlay(smoke: bool) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(7);
    let cfg = if smoke {
        TravelConfig::default()
    } else {
        TravelConfig {
            cities: 10,
            flights: 300,
            pois_per_city: 30,
            days: 7,
        }
    };
    let db = std::sync::Arc::new(travel_db(&mut rng, &cfg));
    let q = travel_query_for(&db);
    let qc = match max_two_museums() {
        Constraint::Query(qc) => qc,
        other => unreachable!("max_two_museums is a query constraint, got {other:?}"),
    };
    let items: Vec<Tuple> = q.eval(&db).expect("selection query evaluates").into_iter().collect();
    assert!(!items.is_empty(), "travel pool must be nonempty");
    let arity = items[0].arity();

    let n_packages = if smoke { 50 } else { 1000 };
    let packages: Vec<Vec<Tuple>> = (0..n_packages)
        .map(|_| {
            let size = rng.gen_range(0..=6usize.min(items.len()));
            (0..size)
                .map(|_| items[rng.gen_range(0..items.len())].clone())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect();

    // Expected answer sets, computed once untimed via the one-shot API.
    let expected: Vec<BTreeSet<Tuple>> = packages
        .iter()
        .map(|pkg| {
            let rq = Relation::from_tuples_unchecked(answer_schema(arity), pkg.iter().cloned());
            qc.eval(&db.with_relation(rq)).expect("Qc evaluates")
        })
        .collect();

    let one_shot = time_best_of(REPS, || {
        for (pkg, want) in packages.iter().zip(&expected) {
            let rq = Relation::from_tuples_unchecked(answer_schema(arity), pkg.iter().cloned());
            let got = qc.eval(&db.with_relation(rq)).expect("Qc evaluates");
            assert_eq!(&got, want, "one-shot probe diverged");
        }
    });
    let plan = qc
        .compile_with_dynamic(&db, ANSWER_RELATION, arity)
        .expect("Qc compiles");
    let compiled = time_best_of(REPS, || {
        for (pkg, want) in packages.iter().zip(&expected) {
            let got = plan
                .eval_dynamic(pkg.iter(), None, None)
                .expect("plan evaluates");
            assert_eq!(&got, want, "compiled probe diverged");
        }
    });
    WorkloadResult {
        name: "qc_overlay",
        probes: packages.len(),
        one_shot,
        compiled,
    }
}

/// Membership probes `t ∈ Q(D)` on the Theorem 4.1 gadget instance.
fn thm41_membership(smoke: bool) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(11);
    let (x, conj, width) = if smoke { (3, 4, 3) } else { (6, 12, 3) };
    let phi = gen::random_sigma2(&mut rng, x, conj, width);
    let r = lemma4_2::reduce(&phi);
    let (db, q) = (&r.instance.db, &r.instance.query);

    let items: Vec<Tuple> = q.eval(db).expect("gadget query evaluates").into_iter().collect();
    assert!(!items.is_empty(), "gadget pool must be nonempty");
    let rounds = if smoke { 20 } else { 200 };
    let expected: Vec<bool> = items.iter().map(|_| true).collect();

    let one_shot = time_best_of(REPS, || {
        for _ in 0..rounds {
            for (t, want) in items.iter().zip(&expected) {
                assert_eq!(
                    q.contains(db, t).expect("membership evaluates"),
                    *want,
                    "one-shot membership diverged"
                );
            }
        }
    });
    let plan = q.compile(db).expect("gadget query compiles");
    let compiled = time_best_of(REPS, || {
        for _ in 0..rounds {
            for (t, want) in items.iter().zip(&expected) {
                assert_eq!(
                    plan.contains(t, None, None).expect("membership evaluates"),
                    *want,
                    "compiled membership diverged"
                );
            }
        }
    });
    WorkloadResult {
        name: "thm41_membership",
        probes: rounds * items.len(),
        one_shot,
        compiled,
    }
}

/// Repeated full evaluation of the Example 1.1 selection query.
fn travel_eval(smoke: bool) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(13);
    let cfg = if smoke {
        TravelConfig::default()
    } else {
        TravelConfig {
            cities: 10,
            flights: 300,
            pois_per_city: 30,
            days: 7,
        }
    };
    let db = std::sync::Arc::new(travel_db(&mut rng, &cfg));
    let q = travel_query_for(&db);
    let expected = q.eval(&db).expect("selection query evaluates");
    assert!(!expected.is_empty(), "travel pool must be nonempty");

    let rounds = if smoke { 20 } else { 200 };
    let one_shot = time_best_of(REPS, || {
        for _ in 0..rounds {
            assert_eq!(
                q.eval(&db).expect("selection query evaluates"),
                expected,
                "one-shot eval diverged"
            );
        }
    });
    let plan = q.compile(&db).expect("selection query compiles");
    let compiled = time_best_of(REPS, || {
        for _ in 0..rounds {
            assert_eq!(
                plan.eval(None, None).expect("plan evaluates"),
                expected,
                "compiled eval diverged"
            );
        }
    });
    WorkloadResult {
        name: "travel_eval",
        probes: rounds,
        one_shot,
        compiled,
    }
}

fn main() {
    let mut out_path = None;
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_eval_throughput.json".to_string());

    let results = [
        qc_overlay(smoke),
        thm41_membership(smoke),
        travel_eval(smoke),
    ];
    for r in &results {
        eprintln!(
            "{}: {} probes, one_shot {:?}, compiled {:?} ({:.2}x)",
            r.name,
            r.probes,
            r.one_shot,
            r.compiled,
            r.speedup()
        );
    }
    if !smoke {
        let qc = &results[0];
        assert!(
            qc.speedup() >= 3.0,
            "compiled Qc probes must be ≥ 3x one-shot, got {:.2}x",
            qc.speedup()
        );
    }

    let workloads: Vec<String> = results.iter().map(WorkloadResult::to_json).collect();
    let json = format!(
        "{{\"bench\":\"cached compiled-plan vs one-shot probe throughput\",\
\"reps\":{REPS},\"smoke\":{smoke},\"workloads\":[{}]}}",
        workloads.join(",")
    );
    pkgrec_trace::json::validate_object(&json).expect("report is valid JSON");
    std::fs::write(&out_path, format!("{json}\n")).expect("write output file");
    eprintln!("wrote {out_path}");
}
