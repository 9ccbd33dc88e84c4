//! `telemetry_overhead` — measure what each telemetry channel costs.
//!
//! Runs the Theorem 4.1 RPP configuration (the `t81_rpp` bench's
//! `cq_with_qc` sweep: a random Σ₂ 3DNF sentence reduced to an RPP
//! instance and decided by `rpp::is_top_k`) under five settings of the
//! calling thread's [`Telemetry`]:
//!
//! 1. **disabled** — every channel off, the shipping default;
//! 2. **disabled (rerun)** — still off. The relative gap to run 1 is
//!    the measurement noise floor: a disabled probe is one thread-local
//!    load, so any difference between two disabled runs is noise, and
//!    that gap is the honest upper bound on "overhead of having the
//!    probes compiled in but off";
//! 3. **trace** — span/counter collection, what `--trace` and `report
//!    --stats` pay;
//! 4. **flight** — every search event in the ring, what `--flight-out`
//!    pays;
//! 5. **profile** — timed unit claims and ends plus phase brackets,
//!    what `pkgrec profile` and `serve --profile` pay.
//!
//! Each measurement is the median of [`ROUNDS`] rounds of [`ITERS`]
//! solves; the five settings run interleaved, round by round. The
//! report is one JSON line per channel (each with the shared disabled
//! baseline and noise floor), to stdout or to the path in the first
//! argument; `--smoke` shrinks the sweep for CI:
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin telemetry_overhead -- BENCH_telemetry_overhead.json
//! cargo run --release -p pkgrec-bench --bin telemetry_overhead -- telemetry.json --smoke
//! ```

use std::time::{Duration, Instant};

use pkgrec_core::{problems::rpp, SolveOptions};
use pkgrec_logic::gen;
use pkgrec_reductions::thm4_1;
use pkgrec_trace::{flight, timeline, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Solves per timed round.
const ITERS: usize = 40;
/// Timed rounds per setting; the median is reported.
const ROUNDS: usize = 7;

/// The measured channels, by name, with the state that turns each on.
const CHANNELS: [(&str, Telemetry); 3] = [
    ("trace", on(true, false, false)),
    ("flight", on(false, true, false)),
    ("profile", on(false, false, true)),
];

const fn on(trace: bool, flight: bool, profile: bool) -> Telemetry {
    Telemetry {
        trace,
        flight,
        profile,
        scope: 0,
        worker: 0,
    }
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Wall time of one round: `iters` solves under `state`. Collector and
/// ring are cleared between solves so the enabled settings measure
/// steady-state recording, not an ever-full buffer.
fn round(
    r: &thm4_1::RppReduction,
    opts: &SolveOptions,
    iters: usize,
    state: Telemetry,
) -> Duration {
    let _state = state.enter();
    let start = Instant::now();
    for _ in 0..iters {
        pkgrec_trace::reset();
        let _ = flight::drain_all();
        let ok = rpp::is_top_k(&r.instance, &r.selection, opts).expect("solves");
        std::hint::black_box(ok);
    }
    start.elapsed()
}

/// What one solve leaves behind on `channel` (turned on by `state`):
/// counter increments, flight events or timed stamps.
fn records_per_solve(
    r: &thm4_1::RppReduction,
    opts: &SolveOptions,
    channel: &str,
    state: Telemetry,
) -> u64 {
    let _state = state.enter();
    pkgrec_trace::reset();
    flight::reset();
    let scope = timeline::begin_scope();
    rpp::is_top_k(&r.instance, &r.selection, opts).expect("solves");
    match channel {
        "trace" => pkgrec_trace::take().counters.values().sum(),
        "flight" => flight::take_recording().events.len() as u64,
        _ => timeline::take_scope(scope.id()).stamps.len() as u64,
    }
}

fn pct(base: Duration, other: Duration) -> f64 {
    (other.as_secs_f64() - base.as_secs_f64()) / base.as_secs_f64() * 100.0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args.iter().find(|a| !a.starts_with("--")).cloned();
    let (iters, rounds) = if smoke { (5, 3) } else { (ITERS, ROUNDS) };

    let phi = gen::random_sigma2(&mut StdRng::seed_from_u64(92), 2, 2, 3);
    let r = thm4_1::reduce(&phi);
    let opts = SolveOptions::default();
    let off = Telemetry::default();

    // Warm-up round so page faults and lazy init don't land in run 1.
    round(&r, &opts, iters, off);

    // Interleave the settings round by round so slow drift (frequency
    // scaling, other tenants) hits them all alike instead of whichever
    // block ran first; the medians then compare like rounds.
    let (mut d1, mut d2) = (Vec::new(), Vec::new());
    let mut enabled: Vec<Vec<Duration>> = vec![Vec::new(); CHANNELS.len()];
    for _ in 0..rounds {
        d1.push(round(&r, &opts, iters, off));
        d2.push(round(&r, &opts, iters, off));
        for (times, (_, state)) in enabled.iter_mut().zip(CHANNELS) {
            times.push(round(&r, &opts, iters, state));
        }
    }
    let disabled = median(d1);
    let disabled_rerun = median(d2);
    let noise_floor_pct = pct(disabled, disabled_rerun);

    let mut report = String::new();
    for ((channel, state), times) in CHANNELS.into_iter().zip(enabled) {
        let enabled = median(times);
        let overhead_pct = pct(disabled, enabled);
        let records = records_per_solve(&r, &opts, channel, state);
        let line = format!(
            "{{\"bench\":\"t81_rpp cq_with_qc (thm4_1 reduce of random_sigma2 m=2, seed 92)\",\
\"channel\":\"{channel}\",\"iters_per_round\":{iters},\"rounds\":{rounds},\"smoke\":{smoke},\
\"disabled_ns\":{},\"disabled_rerun_ns\":{},\"enabled_ns\":{},\
\"noise_floor_pct\":{noise_floor_pct:.2},\"enabled_overhead_pct\":{overhead_pct:.2},\
\"records_per_solve\":{records},\"ring_capacity\":{}}}",
            disabled.as_nanos(),
            disabled_rerun.as_nanos(),
            enabled.as_nanos(),
            flight::CAPACITY,
        );
        pkgrec_trace::json::validate_object(&line).expect("well-formed report line");
        report.push_str(&line);
        report.push('\n');
        eprintln!(
            "{channel:<8} enabled {enabled:?} ({overhead_pct:+.2}%, {records} records/solve)"
        );
    }
    eprintln!(
        "disabled {disabled:?} | disabled rerun {disabled_rerun:?} ({noise_floor_pct:+.2}%, noise floor)"
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, &report).expect("write output file");
            eprintln!("wrote {path}");
        }
        None => print!("{report}"),
    }
}
