//! `report` — regenerate the paper's tables with measured growth data.
//!
//! Runs compact versions of the benchmark sweeps (the `cargo bench`
//! targets in `benches/` time the sweeps on their own; the vendored
//! criterion stub prints best-of-N wall times, with no statistical
//! analysis) and prints, for every row of the paper's Tables 8.1 and
//! 8.2, the complexity class the paper proves next to the runtime
//! series and an empirical growth classification.
//!
//! ```sh
//! cargo run --release -p pkgrec-bench --bin report            # all tables
//! cargo run --release -p pkgrec-bench --bin report -- --gadgets
//! cargo run --release -p pkgrec-bench --bin report -- --deadline-ms 250
//! ```
//!
//! With `--deadline-ms T` every measured point runs under a wall-clock
//! budget of `T` milliseconds. A point whose search was cut off is
//! printed with a trailing `*`: its time is a *censored* runtime (the
//! solver gave up there), so blow-up rows degrade to partial cells
//! instead of hanging the report.
//!
//! With `--stats` the report enables `pkgrec-trace` and prints, under
//! every row, the dominant solver counter per cell — which probe fired
//! most — so a runtime blow-up can be attributed to a layer (SAT
//! branching vs. join fan-out vs. package enumeration) at a glance.
//! Counter values are step counts from seeded runs, so the stats lines
//! are deterministic across invocations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pkgrec_bench::{datalog_cube, growth_order, mean_step_ratio, time_best_of};
use pkgrec_core::{
    problems::cpp, problems::frp, problems::mbp, problems::rpp, Constraint, CoreError,
    Outcome, SizeBound, SolveOptions,
};
use pkgrec_core::{ItemInstance, ItemUtility};
use pkgrec_logic::gen;
use pkgrec_reductions::{
    gadgets, lemma4_4, membership, thm4_1, thm4_5, thm5_1, thm5_2, thm5_3, thm7_2, thm8_1,
};
use pkgrec_workloads::random as wrandom;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-point wall-clock budget in milliseconds; 0 = unlimited.
static DEADLINE_MS: AtomicU64 = AtomicU64::new(0);

fn opts() -> SolveOptions {
    match DEADLINE_MS.load(Ordering::Relaxed) {
        0 => SolveOptions::unbounded(),
        ms => SolveOptions::deadline_in(Duration::from_millis(ms)),
    }
}

/// Strict solvers error out on budget exhaustion; that's a partial
/// cell, not a failure.
fn strict<T>(r: Result<T, CoreError>) -> bool {
    match r {
        Ok(_) => true,
        Err(CoreError::SearchLimitExceeded { .. }) => false,
        Err(e) => panic!("solver failed: {e}"),
    }
}

/// Anytime solvers report exhaustion in the outcome itself.
fn anytime<T, S>(r: Result<Outcome<T, S>, CoreError>) -> bool {
    r.expect("solves").exact
}

struct Point {
    size: f64,
    time: Duration,
    exact: bool,
    /// Dominant trace counter over the cell's runs (`--stats` only).
    dominant: Option<String>,
    /// `enumerate.pruned.*` reason breakdown for the cell (`--stats`
    /// only; empty when the cell never reached the package enumerator).
    pruned: Option<String>,
}

struct Row {
    label: String,
    paper: String,
    points: Vec<Point>,
}

impl Row {
    fn print(&self) {
        let pts: Vec<(f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.size, p.time.as_secs_f64()))
            .collect();
        let order = growth_order(&pts);
        let ratio = mean_step_ratio(&pts);
        let series: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!("{:>3.0}:{:>9.3?}{}", p.size, p.time, if p.exact { "" } else { "*" })
            })
            .collect();
        // Heuristic read-out. For geometric sweeps (size more than
        // quadruples end to end) the log–log slope is the polynomial
        // degree, so a small slope reads as polynomial. For additive
        // sweeps a large per-step blowup reads as super-polynomial.
        let geometric = self
            .points
            .first()
            .zip(self.points.last())
            .is_some_and(|(p0, p1)| p1.size / p0.size >= 4.0);
        let censored = self.points.iter().any(|p| !p.exact);
        let verdict = if censored {
            "partial (budget hit)"
        } else if ratio.is_nan() {
            "n/a"
        } else if geometric {
            if order <= 3.0 {
                "polynomial growth"
            } else {
                "super-poly growth"
            }
        } else if ratio >= 2.5 {
            "super-poly growth"
        } else {
            "moderate growth"
        };
        println!(
            "  {:<34} {:<18} [{}]  order≈{order:>5.1}  step×{ratio:>5.1}  {verdict}",
            self.label,
            self.paper,
            series.join(" ")
        );
        if self.points.iter().any(|p| p.dominant.is_some()) {
            let stats: Vec<String> = self
                .points
                .iter()
                .map(|p| {
                    format!(
                        "{:.0}:{}",
                        p.size,
                        p.dominant.as_deref().unwrap_or("-")
                    )
                })
                .collect();
            println!("  {:<34} stats: {}", "", stats.join("  "));
        }
        if self.points.iter().any(|p| p.pruned.is_some()) {
            let pruned: Vec<String> = self
                .points
                .iter()
                .map(|p| {
                    format!("{:.0}:[{}]", p.size, p.pruned.as_deref().unwrap_or("-"))
                })
                .collect();
            println!("  {:<34} pruned: {}", "", pruned.join("  "));
        }
    }
}

fn sweep(
    label: &str,
    paper: &str,
    sizes: &[usize],
    mut run: impl FnMut(usize) -> bool,
) -> Row {
    let points = sizes
        .iter()
        .map(|&s| {
            let mut exact = true;
            pkgrec_trace::reset();
            let t = time_best_of(3, || exact &= run(s));
            // With `--stats` tracing is enabled and this names the
            // busiest probe (ties break lexicographically, and counter
            // values come from seeded runs, so the cell is stable);
            // otherwise the report is empty and the cell stays bare.
            let report = pkgrec_trace::take();
            let dominant = report
                .dominant_counter()
                .map(|(name, v)| format!("{name}={v}"));
            let breakdown = report.pruned_breakdown();
            let pruned = (!breakdown.is_empty()).then(|| {
                breakdown
                    .iter()
                    .map(|(reason, n)| format!("{reason}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            });
            Point {
                size: s as f64,
                time: t,
                exact,
                dominant,
                pruned,
            }
        })
        .collect();
    Row {
        label: label.to_string(),
        paper: paper.to_string(),
        points,
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xBE9C)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--gadgets") {
        print_gadgets();
        return;
    }
    let _stats_scope = if args.iter().any(|a| a == "--stats") {
        println!(
            "(per-cell solver stats: dominant trace counter, plus the \
             enumerate.pruned.* reason breakdown where the package \
             enumerator ran)\n"
        );
        Some(pkgrec_trace::scoped())
    } else {
        None
    };
    if let Some(pos) = args.iter().position(|a| a == "--deadline-ms") {
        let ms: u64 = match args.get(pos + 1).and_then(|v| v.parse().ok()) {
            Some(ms) => ms,
            None => {
                eprintln!("report: --deadline-ms needs a millisecond count");
                std::process::exit(2);
            }
        };
        DEADLINE_MS.store(ms, Ordering::Relaxed);
        println!("(per-point deadline: {ms} ms; `*` marks censored partial cells)\n");
    }

    println!("═══ Table 8.1 — combined complexity (instance size = formula variables) ═══\n");
    println!("RPP (the recommendation problem):");
    sweep("CQ with Qc (Thm 4.1)", "Πp₂-complete", &[1, 2, 3, 4], |m| {
        let phi = gen::random_sigma2(&mut rng(), m, 2, 3);
        let r = thm4_1::reduce(&phi);
        strict(rpp::is_top_k(&r.instance, &r.selection, &opts()))
    })
    .print();
    sweep("CQ without Qc (Thm 4.5)", "DP-complete", &[2, 3, 4, 5], |n| {
        let pair = gen::random_sat_unsat(&mut rng(), n, 6);
        let r = thm4_5::reduce(&pair);
        strict(rpp::is_top_k(&r.instance, &r.selection, &opts()))
    })
    .print();
    sweep("DATALOGnr (Q3SAT membership)", "PSPACE-complete", &[2, 4, 6, 8], |n| {
        let qbf = gen::random_qbf(&mut rng(), n, n + 1);
        let (db, q) = membership::qbf_to_datalognr(&qbf);
        let (inst, sel) = membership::rpp_from_membership(db, q, pkgrec_data::tuple![]);
        strict(rpp::is_top_k(&inst, &sel, &opts()))
    })
    .print();
    sweep("FO (Q3SAT membership)", "PSPACE-complete", &[2, 4, 6, 8], |n| {
        let qbf = gen::random_qbf(&mut rng(), n, n + 1);
        let (db, q) = membership::qbf_to_fo(&qbf);
        let (inst, sel) = membership::rpp_from_membership(db, q, pkgrec_data::tuple![]);
        strict(rpp::is_top_k(&inst, &sel, &opts()))
    })
    .print();
    sweep("DATALOG (cube closure)", "EXPTIME-complete", &[4, 6, 8, 10], |n| {
        let (db, q) = datalog_cube(n);
        let meter = opts().budget.meter();
        match q.eval_budgeted(&db, &meter) {
            Ok(ans) => {
                std::hint::black_box(ans.len());
                true
            }
            Err(pkgrec_query::QueryError::Interrupted(_)) => false,
            Err(e) => panic!("evaluation failed: {e}"),
        }
    })
    .print();

    println!("\nFRP (computing top-k):");
    sweep("CQ (maximum Σp₂, Thm 5.1)", "FPΣp₂-complete", &[1, 2, 3, 4], |m| {
        let phi = gen::random_sigma2(&mut rng(), m, 2, 3);
        let inst = thm5_1::reduce_maximum_sigma2(&phi);
        anytime(frp::top_k(&inst, &opts()))
    })
    .print();

    println!("\nMBP (maximum bound):");
    sweep("CQ (Σ₂ pair, Thm 5.2)", "Dp₂-complete", &[1, 2, 3], |m| {
        let phi1 = gen::random_sigma2(&mut rng(), m, 1, 2);
        let phi2 = gen::random_sigma2(&mut rng(), 1, m, 2);
        let (inst, b) = thm5_2::reduce_pair(&phi1, &phi2);
        strict(mbp::is_maximum_bound(&inst, b, &opts()))
    })
    .print();

    println!("\nCPP (counting):");
    sweep("CQ with Qc (#Π₁SAT, Thm 5.3)", "#·coNP-complete", &[1, 2, 3, 4], |y| {
        let matrix = gen::random_3dnf(&mut rng(), 2 + y, 3);
        let (inst, b) = thm5_3::reduce_pi1(&matrix, 2);
        anytime(cpp::count_valid(&inst, b, &opts()))
    })
    .print();
    sweep("CQ without Qc (#Σ₁SAT)", "#·NP-complete", &[1, 2, 3, 4], |y| {
        let matrix = gen::random_3cnf(&mut rng(), 2 + y, 3);
        let (inst, b) = thm5_3::reduce_sigma1(&matrix, 2);
        anytime(cpp::count_valid(&inst, b, &opts()))
    })
    .print();

    println!("\nQRPP (query relaxation):");
    sweep("CQ (Thm 7.2)", "Σp₂-complete", &[1, 2, 3, 4], |m| {
        let phi = gen::random_sigma2(&mut rng(), m, 2, 3);
        strict(pkgrec_relax::qrpp(&thm7_2::reduce_sigma2(&phi), &opts()))
    })
    .print();

    println!("\nARPP (adjustments):");
    sweep("CQ (Thm 8.1)", "Σp₂-complete", &[1, 2, 3], |m| {
        let phi = gen::random_sigma2(&mut rng(), m, 2, 3);
        strict(pkgrec_adjust::arpp(&thm8_1::reduce_sigma2(&phi), &opts()))
    })
    .print();

    println!("\n═══ Table 8.2 — data complexity (fixed query, |D| grows) ═══\n");
    println!("Poly-bounded packages vs constant bound Bp = 2 (Corollary 6.1):");
    sweep("FRP, poly-bounded", "FPNP-complete", &[8, 10, 12, 14], |n| {
        // An effectively unbounded budget: the package space is the
        // full powerset of Q(D), the regime the left column of
        // Table 8.2 describes.
        let inst = wrandom::sweep_instance(
            &mut rng(),
            n,
            1e18,
            SizeBound::linear(),
            Constraint::Empty,
        );
        anytime(frp::top_k(&inst, &opts()))
    })
    .print();
    sweep("FRP, constant bound", "FP (PTIME)", &[8, 16, 32, 64], |n| {
        let inst = wrandom::sweep_instance(
            &mut rng(),
            n,
            3.0,
            SizeBound::Constant(2),
            Constraint::Empty,
        );
        anytime(frp::top_k(&inst, &opts()))
    })
    .print();
    sweep("RPP data (Lemma 4.4)", "coNP-complete", &[5, 7, 9, 11], |r| {
        let phi = gen::random_3cnf(&mut rng(), 3, r);
        let red = lemma4_4::rpp_reduce(&phi);
        strict(rpp::is_top_k(&red.instance, &red.selection, &opts()))
    })
    .print();
    sweep("CPP data (#SAT, B = r)", "#·P-complete", &[5, 7, 9, 11], |r| {
        let phi = gen::random_3cnf(&mut rng(), 3, r);
        let (inst, b) = thm5_3::reduce_sharp_sat(&phi);
        anytime(cpp::count_valid(&inst, b, &opts()))
    })
    .print();

    println!("\nItem recommendations stay cheap at any |D| (Theorem 6.4 / Cor. 6.1):");
    sweep("top-3 items", "PTIME / FP", &[100, 400, 1600, 6400], |n| {
        let db = wrandom::item_db(&mut rng(), n, 5);
        let inst = ItemInstance::new(
            db,
            wrandom::fixed_sp_query(),
            ItemUtility::new("score", |t| t[3].as_numeric().unwrap_or(0) as f64),
            3,
        );
        inst.top_k_items().expect("solves");
        true
    })
    .print();

    println!("\nPTIME Qc behaves like absent Qc; query Qc costs the same at fixed |D| (Cor. 6.3):");
    for (label, qc) in [
        ("no Qc", Constraint::Empty),
        ("PTIME Qc", wrandom::distinct_groups_ptime()),
        ("CQ Qc", wrandom::distinct_groups_qc()),
    ] {
        sweep(
            &format!("FRP, Bp = 2, {label}"),
            "same data class",
            &[8, 16, 32],
            |n| {
                let inst = wrandom::sweep_instance(
                    &mut rng(),
                    n,
                    3.0,
                    SizeBound::Constant(2),
                    qc.clone(),
                );
                anytime(frp::top_k(&inst, &opts()))
            },
        )
        .print();
    }

    println!("\nLower bounds survive at k = 1..4 (Section 6 summary):");
    for k in 1..=4usize {
        let phi = gen::random_sigma2(&mut StdRng::seed_from_u64(7), 3, 2, 3);
        let mut inst = thm5_1::reduce_maximum_sigma2(&phi);
        inst.k = k;
        let mut exact = true;
        let t = time_best_of(3, || exact &= anytime(frp::top_k(&inst, &opts())));
        println!("  k = {k}: {t:?}{}", if exact { "" } else { "*" });
    }

}

fn print_gadgets() {
    println!("Figure 4.1 gadget relations:\n");
    for rel in [
        gadgets::i01(),
        gadgets::i_or(),
        gadgets::i_and(),
        gadgets::i_not(),
        gadgets::i_c(),
    ] {
        println!("{rel}");
    }
}
