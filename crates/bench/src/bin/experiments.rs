//! Regenerates the experiment tables T1–T5.
//!
//! ```text
//! cargo run -p fourcycle-bench --release --bin experiments            # all tables
//! cargo run -p fourcycle-bench --release --bin experiments -- --table t4
//! ```
//!
//! T1–T3 reproduce the paper's quantitative claims exactly (parameters and
//! Appendix B constraint checks); T4 measures the per-update work scaling of
//! the implemented engines; T5 cross-validates every engine, the §8
//! reduction and the cyclic-join (IVM) reading of the layered count on
//! randomized streams.
//!
//! Exits nonzero on an unknown or missing table name, on a `VIOLATED` T3
//! constraint and on a `FAIL`ed T5 check.

use fourcycle_bench::{fit_log_slope, format_table, run_layered_workload, ScalingPoint};
use fourcycle_complexity::verify::Regime;
use fourcycle_complexity::{
    solve_main, solve_warmup, verify_main, verify_warmup, IdealModel, SquareReductionModel,
    OMEGA_CURRENT_BEST, OMEGA_STRASSEN, PAPER_EPS1_CURRENT, PAPER_EPS1_IDEAL, PAPER_EPS2_CURRENT,
    PAPER_EPS2_IDEAL, PAPER_EPS_CURRENT, PAPER_EPS_IDEAL,
};
use fourcycle_core::{EngineKind, FourCycleCounter, LayeredCycleCounter};
use fourcycle_graph::{GeneralGraph, LayeredGraph};
use fourcycle_workloads::{
    GeneralStreamConfig, GeneralStreamKind, LayeredStreamConfig, LayeredStreamKind,
};
use std::process::ExitCode;

const USAGE: &str = "usage: experiments [--table t1|t2|t3|t4|t5]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let table = match args.as_slice() {
        [] => None,
        [flag, name] if flag == "--table" => Some(name.to_lowercase()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &table {
        if !["t1", "t2", "t3", "t4", "t5"].contains(&t.as_str()) {
            eprintln!("unknown table {t:?}; {USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let run = |name: &str| table.as_deref().is_none_or(|t| t == name);

    let mut held = true;
    if run("t1") {
        table_t1();
    }
    if run("t2") {
        table_t2();
    }
    if run("t3") && !table_t3() {
        eprintln!("T3: an Appendix B constraint is VIOLATED");
        held = false;
    }
    if run("t4") {
        table_t4();
    }
    if run("t5") && !table_t5() {
        eprintln!("T5: a correctness check FAILed");
        held = false;
    }
    if held {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// T1 — main-algorithm parameters (Theorem 1/2, §4).
fn table_t1() {
    println!("== T1: main-algorithm parameters ε, δ and the update exponent 2/3−ε ==");
    println!("   (paper: ε = 0.009811 at ω = 2.371339; ε = 1/24, δ = 1/8 at ω = 2; no improvement for ω ≥ 2.5)\n");
    let mut rows = Vec::new();
    for &(label, omega) in &[
        ("ideal ω = 2", 2.0),
        ("current best ω = 2.371339", OMEGA_CURRENT_BEST),
        ("ω = 2.5 (breaking point)", 2.5),
        ("Strassen ω = 2.8074", OMEGA_STRASSEN),
        ("schoolbook ω = 3", 3.0),
    ] {
        let p = solve_main(omega);
        rows.push(vec![
            label.to_string(),
            format!("{:.7}", p.eps),
            format!("{:.7}", p.delta),
            format!("{:.6}", p.update_exponent()),
            if p.eps > 0.0 {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "exponent model",
                "ε",
                "δ",
                "update exponent",
                "beats m^(2/3)?"
            ],
            &rows
        )
    );
    println!(
        "paper-claimed ε: current = {PAPER_EPS_CURRENT}, ideal = {PAPER_EPS_IDEAL:.7} (= 1/24)\n"
    );
}

/// T2 — warm-up algorithm parameters (§3.4).
fn table_t2() {
    println!("== T2: warm-up algorithm parameters ε1, ε2 given ε (§3.4) ==");
    println!("   (paper: ε1 = 0.04201965, ε2 = 0.14568075 with the current rectangular bounds;");
    println!("           ε1 = 1/24, ε2 = 5/24 with the best possible bounds)\n");
    let ideal = solve_warmup(&IdealModel, PAPER_EPS_IDEAL);
    let blocked = solve_warmup(
        &SquareReductionModel::new(OMEGA_CURRENT_BEST),
        PAPER_EPS_CURRENT,
    );
    let rows = vec![
        vec![
            "ideal ω(a,b,c) = max(a+b, b+c, a+c)".to_string(),
            format!("{:.7}", ideal.eps1),
            format!("{:.7}", ideal.eps2),
            format!("{:.7} / {:.7}", PAPER_EPS1_IDEAL, PAPER_EPS2_IDEAL),
        ],
        vec![
            "blocking reduction at ω = 2.371339 (implementable)".to_string(),
            format!("{:.7}", blocked.eps1),
            format!("{:.7}", blocked.eps2),
            format!(
                "{:.7} / {:.7} (needs sharper rectangular bounds)",
                PAPER_EPS1_CURRENT, PAPER_EPS2_CURRENT
            ),
        ],
    ];
    println!(
        "{}",
        format_table(
            &[
                "rectangular-exponent model",
                "solved ε1",
                "solved ε2",
                "paper ε1 / ε2"
            ],
            &rows
        )
    );
    println!("The blocking-reduction row is weaker than the paper's quoted rectangular bounds by design;");
    println!("T3 verifies the paper's own values against its quoted ω(·,·,·) numbers.\n");
}

/// T3 — Appendix B constraint verification. Returns whether every
/// constraint holds.
fn table_t3() -> bool {
    println!("== T3: Appendix B constraint verification ==\n");
    let mut held = true;
    for (label, checks) in [
        (
            "main algorithm, current best ω",
            verify_main(Regime::CurrentBest),
        ),
        ("main algorithm, ideal ω", verify_main(Regime::Ideal)),
        (
            "warm-up algorithm, current best bounds",
            verify_warmup(Regime::CurrentBest),
        ),
        (
            "warm-up algorithm, ideal bounds",
            verify_warmup(Regime::Ideal),
        ),
    ] {
        println!("-- {label}");
        held &= checks.iter().all(|c| c.satisfied);
        let rows: Vec<Vec<String>> = checks
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    format!("{:.13}", c.lhs),
                    format!("{:.13}", c.rhs),
                    if c.satisfied {
                        "ok".into()
                    } else {
                        "VIOLATED".into()
                    },
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(&["constraint", "lhs", "rhs", "status"], &rows)
        );
    }
    held
}

/// T4 — per-update work scaling of the implemented engines.
fn table_t4() {
    println!("== T4: per-update counted work vs m (uniform layered streams, n per layer ≈ (2·updates)^(2/3)) ==\n");
    let sizes: &[usize] = &[2_000, 4_000, 8_000, 16_000];
    let engines = [
        EngineKind::Simple,
        EngineKind::Threshold,
        EngineKind::Fmm,
        EngineKind::Auto,
    ];
    let mut rows = Vec::new();
    let mut slopes = Vec::new();
    for &kind in &engines {
        let mut points = Vec::new();
        for &updates in sizes {
            let layer_size = ((2.0 * updates as f64).powf(2.0 / 3.0).ceil() as u32).max(8);
            let stream = LayeredStreamConfig {
                layer_size,
                updates,
                delete_prob: 0.2,
                kind: LayeredStreamKind::HubSkewed {
                    hubs: 3,
                    hub_prob: 0.3,
                },
                seed: 1234,
            }
            .generate();
            let run = run_layered_workload(kind, &stream);
            points.push(ScalingPoint {
                m: run.final_edges as f64,
                cost: run.work_per_update,
            });
            rows.push(vec![
                kind.name().to_string(),
                updates.to_string(),
                run.final_edges.to_string(),
                format!("{:.1}", run.work_per_update),
                run.max_work_per_update.to_string(),
                format!("{:.3}", run.seconds),
                format!("{}", run.final_count),
            ]);
        }
        slopes.push((kind.name(), fit_log_slope(&points)));
    }
    println!(
        "{}",
        format_table(
            &[
                "engine",
                "updates",
                "final m",
                "mean work/update",
                "max work/update",
                "seconds",
                "final count"
            ],
            &rows
        )
    );
    println!("fitted log-log slopes of mean work/update vs m (the empirical update exponent):");
    for (name, slope) in slopes {
        println!("  {name:<18} {slope:+.3}");
    }
    println!(
        "expected ordering: simple ≳ threshold ≈ fmm, with threshold/fmm near the 2/3 exponent;"
    );
    println!(
        "auto reads like simple while its rotations hold fewer edges than its switch point (ADR-011),"
    );
    println!("and like fmm, plus one rebuild per rotation, once they hold more");
    println!("(the ε ≈ 0.01–0.04 gap between threshold and fmm is certified by T1, not by measurement).\n");
}

/// T5 — correctness / equivalence matrix. Returns whether every check
/// passes.
fn table_t5() -> bool {
    println!("== T5: correctness and equivalence checks ==\n");
    let mut rows = Vec::new();

    // Layered: all engines agree with each other and with brute force.
    let stream = LayeredStreamConfig {
        layer_size: 24,
        updates: 1_500,
        delete_prob: 0.3,
        kind: LayeredStreamKind::HubSkewed {
            hubs: 2,
            hub_prob: 0.5,
        },
        seed: 99,
    }
    .generate();
    let runs: Vec<_> = [
        EngineKind::Simple,
        EngineKind::Threshold,
        EngineKind::Fmm,
        EngineKind::FmmDense,
        EngineKind::Auto,
    ]
    .iter()
    .map(|&k| run_layered_workload(k, &stream))
    .collect();
    let all_equal = runs
        .windows(2)
        .all(|w| w[0].final_count == w[1].final_count);
    rows.push(vec![
        "layered counters agree across engines (Theorem 2)".to_string(),
        format!("count = {}", runs[0].final_count),
        if all_equal {
            "PASS".into()
        } else {
            "FAIL".into()
        },
    ]);

    // General graph: §8 reduction vs brute force on a power-law stream.
    let gstream = GeneralStreamConfig {
        vertices: 60,
        updates: 600,
        kind: GeneralStreamKind::PreferentialAttachment { churn: 0.15 },
        seed: 7,
        ..Default::default()
    }
    .generate();
    // The oracle replays the accepted updates into a graph of its own. The
    // auto counter crosses its switch point on this stream.
    for kind in [EngineKind::Fmm, EngineKind::Auto] {
        let mut counter = FourCycleCounter::new(kind);
        let mut reference = GeneralGraph::new();
        for u in &gstream {
            if counter.apply(*u).is_some() {
                reference.apply(u);
            }
        }
        let brute = reference.count_4cycles_brute_force();
        rows.push(vec![
            format!(
                "general-graph counter ({}) equals brute force (Theorem 1, §8 reduction)",
                kind.name()
            ),
            format!("count = {} vs {}", counter.count(), brute),
            if counter.count() == brute {
                "PASS".into()
            } else {
                "FAIL".into()
            },
        ]);
    }

    // Layered auto counter across its switch: every rotation of this
    // stream ends past the switch point.
    let stream = LayeredStreamConfig {
        layer_size: 48,
        updates: 3_000,
        delete_prob: 0.2,
        kind: LayeredStreamKind::HubSkewed {
            hubs: 2,
            hub_prob: 0.3,
        },
        seed: 11,
    }
    .generate();
    let mut counter = LayeredCycleCounter::new(EngineKind::Auto);
    let mut reference = LayeredGraph::new();
    for u in &stream {
        if counter.apply(*u).is_some() {
            reference.apply(u);
        }
    }
    let brute = reference.count_layered_4cycles_brute_force();
    // Before its switch an auto engine has no slow paths, so an era
    // rebuild shows that a rotation switched.
    let rebuilds = counter.slow_path_stats().era_rebuilds;
    rows.push(vec![
        "auto layered counter equals brute force after its switch (ADR-011)".to_string(),
        format!(
            "count = {} vs {}, {rebuilds} era rebuilds",
            counter.count(),
            brute
        ),
        if counter.count() == brute && rebuilds > 0 {
            "PASS".into()
        } else {
            "FAIL".into()
        },
    ]);

    // IVM view: on a relational tuple stream the layered count is the
    // cyclic join size, and equals recomputation (§1, §2.2 equivalence).
    let mut view = LayeredCycleCounter::new(EngineKind::Threshold);
    let jstream = LayeredStreamConfig {
        layer_size: 16,
        updates: 800,
        delete_prob: 0.25,
        kind: LayeredStreamKind::Relational,
        seed: 5,
    }
    .generate();
    let mut reference = LayeredGraph::new();
    for u in &jstream {
        if view.apply(*u).is_some() {
            reference.apply(u);
        }
    }
    let recomputed = reference.count_layered_4cycles_brute_force();
    rows.push(vec![
        "cyclic-join IVM view (layered counter) equals recomputed join size (§1/§2.2)".to_string(),
        format!("|A⋈B⋈C⋈D| = {} vs {}", view.count(), recomputed),
        if view.count() == recomputed {
            "PASS".into()
        } else {
            "FAIL".into()
        },
    ]);

    println!("{}", format_table(&["check", "values", "status"], &rows));
    rows.iter().all(|row| row[2] == "PASS")
}
