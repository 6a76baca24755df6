//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. OMT search strategy (binary vs. linear) and probe budget (budgeted
//!    vs. exact) — runtime and attained objective value,
//! 2. the optimized two-CNOT KAK specialization vs. the paper's generic
//!    three-CZ circuit — adapted-circuit fidelity and duration.

use qca_adapt::model::solve_model;
use qca_adapt::preprocess::preprocess;
use qca_adapt::rules::{evaluate_substitutions, RuleOptions};
use qca_adapt::{adapt, AdaptContext, AdaptOptions, Objective};
use qca_bench::{metrics, pct_change};
use qca_hw::{spin_qubit_model, GateTimes};
use qca_smt::omt::Strategy;
use qca_workloads::{random_template_circuit, DEFAULT_TEMPLATE_GATES};
use std::time::Instant;

fn main() {
    let hw = spin_qubit_model(GateTimes::D0);
    let circuit = random_template_circuit(3, 20, 7, &DEFAULT_TEMPLATE_GATES, true);
    let pre = preprocess(&circuit, &hw).expect("preprocess");
    let catalog = evaluate_substitutions(&pre, &hw, &RuleOptions::default()).expect("rules");

    println!("== ablation 1: OMT strategy x probe budget (SAT P, 3q depth-20) ==");
    println!(
        "{:<22}{:>10}{:>14}{:>10}{:>9}",
        "configuration", "time [s]", "objective", "queries", "optimal"
    );
    // The budgeted rows run the default per-probe budget
    // (`DEFAULT_PROBE_BUDGET`, 2k conflicts on this small model).
    for (name, strategy, exact) in [
        ("binary / budget 2k", Strategy::BinarySearch, false),
        ("linear / budget 2k", Strategy::LinearSearch, false),
        ("binary / exact", Strategy::BinarySearch, true),
        ("linear / exact", Strategy::LinearSearch, true),
    ] {
        let t = Instant::now();
        let ctx = AdaptContext {
            options: AdaptOptions {
                objective: Objective::Combined,
                strategy,
                exact,
                ..AdaptOptions::default()
            },
            ..AdaptContext::default()
        };
        let r = solve_model(&pre, &hw, &catalog, &ctx).expect("solve");
        println!(
            "{:<22}{:>10.2}{:>14}{:>10}{:>9}",
            name,
            t.elapsed().as_secs_f64(),
            r.objective_value,
            r.queries,
            r.optimal
        );
    }

    println!("\n== ablation 2: generic 3-CZ KAK vs optimized 2-CZ specialization ==");
    println!(
        "{:<16}{:>14}{:>14}{:>16}{:>16}",
        "circuit", "fid generic", "fid optimized", "dur generic", "dur optimized"
    );
    for (name, c) in [
        (
            "rand-3q-d20",
            random_template_circuit(3, 20, 7, &DEFAULT_TEMPLATE_GATES, true),
        ),
        (
            "rand-4q-d20",
            random_template_circuit(4, 20, 8, &DEFAULT_TEMPLATE_GATES, true),
        ),
    ] {
        let generic =
            adapt(&c, &hw, &AdaptContext::with_objective(Objective::Fidelity)).expect("generic");
        let mut ctx = AdaptContext::with_objective(Objective::Fidelity);
        ctx.options.rules.optimized_kak = true;
        let optimized = adapt(&c, &hw, &ctx).expect("optimized");
        let mg = metrics(&generic.circuit, &hw);
        let mo = metrics(&optimized.circuit, &hw);
        println!(
            "{:<16}{:>14.5}{:>14.5}{:>13.0} ns{:>13.0} ns",
            name, mg.gate_fidelity, mo.gate_fidelity, mg.duration, mo.duration
        );
        let delta = pct_change(mo.gate_fidelity, mg.gate_fidelity);
        println!("{:<16}fidelity delta from specialization: {delta:+.2}%", "");
    }
}
