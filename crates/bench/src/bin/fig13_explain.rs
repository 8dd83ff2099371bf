//! Figures 10 and 13: the plans of the translated queries.
//!
//! * Figure 10 — the optimized merge-placement plan for Q1 (selections on
//!   partitions before merging, projections of unneeded value columns).
//! * Figure 13 — the physical `EXPLAIN` of the rewriting of Q2, as our
//!   engine's optimizer produces it (the paper shows PostgreSQL's plan:
//!   joins keyed on tuple ids with the ψ-conditions as join filters —
//!   look for `ψ(dN, dM)` below: one conjunct per pair of packed
//!   descriptor-entry columns, `dN = dM ∨ var(dN) ≠ var(dM)`).

use urel_bench::HarnessConfig;
use urel_relalg::{explain, optimizer};
use urel_tpch::{generate, q1, q2, GenParams};

fn main() {
    let cfg = HarnessConfig::from_args();
    let scale = if cfg.quick { 0.01 } else { 0.1 };
    let out = generate(&GenParams::paper(scale, 0.1, 0.1)).expect("generation");
    let catalog = out.db.to_catalog();

    println!("# Figure 10: translated + rewritten plan for Q1 (s={scale}, x=0.1, z=0.1)");
    let t1 = urel_core::translate(&out.db, &q1()).expect("translate Q1");
    let opt1 = optimizer::optimize(&t1.plan, &catalog).expect("optimize Q1");
    println!("{}", explain::explain(&opt1, &catalog));

    println!("# Figure 13: EXPLAIN of the rewriting of Q2 (s={scale}, x=0.1, z=0.1)");
    let t2 = urel_core::translate(&out.db, &q2()).expect("translate Q2");
    let opt2 = optimizer::optimize(&t2.plan, &catalog).expect("optimize Q2");
    println!("{}", explain::explain(&opt2, &catalog));

    println!("# Translation size (parsimony, Section 1):");
    println!(
        "#   Q1: logical ops = {}, physical joins = {}",
        q1().op_count(),
        opt1.join_count()
    );
    println!(
        "#   Q2: logical ops = {}, physical joins = {}",
        q2().op_count(),
        opt2.join_count()
    );
}
