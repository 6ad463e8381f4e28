//! The paper's running example (Figures 2–4): a three-threaded program
//! where `t1` and `t2` increment each other's variable and `main` asserts
//! that not both observation registers stayed zero.
//!
//! The example is *safe under SC* — every interleaving writes at least one
//! of `m`, `n` with a non-zero value — and this binary shows the exact
//! artifacts the paper discusses: the interference-variable inventory
//! (`V_rf`, `V_ws` with the paper's naming scheme), the generated decision
//! order, and the per-strategy search statistics.
//!
//! ```sh
//! cargo run --release -p zpre --example paper_example
//! ```

use zpre::{decision_order, Refinements, Strategy, VerifyOptions};
use zpre_prog::build::*;
use zpre_prog::{to_ssa, unroll_program, MemoryModel};
use zpre_sat::{NoGuide, Solver};
use zpre_smt::{OrderTheory, VarKind};

fn main() {
    // Figure 2 (left), with m and n mirrored into shared variables so the
    // final assertion can read them.
    let program = ProgramBuilder::new("fig2")
        .shared("x", 0)
        .shared("y", 0)
        .shared("m", 0)
        .shared("n", 0)
        .thread(
            "t1",
            vec![assign("x", add(v("y"), c(1))), assign("m", v("y"))],
        )
        .thread(
            "t2",
            vec![assign("y", add(v("x"), c(1))), assign("n", v("x"))],
        )
        .main(vec![
            spawn(1),
            spawn(2),
            join(1),
            join(2),
            assert_(not(and(eq(v("m"), c(0)), eq(v("n"), c(0))))),
        ])
        .build();

    println!("{}", zpre_prog::pretty::pretty_program(&program));

    // Encode once to display the Boolean-abstraction taxonomy of §3.2.
    let unrolled = unroll_program(&program, 1);
    let ssa = to_ssa(&unrolled);
    let mut solver: Solver<OrderTheory, NoGuide> = Solver::with_parts(OrderTheory::new(), NoGuide);
    let enc = zpre_encoder::encode(&ssa, MemoryModel::Sc, &mut solver);

    let counts = enc.registry.class_counts();
    println!("Boolean abstraction (SC):");
    println!("  events                 : {}", ssa.events.len());
    println!("  V_ssa (data-path bits) : {}", counts.ssa);
    println!("  V_ord (ordering atoms) : {}", counts.ord);
    println!("  V_rf  (read-from)      : {}", counts.rf);
    println!("  V_ws  (write-serial.)  : {}", counts.ws);

    println!("\ninterference variables (paper naming: rf_<rt>_<ri>_<wt>_<wi>):");
    for (var, kind) in enc.registry.interference_vars() {
        let detail = match kind {
            VarKind::Rf { external, writes } => format!(
                "rf, {}, #write = {writes}",
                if external { "external" } else { "internal" }
            ),
            VarKind::Ws => "ws".to_string(),
            _ => unreachable!(),
        };
        println!(
            "  {:>5}  {:<24} ({detail})",
            format!("v{}", var.index()),
            enc.registry
                .name(var)
                .expect("interference variables are named")
        );
    }

    println!("\ndecision order (H1–H4):");
    let order = decision_order(&enc.registry, Refinements::all());
    for (rank, vi) in order.iter().take(12).enumerate() {
        let name = enc.registry.name(zpre_sat::Var::new(*vi)).unwrap();
        println!("  {:>3}. {}", rank + 1, name);
    }
    if order.len() > 12 {
        println!("  ... ({} more)", order.len() - 12);
    }

    // Verify under all memory models and strategies.
    println!("\nverification (the example is safe in every model):");
    for mm in MemoryModel::ALL {
        for strategy in Strategy::MAIN {
            let out = zpre::verify(&program, &VerifyOptions::new(mm, strategy));
            println!(
                "  {:<4} {:<9} -> {:<7} ({:>5} decisions, {:>4} conflicts, {:?})",
                mm.name(),
                strategy.name(),
                out.verdict.to_string(),
                out.stats.decisions,
                out.stats.conflicts,
                out.solve_time,
            );
        }
    }
}
