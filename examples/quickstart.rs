//! Quickstart: build a small multi-threaded program, verify it under every
//! memory model with the interference-guided strategy, and inspect the
//! solver statistics.
//!
//! ```sh
//! cargo run --release -p zpre --example quickstart
//! ```

use zpre::prelude::*;

fn main() {
    // A racy counter: two workers increment `cnt` without synchronization.
    // The classic lost-update interleaving makes `cnt == 2` fail.
    let inc = vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))];
    let racy = ProgramBuilder::new("racy-counter")
        .shared("cnt", 0)
        .thread("worker-1", inc.clone())
        .thread("worker-2", inc.clone())
        .main(vec![
            spawn(1),
            spawn(2),
            join(1),
            join(2),
            assert_(eq(v("cnt"), c(2))),
        ])
        .build();

    // The same program with a mutex around the increment is correct.
    let guarded: Vec<Stmt> = [lock("m")]
        .into_iter()
        .chain(inc)
        .chain([unlock("m")])
        .collect();
    let locked = ProgramBuilder::new("locked-counter")
        .shared("cnt", 0)
        .mutex("m")
        .thread("worker-1", guarded.clone())
        .thread("worker-2", guarded)
        .main(vec![
            spawn(1),
            spawn(2),
            join(1),
            join(2),
            assert_(eq(v("cnt"), c(2))),
        ])
        .build();

    println!(
        "{:<16} {:<5} {:<8} {:>10} {:>12} {:>10}",
        "program", "mm", "verdict", "decisions", "propagations", "conflicts"
    );
    for program in [&racy, &locked] {
        for mm in MemoryModel::ALL {
            let opts = VerifyOptions::new(mm, Strategy::Zpre);
            let out = verify(program, &opts);
            println!(
                "{:<16} {:<5} {:<8} {:>10} {:>12} {:>10}",
                program.name,
                mm.name(),
                out.verdict.to_string(),
                out.stats.decisions,
                out.stats.propagations,
                out.stats.conflicts,
            );
            // Counterexample executions are replayed through the concrete
            // machine internally: an `unsafe` verdict here is a checked
            // concurrent execution.
        }
    }

    // Compare the baseline (pure VSIDS) against ZPRE on the safe instance —
    // proving safety is where the interference-first order shines.
    println!("\nbaseline vs ZPRE- vs ZPRE on the locked counter (SC):");
    for strategy in [Strategy::Baseline, Strategy::ZpreMinus, Strategy::Zpre] {
        let out = verify(&locked, &VerifyOptions::new(MemoryModel::Sc, strategy));
        println!(
            "  {:<10} {:>10.2?} ({} decisions, {} conflicts)",
            strategy.name(),
            out.solve_time,
            out.stats.decisions,
            out.stats.conflicts
        );
    }
}
