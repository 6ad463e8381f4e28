//! Synthetic workload families the A/B pairs (`ab-bench`) and `perfbench`
//! use beyond the paper suite proper.

use zpre_prog::build::*;
use zpre_prog::{Program, Stmt};
use zpre_workloads::{Expected, Subcat, Task};

/// Builds `n` threads racing `steps` lossy increments on `cnt`, joined
/// by main before `check` runs.
fn contended_program(name: &str, n: usize, steps: u64, check: Stmt) -> Program {
    let body: Vec<Stmt> = (0..steps)
        .flat_map(|_| vec![assign("r", v("cnt")), assign("cnt", add(v("r"), c(1)))])
        .collect();
    let mut b = ProgramBuilder::new(name).shared("cnt", 0);
    for t in 0..n {
        b = b.thread(&format!("w{t}"), body.clone());
    }
    let mut main: Vec<Stmt> = (1..=n).map(spawn).collect();
    main.extend((1..=n).map(join));
    main.push(check);
    b.main(main).build()
}

/// Programs whose proofs force the solver through long refutations:
/// `n` threads race lossy increments, and the safe variant's assertion
/// states the bound that holds in every interleaving, so the search must
/// exhaust the read-from space (learning EOG-cycle lemmas along the way).
/// An unsafe variant rides along so Sat rows are paired too. The spawn/join
/// fan shape also makes the family join-heavy: every worker write is
/// must-happen-before the main-thread check.
pub fn contended_family(width: usize) -> Vec<Task> {
    let steps = 3u64;
    let mut tasks = Vec::new();
    for n in 2..=width.max(2) {
        let total = n as u64 * steps;
        // Lossy increments never exceed n*steps: safe in every
        // interleaving, but proving it walks the whole rf space.
        tasks.push(Task::new(
            format!("contended/le{n}"),
            Subcat::Ext,
            contended_program(
                &format!("contended-le{n}"),
                n,
                steps,
                assert_(le(v("cnt"), c(total))),
            ),
            1,
            Expected::safe_all(),
        ));
        // The exact total is racy: lost updates make it reachable to miss.
        tasks.push(Task::new(
            format!("contended/eq{n}"),
            Subcat::Ext,
            contended_program(
                &format!("contended-eq{n}"),
                n,
                steps,
                assert_(eq(v("cnt"), c(total))),
            ),
            1,
            Expected::unsafe_all(),
        ));
    }
    tasks
}

/// Loopy tasks exercising a sweep's marker frames proper (the stress and
/// wmm families are loop-free and collapse to a single frame): counting
/// loops with the bug at depth `k*`, a loop safe at every bound, and a
/// threaded producer racing a loop.
pub fn loopy_family() -> Vec<Task> {
    let mut tasks = Vec::new();
    for kstar in [2u64, 3, 4, 5] {
        let name = format!("kstar{kstar}");
        let p = ProgramBuilder::new(&name)
            .shared("x", 0)
            .main(vec![
                while_(lt(v("x"), c(kstar)), vec![assign("x", add(v("x"), c(1)))]),
                assert_(ne(v("x"), c(kstar))),
            ])
            .build();
        tasks.push(Task::new(
            format!("loopy/kstar{kstar}"),
            Subcat::Ext,
            p,
            6,
            Expected::unsafe_all(),
        ));
    }
    let safe = ProgramBuilder::new("safe-loop")
        .width(8)
        .shared("x", 0)
        .main(vec![
            while_(lt(v("x"), c(10)), vec![assign("x", add(v("x"), c(1)))]),
            assert_(le(v("x"), c(10))),
        ])
        .build();
    tasks.push(Task::new(
        "loopy/safe-loop",
        Subcat::Ext,
        safe,
        6,
        Expected::safe_all(),
    ));
    let threaded = ProgramBuilder::new("threaded-loop")
        .shared("cnt", 0)
        .thread(
            "w",
            vec![while_(
                lt(v("cnt"), c(2)),
                vec![assign("cnt", add(v("cnt"), c(1)))],
            )],
        )
        .main(vec![spawn(1), join(1), assert_(ne(v("cnt"), c(2)))])
        .build();
    tasks.push(Task::new(
        "loopy/threaded-loop",
        Subcat::Ext,
        threaded,
        6,
        Expected::unsafe_all(),
    ));
    tasks
}
