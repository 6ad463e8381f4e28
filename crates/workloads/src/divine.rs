//! The `divine` family: token-ring coordination programs.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// `n` threads pass a token: thread `i` spins (bounded) until
/// `token == i+1`, then sets `token = i+2`. All traffic is on a single
/// variable, which stays coherent under TSO/PSO, so the ring is safe in
/// every model.
fn ring(n: usize) -> Task {
    let name = format!("divine/ring-{n}");
    let mut threads: Vec<(String, Vec<Stmt>)> = Vec::new();
    for i in 0..n {
        let my = (i + 1) as u64;
        let seen = format!("seen{i}");
        threads.push((
            format!("node{i}"),
            vec![
                assign(&seen, v("token")),
                while_(ne(v(&seen), c(my)), vec![assign(&seen, v("token"))]),
                assign("token", c(my + 1)),
            ],
        ));
    }
    let prog = harness_program(
        &name,
        8,
        &[("token", 1)],
        &[],
        threads,
        eq(v("token"), c(n as u64 + 1)),
    );
    Task::new(
        &name,
        Subcat::Divine,
        prog,
        (2 * n) as u32,
        Expected::safe_all(),
    )
}

/// A broken ring: two nodes race for the same token value, so the final
/// token can skip a step.
fn ring_broken(n: usize) -> Task {
    let name = format!("divine/ring-broken-{n}");
    let mut threads: Vec<(String, Vec<Stmt>)> = Vec::new();
    for i in 0..n {
        // Both node 0 and node 1 wait for token == 1 (the race).
        let my = if i == 0 { 1 } else { i as u64 };
        let seen = format!("seen{i}");
        threads.push((
            format!("node{i}"),
            vec![
                assign(&seen, v("token")),
                while_(ne(v(&seen), c(my)), vec![assign(&seen, v("token"))]),
                assign("token", add(v(&seen), c(1))),
            ],
        ));
    }
    let prog = harness_program(
        &name,
        8,
        &[("token", 1)],
        &[],
        threads,
        eq(v("token"), c(n as u64 + 1)),
    );
    Task::new(
        &name,
        Subcat::Divine,
        prog,
        (2 * n) as u32,
        Expected::unsafe_all(),
    )
}

/// All `divine` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![ring(2), ring_broken(2)],
        Scale::Full => vec![
            ring(2),
            ring(3),
            ring(4),
            ring_broken(2),
            ring_broken(3),
            ring_broken(4),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_validate() {
        for t in tasks(Scale::Full) {
            assert_eq!(t.program.validate(), Ok(()), "{}", t.name);
        }
    }

    #[test]
    fn oracle_agrees() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        for t in [ring(2), ring_broken(2)] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let got = check(&fp, MemoryModel::Sc, Limits::default());
            assert_eq!(got == Outcome::Safe, t.expected.sc.unwrap(), "{}", t.name);
        }
    }
}
