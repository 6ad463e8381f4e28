//! The `atomic` family: `__VERIFIER_atomic` section programs.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// Counter increments inside atomic sections (safe), or with one worker's
/// section removed (unsafe).
fn counter(workers: usize, broken: bool) -> Task {
    let name = format!(
        "atomic/counter-{}{}",
        workers,
        if broken { "-broken" } else { "" }
    );
    let body = |w: usize| -> Vec<Stmt> {
        let r = format!("r{w}");
        let inner = vec![assign(&r, v("cnt")), assign("cnt", add(v(&r), c(1)))];
        if broken && w == 0 {
            inner // first worker forgets the atomic section
        } else {
            atomic(inner)
        }
    };
    let threads: Vec<(String, Vec<Stmt>)> =
        (0..workers).map(|w| (format!("w{w}"), body(w))).collect();
    let prog = harness_program(
        &name,
        8,
        &[("cnt", 0)],
        &[],
        threads,
        eq(v("cnt"), c(workers as u64)),
    );
    let expected = if broken {
        Expected::unsafe_all()
    } else {
        Expected::safe_all()
    };
    Task::new(&name, Subcat::Atomic, prog, 1, expected)
}

/// Invariant `x + y == 10` maintained by atomic transfers between `x` and
/// `y`; the checker thread snapshots both atomically.
fn transfer(rounds: usize, broken: bool) -> Task {
    let name = format!(
        "atomic/transfer-{}r{}",
        rounds,
        if broken { "-broken" } else { "" }
    );
    let mut mover = Vec::new();
    for i in 0..rounds {
        let (rx, ry) = (format!("x{i}"), format!("y{i}"));
        let inner = vec![
            assign(&rx, v("x")),
            assign(&ry, v("y")),
            assign("x", sub(v(&rx), c(1))),
            assign("y", add(v(&ry), c(1))),
        ];
        mover.extend(if broken { inner } else { atomic(inner) });
    }
    let checker = atomic(vec![assign("sx", v("x")), assign("sy", v("y"))]);
    let prog = harness_program(
        &name,
        8,
        &[("x", 10), ("y", 0), ("sx", 0), ("sy", 0)],
        &[],
        vec![
            ("mover".to_string(), mover),
            ("checker".to_string(), checker),
        ],
        eq(add(v("sx"), v("sy")), c(10)),
    );
    let expected = if broken {
        Expected::unsafe_all()
    } else {
        Expected::safe_all()
    };
    Task::new(&name, Subcat::Atomic, prog, 1, expected)
}

/// All `atomic` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![counter(2, false), counter(2, true)],
        Scale::Full => vec![
            counter(2, false),
            counter(2, true),
            counter(3, false),
            counter(3, true),
            counter(4, false),
            counter(4, true),
            transfer(1, false),
            transfer(1, true),
            transfer(2, false),
            transfer(2, true),
            transfer(3, false),
            transfer(3, true),
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
    fn oracle_agrees_on_small_instances() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        for t in [
            counter(2, false),
            counter(2, true),
            transfer(1, false),
            transfer(1, true),
        ] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let got = check(&fp, MemoryModel::Sc, Limits::default());
            assert_eq!(got == Outcome::Safe, t.expected.sc.unwrap(), "{}", t.name);
        }
    }
}
