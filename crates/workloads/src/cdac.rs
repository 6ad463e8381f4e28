//! The `C-DAC` family: parallel-computation kernels (partial sums).

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// `workers` threads each add a chunk of `chunk` constants into a shared
/// accumulator under a lock; main checks the exact total.
fn parsum(workers: usize, chunk: usize, locked: bool) -> Task {
    let name = format!(
        "C-DAC/parsum-{workers}x{chunk}-{}",
        if locked { "locked" } else { "racy" }
    );
    let mut total: u64 = 0;
    let mut threads = Vec::new();
    for w in 0..workers {
        let mut body: Vec<Stmt> = Vec::new();
        // Compute the chunk sum locally...
        let acc = format!("acc{w}");
        body.push(assign(&acc, c(0)));
        for i in 0..chunk {
            let val = (w * chunk + i + 1) as u64;
            total = (total + val) & 0xff;
            body.push(assign(&acc, add(v(&acc), c(val))));
        }
        // ...then merge into the shared accumulator.
        let r = format!("r{w}");
        if locked {
            body.push(lock("m"));
        }
        body.push(assign(&r, v("sum")));
        body.push(assign("sum", add(v(&r), v(&acc))));
        if locked {
            body.push(unlock("m"));
        }
        threads.push((format!("w{w}"), body));
    }
    let prog = harness_program(
        &name,
        8,
        &[("sum", 0)],
        if locked { &["m"] } else { &[] },
        threads,
        eq(v("sum"), c(total)),
    );
    let expected = if locked {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::Cdac, prog, 1, expected)
}

/// All `C-DAC` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![parsum(2, 2, true)],
        Scale::Full => vec![
            parsum(2, 2, true),
            parsum(2, 2, false),
            parsum(3, 2, true),
            parsum(3, 2, false),
            parsum(2, 4, true),
            parsum(2, 4, false),
            parsum(4, 2, true),
            parsum(4, 2, false),
            parsum(4, 3, true),
            parsum(3, 4, true),
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
        for t in [parsum(2, 2, true), parsum(2, 2, false)] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let got = check(&fp, MemoryModel::Sc, Limits::default());
            assert_eq!(got == Outcome::Safe, t.expected.sc.unwrap(), "{}", t.name);
        }
    }
}
