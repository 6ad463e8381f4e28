//! The `driver-races` family: interrupt-handler and device-state races.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// Two interrupt handlers race to service one pending IRQ: both can read
/// `pending == 1` before either clears it, so the service counter can
/// reach 2. The atomic (test-and-clear) variant is safe.
fn irq(handlers: usize, atomic_tac: bool) -> Task {
    let name = format!(
        "driver-races/irq-{handlers}-{}",
        if atomic_tac { "atomic" } else { "racy" }
    );
    let handler = |h: usize| -> Vec<Stmt> {
        let p = format!("p{h}");
        let s = format!("s{h}");
        let inner = vec![
            assign(&p, v("pending")),
            when(
                eq(v(&p), c(1)),
                vec![
                    assign("pending", c(0)),
                    assign(&s, v("serviced")),
                    assign("serviced", add(v(&s), c(1))),
                ],
            ),
        ];
        if atomic_tac {
            atomic(inner)
        } else {
            inner
        }
    };
    let mut threads: Vec<(String, Vec<Stmt>)> =
        vec![("device".to_string(), vec![assign("pending", c(1))])];
    for h in 0..handlers {
        threads.push((format!("handler{h}"), handler(h)));
    }
    let prog = harness_program(
        &name,
        8,
        &[("pending", 0), ("serviced", 0)],
        &[],
        threads,
        le(v("serviced"), c(1)),
    );
    let expected = if atomic_tac {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::DriverRaces, prog, 1, expected)
}

/// Open/close state machine: `users` threads increment `open_count` under
/// a lock and the device is torn down only when the count returns to zero.
fn open_close(users: usize, locked: bool) -> Task {
    let name = format!(
        "driver-races/openclose-{users}-{}",
        if locked { "locked" } else { "racy" }
    );
    let user = |u: usize| -> Vec<Stmt> {
        let (r1, r2) = (format!("o{u}"), format!("c{u}"));
        let mut s = Vec::new();
        if locked {
            s.push(lock("l"));
        }
        s.push(assign(&r1, v("open_count")));
        s.push(assign("open_count", add(v(&r1), c(1))));
        if locked {
            s.push(unlock("l"));
        }
        // ... use the device ... then close:
        if locked {
            s.push(lock("l"));
        }
        s.push(assign(&r2, v("open_count")));
        s.push(assign("open_count", sub(v(&r2), c(1))));
        if locked {
            s.push(unlock("l"));
        }
        s
    };
    let threads: Vec<(String, Vec<Stmt>)> =
        (0..users).map(|u| (format!("user{u}"), user(u))).collect();
    let prog = harness_program(
        &name,
        8,
        &[("open_count", 0)],
        if locked { &["l"] } else { &[] },
        threads,
        eq(v("open_count"), c(0)),
    );
    let expected = if locked {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::DriverRaces, prog, 1, expected)
}

/// All `driver-races` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![irq(2, false), irq(2, true)],
        Scale::Full => vec![
            irq(2, false),
            irq(2, true),
            irq(3, false),
            irq(3, true),
            irq(4, false),
            irq(4, true),
            open_close(2, true),
            open_close(2, false),
            open_close(3, true),
            open_close(3, false),
            open_close(4, true),
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
        for t in [
            irq(2, false),
            irq(2, true),
            open_close(2, true),
            open_close(2, false),
        ] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            let got = check(&fp, MemoryModel::Sc, Limits::default());
            assert_eq!(got == Outcome::Safe, t.expected.sc.unwrap(), "{}", t.name);
        }
    }
}
