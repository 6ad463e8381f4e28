//! The `ldv-races` family: Linux-driver style registration races
//! (data prepared, then a ready flag published; readers check the flag).

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::harness_program;
use zpre_prog::build::*;
use zpre_prog::Stmt;

/// Handler registration: the driver prepares `cfg` fields and publishes
/// `registered = 1`; the kernel thread calls the handler only when it sees
/// the flag. Without a fence (or lock) the publish can overtake the data
/// under PSO.
fn register(fields: usize, sync: Sync) -> Task {
    let name = format!("ldv-races/register-{fields}-{}", sync.tag());
    let mut driver: Vec<Stmt> = Vec::new();
    if sync == Sync::Lock {
        driver.push(lock("l"));
    }
    for i in 0..fields {
        driver.push(assign(&format!("cfg{i}"), c(i as u64 + 10)));
    }
    if sync == Sync::Fence {
        driver.push(fence());
    }
    driver.push(assign("registered", c(1)));
    if sync == Sync::Lock {
        driver.push(unlock("l"));
    }

    let mut kernel: Vec<Stmt> = Vec::new();
    if sync == Sync::Lock {
        kernel.push(lock("l"));
    }
    kernel.push(assign("seen", v("registered")));
    let mut call = Vec::new();
    for i in 0..fields {
        call.push(assign(&format!("k{i}"), v(&format!("cfg{i}"))));
    }
    kernel.push(when(eq(v("seen"), c(1)), call));
    if sync == Sync::Lock {
        kernel.push(unlock("l"));
    }

    let mut shared: Vec<(String, u64)> =
        vec![("registered".to_string(), 0), ("seen".to_string(), 0)];
    for i in 0..fields {
        shared.push((format!("cfg{i}"), 0));
        shared.push((format!("k{i}"), 0));
    }
    let shared_refs: Vec<(&str, u64)> = shared.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    // If the handler ran, every field it read must be initialized.
    let mut prop = b(true);
    for i in 0..fields {
        prop = and(prop, eq(v(&format!("k{i}")), c(i as u64 + 10)));
    }
    let prog = harness_program(
        &name,
        8,
        &shared_refs,
        if sync == Sync::Lock { &["l"] } else { &[] },
        vec![
            ("driver".to_string(), driver),
            ("kernel".to_string(), kernel),
        ],
        or(eq(v("seen"), c(0)), prop),
    );
    let expected = match sync {
        Sync::None => Expected::of(true, true, false), // MP shape
        Sync::Fence | Sync::Lock => Expected::safe_all(),
    };
    Task::new(&name, Subcat::LdvRaces, prog, 1, expected)
}

/// Reference-count race: two threads do get/put on a counter without a
/// lock — the classic lost-update race (unsafe everywhere). The locked
/// variant is safe.
fn refcount(locked: bool) -> Task {
    let name = format!(
        "ldv-races/refcount-{}",
        if locked { "locked" } else { "racy" }
    );
    let op = |w: usize, delta_pos: bool| -> Vec<Stmt> {
        let r = format!("r{w}");
        let expr = if delta_pos {
            add(v(&r), c(1))
        } else {
            sub(v(&r), c(1))
        };
        let mut s = Vec::new();
        if locked {
            s.push(lock("l"));
        }
        s.push(assign(&r, v("refs")));
        s.push(assign("refs", expr));
        if locked {
            s.push(unlock("l"));
        }
        s
    };
    let prog = harness_program(
        &name,
        8,
        &[("refs", 1)],
        if locked { &["l"] } else { &[] },
        vec![
            ("get".to_string(), op(0, true)),
            ("put".to_string(), op(1, false)),
        ],
        eq(v("refs"), c(1)),
    );
    let expected = if locked {
        Expected::safe_all()
    } else {
        Expected::unsafe_all()
    };
    Task::new(&name, Subcat::LdvRaces, prog, 1, expected)
}

/// All `ldv-races` tasks.
pub fn tasks(scale: Scale) -> Vec<Task> {
    match scale {
        Scale::Quick => vec![register(1, Sync::None), refcount(true)],
        Scale::Full => vec![
            register(1, Sync::None),
            register(1, Sync::Fence),
            register(1, Sync::Lock),
            register(2, Sync::None),
            register(2, Sync::Fence),
            register(2, Sync::Lock),
            refcount(true),
            refcount(false),
        ],
    }
}

/// Synchronization flavor of the registration pattern.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Sync {
    /// No synchronization (publish may overtake data under PSO).
    None,
    /// Fence between data and publish.
    Fence,
    /// Both sides under one lock.
    Lock,
}

impl Sync {
    fn tag(self) -> &'static str {
        match self {
            Sync::None => "plain",
            Sync::Fence => "fence",
            Sync::Lock => "lock",
        }
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
            register(1, Sync::None),
            register(1, Sync::Fence),
            refcount(false),
        ] {
            let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
            let fp = zpre_prog::flatten(&u);
            for mm in MemoryModel::ALL {
                let got = check(&fp, mm, Limits::default());
                assert_eq!(
                    got == Outcome::Safe,
                    t.expected.get(mm).unwrap(),
                    "{} {mm}",
                    t.name
                );
            }
        }
    }
}
