//! The `wmm` family: weak-memory litmus tests.
//!
//! This is the paper's dominant subcategory (898 of 1084 programs). We
//! generate the classic litmus shapes with known verdicts under the
//! po-relaxation models (verified against the operational store-buffer
//! checkers in the test-suite):
//!
//! | shape  | SC   | TSO    | PSO    | fenced |
//! |--------|------|--------|--------|--------|
//! | SB     | safe | unsafe | unsafe | safe   |
//! | MP     | safe | safe   | unsafe | safe   |
//! | S      | safe | safe   | unsafe | safe   |
//! | LB     | safe | safe   | safe   | safe   |
//! | 2+2W   | safe | safe   | unsafe | safe   |
//! | IRIW   | safe | safe   | safe   | safe   |
//! | WRC    | safe | safe   | safe   | safe   |
//! | CoRR   | safe | safe   | safe   | safe   |
//!
//! Each shape is emitted plain and fenced, with growing *ballast* (extra
//! cross-thread accesses) to scale instance size without changing the
//! verdict.

use crate::task::{Expected, Scale, Subcat, Task};
use crate::util::{ballast, harness_program};
use zpre_prog::build::*;
use zpre_prog::Stmt;

fn fence_if(yes: bool) -> Vec<Stmt> {
    if yes {
        vec![fence()]
    } else {
        Vec::new()
    }
}

fn with_ballast(
    mut t1: Vec<Stmt>,
    mut t2: Vec<Stmt>,
    shared: Vec<(&str, u64)>,
    b: usize,
) -> (Vec<Stmt>, Vec<Stmt>, Vec<(String, u64)>) {
    let bl = ballast("z", b);
    t1.extend(bl.writer);
    t2.extend(bl.reader);
    let mut sh: Vec<(String, u64)> = shared
        .into_iter()
        .map(|(n, i)| (n.to_string(), i))
        .collect();
    sh.extend(bl.shared);
    (t1, t2, sh)
}

fn two_thread(
    name: &str,
    t1: Vec<Stmt>,
    t2: Vec<Stmt>,
    shared: Vec<(&str, u64)>,
    b: usize,
    property: zpre_prog::BoolExpr,
    expected: Expected,
) -> Task {
    let (t1, t2, sh) = with_ballast(t1, t2, shared, b);
    let shared_refs: Vec<(&str, u64)> = sh.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    let prog = harness_program(
        name,
        8,
        &shared_refs,
        &[],
        vec![("t1".to_string(), t1), ("t2".to_string(), t2)],
        property,
    );
    Task::new(name, Subcat::Wmm, prog, 1, expected)
}

/// Store buffering.
fn sb(fenced: bool, b: usize) -> Task {
    let name = format!("wmm/sb{}-b{b}", if fenced { "-fence" } else { "" });
    let mut t1 = vec![assign("x", c(1))];
    t1.extend(fence_if(fenced));
    t1.push(assign("r1", v("y")));
    let mut t2 = vec![assign("y", c(1))];
    t2.extend(fence_if(fenced));
    t2.push(assign("r2", v("x")));
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, false, false)
    };
    two_thread(
        &name,
        t1,
        t2,
        vec![("x", 0), ("y", 0), ("r1", 0), ("r2", 0)],
        b,
        not(and(eq(v("r1"), c(0)), eq(v("r2"), c(0)))),
        expected,
    )
}

/// Message passing.
fn mp(fenced: bool, b: usize) -> Task {
    let name = format!("wmm/mp{}-b{b}", if fenced { "-fence" } else { "" });
    let mut t1 = vec![assign("data", c(42))];
    t1.extend(fence_if(fenced));
    t1.push(assign("flag", c(1)));
    let t2 = vec![assign("seen", v("flag")), assign("val", v("data"))];
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, true, false)
    };
    two_thread(
        &name,
        t1,
        t2,
        vec![("data", 0), ("flag", 0), ("seen", 0), ("val", 0)],
        b,
        or(eq(v("seen"), c(0)), eq(v("val"), c(42))),
        expected,
    )
}

/// Test S: write-order vs. dependent write.
fn s_shape(fenced: bool, b: usize) -> Task {
    let name = format!("wmm/s{}-b{b}", if fenced { "-fence" } else { "" });
    let mut t1 = vec![assign("x", c(2))];
    t1.extend(fence_if(fenced));
    t1.push(assign("y", c(1)));
    let t2 = vec![
        assign("ry", v("y")),
        when(eq(v("ry"), c(1)), vec![assign("x", c(1))]),
    ];
    // Forbidden: t2 saw y==1 yet the final value of x is 2 (t1's first
    // write overtook its second and t2's dependent write).
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, true, false)
    };
    two_thread(
        &name,
        t1,
        t2,
        vec![("x", 0), ("y", 0), ("ry", 0)],
        b,
        not(and(eq(v("ry"), c(1)), eq(v("x"), c(2)))),
        expected,
    )
}

/// Load buffering (forbidden in every store-buffer model).
fn lb(fenced: bool, b: usize) -> Task {
    let name = format!("wmm/lb{}-b{b}", if fenced { "-fence" } else { "" });
    let mut t1 = vec![assign("r1", v("y"))];
    t1.extend(fence_if(fenced));
    t1.push(assign("x", c(1)));
    let mut t2 = vec![assign("r2", v("x"))];
    t2.extend(fence_if(fenced));
    t2.push(assign("y", c(1)));
    two_thread(
        &name,
        t1,
        t2,
        vec![("x", 0), ("y", 0), ("r1", 0), ("r2", 0)],
        b,
        not(and(eq(v("r1"), c(1)), eq(v("r2"), c(1)))),
        Expected::safe_all(),
    )
}

/// 2+2W: both variables end with the *first* writes.
fn two_plus_two_w(fenced: bool, b: usize) -> Task {
    let name = format!("wmm/2+2w{}-b{b}", if fenced { "-fence" } else { "" });
    let mut t1 = vec![assign("x", c(1))];
    t1.extend(fence_if(fenced));
    t1.push(assign("y", c(2)));
    let mut t2 = vec![assign("y", c(1))];
    t2.extend(fence_if(fenced));
    t2.push(assign("x", c(2)));
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, true, false)
    };
    two_thread(
        &name,
        t1,
        t2,
        vec![("x", 0), ("y", 0)],
        b,
        not(and(eq(v("x"), c(1)), eq(v("y"), c(1)))),
        expected,
    )
}

/// Coherence of reads to one location.
fn corr(b: usize) -> Task {
    let name = format!("wmm/corr-b{b}");
    let t1 = vec![assign("x", c(1)), assign("x", c(2))];
    let t2 = vec![assign("r1", v("x")), assign("r2", v("x"))];
    two_thread(
        &name,
        t1,
        t2,
        vec![("x", 0), ("r1", 0), ("r2", 0)],
        b,
        not(and(eq(v("r1"), c(2)), eq(v("r2"), c(1)))),
        Expected::safe_all(),
    )
}

/// IRIW: independent reads of independent writes (4 threads).
fn iriw(b: usize) -> Task {
    let name = format!("wmm/iriw-b{b}");
    let t1 = vec![assign("x", c(1))];
    let t2 = vec![assign("y", c(1))];
    let mut t3 = vec![assign("a1", v("x")), assign("a2", v("y"))];
    let mut t4 = vec![assign("b1", v("y")), assign("b2", v("x"))];
    let bl = ballast("z", b);
    t3.extend(bl.writer);
    t4.extend(bl.reader);
    let mut shared: Vec<(String, u64)> = ["x", "y", "a1", "a2", "b1", "b2"]
        .iter()
        .map(|n| (n.to_string(), 0))
        .collect();
    shared.extend(bl.shared);
    let shared_refs: Vec<(&str, u64)> = shared.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    // Forbidden: the two reader threads observe the writes in opposite
    // orders (impossible with a single shared memory).
    let prog = harness_program(
        &name,
        8,
        &shared_refs,
        &[],
        vec![
            ("w1".to_string(), t1),
            ("w2".to_string(), t2),
            ("r1".to_string(), t3),
            ("r2".to_string(), t4),
        ],
        not(and(
            and(eq(v("a1"), c(1)), eq(v("a2"), c(0))),
            and(eq(v("b1"), c(1)), eq(v("b2"), c(0))),
        )),
    );
    Task::new(&name, Subcat::Wmm, prog, 1, Expected::safe_all())
}

/// WRC: write-to-read causality (3 threads).
fn wrc(b: usize) -> Task {
    let name = format!("wmm/wrc-b{b}");
    let t1 = vec![assign("x", c(1))];
    let mut t2 = vec![
        assign("rx", v("x")),
        when(eq(v("rx"), c(1)), vec![assign("y", c(1))]),
    ];
    let mut t3 = vec![assign("ry", v("y")), assign("rx2", v("x"))];
    let bl = ballast("z", b);
    t2.extend(bl.writer);
    t3.extend(bl.reader);
    let mut shared: Vec<(String, u64)> = ["x", "y", "rx", "ry", "rx2"]
        .iter()
        .map(|n| (n.to_string(), 0))
        .collect();
    shared.extend(bl.shared);
    let shared_refs: Vec<(&str, u64)> = shared.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    let prog = harness_program(
        &name,
        8,
        &shared_refs,
        &[],
        vec![
            ("w".to_string(), t1),
            ("fwd".to_string(), t2),
            ("obs".to_string(), t3),
        ],
        not(and(eq(v("ry"), c(1)), eq(v("rx2"), c(0)))),
    );
    Task::new(&name, Subcat::Wmm, prog, 1, Expected::safe_all())
}

/// A grid of `n` independent SB pairs inside two threads; the property
/// quantifies over every pair, so the instance grows with `n` while the
/// verdict stays that of plain/fenced SB.
fn sb_grid(n: usize, fenced: bool) -> Task {
    let name = format!("wmm/sb-grid{}-{n}", if fenced { "-fence" } else { "" });
    let mut t1 = Vec::new();
    let mut t2 = Vec::new();
    let mut shared: Vec<(String, u64)> = Vec::new();
    let mut prop = b(true);
    for i in 0..n {
        let (x, y) = (format!("x{i}"), format!("y{i}"));
        let (r1, r2) = (format!("r1_{i}"), format!("r2_{i}"));
        shared.extend([
            (x.clone(), 0),
            (y.clone(), 0),
            (r1.clone(), 0),
            (r2.clone(), 0),
        ]);
        t1.push(assign(&x, c(1)));
        if fenced {
            t1.push(fence());
        }
        t1.push(assign(&r1, v(&y)));
        t2.push(assign(&y, c(1)));
        if fenced {
            t2.push(fence());
        }
        t2.push(assign(&r2, v(&x)));
        prop = and(prop, not(and(eq(v(&r1), c(0)), eq(v(&r2), c(0)))));
    }
    let shared_refs: Vec<(&str, u64)> = shared.iter().map(|(n, i)| (n.as_str(), *i)).collect();
    let prog = harness_program(
        &name,
        8,
        &shared_refs,
        &[],
        vec![("t1".to_string(), t1), ("t2".to_string(), t2)],
        prop,
    );
    let expected = if fenced {
        Expected::safe_all()
    } else {
        Expected::of(true, false, false)
    };
    Task::new(&name, Subcat::Wmm, prog, 1, expected)
}

/// All `wmm` tasks at the given scale.
pub fn tasks(scale: Scale) -> Vec<Task> {
    let ballasts: &[usize] = match scale {
        Scale::Quick => &[0],
        Scale::Full => &[0, 2, 4, 8],
    };
    let mut out = Vec::new();
    for &b in ballasts {
        for fenced in [false, true] {
            out.push(sb(fenced, b));
            out.push(mp(fenced, b));
            out.push(s_shape(fenced, b));
            out.push(lb(fenced, b));
            out.push(two_plus_two_w(fenced, b));
        }
        out.push(corr(b));
        out.push(iriw(b));
        out.push(wrc(b));
    }
    if scale == Scale::Full {
        for n in [2, 3, 4, 5, 6, 7, 8, 9] {
            out.push(sb_grid(n, false));
            out.push(sb_grid(n, true));
        }
    }
    out
}

/// Programs small enough for the operational store-buffer oracle
/// (no ballast; used by cross-validation tests).
pub fn oracle_tasks() -> Vec<Task> {
    let mut out = Vec::new();
    for fenced in [false, true] {
        out.push(sb(fenced, 0));
        out.push(mp(fenced, 0));
        out.push(s_shape(fenced, 0));
        out.push(lb(fenced, 0));
        out.push(two_plus_two_w(fenced, 0));
    }
    out.push(corr(0));
    out.push(wrc(0));
    out
}

/// Validation hook used by tests.
pub fn all_programs_validate() -> bool {
    tasks(Scale::Full)
        .iter()
        .all(|t| t.program.validate().is_ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_validate() {
        assert!(all_programs_validate());
    }

    #[test]
    fn names_are_unique() {
        let ts = tasks(Scale::Full);
        let names: std::collections::BTreeSet<&str> = ts.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names.len(), ts.len());
    }

    #[test]
    fn full_scale_is_larger_than_quick() {
        assert!(tasks(Scale::Full).len() > tasks(Scale::Quick).len());
    }

    fn prog(t: &Task) -> zpre_prog::FlatProgram {
        let u = zpre_prog::unroll_program(&t.program, t.unroll_bound);
        zpre_prog::flatten(&u)
    }

    /// Every litmus verdict table entry must agree with the operational
    /// store-buffer models.
    #[test]
    fn verdicts_match_operational_models() {
        use zpre_prog::{check, Limits, MemoryModel, Outcome};
        for t in oracle_tasks() {
            let fp = prog(&t);
            for mm in MemoryModel::ALL {
                let got = check(&fp, mm, Limits::default());
                assert_ne!(got, Outcome::ResourceLimit, "{} under {mm}", t.name);
                let expected_safe = t.expected.get(mm).unwrap();
                assert_eq!(got == Outcome::Safe, expected_safe, "{} under {mm}", t.name);
            }
        }
    }
}
