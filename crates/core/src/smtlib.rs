//! SMT-LIB 2 text of the instance the solver solves.
//!
//! In the paper's pipeline the modified CBMC writes the verification
//! condition as an SMT-LIB file with `rf_*`/`ws_*` interference variables,
//! and the modified Z3 solves that same file. [`dump_smtlib`] prints the
//! instance [`crate::try_verify`] solves — the same session, with the same
//! pruning and thread-symmetry clauses — rather than a second derivation
//! of it:
//!
//! - one `Bool` per solver variable, named after its registry entry for
//!   interference variables (`rf_*`, `ws_*`, `ws_cs_*`, `ws_at_*`) and
//!   `v<N>` otherwise;
//! - one `Int` clock `clk!<n>` per event-order-graph node;
//! - `(< clk!a clk!b)` for each fixed program-order edge of the theory;
//! - `(ite v (< clk!a clk!b) (< clk!b clk!a))` for each ordering atom:
//!   integer clocks can be equal, and a false atom means the reverse edge;
//! - every clause the encoding added, verbatim as the solver logged it.
//!
//! The data path appears as its bit-blasted CNF, so the text is in
//! `QF_IDL`: Booleans plus difference constraints over integer clocks, as
//! in Alglave, Kroening and Tautschnig's partial-order encoding. `sat`
//! means the property can be violated within the unroll bound.

use crate::errors::VerifyError;
use crate::session::Session;
use crate::verifier::{front_end, VerifyOptions};
use std::fmt::Write as _;
use zpre_prog::Program;
use zpre_sat::{Lit, Var};

/// Prints the instance that [`crate::try_verify`] solves for `prog` under
/// `opts` (memory model, unroll bound, pruning) as an SMT-LIB 2 script
/// ending in `(check-sat)`. Fails as `try_verify` fails before its first
/// solve: on an invalid program or a refused encoding.
pub fn dump_smtlib(prog: &Program, opts: &VerifyOptions) -> Result<String, VerifyError> {
    let (unrolled, ssa) = front_end(prog, opts)?;
    // Proof logging, which certification turns on, keeps a verbatim copy
    // of every clause the encoding adds.
    let logged = VerifyOptions {
        certify: true,
        ..opts.clone()
    };
    let session = Session::new(&unrolled, &ssa, &logged)?;
    let solver = &session.solver;
    let theory = &solver.theory;

    let names: Vec<String> = (0..solver.num_vars())
        .map(|i| match session.enc.registry.name(Var::new(i as u32)) {
            Some(name) => quote(name),
            None => format!("v{i}"),
        })
        .collect();
    let lit = |l: Lit| {
        let name = &names[l.var().index()];
        if l.sign() {
            name.clone()
        } else {
            format!("(not {name})")
        }
    };
    let clk = |n: zpre_smt::NodeId| format!("clk!{}", n.0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "; {} under {}, unroll bound {}, pruning {}",
        prog.name,
        opts.mm,
        opts.unroll_bound,
        if opts.prune { "on" } else { "off" }
    );
    let _ = writeln!(out, "(set-logic QF_IDL)");
    let _ = writeln!(out, "; ---- variables");
    for name in &names {
        let _ = writeln!(out, "(declare-const {name} Bool)");
    }
    let _ = writeln!(out, "; ---- clocks");
    for n in 0..theory.num_nodes() {
        let _ = writeln!(out, "(declare-const clk!{n} Int)");
    }
    let _ = writeln!(out, "; ---- program order");
    for (a, b) in theory.fixed_edges() {
        let _ = writeln!(out, "(assert (< {} {}))", clk(a), clk(b));
    }
    let _ = writeln!(out, "; ---- ordering atoms");
    for (i, name) in names.iter().enumerate() {
        if let Some((a, b)) = theory.atom_nodes(Var::new(i as u32)) {
            let (a, b) = (clk(a), clk(b));
            let _ = writeln!(out, "(assert (ite {name} (< {a} {b}) (< {b} {a})))");
        }
    }
    let _ = writeln!(out, "; ---- clauses");
    for clause in solver.logged_cnf() {
        let _ = match clause.as_slice() {
            [] => writeln!(out, "(assert false)"),
            [l] => writeln!(out, "(assert {})", lit(*l)),
            ls => {
                let ls: Vec<String> = ls.iter().map(|&l| lit(l)).collect();
                writeln!(out, "(assert (or {}))", ls.join(" "))
            }
        };
    }
    let _ = writeln!(out, "(check-sat)");
    Ok(out)
}

/// `name` as an SMT-LIB symbol: bare when it is a simple symbol, else
/// between bars.
fn quote(name: &str) -> String {
    let simple = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "~!@$%^&*_-+=<>.?/".contains(c))
        && !name.starts_with(|c: char| c.is_ascii_digit());
    if simple && !name.is_empty() {
        name.to_string()
    } else {
        format!("|{name}|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zpre_prog::build::*;
    use zpre_prog::MemoryModel;

    fn fig2_dump(mm: MemoryModel, prune: bool) -> String {
        let p = ProgramBuilder::new("fig2")
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
        let opts = VerifyOptions {
            unroll_bound: 1,
            prune,
            ..VerifyOptions::new(mm, crate::Strategy::Zpre)
        };
        dump_smtlib(&p, &opts).expect("fig2 encodes")
    }

    #[test]
    fn dump_contains_all_sections() {
        let s = fig2_dump(MemoryModel::Sc, true);
        for needle in [
            "(set-logic QF_IDL)",
            "; ---- variables",
            "; ---- clocks",
            "; ---- program order",
            "; ---- ordering atoms",
            "; ---- clauses",
            "(check-sat)",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(s.contains("(assert (ite "), "no ordering atom printed");
        assert!(s.contains("(assert (or "), "no clause printed");
    }

    #[test]
    fn interference_names_follow_the_paper() {
        // Unpruned: pruning fixes every ws pair of this program.
        let s = fig2_dump(MemoryModel::Sc, false);
        assert!(s.contains("(declare-const rf_"), "rf declarations missing");
        assert!(s.contains("(declare-const ws_"), "ws declarations missing");
    }

    #[test]
    fn parens_balance_overall() {
        for mm in MemoryModel::ALL {
            let s = fig2_dump(mm, true);
            let open = s.chars().filter(|&c| c == '(').count();
            let close = s.chars().filter(|&c| c == ')').count();
            assert_eq!(open, close, "{mm}");
        }
    }

    #[test]
    fn wmm_dump_has_more_po_assertions() {
        let count = |s: &str| s.matches("(assert (< clk").count();
        let sc = fig2_dump(MemoryModel::Sc, true);
        let tso = fig2_dump(MemoryModel::Tso, true);
        // TSO relaxes write→read program order but keeps every other pair
        // of these access-only threads, so most fixed edges survive.
        assert!(count(&tso) >= count(&sc) / 2, "unexpected po collapse");
    }

    #[test]
    fn every_clock_is_declared_before_use() {
        let s = fig2_dump(MemoryModel::Pso, true);
        let mut declared = std::collections::HashSet::new();
        for line in s.lines() {
            if let Some(rest) = line.strip_prefix("(declare-const clk!") {
                declared.insert(rest.trim_end_matches(" Int)").to_string());
                continue;
            }
            for (_, tail) in line
                .match_indices("clk!")
                .map(|(i, _)| line.split_at(i + 4))
            {
                let n: String = tail.chars().take_while(char::is_ascii_digit).collect();
                assert!(
                    declared.contains(&n),
                    "clk!{n} used before declared: {line}"
                );
            }
        }
        assert!(!declared.is_empty());
    }

    #[test]
    fn quoting_of_ssa_names() {
        assert_eq!(quote("rf_1_2_0_1"), "rf_1_2_0_1");
        assert_eq!(quote("ws_cs_1_4_2_9"), "ws_cs_1_4_2_9");
        assert_eq!(quote("clk!3"), "clk!3");
        assert_eq!(quote("x[0]"), "|x[0]|");
        assert_eq!(quote("3x"), "|3x|");
        assert_eq!(quote(""), "||");
    }
}
