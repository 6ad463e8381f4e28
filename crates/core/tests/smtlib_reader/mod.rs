//! A reader for the SMT-LIB subset `zpre::dump_smtlib` prints, for the
//! round-trip tests: it loads a dump into a fresh CDCL(T) solver over the
//! order theory and solves it, so the dumped text can be checked to be
//! the instance the verifier solves.
//!
//! The subset: `(set-logic QF_IDL)`, `(declare-const NAME Bool|Int)`, and
//! `(assert F)` where `F` is `(< CLK CLK)` (a fixed edge), `(ite V (< A B)
//! (< B A))` (an ordering atom), `false`, a literal, or `(or LIT…)`; then
//! one `(check-sat)`. Anything else panics.

use std::collections::HashMap;
use zpre_sat::{Lit, NoGuide, SolveResult, Solver, Var};
use zpre_smt::{NodeId, OrderTheory};

/// An S-expression: a symbol (bars stripped) or a list.
#[derive(Debug)]
enum Sexp {
    Sym(String),
    List(Vec<Sexp>),
}

fn tokens(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            ';' => while chars.next_if(|&c| c != '\n').is_some() {},
            '(' | ')' => out.push(c.to_string()),
            '|' => {
                let sym: String = chars.by_ref().take_while(|&c| c != '|').collect();
                out.push(format!("|{sym}"));
            }
            c if c.is_whitespace() => {}
            c => {
                let mut sym = c.to_string();
                while let Some(c) = chars.next_if(|&c| !c.is_whitespace() && !"();|".contains(c)) {
                    sym.push(c);
                }
                out.push(sym);
            }
        }
    }
    out
}

fn parse(toks: &[String], at: &mut usize) -> Sexp {
    let tok = &toks[*at];
    *at += 1;
    match tok.as_str() {
        "(" => {
            let mut items = Vec::new();
            while toks[*at] != ")" {
                items.push(parse(toks, at));
            }
            *at += 1;
            Sexp::List(items)
        }
        ")" => panic!("unbalanced ')' at token {}", *at - 1),
        s => Sexp::Sym(s.strip_prefix('|').unwrap_or(s).to_string()),
    }
}

fn sym(e: &Sexp) -> &str {
    match e {
        Sexp::Sym(s) => s,
        Sexp::List(_) => panic!("expected a symbol, got {e:?}"),
    }
}

fn list(e: &Sexp) -> &[Sexp] {
    match e {
        Sexp::List(items) => items,
        Sexp::Sym(_) => panic!("expected a list, got {e:?}"),
    }
}

/// The instance read back from one dump.
struct Instance {
    solver: Solver<OrderTheory, NoGuide>,
    bools: HashMap<String, Var>,
    clocks: HashMap<String, NodeId>,
}

impl Instance {
    fn lit(&self, e: &Sexp) -> Lit {
        match e {
            Sexp::Sym(name) => self.bools[name.as_str()].positive(),
            Sexp::List(items) => {
                assert_eq!(sym(&items[0]), "not", "not a literal: {e:?}");
                !self.lit(&items[1])
            }
        }
    }

    /// The clocks of `(< A B)`.
    fn less(&self, e: &Sexp) -> (NodeId, NodeId) {
        let items = list(e);
        assert_eq!(sym(&items[0]), "<", "not a clock order: {e:?}");
        (self.clocks[sym(&items[1])], self.clocks[sym(&items[2])])
    }

    fn assert(&mut self, f: &Sexp) {
        let head = match f {
            Sexp::List(items) => sym(&items[0]),
            Sexp::Sym(_) => "",
        };
        match head {
            "<" => {
                let (a, b) = self.less(f);
                assert!(
                    self.solver.theory.add_fixed_edge(a, b),
                    "cyclic program order"
                );
            }
            "ite" => {
                let items = list(f);
                let v = self.lit(&items[1]).var();
                let (a, b) = self.less(&items[2]);
                assert_eq!(
                    self.less(&items[3]),
                    (b, a),
                    "else branch is not the reverse"
                );
                self.solver.theory.register_atom(v, a, b);
                self.solver.mark_theory_var(v);
            }
            "or" => {
                let clause: Vec<Lit> = list(f)[1..].iter().map(|l| self.lit(l)).collect();
                self.solver.add_clause(&clause);
            }
            _ if matches!(f, Sexp::Sym(s) if s == "false") => {
                self.solver.add_clause(&[]);
            }
            _ => {
                let unit = self.lit(f);
                self.solver.add_clause(&[unit]);
            }
        }
    }
}

/// Reads `text` into a fresh `Solver<OrderTheory, _>` and answers its
/// `(check-sat)`: `Sat` means the property can be violated.
pub fn solve_dump(text: &str) -> SolveResult {
    let toks = tokens(text);
    let mut at = 0;
    let mut inst = Instance {
        solver: Solver::with_parts(OrderTheory::new(), NoGuide),
        bools: HashMap::new(),
        clocks: HashMap::new(),
    };
    let mut answer = None;
    while at < toks.len() {
        assert!(answer.is_none(), "command after (check-sat)");
        let cmd = parse(&toks, &mut at);
        let items = list(&cmd);
        match sym(&items[0]) {
            "set-logic" => assert_eq!(sym(&items[1]), "QF_IDL"),
            "declare-const" => {
                let name = sym(&items[1]).to_string();
                let fresh = match sym(&items[2]) {
                    "Bool" => {
                        let v = inst.solver.new_var();
                        inst.bools.insert(name.clone(), v).is_none()
                    }
                    "Int" => {
                        let n = inst.solver.theory.add_node();
                        inst.clocks.insert(name.clone(), n).is_none()
                    }
                    sort => panic!("unexpected sort {sort}"),
                };
                assert!(fresh, "{name} declared twice");
                assert!(
                    !(inst.bools.contains_key(&name) && inst.clocks.contains_key(&name)),
                    "{name} declared with two sorts"
                );
            }
            "assert" => inst.assert(&items[1]),
            // A clause that made the formula unsatisfiable at the root
            // leaves the solver answering `Unsat`.
            "check-sat" => answer = Some(inst.solver.solve()),
            other => panic!("unexpected command {other}"),
        }
    }
    answer.expect("the dump ends in (check-sat)")
}
