//! SMT-LIB 2 rendering of terms.
//!
//! The paper's pipeline exchanges SMT-LIB v2.6 files between the modified
//! CBMC and the modified Z3; this module provides the term-level printer
//! used by `zpre-encoder`'s verification-condition dump, so encoded
//! instances can be inspected or handed to external solvers.

use crate::term::{TermId, TermKind, TermStore};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Collects the free variables of a term: `(name, width)` for bit-vectors
/// (`width == 0` marks a Boolean).
pub fn free_vars(ts: &TermStore, roots: &[TermId]) -> BTreeMap<String, u32> {
    let mut out = BTreeMap::new();
    let mut stack: Vec<TermId> = roots.to_vec();
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        match ts.kind(t) {
            TermKind::BoolVar(name) => {
                out.insert(name.clone(), 0);
            }
            TermKind::BvVar { name, width } => {
                out.insert(name.clone(), *width);
            }
            kind => stack.extend(kind.children()),
        }
    }
    out
}

/// Quotes a name for SMT-LIB (symbols with `!`, `[`, `]`, `@` need `|…|`).
pub fn quote(name: &str) -> String {
    if name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
        && !name.is_empty()
        && !name.chars().next().unwrap().is_ascii_digit()
    {
        name.to_string()
    } else {
        format!("|{name}|")
    }
}

/// Renders a term as an SMT-LIB expression. Shared subterms are rendered
/// once via `let`-free duplication (hash-consing keeps the tree small for
/// our instances); a memo avoids exponential re-rendering.
pub fn term_to_smtlib(ts: &TermStore, t: TermId) -> String {
    let mut memo: HashMap<TermId, String> = HashMap::new();
    render(ts, t, &mut memo)
}

fn render(ts: &TermStore, t: TermId, memo: &mut HashMap<TermId, String>) -> String {
    if let Some(s) = memo.get(&t) {
        return s.clone();
    }
    use TermKind::*;
    let bin = |op: &str, a: TermId, b: TermId, memo: &mut HashMap<TermId, String>| {
        format!("({op} {} {})", render(ts, a, memo), render(ts, b, memo))
    };
    let s = match ts.kind(t).clone() {
        BoolConst(true) => "true".to_string(),
        BoolConst(false) => "false".to_string(),
        BoolVar(name) => quote(&name),
        BvConst { value, width } => {
            let mut s = String::new();
            let _ = write!(s, "#b");
            for i in (0..width).rev() {
                s.push(if value >> i & 1 == 1 { '1' } else { '0' });
            }
            s
        }
        BvVar { name, .. } => quote(&name),
        Not(a) => format!("(not {})", render(ts, a, memo)),
        And(a, b) => bin("and", a, b, memo),
        Or(a, b) => bin("or", a, b, memo),
        Xor(a, b) => bin("xor", a, b, memo),
        Implies(a, b) => bin("=>", a, b, memo),
        Iff(a, b) => bin("=", a, b, memo),
        BoolIte(c, a, b) | BvIte(c, a, b) => format!(
            "(ite {} {} {})",
            render(ts, c, memo),
            render(ts, a, memo),
            render(ts, b, memo)
        ),
        BvAdd(a, b) => bin("bvadd", a, b, memo),
        BvSub(a, b) => bin("bvsub", a, b, memo),
        BvMul(a, b) => bin("bvmul", a, b, memo),
        BvNeg(a) => format!("(bvneg {})", render(ts, a, memo)),
        BvNot(a) => format!("(bvnot {})", render(ts, a, memo)),
        BvAnd(a, b) => bin("bvand", a, b, memo),
        BvOr(a, b) => bin("bvor", a, b, memo),
        BvXor(a, b) => bin("bvxor", a, b, memo),
        BvShlConst(a, by) => {
            let w = ts.width(t);
            format!(
                "(bvshl {} {})",
                render(ts, a, memo),
                render_const(by as u64, w)
            )
        }
        BvLshrConst(a, by) => {
            let w = ts.width(t);
            format!(
                "(bvlshr {} {})",
                render(ts, a, memo),
                render_const(by as u64, w)
            )
        }
        Eq(a, b) => bin("=", a, b, memo),
        Ult(a, b) => bin("bvult", a, b, memo),
        Ule(a, b) => bin("bvule", a, b, memo),
        Slt(a, b) => bin("bvslt", a, b, memo),
        Sle(a, b) => bin("bvsle", a, b, memo),
    };
    memo.insert(t, s.clone());
    s
}

fn render_const(value: u64, width: u32) -> String {
    let mut s = String::from("#b");
    for i in (0..width).rev() {
        s.push(if value >> i & 1 == 1 { '1' } else { '0' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_arithmetic_and_predicates() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 4);
        let b = ts.bv_var("b", 4);
        let one = ts.bv_const(1, 4);
        let sum = ts.bv_add(a, one);
        let pred = ts.ult(sum, b);
        let s = term_to_smtlib(&ts, pred);
        assert_eq!(s, "(bvult (bvadd a #b0001) b)");
    }

    #[test]
    fn renders_booleans() {
        let mut ts = TermStore::new();
        let p = ts.bool_var("p");
        let q = ts.bool_var("q");
        let np = ts.not(p);
        let f = ts.implies(np, q);
        assert_eq!(term_to_smtlib(&ts, f), "(=> (not p) q)");
    }

    #[test]
    fn quoting_of_ssa_names() {
        assert_eq!(quote("cnt"), "cnt");
        assert_eq!(quote("x!3"), "|x!3|");
        assert_eq!(quote("x[0]"), "|x[0]|");
        assert_eq!(quote("rf_1_2_0_1"), "rf_1_2_0_1");
    }

    #[test]
    fn free_vars_are_collected_with_widths() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 8);
        let p = ts.bool_var("p");
        let zero = ts.bv_const(0, 8);
        let cmp = ts.eq(a, zero);
        let root = ts.and(p, cmp);
        let vars = free_vars(&ts, &[root]);
        assert_eq!(vars.get("a"), Some(&8));
        assert_eq!(vars.get("p"), Some(&0));
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn parens_balance() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 4);
        let b = ts.bv_var("b", 4);
        let c1 = ts.bv_mul(a, b);
        let c2 = ts.bv_sub(c1, a);
        let cond = ts.ule(c2, b);
        let ite = ts.bv_ite(cond, a, c2);
        let root = ts.eq(ite, b);
        let s = term_to_smtlib(&ts, root);
        let open = s.chars().filter(|&c| c == '(').count();
        let close = s.chars().filter(|&c| c == ')').count();
        assert_eq!(open, close);
    }
}
