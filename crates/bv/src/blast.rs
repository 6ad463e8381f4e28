//! Tseitin bit-blasting of bit-vector terms into CNF.
//!
//! The blaster lowers a [`TermStore`] DAG into clauses pushed through a
//! [`ClauseSink`] (implemented by `zpre_sat::Solver`). Memoization over
//! [`TermId`]s plus the store's hash-consing give circuit sharing. This is
//! the same role CBMC's flattening plays for the QF_ABV formulas the paper
//! feeds to Z3 — and it reproduces the phenomenon §3.4 describes: one
//! program-level integer becomes `width` Boolean variables plus gate
//! auxiliaries, all of which the default heuristics treat as decision
//! candidates.

use crate::term::{TermId, TermKind, TermStore};
use std::collections::HashMap;
use zpre_sat::{Lit, Var};

/// Receiver of fresh variables and clauses (usually the solver).
pub trait ClauseSink {
    /// Fresh variable: a gate output or an input bit.
    fn new_aux_var(&mut self) -> Var;

    /// Adds a clause. Returns `false` when the formula became trivially
    /// unsatisfiable.
    fn add_clause_sink(&mut self, lits: &[Lit]) -> bool;
}

impl<T: zpre_sat::Theory, G: zpre_sat::DecisionGuide> ClauseSink for zpre_sat::Solver<T, G> {
    fn new_aux_var(&mut self) -> Var {
        self.new_var()
    }
    fn add_clause_sink(&mut self, lits: &[Lit]) -> bool {
        self.add_clause(lits)
    }
}

/// A blasted bit-vector: a run of [`Blaster`]'s bit buffer, LSB first.
#[derive(Copy, Clone)]
struct Bits {
    start: u32,
    len: u32,
}

/// The bit-blaster. Little-endian bit order: index 0 is the LSB.
///
/// Blasted terms are memoized by [`TermId`] in dense tables, and the bits
/// of every blasted bit-vector live in one buffer, so neither a memo hit
/// nor a gate allocates. One blaster serves a store and any clone of it
/// that only adds terms (ids stay valid across the two).
#[derive(Default)]
pub struct Blaster {
    bool_memo: Vec<Option<Lit>>,
    bv_memo: Vec<Option<Bits>>,
    /// The bits of every blasted bit-vector term.
    bits: Vec<Lit>,
    /// Clause under construction in [`Self::assert_implies_eq`].
    clause: Vec<Lit>,
    true_lit: Option<Lit>,
    /// Bits of every blasted bit-vector variable, by name (model extraction).
    pub bv_inputs: HashMap<String, Vec<Lit>>,
    /// Literal of every blasted Boolean variable, by name.
    pub bool_inputs: HashMap<String, Lit>,
}

/// Writes `value` at `t`'s slot of a memo table, growing it as needed.
fn memoize<T: Copy>(memo: &mut Vec<Option<T>>, t: TermId, value: T) {
    let i = t.0 as usize;
    if memo.len() <= i {
        memo.resize(i + 1, None);
    }
    memo[i] = Some(value);
}

impl Blaster {
    /// Creates an empty blaster.
    pub fn new() -> Blaster {
        Blaster::default()
    }

    /// The constant-true literal (allocated on first use).
    pub fn lit_true(&mut self, sink: &mut impl ClauseSink) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = sink.new_aux_var().positive();
        sink.add_clause_sink(&[l]);
        self.true_lit = Some(l);
        l
    }

    /// The constant-false literal.
    pub fn lit_false(&mut self, sink: &mut impl ClauseSink) -> Lit {
        !self.lit_true(sink)
    }

    /// Bit `i` of `b`.
    #[inline]
    fn bit(&self, b: Bits, i: usize) -> Lit {
        self.bits[b.start as usize + i]
    }

    /// The bits of `b`.
    fn slice(&self, b: Bits) -> &[Lit] {
        &self.bits[b.start as usize..(b.start + b.len) as usize]
    }

    /// Appends a bit-vector of `width` bits to the bit buffer, bit `i`
    /// computed by `f`, which may add gates but must not blast terms.
    fn push_bits<S: ClauseSink>(
        &mut self,
        width: usize,
        sink: &mut S,
        mut f: impl FnMut(&mut Self, usize, &mut S) -> Lit,
    ) -> Bits {
        let start = self.bits.len();
        for i in 0..width {
            let l = f(self, i, sink);
            self.bits.push(l);
        }
        Bits {
            start: start as u32,
            len: width as u32,
        }
    }

    // ---- gates ----

    fn gate_and(&mut self, a: Lit, b: Lit, sink: &mut impl ClauseSink) -> Lit {
        if a == b {
            return a;
        }
        if a == !b {
            return self.lit_false(sink);
        }
        let t = self.lit_true(sink);
        if a == t {
            return b;
        }
        if b == t {
            return a;
        }
        if a == !t || b == !t {
            return !t;
        }
        let g = sink.new_aux_var().positive();
        sink.add_clause_sink(&[!g, a]);
        sink.add_clause_sink(&[!g, b]);
        sink.add_clause_sink(&[g, !a, !b]);
        g
    }

    fn gate_or(&mut self, a: Lit, b: Lit, sink: &mut impl ClauseSink) -> Lit {
        !self.gate_and(!a, !b, sink)
    }

    fn gate_xor(&mut self, a: Lit, b: Lit, sink: &mut impl ClauseSink) -> Lit {
        if a == b {
            return self.lit_false(sink);
        }
        if a == !b {
            return self.lit_true(sink);
        }
        let t = self.lit_true(sink);
        if a == t {
            return !b;
        }
        if b == t {
            return !a;
        }
        if a == !t {
            return b;
        }
        if b == !t {
            return a;
        }
        let g = sink.new_aux_var().positive();
        sink.add_clause_sink(&[!g, a, b]);
        sink.add_clause_sink(&[!g, !a, !b]);
        sink.add_clause_sink(&[g, !a, b]);
        sink.add_clause_sink(&[g, a, !b]);
        g
    }

    fn gate_iff(&mut self, a: Lit, b: Lit, sink: &mut impl ClauseSink) -> Lit {
        !self.gate_xor(a, b, sink)
    }

    fn gate_ite(&mut self, c: Lit, th: Lit, el: Lit, sink: &mut impl ClauseSink) -> Lit {
        if th == el {
            return th;
        }
        let t = self.lit_true(sink);
        if c == t {
            return th;
        }
        if c == !t {
            return el;
        }
        let g = sink.new_aux_var().positive();
        sink.add_clause_sink(&[!g, !c, th]);
        sink.add_clause_sink(&[!g, c, el]);
        sink.add_clause_sink(&[g, !c, !th]);
        sink.add_clause_sink(&[g, c, !el]);
        // Redundant but propagation-strengthening:
        sink.add_clause_sink(&[!g, th, el]);
        sink.add_clause_sink(&[g, !th, !el]);
        g
    }

    // ---- adders ----

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit, sink: &mut impl ClauseSink) -> (Lit, Lit) {
        let axb = self.gate_xor(a, b, sink);
        let sum = self.gate_xor(axb, cin, sink);
        let ab = self.gate_and(a, b, sink);
        let c_axb = self.gate_and(cin, axb, sink);
        let cout = self.gate_or(ab, c_axb, sink);
        (sum, cout)
    }

    /// `a + b + carry` over `width` bits, operand bits read through `a`
    /// and `b`.
    fn ripple_add<S: ClauseSink>(
        &mut self,
        width: usize,
        a: impl Fn(&Self, usize) -> Lit,
        b: impl Fn(&Self, usize) -> Lit,
        mut carry: Lit,
        sink: &mut S,
    ) -> Bits {
        self.push_bits(width, sink, |s, i, sink| {
            let (sum, c) = s.full_adder(a(s, i), b(s, i), carry, sink);
            carry = c;
            sum
        })
    }

    /// `a <ᵤ b` over `width` bits, operand bits read through `a` and `b`.
    fn compare_ult(
        &mut self,
        width: usize,
        a: impl Fn(&Self, usize) -> Lit,
        b: impl Fn(&Self, usize) -> Lit,
        sink: &mut impl ClauseSink,
    ) -> Lit {
        // Scan LSB→MSB so the most significant difference decides last.
        let mut res = self.lit_false(sink);
        for i in 0..width {
            let (ai, bi) = (a(self, i), b(self, i));
            let lt = self.gate_and(!ai, bi, sink);
            let eq = self.gate_iff(ai, bi, sink);
            res = self.gate_ite(eq, res, lt, sink);
        }
        res
    }

    // ---- entry points ----

    /// Blasts a Boolean-sorted term to a literal.
    pub fn blast_bool(&mut self, ts: &TermStore, t: TermId, sink: &mut impl ClauseSink) -> Lit {
        if let Some(&Some(l)) = self.bool_memo.get(t.0 as usize) {
            return l;
        }
        use TermKind::*;
        let l = match ts.kind(t) {
            BoolConst(true) => self.lit_true(sink),
            BoolConst(false) => self.lit_false(sink),
            BoolVar(name) => {
                let v = sink.new_aux_var().positive();
                self.bool_inputs.insert(name.clone(), v);
                v
            }
            &Not(a) => {
                let la = self.blast_bool(ts, a, sink);
                !la
            }
            &And(a, b) => {
                let la = self.blast_bool(ts, a, sink);
                let lb = self.blast_bool(ts, b, sink);
                self.gate_and(la, lb, sink)
            }
            &Or(a, b) => {
                let la = self.blast_bool(ts, a, sink);
                let lb = self.blast_bool(ts, b, sink);
                self.gate_or(la, lb, sink)
            }
            &Xor(a, b) => {
                let la = self.blast_bool(ts, a, sink);
                let lb = self.blast_bool(ts, b, sink);
                self.gate_xor(la, lb, sink)
            }
            &Implies(a, b) => {
                let la = self.blast_bool(ts, a, sink);
                let lb = self.blast_bool(ts, b, sink);
                self.gate_or(!la, lb, sink)
            }
            &Iff(a, b) => {
                let la = self.blast_bool(ts, a, sink);
                let lb = self.blast_bool(ts, b, sink);
                self.gate_iff(la, lb, sink)
            }
            &BoolIte(c, a, b) => {
                let lc = self.blast_bool(ts, c, sink);
                let la = self.blast_bool(ts, a, sink);
                let lb = self.blast_bool(ts, b, sink);
                self.gate_ite(lc, la, lb, sink)
            }
            &Eq(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                // All bitwise equivalences first, then their conjunction;
                // the equivalences only borrow the buffer's tail.
                let iffs = self.push_bits(ba.len as usize, sink, |s, i, sink| {
                    s.gate_iff(s.bit(ba, i), s.bit(bb, i), sink)
                });
                let mut acc = self.lit_true(sink);
                for i in 0..iffs.len as usize {
                    acc = self.gate_and(acc, self.bit(iffs, i), sink);
                }
                self.bits.truncate(iffs.start as usize);
                acc
            }
            &Ult(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                let w = ba.len as usize;
                self.compare_ult(w, |s, i| s.bit(ba, i), |s, i| s.bit(bb, i), sink)
            }
            &Ule(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                let w = ba.len as usize;
                !self.compare_ult(w, |s, i| s.bit(bb, i), |s, i| s.bit(ba, i), sink)
            }
            &Slt(a, b) | &Sle(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                let w = ba.len as usize;
                // Flip sign bits: slt(a,b) = ult(a ⊕ MSB, b ⊕ MSB).
                let flipped = |x: Bits| {
                    move |s: &Self, i: usize| {
                        let l = s.bit(x, i);
                        if i + 1 == w {
                            !l
                        } else {
                            l
                        }
                    }
                };
                if matches!(ts.kind(t), Slt(..)) {
                    self.compare_ult(w, flipped(ba), flipped(bb), sink)
                } else {
                    !self.compare_ult(w, flipped(bb), flipped(ba), sink)
                }
            }
            k => panic!("blast_bool on non-Boolean term {k:?}"),
        };
        memoize(&mut self.bool_memo, t, l);
        l
    }

    /// Blasts a bit-vector-sorted term to its bits (LSB first).
    pub fn blast_bv(&mut self, ts: &TermStore, t: TermId, sink: &mut impl ClauseSink) -> Vec<Lit> {
        let b = self.bv(ts, t, sink);
        self.slice(b).to_vec()
    }

    /// [`Self::blast_bv`] into the bit buffer.
    fn bv<S: ClauseSink>(&mut self, ts: &TermStore, t: TermId, sink: &mut S) -> Bits {
        if let Some(&Some(b)) = self.bv_memo.get(t.0 as usize) {
            return b;
        }
        use TermKind::*;
        let w = ts.width(t) as usize;
        let bits = match ts.kind(t) {
            &BvConst { value, .. } => {
                let tl = self.lit_true(sink);
                self.push_bits(
                    w,
                    sink,
                    |_, i, _| {
                        if (value >> i) & 1 == 1 {
                            tl
                        } else {
                            !tl
                        }
                    },
                )
            }
            BvVar { name, .. } => {
                let bits = self.push_bits(w, sink, |_, _, sink| sink.new_aux_var().positive());
                self.bv_inputs
                    .insert(name.clone(), self.slice(bits).to_vec());
                bits
            }
            &BvAdd(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                let zero = self.lit_false(sink);
                self.ripple_add(w, |s, i| s.bit(ba, i), |s, i| s.bit(bb, i), zero, sink)
            }
            &BvSub(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                let one = self.lit_true(sink);
                self.ripple_add(w, |s, i| s.bit(ba, i), |s, i| !s.bit(bb, i), one, sink)
            }
            &BvNeg(a) => {
                let ba = self.bv(ts, a, sink);
                let zero = self.lit_false(sink);
                let one = self.lit_true(sink);
                self.ripple_add(w, |s, i| !s.bit(ba, i), |_, _| zero, one, sink)
            }
            &BvNot(a) => {
                let ba = self.bv(ts, a, sink);
                self.push_bits(w, sink, |s, i, _| !s.bit(ba, i))
            }
            &BvAnd(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                self.push_bits(w, sink, |s, i, sink| {
                    s.gate_and(s.bit(ba, i), s.bit(bb, i), sink)
                })
            }
            &BvOr(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                self.push_bits(w, sink, |s, i, sink| {
                    s.gate_or(s.bit(ba, i), s.bit(bb, i), sink)
                })
            }
            &BvXor(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                self.push_bits(w, sink, |s, i, sink| {
                    s.gate_xor(s.bit(ba, i), s.bit(bb, i), sink)
                })
            }
            &BvShlConst(a, by) => {
                let ba = self.bv(ts, a, sink);
                let zero = self.lit_false(sink);
                let by = by as usize;
                self.push_bits(
                    w,
                    sink,
                    |s, i, _| {
                        if i < by {
                            zero
                        } else {
                            s.bit(ba, i - by)
                        }
                    },
                )
            }
            &BvLshrConst(a, by) => {
                let ba = self.bv(ts, a, sink);
                let zero = self.lit_false(sink);
                let by = by as usize;
                self.push_bits(
                    w,
                    sink,
                    |s, i, _| {
                        if i + by < w {
                            s.bit(ba, i + by)
                        } else {
                            zero
                        }
                    },
                )
            }
            &BvMul(a, b) => {
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                let zero = self.lit_false(sink);
                // Shift-add: start with a & replicate(b[0]). The partial
                // products and sums sit in the buffer's tail until the
                // final sum moves down over them.
                let start = self.bits.len();
                let mut acc = self.push_bits(w, sink, |s, j, sink| {
                    s.gate_and(s.bit(ba, j), s.bit(bb, 0), sink)
                });
                for i in 1..w {
                    let row = self.push_bits(w, sink, |s, j, sink| {
                        if j < i {
                            zero
                        } else {
                            s.gate_and(s.bit(ba, j - i), s.bit(bb, i), sink)
                        }
                    });
                    acc =
                        self.ripple_add(w, |s, j| s.bit(acc, j), |s, j| s.bit(row, j), zero, sink);
                }
                self.bits.copy_within(acc.start as usize.., start);
                self.bits.truncate(start + w);
                Bits {
                    start: start as u32,
                    len: w as u32,
                }
            }
            &BvIte(c, a, b) => {
                let lc = self.blast_bool(ts, c, sink);
                let ba = self.bv(ts, a, sink);
                let bb = self.bv(ts, b, sink);
                self.push_bits(w, sink, |s, i, sink| {
                    s.gate_ite(lc, s.bit(ba, i), s.bit(bb, i), sink)
                })
            }
            k => panic!("blast_bv on non-bit-vector term {k:?}"),
        };
        debug_assert_eq!(bits.len as usize, w);
        memoize(&mut self.bv_memo, t, bits);
        bits
    }

    /// Asserts a Boolean term at the top level.
    pub fn assert_true(&mut self, ts: &TermStore, t: TermId, sink: &mut impl ClauseSink) {
        let l = self.blast_bool(ts, t, sink);
        sink.add_clause_sink(&[l]);
    }

    /// Asserts `p₁ ∧ … ∧ pₖ → (a = b)` as `2·width` three-ish-literal
    /// clauses (no gate variables) — the compact form used for the
    /// read-from value constraints.
    pub fn assert_implies_eq(
        &mut self,
        ts: &TermStore,
        premises: &[Lit],
        a: TermId,
        b: TermId,
        sink: &mut impl ClauseSink,
    ) {
        let ba = self.bv(ts, a, sink);
        let bb = self.bv(ts, b, sink);
        debug_assert_eq!(ba.len, bb.len);
        let mut clause = std::mem::take(&mut self.clause);
        for i in 0..ba.len as usize {
            let (ai, bi) = (self.bit(ba, i), self.bit(bb, i));
            for (x, y) in [(!ai, bi), (ai, !bi)] {
                clause.clear();
                clause.extend(premises.iter().map(|&p| !p));
                clause.extend([x, y]);
                sink.add_clause_sink(&clause);
            }
        }
        self.clause = clause;
    }
}

/// Decodes bits (LSB first) into a `u64` using a literal valuation.
pub fn lits_to_u64(bits: &[Lit], value_of: impl Fn(Lit) -> bool) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &l)| acc | ((value_of(l) as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Value;
    use zpre_sat::{SolveResult, Solver};

    /// Builds a circuit for `expr(a, b)`, forces the inputs to constants via
    /// unit clauses, solves, and compares the output with `TermStore::eval`.
    fn check_binop(
        width: u32,
        av: u64,
        bv: u64,
        build: impl Fn(&mut TermStore, TermId, TermId) -> TermId,
    ) {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", width);
        let b = ts.bv_var("b", width);
        let out = build(&mut ts, a, b);

        let mut s = Solver::new();
        let mut bl = Blaster::new();
        let is_bool = matches!(ts.sort(out), crate::term::Sort::Bool);
        let out_bits = if is_bool {
            vec![bl.blast_bool(&ts, out, &mut s)]
        } else {
            bl.blast_bv(&ts, out, &mut s)
        };
        // Force inputs (unary ops never blast "b" — skip absent inputs).
        for (name, val) in [("a", av), ("b", bv)] {
            let Some(bits) = bl.bv_inputs.get(name).cloned() else {
                continue;
            };
            for (i, &bit) in bits.iter().enumerate() {
                let want = (val >> i) & 1 == 1;
                s.add_clause(&[if want { bit } else { !bit }]);
            }
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let got = lits_to_u64(&out_bits, |l| s.model_value(l).is_true());
        let vars = move |n: &str| -> u64 {
            match n {
                "a" => av,
                "b" => bv,
                _ => unreachable!(),
            }
        };
        let expected = match ts.eval(out, &vars, &|_| unreachable!()) {
            Value::Bv(n) => n,
            Value::Bool(x) => x as u64,
        };
        assert_eq!(got, expected, "width={width} a={av} b={bv}");
    }

    fn sweep(build: impl Fn(&mut TermStore, TermId, TermId) -> TermId + Copy) {
        // Exhaustive at width 3, selected corners at width 8.
        for a in 0..8u64 {
            for b in 0..8u64 {
                check_binop(3, a, b, build);
            }
        }
        for &(a, b) in &[
            (0, 0),
            (255, 1),
            (128, 128),
            (170, 85),
            (200, 100),
            (255, 255),
        ] {
            check_binop(8, a, b, build);
        }
    }

    #[test]
    fn add_matches_semantics() {
        sweep(|ts, a, b| ts.bv_add(a, b));
    }

    #[test]
    fn sub_matches_semantics() {
        sweep(|ts, a, b| ts.bv_sub(a, b));
    }

    #[test]
    fn mul_matches_semantics() {
        sweep(|ts, a, b| ts.bv_mul(a, b));
    }

    #[test]
    fn bitwise_matches_semantics() {
        sweep(|ts, a, b| ts.bv_and(a, b));
        sweep(|ts, a, b| ts.bv_or(a, b));
        sweep(|ts, a, b| ts.bv_xor(a, b));
    }

    #[test]
    fn neg_and_not_match_semantics() {
        sweep(|ts, a, _| ts.bv_neg(a));
        sweep(|ts, a, _| ts.bv_not(a));
    }

    #[test]
    fn comparisons_match_semantics() {
        sweep(|ts, a, b| ts.ult(a, b));
        sweep(|ts, a, b| ts.ule(a, b));
        sweep(|ts, a, b| ts.slt(a, b));
        sweep(|ts, a, b| ts.sle(a, b));
        sweep(|ts, a, b| ts.eq(a, b));
    }

    #[test]
    fn shifts_match_semantics() {
        sweep(|ts, a, _| ts.bv_shl_const(a, 1));
        sweep(|ts, a, _| ts.bv_lshr_const(a, 2));
    }

    #[test]
    fn ite_matches_semantics() {
        // c ? a+b : a-b, with c forced each way.
        for c_val in [false, true] {
            let mut ts = TermStore::new();
            let a = ts.bv_var("a", 4);
            let b = ts.bv_var("b", 4);
            let c = ts.bool_var("c");
            let add = ts.bv_add(a, b);
            let sub = ts.bv_sub(a, b);
            let out = ts.bv_ite(c, add, sub);

            let mut s = Solver::new();
            let mut bl = Blaster::new();
            let out_bits = bl.blast_bv(&ts, out, &mut s);
            let cl = bl.bool_inputs["c"];
            s.add_clause(&[if c_val { cl } else { !cl }]);
            for (name, val) in [("a", 9u64), ("b", 5u64)] {
                for (i, &bit) in bl.bv_inputs[name].clone().iter().enumerate() {
                    let want = (val >> i) & 1 == 1;
                    s.add_clause(&[if want { bit } else { !bit }]);
                }
            }
            assert_eq!(s.solve(), SolveResult::Sat);
            let got = lits_to_u64(&out_bits, |l| s.model_value(l).is_true());
            let expected = if c_val { (9 + 5) & 0xf } else { (9 - 5) & 0xf };
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn assert_implies_eq_forces_equality() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 4);
        let b = ts.bv_var("b", 4);
        let mut s = Solver::new();
        let mut bl = Blaster::new();
        let p = s.new_var().positive();
        bl.assert_implies_eq(&ts, &[p], a, b, &mut s);
        // Force p, a = 11; then b must be 11.
        s.add_clause(&[p]);
        for (i, &bit) in bl.bv_inputs["a"].clone().iter().enumerate() {
            let want = (11u64 >> i) & 1 == 1;
            s.add_clause(&[if want { bit } else { !bit }]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let b_bits = bl.bv_inputs["b"].clone();
        assert_eq!(lits_to_u64(&b_bits, |l| s.model_value(l).is_true()), 11);
    }

    #[test]
    fn unsat_when_circuit_contradicts() {
        // a + 1 = a is unsatisfiable at any width.
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 4);
        let one = ts.bv_const(1, 4);
        let sum = ts.bv_add(a, one);
        let eq = ts.eq(sum, a);
        let mut s = Solver::new();
        let mut bl = Blaster::new();
        bl.assert_true(&ts, eq, &mut s);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn overflow_wraps() {
        // 15 + 1 = 0 at width 4.
        let mut ts = TermStore::new();
        let a = ts.bv_const(15, 4);
        let one = ts.bv_const(1, 4);
        let sum = ts.bv_add(a, one);
        let zero = ts.bv_const(0, 4);
        let eq = ts.eq(sum, zero);
        let mut s = Solver::new();
        let mut bl = Blaster::new();
        bl.assert_true(&ts, eq, &mut s);
        assert_eq!(s.solve(), SolveResult::Sat);
    }
}
