//! Bit-vector / Boolean term language with hash-consing.
//!
//! Terms form a DAG in a [`TermStore`] arena; structurally identical terms
//! share one [`TermId`] so the bit-blaster's memoization gives circuit
//! sharing for free. Two sorts exist: `Bool` and `Bv(width)` with
//! `1 ≤ width ≤ 64` (evaluation uses `u64` semantics, wrapping arithmetic,
//! like machine integers in the encoded programs).

use crate::hash::FastMap;

/// Handle to a term in a [`TermStore`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(pub u32);

/// The sort of a term.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Sort {
    /// Propositional.
    Bool,
    /// Bit-vector of the given width (1..=64).
    Bv(u32),
}

impl Sort {
    /// The width of a bit-vector sort; panics on `Bool`.
    pub fn width(self) -> u32 {
        match self {
            Sort::Bv(w) => w,
            Sort::Bool => panic!("Bool sort has no width"),
        }
    }
}

/// Term constructors. Binary bit-vector operators require equal widths.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TermKind {
    // --- Boolean ---
    /// Boolean constant.
    BoolConst(bool),
    /// Free Boolean variable (nondeterministic input / guard seed).
    BoolVar(String),
    /// Negation.
    Not(TermId),
    /// Conjunction.
    And(TermId, TermId),
    /// Disjunction.
    Or(TermId, TermId),
    /// Exclusive or.
    Xor(TermId, TermId),
    /// Implication.
    Implies(TermId, TermId),
    /// Equivalence.
    Iff(TermId, TermId),
    /// Boolean if-then-else.
    BoolIte(TermId, TermId, TermId),

    // --- Bit-vector ---
    /// Constant (value truncated to `width` bits).
    BvConst {
        /// Bit pattern.
        value: u64,
        /// Width in bits.
        width: u32,
    },
    /// Free bit-vector variable.
    BvVar {
        /// Name (unique per variable; hash-consing keys on it).
        name: String,
        /// Width in bits.
        width: u32,
    },
    /// Wrapping addition.
    BvAdd(TermId, TermId),
    /// Wrapping subtraction.
    BvSub(TermId, TermId),
    /// Wrapping multiplication.
    BvMul(TermId, TermId),
    /// Two's-complement negation.
    BvNeg(TermId),
    /// Bitwise not.
    BvNot(TermId),
    /// Bitwise and.
    BvAnd(TermId, TermId),
    /// Bitwise or.
    BvOr(TermId, TermId),
    /// Bitwise xor.
    BvXor(TermId, TermId),
    /// Left shift by a constant amount.
    BvShlConst(TermId, u32),
    /// Logical right shift by a constant amount.
    BvLshrConst(TermId, u32),
    /// Bit-vector if-then-else (condition is Boolean).
    BvIte(TermId, TermId, TermId),

    // --- Predicates (Bool-sorted, bit-vector arguments) ---
    /// Equality.
    Eq(TermId, TermId),
    /// Unsigned less-than.
    Ult(TermId, TermId),
    /// Unsigned less-or-equal.
    Ule(TermId, TermId),
    /// Signed less-than.
    Slt(TermId, TermId),
    /// Signed less-or-equal.
    Sle(TermId, TermId),
}

impl TermKind {
    /// The operands, in constructor order (empty for constants and
    /// variables).
    pub fn children(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        self.map_children(|c| {
            out.push(c);
            c
        });
        out
    }

    /// The same constructor with every operand replaced by `f` of it, in
    /// constructor order. Two kinds have the same constructor and payload
    /// (shift amount, constant, name) exactly when they are equal after
    /// mapping all their operands to one id.
    pub fn map_children(&self, mut f: impl FnMut(TermId) -> TermId) -> TermKind {
        use TermKind::*;
        match self {
            BoolConst(_) | BoolVar(_) | BvConst { .. } | BvVar { .. } => self.clone(),
            Not(a) => Not(f(*a)),
            BvNeg(a) => BvNeg(f(*a)),
            BvNot(a) => BvNot(f(*a)),
            BvShlConst(a, by) => BvShlConst(f(*a), *by),
            BvLshrConst(a, by) => BvLshrConst(f(*a), *by),
            And(a, b) => And(f(*a), f(*b)),
            Or(a, b) => Or(f(*a), f(*b)),
            Xor(a, b) => Xor(f(*a), f(*b)),
            Implies(a, b) => Implies(f(*a), f(*b)),
            Iff(a, b) => Iff(f(*a), f(*b)),
            BvAdd(a, b) => BvAdd(f(*a), f(*b)),
            BvSub(a, b) => BvSub(f(*a), f(*b)),
            BvMul(a, b) => BvMul(f(*a), f(*b)),
            BvAnd(a, b) => BvAnd(f(*a), f(*b)),
            BvOr(a, b) => BvOr(f(*a), f(*b)),
            BvXor(a, b) => BvXor(f(*a), f(*b)),
            Eq(a, b) => Eq(f(*a), f(*b)),
            Ult(a, b) => Ult(f(*a), f(*b)),
            Ule(a, b) => Ule(f(*a), f(*b)),
            Slt(a, b) => Slt(f(*a), f(*b)),
            Sle(a, b) => Sle(f(*a), f(*b)),
            BoolIte(c, a, b) => BoolIte(f(*c), f(*a), f(*b)),
            BvIte(c, a, b) => BvIte(f(*c), f(*a), f(*b)),
        }
    }

    /// `true` for the binary constructors whose operands commute. The store
    /// orders their operands by id, so two terms built the same way from
    /// differently numbered operands may list them in either order.
    pub fn is_commutative(&self) -> bool {
        use TermKind::*;
        matches!(
            self,
            And(..)
                | Or(..)
                | Xor(..)
                | Iff(..)
                | BvAdd(..)
                | BvMul(..)
                | BvAnd(..)
                | BvOr(..)
                | BvXor(..)
                | Eq(..)
        )
    }

    /// `true` for free variables ([`TermKind::BoolVar`], [`TermKind::BvVar`]).
    pub fn is_var(&self) -> bool {
        matches!(self, TermKind::BoolVar(_) | TermKind::BvVar { .. })
    }
}

/// Hash-consing arena of terms.
#[derive(Default, Clone)]
pub struct TermStore {
    kinds: Vec<TermKind>,
    sorts: Vec<Sort>,
    cons: FastMap<TermKind, TermId>,
}

impl TermStore {
    /// Creates an empty store.
    pub fn new() -> TermStore {
        TermStore::default()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` when the store holds no terms.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The constructor of `t`.
    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.kinds[t.0 as usize]
    }

    /// The sort of `t`.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.0 as usize]
    }

    /// The width of a bit-vector term; panics for Booleans.
    pub fn width(&self, t: TermId) -> u32 {
        self.sort(t).width()
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        if let Some(&id) = self.cons.get(&kind) {
            return id;
        }
        let id = TermId(self.kinds.len() as u32);
        self.cons.insert(kind.clone(), id);
        self.kinds.push(kind);
        self.sorts.push(sort);
        id
    }

    fn expect_bool(&self, t: TermId) {
        assert_eq!(self.sort(t), Sort::Bool, "expected Bool-sorted term");
    }

    fn expect_same_bv(&self, a: TermId, b: TermId) -> u32 {
        let (sa, sb) = (self.sort(a), self.sort(b));
        match (sa, sb) {
            (Sort::Bv(wa), Sort::Bv(wb)) if wa == wb => wa,
            _ => panic!("width mismatch: {sa:?} vs {sb:?}"),
        }
    }

    // ---- Boolean constructors ----

    /// Boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        self.intern(TermKind::BoolConst(b), Sort::Bool)
    }

    /// `true` constant (shorthand).
    pub fn tru(&mut self) -> TermId {
        self.bool_const(true)
    }

    /// `false` constant (shorthand).
    pub fn fls(&mut self) -> TermId {
        self.bool_const(false)
    }

    /// Fresh-by-name Boolean variable.
    pub fn bool_var(&mut self, name: impl Into<String>) -> TermId {
        self.intern(TermKind::BoolVar(name.into()), Sort::Bool)
    }

    /// Negation, with constant folding and double-negation elimination.
    pub fn not(&mut self, a: TermId) -> TermId {
        self.expect_bool(a);
        match self.kind(a) {
            TermKind::BoolConst(b) => {
                let b = !b;
                self.bool_const(b)
            }
            TermKind::Not(inner) => *inner,
            _ => self.intern(TermKind::Not(a), Sort::Bool),
        }
    }

    /// Conjunction with unit/zero folding.
    pub fn and(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a);
        self.expect_bool(b);
        match (self.kind(a), self.kind(b)) {
            (TermKind::BoolConst(true), _) => b,
            (_, TermKind::BoolConst(true)) => a,
            (TermKind::BoolConst(false), _) | (_, TermKind::BoolConst(false)) => self.fls(),
            _ if a == b => a,
            _ => self.intern(TermKind::And(a.min(b), a.max(b)), Sort::Bool),
        }
    }

    /// Disjunction with unit/zero folding.
    pub fn or(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a);
        self.expect_bool(b);
        match (self.kind(a), self.kind(b)) {
            (TermKind::BoolConst(false), _) => b,
            (_, TermKind::BoolConst(false)) => a,
            (TermKind::BoolConst(true), _) | (_, TermKind::BoolConst(true)) => self.tru(),
            _ if a == b => a,
            _ => self.intern(TermKind::Or(a.min(b), a.max(b)), Sort::Bool),
        }
    }

    /// Exclusive or.
    pub fn xor(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a);
        self.expect_bool(b);
        if a == b {
            return self.fls();
        }
        self.intern(TermKind::Xor(a.min(b), a.max(b)), Sort::Bool)
    }

    /// Implication.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a);
        self.expect_bool(b);
        match (self.kind(a), self.kind(b)) {
            (TermKind::BoolConst(false), _) | (_, TermKind::BoolConst(true)) => self.tru(),
            (TermKind::BoolConst(true), _) => b,
            _ => self.intern(TermKind::Implies(a, b), Sort::Bool),
        }
    }

    /// Equivalence.
    pub fn iff(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_bool(a);
        self.expect_bool(b);
        if a == b {
            return self.tru();
        }
        self.intern(TermKind::Iff(a.min(b), a.max(b)), Sort::Bool)
    }

    /// Boolean if-then-else.
    pub fn bool_ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.expect_bool(c);
        self.expect_bool(t);
        self.expect_bool(e);
        match self.kind(c) {
            TermKind::BoolConst(true) => t,
            TermKind::BoolConst(false) => e,
            _ if t == e => t,
            _ => self.intern(TermKind::BoolIte(c, t, e), Sort::Bool),
        }
    }

    // ---- Bit-vector constructors ----

    /// Constant of the given width (value truncated).
    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "width out of range");
        let value = truncate(value, width);
        self.intern(TermKind::BvConst { value, width }, Sort::Bv(width))
    }

    /// Fresh-by-name bit-vector variable.
    pub fn bv_var(&mut self, name: impl Into<String>, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "width out of range");
        self.intern(
            TermKind::BvVar {
                name: name.into(),
                width,
            },
            Sort::Bv(width),
        )
    }

    /// Wrapping addition.
    pub fn bv_add(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.expect_same_bv(a, b);
        self.intern(TermKind::BvAdd(a.min(b), a.max(b)), Sort::Bv(w))
    }

    /// Wrapping subtraction.
    pub fn bv_sub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.expect_same_bv(a, b);
        self.intern(TermKind::BvSub(a, b), Sort::Bv(w))
    }

    /// Wrapping multiplication.
    pub fn bv_mul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.expect_same_bv(a, b);
        self.intern(TermKind::BvMul(a.min(b), a.max(b)), Sort::Bv(w))
    }

    /// Two's-complement negation.
    pub fn bv_neg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        self.intern(TermKind::BvNeg(a), Sort::Bv(w))
    }

    /// Bitwise complement.
    pub fn bv_not(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        self.intern(TermKind::BvNot(a), Sort::Bv(w))
    }

    /// Bitwise and.
    pub fn bv_and(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.expect_same_bv(a, b);
        self.intern(TermKind::BvAnd(a.min(b), a.max(b)), Sort::Bv(w))
    }

    /// Bitwise or.
    pub fn bv_or(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.expect_same_bv(a, b);
        self.intern(TermKind::BvOr(a.min(b), a.max(b)), Sort::Bv(w))
    }

    /// Bitwise xor.
    pub fn bv_xor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.expect_same_bv(a, b);
        self.intern(TermKind::BvXor(a.min(b), a.max(b)), Sort::Bv(w))
    }

    /// Left shift by a constant.
    pub fn bv_shl_const(&mut self, a: TermId, by: u32) -> TermId {
        let w = self.width(a);
        assert!(by < w, "shift amount exceeds width");
        self.intern(TermKind::BvShlConst(a, by), Sort::Bv(w))
    }

    /// Logical right shift by a constant.
    pub fn bv_lshr_const(&mut self, a: TermId, by: u32) -> TermId {
        let w = self.width(a);
        assert!(by < w, "shift amount exceeds width");
        self.intern(TermKind::BvLshrConst(a, by), Sort::Bv(w))
    }

    /// Bit-vector if-then-else.
    pub fn bv_ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        self.expect_bool(c);
        let w = self.expect_same_bv(t, e);
        match self.kind(c) {
            TermKind::BoolConst(true) => t,
            TermKind::BoolConst(false) => e,
            _ if t == e => t,
            _ => self.intern(TermKind::BvIte(c, t, e), Sort::Bv(w)),
        }
    }

    // ---- Predicates ----

    /// Equality over bit-vectors.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_same_bv(a, b);
        if a == b {
            return self.tru();
        }
        self.intern(TermKind::Eq(a.min(b), a.max(b)), Sort::Bool)
    }

    /// Disequality over bit-vectors.
    pub fn neq(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than.
    pub fn ult(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_same_bv(a, b);
        if a == b {
            return self.fls();
        }
        self.intern(TermKind::Ult(a, b), Sort::Bool)
    }

    /// Unsigned less-or-equal.
    pub fn ule(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_same_bv(a, b);
        if a == b {
            return self.tru();
        }
        self.intern(TermKind::Ule(a, b), Sort::Bool)
    }

    /// Signed less-than.
    pub fn slt(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_same_bv(a, b);
        if a == b {
            return self.fls();
        }
        self.intern(TermKind::Slt(a, b), Sort::Bool)
    }

    /// Signed less-or-equal.
    pub fn sle(&mut self, a: TermId, b: TermId) -> TermId {
        self.expect_same_bv(a, b);
        if a == b {
            return self.tru();
        }
        self.intern(TermKind::Sle(a, b), Sort::Bool)
    }

    // ---- Evaluation ----

    /// Evaluates `t` under concrete variable values.
    ///
    /// `bv_vars` resolves [`TermKind::BvVar`] by name; `bool_vars` resolves
    /// [`TermKind::BoolVar`]. Returns [`Value::Bool`] or [`Value::Bv`].
    /// Used to validate blaster circuits and solver models.
    pub fn eval(
        &self,
        t: TermId,
        bv_vars: &dyn Fn(&str) -> u64,
        bool_vars: &dyn Fn(&str) -> bool,
    ) -> Value {
        use TermKind::*;
        let b = |v: Value| v.as_bool();
        let n = |v: Value| v.as_bv();
        let ev = |x: TermId| self.eval(x, bv_vars, bool_vars);
        match self.kind(t) {
            BoolConst(x) => Value::Bool(*x),
            BoolVar(name) => Value::Bool(bool_vars(name)),
            Not(a) => Value::Bool(!b(ev(*a))),
            And(a, c) => Value::Bool(b(ev(*a)) && b(ev(*c))),
            Or(a, c) => Value::Bool(b(ev(*a)) || b(ev(*c))),
            Xor(a, c) => Value::Bool(b(ev(*a)) ^ b(ev(*c))),
            Implies(a, c) => Value::Bool(!b(ev(*a)) || b(ev(*c))),
            Iff(a, c) => Value::Bool(b(ev(*a)) == b(ev(*c))),
            BoolIte(c, x, y) => {
                if b(ev(*c)) {
                    ev(*x)
                } else {
                    ev(*y)
                }
            }
            BvConst { value, .. } => Value::Bv(*value),
            BvVar { name, width } => Value::Bv(truncate(bv_vars(name), *width)),
            BvAdd(a, c) => {
                let w = self.width(t);
                Value::Bv(truncate(n(ev(*a)).wrapping_add(n(ev(*c))), w))
            }
            BvSub(a, c) => {
                let w = self.width(t);
                Value::Bv(truncate(n(ev(*a)).wrapping_sub(n(ev(*c))), w))
            }
            BvMul(a, c) => {
                let w = self.width(t);
                Value::Bv(truncate(n(ev(*a)).wrapping_mul(n(ev(*c))), w))
            }
            BvNeg(a) => {
                let w = self.width(t);
                Value::Bv(truncate(n(ev(*a)).wrapping_neg(), w))
            }
            BvNot(a) => {
                let w = self.width(t);
                Value::Bv(truncate(!n(ev(*a)), w))
            }
            BvAnd(a, c) => Value::Bv(n(ev(*a)) & n(ev(*c))),
            BvOr(a, c) => Value::Bv(n(ev(*a)) | n(ev(*c))),
            BvXor(a, c) => Value::Bv(n(ev(*a)) ^ n(ev(*c))),
            BvShlConst(a, by) => {
                let w = self.width(t);
                Value::Bv(truncate(n(ev(*a)) << by, w))
            }
            BvLshrConst(a, by) => Value::Bv(n(ev(*a)) >> by),
            BvIte(c, x, y) => {
                if b(ev(*c)) {
                    ev(*x)
                } else {
                    ev(*y)
                }
            }
            Eq(a, c) => Value::Bool(n(ev(*a)) == n(ev(*c))),
            Ult(a, c) => Value::Bool(n(ev(*a)) < n(ev(*c))),
            Ule(a, c) => Value::Bool(n(ev(*a)) <= n(ev(*c))),
            Slt(a, c) => {
                let w = self.width(*a);
                Value::Bool(sign_extend(n(ev(*a)), w) < sign_extend(n(ev(*c)), w))
            }
            Sle(a, c) => {
                let w = self.width(*a);
                Value::Bool(sign_extend(n(ev(*a)), w) <= sign_extend(n(ev(*c)), w))
            }
        }
    }
}

/// A concrete value.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// Propositional value.
    Bool(bool),
    /// Bit-vector value (in the low bits).
    Bv(u64),
}

impl Value {
    /// Extracts a Boolean; panics on bit-vectors.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Bv(_) => panic!("expected Bool value"),
        }
    }

    /// Extracts a bit-vector; panics on Booleans.
    pub fn as_bv(self) -> u64 {
        match self {
            Value::Bv(n) => n,
            Value::Bool(_) => panic!("expected Bv value"),
        }
    }
}

/// Masks `value` down to `width` bits.
pub fn truncate(value: u64, width: u32) -> u64 {
    if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Sign-extends a `width`-bit pattern to `i64`.
pub fn sign_extend(value: u64, width: u32) -> i64 {
    let shift = 64 - width;
    ((value << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_bv(_: &str) -> u64 {
        panic!("no bv vars expected")
    }
    fn no_bool(_: &str) -> bool {
        panic!("no bool vars expected")
    }

    #[test]
    fn hash_consing_shares_structure() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 8);
        let b = ts.bv_var("b", 8);
        let s1 = ts.bv_add(a, b);
        let s2 = ts.bv_add(b, a); // commutative normalization
        assert_eq!(s1, s2);
        let a2 = ts.bv_var("a", 8);
        assert_eq!(a, a2);
    }

    #[test]
    fn constant_folding() {
        let mut ts = TermStore::new();
        let t = ts.tru();
        let f = ts.fls();
        let x = ts.bool_var("x");
        assert_eq!(ts.and(t, x), x);
        assert_eq!(ts.and(f, x), f);
        assert_eq!(ts.or(t, x), t);
        assert_eq!(ts.or(f, x), x);
        assert_eq!(ts.not(t), f);
        let nx = ts.not(x);
        assert_eq!(ts.not(nx), x);
        assert_eq!(ts.implies(f, x), t);
        assert_eq!(ts.xor(x, x), f);
        assert_eq!(ts.iff(x, x), t);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 8);
        let b = ts.bv_var("b", 16);
        let _ = ts.bv_add(a, b);
    }

    #[test]
    fn eval_arithmetic() {
        let mut ts = TermStore::new();
        let a = ts.bv_var("a", 8);
        let b = ts.bv_var("b", 8);
        let sum = ts.bv_add(a, b);
        let prod = ts.bv_mul(a, b);
        let diff = ts.bv_sub(a, b);
        let vars = |name: &str| -> u64 {
            match name {
                "a" => 200,
                "b" => 100,
                _ => unreachable!(),
            }
        };
        assert_eq!(ts.eval(sum, &vars, &no_bool), Value::Bv((200 + 100) & 0xff));
        assert_eq!(
            ts.eval(prod, &vars, &no_bool),
            Value::Bv((200 * 100) & 0xff)
        );
        assert_eq!(ts.eval(diff, &vars, &no_bool), Value::Bv(100));
    }

    #[test]
    fn eval_comparisons_signed_unsigned() {
        let mut ts = TermStore::new();
        let a = ts.bv_const(0xff, 8); // 255 unsigned, -1 signed
        let b = ts.bv_const(1, 8);
        let ult = ts.ult(a, b);
        let slt = ts.slt(a, b);
        assert_eq!(ts.eval(ult, &no_bv, &no_bool), Value::Bool(false));
        assert_eq!(ts.eval(slt, &no_bv, &no_bool), Value::Bool(true));
    }

    #[test]
    fn eval_ite_and_shifts() {
        let mut ts = TermStore::new();
        let c = ts.bool_var("c");
        let a = ts.bv_const(0b1011, 4);
        let b = ts.bv_const(0b0100, 4);
        let ite = ts.bv_ite(c, a, b);
        let shl = ts.bv_shl_const(a, 1);
        let shr = ts.bv_lshr_const(a, 2);
        let cv_true = |_: &str| true;
        let cv_false = |_: &str| false;
        assert_eq!(ts.eval(ite, &no_bv, &cv_true), Value::Bv(0b1011));
        assert_eq!(ts.eval(ite, &no_bv, &cv_false), Value::Bv(0b0100));
        assert_eq!(ts.eval(shl, &no_bv, &no_bool), Value::Bv(0b0110));
        assert_eq!(ts.eval(shr, &no_bv, &no_bool), Value::Bv(0b0010));
    }

    #[test]
    fn truncate_and_sign_extend_helpers() {
        assert_eq!(truncate(0x1ff, 8), 0xff);
        assert_eq!(truncate(u64::MAX, 64), u64::MAX);
        assert_eq!(sign_extend(0xff, 8), -1);
        assert_eq!(sign_extend(0x7f, 8), 127);
        assert_eq!(sign_extend(0x80, 8), -128);
    }

    #[test]
    fn ite_folds_on_constant_condition() {
        let mut ts = TermStore::new();
        let t = ts.tru();
        let a = ts.bv_const(1, 8);
        let b = ts.bv_const(2, 8);
        assert_eq!(ts.bv_ite(t, a, b), a);
        let x = ts.bool_var("x");
        assert_eq!(ts.bv_ite(x, a, a), a);
    }
}
