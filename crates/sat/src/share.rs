//! Cross-member learnt-clause sharing for the parallel portfolio.
//!
//! Every portfolio member solves the *same* CNF+theory instance (one SSA
//! blast, one variable numbering), so any clause learnt by one member is a
//! logical consequence valid for all of them. This module is the transport:
//! a sequence-stamped broadcast pool ([`SharedPool`]) that members export
//! into at conflict time and import from at restart boundaries, through a
//! per-member [`MemberEndpoint`] that batches exports in a bounded outbox
//! and deduplicates imports by clause fingerprint.
//!
//! Lock discipline: the propagate/decide hot path never touches the pool.
//! The only lock-free probe is [`MemberEndpoint::pending`] (one relaxed
//! atomic load, used by the solver's budget stride poll); the pool mutex is
//! taken only inside [`MemberEndpoint::flush`]/[`MemberEndpoint::drain_imports`],
//! which the solver calls at restart-to-root boundaries.
//!
//! Export is filtered by an interference-aware policy ([`ShareClass`]):
//! order-theory EOG-cycle lemmas always ship (a certifying importer logs
//! one as a theory lemma, and the certifier re-derives its cycle from the
//! clause), clauses over external-RF interference variables ship up to
//! `lbd_max_hot`, and generic learnt clauses only up to the stricter
//! `lbd_max`.

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::lit::Lit;

/// Interference class of a shared clause — decides its export LBD cap.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShareClass {
    /// An order-theory EOG-cycle lemma, or a clause learnt from one; always
    /// ships (cycle lemmas are the expensive-to-rediscover ones).
    Theory,
    /// A learnt clause mentioning at least one external-RF interference
    /// variable; ships up to the hot LBD cap.
    Interference,
    /// Any other learnt clause; ships only up to the strict LBD cap.
    Generic,
}

impl ShareClass {
    /// Short stable name for telemetry.
    pub fn name(self) -> &'static str {
        match self {
            ShareClass::Theory => "theory",
            ShareClass::Interference => "rf",
            ShareClass::Generic => "generic",
        }
    }
}

/// A clause published to the pool, with enough metadata for the importer to
/// filter and attach it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedClause {
    /// Index of the exporting member (importers skip their own exports).
    pub from_member: u32,
    /// Interference class the exporter assigned.
    pub class: ShareClass,
    /// LBD at export time (0 for theory lemmas, which are not learnt via
    /// conflict analysis).
    pub lbd: u32,
    /// The clause literals, as learnt (unsorted).
    pub lits: Vec<Lit>,
    /// `true` for a theory lemma (a [`ShareClass::Theory`] clause offered
    /// with LBD 0): valid in the theory on its own, so a proof-logging
    /// importer may log it as a lemma step. A learnt clause is RUP only
    /// against its exporter's clause database.
    pub lemma: bool,
}

/// Export/import policy knobs; `--share-lbd-max N` maps to
/// [`ShareConfig::with_lbd_max`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShareConfig {
    /// LBD cap for [`ShareClass::Generic`] exports.
    pub lbd_max: u32,
    /// LBD cap for [`ShareClass::Interference`] exports (higher: the
    /// interference relation marks these as worth rediscovery cost).
    pub lbd_max_hot: u32,
    /// Hard length cap on any exported clause.
    pub max_clause_len: usize,
    /// Bounded per-member outbox: oldest pending exports are dropped first.
    pub outbox_cap: usize,
    /// Bounded broadcast pool ring: oldest published clauses are evicted.
    pub pool_cap: usize,
    /// Per-exchange import budget: a member returning to the root reads at
    /// most this many pool entries per drain, so a long stretch away from
    /// level 0 cannot flood the clause database (and its watch lists) with
    /// the pool's entire backlog in one exchange. The cursor parks where
    /// the read stopped; anything the ring evicts before the member
    /// catches up is counted as dropped — natural backpressure on slow
    /// members.
    pub import_cap: usize,
}

impl Default for ShareConfig {
    fn default() -> ShareConfig {
        ShareConfig {
            // Glue-level default: only near-glue clauses are worth the
            // propagation cost they impose on every importer (looser caps
            // measurably slow heavily contended proofs).
            lbd_max: 2,
            lbd_max_hot: 4,
            max_clause_len: 64,
            outbox_cap: 256,
            pool_cap: 4096,
            import_cap: 128,
        }
    }
}

impl ShareConfig {
    /// Policy with a custom generic LBD cap; the hot cap scales to `2n` so
    /// interference clauses keep their relative advantage.
    pub fn with_lbd_max(n: u32) -> ShareConfig {
        ShareConfig {
            lbd_max: n,
            lbd_max_hot: n.saturating_mul(2),
            ..ShareConfig::default()
        }
    }
}

/// Stable fingerprint of a clause, invariant under literal order: hashes
/// the sorted packed literal codes with a splitmix-style mixer.
pub fn fingerprint(lits: &[Lit]) -> u64 {
    let mut codes: Vec<u32> = lits.iter().map(|l| l.code() as u32).collect();
    codes.sort_unstable();
    codes.dedup();
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ (codes.len() as u64);
    for c in codes {
        h ^= c as u64;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
    }
    h
}

fn clause_bytes(c: &SharedClause) -> u64 {
    (std::mem::size_of::<SharedClause>() + c.lits.len() * std::mem::size_of::<Lit>()) as u64
}

struct PoolInner {
    items: VecDeque<Arc<SharedClause>>,
    /// Sequence number of `items[0]`; readers behind it have missed evicted
    /// clauses (counted as drops on their side).
    base: u64,
}

/// The broadcast pool: a bounded ring of published clauses, stamped with a
/// monotone sequence number readable without the lock.
pub struct SharedPool {
    /// Next sequence number to assign == count of clauses ever published.
    seq: AtomicU64,
    /// Approximate bytes held by the ring (updated under the lock, read
    /// lock-free by [`SharedPool::memory_bytes`]).
    approx_bytes: AtomicU64,
    cap: usize,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("published", &self.published())
            .field("cap", &self.cap)
            .finish()
    }
}

impl SharedPool {
    /// New empty pool holding at most `cap` clauses.
    pub fn new(cap: usize) -> Arc<SharedPool> {
        Arc::new(SharedPool {
            seq: AtomicU64::new(0),
            approx_bytes: AtomicU64::new(0),
            cap: cap.max(1),
            inner: Mutex::new(PoolInner {
                items: VecDeque::new(),
                base: 0,
            }),
        })
    }

    /// Count of clauses ever published — one relaxed load, no lock. A
    /// member whose cursor is behind this has imports pending.
    pub fn published(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Approximate bytes held by the ring — one relaxed load, no lock.
    pub fn memory_bytes(&self) -> usize {
        self.approx_bytes.load(Ordering::Relaxed) as usize
    }

    /// Publish a batch, evicting the oldest clauses beyond the ring cap.
    pub fn publish(&self, batch: Vec<SharedClause>) {
        if batch.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("share pool poisoned");
        let mut bytes = self.approx_bytes.load(Ordering::Relaxed);
        let mut seq = self.seq.load(Ordering::Relaxed);
        for c in batch {
            bytes += clause_bytes(&c);
            inner.items.push_back(Arc::new(c));
            seq += 1;
            while inner.items.len() > self.cap {
                let evicted = inner.items.pop_front().expect("non-empty over cap");
                bytes = bytes.saturating_sub(clause_bytes(&evicted));
                inner.base += 1;
            }
        }
        self.approx_bytes.store(bytes, Ordering::Relaxed);
        // Release pairs with the relaxed `published` probe: readers that see
        // the new seq take the lock before touching the items.
        self.seq.store(seq, Ordering::Release);
    }

    /// Copy up to `limit` clauses published at or after `cursor` into `out`
    /// and return the new cursor (parked where the read stopped when the
    /// limit bites). Clauses evicted before the cursor could read them are
    /// skipped; the second return value counts them.
    pub fn read_from(
        &self,
        cursor: u64,
        limit: usize,
        out: &mut Vec<Arc<SharedClause>>,
    ) -> (u64, u64) {
        let inner = self.inner.lock().expect("share pool poisoned");
        let end = inner.base + inner.items.len() as u64;
        let start = cursor.max(inner.base);
        let missed = start - cursor;
        let end = end.min(start + limit as u64);
        for i in start..end {
            out.push(Arc::clone(&inner.items[(i - inner.base) as usize]));
        }
        (end, missed)
    }
}

/// Everything a portfolio member needs to join a pool: carried in
/// `VerifyOptions`, turned into a live [`MemberEndpoint`] inside the solver.
#[derive(Clone, Debug)]
pub struct ShareSpec {
    /// The shared broadcast pool, one per portfolio run.
    pub pool: Arc<SharedPool>,
    /// This member's index (exports are stamped with it; own exports are
    /// skipped on import).
    pub member: u32,
    /// Export/import policy.
    pub cfg: ShareConfig,
}

impl ShareSpec {
    /// Materialize the member's live endpoint.
    pub fn endpoint(&self) -> MemberEndpoint {
        MemberEndpoint {
            pool: Arc::clone(&self.pool),
            member: self.member,
            cfg: self.cfg,
            outbox: VecDeque::new(),
            cursor: 0,
            seen: HashSet::new(),
        }
    }
}

/// Per-member side of the pool: a bounded export outbox, a read cursor, and
/// the fingerprint set that deduplicates both directions.
pub struct MemberEndpoint {
    pool: Arc<SharedPool>,
    member: u32,
    cfg: ShareConfig,
    outbox: VecDeque<SharedClause>,
    cursor: u64,
    seen: HashSet<u64>,
}

impl std::fmt::Debug for MemberEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemberEndpoint")
            .field("member", &self.member)
            .field("outbox", &self.outbox.len())
            .field("cursor", &self.cursor)
            .finish()
    }
}

impl MemberEndpoint {
    /// This member's index.
    pub fn member(&self) -> u32 {
        self.member
    }

    /// The policy this endpoint filters with.
    pub fn config(&self) -> &ShareConfig {
        &self.cfg
    }

    /// Offer a clause for export. Applies the interference-aware filter
    /// (theory class: length cap only; interference: `lbd_max_hot`;
    /// generic: `lbd_max`) and skips clauses already seen in either
    /// direction. A theory lemma is offered as [`ShareClass::Theory`] with
    /// LBD 0, since conflict analysis never learnt it, and is published
    /// marked [`SharedClause::lemma`]. Returns `true` if the clause entered
    /// the outbox.
    pub fn offer(&mut self, class: ShareClass, lbd: u32, lits: &[Lit]) -> bool {
        if lits.is_empty() || lits.len() > self.cfg.max_clause_len {
            return false;
        }
        let cap = match class {
            ShareClass::Theory => u32::MAX,
            ShareClass::Interference => self.cfg.lbd_max_hot,
            ShareClass::Generic => self.cfg.lbd_max,
        };
        if lbd > cap {
            return false;
        }
        if !self.seen.insert(fingerprint(lits)) {
            return false;
        }
        while self.outbox.len() >= self.cfg.outbox_cap {
            self.outbox.pop_front();
        }
        self.outbox.push_back(SharedClause {
            from_member: self.member,
            class,
            lbd,
            lits: lits.to_vec(),
            lemma: class == ShareClass::Theory && lbd == 0,
        });
        true
    }

    /// Publish the pending outbox to the pool (no-op when empty).
    pub fn flush(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let batch: Vec<SharedClause> = self.outbox.drain(..).collect();
        self.pool.publish(batch);
    }

    /// `true` if the pool holds clauses this member has not read yet. One
    /// relaxed atomic load — safe to call from the budget stride poll.
    pub fn pending(&self) -> bool {
        self.pool.published() > self.cursor
    }

    /// Pull unseen foreign clauses published since the last drain, at most
    /// [`ShareConfig::import_cap`] pool entries per call (the cursor parks
    /// where the read stopped, so the next exchange resumes there).
    /// Returns the count of clauses dropped (own exports, duplicates, and
    /// ring evictions the cursor missed).
    pub fn drain_imports(&mut self, out: &mut Vec<Arc<SharedClause>>) -> u64 {
        let mut raw = Vec::new();
        let (cursor, missed) = self
            .pool
            .read_from(self.cursor, self.cfg.import_cap, &mut raw);
        self.cursor = cursor;
        let mut dropped = missed;
        for c in raw {
            if c.from_member == self.member || !self.seen.insert(fingerprint(&c.lits)) {
                dropped += 1;
                continue;
            }
            out.push(c);
        }
        dropped
    }

    /// Bytes attributable to this member's view of the sharing layer: its
    /// outbox and dedup set, plus the broadcast ring itself (counted in
    /// full per member — a deliberate over-estimate that keeps the batch
    /// harness's memory cap honest under `--share`).
    pub fn memory_bytes(&self) -> usize {
        let outbox: u64 = self.outbox.iter().map(clause_bytes).sum();
        outbox as usize
            + self.seen.capacity() * std::mem::size_of::<u64>() * 2
            + self.pool.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lits(codes: &[u32]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    fn spec(pool: &Arc<SharedPool>, member: u32) -> ShareSpec {
        ShareSpec {
            pool: Arc::clone(pool),
            member,
            cfg: ShareConfig::default(),
        }
    }

    #[test]
    fn fingerprint_is_order_invariant_and_discriminates() {
        let a = Var::new(0).positive();
        let b = Var::new(1).negative();
        let c = Var::new(2).positive();
        assert_eq!(fingerprint(&[a, b, c]), fingerprint(&[c, a, b]));
        assert_ne!(fingerprint(&[a, b]), fingerprint(&[a, c]));
        assert_ne!(fingerprint(&[a]), fingerprint(&[!a]));
    }

    #[test]
    fn pool_round_trip_skips_own_and_duplicate_clauses() {
        let pool = SharedPool::new(64);
        let mut alice = spec(&pool, 0).endpoint();
        let mut bob = spec(&pool, 1).endpoint();

        assert!(alice.offer(ShareClass::Generic, 2, &lits(&[2, 5])));
        // Same clause, different literal order: deduplicated at offer time.
        assert!(!alice.offer(ShareClass::Generic, 2, &lits(&[5, 2])));
        alice.flush();
        assert!(bob.pending());

        let mut got = Vec::new();
        let dropped = bob.drain_imports(&mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(dropped, 0);
        assert_eq!(got[0].lits, lits(&[2, 5]));
        assert!(!bob.pending());

        // Alice skips her own export on drain.
        let mut own = Vec::new();
        let dropped = alice.drain_imports(&mut own);
        assert!(own.is_empty());
        assert_eq!(dropped, 1);

        // Bob re-offering the imported clause does not echo it back.
        assert!(!bob.offer(ShareClass::Generic, 2, &lits(&[2, 5])));
    }

    #[test]
    fn lbd_policy_is_class_aware() {
        let pool = SharedPool::new(64);
        let mut e = spec(&pool, 0).endpoint();
        // Generic capped at lbd_max = 2.
        assert!(!e.offer(ShareClass::Generic, 3, &lits(&[2, 4])));
        // Interference ships at the hot cap (4).
        assert!(e.offer(ShareClass::Interference, 3, &lits(&[2, 4])));
        // Theory lemmas ignore LBD entirely.
        assert!(e.offer(ShareClass::Theory, 99, &lits(&[6, 8])));
        // Length cap applies to everything.
        let long: Vec<Lit> = (0..65).map(|i| Var::new(i).positive()).collect();
        assert!(!e.offer(ShareClass::Theory, 0, &long));
    }

    #[test]
    fn only_theory_offers_at_lbd_zero_are_lemmas() {
        let pool = SharedPool::new(64);
        let mut e = spec(&pool, 0).endpoint();
        assert!(e.offer(ShareClass::Theory, 0, &lits(&[2, 4])));
        assert!(e.offer(ShareClass::Theory, 3, &lits(&[2, 6])));
        assert!(e.offer(ShareClass::Interference, 0, &lits(&[2, 8])));
        e.flush();
        let mut got = Vec::new();
        spec(&pool, 1).endpoint().drain_imports(&mut got);
        let marks: Vec<bool> = got.iter().map(|c| c.lemma).collect();
        assert_eq!(marks, vec![true, false, false]);
    }

    #[test]
    fn ring_evicts_oldest_and_reports_missed() {
        let pool = SharedPool::new(4);
        let mut w = spec(&pool, 0).endpoint();
        let mut r = spec(&pool, 1).endpoint();
        for i in 0..10u32 {
            assert!(w.offer(ShareClass::Theory, 0, &lits(&[2 * i, 2 * i + 1])));
        }
        w.flush();
        assert_eq!(pool.published(), 10);
        let mut got = Vec::new();
        let dropped = r.drain_imports(&mut got);
        // Ring cap 4: the first 6 publishes were evicted before the read.
        assert_eq!(got.len(), 4);
        assert_eq!(dropped, 6);
        assert_eq!(got[0].lits, lits(&[12, 13]));
    }

    #[test]
    fn outbox_is_bounded() {
        let pool = SharedPool::new(1024);
        let mut e = ShareSpec {
            pool: Arc::clone(&pool),
            member: 0,
            cfg: ShareConfig {
                outbox_cap: 2,
                ..ShareConfig::default()
            },
        }
        .endpoint();
        for i in 0..5u32 {
            e.offer(ShareClass::Theory, 0, &lits(&[2 * i, 2 * i + 1]));
        }
        assert_eq!(e.outbox.len(), 2);
        e.flush();
        assert_eq!(pool.published(), 2);
    }

    #[test]
    fn memory_bytes_tracks_ring_contents() {
        let pool = SharedPool::new(4);
        assert_eq!(pool.memory_bytes(), 0);
        let mut w = spec(&pool, 0).endpoint();
        w.offer(ShareClass::Generic, 1, &lits(&[2, 4, 6]));
        w.flush();
        let one = pool.memory_bytes();
        assert!(one > 0);
        for i in 2..10u32 {
            w.offer(
                ShareClass::Generic,
                1,
                &lits(&[2 * i, 2 * i + 2, 2 * i + 4]),
            );
        }
        w.flush();
        // Ring held at cap: bytes bounded by ~4 equal-sized clauses.
        assert_eq!(pool.memory_bytes(), 4 * one);
        assert!(w.memory_bytes() >= pool.memory_bytes());
    }

    #[test]
    fn import_cap_bounds_each_drain_and_parks_the_cursor() {
        let pool = SharedPool::new(1024);
        let mut w = spec(&pool, 0).endpoint();
        let mut r = ShareSpec {
            pool: Arc::clone(&pool),
            member: 1,
            cfg: ShareConfig {
                import_cap: 3,
                ..ShareConfig::default()
            },
        }
        .endpoint();
        for i in 0..8u32 {
            assert!(w.offer(ShareClass::Theory, 0, &lits(&[2 * i, 2 * i + 1])));
        }
        w.flush();
        // Three drains of at most 3: the cursor resumes where it parked,
        // nothing is lost, and the reader stays `pending` until caught up.
        let mut got = Vec::new();
        assert_eq!(r.drain_imports(&mut got), 0);
        assert_eq!(got.len(), 3);
        assert!(r.pending());
        assert_eq!(r.drain_imports(&mut got), 0);
        assert_eq!(got.len(), 6);
        assert_eq!(r.drain_imports(&mut got), 0);
        assert_eq!(got.len(), 8);
        assert!(!r.pending());
        assert_eq!(got[7].lits, lits(&[14, 15]));
    }

    #[test]
    fn share_config_with_lbd_max_scales_hot_cap() {
        let cfg = ShareConfig::with_lbd_max(3);
        assert_eq!(cfg.lbd_max, 3);
        assert_eq!(cfg.lbd_max_hot, 6);
    }
}
