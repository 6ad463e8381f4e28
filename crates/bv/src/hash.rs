//! A fast, non-cryptographic hasher for the stack's small keys: term ids,
//! term constructors and event-id pairs.
//!
//! The standard library's SipHash resists keys crafted to collide. These
//! maps sit on every encoding's path, and their keys come from the program
//! being verified, which can already demand any amount of work outright (a
//! hard instance is a few lines long), so that protection buys nothing
//! here. One multiply per word spreads such keys over a table. Nothing
//! observable may depend on the iteration order of a map built with it
//! (the std hasher's order is randomized per process, so no such
//! dependence exists).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd constant with well-mixed bits (the fractional part of the
/// golden ratio, as in Fibonacci hashing).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word-at-a-time hasher behind [`FastMap`].
#[derive(Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.wrapping_add(word)).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; hash tables take
        // their bucket index from the low bits.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(x: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(x)
    }

    #[test]
    fn small_integer_pairs_spread_over_the_low_bits() {
        // Event-id pairs under 64: every low-16-bit bucket distinct.
        let mut seen = HashSet::new();
        for a in 0..64usize {
            for b in 0..64usize {
                seen.insert(hash_of((a, b)) & 0xffff);
            }
        }
        assert!(seen.len() > 4000, "{} distinct buckets of 4096", seen.len());
    }

    #[test]
    fn byte_strings_differ_in_their_tails() {
        assert_ne!(hash_of("x_12"), hash_of("x_13"));
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
    }
}
