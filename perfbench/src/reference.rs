//! Host-speed reference. The benchmark's timings are scaled to a fixed
//! reference speed so that they follow the program, not the machine.
//!
//! On a shared virtual machine the same deterministic work runs up to twice
//! as slow for seconds or minutes at a time, while the guest sees no steal
//! time, no page faults and no run-queue wait: a neighbour on the same
//! physical core competes for its caches and execution ports. A latency-bound
//! arithmetic chain barely notices; branchy, allocating, cache-bound code like
//! the verifier's does. So between rows the closed loop runs a fixed kernel of
//! that kind — ordered-map churn, hashing, unpredictable branches, a 1-MiB
//! pointer chase and a sort — which no change to the repository can alter, and
//! scales the wall time of the work in between by how much slower than
//! [`NOMINAL_MS`] the kernel ran around it.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall milliseconds at the reference speed, a fixed scale:
/// about its time in a fast stretch on a 2-vCPU Xeon (Sapphire Rapids) KVM
/// guest, where its median over a run was 5.4–6.0 ms. Scaled times are
/// milliseconds at this speed, so they read close to wall times there.
pub const NOMINAL_MS: f64 = 5.0;

/// Kernel runs per checkpoint; their median is the speed level there, so a
/// single disturbed run does not scale a stretch.
const PER_CHECKPOINT: usize = 3;

/// The fixed reference kernel and every sample of it taken in a run.
pub struct Speed {
    kernel: Kernel,
    level_ms: f64,
    /// Every kernel time measured, in milliseconds.
    pub samples_ms: Vec<f64>,
}

/// The kernel's inputs: fixed, not seeded by the run.
struct Kernel {
    chase: Vec<u32>,
    keys: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // One random cycle through 256 Ki slots (1 MiB).
        let n = 1usize << 18;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut chase = vec![0u32; n];
        for i in 0..n {
            chase[perm[i] as usize] = perm[(i + 1) % n];
        }
        let keys = (0..16_384).map(|_| next()).collect();
        Kernel { chase, keys }
    }

    fn run(&self) {
        let mut map = BTreeMap::new();
        let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut acc = 0u64;
        for (i, &k) in self.keys.iter().enumerate() {
            map.insert(k, i);
            if i % 3 == 0 {
                let first = *map.keys().next().unwrap_or(&0);
                map.remove(&first);
            }
            *hashed.entry(k & 0x3fff).or_default() += k;
            acc = match k & 3 {
                0 => acc.wrapping_add(k),
                1 => acc ^ (k >> 7),
                2 => acc.rotate_left(9),
                _ => acc.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
        }
        let n = self.chase.len() as u32;
        let mut p = [0, n / 4, n / 2, 3 * n / 4];
        for _ in 0..40_000 {
            for q in &mut p {
                *q = self.chase[*q as usize];
            }
        }
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        black_box((map.len(), hashed.len(), acc, p, sorted[sorted.len() / 2]));
    }
}

impl Speed {
    /// Builds the kernel's inputs and takes the first checkpoint's samples.
    pub fn new() -> Speed {
        let mut speed = Speed {
            kernel: Kernel::new(),
            level_ms: 0.0,
            samples_ms: Vec::new(),
        };
        speed.checkpoint();
        speed
    }

    /// Runs the kernel once and returns its wall milliseconds.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.kernel.run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// Closes a stretch of timed work that began right after the previous
    /// checkpoint: runs the kernel [`PER_CHECKPOINT`] times and returns the
    /// factor that scales the stretch's wall time to the reference speed,
    /// from the mean of the median kernel times on either side of it.
    pub fn checkpoint(&mut self) -> f64 {
        let before = self.level_ms;
        let mut times: Vec<f64> = (0..PER_CHECKPOINT).map(|_| self.sample()).collect();
        times.sort_by(f64::total_cmp);
        self.level_ms = times[PER_CHECKPOINT / 2];
        NOMINAL_MS / ((before + self.level_ms) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_scales_by_the_median_levels_around_the_stretch() {
        let mut s = Speed::new();
        assert_eq!(s.samples_ms.len(), PER_CHECKPOINT);
        let level = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(f64::total_cmp);
            v[PER_CHECKPOINT / 2]
        };
        let before = level(&s.samples_ms);
        let f = s.checkpoint();
        assert_eq!(s.samples_ms.len(), 2 * PER_CHECKPOINT);
        let after = level(&s.samples_ms[PER_CHECKPOINT..]);
        assert!((f - NOMINAL_MS * 2.0 / (before + after)).abs() < 1e-12);
        assert!(f.is_finite() && f > 0.0);
    }
}
