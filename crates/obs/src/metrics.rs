//! Zero-dependency metrics primitives: log-linear [`Histogram`]s with
//! percentile queries, the fixed set of pipeline distributions ([`Hists`])
//! fed by the [`Recorder`](crate::Recorder) event path, and a named
//! [`MetricsRegistry`] of counters/gauges/histograms used by long-running
//! harnesses (the batch heartbeat) to stream periodic snapshots.
//!
//! The histogram is HDR-style log-linear: values `0..LINEAR_MAX` get one
//! bucket each (exact), larger values share an octave split into
//! `SUBBUCKETS` linear sub-buckets, bounding the relative quantile error
//! at `1/SUBBUCKETS` (6.25%). Buckets are stored sparsely, so an empty or
//! narrow distribution costs a handful of map entries, never a dense array.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::VarClass;

/// Values below this threshold get exact single-value buckets.
const LINEAR_MAX: u64 = 32;
/// Linear sub-buckets per octave above the linear region.
const SUBBUCKETS: u64 = 16;
/// log2 of [`LINEAR_MAX`]; the first octave index of the log region.
const LINEAR_BITS: u32 = 5;
/// log2 of [`SUBBUCKETS`].
const SUB_BITS: u32 = 4;

/// A log-linear histogram over `u64` observations.
///
/// Tracks exact `count`, `sum`, `min`, and `max`; quantiles are answered
/// from the bucket layout with ≤ 1/16 relative error (exact below
/// `LINEAR_MAX`). Reported percentiles use each bucket's *upper* bound,
/// so `percentile(p)` never under-reports the true rank-`p` value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Sparse bucket index → count.
    buckets: BTreeMap<u32, u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Maps a value to its bucket index.
fn bucket_of(v: u64) -> u32 {
    if v < LINEAR_MAX {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) as u32) & (SUBBUCKETS as u32 - 1);
    LINEAR_MAX as u32 + (msb - LINEAR_BITS) * SUBBUCKETS as u32 + sub
}

/// The largest value mapping to bucket `b` (inverse of [`bucket_of`]).
fn bucket_upper(b: u32) -> u64 {
    if (b as u64) < LINEAR_MAX {
        return b as u64;
    }
    let rel = b - LINEAR_MAX as u32;
    let msb = LINEAR_BITS + rel / SUBBUCKETS as u32;
    let sub = (rel % SUBBUCKETS as u32) as u64;
    let step = 1u64 << (msb - SUB_BITS);
    // Written as `(base - 1) + width` so the top octave's upper bound —
    // exactly `u64::MAX` — computes without overflowing.
    (1u64 << msb) - 1 + (sub + 1) * step
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `p` in `[0, 1]`: an upper bound on the
    /// `ceil(p·count)`-th smallest observation, tight to the bucket width
    /// (≤ 1/16 relative). Returns 0 on an empty histogram; `p = 0` returns
    /// the minimum, `p ≥ 1` the exact maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p >= 1.0 {
            return self.max;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&b, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Never report beyond the recorded extremes.
                return bucket_upper(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
    }

    /// Compact sparse encoding `"idx:count,idx:count,…"` for NDJSON export.
    pub fn encode_buckets(&self) -> String {
        let mut out = String::new();
        for (i, (&b, &n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}:{n}");
        }
        out
    }

    /// Rebuilds a histogram from its NDJSON fields. The bucket string must
    /// be the output of [`Histogram::encode_buckets`]; `count`/`sum`/`min`/
    /// `max` are carried exactly, and bucket counts must reconcile with
    /// `count`.
    pub fn decode(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: &str,
    ) -> Result<Histogram, String> {
        let mut h = Histogram {
            buckets: BTreeMap::new(),
            count,
            sum,
            min,
            max,
        };
        let mut total = 0u64;
        for part in buckets.split(',').filter(|p| !p.is_empty()) {
            let (b, n) = part
                .split_once(':')
                .ok_or_else(|| format!("bad bucket entry {part:?}"))?;
            let b: u32 = b.parse().map_err(|_| format!("bad bucket index {b:?}"))?;
            let n: u64 = n.parse().map_err(|_| format!("bad bucket count {n:?}"))?;
            if h.buckets.insert(b, n).is_some() {
                return Err(format!("duplicate bucket index {b}"));
            }
            total += n;
        }
        if total != count {
            return Err(format!(
                "bucket counts sum to {total}, histogram count is {count}"
            ));
        }
        Ok(h)
    }
}

/// The fixed set of pipeline distributions, histogram-izing what the
/// [`Counters`](crate::Counters) track only as totals. Every field is fed
/// by the recorder's event path; adding a field here forces updates to the
/// NDJSON round-trip (compile-guard tested, like `Counters`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hists {
    /// LBD of each learnt conflict clause.
    pub conflict_lbd: Histogram,
    /// Edge count of each EOG cycle blocked by a theory lemma.
    pub lemma_cycle_len: Histogram,
    /// Nodes visited by each cycle check that ran the bounded search
    /// (O(1)-accepted checks are not observed — they visit nothing).
    pub cycle_visited: Histogram,
    /// Restart interval: conflicts between consecutive restarts.
    pub restart_interval: Histogram,
    /// Wall-clock microseconds of each incremental-sweep frame solve.
    pub frame_solve_us: Histogram,
    /// Imported-clause hits (propagations/conflicts on foreign clauses)
    /// per share exchange, observed once per exchange that had any.
    pub sh_import_hits: Histogram,
    /// Decisions of each class inside one conflict-to-conflict window,
    /// indexed by `VarClass::index()`: at every conflict, each class's
    /// decision count since the previous conflict is observed (zero counts
    /// are skipped — an absent class says nothing about its distances).
    pub dec_to_conflict: [Histogram; VarClass::COUNT],
}

impl Hists {
    /// `(name, histogram)` pairs for every distribution, in stable order.
    /// Names are the NDJSON `hist` line keys.
    pub fn named(&self) -> Vec<(String, &Histogram)> {
        let mut out: Vec<(String, &Histogram)> = vec![
            ("conflict_lbd".into(), &self.conflict_lbd),
            ("lemma_cycle_len".into(), &self.lemma_cycle_len),
            ("cycle_visited".into(), &self.cycle_visited),
            ("restart_interval".into(), &self.restart_interval),
            ("frame_solve_us".into(), &self.frame_solve_us),
            ("sh_import_hits".into(), &self.sh_import_hits),
        ];
        for cls in VarClass::all() {
            out.push((
                format!("d2c_{}", cls.name()),
                &self.dec_to_conflict[cls.index()],
            ));
        }
        out
    }

    /// Mutable lookup by NDJSON name (inverse of [`Hists::named`]).
    pub fn by_name_mut(&mut self, name: &str) -> Option<&mut Histogram> {
        match name {
            "conflict_lbd" => Some(&mut self.conflict_lbd),
            "lemma_cycle_len" => Some(&mut self.lemma_cycle_len),
            "cycle_visited" => Some(&mut self.cycle_visited),
            "restart_interval" => Some(&mut self.restart_interval),
            "frame_solve_us" => Some(&mut self.frame_solve_us),
            "sh_import_hits" => Some(&mut self.sh_import_hits),
            _ => {
                let cls = VarClass::all()
                    .into_iter()
                    .find(|c| name == format!("d2c_{}", c.name()))?;
                Some(&mut self.dec_to_conflict[cls.index()])
            }
        }
    }

    /// Folds another set of distributions into this one.
    pub fn merge(&mut self, other: &Hists) {
        // Exhaustive destructuring: adding a field without merging it here
        // fails the build.
        let Hists {
            conflict_lbd,
            lemma_cycle_len,
            cycle_visited,
            restart_interval,
            frame_solve_us,
            sh_import_hits,
            dec_to_conflict,
        } = other;
        self.conflict_lbd.merge(conflict_lbd);
        self.lemma_cycle_len.merge(lemma_cycle_len);
        self.cycle_visited.merge(cycle_visited);
        self.restart_interval.merge(restart_interval);
        self.frame_solve_us.merge(frame_solve_us);
        self.sh_import_hits.merge(sh_import_hits);
        for (mine, theirs) in self.dec_to_conflict.iter_mut().zip(dec_to_conflict) {
            mine.merge(theirs);
        }
    }
}

/// A named registry of counters, gauges, and histograms for long-running
/// harnesses. Unlike the [`Recorder`](crate::Recorder)'s fixed counter
/// struct, keys here are free-form strings, so a harness can publish
/// whatever its heartbeat needs without schema changes.
///
/// All values are `u64` — the NDJSON trace grammar is integer-only, and
/// every batch metric (task counts, bytes, microseconds) fits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Observes `value` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.hists
            .entry(name.to_owned())
            .or_default()
            .observe(value);
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Histogram by name, if any observation was recorded.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// One flat NDJSON `metrics` line: every counter and gauge verbatim,
    /// every histogram as `<name>_p50/p90/p99/max/count`. `seq` and
    /// `elapsed_ms` order and time-stamp the snapshot stream.
    pub fn snapshot_line(&self, seq: u64, elapsed_ms: u64) -> String {
        let mut out = String::from("{\"t\":\"metrics\"");
        let _ = write!(out, ",\"seq\":{seq},\"elapsed_ms\":{elapsed_ms}");
        for (k, v) in &self.counters {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        for (k, v) in &self.gauges {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        for (k, h) in &self.hists {
            let _ = write!(
                out,
                ",\"{k}_p50\":{},\"{k}_p90\":{},\"{k}_p99\":{},\"{k}_max\":{},\"{k}_count\":{}",
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max(),
                h.count()
            );
        }
        out.push('}');
        out
    }
}

/// Current resident-set size in bytes, read from `/proc/self/statm` where
/// available (Linux). Returns 0 elsewhere — an estimate, never a hard
/// dependency.
pub fn rss_bytes() -> u64 {
    if let Ok(statm) = std::fs::read_to_string("/proc/self/statm") {
        if let Some(pages) = statm.split_whitespace().nth(1) {
            if let Ok(pages) = pages.parse::<u64>() {
                return pages * 4096;
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotone_and_invertible() {
        let mut prev_bucket = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= prev_bucket, "bucket index regressed at {v}");
            prev_bucket = b;
            assert!(bucket_upper(b) >= v, "upper bound below value at {v}");
            if v < LINEAR_MAX {
                assert_eq!(bucket_upper(b), v, "linear region must be exact");
            } else {
                // Relative error of the upper bound is bounded by the
                // sub-bucket width.
                assert!(bucket_upper(b) - v <= v / SUBBUCKETS + 1);
            }
        }
        // Spot-check the large end.
        for v in [1u64 << 32, u64::MAX / 2, u64::MAX] {
            assert!(bucket_upper(bucket_of(v)) >= v);
        }
    }

    #[test]
    fn percentiles_track_sorted_oracle() {
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = Vec::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            // Deterministic spread over several octaves.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            let v = x % 50_000;
            h.observe(v);
            vals.push(v);
        }
        vals.sort_unstable();
        for &(p, _) in &[(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
            let rank = ((p * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let oracle = vals[rank - 1];
            let got = h.percentile(p);
            assert!(got >= oracle, "p{p}: {got} under-reports oracle {oracle}");
            assert!(
                got <= oracle + oracle / (SUBBUCKETS - 1) + 1,
                "p{p}: {got} too far above oracle {oracle}"
            );
        }
        assert_eq!(h.percentile(1.0), *vals.last().unwrap());
        assert_eq!(h.max(), *vals.last().unwrap());
        assert_eq!(h.min(), vals[0]);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), vals.iter().sum::<u64>());
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.encode_buckets(), "");
    }

    #[test]
    fn merge_equals_observing_the_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..500u64 {
            let v = v * 37 % 9001;
            if v % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            both.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both);
        // Merging into empty clones the source.
        let mut empty = Histogram::new();
        empty.merge(&both);
        assert_eq!(empty, both);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut h = Histogram::new();
        for v in [0, 1, 5, 31, 32, 100, 40_000, 1 << 40] {
            h.observe(v);
        }
        let back = Histogram::decode(h.count(), h.sum(), h.min(), h.max(), &h.encode_buckets())
            .expect("decode");
        assert_eq!(back, h);
        // Tampered bucket counts are rejected.
        assert!(Histogram::decode(3, 10, 0, 5, "0:1,2:1").is_err());
        assert!(Histogram::decode(2, 10, 0, 5, "0:1,0:1").is_err());
        assert!(Histogram::decode(1, 1, 1, 1, "nonsense").is_err());
    }

    #[test]
    fn hists_named_and_by_name_agree() {
        let mut hists = Hists::default();
        let names: Vec<String> = hists.named().iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names.len(), 6 + VarClass::COUNT);
        for name in &names {
            hists
                .by_name_mut(name)
                .unwrap_or_else(|| panic!("{name} not addressable"))
                .observe(7);
        }
        for (name, h) in hists.named() {
            assert_eq!(h.count(), 1, "{name} not fed through by_name_mut");
        }
        assert!(hists.by_name_mut("no_such_hist").is_none());
    }

    #[test]
    fn registry_snapshot_line_is_flat_json() {
        let mut reg = MetricsRegistry::new();
        reg.add("tasks_done", 3);
        reg.add("tasks_done", 1);
        reg.set_gauge("rss_bytes", 1 << 20);
        for v in [10u64, 20, 30] {
            reg.observe("frame_us", v);
        }
        assert_eq!(reg.counter("tasks_done"), 4);
        assert_eq!(reg.gauge("rss_bytes"), Some(1 << 20));
        assert_eq!(reg.hist("frame_us").unwrap().count(), 3);
        let line = reg.snapshot_line(2, 1500);
        let map = crate::ndjson::parse_line(&line).expect("flat JSON");
        assert_eq!(map.get("t").unwrap().as_str(), Some("metrics"));
        assert_eq!(map.get("seq").unwrap().as_u64(), Some(2));
        assert_eq!(map.get("tasks_done").unwrap().as_u64(), Some(4));
        assert_eq!(map.get("frame_us_count").unwrap().as_u64(), Some(3));
        assert!(map.get("frame_us_p50").unwrap().as_u64().unwrap() >= 20);
    }
}
