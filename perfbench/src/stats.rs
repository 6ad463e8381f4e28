//! The benchmark's own statistics and accounting: order statistics over
//! timing samples, the verdict tally behind `solved_share`, and the metric
//! name rule.

/// Smallest number of samples that must lie strictly above a reported tail
/// percentile. Below that the percentile is an extreme value, not a
/// percentile, and is not reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of `sorted` by the exclusive method of
/// Python's `statistics.quantiles`: position `p·(n+1)`, clamped to the
/// sample range and linearly interpolated between neighbours.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    if lo >= n {
        return sorted[n - 1];
    }
    let frac = h - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// First and third quartile of unsorted samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    (quantile(&s, 0.25), quantile(&s, 0.75))
}

/// The `p`-quantile of unsorted samples, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie strictly above it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let q = quantile(&s, p);
    let beyond = s.iter().filter(|&&x| x > q).count();
    (beyond >= MIN_BEYOND).then_some(q)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How one row's verdict compares with the generator's ground truth.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Check {
    /// Definitive and equal to the ground truth.
    Solved,
    /// The conflict budget ran out.
    Unknown,
    /// Definitive and contrary to the ground truth.
    Wrong,
    /// The verifier returned an error instead of a verdict.
    Error,
}

impl Check {
    /// Compares a verdict (`Some(true)` = safe, `None` = unknown) with the
    /// expected one.
    pub fn of(expected_safe: bool, verdict: Option<bool>) -> Check {
        match verdict {
            None => Check::Unknown,
            Some(v) if v == expected_safe => Check::Solved,
            Some(_) => Check::Wrong,
        }
    }
}

/// Per-run verdict accounting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Rows run.
    pub attempted: u64,
    /// Rows with a definitive verdict matching the ground truth.
    pub solved: u64,
    /// Rows that ran out of budget.
    pub unknown: u64,
    /// Rows whose definitive verdict contradicts the ground truth.
    pub wrong: u64,
    /// Rows where the verifier failed.
    pub errors: u64,
}

impl Tally {
    /// Counts one row.
    pub fn add(&mut self, check: Check) {
        self.attempted += 1;
        match check {
            Check::Solved => self.solved += 1,
            Check::Unknown => self.unknown += 1,
            Check::Wrong => self.wrong += 1,
            Check::Error => self.errors += 1,
        }
    }

    /// Solved rows over attempted rows: an `Unknown`, a wrong verdict and
    /// an error all count against it.
    pub fn solved_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.solved as f64 / self.attempted as f64
    }

    /// Rows without a correct definitive verdict.
    pub fn failed(&self) -> u64 {
        self.attempted - self.solved
    }

    /// A wrong verdict or an error fails the run; an `Unknown` only lowers
    /// `solved_share`.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.errors == 0
    }
}

/// Metric and workload names: a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), (2.75, 8.25));
        assert_eq!(median(&data), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Two samples clamp to the range: quantiles([1, 2], n=4) == [1.0, 1.5, 2.0]
        assert_eq!(quartiles(&[2.0, 1.0]), (1.0, 2.0));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Position 0.9 * 101 = 90.9: between 90 and 91, with 91..=100 beyond.
        let p90 = tail_percentile(&hundred, 0.9).expect("100 samples suffice");
        assert!((p90 - 90.9).abs() < 1e-9);
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        // The p50 of 21 samples has ten beyond it; that of 19 only nine.
        let twenty_one: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty_one, 0.5), Some(11.0));
        assert_eq!(tail_percentile(&twenty_one[..19], 0.5), None);
        // Ties at the top do not count as beyond.
        let mut tied = vec![1.0; 90];
        tied.extend([5.0; 20]);
        assert_eq!(tail_percentile(&tied, 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn solved_share_counts_unknown_and_wrong_against_attempted() {
        let mut t = Tally::default();
        t.add(Check::of(true, Some(true)));
        t.add(Check::of(false, Some(false)));
        t.add(Check::of(true, None));
        assert_eq!(t.solved_share(), 2.0 / 3.0);
        assert_eq!(t.failed(), 1);
        assert!(t.correct(), "an unknown lowers the share but passes");
        t.add(Check::of(true, Some(false)));
        assert_eq!(t.wrong, 1);
        assert_eq!(t.solved_share(), 0.5);
        assert!(!t.correct(), "a wrong verdict fails the run");
        let mut e = Tally::default();
        e.add(Check::Error);
        assert_eq!((e.solved_share(), e.failed(), e.correct()), (0.0, 1, false));
        assert_eq!(Tally::default().solved_share(), 0.0);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in ["rows_per_s", "sat.props_per_ms", "suite-light", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", "a\"b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for m in crate::manifest::END_TO_END
            .iter()
            .chain(crate::manifest::PER_LAYER)
        {
            assert!(valid_name(m.name), "{}", m.name);
        }
        for w in crate::manifest::WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
        }
    }
}
