//! Estimators and the seeded generator.
//!
//! On this class of sandbox, contention only ever adds time: whole-run
//! means move 16–22 % and per-op medians 23–30 % between runs of one
//! binary, while a low quantile of many short rounds moves 2 % in a
//! quiet phase. So a timed metric is the [`FAST_PCT`]th percentile
//! (nearest rank) of its per-round series — an estimate of the
//! undisturbed cost of the code, which is what a code change moves.

/// Percentile of the per-round series reported as a timed metric.
pub const FAST_PCT: f64 = 1.0;

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The fast-round estimate of a per-round series: its [`FAST_PCT`]th
/// percentile, but never the single fastest round of two or more — with
/// few rounds (a whole solve, a whole crash cycle) the minimum is too
/// often one lucky round.
pub fn fast(values: Vec<f64>) -> f64 {
    let v = sorted(values);
    let rank = (FAST_PCT / 100.0 * v.len() as f64).ceil() as usize;
    match v.len() {
        0 => 0.0,
        n => v[rank.max(2).min(n) - 1],
    }
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// `(q1, median, q3, min, max)` as Python's
/// `statistics.quantiles(values, n=4)` gives the quartiles — the
/// exclusive method, which is what the accepting driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64, f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x, x, x);
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(1), q(2), q(3), v[0], v[n - 1])
}

/// splitmix64: a seed in, an independent stream out.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is below 2⁻⁵⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Mixes words into one seed, so `(seed, thread, round)` and
/// `(seed, id, version)` each name an independent stream or page.
pub fn mix(words: &[u64]) -> u64 {
    words.iter().fold(0, |acc, &w| Rng::new(acc ^ w).next())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_is_p1_nearest_rank_but_not_the_single_minimum() {
        let two_hundred: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(fast(two_hundred), 2.0);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(fast(thousand), 10.0);
        assert_eq!(fast(vec![5.0, 3.0, 4.0]), 4.0);
        assert_eq!(fast(vec![5.0]), 5.0);
        assert_eq!(fast(Vec::new()), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3, lo, hi) = quartiles(&v);
        assert_eq!((q1, q2, q3, lo, hi), (2.75, 5.5, 8.25, 1.0, 10.0));
    }

    #[test]
    fn mix_separates_neighbouring_inputs() {
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 3, 2]));
        assert_ne!(mix(&[7, 0]), mix(&[7, 1]));
        assert_eq!(mix(&[7, 1]), mix(&[7, 1]));
    }
}
