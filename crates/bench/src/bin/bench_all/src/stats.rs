//! Order statistics for the ledger: median, quartiles and the
//! "highest percentile with at least ten samples beyond it" rule.

/// Samples that must lie beyond a reported percentile for it to repeat.
const BEYOND: f64 = 10.0;

/// Median, quartiles and count of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (any order). An empty set summarizes to zeros
    /// with `n = 0`, which callers report as "layer not exercised".
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&v);
        Summary {
            median,
            q1,
            q3,
            n: v.len(),
        }
    }
}

/// Median of `values` (any order); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// `(q1, median, q3)` of ascending `sorted`, cut the way Python's
/// `statistics.quantiles(values, n=4)` cuts them (exclusive method), so
/// spreads printed here match the ones the acceptance run computes.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    match sorted.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// The percentile actually reportable for `n` samples when `want` is
/// asked for: `want` itself when at least ten samples lie beyond it,
/// else the highest percentile that keeps ten beyond, never below the
/// median.
pub fn admissible_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let highest = 1.0 - BEYOND / n as f64;
    want.min(highest).max(0.5)
}

/// Nearest-rank percentile `p ∈ [0, 1]` of ascending `sorted`; `0.0`
/// when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `want`-th latency percentile of a pass under the ten-beyond rule
/// (counted over all batches together), estimated as the median over
/// batches of each batch's own percentile. A batch is the same mix of
/// operations every time, so its percentiles are comparable; and a slow
/// stretch of the host — a neighbour, a second or two at a time — then
/// costs a few batches their tail instead of deciding the run's. With too
/// few samples for any tail it is the median of all samples.
pub fn batch_tail_percentile(batches: &[&[f64]], want: f64) -> Summary {
    let n = batches.iter().map(|b| b.len()).sum();
    let p = admissible_percentile(n, want);
    if p <= 0.5 {
        return Summary::of(&batches.concat());
    }
    let tails: Vec<f64> = batches
        .iter()
        .map(|b| {
            let mut v = b.to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, p)
        })
        .collect();
    Summary::of(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), (1.5, 6.0, 10.5));
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[4.0, 2.0, 8.0, 6.0]);
        assert_eq!((s.median, s.n), (5.0, 4));
        assert_eq!((s.q1, s.q3), (2.5, 7.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // p90 needs n >= 100; p99 needs n >= 1000.
        assert_eq!(admissible_percentile(100, 0.90), 0.90);
        assert_eq!(admissible_percentile(200, 0.90), 0.90);
        assert_eq!(admissible_percentile(1000, 0.99), 0.99);
        // 50 samples: ten beyond means p80 at best.
        assert!((admissible_percentile(50, 0.90) - 0.80).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(admissible_percentile(20, 0.90), 0.5);
        assert_eq!(admissible_percentile(5, 0.99), 0.5);
        assert_eq!(admissible_percentile(0, 0.99), 0.5);

        // One batch: its own nearest-rank percentile.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(batch_tail_percentile(&[&v], 0.90).median, 180.0);
        assert_eq!(v.iter().filter(|&&x| x > 180.0).count(), 20);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(batch_tail_percentile(&[&few], 0.90).median, 3.0);
        assert_eq!(
            batch_tail_percentile(&[&few[..2], &few[2..4]], 0.90).median,
            2.5
        );

        // Twenty batches of ten operations, the tenth slow; three
        // batches hit by a stretch that doubles every time in them. The
        // pooled p90 would land inside the stretch (30 of 200 samples
        // read 2.0 or more); the median over batches does not.
        let quiet: Vec<f64> = (0..10).map(|i| if i == 9 { 1.5 } else { 1.0 }).collect();
        let noisy: Vec<f64> = quiet.iter().map(|x| 2.0 * x).collect();
        let batches: Vec<&[f64]> = (0..20)
            .map(|b| if b < 3 { &noisy[..] } else { &quiet[..] })
            .collect();
        let tail = batch_tail_percentile(&batches, 0.90);
        assert_eq!((tail.median, tail.n), (1.0, 20));
        assert_eq!(batch_tail_percentile(&batches, 0.95).median, 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
