//! Order statistics the benchmark reports: percentiles, medians of
//! slices, quartiles and relative spread. Owned here so the product's
//! histogram crates can change without moving a benchmark number.

/// The `p`-th percentile (0–100) of `sorted` by nearest rank; `0.0` for
/// an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns them (total order; NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The median: mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses — the acceptance rule for
/// this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (`0.0` when the
/// median is zero).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// One statistic per slice, summarised across slices. Whatever takes
/// cycles from a shared box — a stall, a neighbour on the sibling
/// hyper-thread — only ever makes a slice worse, and on a bad minute it
/// touches more than half of them, so the median of slices moves with
/// the host. The deciles move far less: `p90` for a rate or a share
/// where higher is better, `p10` for a cost or a latency. With about a
/// hundred slices each still has ten slices beyond it, so neither is a
/// best-of-N.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverSlices {
    pub median: f64,
    pub iqr: f64,
    pub p10: f64,
    pub p90: f64,
}

pub fn over_slices(per_slice: &[f64]) -> OverSlices {
    let (q1, q3) = quartiles(per_slice);
    let ordered = sorted(per_slice.to_vec());
    OverSlices {
        median: median(per_slice),
        iqr: q3 - q1,
        p10: percentile(&ordered, 10.0),
        p90: percentile(&ordered, 90.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn one_stalled_slice_does_not_move_the_median() {
        let mut rates = vec![100.0; 11];
        rates.push(3.0);
        let s = over_slices(&rates);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.iqr, 0.0);
        assert_eq!(spread(&rates), 0.0);
    }

    #[test]
    fn a_slow_majority_moves_the_median_but_not_the_good_decile() {
        // 100 slices: a rate of 1 000 when the host is quiet, 700 while
        // it is not. Quiet for 60 slices, then for only 30.
        let rates = |quiet: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < quiet { 1_000.0 } else { 700.0 })
                .collect()
        };
        let (calm, busy) = (over_slices(&rates(60)), over_slices(&rates(30)));
        assert_eq!((calm.median, busy.median), (1_000.0, 700.0));
        assert_eq!((calm.p90, busy.p90), (1_000.0, 1_000.0));
        // For a cost the good side is the low one.
        let costs: Vec<f64> = rates(30).iter().map(|r| 1e6 / r).collect();
        assert_eq!(over_slices(&costs).p10, 1_000.0);
        // Ten of a hundred slices lie at or beyond each decile.
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = over_slices(&ramp);
        assert_eq!((s.p10, s.p90), (10.0, 90.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
