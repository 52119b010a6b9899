//! Order statistics shared by the runner and `--compare`.

/// The `q`-quantile (nearest rank) of `samples`, reordering them.
/// Zero for an empty slice.
pub fn quantile(samples: &mut [u32], q: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    *samples.select_nth_unstable(rank - 1).1
}

/// The median of `values`; zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The quiet-rounds value of per-round timings: the tenth percentile when
/// lower is better, the ninetieth when higher is better, interpolated
/// between ranks. Every round replays the same inputs, so a round can only
/// read worse than the code's speed when something else on the machine
/// slowed it; this order statistic keeps the rounds that were not slowed,
/// yet with tens of rounds it is not one lucky round either. Zero for an
/// empty slice.
pub fn quiet(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let q = if lower_is_better { 0.1 } else { 0.9 };
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match a script's. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when clamped up, as in Python: it extrapolates.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(quantile(&mut [], 0.5), 0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let rounds: Vec<f64> = (0..=10).map(f64::from).rev().collect();
        assert_eq!(quiet(&rounds, true), 1.0);
        assert_eq!(quiet(&rounds, false), 9.0);
        assert!((quiet(&[4.0, 2.0], true) - 2.2).abs() < 1e-12);
        assert_eq!(quiet(&[6.0], false), 6.0);
    }
}
