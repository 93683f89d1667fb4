//! Order statistics and the sample-count guard.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p` in `(0, 1)`, or an error when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (a tail with too few samples is
/// not reported).
pub fn percentile(values: &[f64], p: f64, what: &str) -> Result<f64, String> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "{what}: p{:.0} of {n} samples leaves {} beyond it (need {MIN_BEYOND})",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_guard_counts_the_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9, "x"), Ok(90.0));
        assert!(percentile(&v[..99], 0.9, "x").is_err());
        assert_eq!(median(&v), 50.5);
    }
}
