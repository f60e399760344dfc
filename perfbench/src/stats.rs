//! Order statistics for the benchmark's timings.

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; fewer make it a reading of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median (the mean of the two middle values for an even count);
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The `pct`-th percentile (nearest rank, `pct` in 51..=99), refused —
/// with the sample count in the message — when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], pct: usize) -> Result<f64, String> {
    assert!(
        (51..=99).contains(&pct),
        "a tail percentile lies above the median"
    );
    let s = sorted(values);
    let n = s.len();
    let rank = (n * pct).div_ceil(100);
    let beyond = n - rank;
    if rank == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {n} samples has {beyond} beyond it (needs {MIN_BEYOND}, so at least {} samples)",
            (MIN_BEYOND * 100).div_ceil(100 - pct)
        ));
    }
    Ok(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_refuses_fewer_than_ten_samples_beyond() {
        // p90 of 99 samples has 9 beyond it; of 100, exactly 10.
        assert!(tail(&ramp(99), 90).is_err());
        assert_eq!(tail(&ramp(100), 90), Ok(90.0));
        // p99 needs a thousand samples.
        let refused = tail(&ramp(999), 99).unwrap_err();
        assert!(refused.contains("at least 1000 samples"), "{refused}");
        assert_eq!(tail(&ramp(1000), 99), Ok(990.0));
    }
}
