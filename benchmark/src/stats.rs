//! Order statistics and process memory.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lower decile (nearest rank): the statistic the benchmark reports
/// for every timing. Contention spells on a shared host slow every
/// operation for seconds at a time and can cover most of a run, which
/// moves medians between runs far more than code changes do; the fastest
/// tenth of interleaved samples tracks the uncontended cost.
pub fn lower_decile(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "lower decile of no samples");
    let rank = (0.1 * v.len() as f64).ceil() as usize;
    v[rank.max(1) - 1]
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j`: Python extrapolates then too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest of p90 and p75 that has at least ten samples beyond it,
/// as `(label, value)`; `None` below 40 samples.
pub fn tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let v = sorted(values);
    let n = v.len();
    let (label, p) = if n >= 100 {
        ("p90", 0.90)
    } else if n >= 40 {
        ("p75", 0.75)
    } else {
        return None;
    };
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some((label, v[rank - 1]))
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`); 0 where the
/// file does not exist.
pub fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(lower_decile(&v), 10.0);
        assert_eq!(lower_decile(&v[..16]), 86.0);
        assert_eq!(lower_decile(&[3.0]), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some(("p90", 90.0)));
        assert_eq!(tail(&v[..40]), Some(("p75", 30.0)));
        assert_eq!(tail(&v[..39]), None);
    }
}
