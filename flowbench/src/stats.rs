//! Order statistics of repeated measurements.

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (the second quartile).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// The highest percentile with at least ten samples beyond it, and its
    /// value; `None` below eleven samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            tail: tail_percentile(&sorted),
        })
    }
}

/// Quartiles of sorted `data`, computed like Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method).
/// A single sample is its own quartiles.
///
/// # Panics
///
/// If `data` is empty.
pub fn quartiles(data: &[f64]) -> [f64; 3] {
    assert!(!data.is_empty(), "quartiles of no samples");
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `i·m − 4j` may be negative once `j` is clamped down.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The highest whole percentile `p` whose nearest-rank value leaves at
/// least ten samples above it in sorted `data`, with that value.
///
/// The nearest-rank `p`-th percentile is the sample at 1-based rank
/// `⌈p·n/100⌉`; `n − rank` samples lie beyond it. `None` when even the
/// first percentile leaves fewer than ten (fewer than eleven samples).
pub fn tail_percentile(data: &[f64]) -> Option<(u32, f64)> {
    let n = data.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= 10).then(|| (p, data[rank - 1]))
    })
}

/// Geometric mean of positive values; `None` if any is not positive or
/// there are none.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let mean_ln = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_ln.exp())
}
