//! Order statistics over measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `NaN` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The arithmetic mean of `samples`; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The lower decile of repeated start-up times. Start-ups in one run
/// alternate, a second or so at a time, between a fast mode and one
/// 20–40 % slower as the host's load comes and goes, and the share of
/// each swings from run to run; the lower decile sits in the fast mode
/// whenever a tenth of the start-ups ran in it.
pub fn fast_start(times: &[f64]) -> f64 {
    percentile(times, 0.1)
}
