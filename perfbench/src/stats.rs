//! Order statistics over latency samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        len => {
            let position = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let low = position.floor() as usize;
            let high = position.ceil() as usize;
            sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;
/// Fewest samples per window of [`windowed_tail`].
const WINDOW_SAMPLES: usize = 200;
/// Most windows [`windowed_tail`] splits a run into.
const MAX_WINDOWS: usize = 5;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the sample with exactly ten larger ones. Returns `(value, percentile)`,
/// the percentile being the share of samples at or below the value; with
/// ten or fewer samples it falls back to the minimum.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 0 {
        return (0.0, 0.0);
    }
    let index = len.saturating_sub(TAIL_BEYOND + 1);
    let percentile = 100.0 * (index + 1) as f64 / len as f64;
    (sorted[index], percentile)
}

/// [`tail`] made robust to a single stall of the host: `samples`, in the
/// order they were taken, are split into up to five equal windows of at
/// least 200 samples. The result is the median over windows of each
/// window's [`tail`], as `(value, percentile, windows)`. A run with fewer
/// than 400 samples is one window.
pub fn windowed_tail(samples: &[f64]) -> (f64, f64, usize) {
    let windows = (samples.len() / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    let size = samples.len().div_ceil(windows).max(1);
    let (values, percentiles): (Vec<f64>, Vec<f64>) = samples.chunks(size).map(tail).unzip();
    (median(&values), median(&percentiles), values.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile) = tail(&samples);
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(percentile, 90.0);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut samples: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for stalled in &mut samples[..20] {
            *stalled = 1000.0;
        }
        let (value, _, windows) = windowed_tail(&samples);
        assert_eq!(windows, 5);
        assert_eq!(value, 94.0);
        assert_eq!(tail(&samples).0, 1000.0);
    }
}
