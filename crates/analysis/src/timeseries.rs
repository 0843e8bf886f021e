//! Time-series utilities: smoothing and stability metrics.
//!
//! §6 closes by suggesting future MPTCP schedulers could aim at "reducing
//! throughput fluctuations"; these metrics quantify exactly that. Only
//! this module's tests run them today: the scheduler comparison that runs
//! is `leo-transport`'s `leo_aware_beats_blest_under_periodic_satellite_outages`
//! test, which compares mean goodput.

/// Simple moving average with window `w` (output has the input's length;
/// the first `w-1` entries average the available prefix).
pub fn moving_average(series: &[f64], w: usize) -> Vec<f64> {
    assert!(w >= 1, "window must be positive");
    let mut out = Vec::with_capacity(series.len());
    let mut sum = 0.0;
    for i in 0..series.len() {
        sum += series[i];
        if i >= w {
            sum -= series[i - w];
        }
        let n = (i + 1).min(w);
        out.push(sum / n as f64);
    }
    out
}

/// Coefficient of variation (σ/μ); `None` for empty input or zero mean.
pub fn coefficient_of_variation(series: &[f64]) -> Option<f64> {
    if series.is_empty() {
        return None;
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    if mean.abs() < 1e-12 {
        return None;
    }
    let var = series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    Some(var.sqrt() / mean)
}

/// Fluctuation index: mean absolute step-to-step change, normalised by the
/// mean level. Lower = smoother delivery.
pub fn fluctuation_index(series: &[f64]) -> Option<f64> {
    if series.len() < 2 {
        return None;
    }
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    if mean.abs() < 1e-12 {
        return None;
    }
    let mean_step =
        series.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (series.len() - 1) as f64;
    Some(mean_step / mean)
}

/// Longest run of consecutive entries below `threshold` — the §5/§6
/// "outage streak" view of a throughput series.
pub fn longest_run_below(series: &[f64], threshold: f64) -> usize {
    let mut best = 0;
    let mut cur = 0;
    for &v in series {
        if v < threshold {
            cur += 1;
            best = best.max(cur);
        } else {
            cur = 0;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_smooths() {
        let s = [0.0, 10.0, 0.0, 10.0, 0.0, 10.0];
        let ma = moving_average(&s, 2);
        assert_eq!(ma.len(), s.len());
        assert_eq!(ma[0], 0.0);
        assert_eq!(ma[1], 5.0);
        assert_eq!(ma[5], 5.0);
        // Smoothed series fluctuates less.
        assert!(fluctuation_index(&ma).unwrap() < fluctuation_index(&s).unwrap());
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0; 10]), Some(0.0));
        assert_eq!(coefficient_of_variation(&[]), None);
        assert_eq!(coefficient_of_variation(&[0.0; 4]), None);
    }

    #[test]
    fn fluctuation_orders_smooth_vs_spiky() {
        let smooth = [100.0, 101.0, 99.0, 100.0, 100.0];
        let spiky = [100.0, 0.0, 200.0, 0.0, 200.0];
        assert!(fluctuation_index(&smooth).unwrap() < fluctuation_index(&spiky).unwrap());
        assert_eq!(fluctuation_index(&[1.0]), None);
    }

    #[test]
    fn longest_run_counts_streaks() {
        let s = [50.0, 5.0, 5.0, 5.0, 50.0, 5.0, 50.0];
        assert_eq!(longest_run_below(&s, 20.0), 3);
        assert_eq!(longest_run_below(&s, 1.0), 0);
        assert_eq!(longest_run_below(&[], 1.0), 0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = moving_average(&[1.0], 0);
    }
}
