//! Trajectory analysis: peaks, oscillation amplitude/period, regime
//! classification and power-law fits.
//!
//! Section 5 of the paper argues trajectories are *convergent spirals*
//! (damped oscillations) without feedback delay and *limit cycles*
//! (sustained oscillations) with delay; these routines quantify which
//! regime a simulated trajectory is in, and by how much.

use crate::series::Series;
use crate::stats::mean;
use crate::{NumericsError, Result};

/// A detected local extremum of a sampled trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the extremum.
    pub index: usize,
    /// Time of the extremum.
    pub t: f64,
    /// Value at the extremum.
    pub value: f64,
    /// `true` for a maximum, `false` for a minimum.
    pub is_max: bool,
}

/// Find local maxima and minima of `(t, x)`, treating plateaus as single
/// extrema (reported at the plateau midpoint). This matters for clamped
/// trajectories — a queue pinned at zero forms a flat valley that strict
/// `<` comparison would miss entirely.
///
/// # Errors
/// [`NumericsError::DimensionMismatch`] when lengths differ or fewer than
/// three samples are given.
pub fn find_peaks(t: &[f64], x: &[f64]) -> Result<Vec<Peak>> {
    if t.len() != x.len() || t.len() < 3 {
        return Err(NumericsError::DimensionMismatch {
            context: "find_peaks: need equal lengths >= 3",
        });
    }
    let mut peaks = Vec::new();
    // Walk runs of equal values; a direction flip across a run marks an
    // extremum at the run's midpoint.
    let n = x.len();
    let mut last_dir = 0i8; // sign of the most recent non-zero change
    let mut run_start = 0usize; // start of the current equal-value run
    let mut i = 0usize;
    while i + 1 < n {
        // -1, 0 or 1 (0 for a NaN step too).
        let d = (x[i + 1] - x[i]).partial_cmp(&0.0).map_or(0, |o| o as i8);
        if d == 0 {
            i += 1;
            continue; // extend the plateau; run_start stays put
        }
        if last_dir == -d {
            let idx = (run_start + i) / 2;
            peaks.push(Peak {
                index: idx,
                t: t[idx],
                value: x[idx],
                is_max: last_dir == 1,
            });
        }
        last_dir = d;
        i += 1;
        run_start = i;
    }
    Ok(peaks)
}

/// Summary of the oscillatory content of a trajectory tail.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Oscillation {
    /// Peak-to-peak amplitude averaged over the analysed tail.
    pub amplitude: f64,
    /// Mean period estimated from successive maxima.
    pub period: f64,
    /// Number of complete cycles observed.
    pub cycles: usize,
    /// Mean level the signal oscillates around.
    pub mean_level: f64,
}

/// Estimate amplitude and period of a (possibly damped) oscillation of
/// column `col` of `series` from its final `tail_fraction` (at least three
/// samples, [`Series::tail_start`]). Returns `None` when fewer than two
/// maxima are found there (i.e. the signal has settled).
///
/// # Errors
/// Propagates [`find_peaks`] errors; rejects `tail_fraction` outside
/// `(0, 1]`.
pub fn analyze_oscillation(
    series: &Series,
    col: usize,
    tail_fraction: f64,
) -> Result<Option<Oscillation>> {
    let start = series.tail_start(tail_fraction, 3)?;
    let tt = &series.t()[start..];
    let xx: Vec<f64> = series.col(col).skip(start).collect();
    let peaks = find_peaks(tt, &xx)?;
    let Some((mean_max, mean_min, n_max)) = extrema_means(&peaks).filter(|e| e.2 >= 2) else {
        return Ok(None);
    };
    let maxima = || peaks.iter().filter(|p| p.is_max);
    let periods = maxima().zip(maxima().skip(1)).map(|(a, b)| b.t - a.t);
    Ok(Some(Oscillation {
        amplitude: mean_max - mean_min,
        period: periods.sum::<f64>() / (n_max - 1) as f64,
        cycles: n_max - 1,
        mean_level: mean(&xx),
    }))
}

/// Mean value of the maxima and of the minima among `peaks`, with the
/// number of maxima; `None` unless both kinds occur.
fn extrema_means(peaks: &[Peak]) -> Option<(f64, f64, usize)> {
    let kind = |is_max: bool| peaks.iter().filter(move |p| p.is_max == is_max);
    let (n_max, n_min) = (kind(true).count(), kind(false).count());
    let mean = |is_max: bool, n: usize| kind(is_max).map(|p| p.value).sum::<f64>() / n as f64;
    (n_max > 0 && n_min > 0).then(|| (mean(true, n_max), mean(false, n_min), n_max))
}

/// Classify a trajectory as settled / damped / sustained based on the
/// ratio of late-window to early-window oscillation amplitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Regime {
    /// Amplitude decayed below the absolute floor — converged.
    Converged,
    /// Oscillating but shrinking (convergent spiral).
    Damped,
    /// Oscillation amplitude persists (limit cycle).
    Sustained,
    /// Oscillation amplitude grows (divergent spiral).
    Divergent,
}

/// Decide the oscillation regime of column `col` of `series` by
/// comparing mean peak-to-peak amplitude in the first and last thirds of
/// the trajectory.
///
/// `floor` is the absolute amplitude below which the signal counts as
/// converged (pick it relative to the signal scale, e.g. 1% of q̂).
///
/// # Errors
/// Propagates [`find_peaks`] errors from either window.
pub fn classify_regime(series: &Series, col: usize, floor: f64) -> Result<Regime> {
    let (t, n) = (series.t(), series.len());
    if n < 9 {
        return Err(NumericsError::DimensionMismatch {
            context: "classify_regime: need >= 9 samples",
        });
    }
    let x: Vec<f64> = series.col(col).collect();
    let third = n / 3;
    let amp = |lo: usize, hi: usize| -> Result<f64> {
        let w = &x[lo..hi];
        Ok(match extrema_means(&find_peaks(&t[lo..hi], w)?) {
            Some((mean_max, mean_min, _)) => mean_max - mean_min,
            // No oscillation in this window; use the raw range.
            None => {
                let max = w.iter().fold(f64::NEG_INFINITY, |m, v| m.max(*v));
                max - w.iter().fold(f64::INFINITY, |m, v| m.min(*v))
            }
        })
    };
    let early = amp(0, third)?;
    let late = amp(n - third, n)?;
    if late < floor {
        return Ok(Regime::Converged);
    }
    let ratio = late / early.max(1e-300);
    Ok(if ratio < 0.5 {
        Regime::Damped
    } else if ratio > 2.0 {
        Regime::Divergent
    } else {
        Regime::Sustained
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn sampled<F: Fn(f64) -> f64>(f: F, t1: f64, n: usize) -> Series {
        let mut s = Series::new(1);
        for i in 0..n {
            let t = i as f64 * t1 / (n - 1) as f64;
            s.push(t, [f(t)]);
        }
        s
    }

    #[test]
    fn peaks_of_sine() {
        let s = sampled(|t| t.sin(), 4.0 * std::f64::consts::PI, 1000);
        let peaks = find_peaks(s.t(), s.data()).unwrap();
        let maxima: Vec<&Peak> = peaks.iter().filter(|p| p.is_max).collect();
        let minima: Vec<&Peak> = peaks.iter().filter(|p| !p.is_max).collect();
        assert_eq!(maxima.len(), 2);
        assert_eq!(minima.len(), 2);
        assert!(approx_eq(
            maxima[0].t,
            std::f64::consts::FRAC_PI_2,
            1e-2,
            1e-2
        ));
        assert!(approx_eq(maxima[0].value, 1.0, 1e-4, 1e-4));
    }

    #[test]
    fn peaks_need_three_samples() {
        assert!(find_peaks(&[0.0, 1.0], &[0.0, 1.0]).is_err());
    }

    #[test]
    fn oscillation_of_pure_sine() {
        let s = sampled(|t| 5.0 + 2.0 * (t * 2.0).sin(), 40.0, 4000);
        let osc = analyze_oscillation(&s, 0, 1.0).unwrap().unwrap();
        // peak-to-peak = 4, period = pi
        assert!(
            approx_eq(osc.amplitude, 4.0, 1e-2, 1e-2),
            "amp={}",
            osc.amplitude
        );
        assert!(approx_eq(osc.period, std::f64::consts::PI, 1e-2, 1e-2));
        assert!(approx_eq(osc.mean_level, 5.0, 1e-2, 1e-2));
        assert!(osc.cycles >= 10);
    }

    #[test]
    fn oscillation_none_for_settled_signal() {
        let s = sampled(|t| (-t).exp(), 20.0, 500);
        // Tail of a decayed exponential has no maxima.
        assert!(analyze_oscillation(&s, 0, 0.3).unwrap().is_none());
    }

    #[test]
    fn regime_classification() {
        let cases: [(fn(f64) -> f64, Regime); 4] = [
            (|t| (-0.3 * t).exp() * (3.0 * t).cos(), Regime::Damped),
            (|t| (3.0 * t).cos(), Regime::Sustained),
            (|t| (0.2 * t).exp() * (3.0 * t).cos(), Regime::Divergent),
            (|t| 1.0 + 1e-9 * (3.0 * t).cos(), Regime::Converged),
        ];
        for (f, regime) in cases {
            let s = sampled(f, 30.0, 3000);
            assert_eq!(classify_regime(&s, 0, 1e-6).unwrap(), regime);
        }
    }
}

/// Least-squares power-law fit `y ≈ c·x^β` via log-log linear regression.
/// Returns `(c, beta)`; `None` when fewer than two valid (positive)
/// points remain or the abscissae are degenerate.
#[must_use]
pub fn fit_power_law(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    let pts: Vec<(f64, f64)> = x
        .iter()
        .zip(y.iter())
        .filter(|(a, b)| **a > 0.0 && **b > 0.0)
        .map(|(a, b)| (a.ln(), b.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(a, _)| a).sum();
    let sy: f64 = pts.iter().map(|(_, b)| b).sum();
    let sxx: f64 = pts.iter().map(|(a, _)| a * a).sum();
    let sxy: f64 = pts.iter().map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return None;
    }
    let beta = (n * sxy - sx * sy) / denom;
    let c = ((sy - beta * sx) / n).exp();
    Some((c, beta))
}

#[cfg(test)]
mod power_law_tests {
    use super::fit_power_law;

    #[test]
    fn exact_power_law_recovered() {
        let x: Vec<f64> = (1..=20).map(|k| k as f64 * 0.3).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.5 * v.powf(0.7)).collect();
        let (c, beta) = fit_power_law(&x, &y).unwrap();
        assert!((c - 2.5).abs() < 1e-10, "c = {c}");
        assert!((beta - 0.7).abs() < 1e-10, "beta = {beta}");
    }

    #[test]
    fn nonpositive_points_skipped() {
        let x = [0.0, 1.0, 2.0, 4.0];
        let y = [5.0, 3.0, 6.0, 12.0];
        let (_, beta) = fit_power_law(&x, &y).unwrap();
        assert!(beta > 0.9 && beta < 1.1, "beta = {beta}"); // y = 3x on valid pts
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(fit_power_law(&[1.0], &[2.0]).is_none());
        assert!(fit_power_law(&[1.0, 1.0], &[2.0, 3.0]).is_none());
        assert!(fit_power_law(&[-1.0, -2.0], &[2.0, 3.0]).is_none());
    }
}
