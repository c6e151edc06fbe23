//! The discrete window map of Eq. 1 and its sawtooth steady state.
//!
//! Eq. 1 updates once per round trip:
//!
//! ```text
//! w ← d·w      if congested      (0 < d < 1)
//! w ← w + a    otherwise
//! ```
//!
//! Against a bottleneck that signals congestion whenever the window
//! exceeds a knee `w* = μ·RTT + q̂` (pipe capacity plus target backlog),
//! the steady state is the classic AIMD **sawtooth**: climb additively
//! from `d·w_peak` to `w_peak`, cut multiplicatively, repeat. This module
//! derives the cycle in closed form and cross-checks the paper's claim
//! that Eq. 2 is the rate-based analogue of Eq. 1:
//!
//! * cycle length in RTTs: `L = ⌈w_peak·(1 − d)/a⌉ + 1`;
//! * average window over a cycle: `w̄ ≈ w_peak·(1 + d)/2` (up to the
//!   additive discretisation);
//! * long-run throughput `w̄/RTT`, the discrete counterpart of the
//!   sliding-mode rate `λ* ∝ C0/C1` after the [`crate::laws::WindowAimd`]
//!   parameter mapping.

use crate::laws::WindowAimd;
use serde::Serialize;

/// The closed-form sawtooth of Eq. 1 against a knee threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Sawtooth {
    /// Peak window just before the cut.
    pub w_peak: f64,
    /// Trough window just after the cut.
    pub w_trough: f64,
    /// Cycle length in round trips.
    pub rtts_per_cycle: usize,
    /// Time-average window across the cycle.
    pub mean_window: f64,
    /// Long-run throughput `mean_window / rtt`.
    pub throughput: f64,
}

/// Iterate Eq. 1 against the threshold rule "congested iff w > knee",
/// recording the window sequence.
#[must_use]
pub fn iterate_window_map(aimd: &WindowAimd, knee: f64, w0: f64, rounds: usize) -> Vec<f64> {
    let mut w = w0.max(1.0);
    let mut out = Vec::with_capacity(rounds + 1);
    out.push(w);
    for _ in 0..rounds {
        w = if w > knee {
            (aimd.d * w).max(1.0)
        } else {
            w + aimd.a
        };
        out.push(w);
    }
    out
}

/// The **limiting** sawtooth of Eq. 1 against `knee`.
///
/// The discrete map's overshoot above the knee contracts by `d` every
/// cycle (peak_n − knee → 0), so the attractor is the orbit with
/// `w_peak = knee`, `w_trough = d·knee`, climbing the additive ladder
/// between them. For lattice-incommensurate parameters the true orbit
/// hovers up to one additive step `a` above this limit, so the closed
/// form is O(a)-accurate — exact as a → 0, which is the regime where
/// Eq. 2's continuous analogue is faithful anyway.
///
/// Returns `None` for degenerate parameters (`a ≤ 0`, `d` outside
/// (0, 1), or `knee < 1`).
#[must_use]
pub fn sawtooth(aimd: &WindowAimd, knee: f64) -> Option<Sawtooth> {
    if !(aimd.a > 0.0 && aimd.d > 0.0 && aimd.d < 1.0) || knee < 1.0 {
        return None;
    }
    let w_peak = knee;
    let w_trough = (aimd.d * knee).max(1.0);
    let climb_steps = ((w_peak - w_trough) / aimd.a).ceil().max(1.0) as usize;
    if climb_steps > 10_000_000 {
        return None; // a ≈ 0 underflow
    }
    // Climbs + the cut round.
    let rtts_per_cycle = climb_steps + 1;
    // Average over the ladder trough, trough+a, …, ≈peak.
    let ws: Vec<f64> = (0..=climb_steps)
        .map(|k| (w_trough + k as f64 * aimd.a).min(w_peak))
        .collect();
    let mean_window = ws.iter().sum::<f64>() / ws.len() as f64;
    Some(Sawtooth {
        w_peak,
        w_trough,
        rtts_per_cycle,
        mean_window,
        throughput: mean_window / aimd.rtt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aimd() -> WindowAimd {
        WindowAimd::new(1.0, 0.5, 0.1, 10.0)
    }

    #[test]
    fn iteration_produces_sawtooth() {
        let seq = iterate_window_map(&aimd(), 20.0, 2.0, 200);
        let tail = &seq[100..];
        let max = tail.iter().cloned().fold(f64::MIN, f64::max);
        let min = tail.iter().cloned().fold(f64::MAX, f64::min);
        // Peak just above the knee, trough ≈ half of it.
        assert!(max > 20.0 && max <= 21.0, "peak {max}");
        assert!((min - 0.5 * max).abs() < 0.6, "trough {min} vs peak {max}");
    }

    #[test]
    fn closed_form_matches_iteration() {
        // The closed form is the limiting orbit; the iterated map hovers
        // at most one additive step above it.
        let knee = 20.0;
        let st = sawtooth(&aimd(), knee).unwrap();
        let seq = iterate_window_map(&aimd(), knee, 3.0, 400);
        let tail = &seq[200..];
        let peak_iter = tail.iter().cloned().fold(f64::MIN, f64::max);
        let mean_iter = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (st.w_peak - peak_iter).abs() <= 1.0 + 1e-6,
            "{} vs {peak_iter}",
            st.w_peak
        );
        assert!(
            (st.mean_window - mean_iter).abs() < 0.6,
            "mean {} vs {mean_iter}",
            st.mean_window
        );
    }

    #[test]
    fn mean_window_near_classic_formula() {
        // w̄ ≈ w_peak (1 + d)/2 for fine lattices (a ≪ w_peak).
        let a = WindowAimd::new(0.1, 0.5, 0.1, 10.0);
        let st = sawtooth(&a, 50.0).unwrap();
        let classic = st.w_peak * (1.0 + 0.5) / 2.0;
        assert!(
            (st.mean_window - classic).abs() < 0.05 * classic,
            "{} vs classic {classic}",
            st.mean_window
        );
    }

    #[test]
    fn cycle_length_formula() {
        // climb from d·w_peak back above the knee takes
        // ≈ w_peak(1−d)/a rounds.
        let st = sawtooth(&aimd(), 20.0).unwrap();
        let predicted = (st.w_peak * 0.5 / 1.0).ceil() as usize + 1;
        assert_eq!(st.rtts_per_cycle, predicted);
    }

    #[test]
    fn throughput_scales_inverse_rtt() {
        // Same window dynamics, double the RTT → half the throughput:
        // the discrete-map root of the RTT unfairness in fig6/fig8.
        let short = WindowAimd::new(1.0, 0.5, 0.05, 10.0);
        let long = WindowAimd::new(1.0, 0.5, 0.10, 10.0);
        let ts = sawtooth(&short, 20.0).unwrap().throughput;
        let tl = sawtooth(&long, 20.0).unwrap().throughput;
        assert!((ts / tl - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_parameters_rejected() {
        assert!(sawtooth(&WindowAimd::new(0.0, 0.5, 0.1, 10.0), 20.0).is_none());
        assert!(sawtooth(&WindowAimd::new(1.0, 1.0, 0.1, 10.0), 20.0).is_none());
        assert!(sawtooth(&WindowAimd::new(1.0, 0.5, 0.1, 10.0), 0.5).is_none());
    }

    #[test]
    fn rate_law_equivalence_over_one_cycle() {
        // The paper's Eq. 1 ↔ Eq. 2 equivalence: integrate the rate law
        // with C0 = a/RTT², C1 = −ln d/RTT over one sawtooth cycle and
        // compare the peak-to-trough ratio: exponential decrease over one
        // RTT must reproduce the multiplicative cut d.
        let w = aimd();
        let rate = w.to_rate_law();
        let lambda_peak = 25.0 / w.rtt; // arbitrary peak rate
        let lambda_after = lambda_peak * (-rate.c1 * w.rtt).exp();
        assert!((lambda_after / lambda_peak - w.d).abs() < 1e-12);
        // Additive climb over k RTTs: Δλ = C0·k·RTT = k·a/RTT = Δw/RTT.
        let k = 7.0;
        let dl = rate.c0 * k * w.rtt;
        assert!((dl - k * w.a / w.rtt).abs() < 1e-12);
    }
}
