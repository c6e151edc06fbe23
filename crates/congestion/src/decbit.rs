//! The DECbit mechanism of Ramakrishnan & Jain [RaJa 88] — the concrete
//! protocol whose continuous abstraction is the paper's Eq. 1/Eq. 2.
//!
//! Two pieces:
//!
//! * **router side** — [`QueueAverager`]: the congestion bit is set when
//!   the queue length *averaged over the last regeneration cycle (busy +
//!   idle period) plus the current busy period* is at least the
//!   threshold. Averaging filters out sub-RTT bursts, which is why the
//!   fluid/FP abstraction with an instantaneous `Q > q̂` test is
//!   faithful at the time scales the paper analyses.
//! * **source side** — [`DecbitPolicy`]: the window is adjusted once per
//!   two windows' worth of acks; if at least half the acks in the
//!   decision window carried the bit, multiply the window by `d`,
//!   otherwise add `a`.

use serde::Serialize;

/// Regenerative queue-length averager (router side of DECbit).
///
/// Feed it the piecewise-constant queue process via
/// [`QueueAverager::observe`]; it tracks the time-integral of the queue
/// over the previous regeneration cycle and the current busy period, and
/// reports their combined average.
#[derive(Debug, Clone)]
pub struct QueueAverager {
    /// Time the current measurement started.
    cycle_start: f64,
    /// Integral of q over the current (incomplete) cycle.
    cur_area: f64,
    /// Duration and area of the last complete regeneration cycle.
    prev: Option<(f64, f64)>,
    /// Last observation (time, queue).
    last: Option<(f64, f64)>,
    /// Whether the server is currently in a busy period.
    in_busy: bool,
}

impl Default for QueueAverager {
    fn default() -> Self {
        Self::new(0.0)
    }
}

impl QueueAverager {
    /// Start averaging at time `t0` (queue assumed empty).
    #[must_use]
    pub fn new(t0: f64) -> Self {
        Self {
            cycle_start: t0,
            cur_area: 0.0,
            prev: None,
            last: Some((t0, 0.0)),
            in_busy: false,
        }
    }

    /// Record that the queue length changed to `q` at time `t`
    /// (observations must be time-ordered).
    pub fn observe(&mut self, t: f64, q: f64) {
        if let Some((lt, lq)) = self.last {
            debug_assert!(t >= lt, "observations must be time-ordered");
            self.cur_area += lq * (t - lt);
        }
        // Regeneration boundary: an idle→busy transition closes the
        // previous cycle (busy period + idle period).
        if q > 0.0 && !self.in_busy {
            if self.last.is_some() && t > self.cycle_start {
                self.prev = Some((t - self.cycle_start, self.cur_area));
            }
            self.cycle_start = t;
            self.cur_area = 0.0;
            self.in_busy = true;
        } else if q == 0.0 {
            self.in_busy = false;
        }
        self.last = Some((t, q));
    }

    /// The DECbit average at time `t`: area/(duration) over the previous
    /// cycle plus the current partial cycle. Returns 0 before any data.
    #[must_use]
    pub fn average(&self, t: f64) -> f64 {
        let (mut dur, mut area) = self.prev.unwrap_or((0.0, 0.0));
        if let Some((lt, lq)) = self.last {
            area += self.cur_area + lq * (t - lt).max(0.0);
            dur += t - self.cycle_start;
        }
        if dur <= 0.0 {
            0.0
        } else {
            area / dur
        }
    }

    /// The congestion bit: average queue at or above `threshold`
    /// (RaJa use 1.0 packet).
    #[must_use]
    pub fn congestion_bit(&self, t: f64, threshold: f64) -> bool {
        self.average(t) >= threshold
    }
}

/// Source-side DECbit window policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecbitPolicy {
    /// Additive window increase (RaJa: 1 packet).
    pub a: f64,
    /// Multiplicative decrease factor (RaJa: 0.875).
    pub d: f64,
    /// Fraction of marked acks that triggers a decrease (RaJa: 0.5).
    pub mark_fraction: f64,
}

impl DecbitPolicy {
    /// The RaJa 88 recommended constants: a = 1, d = 0.875, 50% marking.
    #[must_use]
    pub fn raja88() -> Self {
        Self {
            a: 1.0,
            d: 0.875,
            mark_fraction: 0.5,
        }
    }
}

/// Per-connection DECbit decision state: counts acks and marks over the
/// "two windows" decision epoch.
#[derive(Debug, Clone)]
pub struct DecbitWindow {
    policy: DecbitPolicy,
    window: f64,
    acks: u64,
    marked: u64,
    /// Acks needed before the next decision (≈ 2·window at epoch start).
    decision_at: u64,
}

impl DecbitWindow {
    /// Start with window `w0` (at least 1).
    #[must_use]
    pub fn new(policy: DecbitPolicy, w0: f64) -> Self {
        let window = w0.max(1.0);
        Self {
            policy,
            window,
            acks: 0,
            marked: 0,
            decision_at: (2.0 * window).ceil() as u64,
        }
    }

    /// Current window.
    #[must_use]
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Process one ack; returns `Some(new_window)` when a decision epoch
    /// completed.
    pub fn on_ack(&mut self, marked: bool) -> Option<f64> {
        self.acks += 1;
        if marked {
            self.marked += 1;
        }
        if self.acks >= self.decision_at {
            let frac = self.marked as f64 / self.acks as f64;
            if frac >= self.policy.mark_fraction {
                self.window = (self.window * self.policy.d).max(1.0);
            } else {
                self.window += self.policy.a;
            }
            self.acks = 0;
            self.marked = 0;
            self.decision_at = (2.0 * self.window).ceil() as u64;
            Some(self.window)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averager_constant_queue() {
        let mut a = QueueAverager::new(0.0);
        a.observe(0.0, 3.0);
        assert!((a.average(10.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn averager_piecewise_queue() {
        // q = 2 on [0, 1), q = 4 on [1, 3): average over [0, 3) = (2 + 8)/3.
        let mut a = QueueAverager::new(0.0);
        a.observe(0.0, 2.0);
        a.observe(1.0, 4.0);
        assert!((a.average(3.0) - 10.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn averager_regeneration_resets_window() {
        let mut a = QueueAverager::new(0.0);
        // Busy with q = 10 on [0, 2), idle [2, 4), then busy again.
        a.observe(0.0, 10.0);
        a.observe(2.0, 0.0);
        a.observe(4.0, 1.0); // regeneration: cycle [0,4) closes (area 20, dur 4)
        a.observe(5.0, 1.0);
        // Average = (prev area 20 + current 1·1)/(4 + 1) = 21/5.
        assert!(
            (a.average(5.0) - 4.2).abs() < 1e-12,
            "avg {}",
            a.average(5.0)
        );
    }

    #[test]
    fn congestion_bit_threshold() {
        let mut a = QueueAverager::new(0.0);
        a.observe(0.0, 0.8);
        assert!(!a.congestion_bit(5.0, 1.0));
        let mut b = QueueAverager::new(0.0);
        b.observe(0.0, 1.5);
        assert!(b.congestion_bit(5.0, 1.0));
    }

    #[test]
    fn averager_empty_is_zero() {
        let a = QueueAverager::new(0.0);
        assert_eq!(a.average(0.0), 0.0);
    }

    #[test]
    fn decbit_window_increases_when_unmarked() {
        let mut w = DecbitWindow::new(DecbitPolicy::raja88(), 4.0);
        // Decision after 8 acks.
        let mut decided = None;
        for _ in 0..8 {
            decided = w.on_ack(false);
        }
        assert_eq!(decided, Some(5.0));
    }

    #[test]
    fn decbit_window_decreases_on_half_marks() {
        let mut w = DecbitWindow::new(DecbitPolicy::raja88(), 8.0);
        let mut decided = None;
        for k in 0..16 {
            decided = w.on_ack(k % 2 == 0); // exactly 50% marked
        }
        assert_eq!(decided, Some(7.0)); // 8 × 0.875
    }

    #[test]
    fn decbit_window_floor_at_one() {
        let mut w = DecbitWindow::new(DecbitPolicy::raja88(), 1.0);
        for _ in 0..2 {
            w.on_ack(true);
        }
        assert!(w.window() >= 1.0);
    }

    #[test]
    fn decbit_epoch_scales_with_window() {
        let mut w = DecbitWindow::new(DecbitPolicy::raja88(), 2.0);
        // First epoch: 4 acks.
        for _ in 0..3 {
            assert!(w.on_ack(false).is_none());
        }
        assert_eq!(w.on_ack(false), Some(3.0));
        // Next epoch should need 6 acks.
        for _ in 0..5 {
            assert!(w.on_ack(false).is_none());
        }
        assert!(w.on_ack(false).is_some());
    }

    #[test]
    fn decbit_drives_sawtooth_against_synthetic_queue() {
        // Couple the policy to a crude queue model: queue grows with
        // window, bit sets when window exceeds 10. The window must
        // oscillate in a bounded band rather than diverge.
        let mut w = DecbitWindow::new(DecbitPolicy::raja88(), 2.0);
        let mut max_w: f64 = 0.0;
        let mut min_after_warmup = f64::INFINITY;
        for step in 0..5000 {
            let marked = w.window() > 10.0;
            w.on_ack(marked);
            max_w = max_w.max(w.window());
            if step > 2500 {
                min_after_warmup = min_after_warmup.min(w.window());
            }
        }
        assert!(max_w < 14.0, "window should stay bounded, max {max_w}");
        assert!(
            min_after_warmup > 6.0,
            "window should not collapse, min {min_after_warmup}"
        );
    }
}
