//! Adaptive initial-value ODE integration.
//!
//! The fluid model of Bolot–Shankar and the characteristic curves of the
//! Fokker–Planck equation (Section 5 of the paper) are systems
//! `dy/dt = F(t, y)`. This module provides:
//!
//! * the adaptive Dormand–Prince 5(4) pair ([`Dopri5`]) with PI step-size
//!   control and third-order Hermite dense output;
//! * switching-surface *event location* ([`Dopri5::integrate_with_event`]),
//!   needed because the JRJ control law `g(q, λ)` is discontinuous at
//!   `q = q̂` and naive integration across the switch loses accuracy.
//!
//! All methods operate on `&[f64]` states so callers choose dimension; the
//! right-hand side is any `FnMut(t, y, dydt)`.

use crate::{NumericsError, Result};

/// Right-hand side signature: fills `dydt` with F(t, y).
pub trait Rhs {
    /// Evaluate the derivative at time `t` and state `y` into `dydt`.
    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]);
}

impl<F: FnMut(f64, &[f64], &mut [f64])> Rhs for F {
    fn eval(&mut self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self(t, y, dydt)
    }
}

/// A recorded trajectory: times and the state at each time.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    /// Sample times, strictly increasing.
    pub t: Vec<f64>,
    /// States; `y[k]` corresponds to `t[k]`.
    pub y: Vec<Vec<f64>>,
}

impl Trajectory {
    /// Number of stored samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the trajectory holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Extract the time series of component `i`.
    #[must_use]
    pub fn component(&self, i: usize) -> Vec<f64> {
        self.y.iter().map(|s| s[i]).collect()
    }

    /// Final state, if any samples were stored.
    #[must_use]
    pub fn last(&self) -> Option<(&f64, &[f64])> {
        match (self.t.last(), self.y.last()) {
            (Some(t), Some(y)) => Some((t, y.as_slice())),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Dormand–Prince 5(4)
// ---------------------------------------------------------------------------

/// Butcher tableau coefficients for Dormand–Prince 5(4) (a.k.a. DOPRI5,
/// the method behind MATLAB's `ode45` and scipy's `RK45`).
mod dp {
    pub const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
    pub const A: [[f64; 6]; 7] = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
        [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
        [
            19372.0 / 6561.0,
            -25360.0 / 2187.0,
            64448.0 / 6561.0,
            -212.0 / 729.0,
            0.0,
            0.0,
        ],
        [
            9017.0 / 3168.0,
            -355.0 / 33.0,
            46732.0 / 5247.0,
            49.0 / 176.0,
            -5103.0 / 18656.0,
            0.0,
        ],
        [
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
        ],
    ];
    /// 5th-order solution weights (same as the last row of A — FSAL).
    pub const B5: [f64; 7] = [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
        0.0,
    ];
    /// Embedded 4th-order weights.
    pub const B4: [f64; 7] = [
        5179.0 / 57600.0,
        0.0,
        7571.0 / 16695.0,
        393.0 / 640.0,
        -92097.0 / 339200.0,
        187.0 / 2100.0,
        1.0 / 40.0,
    ];
}

/// Options controlling the adaptive integrator.
#[derive(Debug, Clone)]
pub struct Dopri5Options {
    /// Relative tolerance on the local error.
    pub rtol: f64,
    /// Absolute tolerance on the local error.
    pub atol: f64,
    /// Initial step size; when `None` a conservative guess is made.
    pub h0: Option<f64>,
    /// Smallest admissible step before the integrator gives up.
    pub h_min: f64,
    /// Largest admissible step.
    pub h_max: f64,
    /// Hard cap on accepted + rejected steps.
    pub max_steps: usize,
}

impl Default for Dopri5Options {
    fn default() -> Self {
        Self {
            rtol: 1e-8,
            atol: 1e-10,
            h0: None,
            h_min: 1e-14,
            h_max: f64::INFINITY,
            max_steps: 1_000_000,
        }
    }
}

/// Adaptive Dormand–Prince 5(4) integrator.
#[derive(Debug, Clone, Default)]
pub struct Dopri5 {
    /// Tuning knobs; see [`Dopri5Options`].
    pub opts: Dopri5Options,
}

/// Outcome of an event-terminated integration.
#[derive(Debug, Clone)]
pub struct EventOutcome {
    /// The recorded trajectory up to (and including) the stopping point.
    pub trajectory: Trajectory,
    /// `Some((t*, y*))` when the event function crossed zero; `None` when
    /// integration reached `t1` without an event.
    pub event: Option<(f64, Vec<f64>)>,
}

impl Dopri5 {
    /// Create an integrator with the given options.
    #[must_use]
    pub fn new(opts: Dopri5Options) -> Self {
        Self { opts }
    }

    /// Integrate from `t0` to `t1`, recording every accepted step.
    ///
    /// # Errors
    /// * [`NumericsError::InvalidParameter`] for `t1 <= t0`.
    /// * [`NumericsError::NoConvergence`] when the step count budget is
    ///   exhausted or the step size underflows `h_min`.
    pub fn integrate<R: Rhs>(
        &self,
        rhs: &mut R,
        t0: f64,
        t1: f64,
        y0: &[f64],
    ) -> Result<Trajectory> {
        let out = self.drive(rhs, t0, t1, y0, None)?;
        Ok(out.trajectory)
    }

    /// Integrate until either `t1` or the scalar event function `event`
    /// crosses zero (either direction). The crossing is located to high
    /// precision by bisection on the dense output.
    ///
    /// The event function is evaluated at accepted step endpoints; events
    /// entirely contained inside one step (double crossing) may be missed,
    /// as in every standard solver — keep `h_max` small relative to the
    /// event dynamics if that matters.
    ///
    /// # Errors
    /// Same conditions as [`Dopri5::integrate`].
    pub fn integrate_with_event<R: Rhs, E: FnMut(f64, &[f64]) -> f64>(
        &self,
        rhs: &mut R,
        t0: f64,
        t1: f64,
        y0: &[f64],
        mut event: E,
    ) -> Result<EventOutcome> {
        let mut boxed: &mut dyn FnMut(f64, &[f64]) -> f64 = &mut event;
        self.drive(rhs, t0, t1, y0, Some(&mut boxed))
    }

    #[allow(clippy::too_many_lines)]
    fn drive<R: Rhs>(
        &self,
        rhs: &mut R,
        t0: f64,
        t1: f64,
        y0: &[f64],
        mut event: Option<&mut &mut dyn FnMut(f64, &[f64]) -> f64>,
    ) -> Result<EventOutcome> {
        if !(t1 > t0) {
            return Err(NumericsError::InvalidParameter {
                context: "Dopri5: t1 must exceed t0",
            });
        }
        let n = y0.len();
        let o = &self.opts;
        let mut t = t0;
        let mut y = y0.to_vec();
        let mut k: Vec<Vec<f64>> = (0..7).map(|_| vec![0.0; n]).collect();
        let mut ytmp = vec![0.0; n];
        let mut y5 = vec![0.0; n];
        let mut err_prev: f64 = 1.0; // for PI controller
        let mut h = o.h0.unwrap_or_else(|| ((t1 - t0) / 100.0).min(o.h_max));
        // Not `clamp`: h_min may exceed a very short integration span, and
        // the floor must win in that case (clamp would panic).
        h = h.min(t1 - t0).max(o.h_min);

        let mut traj = Trajectory::default();
        traj.t.push(t);
        traj.y.push(y.clone());

        let mut ev_prev = event.as_mut().map(|e| e(t, &y));

        // FSAL: k[0] at the start of each accepted step equals k[6] of the
        // previous accepted step.
        rhs.eval(t, &y, &mut k[0]);

        let mut steps = 0usize;
        while t < t1 {
            steps += 1;
            if steps > o.max_steps {
                return Err(NumericsError::NoConvergence {
                    context: "Dopri5: max_steps exceeded",
                    iterations: steps,
                });
            }
            if h < o.h_min {
                return Err(NumericsError::NoConvergence {
                    context: "Dopri5: step size underflow",
                    iterations: steps,
                });
            }
            if t + h > t1 {
                h = t1 - t;
            }

            // Stages 2..7 (stage 1 is the FSAL k[0]).
            for s in 1..7 {
                for i in 0..n {
                    let mut acc = 0.0;
                    for (j, kj) in k.iter().enumerate().take(s) {
                        acc += dp::A[s][j] * kj[i];
                    }
                    ytmp[i] = y[i] + h * acc;
                }
                let (head, tail) = k.split_at_mut(s);
                let _ = head;
                rhs.eval(t + dp::C[s] * h, &ytmp, &mut tail[0]);
            }

            // 5th-order solution and embedded error estimate.
            let mut err_norm: f64 = 0.0;
            for i in 0..n {
                let mut acc5 = 0.0;
                let mut acc4 = 0.0;
                for (s, ks) in k.iter().enumerate() {
                    acc5 += dp::B5[s] * ks[i];
                    acc4 += dp::B4[s] * ks[i];
                }
                y5[i] = y[i] + h * acc5;
                let e = h * (acc5 - acc4);
                let sc = o.atol + o.rtol * y[i].abs().max(y5[i].abs());
                err_norm += (e / sc) * (e / sc);
            }
            err_norm = (err_norm / n as f64).sqrt().max(1e-16);

            if err_norm <= 1.0 {
                // Accept.
                let t_new = t + h;
                if let Some(ev) = event.as_mut() {
                    let g_new = ev(t_new, &y5);
                    let g_old = ev_prev.unwrap_or(g_new);
                    if g_old == 0.0 {
                        traj.t.push(t_new);
                        traj.y.push(y5.clone());
                        return Ok(EventOutcome {
                            trajectory: traj,
                            event: Some((t, y.clone())),
                        });
                    }
                    if g_old * g_new < 0.0 {
                        // Bisect the crossing using Hermite dense output over
                        // [t, t_new]: value/slope pairs (y, k0) and (y5, k6).
                        let (te, ye) = hermite_bisect_event(t, &y, &k[0], t_new, &y5, &k[6], h, ev);
                        traj.t.push(te);
                        traj.y.push(ye.clone());
                        return Ok(EventOutcome {
                            trajectory: traj,
                            event: Some((te, ye)),
                        });
                    }
                    ev_prev = Some(g_new);
                }
                t = t_new;
                y.copy_from_slice(&y5);
                k.swap(0, 6); // FSAL
                traj.t.push(t);
                traj.y.push(y.clone());

                // PI step controller (Hairer–Nørsett–Wanner II.4).
                let fac = 0.9 * err_norm.powf(-0.7 / 5.0) * err_prev.powf(0.4 / 5.0);
                let fac = fac.clamp(0.2, 5.0);
                h = (h * fac).min(o.h_max);
                err_prev = err_norm;
            } else {
                // Reject: shrink and retry (k[0] still valid at (t, y)).
                let fac = (0.9 * err_norm.powf(-0.2)).clamp(0.1, 1.0);
                h *= fac;
            }
        }
        Ok(EventOutcome {
            trajectory: traj,
            event: None,
        })
    }
}

/// Locate a sign change of `event` within one accepted step using cubic
/// Hermite dense output and bisection. Returns the event time and state.
#[allow(clippy::too_many_arguments)]
fn hermite_bisect_event(
    t0: f64,
    y0: &[f64],
    f0: &[f64],
    t1: f64,
    y1: &[f64],
    f1: &[f64],
    h: f64,
    event: &mut &mut dyn FnMut(f64, &[f64]) -> f64,
) -> (f64, Vec<f64>) {
    let n = y0.len();
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut ymid = vec![0.0; n];
    let eval = |theta: f64, out: &mut [f64]| {
        // Cubic Hermite basis on [0, 1].
        let h00 = (1.0 + 2.0 * theta) * (1.0 - theta) * (1.0 - theta);
        let h10 = theta * (1.0 - theta) * (1.0 - theta);
        let h01 = theta * theta * (3.0 - 2.0 * theta);
        let h11 = theta * theta * (theta - 1.0);
        for i in 0..n {
            out[i] = h00 * y0[i] + h10 * h * f0[i] + h01 * y1[i] + h11 * h * f1[i];
        }
    };
    eval(lo, &mut ymid);
    let g_lo = event(t0, &ymid);
    let mut sign_lo = g_lo.signum();
    if g_lo == 0.0 {
        return (t0, ymid);
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        eval(mid, &mut ymid);
        let g = event(t0 + mid * (t1 - t0), &ymid);
        if g == 0.0 {
            return (t0 + mid * (t1 - t0), ymid);
        }
        if g.signum() == sign_lo {
            lo = mid;
        } else {
            hi = mid;
        }
        sign_lo = if lo == mid { g.signum() } else { sign_lo };
        if hi - lo < 1e-14 {
            break;
        }
    }
    let theta = 0.5 * (lo + hi);
    eval(theta, &mut ymid);
    (t0 + theta * (t1 - t0), ymid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// dy/dt = -y, y(0)=1 — exact e^{-t}.
    fn decay(_t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = -y[0];
    }

    /// Harmonic oscillator: y'' = -y as a first-order system.
    fn oscillator(_t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = y[1];
        dydt[1] = -y[0];
    }

    #[test]
    fn dopri5_exponential_high_accuracy() {
        let solver = Dopri5::default();
        let mut f = decay;
        let traj = solver.integrate(&mut f, 0.0, 5.0, &[1.0]).unwrap();
        assert!(approx_eq(
            traj.last().unwrap().1[0],
            (-5.0f64).exp(),
            1e-7,
            1e-10
        ));
    }

    #[test]
    fn dopri5_oscillator_period() {
        let solver = Dopri5::new(Dopri5Options {
            rtol: 1e-10,
            atol: 1e-12,
            ..Default::default()
        });
        let mut f = oscillator;
        let tau = 2.0 * std::f64::consts::PI;
        let traj = solver.integrate(&mut f, 0.0, tau, &[1.0, 0.0]).unwrap();
        let yf = traj.last().unwrap().1;
        assert!(approx_eq(yf[0], 1.0, 0.0, 1e-7));
        assert!(approx_eq(yf[1], 0.0, 0.0, 1e-7));
    }

    #[test]
    fn dopri5_uses_fewer_steps_on_smooth_problems() {
        let solver = Dopri5::new(Dopri5Options {
            rtol: 1e-6,
            atol: 1e-9,
            ..Default::default()
        });
        let mut f = decay;
        let traj = solver.integrate(&mut f, 0.0, 10.0, &[1.0]).unwrap();
        assert!(
            traj.len() < 200,
            "expected adaptive solver to take < 200 steps, took {}",
            traj.len()
        );
    }

    #[test]
    fn dopri5_rejects_bad_interval() {
        let solver = Dopri5::default();
        let mut f = decay;
        assert!(solver.integrate(&mut f, 1.0, 1.0, &[1.0]).is_err());
        assert!(solver.integrate(&mut f, 2.0, 1.0, &[1.0]).is_err());
    }

    #[test]
    fn event_location_linear_crossing() {
        // y' = 1, event at y = 2.5 starting from y(0) = 0 → t* = 2.5.
        let solver = Dopri5::default();
        let mut f = |_t: f64, _y: &[f64], d: &mut [f64]| d[0] = 1.0;
        let out = solver
            .integrate_with_event(&mut f, 0.0, 10.0, &[0.0], |_t, y| y[0] - 2.5)
            .unwrap();
        let (te, ye) = out.event.expect("event should fire");
        assert!(approx_eq(te, 2.5, 1e-9, 1e-9), "te={te}");
        assert!(approx_eq(ye[0], 2.5, 1e-9, 1e-9));
    }

    #[test]
    fn event_location_oscillator_zero_crossing() {
        // cos(t) crosses zero at pi/2.
        let solver = Dopri5::new(Dopri5Options {
            rtol: 1e-10,
            atol: 1e-12,
            ..Default::default()
        });
        let mut f = oscillator;
        let out = solver
            .integrate_with_event(&mut f, 0.0, 10.0, &[1.0, 0.0], |_t, y| y[0])
            .unwrap();
        let (te, _) = out.event.expect("event should fire");
        assert!(
            approx_eq(te, std::f64::consts::FRAC_PI_2, 1e-8, 1e-8),
            "te={te}"
        );
    }

    #[test]
    fn event_none_when_no_crossing() {
        let solver = Dopri5::default();
        let mut f = decay;
        let out = solver
            .integrate_with_event(&mut f, 0.0, 1.0, &[1.0], |_t, y| y[0] + 10.0)
            .unwrap();
        assert!(out.event.is_none());
        assert!(approx_eq(
            out.trajectory.last().unwrap().1[0],
            (-1.0f64).exp(),
            1e-7,
            1e-9
        ));
    }

    #[test]
    fn trajectory_component_extraction() {
        let mut f = oscillator;
        let traj = Dopri5::default()
            .integrate(&mut f, 0.0, 1.0, &[1.0, 0.0])
            .unwrap();
        let c0 = traj.component(0);
        assert_eq!(c0.len(), traj.len());
        assert!(approx_eq(c0[0], 1.0, 0.0, 0.0));
        assert!(approx_eq(c0[c0.len() - 1], 1.0f64.cos(), 1e-6, 1e-9));
    }
}
