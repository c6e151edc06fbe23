//! Event-driven exact fluid tracing.
//!
//! The fixed-step RK4 integrator [`crate::simulate`] smears O(dt) error
//! across each crossing of the switching line `q = q̂` and the boundary
//! `q = 0`. This module instead marches from arc to arc. Inside one
//! regime the law's closed-form arc ([`Affine::arc`]) gives λ(t) and
//! q(t) = q₀ + ∫λ − μt. λ is monotone along an arc, so q is convex or
//! concave, with its one extremum where λ = μ ([`Affine::time_to`]).
//! Each side of the extremum is monotone in q, which brackets every
//! crossing of q̂ and of 0 for [`brent`]. The result is the accuracy
//! reference used to validate both the RK4 integrator and the analytic
//! return map.

use fpk_congestion::{Affine, RateControl};
use fpk_numerics::roots::brent;
use fpk_numerics::{NumericsError, Result, Series};

/// Which smooth regime the trajectory is currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arc {
    /// q > q̂, or on q̂ moving up — the decrease branch of the law.
    Above,
    /// 0 ≤ q ≤ q̂ — the increase branch.
    Below,
    /// q = 0 with λ < μ — queue pinned empty, λ climbing.
    Empty,
}

/// Result of an event-driven trace.
#[derive(Debug, Clone)]
pub struct EventTrace {
    /// Arc endpoints, where the regime changed: one `(q, λ)` row per
    /// event time, `q` = q̂ or 0 (the one-source fluid row, read by
    /// [`crate::state`] and [`crate::queue`]).
    pub switchings: Series,
    /// Final state `(q, λ)` at `t_end`.
    pub final_state: (f64, f64),
}

/// Arcs a trace may take; only a pathological law gets near it.
const MAX_ARCS: usize = 100_000;

/// Trace the single-source fluid system from `(q0, λ0)` to `t_end`,
/// resolving every crossing of `q = q̂` and every visit to the empty
/// queue exactly.
///
/// # Errors
/// Invalid parameters; [`NumericsError::NoConvergence`] when the trace
/// takes more than 100 000 arcs.
pub fn trace_events<L: RateControl>(
    law: &L,
    mu: f64,
    q0: f64,
    lambda0: f64,
    t_end: f64,
) -> Result<EventTrace> {
    // Each check is phrased positively so NaN fails it too.
    for (ok, context) in [
        (
            mu > 0.0 && mu.is_finite(),
            "trace_events: mu must be finite and > 0",
        ),
        (
            t_end > 0.0 && t_end.is_finite(),
            "trace_events: t_end must be finite and > 0",
        ),
        (
            q0 >= 0.0 && q0.is_finite(),
            "trace_events: q0 must be finite and >= 0",
        ),
        (
            lambda0 >= 0.0 && lambda0.is_finite(),
            "trace_events: lambda0 must be finite and >= 0",
        ),
    ] {
        if !ok {
            return Err(NumericsError::InvalidParameter { context });
        }
    }
    let q_hat = law.q_hat();
    let (up, down) = (law.regime(q_hat), law.regime(f64::INFINITY));
    let (mut t, mut q, mut lambda) = (0.0, q0, lambda0);
    // On the switching line the direction of motion picks the side.
    let mut arc = if q > q_hat || (q == q_hat && lambda > mu) {
        Arc::Above
    } else if q <= 0.0 && lambda < mu {
        Arc::Empty
    } else {
        Arc::Below
    };
    let mut switchings = Series::new(2);

    for _ in 0..MAX_ARCS {
        // (q̂, μ) is the limit point: each regime pushes the trajectory
        // back onto it, so it rests there.
        if t >= t_end || (q == q_hat && lambda == mu) {
            return Ok(EventTrace {
                switchings,
                final_state: (q, lambda),
            });
        }
        let span = t_end - t;
        if arc == Arc::Empty {
            // λ climbs along the increase arc with q pinned at 0.
            let Some(h) = up.time_to(lambda, mu).filter(|&h| h <= span) else {
                lambda = up.arc(lambda, span).0;
                t = t_end;
                continue;
            };
            t += h;
            lambda = mu;
            arc = Arc::Below;
        } else {
            let (regime, levels) = if arc == Arc::Above {
                (&down, &[q_hat][..])
            } else {
                (&up, &[0.0, q_hat][..])
            };
            let Some((h, level)) = first_crossing(regime, mu, q, lambda, span, levels)? else {
                let (l, area) = regime.arc(lambda, span);
                q = (q + area - mu * span).max(0.0);
                lambda = l;
                t = t_end;
                continue;
            };
            t += h;
            q = level;
            lambda = regime.arc(lambda, h).0;
            arc = match arc {
                Arc::Above => Arc::Below,
                _ if level == q_hat => Arc::Above,
                _ => Arc::Empty,
            };
        }
        switchings.push(t, [q, lambda]);
    }
    Err(NumericsError::NoConvergence {
        context: "trace_events",
        iterations: MAX_ARCS,
    })
}

/// The first time within `span` at which q(h) = q0 + ∫λ − μh, along
/// `regime`'s arc from `lambda0`, crosses one of `levels`, with the level
/// crossed. A level that q starts on is one it is leaving.
fn first_crossing(
    regime: &Affine,
    mu: f64,
    q0: f64,
    lambda0: f64,
    span: f64,
    levels: &[f64],
) -> Result<Option<(f64, f64)>> {
    let q = |h: f64| q0 + regime.arc(lambda0, h).1 - mu * h;
    // q' = λ − μ changes sign at most once, where λ = μ: q is monotone
    // on each side of that extremum.
    let extremum = regime.time_to(lambda0, mu).filter(|&h| h > 0.0 && h < span);
    let (mut u, mut qu) = (0.0, q0);
    for v in extremum.into_iter().chain([span]) {
        let qv = q(v);
        for &level in levels {
            let (du, dv) = (qu - level, qv - level);
            if du != 0.0 && (dv == 0.0 || (du > 0.0) != (dv > 0.0)) {
                let tol = 4.0 * f64::EPSILON * (1.0 + v);
                return Ok(Some((brent(|h| q(h) - level, u, v, tol, 200)?, level)));
            }
        }
        (u, qu) = (v, qv);
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{final_state, queue, simulate, state, FluidParams};
    use fpk_congestion::theory::{linear_linear_cycle, ReturnMap};
    use fpk_congestion::{LinearExp, LinearLinear};

    fn law() -> LinearExp {
        LinearExp::new(1.0, 0.5, 10.0)
    }

    #[test]
    fn non_finite_parameters_rejected_by_name() {
        // (field, [mu, q0, lambda0, t_end]).
        let cases = [
            ("mu", [f64::INFINITY, 2.0, 1.0, 40.0]),
            ("q0", [5.0, f64::NAN, 1.0, 40.0]),
            ("lambda0", [5.0, 2.0, f64::NAN, 40.0]),
            ("t_end", [5.0, 2.0, 1.0, f64::INFINITY]),
            ("t_end", [5.0, 2.0, 1.0, f64::NAN]),
        ];
        for (field, [mu, q0, lambda0, t_end]) in cases {
            match trace_events(&law(), mu, q0, lambda0, t_end) {
                Err(NumericsError::InvalidParameter { context }) => {
                    assert!(context.split(' ').any(|w| w == field), "{field}: {context}");
                }
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn events_match_analytic_return_map() {
        // Downward crossings of q̂ (λ < μ) must agree with the analytic
        // map to root-finding accuracy.
        let trace = trace_events(&law(), 5.0, 10.0, 2.0, 60.0).unwrap();
        let map = ReturnMap::new(law(), 5.0).unwrap();
        let analytic = map.iterate(2.0, 4).unwrap();
        let sw = &trace.switchings;
        let numeric: Vec<f64> = (0..sw.len())
            .map(|k| state(sw.row(k)))
            .filter(|&(q, lam)| (q - 10.0).abs() < 1e-6 && lam[0] < 5.0)
            .map(|(_, lam)| lam[0])
            .collect();
        assert!(numeric.len() >= 3, "need several revolutions: {numeric:?}");
        for (k, (a, n)) in analytic[1..].iter().zip(numeric.iter()).enumerate() {
            assert!(
                (a - n).abs() < 1e-10,
                "revolution {k}: analytic {a} vs event-driven {n}"
            );
        }
    }

    /// `(t, λ)` at each downward crossing of `q_hat` (λ < μ).
    fn downward_crossings(trace: &EventTrace, q_hat: f64, mu: f64) -> Vec<(f64, f64)> {
        let sw = &trace.switchings;
        (0..sw.len())
            .map(|k| (sw.t()[k], state(sw.row(k))))
            .filter(|&(_, (q, lam))| q == q_hat && lam[0] < mu)
            .map(|(t, (_, lam))| (t, lam[0]))
            .collect()
    }

    #[test]
    fn linear_linear_orbit_closes() {
        // No contraction without a proportional decrease: every downward
        // crossing of q̂ returns to λ0, one closed-orbit period apart.
        let law = LinearLinear::new(1.0, 2.0, 10.0);
        let (lambda_next, period) = linear_linear_cycle(&law, 5.0, 4.0).unwrap();
        let trace = trace_events(&law, 5.0, 10.0, 4.0, 20.0).unwrap();
        let crossings = downward_crossings(&trace, 10.0, 5.0);
        assert!(crossings.len() >= 6, "{crossings:?}");
        let mut t_prev = 0.0;
        for (t, lam) in crossings {
            assert!((lam - lambda_next).abs() < 1e-12, "t = {t}: λ = {lam}");
            assert!(
                (t - t_prev - period).abs() < 1e-12,
                "t = {t}: period {}",
                t - t_prev
            );
            t_prev = t;
        }
    }

    #[test]
    fn clamped_revolutions_match_the_return_map() {
        // Dips that reach q = 0 follow the map's empty-queue branch.
        let law = LinearExp::new(0.2, 0.5, 0.5);
        let trace = trace_events(&law, 5.0, 0.5, 0.0, 40.0).unwrap();
        let map = ReturnMap::new(law, 5.0).unwrap();
        let analytic = map.iterate(0.0, 3).unwrap();
        let crossings = downward_crossings(&trace, 0.5, 5.0);
        assert!(crossings.len() >= 2, "{crossings:?}");
        for ((_, lam), a) in crossings.iter().zip(&analytic[1..]) {
            assert!((lam - a).abs() < 1e-10, "traced {lam} vs map {a}");
        }
    }

    #[test]
    fn events_agree_with_rk4_endpoint() {
        let trace = trace_events(&law(), 5.0, 2.0, 1.0, 40.0).unwrap();
        let rk4 = simulate(
            &[law()],
            &FluidParams {
                mu: 5.0,
                q0: 2.0,
                lambda0: vec![1.0],
                t_end: 40.0,
                dt: 1e-4,
            },
        )
        .unwrap();
        let (qf, lam) = final_state(&rk4);
        let lf = lam[0];
        assert!(
            (trace.final_state.0 - qf).abs() < 5e-3,
            "q: event {} vs rk4 {qf}",
            trace.final_state.0
        );
        assert!(
            (trace.final_state.1 - lf).abs() < 5e-3,
            "lambda: event {} vs rk4 {lf}",
            trace.final_state.1
        );
    }

    #[test]
    fn empty_queue_arc_handled() {
        // Start with a hopeless rate: the queue drains to empty, λ climbs
        // along the boundary, and the trajectory re-enters — at least one
        // switching at q = 0 must be recorded.
        let law = LinearExp::new(0.2, 0.5, 0.5);
        let trace = trace_events(&law, 5.0, 0.5, 0.0, 40.0).unwrap();
        assert!(
            queue(&trace.switchings).any(|q| q < 1e-6),
            "expected a boundary event: {:?}",
            trace.switchings
        );
        assert!(trace.final_state.0 >= 0.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(trace_events(&law(), 0.0, 1.0, 1.0, 10.0).is_err());
        assert!(trace_events(&law(), 5.0, -1.0, 1.0, 10.0).is_err());
        assert!(trace_events(&law(), 5.0, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn switching_count_grows_with_horizon() {
        let short = trace_events(&law(), 5.0, 10.0, 2.0, 20.0).unwrap();
        let long = trace_events(&law(), 5.0, 10.0, 2.0, 80.0).unwrap();
        assert!(long.switchings.len() > short.switchings.len());
    }
}
