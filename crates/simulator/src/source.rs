//! Traffic sources: rate-based (the paper's Eq. 2 applied at discrete
//! feedback epochs) and window-based (Eq. 1, DECbit/Jacobson style).

use fpk_congestion::decbit::{DecbitPolicy, DecbitWindow};
use fpk_congestion::{LinearExp, RateControl, WindowAimd};
use serde::Serialize;

/// Static description of one flow.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SourceSpec {
    /// A rate-based source: emits packets at rate λ(t), receives a
    /// delayed queue-length observation every `update_interval` seconds
    /// and applies the JRJ law over that interval.
    Rate {
        /// The rate-control law.
        law: LinearExp,
        /// Initial sending rate (packets/s).
        lambda0: f64,
        /// Interval between rate updates (the control sampling period).
        update_interval: f64,
        /// One-way propagation delay to the bottleneck; feedback arrives
        /// `2 × prop_delay` after the observed instant.
        prop_delay: f64,
        /// `true` → exponential packet gaps (Poisson process);
        /// `false` → deterministic gaps `1/λ`.
        poisson: bool,
    },
    /// A window-based source: at most `window` packets in flight; acks
    /// carry a congestion mark (queue above q̂ on arrival) and drive
    /// Eq. 1 once per round trip.
    Window {
        /// AIMD parameters (`rtt` field = the flow's propagation RTT).
        aimd: WindowAimd,
        /// Initial window (packets).
        w0: f64,
    },
    /// An interrupted-Poisson (two-state MMPP) source: Poisson emission
    /// at `peak_rate` during exponentially distributed ON sojourns,
    /// silence during OFF sojourns. Mean rate =
    /// `peak_rate · mean_on/(mean_on + mean_off)`. Non-adaptive — used to
    /// study how traffic *burstiness* maps onto the Fokker–Planck σ²
    /// (the paper's "traffic variability" claim).
    OnOff {
        /// Poisson rate while ON (packets/s).
        peak_rate: f64,
        /// Mean ON sojourn (seconds, exponential).
        mean_on: f64,
        /// Mean OFF sojourn (seconds, exponential).
        mean_off: f64,
        /// One-way propagation delay to the bottleneck.
        prop_delay: f64,
    },
    /// A DECbit source (Ramakrishnan–Jain 88): marks come from the
    /// router's *regeneration-cycle averaged* queue, and the window is
    /// adjusted once per two windows of acks.
    Decbit {
        /// Window-adjustment policy.
        policy: DecbitPolicy,
        /// Propagation round-trip time.
        rtt: f64,
        /// Initial window (packets).
        w0: f64,
        /// Averaged-queue threshold for setting the bit (RaJa use 1.0).
        q_hat: f64,
    },
}

/// Mutable per-flow state during a run.
#[derive(Debug, Clone)]
pub enum SourceState {
    /// State of a rate-based source.
    Rate {
        /// Current sending rate λ (packets/s).
        lambda: f64,
    },
    /// State of an on-off source.
    OnOff {
        /// Whether the source is currently in its ON phase.
        on: bool,
        /// Whether a send-chain event is pending (guards against
        /// duplicate chains across toggles; exponential gaps make a
        /// surviving chain statistically identical to a fresh one).
        chain_alive: bool,
    },
    /// State of a DECbit source.
    Decbit {
        /// The decision-window controller.
        ctl: DecbitWindow,
        /// Packets currently in flight.
        in_flight: u64,
    },
    /// State of a window-based source.
    Window {
        /// Current congestion window (packets, fractional).
        window: f64,
        /// Packets currently in flight.
        in_flight: u64,
        /// Marks seen in the current RTT round.
        marked_this_round: bool,
        /// Acks counted in the current round (a round = ⌈window⌉ acks).
        acks_this_round: u64,
        /// Whether the window was cut this round already (react at most
        /// once per round, as Jacobson/DECbit prescribe).
        cut_this_round: bool,
    },
}

impl SourceSpec {
    /// Initial runtime state for this spec.
    #[must_use]
    pub fn initial_state(&self) -> SourceState {
        match self {
            SourceSpec::Rate { lambda0, .. } => SourceState::Rate { lambda: *lambda0 },
            SourceSpec::Window { w0, .. } => SourceState::Window {
                window: w0.max(1.0),
                in_flight: 0,
                marked_this_round: false,
                acks_this_round: 0,
                cut_this_round: false,
            },
            SourceSpec::Decbit { policy, w0, .. } => SourceState::Decbit {
                ctl: DecbitWindow::new(*policy, *w0),
                in_flight: 0,
            },
            SourceSpec::OnOff { .. } => SourceState::OnOff {
                on: true,
                chain_alive: false,
            },
        }
    }

    /// One-way propagation delay of the flow.
    #[must_use]
    pub fn prop_delay(&self) -> f64 {
        match self {
            SourceSpec::Rate { prop_delay, .. } => *prop_delay,
            // Window sources split their configured RTT evenly between
            // the two directions.
            SourceSpec::Window { aimd, .. } => 0.5 * aimd.rtt,
            SourceSpec::Decbit { rtt, .. } => 0.5 * rtt,
            SourceSpec::OnOff { prop_delay, .. } => *prop_delay,
        }
    }

    /// The congestion threshold the flow's law uses.
    ///
    /// Packet marking consults this per-flow threshold only under the
    /// default FIFO discipline ([`crate::qdisc::QdiscKind::Fifo`]);
    /// every other hop-level discipline (threshold, DECbit-averaged,
    /// RED) marks from its own hop state and ignores `q_hat` — the
    /// source still *reacts* to those marks through its control law.
    #[must_use]
    pub fn q_hat(&self) -> f64 {
        match self {
            SourceSpec::Rate { law, .. } => law.q_hat,
            SourceSpec::Window { aimd, .. } => aimd.q_hat,
            SourceSpec::Decbit { q_hat, .. } => *q_hat,
            // Non-adaptive: never considers itself congested.
            SourceSpec::OnOff { .. } => f64::INFINITY,
        }
    }
}

/// Apply one rate update: the JRJ law's arc over `dt` in the regime the
/// (stale) observed queue length selects. Linear increase integrates to
/// `λ += C0·dt`; exponential decrease to `λ *= exp(−C1·dt)` — the exact
/// solutions of Eq. 2 over the sampling interval.
#[must_use]
pub fn rate_update(law: &LinearExp, lambda: f64, observed_queue: f64, dt: f64) -> f64 {
    law.regime(observed_queue).arc(lambda, dt).0
}

/// Apply one ack to a window source. Returns the new state (by mutating)
/// and whether the window changed enough that the caller may want to send
/// more packets.
pub fn window_on_ack(aimd: &WindowAimd, state: &mut SourceState, marked: bool) {
    let SourceState::Window {
        window,
        in_flight,
        marked_this_round,
        acks_this_round,
        cut_this_round,
    } = state
    else {
        unreachable!("window_on_ack called on a rate source");
    };
    *in_flight = in_flight.saturating_sub(1);
    *acks_this_round += 1;
    if marked {
        *marked_this_round = true;
    }
    // Per-ack additive increase a/w ≈ +a per round; decrease at most once
    // per round when a mark was seen.
    if *marked_this_round && !*cut_this_round {
        *window = (*window * aimd.d).max(1.0);
        *cut_this_round = true;
    } else if !*marked_this_round {
        *window += aimd.a / window.max(1.0).floor().max(1.0);
    }
    // Round bookkeeping: one round ≈ ⌈window⌉ acks.
    if *acks_this_round >= window.ceil() as u64 {
        *acks_this_round = 0;
        *marked_this_round = false;
        *cut_this_round = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn law() -> LinearExp {
        LinearExp::new(1.0, 0.5, 10.0)
    }

    #[test]
    fn rate_update_increase_branch() {
        let l = rate_update(&law(), 3.0, 5.0, 0.2);
        assert!((l - 3.2).abs() < 1e-12);
        // Boundary q = q̂ is "not congested".
        let l2 = rate_update(&law(), 3.0, 10.0, 0.2);
        assert!((l2 - 3.2).abs() < 1e-12);
    }

    #[test]
    fn rate_update_decrease_branch_is_exact_exponential() {
        let l = rate_update(&law(), 8.0, 11.0, 0.5);
        assert!((l - 8.0 * (-0.25f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn initial_states_match_specs() {
        let r = SourceSpec::Rate {
            law: law(),
            lambda0: 2.5,
            update_interval: 0.1,
            prop_delay: 0.05,
            poisson: true,
        };
        match r.initial_state() {
            SourceState::Rate { lambda } => assert_eq!(lambda, 2.5),
            _ => panic!("wrong state kind"),
        }
        let w = SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.2, 10.0),
            w0: 4.0,
        };
        match w.initial_state() {
            SourceState::Window {
                window, in_flight, ..
            } => {
                assert_eq!(window, 4.0);
                assert_eq!(in_flight, 0);
            }
            _ => panic!("wrong state kind"),
        }
    }

    #[test]
    fn window_grows_one_per_round_unmarked() {
        let aimd = WindowAimd::new(1.0, 0.5, 0.2, 10.0);
        let mut st = SourceSpec::Window { aimd, w0: 4.0 }.initial_state();
        if let SourceState::Window { in_flight, .. } = &mut st {
            *in_flight = 4;
        }
        // One full round of 4 unmarked acks → window ≈ 5.
        for _ in 0..4 {
            window_on_ack(&aimd, &mut st, false);
        }
        if let SourceState::Window { window, .. } = st {
            assert!((window - 5.0).abs() < 0.15, "window {window}");
        }
    }

    #[test]
    fn window_cut_once_per_round() {
        let aimd = WindowAimd::new(1.0, 0.5, 0.2, 10.0);
        let mut st = SourceSpec::Window { aimd, w0: 8.0 }.initial_state();
        if let SourceState::Window { in_flight, .. } = &mut st {
            *in_flight = 8;
        }
        window_on_ack(&aimd, &mut st, true);
        window_on_ack(&aimd, &mut st, true);
        if let SourceState::Window { window, .. } = &st {
            // 8 → 4 once, not 8 → 2.
            assert!((window - 4.0).abs() < 1e-9, "window {window}");
        }
    }

    #[test]
    fn window_never_below_one() {
        let aimd = WindowAimd::new(1.0, 0.5, 0.2, 10.0);
        let mut st = SourceSpec::Window { aimd, w0: 1.0 }.initial_state();
        if let SourceState::Window { in_flight, .. } = &mut st {
            *in_flight = 1;
        }
        window_on_ack(&aimd, &mut st, true);
        if let SourceState::Window { window, .. } = st {
            assert!(window >= 1.0);
        }
    }

    #[test]
    fn prop_delay_accessor() {
        let r = SourceSpec::Rate {
            law: law(),
            lambda0: 1.0,
            update_interval: 0.1,
            prop_delay: 0.07,
            poisson: false,
        };
        assert_eq!(r.prop_delay(), 0.07);
        let w = SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.3, 10.0),
            w0: 2.0,
        };
        assert!((w.prop_delay() - 0.15).abs() < 1e-12);
        assert_eq!(w.q_hat(), 10.0);
    }
}
