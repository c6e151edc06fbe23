//! Pluggable per-hop queue disciplines: how a hop decides to set the
//! congestion bit on an arriving packet.
//!
//! The discipline is selected **once per run** by
//! [`NetConfig::qdisc`](crate::NetConfig::qdisc) and dispatched by
//! monomorphization — the event loop is generic over `Q: QDisc`, so
//! each discipline compiles to its own loop with every hook inlined
//! and no `dyn` call anywhere on the packet path. [`Fifo`] therefore
//! reproduces the pre-refactor engine **bit for bit** (pinned by
//! `tests/engine_equivalence.rs`), and disciplines that never observe
//! the queue ([`ThresholdMark`], [`RedMark`]) pay nothing for the
//! DECbit averager the others carry.
//!
//! | discipline | marks when | queue signal | extra RNG |
//! |---|---|---|---|
//! | [`Fifo`] | per *flow* policy (`q̂`, DECbit average) | instantaneous / cycle-average | none |
//! | [`ThresholdMark`] | `q ≥ K` on arrival | instantaneous | none |
//! | [`AveragedMark`] | regeneration-cycle average ≥ K | [`QueueAverager`] | none |
//! | [`RedMark`] | probabilistically, `p ∝ avg − min_th` | EWMA of arrival queue | 1 uniform iff `avg > min_th` |
//!
//! RNG draw-order contract (DESIGN.md §3g): [`RedMark`] is the only
//! discipline that draws randomness, it draws from the run's one RNG
//! stream at the arrival site (before the service-time draw for an
//! idle hop), and it draws **exactly one** uniform per arrival whose
//! EWMA exceeds `min_th` — already-marked packets included, so the
//! draw count never depends on upstream marking. All other
//! disciplines draw nothing, keeping every other draw site's order
//! identical to [`Fifo`].

use fpk_congestion::decbit::QueueAverager;
use rand::Rng;
use serde::Serialize;

/// Which queue discipline every hop of a run uses — the serialisable
/// enum half of the dispatch; the generic half is [`QDisc`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub enum QdiscKind {
    /// Per-flow marking (the historical behaviour): Rate/Window flows
    /// mark on instantaneous queue > their own `q̂`, DECbit flows on
    /// the regeneration-cycle average.
    #[default]
    Fifo,
    /// Instantaneous threshold (DCTCP-style): mark every arrival that
    /// finds `q ≥ threshold` packets in system.
    ThresholdMark {
        /// Marking threshold K in packets; finite, ≥ 0.
        threshold: f64,
    },
    /// DECbit's averaged marking as a *hop* policy: mark when the
    /// regeneration-cycle average queue is ≥ `threshold`, for every
    /// flow regardless of its own source type.
    AveragedMark {
        /// Average-queue threshold in packets; finite, ≥ 0.
        threshold: f64,
    },
    /// RED-style probabilistic marking on an EWMA of the queue seen by
    /// arrivals: below `min_th` never mark, above it mark with
    /// probability growing linearly to `max_p` at `max_th` (and capped
    /// at `max_p` beyond — the "gentle" variant, so the mark
    /// probability always lies in `[0, max_p]`).
    RedMark {
        /// EWMA queue below which nothing is marked; ≥ 0.
        min_th: f64,
        /// EWMA queue at which the mark probability reaches `max_p`;
        /// finite, > `min_th`.
        max_th: f64,
        /// Probability ceiling in `[0, 1]`.
        max_p: f64,
        /// EWMA weight in `(0, 1]` (`avg += weight·(q − avg)` per
        /// arrival).
        weight: f64,
    },
}

/// The per-run parameters of a discipline, resolved from [`QdiscKind`]
/// once before the event loop so the hot path reads plain floats
/// (fields irrelevant to the selected discipline stay at zero and are
/// never read by its monomorphized instantiation).
#[derive(Debug, Clone, Copy, Default)]
pub struct QdiscParams {
    /// [`QdiscKind::ThresholdMark`] / [`QdiscKind::AveragedMark`] K.
    pub threshold: f64,
    /// [`QdiscKind::RedMark`] lower threshold.
    pub min_th: f64,
    /// [`QdiscKind::RedMark`] upper threshold.
    pub max_th: f64,
    /// [`QdiscKind::RedMark`] probability ceiling.
    pub max_p: f64,
    /// [`QdiscKind::RedMark`] EWMA weight.
    pub weight: f64,
}

impl QdiscParams {
    /// Flatten a [`QdiscKind`] into the dense parameter struct.
    #[must_use]
    pub fn resolve(kind: QdiscKind) -> Self {
        match kind {
            QdiscKind::Fifo => Self::default(),
            QdiscKind::ThresholdMark { threshold } | QdiscKind::AveragedMark { threshold } => {
                Self {
                    threshold,
                    ..Self::default()
                }
            }
            QdiscKind::RedMark {
                min_th,
                max_th,
                max_p,
                weight,
            } => Self {
                min_th,
                max_th,
                max_p,
                weight,
                ..Self::default()
            },
        }
    }
}

/// Per-hop discipline scratch, one per hop in the run arena. A union
/// of every discipline's needs (a [`QueueAverager`] for [`Fifo`]'s
/// DECbit flows and [`AveragedMark`], an EWMA register for
/// [`RedMark`]) so the arena stays a concrete type; the monomorphized
/// loop only touches the fields its discipline reads.
#[derive(Debug, Clone, Default)]
pub struct HopQdiscState {
    /// Regeneration-cycle queue averager (starts a fresh cycle at 0).
    pub averager: QueueAverager,
    /// RED's EWMA of the queue length seen by arrivals.
    pub red_avg: f64,
}

/// A queue discipline's marking policy, dispatched by monomorphization
/// (static methods only — the discipline itself is a zero-sized type).
///
/// Contract:
/// * [`mark`](QDisc::mark) runs *before* the packet is enqueued (after
///   loss and buffer checks), with `q_len` the pre-enqueue
///   packets-in-system count. When [`MARK_IS_PURE`](QDisc::MARK_IS_PURE)
///   the event loop short-circuits it behind marks collected upstream
///   (the OR can't change, and a pure hook leaves no trace); otherwise
///   it runs for **every** surviving arrival so stateful scratch —
///   RED's EWMA — never depends on upstream marking.
/// * [`observe`](QDisc::observe) feeds queue transitions (post-change
///   length, at arrival and departure instants) to disciplines whose
///   signal needs them; it is called only when
///   [`needs_observe`](QDisc::needs_observe) returns `true`, so
///   disciplines that return `false` compile the call sites away.
pub trait QDisc {
    /// Human-readable discipline name (table columns, artifacts).
    const NAME: &'static str;

    /// Whether [`mark`](QDisc::mark) mutates no scratch and draws no
    /// RNG. Pure marks are skipped for packets already marked at an
    /// upstream hop — the historical [`Fifo`] fast path; [`RedMark`]
    /// sets `false` so its EWMA advances on every surviving arrival.
    const MARK_IS_PURE: bool;

    /// Whether the loop must feed queue transitions to
    /// [`observe`](QDisc::observe). `any_decbit` is true when the run
    /// has at least one DECbit flow (only [`Fifo`] cares).
    #[must_use]
    fn needs_observe(any_decbit: bool) -> bool;

    /// Decide the congestion bit for one arriving packet at `hop`.
    /// Takes the whole per-hop scratch slice so disciplines that never
    /// read scratch on a path ([`Fifo`] for non-DECbit flows,
    /// [`ThresholdMark`] always) pay no bounds check for it. The wide
    /// argument list is the price of one fully-inlined hook serving
    /// four disciplines with disjoint needs — bundling into a struct
    /// would rebuild it per arrival on the hot path.
    #[allow(clippy::too_many_arguments)]
    fn mark<R: Rng>(
        params: &QdiscParams,
        states: &mut [HopQdiscState],
        hop: usize,
        t: f64,
        q_len: u64,
        flow_decbit: bool,
        flow_q_hat: f64,
        rng: &mut R,
    ) -> bool;

    /// Record a queue transition (new length `q` at instant `t`).
    fn observe(state: &mut HopQdiscState, t: f64, q: f64);
}

/// The historical per-flow policy (see [`QdiscKind::Fifo`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl QDisc for Fifo {
    const NAME: &'static str = "fifo";
    const MARK_IS_PURE: bool = true;

    #[inline]
    fn needs_observe(any_decbit: bool) -> bool {
        any_decbit
    }

    #[inline]
    fn mark<R: Rng>(
        _params: &QdiscParams,
        states: &mut [HopQdiscState],
        hop: usize,
        t: f64,
        q_len: u64,
        flow_decbit: bool,
        flow_q_hat: f64,
        _rng: &mut R,
    ) -> bool {
        if flow_decbit {
            states[hop].averager.congestion_bit(t, flow_q_hat)
        } else {
            q_len as f64 > flow_q_hat
        }
    }

    #[inline]
    fn observe(state: &mut HopQdiscState, t: f64, q: f64) {
        state.averager.observe(t, q);
    }
}

/// Instantaneous-threshold marking (see [`QdiscKind::ThresholdMark`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThresholdMark;

impl QDisc for ThresholdMark {
    const NAME: &'static str = "threshold";
    const MARK_IS_PURE: bool = true;

    #[inline]
    fn needs_observe(_any_decbit: bool) -> bool {
        false
    }

    #[inline]
    fn mark<R: Rng>(
        params: &QdiscParams,
        _states: &mut [HopQdiscState],
        _hop: usize,
        _t: f64,
        q_len: u64,
        _flow_decbit: bool,
        _flow_q_hat: f64,
        _rng: &mut R,
    ) -> bool {
        q_len as f64 >= params.threshold
    }

    #[inline]
    fn observe(_state: &mut HopQdiscState, _t: f64, _q: f64) {}
}

/// Hop-level DECbit averaged marking (see [`QdiscKind::AveragedMark`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct AveragedMark;

impl QDisc for AveragedMark {
    const NAME: &'static str = "averaged";
    const MARK_IS_PURE: bool = true;

    #[inline]
    fn needs_observe(_any_decbit: bool) -> bool {
        true
    }

    #[inline]
    fn mark<R: Rng>(
        params: &QdiscParams,
        states: &mut [HopQdiscState],
        hop: usize,
        t: f64,
        _q_len: u64,
        _flow_decbit: bool,
        _flow_q_hat: f64,
        _rng: &mut R,
    ) -> bool {
        states[hop].averager.congestion_bit(t, params.threshold)
    }

    #[inline]
    fn observe(state: &mut HopQdiscState, t: f64, q: f64) {
        state.averager.observe(t, q);
    }
}

/// RED-style probabilistic marking (see [`QdiscKind::RedMark`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RedMark;

impl QDisc for RedMark {
    const NAME: &'static str = "red";
    const MARK_IS_PURE: bool = false;

    #[inline]
    fn needs_observe(_any_decbit: bool) -> bool {
        false
    }

    #[inline]
    fn mark<R: Rng>(
        params: &QdiscParams,
        states: &mut [HopQdiscState],
        hop: usize,
        _t: f64,
        q_len: u64,
        _flow_decbit: bool,
        _flow_q_hat: f64,
        rng: &mut R,
    ) -> bool {
        let state = &mut states[hop];
        state.red_avg += params.weight * (q_len as f64 - state.red_avg);
        let p = red_mark_probability(params.min_th, params.max_th, params.max_p, state.red_avg);
        // One uniform iff p > 0 (avg above min_th) — the §3g draw rule.
        p > 0.0 && rng.gen::<f64>() < p
    }

    #[inline]
    fn observe(_state: &mut HopQdiscState, _t: f64, _q: f64) {}
}

/// RED's mark probability for an EWMA queue `avg`: 0 at or below
/// `min_th`, linear up to `max_p` at `max_th`, capped at `max_p`
/// beyond (the "gentle" variant). Always inside `[0, max_p]` for
/// `min_th < max_th`, `max_p ∈ [0, 1]` — property-tested in
/// `tests/proptests.rs`.
#[must_use]
pub fn red_mark_probability(min_th: f64, max_th: f64, max_p: f64, avg: f64) -> f64 {
    if avg <= min_th {
        0.0
    } else {
        (max_p * (avg - min_th) / (max_th - min_th)).min(max_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn red_probability_shape() {
        assert_eq!(red_mark_probability(5.0, 15.0, 0.1, 0.0), 0.0);
        assert_eq!(red_mark_probability(5.0, 15.0, 0.1, 5.0), 0.0);
        let mid = red_mark_probability(5.0, 15.0, 0.1, 10.0);
        assert!((mid - 0.05).abs() < 1e-15);
        assert_eq!(red_mark_probability(5.0, 15.0, 0.1, 15.0), 0.1);
        assert_eq!(red_mark_probability(5.0, 15.0, 0.1, 1e9), 0.1, "capped");
    }

    #[test]
    fn threshold_marks_at_and_above_k() {
        let p = QdiscParams::resolve(QdiscKind::ThresholdMark { threshold: 3.0 });
        let s = &mut [HopQdiscState::default()][..];
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!ThresholdMark::mark(&p, s, 0, 0.0, 2, false, 0.0, &mut rng));
        assert!(ThresholdMark::mark(&p, s, 0, 0.0, 3, false, 0.0, &mut rng));
        assert!(ThresholdMark::mark(&p, s, 0, 0.0, 9, false, 0.0, &mut rng));
    }

    #[test]
    fn fifo_reproduces_per_flow_policy() {
        let p = QdiscParams::resolve(QdiscKind::Fifo);
        let s = &mut [HopQdiscState::default()][..];
        let mut rng = StdRng::seed_from_u64(1);
        // Instantaneous policy: strict > q_hat.
        assert!(!Fifo::mark(&p, s, 0, 0.0, 5, false, 5.0, &mut rng));
        assert!(Fifo::mark(&p, s, 0, 0.0, 6, false, 5.0, &mut rng));
        // DECbit policy reads the averager: a long busy spell at q = 4
        // pushes the cycle average over a q̂ of 2.
        Fifo::observe(&mut s[0], 0.0, 4.0);
        assert!(Fifo::mark(&p, s, 0, 10.0, 0, true, 2.0, &mut rng));
        assert!(!Fifo::mark(&p, s, 0, 10.0, 0, true, 5.0, &mut rng));
    }

    #[test]
    fn red_ewma_tracks_and_never_exceeds_cap() {
        let p = QdiscParams::resolve(QdiscKind::RedMark {
            min_th: 2.0,
            max_th: 8.0,
            max_p: 0.25,
            weight: 0.5,
        });
        let s = &mut [HopQdiscState::default()][..];
        let mut rng = StdRng::seed_from_u64(7);
        let mut marks = 0u32;
        for _ in 0..200 {
            if RedMark::mark(&p, s, 0, 0.0, 50, false, 0.0, &mut rng) {
                marks += 1;
            }
        }
        // EWMA converges to 50 >> max_th: the mark rate sits at max_p.
        assert!(s[0].red_avg > 40.0);
        assert!((f64::from(marks) / 200.0 - 0.25).abs() < 0.1);
        // And an idle stretch decays below min_th: no marks, no draws.
        for _ in 0..20 {
            RedMark::mark(&p, s, 0, 0.0, 0, false, 0.0, &mut rng);
        }
        assert!(s[0].red_avg < 2.0);
        assert!(!RedMark::mark(&p, s, 0, 0.0, 0, false, 0.0, &mut rng));
    }
}
