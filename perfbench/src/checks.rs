//! Output checks. Each returns `Err(reason)` when an operation's output
//! is wrong; a failed check counts the operation as failed. The tests at
//! the bottom corrupt valid outputs and show that every check trips.

use fpk_scenarios::CellReport;

/// Largest relative FP mass drift accepted (the solver is conservative
/// to round-off; DESIGN §2 pins ~1e-12).
pub const MASS_DRIFT_MAX: f64 = 1e-9;
/// Most negative density value accepted (limiters keep f ≥ 0).
pub const DENSITY_MIN: f64 = -1e-12;
/// Largest KS distance accepted between an MC snapshot's q-sample and the
/// FP q-marginal at the same time.
pub const KS_MAX: f64 = 0.15;
/// Slack on the slowdown ≥ 1 floor (round-off in the ideal FCT).
const SLOWDOWN_EPS: f64 = 1e-9;

type Check = Result<(), String>;

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Check {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// FP snapshot: mass conserved, density non-negative.
pub fn fp_snapshot(t: f64, mass0: f64, mass: f64, min_value: f64) -> Check {
    let drift = (mass - mass0).abs() / mass0;
    ensure(drift <= MASS_DRIFT_MAX, || {
        format!("fp t={t}: mass drift {drift:e} > {MASS_DRIFT_MAX:e}")
    })?;
    ensure(min_value >= DENSITY_MIN, || {
        format!("fp t={t}: negative density {min_value:e}")
    })
}

/// MC snapshot: every particle has q ≥ 0 and λ = ν + μ ≥ 0, the sample
/// is complete, and its q-marginal lies within [`KS_MAX`] of the FP one.
pub fn mc_snapshot(t: f64, q: &[f64], nu: &[f64], mu: f64, n: usize, ks: f64) -> Check {
    ensure(q.len() == n && nu.len() == n, || {
        format!("mc t={t}: {} / {} samples, expected {n}", q.len(), nu.len())
    })?;
    ensure(q.iter().all(|&x| x >= 0.0), || format!("mc t={t}: q < 0"))?;
    ensure(nu.iter().all(|&x| x + mu >= 0.0), || {
        format!("mc t={t}: λ = ν + μ < 0")
    })?;
    ensure(ks <= KS_MAX, || format!("mc t={t}: KS {ks} > {KS_MAX}"))
}

/// Static-source sweep cell (unbounded buffers, no faults): nothing is
/// dropped, delivery stays within capacity, and the per-flow throughputs
/// add up to the total. On exponential service a hop completes a Poisson
/// number of packets while busy, so utilisation may exceed 1 by noise:
/// `served_per_run` (μ × measurement window) sets a six-sigma allowance.
pub fn static_cell(cell: &CellReport, replications: usize, served_per_run: f64) -> Check {
    let util_max = 1.0 + 6.0 / served_per_run.sqrt();
    let s = &cell.stats;
    let name = &cell.name;
    ensure(s.replications == replications, || {
        format!(
            "{name}: {} replications, expected {replications}",
            s.replications
        )
    })?;
    ensure(s.total_dropped.mean == 0.0, || {
        format!(
            "{name}: {} packets dropped without buffers or faults",
            s.total_dropped.mean
        )
    })?;
    ensure(
        s.utilization.mean > 0.0 && s.utilization.mean <= util_max,
        || {
            format!(
                "{name}: utilisation {} outside (0, {util_max}]",
                s.utilization.mean
            )
        },
    )?;
    let sum: f64 = s.flow_throughput.iter().map(|f| f.mean).sum();
    ensure(
        (sum - s.total_throughput.mean).abs() <= 1e-9 * s.total_throughput.mean.max(1.0),
        || {
            format!(
                "{name}: flow throughputs sum to {sum}, total {}",
                s.total_throughput.mean
            )
        },
    )
}

/// Finite-flow sweep cell: flows are conserved, an RTO policy leaves no
/// final drops, and on deterministic service no flow beats its ideal
/// completion time (slowdown ≥ 1).
pub fn churn_cell(cell: &CellReport, replications: usize, rto_retries: u32) -> Check {
    let name = &cell.name;
    ensure(cell.stats.replications == replications, || {
        format!(
            "{name}: {} replications, expected {replications}",
            cell.stats.replications
        )
    })?;
    let Some(w) = &cell.stats.workload else {
        return Err(format!("{name}: no workload statistics"));
    };
    ensure(
        w.arrived.mean > 0.0 && w.completed.mean <= w.arrived.mean,
        || {
            format!(
                "{name}: completed {} of {} arrived flows",
                w.completed.mean, w.arrived.mean
            )
        },
    )?;
    ensure(rto_retries == 0 || w.packets_dropped.mean == 0.0, || {
        format!(
            "{name}: {} final drops under an RTO policy",
            w.packets_dropped.mean
        )
    })?;
    ensure(
        w.slowdown_mean.mean >= 1.0 - SLOWDOWN_EPS && w.slowdown_p99.mean >= 1.0 - SLOWDOWN_EPS,
        || {
            format!(
                "{name}: slowdown mean {} / p99 {} below 1 on deterministic service",
                w.slowdown_mean.mean, w.slowdown_p99.mean
            )
        },
    )?;
    ensure(
        w.fct_p50.mean <= w.fct_p99.mean && w.goodput.mean > 0.0,
        || {
            format!(
                "{name}: FCT p50 {} > p99 {} or no goodput",
                w.fct_p50.mean, w.fct_p99.mean
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::{SweepBench, SweepKind};

    #[test]
    fn fp_check_trips_on_mass_drift_and_negative_density() {
        assert!(fp_snapshot(1.0, 1.0, 1.0 + 1e-13, 0.0).is_ok());
        assert!(fp_snapshot(1.0, 1.0, 1.0 + 1e-6, 0.0).is_err());
        assert!(fp_snapshot(1.0, 1.0, 1.0, -1e-6).is_err());
    }

    #[test]
    fn mc_check_trips_on_each_corruption() {
        let q = vec![1.0, 2.0, 3.0];
        let nu = vec![-1.0, 0.0, 1.0];
        assert!(mc_snapshot(1.0, &q, &nu, 5.0, 3, 0.01).is_ok());
        let mut bad_q = q.clone();
        bad_q[1] = -0.5;
        assert!(mc_snapshot(1.0, &bad_q, &nu, 5.0, 3, 0.01).is_err());
        let mut bad_nu = nu.clone();
        bad_nu[0] = -5.5;
        assert!(mc_snapshot(1.0, &q, &bad_nu, 5.0, 3, 0.01).is_err());
        assert!(mc_snapshot(1.0, &q[..2], &nu[..2], 5.0, 3, 0.01).is_err());
        assert!(mc_snapshot(1.0, &q, &nu, 5.0, 3, KS_MAX * 2.0).is_err());
    }

    /// A tiny real sweep of each kind, so the corrupted cells start from
    /// genuine output.
    fn small_report(kind: SweepKind) -> (SweepBench, Vec<CellReport>) {
        let bench = SweepBench::small(kind, 7);
        let report = bench.run_plain(1).expect("small sweep runs");
        (bench, report.cells)
    }

    #[test]
    fn static_check_trips_on_each_corruption() {
        let (bench, cells) = small_report(SweepKind::DesStatic);
        let r = bench.replications();
        let served = bench.served_per_run();
        for cell in &cells {
            static_cell(cell, r, served).expect("genuine cell passes");
        }
        let mut c = cells[0].clone();
        c.stats.total_dropped.mean = 1.0;
        assert!(static_cell(&c, r, served).is_err());
        let mut c = cells[0].clone();
        c.stats.utilization.mean = 1.5;
        assert!(static_cell(&c, r, served).is_err());
        let mut c = cells[0].clone();
        c.stats.flow_throughput[0].mean += 1.0;
        assert!(static_cell(&c, r, served).is_err());
        assert!(static_cell(&cells[0], r + 1, served).is_err());
    }

    #[test]
    fn churn_check_trips_on_each_corruption() {
        let (bench, cells) = small_report(SweepKind::FlowChurn);
        let r = bench.replications();
        for cell in &cells {
            churn_cell(cell, r, bench.rto_retries(cell)).expect("genuine cell passes");
        }
        let rto_cell = cells
            .iter()
            .find(|c| bench.rto_retries(c) > 0)
            .expect("grid has an RTO arm");
        let retries = bench.rto_retries(rto_cell);
        let corrupt = |f: &dyn Fn(&mut fpk_scenarios::WorkloadEnsemble)| {
            let mut c = rto_cell.clone();
            f(c.stats.workload.as_mut().expect("workload cell"));
            churn_cell(&c, r, retries)
        };
        assert!(corrupt(&|w| w.completed.mean = w.arrived.mean + 1.0).is_err());
        assert!(corrupt(&|w| w.packets_dropped.mean = 1.0).is_err());
        assert!(corrupt(&|w| w.slowdown_mean.mean = 0.9).is_err());
        assert!(corrupt(&|w| w.fct_p50.mean = w.fct_p99.mean + 1.0).is_err());
        let mut c = rto_cell.clone();
        c.stats.workload = None;
        assert!(churn_cell(&c, r, retries).is_err());
    }
}
