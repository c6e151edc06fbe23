//! Theorem 1 in detail: why linear-increase/exponential-decrease is
//! stable without feedback delay — and why linear decrease is not.
//!
//! Prints (a) the analytic return-map iteration with its contraction
//! factors, (b) the numeric spiral section rates for cross-validation,
//! and (c) the same analysis for the linear/linear law, whose orbit is
//! exactly closed (oscillation without delay).
//!
//! Run with: `cargo run --release --example jrj_stability`

use fpk_repro::congestion::theory::{linear_linear_cycle, ReturnMap};
use fpk_repro::congestion::{LinearExp, LinearLinear};
use fpk_repro::fluid::phase::{direction_field, spiral_section_rates};
use fpk_repro::fluid::theorem1;
use fpk_repro::fluid::FluidParams;

fn main() {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);

    println!("=== The (q, nu) direction field (Figure 2) ===");
    let arrows = direction_field(&law, mu, 20.0, -4.0, 4.0, 4, 4);
    for a in arrows.iter().step_by(3) {
        println!(
            "  at (q = {:>5.2}, nu = {:>5.2})  drift = ({:>5.2}, {:>6.2})  quadrant {:?}",
            a.q, a.nu, a.dq, a.dnu, a.quadrant
        );
    }
    println!();

    println!("=== Analytic return map on the section {{q = q̂, lambda < mu}} ===");
    let map = ReturnMap::new(law, mu).expect("return map");
    let rates = map.iterate(0.5, 12).expect("iterate");
    println!("  revolution   lambda     defect (mu - lambda)   contraction");
    for (k, w) in rates.windows(2).enumerate() {
        println!(
            "  {:>10}   {:>7.4}   {:>20.6}   {:>10.4}",
            k,
            w[0],
            mu - w[0],
            (mu - w[1]) / (mu - w[0])
        );
    }
    println!("  ... the contraction factor approaches 1 - (2/3)(mu - lambda)/mu: the");
    println!("  defect decays harmonically (~3mu/2n) — convergence 'in the limit'.");
    println!();

    println!("=== Numeric cross-check (integrated characteristics) ===");
    let params = FluidParams {
        mu,
        q0: law.q_hat,
        lambda0: vec![0.5],
        t_end: 120.0,
        dt: 2e-4,
    };
    let numeric = spiral_section_rates(&law, &params).expect("trace");
    println!(
        "  upward-crossing rates: {:?}",
        numeric
            .iter()
            .take(6)
            .map(|r| (r * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let report = theorem1::verify(law, mu, 0.5, 8, 5e-4).expect("verification");
    println!("  {}", report.verdict());
    println!();

    println!("=== Linear decrease: oscillation WITHOUT delay ===");
    let ll = LinearLinear::new(1.0, 1.0, 10.0);
    let (lambda_back, period) = linear_linear_cycle(&ll, mu, 4.0).expect("closed orbit");
    println!("  starting the linear/linear law at lambda = 4.0 returns to lambda = {lambda_back}");
    println!("  after exactly one period T = {period:.3}: the orbit is CLOSED —");
    println!("  this algorithm oscillates even with instantaneous feedback,");
    println!("  while the exponential decrease of JRJ contracts every cycle.");
}
