//! Figure 2: characteristics and their directions in the (q, ν) plane.
//!
//! Regenerates the quadrant analysis of Section 5: the drift vector at a
//! lattice of phase points, its quadrant, and a machine check that every
//! arrow obeys the paper's sign table (Q-drift = sign of ν; ν-drift = +C0
//! below the target, −C1·λ above).

use crate::{fmt, print_table, write_json};
use fpk_congestion::LinearExp;
use fpk_fluid::phase::{check_figure2_signs, direction_field, Quadrant};
use serde::Serialize;

#[derive(Serialize)]
struct Fig2 {
    arrows: Vec<(f64, f64, f64, f64, String)>,
    sign_pattern_holds: bool,
}

/// Runs the experiment: prints its tables and writes `results/<name>.json`.
pub fn run(name: &str) {
    let mu = 5.0;
    let law = LinearExp::new(1.0, 0.5, 10.0);
    let arrows = direction_field(&law, mu, 20.0, -4.0, 4.0, 8, 8);
    let ok = check_figure2_signs(&law, mu, &arrows);

    let rows: Vec<Vec<String>> = arrows
        .iter()
        .step_by(4)
        .map(|a| {
            vec![
                fmt(a.q, 2),
                fmt(a.nu, 2),
                fmt(a.dq, 2),
                fmt(a.dnu, 2),
                format!("{:?}", a.quadrant),
            ]
        })
        .collect();
    print_table(
        "Figure 2 — direction field of the characteristics (Eq. 16)",
        &["q", "nu", "dq/dt", "dnu/dt", "quadrant"],
        &rows,
    );

    let count = |q: Quadrant| arrows.iter().filter(|a| a.quadrant == q).count();
    println!(
        "\nQuadrant populations: I = {}, II = {}, III = {}, IV = {}",
        count(Quadrant::I),
        count(Quadrant::II),
        count(Quadrant::III),
        count(Quadrant::IV)
    );
    println!("Paper sign table holds for every arrow: {ok}");
    assert!(ok, "Figure 2 sign pattern must hold");

    write_json(
        name,
        &Fig2 {
            arrows: arrows
                .iter()
                .map(|a| (a.q, a.nu, a.dq, a.dnu, format!("{:?}", a.quadrant)))
                .collect(),
            sign_pattern_holds: ok,
        },
    );
}
