//! The experiment registry: one module per figure/table of the paper,
//! each run by name through the `fpk-exp` binary.
//!
//! An experiment's name is written once, in the `experiments!` list
//! below. It names the module (`src/exp/<name>.rs`), the `fpk-exp`
//! argument, the `fpk-exp list` line and the `results/<name>.json`
//! artefact: [`Experiment::run`] passes it to the module's `run`, which
//! hands it to [`crate::write_json`].

/// One reproducible experiment: its name, where its claim sits in the
/// paper, the claim, and the code that checks it.
#[derive(Debug)]
pub struct Experiment {
    /// Module name, `fpk-exp` argument and `results/<name>.json` stem.
    pub name: &'static str,
    /// The paper's figure, table, theorem or section the claim comes
    /// from; `ablation` and `extension` mark experiments beyond it.
    pub section: &'static str,
    /// The claim the experiment reproduces.
    pub claim: &'static str,
    body: fn(&str),
}

impl Experiment {
    /// Runs the experiment: prints its tables and writes
    /// `results/<name>.json`.
    pub fn run(&self) {
        (self.body)(self.name);
    }
}

/// Declares each experiment's module and its [`EXPERIMENTS`] entry from
/// one `name: section, claim;` line.
macro_rules! experiments {
    ($($name:ident: $section:literal, $claim:literal;)*) => {
        $(mod $name;)*

        /// Every experiment, in paper order (the order `fpk-exp all`
        /// runs them).
        pub const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            section: $section,
            claim: $claim,
            body: $name::run,
        }),*];
    };
}

experiments! {
    fig1_queue_trajectory: "Fig. 1",
        "sample path of Q(t) under adaptive control: fluid, Langevin and packet level";
    fig2_characteristics: "Fig. 2",
        "drift directions in the four (q, ν) quadrants";
    fig3_convergent_spiral: "Fig. 3",
        "spiral into the limit point (q̂, μ)";
    tbl1_theorem1: "Thm 1",
        "universal convergence + contraction factors";
    tbl2_fp_vs_mc: "Eq. 14",
        "PDE density ↔ Langevin ensemble agreement";
    fig7_density_evolution: "§4",
        "f(t, q, ν) transport snapshots and mass audit";
    fig4_sigma_spread: "§5",
        "stationary spread vs σ";
    tbl3_fair_share: "§6",
        "equal parameters → equal shares";
    tbl4_hetero_share: "§6",
        "shares ∝ C0/C1, theory vs fluid vs packets";
    fig5_delay_limit_cycle: "§7",
        "limit-cycle amplitude/period vs delay";
    fig6_delay_unfairness: "§7",
        "throughput ratio vs RTT ratio";
    tbl5_algorithm_oscillation: "§7",
        "linear/exp vs linear/linear dichotomy";
    tbl8_amplitude_scaling: "§7 ext.",
        "limit-cycle amplitude and period grow as a power of the delay";
    fig8_hop_count_unfairness: "intro",
        "more hops → a poorer share of a shared hop (after Zhang, Jacobson)";
    tbl11_traffic_variability: "conclusion",
        "FP σ² from the index of dispersion tracks the queue growth with burstiness; fluid predicts 0";
    tbl9_decbit_marking: "extension",
        "instantaneous vs regeneration-cycle-averaged DECbit marking";
    tbl6_ablation_limiter: "ablation",
        "limiter choice vs numerical diffusion";
    tbl7_ablation_grid: "ablation",
        "grid/Δt refinement convergence";
    tbl10_ablation_integrator: "ablation",
        "fixed-step RK4 vs the closed-form arc tracer on the switching system";
    fig_fct_vs_load: "extension",
        "finite-flow FCT/slowdown vs offered load; deterministic-size rows pinned to Pollaczek–Khinchine (DESIGN §3f)";
    fig_marking_compare: "extension",
        "queue disciplines (FIFO/threshold/DECbit-averaged/RED) vs probe p99 FCT behind lax elephants (DESIGN §3g)";
    fig_fault_recovery: "extension",
        "6 RTO retries restore ≥ 90% of lossless goodput under GE bursts that cost no-retry ≥ 30% (DESIGN §3i)";
}

/// The experiment called `name`.
///
/// # Errors
/// An unknown name yields a message that quotes it and lists every
/// valid name.
pub fn find(name: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!(
            "unknown experiment `{name}`; valid names: {}",
            names.join(", ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn every_exp_file_is_registered() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/exp");
        let files: BTreeSet<String> = std::fs::read_dir(dir)
            .expect("read src/exp")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        let registered: BTreeSet<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
        assert_eq!(files, registered);
    }

    #[test]
    fn find_resolves_every_name_and_rejects_an_unknown_one() {
        let err = find("fig99_nonexistent").unwrap_err();
        assert!(err.contains("`fig99_nonexistent`"), "{err}");
        for e in EXPERIMENTS {
            assert_eq!(find(e.name).unwrap().name, e.name);
            assert!(err.contains(e.name), "{err} omits {}", e.name);
        }
    }
}
