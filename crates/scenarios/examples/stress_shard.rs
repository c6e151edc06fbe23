//! Stress-tier smoke: run a sweep as shards, checkpoint each shard to
//! disk, resume by merging the checkpoints, and verify the merge is
//! byte-identical to an unsharded run of the same sweep.
//!
//! Each shard runs and writes independently (`<name>.shard<i>of<n>.json`
//! under the results dir — set `FPK_RESULTS_DIR` to redirect), exactly
//! as `n` separate processes would; the merge step then only reads the
//! checkpoint files. CI runs this twice with different `FPK_THREADS`
//! and diffs the two results directories: every byte of every artifact
//! must be independent of worker count and shard order.
//!
//! ```text
//! FPK_RESULTS_DIR=/tmp/a FPK_THREADS=1 cargo run --example stress_shard
//! FPK_RESULTS_DIR=/tmp/b FPK_THREADS=3 cargo run --example stress_shard
//! diff -r /tmp/a /tmp/b
//! ```

use fpk_congestion::LinearExp;
use fpk_scenarios::{
    merge_sweep_shards, run_sweep, run_sweep_shard, write_sweep_shard, Axis, Scenario, Shard, Sweep,
};
use fpk_sim::{Service, SimConfig, SourceSpec};

const SHARDS: usize = 3;
const REPLICATIONS: usize = 2;

fn main() {
    let base = Scenario::new(
        "stress_shard_smoke",
        SimConfig {
            mu: 60.0,
            service: Service::Exponential,
            buffer: None,
            t_end: 2.0,
            warmup: 0.25,
            sample_interval: 0.1,
            seed: 0,
        },
        vec![SourceSpec::Rate {
            law: LinearExp::new(8.0, 0.5, 10.0),
            lambda0: 18.0,
            update_interval: 0.1,
            prop_delay: 0.01,
            poisson: true,
        }],
    );
    let sweep = Sweep::new(base, 4242)
        .axis(Axis::mu(vec![40.0, 60.0, 80.0, 100.0]))
        .axis(Axis::label_only("k", (0..30).map(|i| i as f64).collect()));

    // Phase 1: each shard runs and checkpoints as its own "process".
    for i in 0..SHARDS {
        let shard = Shard::new(i, SHARDS).expect("valid shard");
        let part = run_sweep_shard(&sweep, REPLICATIONS, shard).expect("shard sweep");
        let path = write_sweep_shard(&part, shard);
        println!(
            "shard {i}/{SHARDS}: {} cells -> {}",
            part.cells.len(),
            path.display()
        );
    }

    // Phase 2: resume from the checkpoints alone.
    let merged = merge_sweep_shards("stress_shard_smoke", SHARDS).expect("merge shards");
    let merged_path = merged.write();

    // Cross-check: the merged checkpoint run equals one unsharded run.
    let whole = run_sweep(&sweep, REPLICATIONS).expect("unsharded sweep");
    assert_eq!(
        serde_json::to_string_pretty(&whole).expect("serialise"),
        serde_json::to_string_pretty(&merged).expect("serialise"),
        "sharded + merged must be byte-identical to unsharded"
    );
    println!(
        "merged {} cells -> {} (byte-identical to unsharded run)",
        merged.cells.len(),
        merged_path.display()
    );
}
