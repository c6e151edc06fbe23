//! The shared `results/<name>.json` artifact writer — and, for the
//! sharded stress tier, the reader that merges partial sweep reports
//! back together.
//!
//! Every experiment binary and sweep report funnels through this one
//! implementation so artifact location and formatting stay uniform
//! (`fpk_bench::write_json` delegates here). Shard artifacts carry the
//! shard geometry in the *file name* (`<name>.shard<i>of<n>.json`),
//! never in the JSON body, so a shard report's schema is byte-identical
//! to an unsharded report's. The vendored `serde_json` writes floats in
//! shortest-roundtrip form, so load → merge → re-serialise reproduces
//! an unsharded report byte for byte.
//!
//! Both directions stream: [`write_json`] serialises straight into a
//! buffered temporary file that is renamed into place when complete,
//! and [`load_sweep_report`] decodes the file's bytes straight into a
//! [`SweepReport`] through the `Deserialize` derived on the report
//! types, so no JSON text or `serde::Value` tree of a whole report is
//! held in memory, and the checkpoint schema is the struct definitions
//! and nothing else. Fields added after checkpoints were first written
//! are `Option`s or carry `#[serde(default)]`, so older shards keep
//! loading.

use crate::exec::{Shard, SweepReport};
use fpk_numerics::Result;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Where JSON artifacts are written: the `FPK_RESULTS_DIR` environment
/// variable when set and non-empty, otherwise `results/` under the
/// current working directory (the workspace root when run via
/// `cargo run`).
///
/// # Panics
/// Panics when the chosen directory cannot be created, naming the
/// attempted path — silently scattering artifacts into the cwd would
/// contradict [`write_json`]'s "fail loudly rather than record
/// nothing" policy.
#[must_use]
pub fn results_dir() -> PathBuf {
    // lint: allow(env-var) — FPK_RESULTS_DIR is a designated config accessor (DESIGN §3h); only the artifact path changes, never the bytes.
    let dir = std::env::var("FPK_RESULTS_DIR")
        .ok()
        .filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from("results"), PathBuf::from);
    if let Err(e) = fs::create_dir_all(&dir) {
        panic!(
            "cannot create results directory {} (FPK_RESULTS_DIR override {}): {e}",
            dir.display(),
            // lint: allow(env-var) — re-read only to name the override in the panic message.
            if std::env::var_os("FPK_RESULTS_DIR").is_some() {
                "active"
            } else {
                "not set"
            }
        );
    }
    dir
}

/// Serialise `value` to `results/<name>.json` (pretty-printed) and
/// return the path written.
///
/// The JSON is streamed through a buffer into `<name>.json.tmp` in the
/// same directory, which is renamed over `<name>.json` once complete:
/// an interrupted write leaves no truncated artifact behind, so a
/// resumed sweep sees a missing shard rather than a corrupt one. A
/// write that fails or panics midway removes its temporary file.
///
/// # Panics
/// Panics when creating, writing, flushing or renaming the file fails,
/// naming the path — an experiment should fail loudly rather than
/// record nothing.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    let dir = results_dir();
    let path = dir.join(format!("{name}.json"));
    let tmp = dir.join(format!("{name}.json.tmp"));
    let file = fs::File::create(&tmp).unwrap_or_else(|e| panic!("creating {}: {e}", tmp.display()));
    let cleanup = RemoveOnDrop(&tmp);
    // 64 KiB: a sweep report is ~1 MB, so the default 8 KiB buffer
    // would cost over a hundred write calls per artifact.
    let mut out = BufWriter::with_capacity(1 << 16, file);
    serde_json::to_writer_pretty(&mut out, value)
        .map_err(|e| e.to_string())
        .and_then(|()| out.flush().map_err(|e| e.to_string()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", tmp.display()));
    drop(out);
    fs::rename(&tmp, &path)
        .unwrap_or_else(|e| panic!("renaming {} to {}: {e}", tmp.display(), path.display()));
    std::mem::forget(cleanup);
    path
}

/// Deletes a half-written temporary artifact when its write unwinds.
struct RemoveOnDrop<'a>(&'a Path);

impl Drop for RemoveOnDrop<'_> {
    fn drop(&mut self) {
        // Best effort: the write's own panic is the error to report.
        let _ = fs::remove_file(self.0);
    }
}

/// Write one shard's partial report to
/// `<results dir>/<name>.shard<i>of<n>.json` and return the path. The
/// body is an ordinary [`SweepReport`]; only the file name records the
/// shard geometry.
pub fn write_sweep_shard(report: &SweepReport, shard: Shard) -> PathBuf {
    write_json(&shard.file_stem(&report.name), report)
}

/// Read a [`SweepReport`] (sharded or not) back from a JSON artifact.
///
/// # Panics
/// Panics when the file cannot be read, is not JSON, or does not decode
/// as a sweep report, naming the path and, for a schema mismatch, the
/// field (e.g. `cells[3].stats.jain.mean`) — resuming from a corrupt
/// checkpoint must fail loudly, not merge garbage.
#[must_use]
pub fn load_sweep_report(path: &Path) -> SweepReport {
    let body = fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    SweepReport::from_json(&body).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

/// Load the `count` shard files of sweep `name` from the results dir
/// (see [`results_dir`]) and merge them into the full report.
///
/// # Errors
/// Propagates [`SweepReport::merge`] validation (metadata drift,
/// missing/duplicate cells).
///
/// # Panics
/// Panics when a shard file is absent or unreadable (the checkpoint is
/// incomplete — rerun the missing shard), naming the path.
pub fn merge_sweep_shards(name: &str, count: usize) -> Result<SweepReport> {
    let dir = results_dir();
    let parts: Vec<SweepReport> = (0..count)
        .map(|i| {
            let shard = Shard { index: i, count };
            load_sweep_report(&dir.join(format!("{}.json", shard.file_stem(name))))
        })
        .collect();
    SweepReport::merge(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleStats, Stat, WorkloadEnsemble};
    use crate::exec::{AxisReport, CellReport};
    use crate::test_env;
    use serde::Value;

    #[test]
    fn writes_and_returns_path_honoring_env_override() {
        let _guard = test_env::lock();
        let _restore = test_env::VarGuard::capture("FPK_RESULTS_DIR");
        #[derive(Serialize)]
        struct Tiny {
            x: u32,
        }
        let path = write_json("scenarios_artifact_selftest", &Tiny { x: 7 });
        assert!(path.exists());
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"x\": 7"));
        let _ = fs::remove_file(path);

        let override_dir = std::env::temp_dir().join("fpk_results_override_selftest");
        std::env::set_var("FPK_RESULTS_DIR", &override_dir);
        let path = write_json("scenarios_artifact_selftest_env", &Tiny { x: 9 });
        std::env::remove_var("FPK_RESULTS_DIR");
        assert_eq!(path.parent(), Some(override_dir.as_path()));
        assert!(path.exists());
        let _ = fs::remove_file(path);
        let _ = fs::remove_dir(override_dir);
    }

    #[test]
    fn interrupted_write_leaves_neither_artifact_nor_temporary_file() {
        let _guard = test_env::lock();
        let _restore = test_env::VarGuard::capture("FPK_RESULTS_DIR");
        /// Streams the start of an array, then fails.
        struct Midway;
        impl Serialize for Midway {
            fn serialize(&self, out: &mut dyn serde::Sink) {
                out.begin_array();
                out.f64(1.0);
                panic!("serialiser fails midway");
            }
        }
        let dir = std::env::temp_dir().join("fpk_atomic_write_selftest");
        let _ = fs::remove_dir_all(&dir);
        std::env::set_var("FPK_RESULTS_DIR", &dir);
        let caught = std::panic::catch_unwind(|| write_json("interrupted", &Midway));
        let written = write_json("complete", &vec![1.0, 2.0]);
        std::env::remove_var("FPK_RESULTS_DIR");
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let body = fs::read_to_string(&written).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(caught.is_err(), "the serialiser's panic propagates");
        assert_eq!(names, ["complete.json"]);
        assert_eq!(body, "[\n  1.0,\n  2.0\n]");
    }

    #[test]
    fn uncreatable_results_dir_panics_with_the_attempted_path() {
        let _guard = test_env::lock();
        let _restore = test_env::VarGuard::capture("FPK_RESULTS_DIR");
        // A path *through a file* cannot be created as a directory.
        let blocker = std::env::temp_dir().join("fpk_results_blocker_selftest");
        fs::write(&blocker, b"not a directory").unwrap();
        let bad_dir = blocker.join("nested");
        std::env::set_var("FPK_RESULTS_DIR", &bad_dir);
        let caught = std::panic::catch_unwind(results_dir);
        std::env::remove_var("FPK_RESULTS_DIR");
        let _ = fs::remove_file(&blocker);
        let msg = caught
            .expect_err("uncreatable directory must panic, not fall back to cwd")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains(&bad_dir.display().to_string()),
            "panic must name the attempted path: {msg}"
        );
    }

    #[test]
    fn sharded_write_load_merge_is_byte_identical_to_unsharded() {
        use crate::exec::{run_sweep_on, run_sweep_shard};
        use crate::scenario::Scenario;
        use crate::sweep::{Axis, Sweep};
        use fpk_congestion::LinearExp;
        use fpk_sim::{Service, SimConfig, SourceSpec};

        let _guard = test_env::lock();
        let _restore = test_env::VarGuard::capture("FPK_RESULTS_DIR");
        let base = Scenario::new(
            "artifact_shard_roundtrip",
            SimConfig {
                mu: 40.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 2.0,
                warmup: 0.5,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 15.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }],
        );
        let sweep = Sweep::new(base, 31)
            .axis(Axis::mu(vec![30.0, 45.0, 60.0]))
            .axis(Axis::flow_count(vec![1.0, 2.0]));
        let whole = run_sweep_on(&sweep, 2, 2).unwrap();

        let dir = std::env::temp_dir().join("fpk_shard_roundtrip_selftest");
        std::env::set_var("FPK_RESULTS_DIR", &dir);
        // Two "processes": each runs its shard and writes its file.
        let mut shard_paths = Vec::new();
        for i in 0..2 {
            let shard = Shard::new(i, 2).unwrap();
            let part = run_sweep_shard(&sweep, 2, shard).unwrap();
            shard_paths.push(write_sweep_shard(&part, shard));
        }
        assert!(shard_paths[0].ends_with("artifact_shard_roundtrip.shard0of2.json"));
        // Resume: read the parts back and merge.
        let merged = merge_sweep_shards("artifact_shard_roundtrip", 2).unwrap();
        std::env::remove_var("FPK_RESULTS_DIR");
        for p in &shard_paths {
            let _ = fs::remove_file(p);
        }
        let _ = fs::remove_dir(&dir);
        // Byte-for-byte: the file round-trip (shortest-roundtrip float
        // formatting) plus the merge must reproduce the unsharded run.
        assert_eq!(
            serde_json::to_string_pretty(&whole).unwrap(),
            serde_json::to_string_pretty(&merged).unwrap()
        );
    }

    /// A two-cell checkpoint whose every `Stat` is non-zero.
    fn checkpoint() -> Value {
        let s = Stat {
            mean: 1.5,
            std_dev: 0.5,
            ci95: 0.25,
            n: 3,
        };
        let stats = EnsembleStats {
            replications: 3,
            jain: s,
            mean_queue: s,
            utilization: s,
            total_throughput: s,
            total_dropped: s,
            flow_throughput: vec![s, s],
            flow_ctl_std: vec![s],
            oscillation_amplitude: Some(s),
            downtime_frac: s,
            recovery_time: s,
            workload: Some(WorkloadEnsemble {
                arrived: s,
                completed: s,
                fct_mean: s,
                fct_p50: s,
                fct_p99: s,
                slowdown_mean: s,
                slowdown_p99: s,
                peak_active: s,
                packets_dropped: s,
                goodput: s,
                retx_overhead: s,
                packets_gave_up: s,
                flows_gave_up: s,
            }),
        };
        let cell = |index| CellReport {
            name: format!("ckpt[mu={index}]"),
            index,
            coords: vec![30.0],
            seed: 11,
            stats: stats.clone(),
        };
        SweepReport {
            name: "ckpt".into(),
            base_seed: 7,
            replications: 3,
            axes: vec![AxisReport {
                name: "mu".into(),
                values: vec![30.0, 45.0],
            }],
            cells: vec![cell(0), cell(1)],
        }
        .to_value()
    }

    fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        let Value::Object(fields) = v else {
            panic!("not an object")
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    fn cell_stats(v: &mut Value, index: usize) -> &mut Value {
        let Value::Array(cells) = member(v, "cells") else {
            panic!("cells is not an array")
        };
        member(&mut cells[index], "stats")
    }

    /// Drop `keys` from every object at or below `v`.
    fn strip(v: &mut Value, keys: &[&str]) {
        match v {
            Value::Object(fields) => {
                fields.retain(|(k, _)| !keys.contains(&k.as_str()));
                fields.iter_mut().for_each(|(_, x)| strip(x, keys));
            }
            Value::Array(items) => items.iter_mut().for_each(|x| strip(x, keys)),
            _ => {}
        }
    }

    /// Write `v` to a scratch file named `file` and load it back.
    fn load_value(file: &str, v: &Value) -> std::thread::Result<SweepReport> {
        let path = std::env::temp_dir().join(file);
        fs::write(&path, serde_json::to_string(v).unwrap()).unwrap();
        let loaded = std::panic::catch_unwind(|| load_sweep_report(&path));
        let _ = fs::remove_file(&path);
        loaded
    }

    fn panic_message(caught: std::thread::Result<SweepReport>) -> String {
        caught
            .expect_err("a corrupt checkpoint must panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn checkpoints_predating_later_fields_load_with_defaults() {
        let zero = serde_json::to_string(&Stat::default()).unwrap();
        let mut v = checkpoint();
        // Cell 0 predates workloads, faults and RTOs; cell 1 has a
        // workload but predates faults and RTOs.
        strip(cell_stats(&mut v, 0), &["workload"]);
        strip(
            &mut v,
            &[
                "downtime_frac",
                "recovery_time",
                "packets_dropped",
                "goodput",
                "retx_overhead",
                "packets_gave_up",
                "flows_gave_up",
            ],
        );
        let report = load_value("fpk_old_checkpoint_selftest.json", &v).unwrap();
        let (old, newer) = (&report.cells[0].stats, &report.cells[1].stats);
        assert!(old.workload.is_none());
        let wl = newer.workload.as_ref().expect("cell 1 keeps its workload");
        assert_eq!(wl.arrived.mean, 1.5);
        for s in [
            old.downtime_frac,
            old.recovery_time,
            newer.downtime_frac,
            wl.packets_dropped,
            wl.goodput,
            wl.retx_overhead,
            wl.packets_gave_up,
            wl.flows_gave_up,
        ] {
            assert_eq!(serde_json::to_string(&s).unwrap(), zero);
        }
        assert_eq!(old.jain.n, 3);
    }

    #[test]
    fn load_rejects_corrupt_checkpoints_loudly() {
        let _guard = test_env::lock();
        let path = std::env::temp_dir().join("fpk_corrupt_checkpoint_selftest.json");
        fs::write(&path, b"{\"name\": \"x\", \"truncated\": ").unwrap();
        let caught = std::panic::catch_unwind(|| load_sweep_report(&path));
        let _ = fs::remove_file(&path);
        let msg = panic_message(caught);
        assert!(
            msg.contains("fpk_corrupt_checkpoint_selftest.json"),
            "panic must name the file: {msg}"
        );

        // Well-formed JSON of the wrong shape names the full field path.
        let mut v = checkpoint();
        *member(member(cell_stats(&mut v, 1), "jain"), "mean") = Value::Str("oops".into());
        let msg = panic_message(load_value("fpk_mistyped_checkpoint_selftest.json", &v));
        assert!(
            msg.contains("fpk_mistyped_checkpoint_selftest.json")
                && msg.contains("cells[1].stats.jain.mean: expected a number"),
            "panic must name the file and the field path: {msg}"
        );

        let mut v = checkpoint();
        strip(&mut v, &["base_seed"]);
        let msg = panic_message(load_value("fpk_seedless_checkpoint_selftest.json", &v));
        assert!(
            msg.contains("fpk_seedless_checkpoint_selftest.json")
                && msg.contains("base_seed: missing field"),
            "panic must name the file and the missing field: {msg}"
        );
    }
}
