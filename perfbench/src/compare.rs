//! `perfbench compare <old.json> <new.json>`: pair two result files of
//! the same workload and seed, print each metric's ratio, and report
//! changed work counts. Results from different hosts are refused.
//!
//! Exit codes: 0 same work, 1 changed work, 2 refused or unreadable.

use serde::Value;
use std::process::ExitCode;

/// The field at `path` of a JSON object tree.
pub fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

pub fn text<'a>(v: &'a Value, path: &[&str]) -> Option<&'a str> {
    match field(v, path)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn num(v: &Value, path: &[&str]) -> Option<f64> {
    field(v, path)?.as_f64()
}

fn load(path: &str) -> Result<Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&body).map_err(|e| format!("parsing {path}: {e}"))
}

/// Host identity of a result: the stamp fields that describe the machine.
const HOST_FIELDS: [&str; 4] = ["nproc", "cpu_model", "llc", "mem_total_kb"];

fn render(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        Some(v) => v
            .as_f64()
            .map_or_else(|| format!("{v:?}"), |x| x.to_string()),
        None => "missing".into(),
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        eprintln!("usage: perfbench compare <old.json> <new.json>");
        return ExitCode::from(2);
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    for key in HOST_FIELDS {
        let (a, b) = (
            render(field(&old, &["stamp", key])),
            render(field(&new, &["stamp", key])),
        );
        if a != b {
            eprintln!(
                "perfbench compare: refusing to pair results from different hosts \
                 ({key}: {a:?} vs {b:?})"
            );
            return ExitCode::from(2);
        }
    }
    for key in ["workload", "seed", "trace"] {
        let (a, b) = (render(old.get(key)), render(new.get(key)));
        if a != b {
            eprintln!("perfbench compare: results differ in {key} ({a} vs {b})");
            return ExitCode::from(2);
        }
    }
    for side in [("old", &old), ("new", &new)] {
        println!(
            "{}: commit {} rustc {}",
            side.0,
            render(field(side.1, &["stamp", "git_commit"])),
            render(field(side.1, &["stamp", "rustc"]))
        );
    }
    println!(
        "{:<28} {:>14} {:>14} {:>8}",
        "metric", "old", "new", "new/old"
    );
    if let Some(Value::Object(metrics)) = old.get("metrics") {
        for (name, m) in metrics {
            let a = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let b = num(&new, &["metrics", name, "value"]).unwrap_or(f64::NAN);
            let unit = render(m.get("unit"));
            println!("{name:<28} {a:>14.6} {b:>14.6} {:>8.3} {unit}", b / a);
        }
    }
    let mut changed = false;
    if let Some(Value::Object(counts)) = old.get("counts") {
        for (name, c) in counts {
            let (a, b) = (c.as_f64(), num(&new, &["counts", name]));
            if a != b {
                changed = true;
                println!(
                    "changed work: {name} {} -> {}",
                    render(Some(c)),
                    render(field(&new, &["counts", name]))
                );
            }
        }
    }
    if changed {
        println!("work counts differ: the two runs did different work");
        ExitCode::from(1)
    } else {
        println!("work counts identical");
        ExitCode::SUCCESS
    }
}
