//! `fpk-bench` — the experiment harness.
//!
//! One module per figure/table of the paper under [`exp`], each run by
//! name through the `fpk-exp` binary; `DESIGN.md` §7 describes the
//! registry and `EXPERIMENTS.md` records the experiments' seeds. The registry
//! [`exp::EXPERIMENTS`] is the index: `fpk-exp list` prints each
//! experiment's name, paper section and claim.
//!
//! ```console
//! $ cargo run --release -p fpk-bench --bin fpk-exp -- list
//! $ cargo run --release -p fpk-bench --bin fpk-exp -- <name>
//! $ cargo run --release -p fpk-bench --bin fpk-exp -- all
//! ```
//!
//! Every experiment prints a human-readable table to stdout **and**
//! writes a JSON artefact to `results/<name>.json`, so `EXPERIMENTS.md`
//! can be regenerated mechanically.
//!
//! # Example
//!
//! The table/number formatting helpers every experiment shares:
//!
//! ```
//! use fpk_bench::{fmt, print_table};
//! assert_eq!(fmt(2.0 / 3.0, 3), "0.667");
//! print_table("demo", &["n", "err"], &[vec!["8".into(), fmt(0.25, 2)]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use std::path::PathBuf;

pub mod exp;

/// Where JSON artefacts are written (`results/` under the workspace root,
/// or the current directory as a fallback). Delegates to the shared
/// writer in `fpk_scenarios::artifact`.
#[must_use]
pub fn results_dir() -> PathBuf {
    fpk_scenarios::results_dir()
}

/// Serialise an experiment artefact to `results/<name>.json` through the
/// shared `fpk_scenarios` artifact writer.
///
/// # Panics
/// Panics when serialisation or the write fails — an experiment should
/// fail loudly rather than record nothing.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let path = fpk_scenarios::write_json(name, value);
    println!("\n[artefact written to {}]", path.display());
}

/// Print a Markdown-style table: headers then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| (*s).to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Format a float with fixed precision for table cells.
#[must_use]
pub fn fmt(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_precision() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(-0.5, 3), "-0.500");
    }

    #[test]
    fn results_dir_is_writable() {
        let dir = results_dir();
        assert!(dir.exists() || dir == std::path::Path::new("."));
    }

    #[test]
    fn write_and_table_smoke() {
        #[derive(Serialize)]
        struct Tiny {
            x: f64,
        }
        write_json("selftest", &Tiny { x: 1.0 });
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        let p = results_dir().join("selftest.json");
        assert!(p.exists());
        let _ = std::fs::remove_file(p);
    }
}
