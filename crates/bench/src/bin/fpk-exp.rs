//! `fpk-exp` — run the paper's experiments by name.
//!
//! ```text
//! fpk-exp <name>   run one experiment, writing results/<name>.json
//! fpk-exp all      run every experiment, in `fpk-exp list` order
//! fpk-exp list     print each experiment's name, paper section and claim
//! ```
//!
//! An unknown name exits non-zero with a message listing the valid
//! names.

use fpk_bench::exp::{find, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        eprintln!("usage: fpk-exp <name|all|list>");
        return ExitCode::from(2);
    };
    match arg.as_str() {
        "list" => {
            for e in EXPERIMENTS {
                println!("{:<27} {:<10} {}", e.name, e.section, e.claim);
            }
        }
        "all" => EXPERIMENTS.iter().for_each(|e| e.run()),
        name => match find(name) {
            Ok(e) => e.run(),
            Err(msg) => {
                eprintln!("fpk-exp: {msg}");
                return ExitCode::FAILURE;
            }
        },
    }
    ExitCode::SUCCESS
}
