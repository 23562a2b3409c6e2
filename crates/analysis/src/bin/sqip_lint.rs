//! `sqip-lint` — run the workspace determinism & robustness pass.
//!
//! ```text
//! # The workspace the binary was built from, wherever it runs:
//! cargo run -p sqip-analysis --bin sqip-lint
//!
//! # Another checkout of the workspace:
//! sqip-lint --root /path/to/repo
//!
//! # The catalogue, with each rule's paths and exemptions:
//! sqip-lint --list-rules
//! ```
//!
//! Exits 0 when no error-severity findings remain, 1 on findings, 2 on
//! usage or I/O errors. Warnings are reported but do not fail the run.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sqip_analysis::{engine, rules, workspace_root};

fn usage() -> ExitCode {
    eprintln!("usage: sqip-lint [--root PATH] [--quiet] [--list-rules]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage(),
            },
            "--quiet" | "-q" => quiet = true,
            "--list-rules" => {
                for rule in rules::all() {
                    println!("{:<22} {}", rule.name, rule.summary);
                    println!("{:<22} paths: {}", "", rule.paths.join(", "));
                    for (path, reason) in rule.exempt {
                        println!("{:<22} exempt: {path}: {reason}", "");
                    }
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown flag `{other}`");
                return usage();
            }
        }
    }

    let root = root.unwrap_or_else(|| workspace_root().to_path_buf());
    let report = match engine::run(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };

    if !quiet {
        for finding in &report.findings {
            println!("{finding}");
        }
    }
    let errors = report.errors();
    println!(
        "sqip-lint: {} files checked, {} error{}, {} warning{}, {} suppression{} honoured",
        report.files,
        errors,
        plural(errors),
        report.warnings(),
        plural(report.warnings()),
        report.suppressed,
        plural(report.suppressed),
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
