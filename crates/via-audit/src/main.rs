//! CLI entry point: `cargo run -p via-audit [-- --root <dir>] [--format json|text]`.
//!
//! Walks `<root>/crates`, runs every registered lint pass, prints every
//! finding (one line each in text mode, one document in JSON mode for CI
//! artifact upload), and exits non-zero when there is any: a lint is deny
//! or it does not exist.

use std::path::PathBuf;
use std::process::ExitCode;

use via_audit::report;

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = Format::Text;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("--root requires a directory argument");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--format" => {
                format = match args.next().as_deref() {
                    Some("json") => Format::Json,
                    Some("text") => Format::Text,
                    other => {
                        eprintln!(
                            "--format requires `json` or `text`, got {}",
                            other.unwrap_or("nothing")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            other => {
                eprintln!(
                    "unknown argument `{other}`; usage: via-audit [--root <dir>] [--format json|text]"
                );
                return ExitCode::from(2);
            }
        }
    }

    // When invoked via `cargo run` from a crate directory, walk up to the
    // workspace root (the directory containing `crates/`).
    if !root.join("crates").is_dir() {
        if let Ok(mut cur) = std::env::current_dir() {
            while !cur.join("crates").is_dir() {
                if !cur.pop() {
                    break;
                }
            }
            if cur.join("crates").is_dir() {
                root = cur;
            }
        }
    }

    let findings = match via_audit::audit_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "via-audit: failed to walk workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    match format {
        Format::Json => print!("{}", report::to_json(&findings)),
        Format::Text => {
            for f in &findings {
                println!("{f}");
            }
            println!(
                "via-audit: {} finding{}",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" }
            );
        }
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
