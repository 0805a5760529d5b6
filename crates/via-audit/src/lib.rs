//! Workspace static analysis for the VIA reproduction.
//!
//! The replication's headline property is *determinism*: every figure must
//! regenerate byte-identically from a seed. This tool enforces the coding
//! rules that protect it which no type can see — hash iteration order, RNG
//! stream discipline, float merge order — plus NaN-safety and lock-free hot
//! paths, by walking `crates/*/src` and `crates/*/benches` and running a
//! registry of lint passes over each file. Every lint is deny: a finding
//! fails the audit.
//!
//! | lint | scope |
//! |------|-------|
//! | `nan-cmp` | every crate |
//! | `lock-contention` | hot-path crates (`via-netsim`, `via-core`) and files |
//! | `map-iteration-order` | simulation crates, all code |
//! | `rng-discipline` | simulation crates, non-test code |
//! | `float-accumulation` | simulation crates, non-test code |
//! | `stale-suppression` | everywhere a directive appears |
//!
//! A rule the compiler can resolve by name or type is clippy's, not this
//! tool's:
//! * panic-safety — the workspace lint table denies `clippy::unwrap_used` /
//!   `expect_used` in library code, and the files where bytes or ids enter
//!   the program (the via-trace readers, via-server's `wire.rs` /
//!   `server.rs`, via-testbed's `protocol.rs`) deny
//!   `clippy::indexing_slicing`;
//! * the clock rule — `crates/clippy.toml` disallows `Instant::now` and
//!   `SystemTime::now` outside the `via_obs::Stopwatch` facade;
//! * the socket rule — via-testbed's and via-server's `clippy.toml` disallow
//!   blocking `connect` / `accept`, the deadline-free `read_frame` and the
//!   socket timeout setters;
//! * the cast rule — via-core, via-netsim, via-server, via-testbed and the
//!   per-record files of via-trace and via-media deny
//!   `clippy::cast_possible_truncation` outside tests.
//!
//! Each file is lexed once ([`token`]) into a spanned token stream, comment
//! list, and code-only rendered lines; a per-file symbol table ([`symbols`])
//! classifies hash-container / RNG / `f64` bindings; then every applicable
//! pass in the [`passes::REGISTRY`] runs. The first two lints are
//! line-based ([`lints`]); the next three are token-aware ([`semantic`]).
//!
//! Suppression is applied centrally *after* the passes ([`suppress`]):
//! `// via-audit: allow(lint-name)` with a justification silences findings
//! on its own or the next line, and every directive is audited — an allow
//! that suppresses nothing, names an unknown lint, or carries no
//! justification is itself a `stale-suppression` finding, so the
//! exception surface can only shrink.
//!
//! The `compat/` stand-in crates are not audited: they mirror external
//! crates' APIs and are exercised by their own unit tests instead.

pub mod lints;
pub mod passes;
pub mod regions;
pub mod report;
pub mod semantic;
pub mod suppress;
pub mod symbols;
pub mod token;

use std::path::{Path, PathBuf};

use lints::{FileKind, Finding};

/// Crates whose code must stay deterministic: everything the seeded
/// simulation pipeline runs through.
pub const SIM_CRATES: &[&str] = &[
    "via-core",
    "via-netsim",
    "via-trace",
    "via-media",
    "via-quality",
    "via-model",
    // The observability layer's deterministic core is merged into replay
    // results, so it is held to the same rules.
    "via-obs",
];

/// Crates exempt from the simulation lints, with the reason:
/// * `via-experiments` — fail-fast experiment drivers; a panic is the
///   correct response to a broken environment.
/// * `via-audit` — this tool.
pub const EXEMPT_CRATES: &[&str] = &["via-experiments", "via-audit"];

/// Crates on the parallel-replay hot path, where a whole-map `Mutex` is a
/// scaling regression (`lock-contention` lint): the world model every shard
/// reads and the decision loop itself.
pub const HOT_PATH_CRATES: &[&str] = &["via-netsim", "via-core"];

/// Individual files held to the hot-path lints inside crates that are
/// otherwise not hot-path as a whole. via-trace is mostly offline
/// generation/analysis code, but the record sources and window framer
/// (`stream.rs`) and the binary trace codec (`binfmt.rs`) run inside the
/// streamed replay's prefetch loop — per-record cost there multiplies by
/// hundreds of millions of calls, the same economics as via-core's shard
/// loop. Likewise via-media is mostly offline packet simulation, but the
/// receiver-side multipath merge model (`merge.rs`) runs once per
/// multipath call inside the shard loop. Paths are relative to the crate
/// root.
pub const HOT_PATH_FILES: &[(&str, &str)] = &[
    ("via-trace", "src/stream.rs"),
    ("via-trace", "src/binfmt.rs"),
    ("via-media", "src/merge.rs"),
];

/// Audits one file's source text: lex, analyze, run every applicable
/// registered pass, then apply (and audit) suppressions.
pub fn audit_source(display_path: &str, src: &str, kind: FileKind) -> Vec<Finding> {
    let lexed = token::lex(src);
    let symbols = symbols::collect(&lexed.tokens);
    let test_mask = regions::test_regions(&lexed.lines);
    let directives = suppress::collect(&lexed.comments);
    let ctx = passes::FileCtx {
        file: display_path,
        kind,
        tokens: &lexed.tokens,
        lines: &lexed.lines,
        symbols: &symbols,
        test_mask: &test_mask,
        directives: &directives,
    };
    let out = passes::run_passes(&ctx);
    let known = passes::known_lints();
    let mut findings = suppress::apply(
        display_path,
        out.findings,
        &directives,
        &known,
        &out.marker_uses,
    );
    findings.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    findings
}

/// Collects `.rs` files under `dir` recursively, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Audits every crate under `<root>/crates`, returning all findings sorted
/// by file and line.
///
/// # Errors
/// Returns an I/O error when the workspace layout cannot be read.
pub fn audit_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut findings = Vec::new();
    for crate_dir in crate_dirs {
        let Some(crate_name) = crate_dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let sim_crate = SIM_CRATES.contains(&crate_name);
        let hot_path = HOT_PATH_CRATES.contains(&crate_name);
        let mut files = Vec::new();
        // `src` plus bench targets: sim-crate bench code is held to the
        // same determinism lints.
        for sub in ["src", "benches"] {
            let dir = crate_dir.join(sub);
            if dir.is_dir() {
                rust_files(&dir, &mut files)?;
            }
        }
        if files.is_empty() {
            continue;
        }
        for file in files {
            let src = std::fs::read_to_string(&file)?;
            let display = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            let rel = file.strip_prefix(&crate_dir).unwrap_or(&file);
            let hot_file = HOT_PATH_FILES
                .iter()
                .any(|&(c, p)| c == crate_name && rel == Path::new(p));
            let kind = FileKind {
                sim_crate,
                hot_path: hot_path || hot_file,
            };
            findings.extend(audit_source(&display, &src, kind));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_and_exempt_lists_are_disjoint() {
        for c in SIM_CRATES {
            assert!(!EXEMPT_CRATES.contains(c));
        }
        for c in HOT_PATH_CRATES {
            assert!(SIM_CRATES.contains(c), "hot-path crates are sim crates");
        }
        for (c, p) in HOT_PATH_FILES {
            assert!(SIM_CRATES.contains(c), "hot-path files live in sim crates");
            assert!(
                !HOT_PATH_CRATES.contains(c),
                "a file-level hot-path entry in an already-hot crate is redundant"
            );
            assert!(p.ends_with(".rs"), "hot-path file entries are .rs paths");
        }
    }

    #[test]
    fn audit_source_combines_all_lints() {
        let src = "struct C { m: Mutex<HashMap<u32, u32>> }\nfn f(ys: &mut [f64]) {\n    ys.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
        let kind = FileKind {
            sim_crate: true,
            hot_path: true,
        };
        let f = audit_source("x.rs", src, kind);
        let denies: Vec<&str> = f.iter().map(|x| x.lint).collect();
        assert!(denies.contains(&lints::LINT_NAN));
        assert!(denies.contains(&lints::LINT_CONTENTION));
    }

    #[test]
    fn audit_source_runs_the_semantic_passes() {
        let src = "fn f() {\n\
                   let m: HashMap<u32, u64> = HashMap::new();\n\
                   let total: u64 = m.values().sum();\n\
                   }\n";
        let kind = FileKind {
            sim_crate: true,
            hot_path: true,
        };
        let f = audit_source("x.rs", src, kind);
        let denies: Vec<&str> = f.iter().map(|x| x.lint).collect();
        assert!(denies.contains(&semantic::LINT_MAP_ORDER), "{f:?}");
    }

    #[test]
    fn stale_allow_is_a_deny_finding() {
        let src = "// the violation below was fixed long ago. via-audit: allow(nan-cmp)\nfn ok() -> u32 { 1 }\n";
        let kind = FileKind {
            sim_crate: true,
            hot_path: false,
        };
        let f = audit_source("x.rs", src, kind);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, suppress::LINT_STALE);
    }

    #[test]
    fn non_sim_crates_only_get_the_nan_lint() {
        let src = "fn f() -> StdRng { StdRng::seed_from_u64(42) }\n";
        let kind = FileKind {
            sim_crate: false,
            hot_path: false,
        };
        assert!(audit_source("x.rs", src, kind).is_empty());
    }

    /// Seeded-violation harness: writes a fake workspace with one injected
    /// violation into a temp dir and checks the walker finds it — the same
    /// path the CI `cargo run -p via-audit` check exercises on the real
    /// tree.
    #[test]
    fn seeded_violation_in_fake_workspace_is_found() {
        let root = std::env::temp_dir().join("via-audit-seeded-test");
        let src_dir = root.join("crates/via-core/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("bad.rs"),
            "pub fn f() -> StdRng { StdRng::seed_from_u64(42) }\n",
        )
        .unwrap();
        let findings = audit_workspace(&root).unwrap();
        assert!(
            findings.iter().any(|f| f.lint == semantic::LINT_RNG),
            "injected constant seed must be caught: {findings:?}"
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
