//! Core types and the line-based lint passes.
//!
//! * `nan-cmp` — flags `partial_cmp(..).unwrap()`-style float comparisons
//!   anywhere in the workspace, suggesting `f64::total_cmp`.
//! * `lock-contention` — forbids `Mutex<HashMap<..>>` / `Mutex<BTreeMap<..>>`
//!   in the hot-path crates (`via-netsim`, `via-core`): a single map-wide
//!   mutex serializes every reader and flattens parallel-replay scaling (the
//!   exact regression PR 3 removed from `PerfModel`). Use sharded `RwLock`
//!   tables, dense `OnceLock` slots, or per-worker state instead.
//!
//! Passes emit findings unconditionally; suppression (`via-audit:
//! allow(lint-name)` with a justification) is applied centrally by the
//! engine so stale allows are detectable — see [`crate::suppress`].

use std::fmt;

use crate::passes::{FileCtx, PassOutput};

/// NaN-safe comparison lint name.
pub const LINT_NAN: &str = "nan-cmp";
/// Map-wide mutex lint name.
pub const LINT_CONTENTION: &str = "lock-contention";

/// One lint finding; every finding fails the audit.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: &'static str,
    /// Human-readable description with a suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// What kind of code a file holds, for lint applicability.
#[derive(Debug, Clone, Copy)]
pub struct FileKind {
    /// The crate belongs to the deterministic simulation core.
    pub sim_crate: bool,
    /// The crate is on the replay hot path (`via-netsim`, `via-core`), where
    /// shared-lock contention patterns are denied.
    pub hot_path: bool,
}

fn push(ctx: &FileCtx<'_>, out: &mut PassOutput, line: usize, lint: &'static str, message: String) {
    out.findings.push(Finding {
        file: ctx.file.to_string(),
        line,
        lint,
        message,
    });
}

/// Map types that, wrapped in a whole-map `Mutex`, serialize every reader.
const CONTENDED_MAPS: &[&str] = &["Mutex<HashMap", "Mutex<BTreeMap"];

/// The lock-contention pass (hot-path crates only): a `Mutex` around a whole
/// `HashMap`/`BTreeMap` funnels every parallel-replay reader through one
/// lock.
pub fn pass_contention(ctx: &FileCtx<'_>, out: &mut PassOutput) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        // Strip whitespace so `Mutex< HashMap` and split generics match too.
        let packed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        for pat in CONTENDED_MAPS {
            if packed.contains(pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    LINT_CONTENTION,
                    format!(
                        "`{pat}<..>>` serializes all readers on one lock and destroys \
                         parallel-replay scaling; use a sharded `RwLock` table, dense \
                         `OnceLock` slots, or per-worker state"
                    ),
                );
            }
        }
    }
}

/// The NaN-safety pass.
pub fn pass_nan(ctx: &FileCtx<'_>, out: &mut PassOutput) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        // Catch `a.partial_cmp(&b).unwrap()` including the chained-across-
        // newline style: look at this line joined with the next.
        if !line.contains("partial_cmp") {
            continue;
        }
        let joined = match ctx.lines.get(idx + 1) {
            Some(next) => format!("{line}{next}"),
            None => line.clone(),
        };
        if joined.contains(".unwrap()") || joined.contains(".expect(") {
            push(
                ctx,
                out,
                idx + 1,
                LINT_NAN,
                "`partial_cmp(..).unwrap()` panics on NaN; use `f64::total_cmp` \
                 for float ordering"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_all(src: &str, kind: FileKind) -> Vec<Finding> {
        crate::audit_source("test.rs", src, kind)
    }

    const SIM_HOT: FileKind = FileKind {
        sim_crate: true,
        hot_path: true,
    };

    #[test]
    fn nan_unsafe_comparison_is_denied_everywhere() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let f = run_all(
            src,
            FileKind {
                sim_crate: false,
                hot_path: false,
            },
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LINT_NAN);
        assert!(f[0].message.contains("total_cmp"));
    }

    #[test]
    fn total_cmp_is_fine() {
        let src = "xs.sort_by(|a, b| a.total_cmp(b));\nlet o = a.partial_cmp(&b);\n";
        assert!(run_all(
            src,
            FileKind {
                sim_crate: false,
                hot_path: false,
            }
        )
        .is_empty());
    }

    #[test]
    fn mutexed_map_is_denied_on_the_hot_path() {
        for src in [
            "struct S { cache: Mutex<HashMap<Segment, SegState>> }\n",
            "type T = Mutex<BTreeMap<u32, f64>>;\n",
            "let c: Mutex< HashMap<u32, u32> > = Mutex::default();\n",
        ] {
            let f = run_all(src, SIM_HOT);
            assert_eq!(f.len(), 1, "{src:?} → {f:?}");
            assert_eq!(f[0].lint, LINT_CONTENTION);
        }
    }

    #[test]
    fn mutexed_map_is_allowed_off_the_hot_path_or_with_suppression() {
        let src = "struct S { cache: Mutex<HashMap<u32, u32>> }\n";
        let cold = FileKind {
            sim_crate: true,
            hot_path: false,
        };
        assert!(run_all(src, cold).is_empty());
        let suppressed = "// cold config table, touched once. via-audit: allow(lock-contention)\nstruct S { cache: Mutex<HashMap<u32, u32>> }\n";
        assert!(run_all(suppressed, SIM_HOT).is_empty());
    }

    #[test]
    fn sharded_rwlock_and_plain_maps_are_fine() {
        let src = "struct S { sparse: Vec<RwLock<HashMap<u32, u32>>>, plain: HashMap<u32, u32>, m: Mutex<Vec<u32>> }\n";
        let f = run_all(src, SIM_HOT);
        assert!(
            f.iter().all(|x| x.lint != LINT_CONTENTION),
            "false positive: {f:?}"
        );
    }
}
