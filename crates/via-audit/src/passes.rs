//! The structured lint-pass framework.
//!
//! Every lint is a [`Pass`]: a name, an applicability predicate over
//! [`FileKind`], and a run function over one fully-analyzed file. The
//! [`REGISTRY`] is the single place a lint is wired in; the engine
//! ([`crate::audit_source`]) lexes once, builds the per-file [`FileCtx`]
//! (tokens, rendered lines, symbol table, test mask, directives), runs every
//! applicable pass, then applies suppression *centrally* — passes emit
//! findings unconditionally and never look at `allow` directives, which is
//! what makes the stale-suppression audit sound: a suppressed finding is
//! still *produced*, so an allow that matches nothing is provably stale.

use crate::lints::{self, FileKind, Finding};
use crate::semantic;
use crate::suppress::Directives;
use crate::symbols::SymbolTable;
use crate::token::Token;

/// Everything a pass can see about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative display path.
    pub file: &'a str,
    /// File classification (sim / hot-path).
    pub kind: FileKind,
    /// The token stream.
    pub tokens: &'a [Token],
    /// Code-only rendered lines (comments/literals blanked, columns kept).
    pub lines: &'a [String],
    /// Per-file symbol table.
    pub symbols: &'a SymbolTable,
    /// One flag per 0-indexed line: true inside `#[cfg(test)]`/`#[test]`.
    pub test_mask: &'a [bool],
    /// Parsed `via-audit:` directives (allows and ordered-merge markers).
    pub directives: &'a Directives,
}

/// What a pass produces.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Findings, pre-suppression.
    pub findings: Vec<Finding>,
    /// Lines of `ordered-merge` markers that shielded a would-be finding
    /// (consumed by the stale-marker audit).
    pub marker_uses: Vec<usize>,
}

/// One registered lint pass.
pub struct Pass {
    /// The lint name findings carry (and `allow(..)` refers to).
    pub lint: &'static str,
    /// Whether the pass runs on a file of this kind.
    pub applies: fn(FileKind) -> bool,
    /// The pass body.
    pub run: fn(&FileCtx<'_>, &mut PassOutput),
}

fn always(_: FileKind) -> bool {
    true
}

fn sim(k: FileKind) -> bool {
    k.sim_crate
}

fn hot(k: FileKind) -> bool {
    k.hot_path
}

/// Every lint pass, in the order they run. One entry per lint name.
pub const REGISTRY: &[Pass] = &[
    Pass {
        lint: lints::LINT_NAN,
        applies: always,
        run: lints::pass_nan,
    },
    Pass {
        lint: lints::LINT_CONTENTION,
        applies: hot,
        run: lints::pass_contention,
    },
    Pass {
        lint: semantic::LINT_MAP_ORDER,
        applies: sim,
        run: semantic::pass_map_order,
    },
    Pass {
        lint: semantic::LINT_RNG,
        applies: sim,
        run: semantic::pass_rng_discipline,
    },
    Pass {
        lint: semantic::LINT_FLOAT_ACC,
        applies: sim,
        run: semantic::pass_float_accumulation,
    },
];

/// All lint names an `allow(..)` may legally reference: the registry plus
/// the stale-suppression audit's own name (listed so the "unknown lint"
/// message can cite it, though allows on it never match — its findings
/// bypass suppression).
pub fn known_lints() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = REGISTRY.iter().map(|p| p.lint).collect();
    names.push(crate::suppress::LINT_STALE);
    names
}

/// Runs every applicable registered pass over one analyzed file.
pub fn run_passes(ctx: &FileCtx<'_>) -> PassOutput {
    let mut out = PassOutput::default();
    for pass in REGISTRY {
        if (pass.applies)(ctx.kind) {
            (pass.run)(ctx, &mut out);
        }
    }
    out
}

/// Test helper: lexes `src`, builds the full [`FileCtx`], and hands it to
/// `f`. Keeps pass unit tests free of analysis boilerplate.
#[cfg(test)]
pub fn file_ctx_for_test<R>(src: &str, kind: FileKind, f: impl FnOnce(&FileCtx<'_>) -> R) -> R {
    let lexed = crate::token::lex(src);
    let symbols = crate::symbols::collect(&lexed.tokens);
    let test_mask = crate::regions::test_regions(&lexed.lines);
    let directives = crate::suppress::collect(&lexed.comments);
    let ctx = FileCtx {
        file: "test.rs",
        kind,
        tokens: &lexed.tokens,
        lines: &lexed.lines,
        symbols: &symbols,
        test_mask: &test_mask,
        directives: &directives,
    };
    f(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|p| p.lint).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate lint name in REGISTRY");
    }

    #[test]
    fn known_lints_includes_registry_and_stale() {
        let known = known_lints();
        for p in REGISTRY {
            assert!(known.contains(&p.lint));
        }
        assert!(known.contains(&crate::suppress::LINT_STALE));
    }
}
