//! Suppression directives and the stale-suppression audit.
//!
//! A lint finding can be silenced at its site with a comment directive:
//!
//! ```text
//! // Shard-local scratch; merged in shard-index order at the barrier.
//! // via-audit: allow(map-iteration-order)
//! ```
//!
//! The directive suppresses the named lints on its own line and the line
//! directly below. Two rules make the suppression surface auditable, and
//! both are enforced as *deny* findings so the surface can only shrink:
//!
//! 1. **No stale allows.** Every `allow(lint)` must suppress at least one
//!    finding the passes actually produced. An allow that matches nothing —
//!    because the code was fixed, the lint renamed, or the name typo'd — is
//!    reported as a [`LINT_STALE`] finding at the directive's line.
//! 2. **No bare allows.** Every directive must carry a justification: prose
//!    in the same comment, or in the contiguous `//` block directly above
//!    it. A directive with no explanation is reported as a deny finding
//!    even when it suppresses something.
//!
//! `LINT_STALE` findings themselves cannot be suppressed.
//!
//! The module also owns the `ordered-merge` **marker**:
//!
//! ```text
//! // via-audit: ordered-merge(pairwise Chan merge, applied in shard-index order)
//! ```
//!
//! placed on or directly above a `fn` whose name contains `merge`, it marks
//! the sanctioned ordered-merge helper the float-accumulation lint demands.
//! Markers are audited like allows: an unused marker (shielding no would-be
//! finding) and an empty marker reason are both deny findings.

use crate::lints::Finding;
use crate::token::Comment;

/// Lint name for the stale-suppression audit's own findings.
pub const LINT_STALE: &str = "stale-suppression";

/// One `allow(..)` directive site.
#[derive(Debug)]
pub struct AllowSite {
    /// 1-indexed line of the directive.
    pub line: usize,
    /// Lint names listed in the directive, in source order.
    pub lints: Vec<String>,
    /// Justification prose (same comment + contiguous block above),
    /// directives removed.
    pub justification: String,
}

/// One `ordered-merge(..)` marker site.
#[derive(Debug)]
pub struct MarkerSite {
    /// 1-indexed line of the marker.
    pub line: usize,
    /// The reason text inside the parentheses.
    pub reason: String,
}

/// All directives parsed from one file's comments.
#[derive(Debug, Default)]
pub struct Directives {
    /// Allow sites, in source order.
    pub allows: Vec<AllowSite>,
    /// Ordered-merge markers, in source order.
    pub markers: Vec<MarkerSite>,
}

/// Extracts the parenthesized argument of `directive(` in `text`, returning
/// (args, remaining text with the directive call removed).
fn split_directive(text: &str, directive: &str) -> Option<(String, String)> {
    let key = format!("via-audit: {directive}(");
    let pos = text.find(&key)?;
    let after = &text[pos + key.len()..];
    let close = after.find(')')?;
    let args = after[..close].to_string();
    let mut rest = String::with_capacity(text.len());
    rest.push_str(&text[..pos]);
    rest.push_str(&after[close + 1..]);
    Some((args, rest))
}

/// Parses all directives out of a file's comments, attaching justifications.
pub fn collect(comments: &[Comment]) -> Directives {
    let mut d = Directives::default();
    for (ci, c) in comments.iter().enumerate() {
        // Doc comments never carry directives: `via-audit:` text in
        // documentation is an example, not an exception.
        if c.doc {
            continue;
        }
        let mut rest = c.text.clone();
        let mut lints = Vec::new();
        while let Some((args, r)) = split_directive(&rest, "allow") {
            lints.extend(
                args.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string),
            );
            rest = r;
        }
        let mut marker_reason = None;
        while let Some((args, r)) = split_directive(&rest, "ordered-merge") {
            marker_reason = Some(args.trim().to_string());
            rest = r;
        }
        if lints.is_empty() && marker_reason.is_none() {
            continue;
        }
        // Justification: leftover prose in this comment, else the contiguous
        // run of standalone comment lines directly above the directive.
        let mut justification = rest.trim().trim_matches('.').trim().to_string();
        if justification.is_empty() {
            let mut expect_line = c.line.saturating_sub(1);
            for prev in comments[..ci].iter().rev() {
                if prev.trailing || prev.line != expect_line {
                    break;
                }
                if !prev.text.trim().is_empty() {
                    justification = prev.text.trim().to_string();
                    break;
                }
                expect_line = expect_line.saturating_sub(1);
            }
        }
        if !lints.is_empty() {
            d.allows.push(AllowSite {
                line: c.line,
                lints,
                justification: justification.clone(),
            });
        }
        if let Some(reason) = marker_reason {
            d.markers.push(MarkerSite {
                line: c.line,
                reason,
            });
        }
    }
    d
}

/// Applies suppressions to `findings` and appends the stale-suppression
/// audit's own findings.
///
/// `known_lints` is the registry's name list (unknown names in an allow are
/// stale by definition). `marker_uses` lists marker lines the
/// float-accumulation pass actually consulted to shield a would-be finding.
pub fn apply(
    file: &str,
    findings: Vec<Finding>,
    directives: &Directives,
    known_lints: &[&str],
    marker_uses: &[usize],
) -> Vec<Finding> {
    let mut used = vec![Vec::new(); directives.allows.len()];
    let mut out = Vec::new();

    'finding: for f in findings {
        if f.lint != LINT_STALE {
            for (si, site) in directives.allows.iter().enumerate() {
                let covers = site.line == f.line || site.line + 1 == f.line;
                if covers && site.lints.iter().any(|l| l == f.lint) {
                    used[si].push(f.lint);
                    continue 'finding;
                }
            }
        }
        out.push(f);
    }

    for (site, used_lints) in directives.allows.iter().zip(&used) {
        for lint in &site.lints {
            if !known_lints.contains(&lint.as_str()) {
                out.push(Finding {
                    file: file.to_string(),
                    line: site.line,
                    lint: LINT_STALE,
                    message: format!(
                        "`allow({lint})` names an unknown lint; known lints: {}",
                        known_lints.join(", ")
                    ),
                });
            } else if !used_lints.contains(&lint.as_str()) {
                out.push(Finding {
                    file: file.to_string(),
                    line: site.line,
                    lint: LINT_STALE,
                    message: format!(
                        "`allow({lint})` suppresses no finding on this or the next \
                         line; remove the stale directive"
                    ),
                });
            }
        }
        if site.justification.is_empty() {
            out.push(Finding {
                file: file.to_string(),
                line: site.line,
                lint: LINT_STALE,
                message: format!(
                    "`allow({})` carries no justification; state why the \
                     exception is sound in the same comment or the block above",
                    site.lints.join(", ")
                ),
            });
        }
    }

    for m in &directives.markers {
        if m.reason.is_empty() {
            out.push(Finding {
                file: file.to_string(),
                line: m.line,
                lint: LINT_STALE,
                message: "`ordered-merge()` marker carries no reason; describe the \
                          merge-order contract inside the parentheses"
                    .to_string(),
            });
        } else if !marker_uses.contains(&m.line) {
            out.push(Finding {
                file: file.to_string(),
                line: m.line,
                lint: LINT_STALE,
                message: "`ordered-merge(..)` marker shields no float accumulation; \
                          remove the stale marker"
                    .to_string(),
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::lex;

    const KNOWN: &[&str] = &["nondeterminism", "nan-cmp"];

    fn deny(file: &str, line: usize, lint: &'static str) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            lint,
            message: "x".to_string(),
        }
    }

    #[test]
    fn directive_suppresses_same_and_next_line() {
        let l =
            lex("// seeded upstream by the caller. via-audit: allow(nondeterminism)\ncode();\n");
        let d = collect(&l.comments);
        let out = apply(
            "f.rs",
            vec![deny("f.rs", 2, "nondeterminism")],
            &d,
            KNOWN,
            &[],
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unmatched_allow_is_a_stale_finding() {
        let l = lex("// the code below was fixed. via-audit: allow(nondeterminism)\ncode();\n");
        let d = collect(&l.comments);
        let out = apply("f.rs", Vec::new(), &d, KNOWN, &[]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, LINT_STALE);
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn unknown_lint_name_is_stale() {
        let l = lex("// justified. via-audit: allow(no-such-lint)\ncode();\n");
        let d = collect(&l.comments);
        let out = apply("f.rs", Vec::new(), &d, KNOWN, &[]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unknown lint"));
    }

    #[test]
    fn bare_allow_without_justification_is_denied() {
        let l = lex("// via-audit: allow(nan-cmp)\na.partial_cmp(&b).unwrap();\n");
        let d = collect(&l.comments);
        let out = apply("f.rs", vec![deny("f.rs", 2, "nan-cmp")], &d, KNOWN, &[]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("justification"));
    }

    #[test]
    fn justification_from_contiguous_block_above() {
        let src = "// This wait is bounded by the caller's deadline loop,\n\
                   // re-checked every WouldBlock.\n\
                   // via-audit: allow(nan-cmp)\na.partial_cmp(&b).unwrap();\n";
        let l = lex(src);
        let d = collect(&l.comments);
        assert!(!d.allows[0].justification.is_empty());
        let out = apply("f.rs", vec![deny("f.rs", 4, "nan-cmp")], &d, KNOWN, &[]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn trailing_comment_on_code_does_not_justify_a_later_directive() {
        let src =
            "let a = 1; // unrelated trailing note\n// via-audit: allow(nan-cmp)\na.partial_cmp(&b).unwrap();\n";
        let l = lex(src);
        let d = collect(&l.comments);
        assert!(d.allows[0].justification.is_empty());
    }

    #[test]
    fn stale_findings_cannot_be_suppressed() {
        let l = lex("// meta. via-audit: allow(stale-suppression)\ncode();\n");
        let d = collect(&l.comments);
        let out = apply(
            "f.rs",
            vec![deny("f.rs", 2, LINT_STALE)],
            &d,
            &["stale-suppression"],
            &[],
        );
        // The original stale finding survives AND the allow is itself stale.
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn doc_comment_examples_are_not_directives() {
        let src = "//! Suppress with `// via-audit: allow(nan-cmp)` on the line.\n\
                   /// Or mark it: `via-audit: ordered-merge(reason)`.\n\
                   fn lib() {}\n";
        let l = lex(src);
        let d = collect(&l.comments);
        assert!(d.allows.is_empty(), "{:?}", d.allows);
        assert!(d.markers.is_empty(), "{:?}", d.markers);
    }

    #[test]
    fn markers_parse_and_audit() {
        let l = lex("// via-audit: ordered-merge(pairwise Chan merge at the barrier)\nfn merge() {}\n// via-audit: ordered-merge()\nfn merge2() {}\n");
        let d = collect(&l.comments);
        assert_eq!(d.markers.len(), 2);
        let out = apply("f.rs", Vec::new(), &d, KNOWN, &[1]);
        // Marker 1 used; marker 3 has no reason.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("no reason"));
    }

    #[test]
    fn multiple_lints_in_one_allow_audit_independently() {
        let l = lex(
            "// both fire here, honestly. via-audit: allow(nondeterminism, nan-cmp)\ncode();\n",
        );
        let d = collect(&l.comments);
        let out = apply(
            "f.rs",
            vec![deny("f.rs", 2, "nondeterminism")],
            &d,
            KNOWN,
            &[],
        );
        // `nan-cmp` suppressed nothing → one stale finding.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].lint, LINT_STALE);
    }
}
