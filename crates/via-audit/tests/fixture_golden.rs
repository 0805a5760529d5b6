//! Golden-corpus test for the lint fixtures.
//!
//! Every lint has a fixture file under `tests/fixtures/` holding a positive
//! case, a suppressed case, and a clean case. Each file's first line is a
//! `// audit-fixture: kind=…` header naming the [`FileKind`] flags it is
//! audited under. The corpus findings, rendered through the JSON report,
//! must match `tests/fixtures/findings.json` byte-for-byte.
//!
//! Regenerate the golden file after an intentional lint change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p via-audit --test fixture_golden
//! ```

// Test-harness helpers outside #[test] fns: panicking on a broken corpus
// is the correct behavior here, as in any test.
#![allow(clippy::expect_used)]

use std::path::PathBuf;

use via_audit::lints::{FileKind, Finding};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parses the `// audit-fixture: kind=sim,hot` header (an empty list is a
/// file of neither kind).
fn fixture_kind(path: &std::path::Path, src: &str) -> FileKind {
    let header = src.lines().next().unwrap_or_default();
    let spec = header
        .strip_prefix("// audit-fixture: kind=")
        .unwrap_or_else(|| {
            panic!(
                "{} must start with `// audit-fixture: kind=…`, got {header:?}",
                path.display()
            )
        });
    let flags: Vec<&str> = spec
        .split(',')
        .map(str::trim)
        .filter(|f| !f.is_empty())
        .collect();
    for f in &flags {
        assert!(
            matches!(*f, "sim" | "hot"),
            "{}: unknown fixture kind flag {f:?}",
            path.display()
        );
    }
    FileKind {
        sim_crate: flags.contains(&"sim"),
        hot_path: flags.contains(&"hot"),
    }
}

/// Audits the whole corpus, findings sorted the way `audit_workspace` sorts.
fn corpus_findings() -> Vec<Finding> {
    let dir = fixtures_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir must exist")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "fixture corpus is empty");

    let mut findings = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("fixture must be readable");
        let name = format!(
            "fixtures/{}",
            path.file_name()
                .and_then(|n| n.to_str())
                .expect("utf-8 name")
        );
        findings.extend(via_audit::audit_source(
            &name,
            &src,
            fixture_kind(path, &src),
        ));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    findings
}

#[test]
fn corpus_matches_golden_findings_json() {
    let findings = corpus_findings();
    let got = via_audit::report::to_json(&findings);
    let golden = fixtures_dir().join("findings.json");

    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&golden, format!("{got}\n")).expect("write golden");
        return;
    }

    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    assert_eq!(
        want.trim_end(),
        got.trim_end(),
        "fixture corpus drifted from findings.json; if the lint change is \
         intentional, regenerate with UPDATE_GOLDEN=1 cargo test -p via-audit \
         --test fixture_golden"
    );
}

/// Every registered lint must appear in the corpus findings at least once —
/// a lint with no positive fixture has no regression net.
#[test]
fn every_lint_has_a_positive_fixture() {
    let findings = corpus_findings();
    for lint in via_audit::passes::known_lints() {
        assert!(
            findings.iter().any(|f| f.lint == lint),
            "no fixture finding exercises lint `{lint}`"
        );
    }
}

/// Suppressed fixture cases must actually suppress: no fixture may report a
/// non-stale finding on the line directly below a justified allow. (The
/// stale-suppression fixture deliberately reports directive-audit findings;
/// those carry the stale-suppression lint and are exempt here.)
#[test]
fn suppressed_cases_stay_suppressed() {
    let findings = corpus_findings();
    let dir = fixtures_dir();
    for f in &findings {
        if f.lint == "stale-suppression" {
            continue;
        }
        let path = dir.join(f.file.trim_start_matches("fixtures/"));
        let src = std::fs::read_to_string(&path).expect("fixture must be readable");
        let prev = f.line.checked_sub(2).and_then(|i| src.lines().nth(i));
        assert!(
            !prev.is_some_and(|l| l.contains(&format!("allow({})", f.lint))),
            "{}:{} reports `{}` despite an allow directly above",
            f.file,
            f.line,
            f.lint
        );
    }
}
