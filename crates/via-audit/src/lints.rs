//! Core types and the line-based lint passes.
//!
//! * `nondeterminism` — forbids entropy and wall-clock sources
//!   (`thread_rng`, `from_entropy`, `SystemTime::now`, `Instant::now`) in
//!   the simulation crates. Applies to test code too: a nondeterministic
//!   test cannot reproduce its failures. (Hash-container *iteration* is the
//!   token-aware `map-iteration-order` lint's job — see [`crate::semantic`].)
//! * `nan-cmp` — flags `partial_cmp(..).unwrap()`-style float comparisons
//!   anywhere in the workspace, suggesting `f64::total_cmp`.
//! * `lock-contention` — forbids `Mutex<HashMap<..>>` / `Mutex<BTreeMap<..>>`
//!   in the hot-path crates (`via-netsim`, `via-core`): a single map-wide
//!   mutex serializes every reader and flattens parallel-replay scaling (the
//!   exact regression PR 3 removed from `PerfModel`). Use sharded `RwLock`
//!   tables, dense `OnceLock` slots, or per-worker state instead.
//! * `socket-wait` — forbids unbounded socket waits in the socket crates'
//!   library code: bare `TcpStream::connect(`, blocking `.accept()`,
//!   `set_read_timeout(None)` / `set_write_timeout(None)`, and the
//!   deadline-free `read_frame(` helper. Every socket wait must carry a
//!   deadline (`connect_deadline`, `accept_deadline`,
//!   `FrameConn::read_deadline`) or the harness can hang forever on one
//!   dead peer.
//! * `raw-timing` — forbids raw wall-clock reads (`Instant::now`,
//!   `SystemTime::now`) in the hot-path crates even where a
//!   `allow(nondeterminism)` justification exists. Timing in the replay
//!   hot path must go through the `via_obs::Stopwatch` facade so every
//!   wall-clock read lands in the opt-in timing layer that serialized
//!   metrics snapshots exclude — a bare clock read next to recorded state
//!   is how nondeterminism leaks into "deterministic" outputs.
//!
//! Passes emit findings unconditionally; suppression (`via-audit:
//! allow(lint-name)` with a justification) is applied centrally by the
//! engine so stale allows are detectable — see [`crate::suppress`].

use std::fmt;

use crate::passes::{FileCtx, PassOutput};

/// Determinism lint name.
pub const LINT_NONDET: &str = "nondeterminism";
/// NaN-safe comparison lint name.
pub const LINT_NAN: &str = "nan-cmp";
/// Map-wide mutex lint name.
pub const LINT_CONTENTION: &str = "lock-contention";
/// Unbounded-socket-wait lint name.
pub const LINT_SOCKET: &str = "socket-wait";
/// Raw wall-clock read lint name (hot-path crates).
pub const LINT_TIMING: &str = "raw-timing";

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
    /// Shipping library code (not a bin target, bench, or example).
    pub lib_code: bool,
    /// The crate is on the replay hot path (`via-netsim`, `via-core`), where
    /// shared-lock contention patterns are denied.
    pub hot_path: bool,
    /// The crate drives real sockets (`via-testbed`, `via-server`): unbounded
    /// socket waits and narrowing casts are denied in its library code even
    /// though the crate is not a simulation crate.
    pub socket_crate: bool,
}

fn push(ctx: &FileCtx<'_>, out: &mut PassOutput, line: usize, lint: &'static str, message: String) {
    out.findings.push(Finding {
        file: ctx.file.to_string(),
        line,
        lint,
        message,
    });
}

/// Entropy / wall-clock patterns forbidden in simulation code.
const NONDET_SOURCES: &[(&str, &str)] = &[
    (
        "thread_rng",
        "entropy-seeded RNG; use `StdRng::seed_from_u64` with a derived seed",
    ),
    (
        "from_entropy",
        "entropy-seeded RNG; use `StdRng::seed_from_u64` with a derived seed",
    ),
    (
        "SystemTime::now",
        "wall-clock read; use `SimTime` carried by the trace",
    ),
    (
        "Instant::now",
        "wall-clock read; simulation time must come from the trace",
    ),
];

/// The determinism pass: entropy and wall-clock sources.
pub fn pass_determinism(ctx: &FileCtx<'_>, out: &mut PassOutput) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        for &(pat, advice) in NONDET_SOURCES {
            if line.contains(pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    LINT_NONDET,
                    format!("`{pat}` is nondeterministic: {advice}"),
                );
            }
        }
    }
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

/// Socket waits that can block forever, with the bounded alternative.
const UNBOUNDED_WAITS: &[(&str, &str)] = &[
    (
        "TcpStream::connect(",
        "blocking connect with the OS default timeout; use `connect_deadline`",
    ),
    (
        ".accept()",
        "blocking accept can wait forever on a peer that never arrives; \
         use `accept_deadline`",
    ),
    (
        "set_read_timeout(None)",
        "disabling the read timeout makes the next read unbounded",
    ),
    (
        "set_write_timeout(None)",
        "disabling the write timeout makes the next write unbounded",
    ),
    (
        "read_frame(",
        "deadline-free frame read; use `FrameConn::read_deadline`",
    ),
];

/// The unbounded-socket-wait pass (socket crates' lib code only; test
/// regions exempt — tests may block because the test runner itself is the
/// deadline).
pub fn pass_socket(ctx: &FileCtx<'_>, out: &mut PassOutput) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.test_mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for &(pat, advice) in UNBOUNDED_WAITS {
            if line.contains(pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    LINT_SOCKET,
                    format!("`{pat}` is an unbounded socket wait: {advice}"),
                );
            }
        }
    }
}

/// Raw wall-clock constructors. `.elapsed()` on a stored start point is
/// deliberately not matched: reading out a `Stopwatch` is the facade's job,
/// and the facade itself carries the one sanctioned constructor site.
const RAW_CLOCKS: &[&str] = &["Instant::now", "SystemTime::now"];

/// The raw-timing pass (hot-path crates only).
///
/// Overlaps with the `nondeterminism` lint on purpose: that lint can be
/// suppressed site-by-site with `allow(nondeterminism)`, which is exactly
/// how ad-hoc timing reads used to accumulate in the replay loop. This lint
/// has its own name, so a justified nondeterminism exception still cannot
/// put a bare clock read on the hot path — timing goes through
/// `via_obs::Stopwatch` or not at all.
pub fn pass_timing(ctx: &FileCtx<'_>, out: &mut PassOutput) {
    for (idx, line) in ctx.lines.iter().enumerate() {
        for pat in RAW_CLOCKS {
            if line.contains(pat) {
                push(
                    ctx,
                    out,
                    idx + 1,
                    LINT_TIMING,
                    format!(
                        "raw `{pat}` on the hot path; route timing through \
                         `via_obs::Stopwatch` so it stays in the opt-in timing \
                         layer excluded from deterministic snapshots"
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

    const SIM_LIB: FileKind = FileKind {
        sim_crate: true,
        lib_code: true,
        hot_path: true,
        socket_crate: false,
    };

    const SOCKET_LIB: FileKind = FileKind {
        sim_crate: false,
        lib_code: true,
        hot_path: false,
        socket_crate: true,
    };

    #[test]
    fn entropy_sources_are_denied() {
        let f = run_all("fn f() { let mut rng = rand::thread_rng(); }\n", SIM_LIB);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, LINT_NONDET);
        // A clock read on the hot path trips both the determinism lint and
        // the raw-timing lint: two findings, one site.
        let f = run_all("fn f() { let t = std::time::Instant::now(); }\n", SIM_LIB);
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.lint == LINT_NONDET));
        assert!(f.iter().any(|x| x.lint == LINT_TIMING));
    }

    #[test]
    fn nondeterminism_suppression_does_not_silence_raw_timing() {
        // The loophole this lint closes: a justified allow(nondeterminism)
        // used to be enough to put an ad-hoc clock read on the hot path.
        let src =
            "// wall timing only. via-audit: allow(nondeterminism)\nlet t = Instant::now();\n";
        let f = run_all(src, SIM_LIB);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LINT_TIMING);
        assert!(f[0].message.contains("Stopwatch"));
    }

    #[test]
    fn raw_timing_applies_only_on_the_hot_path_and_is_suppressible() {
        let src = "fn f() { let t = SystemTime::now(); }\n";
        let cold = FileKind {
            sim_crate: false,
            lib_code: true,
            hot_path: false,
            socket_crate: false,
        };
        assert!(run_all(src, cold).is_empty());
        let suppressed = "// facade-internal read. via-audit: allow(raw-timing, nondeterminism)\nlet t = SystemTime::now();\n";
        assert!(run_all(suppressed, SIM_LIB).is_empty());
    }

    #[test]
    fn stopwatch_reads_do_not_trip_raw_timing() {
        let src = "let sw = Stopwatch::started();\nstats.wall_ms = sw.elapsed_ms();\nlet d = start.elapsed();\n";
        let f = run_all(src, SIM_LIB);
        assert!(
            f.iter().all(|x| x.lint != LINT_TIMING),
            "false positive: {f:?}"
        );
    }

    #[test]
    fn suppression_comment_silences_a_site() {
        let src = "// deliberate: seeded elsewhere. via-audit: allow(nondeterminism)\nlet mut rng = rand::thread_rng();\n";
        assert!(run_all(src, SIM_LIB).is_empty());
    }

    #[test]
    fn nan_unsafe_comparison_is_denied_everywhere() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        let f = run_all(
            src,
            FileKind {
                sim_crate: false,
                lib_code: false,
                hot_path: false,
                socket_crate: false,
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
                lib_code: false,
                hot_path: false,
                socket_crate: false,
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
            let f = run_all(src, SIM_LIB);
            assert_eq!(f.len(), 1, "{src:?} → {f:?}");
            assert_eq!(f[0].lint, LINT_CONTENTION);
        }
    }

    #[test]
    fn mutexed_map_is_allowed_off_the_hot_path_or_with_suppression() {
        let src = "struct S { cache: Mutex<HashMap<u32, u32>> }\n";
        let cold = FileKind {
            sim_crate: true,
            lib_code: true,
            hot_path: false,
            socket_crate: false,
        };
        assert!(run_all(src, cold).is_empty());
        let suppressed = "// cold config table, touched once. via-audit: allow(lock-contention)\nstruct S { cache: Mutex<HashMap<u32, u32>> }\n";
        assert!(run_all(suppressed, SIM_LIB).is_empty());
    }

    #[test]
    fn unbounded_socket_waits_are_denied_in_socket_lib_code() {
        for src in [
            "let s = TcpStream::connect(addr)?;\n",
            "let (stream, peer) = listener.accept()?;\n",
            "stream.set_read_timeout(None)?;\n",
            "stream.set_write_timeout(None)?;\n",
            "let msg: ClientMsg = read_frame(&mut stream)?;\n",
        ] {
            let f = run_all(src, SOCKET_LIB);
            assert_eq!(f.len(), 1, "{src:?} → {f:?}");
            assert_eq!(f[0].lint, LINT_SOCKET);
        }
    }

    #[test]
    fn bounded_socket_waits_are_fine() {
        let src = "let s = TcpStream::connect_timeout(&addr, t)?;\n\
                   let got = accept_deadline(&listener, deadline)?;\n\
                   stream.set_read_timeout(Some(slice))?;\n\
                   pub fn read_frame<T>(r: &mut impl Read) -> Result<T, FrameError> {\n\
                   let msg = conn.read_deadline(deadline)?;\n";
        assert!(run_all(src, SOCKET_LIB).is_empty());
    }

    #[test]
    fn socket_waits_in_tests_or_with_suppression_are_exempt() {
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn t() { let (s, _) = l.accept().unwrap(); }\n}\n";
        assert!(run_all(in_test, SOCKET_LIB).is_empty());
        let suppressed = "// nonblocking poll, bounded by the caller's deadline. \
                          via-audit: allow(socket-wait)\nmatch listener.accept() {\n";
        assert!(run_all(suppressed, SOCKET_LIB).is_empty());
    }

    #[test]
    fn sharded_rwlock_and_plain_maps_are_fine() {
        let src = "struct S { sparse: Vec<RwLock<HashMap<u32, u32>>>, plain: HashMap<u32, u32>, m: Mutex<Vec<u32>> }\n";
        let f = run_all(src, SIM_LIB);
        assert!(
            f.iter().all(|x| x.lint != LINT_CONTENTION),
            "false positive: {f:?}"
        );
    }
}
