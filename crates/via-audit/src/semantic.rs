//! The token-aware semantic lint passes.
//!
//! These three lints need token adjacency, per-file symbols, and nesting —
//! things a line-based substring scan cannot express:
//!
//! * [`pass_map_order`] (`map-iteration-order`) — iterating a
//!   `HashMap`/`HashSet` binding into an *ordered sink* (`sum`, `fold`,
//!   `collect::<Vec<_>>`, `push`, `extend`, `max_by`/`min_by`, …) lets the
//!   hash seed pick the result. Iteration into order-independent sinks
//!   (map inserts, `count`, `collect` into another map) is fine, as is
//!   collecting into a `Vec` that is sorted within the next few lines.
//! * [`pass_rng_discipline`] (`rng-discipline`) — every RNG stream must be
//!   derived through `seed::derive*`. Constant seeds and ad-hoc
//!   `seed ^ 0x…` xor-splitting silently correlate or duplicate streams;
//!   `.clone()` on an RNG duplicates its stream across whatever boundary
//!   the clone crosses.
//! * [`pass_float_accumulation`] (`float-accumulation`) — inside merge
//!   functions (name contains `merge`), `f64` `+=` folds and iterator
//!   `sum`/`fold` reductions make the result depend on merge order. The
//!   one sanctioned pairwise helper carries a
//!   `// via-audit: ordered-merge(reason)` marker (audited for staleness
//!   like any suppression).

use crate::lints::Finding;
use crate::passes::{FileCtx, PassOutput};
use crate::token::{Token, TokenKind};

/// Map-iteration-order lint name.
pub const LINT_MAP_ORDER: &str = "map-iteration-order";
/// RNG-discipline lint name.
pub const LINT_RNG: &str = "rng-discipline";
/// Float-accumulation lint name.
pub const LINT_FLOAT_ACC: &str = "float-accumulation";

/// Methods whose iteration order follows the hash seed.
const UNORDERED_ITER: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Chain methods that materialize iteration order into a result.
const ORDERED_SINKS: &[&str] = &[
    "sum",
    "product",
    "fold",
    "reduce",
    "for_each",
    "push",
    "extend",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "position",
    "find",
    "take",
    "skip",
    "last",
    "next",
    "zip",
    "enumerate",
    "chain",
];

/// Sink methods searched for inside a `for`-loop body over a hash container.
const LOOP_BODY_SINKS: &[&str] = &[
    "push",
    "extend",
    "sum",
    "fold",
    "write",
    "writeln",
    "serialize",
];

/// Container type names whose `collect()` target makes order irrelevant.
const UNORDERED_COLLECT_TARGETS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];

fn finding(ctx: &FileCtx, line: usize, lint: &'static str, message: String) -> Finding {
    Finding {
        file: ctx.file.to_string(),
        line,
        lint,
        message,
    }
}

/// Scans a method chain starting at token `start` (the receiver ident) and
/// returns the exclusive end of the expression: a `;`, `,`, or block `{` at
/// relative bracket depth 0, or a closing bracket that leaves the chain.
fn chain_end(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < tokens.len() && j - start < 256 {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                "{" if depth == 0 => return j,
                "{" => {}
                "}" if depth == 0 => return j,
                "}" => {}
                ";" | "," if depth == 0 => return j,
                _ => {}
            }
        }
        j += 1;
    }
    j
}

/// Looks backward from the chain receiver for `let [mut] <binding> … =`
/// introducing the statement, returning the binding name.
fn stmt_let_binding(tokens: &[Token], recv: usize) -> Option<String> {
    // Walk back to the statement head; the window must clear a long type
    // ascription like `let mut out: Vec<(CountryId, PnrReport)> = recv…`.
    let lo = recv.saturating_sub(24);
    for j in (lo..recv).rev() {
        if tokens[j].is_punct(";") || tokens[j].is_punct("{") || tokens[j].is_punct("}") {
            break;
        }
        if tokens[j].is_ident("let") {
            let k = j + 1;
            let k = if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
                k + 1
            } else {
                k
            };
            return tokens.get(k).map(|t| t.text.clone());
        }
    }
    None
}

/// True when the binding `name` has `.sort*` called on it within `lines`
/// source lines after line `after` — the sanctioned "sort before use"
/// escape for collecting hash iteration into a `Vec`.
fn sorted_soon(tokens: &[Token], name: &str, after: usize, lines: usize) -> bool {
    tokens.iter().enumerate().any(|(i, t)| {
        t.is_ident(name)
            && t.line > after
            && t.line <= after + lines
            && tokens.get(i + 1).is_some_and(|d| d.is_punct("."))
            && tokens
                .get(i + 2)
                .is_some_and(|m| m.kind == TokenKind::Ident && m.text.starts_with("sort"))
    })
}

/// Classifies a `collect` at token `at`: `Some(target)` when the collect
/// target type is identifiable, `None` otherwise.
fn collect_target(tokens: &[Token], at: usize, recv: usize) -> Option<String> {
    // Turbofish: collect :: < T … >.
    if tokens.get(at + 1).is_some_and(|t| t.is_punct("::"))
        && tokens.get(at + 2).is_some_and(|t| t.is_punct("<"))
    {
        return tokens
            .get(at + 3)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone());
    }
    // Let ascription: `let x : T = …` at the statement head.
    let lo = recv.saturating_sub(24);
    for j in (lo..recv).rev() {
        if tokens[j].is_punct(";") || tokens[j].is_punct("{") {
            break;
        }
        if tokens[j].is_ident("let") {
            for k in j..recv {
                if tokens[k].is_punct(":") {
                    return tokens
                        .get(k + 1)
                        .filter(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone());
                }
            }
            break;
        }
    }
    None
}

/// The `map-iteration-order` pass.
pub fn pass_map_order(ctx: &FileCtx, out: &mut PassOutput) {
    let tokens = ctx.tokens;
    // Closure params bound from `nested.get(..)` chains become hash
    // containers for the remainder of their statement.
    let mut bound: Vec<(String, usize)> = Vec::new(); // (name, valid-until token)

    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_hash = ctx.symbols.hash_containers.contains(&t.text)
            || bound.iter().any(|(n, until)| n == &t.text && i < *until);

        // Nested-value closures: `windows.get(..).map_or(z, |m| …)` makes
        // `m` a hash container inside the statement.
        if ctx.symbols.nested_hash.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|d| d.is_punct("."))
            && tokens.get(i + 2).is_some_and(|m| m.is_ident("get"))
        {
            let end = chain_end(tokens, i);
            let mut j = i + 3;
            while j + 2 < tokens.len() && j < end {
                if tokens[j].is_punct("|")
                    && tokens[j + 1].kind == TokenKind::Ident
                    && tokens[j + 2].is_punct("|")
                {
                    bound.push((tokens[j + 1].text.clone(), end));
                    break;
                }
                j += 1;
            }
        }

        if !is_hash {
            continue;
        }

        // Chain form: `h.iter()…sink` within one expression.
        if tokens.get(i + 1).is_some_and(|d| d.is_punct("."))
            && tokens
                .get(i + 2)
                .is_some_and(|m| UNORDERED_ITER.contains(&m.text.as_str()))
            && tokens.get(i + 3).is_some_and(|p| p.is_punct("("))
        {
            let end = chain_end(tokens, i);
            let mut hit: Option<(&str, usize)> = None;
            for j in i + 4..end {
                if tokens[j].kind != TokenKind::Ident || !tokens[j - 1].is_punct(".") {
                    continue;
                }
                let m = tokens[j].text.as_str();
                if m == "collect" {
                    let target = collect_target(tokens, j, i);
                    match target.as_deref() {
                        Some(ty) if UNORDERED_COLLECT_TARGETS.contains(&ty) => {}
                        _ => {
                            // Collecting into an ordered container: fine if
                            // the binding is sorted within the next 4 lines.
                            let binding = stmt_let_binding(tokens, i);
                            let sorted = binding
                                .as_deref()
                                .is_some_and(|b| sorted_soon(tokens, b, tokens[j].line, 4));
                            if !sorted {
                                hit = Some(("collect", tokens[j].line));
                            }
                        }
                    }
                    break;
                }
                if ORDERED_SINKS.contains(&m) {
                    hit = Some((tokens[j].text.as_str(), tokens[j].line));
                    break;
                }
                if m.starts_with("sort") {
                    break; // explicit sort in-chain: order is re-established
                }
            }
            if let Some((sink, _)) = hit {
                out.findings.push(finding(
                    ctx,
                    t.line,
                    LINT_MAP_ORDER,
                    format!(
                        "hash-container `{}` iterated into order-sensitive `{sink}`; \
                         sort the items first, use a BTreeMap, or collect into an \
                         order-independent container",
                        t.text
                    ),
                ));
            }
        }

        // For-loop form: `for pat in [&mut|&] h [{.iter()…}] {` with an
        // order-sensitive sink inside the loop body.
        if is_for_loop_over(tokens, i) {
            if let Some(open) = next_block_open(tokens, i) {
                let close = matching_close(tokens, open);
                for j in open + 1..close {
                    let sink = if tokens[j].is_punct("+=") {
                        Some("+=")
                    } else if tokens[j].kind == TokenKind::Ident
                        && tokens[j - 1].is_punct(".")
                        && LOOP_BODY_SINKS.contains(&tokens[j].text.as_str())
                    {
                        Some(tokens[j].text.as_str())
                    } else {
                        None
                    };
                    if let Some(sink) = sink {
                        out.findings.push(finding(
                            ctx,
                            t.line,
                            LINT_MAP_ORDER,
                            format!(
                                "loop over hash-container `{}` feeds order-sensitive \
                                 `{sink}` at line {}; sort the entries before the loop \
                                 or accumulate order-independently",
                                t.text, tokens[j].line
                            ),
                        ));
                        break;
                    }
                }
            }
        }
    }
}

/// True when the ident at `i` is the sequence target of a `for … in` header
/// (allowing `&`, `&mut`, and a field path like `other.windows` where `i`
/// is the final segment).
fn is_for_loop_over(tokens: &[Token], i: usize) -> bool {
    // Walk back over `ident .`-path segments and `& / mut` to find `in`.
    let mut j = i;
    while j >= 2 && tokens[j - 1].is_punct(".") && tokens[j - 2].kind == TokenKind::Ident {
        j -= 2;
    }
    while j >= 1 && (tokens[j - 1].is_punct("&") || tokens[j - 1].is_ident("mut")) {
        j -= 1;
    }
    if !(j >= 1 && tokens[j - 1].is_ident("in")) {
        return false;
    }
    // The loop body must open right after the target (or after a plain
    // `.iter()`-style adapter chain that preserves hash order).
    let mut k = i + 1;
    while k + 2 < tokens.len()
        && tokens[k].is_punct(".")
        && tokens[k + 1].kind == TokenKind::Ident
        && UNORDERED_ITER.contains(&tokens[k + 1].text.as_str())
        && tokens[k + 2].is_punct("(")
    {
        k += 4; // skip `.iter()`
    }
    tokens.get(k).is_some_and(|t| t.is_punct("{"))
}

/// Index of the next `{` at or after `i`, within the same expression.
fn next_block_open(tokens: &[Token], i: usize) -> Option<usize> {
    (i..tokens.len().min(i + 16)).find(|&j| tokens[j].is_punct("{"))
}

/// Index of the `}` matching the `{` at `open` (token depths pair braces).
fn matching_close(tokens: &[Token], open: usize) -> usize {
    let d = tokens[open].depth;
    (open + 1..tokens.len())
        .find(|&j| tokens[j].is_punct("}") && tokens[j].depth == d)
        .unwrap_or(tokens.len())
}

/// The `rng-discipline` pass (non-test code only: tests pin fixed seeds by
/// design).
pub fn pass_rng_discipline(ctx: &FileCtx, out: &mut PassOutput) {
    let tokens = ctx.tokens;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if in_test(ctx, t.line) {
            continue;
        }

        // Construction sites: seed_from_u64(<args>).
        if t.is_ident("seed_from_u64") && tokens.get(i + 1).is_some_and(|p| p.is_punct("(")) {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut has_derive = false;
            let mut has_int = false;
            let mut has_xor = false;
            let mut has_other = false;
            while j < tokens.len() {
                let u = &tokens[j];
                if u.is_punct("(") {
                    depth += 1;
                } else if u.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if u.kind == TokenKind::Ident {
                    if u.text.starts_with("derive") {
                        has_derive = true;
                    } else if u.text != "seed" && u.text != "u64" && u.text != "from" {
                        has_other = true;
                    }
                } else if u.kind == TokenKind::Int {
                    has_int = true;
                } else if u.is_punct("^") {
                    has_xor = true;
                }
                j += 1;
            }
            if !has_derive {
                if has_int && !has_other && !has_xor {
                    out.findings.push(finding(
                        ctx,
                        t.line,
                        LINT_RNG,
                        "RNG seeded from a constant: every run and call site shares \
                         one stream; derive a child seed with `seed::derive*`"
                            .to_string(),
                    ));
                } else if has_xor && has_int {
                    out.findings.push(finding(
                        ctx,
                        t.line,
                        LINT_RNG,
                        "ad-hoc `seed ^ constant` stream splitting; use \
                         `seed::derive(seed, \"label\")` so streams stay independent \
                         under any draw-count change"
                            .to_string(),
                    ));
                }
            }
        }

        // Duplication sites: `rng.clone()`.
        if t.kind == TokenKind::Ident
            && ctx.symbols.rngs.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|p| p.is_punct("."))
            && tokens.get(i + 2).is_some_and(|m| m.is_ident("clone"))
            && tokens.get(i + 3).is_some_and(|p| p.is_punct("("))
        {
            out.findings.push(finding(
                ctx,
                t.line,
                LINT_RNG,
                format!(
                    "`{}.clone()` duplicates an RNG stream; two consumers of one \
                     stream correlate, and a clone crossing a shard/worker boundary \
                     breaks worker-count invariance — derive a child stream with \
                     `seed::derive*` instead",
                    t.text
                ),
            ));
        }
    }
}

/// True when `line` (1-indexed) is inside a test region.
fn in_test(ctx: &FileCtx, line: usize) -> bool {
    ctx.test_mask
        .get(line.wrapping_sub(1))
        .copied()
        .unwrap_or(false)
}

/// The `float-accumulation` pass (non-test code only).
pub fn pass_float_accumulation(ctx: &FileCtx, out: &mut PassOutput) {
    let tokens = ctx.tokens;
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_ident("fn")
            && tokens[i + 1].kind == TokenKind::Ident
            && tokens[i + 1].text.contains("merge"))
        {
            i += 1;
            continue;
        }
        let fn_line = tokens[i].line;
        let Some(open) = (i..tokens.len()).find(|&j| tokens[j].is_punct("{")) else {
            break;
        };
        let close = matching_close(tokens, open);
        // Marker on or within three lines above the `fn` shields the body.
        let marker = ctx
            .directives
            .markers
            .iter()
            .find(|m| m.line <= fn_line && m.line + 3 >= fn_line);

        let mut shielded = false;
        for j in open + 1..close {
            let hit = if tokens[j].is_punct("+=") {
                float_assign_target(ctx, tokens, j)
            } else if (tokens[j].is_ident("sum") || tokens[j].is_ident("fold"))
                && j >= 1
                && tokens[j - 1].is_punct(".")
            {
                Some(format!("`.{}()` reduction", tokens[j].text))
            } else {
                None
            };
            let Some(what) = hit else { continue };
            if in_test(ctx, tokens[j].line) {
                continue;
            }
            if let Some(m) = marker {
                if !shielded {
                    out.marker_uses.push(m.line);
                    shielded = true;
                }
                continue;
            }
            out.findings.push(finding(
                ctx,
                tokens[j].line,
                LINT_FLOAT_ACC,
                format!(
                    "{what} in merge path `{}`: float accumulation order changes the \
                     result across merge trees; use the sanctioned pairwise helper \
                     (marked `via-audit: ordered-merge(..)`) or accumulate in u64",
                    tokens[i + 1].text
                ),
            ));
        }
        i = close.max(i + 1);
    }
}

/// For a `+=` at token `at`, describes the assignment when either side is
/// provably `f64`: the LHS ident is a known float, or the RHS contains a
/// float literal or known float ident.
fn float_assign_target(ctx: &FileCtx, tokens: &[Token], at: usize) -> Option<String> {
    if at >= 1
        && tokens[at - 1].kind == TokenKind::Ident
        && ctx.symbols.floats.contains(&tokens[at - 1].text)
    {
        return Some(format!("`{} +=`", tokens[at - 1].text));
    }
    let mut j = at + 1;
    while j < tokens.len() && !tokens[j].is_punct(";") && j - at < 32 {
        let u = &tokens[j];
        if u.kind == TokenKind::Float {
            return Some("float-literal `+=`".to_string());
        }
        if u.kind == TokenKind::Ident && ctx.symbols.floats.contains(&u.text) {
            return Some(format!("`+= {}`", u.text));
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::FileKind;
    use crate::passes::file_ctx_for_test;

    const SIM: FileKind = FileKind {
        sim_crate: true,
        hot_path: true,
    };

    fn run(src: &str, pass: fn(&FileCtx, &mut PassOutput)) -> Vec<Finding> {
        let mut out = PassOutput::default();
        file_ctx_for_test(src, SIM, |ctx| pass(ctx, &mut out));
        out.findings
    }

    #[test]
    fn map_sum_is_denied() {
        let src = "let m: HashMap<u32, f64> = HashMap::new();\nlet t: f64 = m.values().sum();\n";
        let f = run(src, pass_map_order);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LINT_MAP_ORDER);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn map_collect_to_vec_without_sort_is_denied() {
        let src = "let m = HashMap::new();\nlet v: Vec<u32> = m.keys().collect();\nuse_it(v);\n";
        let f = run(src, pass_map_order);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn map_collect_then_sort_is_clean() {
        let src = "let m = HashMap::new();\nlet mut v: Vec<u32> = m.keys().collect();\nv.sort_unstable();\n";
        assert!(run(src, pass_map_order).is_empty());
    }

    #[test]
    fn map_collect_into_map_is_clean() {
        let src = "let m = HashMap::new();\nlet v: HashMap<u32, u32> = m.iter().collect();\nlet w = m.keys().collect::<HashSet<_>>();\n";
        assert!(run(src, pass_map_order).is_empty());
    }

    #[test]
    fn map_get_and_count_are_clean() {
        let src =
            "let m = HashMap::new();\nm.get(&1);\nlet n = m.iter().count();\nlet l = m.len();\n";
        assert!(run(src, pass_map_order).is_empty());
    }

    #[test]
    fn for_loop_with_push_is_denied_but_map_insert_is_clean() {
        let pushy = "let m = HashMap::new();\nlet mut v = Vec::new();\nfor (k, x) in m {\n    v.push(k);\n}\n";
        let f = run(pushy, pass_map_order);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        let inserty = "let m = HashMap::new();\nlet mut d = HashMap::new();\nfor (k, x) in m {\n    d.entry(k).or_default();\n}\n";
        assert!(run(inserty, pass_map_order).is_empty());
    }

    #[test]
    fn for_loop_over_ref_and_iter_adapters() {
        let src = "let m = HashMap::new();\nlet mut acc = 0.0;\nfor v in m.values() {\n    acc += v;\n}\n";
        let f = run(src, pass_map_order);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn nested_closure_param_is_tracked() {
        let src = "struct S { windows: HashMap<u64, HashMap<u32, f64>> }\n\
                   fn f(s: &S, w: u64) -> f64 {\n\
                   s.windows.get(&w).map_or(0.0, |m| m.values().sum())\n}\n";
        let f = run(src, pass_map_order);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn vec_iteration_is_clean() {
        let src = "let xs: Vec<f64> = Vec::new();\nlet t: f64 = xs.iter().sum();\nfor x in &xs { v.push(x); }\n";
        assert!(run(src, pass_map_order).is_empty());
    }

    #[test]
    fn constant_seed_is_denied_outside_tests() {
        let src = "fn f() { let mut rng = StdRng::seed_from_u64(42); }\n";
        let f = run(src, pass_rng_discipline);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, LINT_RNG);
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { let mut rng = StdRng::seed_from_u64(42); }\n}\n";
        assert!(run(test, pass_rng_discipline).is_empty());
    }

    #[test]
    fn xor_splitting_is_denied_but_derive_is_clean() {
        let f = run(
            "fn f(seed: u64) { let rng = StdRng::seed_from_u64(seed ^ 0x55); }\n",
            pass_rng_discipline,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        let clean = "fn f(seed: u64) {\n\
                     let a = StdRng::seed_from_u64(seed::derive(seed, \"x\"));\n\
                     let b = StdRng::seed_from_u64(seed::derive_indexed(seed, \"y\", 7));\n\
                     let c = StdRng::seed_from_u64(seed);\n}\n";
        assert!(run(clean, pass_rng_discipline).is_empty());
    }

    #[test]
    fn rng_clone_is_denied() {
        let src = "fn f(rng: &mut StdRng) { let dup = rng.clone(); }\n";
        let f = run(src, pass_rng_discipline);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("duplicates"));
        let other = "fn f(cfg: &Config) { let c = cfg.clone(); }\n";
        assert!(run(other, pass_rng_discipline).is_empty());
    }

    #[test]
    fn float_accumulation_in_merge_is_denied() {
        let src = "struct S { mean: f64, n: u64 }\n\
                   impl S {\n\
                   fn merge(&mut self, o: &S) {\n\
                   self.mean += o.mean;\n\
                   self.n += o.n;\n}\n}\n";
        let f = run(src, pass_float_accumulation);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert_eq!(f[0].lint, LINT_FLOAT_ACC);
    }

    #[test]
    fn u64_accumulation_in_merge_is_clean() {
        let src = "struct S { count: u64 }\nimpl S {\nfn merge(&mut self, o: &S) { self.count += o.count; }\n}\n";
        assert!(run(src, pass_float_accumulation).is_empty());
    }

    #[test]
    fn sum_outside_merge_fn_is_clean() {
        let src = "fn total(xs: &[f64]) -> f64 { xs.iter().sum() }\n";
        assert!(run(src, pass_float_accumulation).is_empty());
    }

    #[test]
    fn ordered_merge_marker_shields_and_is_tracked() {
        let src = "struct S { mean: f64 }\n\
                   impl S {\n\
                   // via-audit: ordered-merge(pairwise Chan merge, shard-index order)\n\
                   fn merge(&mut self, o: &S) { self.mean += o.mean; }\n}\n";
        let mut out = PassOutput::default();
        file_ctx_for_test(src, SIM, |ctx| pass_float_accumulation(ctx, &mut out));
        assert!(out.findings.is_empty(), "{:?}", out.findings);
        assert_eq!(out.marker_uses, vec![3]);
    }
}
