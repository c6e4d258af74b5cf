//! The determinism lint rules.
//!
//! Every rule walks the token stream produced by [`crate::lexer`] and
//! emits [`Diag`]s with `file:line` positions. Rules deliberately
//! over-approximate: an entropy call that never feeds simulated state
//! cannot corrupt determinism, but proving that needs dataflow analysis,
//! so the rule flags the name and the author writes an explicit
//! `// simlint: allow(no-os-entropy, <reason>)` that a reviewer can
//! audit. The escape hatch *requires* a reason (see
//! [`crate::driver::parse_allows`]).
//!
//! The std-level bans (`Instant::{now, elapsed}`,
//! `SystemTime::{now, elapsed}`, `HashMap`, `HashSet`, `RandomState`)
//! are clippy's: the root `clippy.toml` lists them and `cargo clippy -D
//! warnings` checks them by type resolution, aliases and glob imports
//! included. The sink table below still feeds the call-graph taint pass.

use crate::lexer::{ident_at, text_at, Tok, TokKind};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Rule: all randomness must flow from the seeded plan.
pub const NO_OS_ENTROPY: &str = "no-os-entropy";
/// Rule: float comparisons must use a total order.
pub const TOTAL_FLOAT_ORDER: &str = "total-float-order";
/// Rule: raw numeric quantities must carry a unit suffix.
pub const UNIT_SUFFIX: &str = "unit-suffix";
/// Meta-rule: malformed or reason-less `simlint: allow` directives.
pub const ALLOW_SYNTAX: &str = "allow-syntax";
/// Rule: no wall-clock/entropy/unordered sinks transitively reachable
/// from sim-state mutation (call-graph pass, see [`crate::analysis`]).
pub const DETERMINISM_TAINT: &str = "determinism-taint";
/// Rule: no RNG draws inside scheduling-state-guarded conditionals.
pub const RNG_DRAW_DISCIPLINE: &str = "rng-draw-discipline";
/// Rule: no float reductions over non-deterministic iteration order.
pub const FLOAT_ACCUMULATION_ORDER: &str = "float-accumulation-order";
/// Meta-rule: an allow directive that suppresses nothing is an error.
pub const STALE_ALLOW: &str = "stale-allow";

/// All rules with one-line summaries, for `simlint rules` and the docs.
pub const RULES: &[(&str, &str)] = &[
    (
        NO_OS_ENTROPY,
        "forbid thread_rng/from_entropy/RandomState/OsRng — all RNG flows from the seeded plan",
    ),
    (
        TOTAL_FLOAT_ORDER,
        "forbid partial_cmp on floats — use f64::total_cmp or integer keys",
    ),
    (
        UNIT_SUFFIX,
        "raw-numeric time/byte/rate fields and params must carry _s/_bytes/_bps-style suffixes",
    ),
    (
        ALLOW_SYNTAX,
        "simlint: allow(rule, reason) directives must name a known rule and give a reason",
    ),
    (
        DETERMINISM_TAINT,
        "no wall-clock/entropy/unordered sink transitively reachable from Engine/Network/multijob sim-state mutation (reports the full call chain)",
    ),
    (
        RNG_DRAW_DISCIPLINE,
        "no RNG draws inside conditionals guarded by scheduling state — pre-draw or use a label-keyed fresh stream",
    ),
    (
        FLOAT_ACCUMULATION_ORDER,
        "no f64/f32 reductions over channel/lock/join-ordered items — collect into an indexed or sorted buffer first",
    ),
    (
        STALE_ALLOW,
        "an allow directive whose rule no longer fires on its line (or the next) must be deleted",
    ),
];

/// True when `rule` names a real (non-meta) rule.
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|(name, _)| *name == rule)
}

/// Run every rule over one file's token stream.
pub fn check_tokens(file: &str, toks: &[Tok]) -> Vec<Diag> {
    let mut diags = Vec::new();
    no_os_entropy(file, toks, &mut diags);
    total_float_order(file, toks, &mut diags);
    unit_suffix(file, toks, &mut diags);
    diags
}

fn diag(out: &mut Vec<Diag>, file: &str, line: u32, rule: &'static str, message: String) {
    out.push(Diag {
        file: file.to_string(),
        line,
        rule,
        message,
    });
}

// ---------------------------------------------------------------------
// Sink patterns of the call-graph taint pass (`crate::items` records
// them per fn body); `no-os-entropy` also matches the entropy names.
// ---------------------------------------------------------------------

/// The wall-clock sink starting at token `i`, if any: `Instant::now`,
/// `SystemTime::now`, or a `std::time` path.
pub(crate) fn wall_clock_sink(toks: &[Tok], i: usize) -> Option<&'static str> {
    let id = ident_at(toks, i)?;
    let next = |name| text_at(toks, i + 1) == Some("::") && ident_at(toks, i + 2) == Some(name);
    match id {
        "Instant" if next("now") => Some("Instant::now"),
        "SystemTime" if next("now") => Some("SystemTime::now"),
        "std" if next("time") => Some("std::time"),
        _ => None,
    }
}

/// Identifiers that draw OS entropy.
pub(crate) const ENTROPY_SINKS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "RandomState",
    "OsRng",
    "getrandom",
];

/// Identifiers of std's iteration-order-dependent hash collections.
pub(crate) const UNORDERED_SINKS: &[&str] = &["HashMap", "HashSet"];

/// `no-os-entropy`: OS randomness sources. Every random draw in the
/// simulator must come from the seeded
/// [`SeedFactory`](simcore::rng::SeedFactory) plan so a config+seed pair
/// replays bit-identically.
fn no_os_entropy(file: &str, toks: &[Tok], out: &mut Vec<Diag>) {
    for t in toks {
        if t.kind == TokKind::Ident && ENTROPY_SINKS.contains(&t.text.as_str()) {
            diag(
                out,
                file,
                t.line,
                NO_OS_ENTROPY,
                format!(
                    "{} draws OS entropy; all randomness must flow from the seeded plan \
                     (simcore::rng::SeedFactory)",
                    t.text
                ),
            );
        }
    }
}

/// `total-float-order`: calls to `partial_cmp`. On floats this either
/// panics on NaN (`.unwrap()`) or silently yields `None`-driven orderings
/// that differ by input; both wedge or skew an event heap. Use
/// `f64::total_cmp`, `simcore::order::TotalF64`, or integer keys.
/// Definitions of `fn partial_cmp` (the `PartialOrd` trait impl itself)
/// are exempt.
fn total_float_order(file: &str, toks: &[Tok], out: &mut Vec<Diag>) {
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("partial_cmp") {
            continue;
        }
        // `fn partial_cmp` — a PartialOrd impl, which is a definition,
        // not a float comparison.
        if i > 0 && text_at(toks, i - 1) == Some("fn") {
            continue;
        }
        diag(
            out,
            file,
            toks[i].line,
            TOTAL_FLOAT_ORDER,
            "partial_cmp is not a total order on floats (NaN wedges or skews the sort); \
             use f64::total_cmp or simcore::order::TotalF64"
                .into(),
        );
    }
}

// ---------------------------------------------------------------------
// unit-suffix
// ---------------------------------------------------------------------

/// Unit-bearing wrapper types; a field/param of one of these already
/// carries its unit in the type, so no name suffix is needed.
const UNIT_TYPES: &[&str] = &["SimTime", "SimDuration", "ByteSize", "Rate"];

/// Raw numeric primitives the rule applies to.
const RAW_NUMERIC: &[&str] = &[
    "f64", "f32", "u128", "u64", "u32", "u16", "u8", "usize", "i128", "i64", "i32", "i16", "i8",
    "isize",
];

const TIME_WORDS: &[&str] = &[
    "secs", "second", "seconds", "latency", "duration", "delay", "backoff", "timeout", "elapsed",
    "overhead",
];
const TIME_SUFFIXES: &[&str] = &[
    "_s", "_secs", "_seconds", "_ms", "_millis", "_us", "_micros", "_ns", "_nanos",
];
const BYTE_WORDS: &[&str] = &["bytes", "byte"];
const RATE_WORDS: &[&str] = &["rate", "rates", "bandwidth", "bps"];
const RATE_SUFFIXES: &[&str] = &["_bps", "_per_s", "_mb_s", "_gb_s", "_pct"];

/// `unit-suffix`: struct fields and fn parameters of raw numeric type
/// whose names talk about time, bytes, or rates must say which unit they
/// are in (`_s`, `_bytes`, `_bps`, ...). Ambiguous units were the class
/// of bug behind Hadoop's ms-vs-s config knobs; in a simulator they also
/// silently break calibration.
fn unit_suffix(file: &str, toks: &[Tok], out: &mut Vec<Diag>) {
    for (name_tok, ty) in struct_fields(toks).into_iter().chain(fn_params(toks)) {
        if ty.iter().any(|t| UNIT_TYPES.contains(&t.as_str())) {
            continue;
        }
        if !ty.iter().any(|t| RAW_NUMERIC.contains(&t.as_str())) {
            continue;
        }
        let name = name_tok.text.as_str();
        let words: Vec<&str> = name.split('_').collect();
        let bad = if words.iter().any(|w| TIME_WORDS.contains(w)) || name.ends_with("_time") {
            (!TIME_SUFFIXES.iter().any(|s| name.ends_with(s)))
                .then_some(("time", "_s (or _ms/_us/_ns)"))
        } else if words.iter().any(|w| BYTE_WORDS.contains(w)) {
            (!(name.ends_with("_bytes") || name == "bytes")).then_some(("byte", "_bytes"))
        } else if words.iter().any(|w| RATE_WORDS.contains(w)) {
            (!(RATE_SUFFIXES.iter().any(|s| name.ends_with(s)) || name == "bps"))
                .then_some(("rate", "_bps (bytes/s) or _per_s"))
        } else {
            None
        };
        if let Some((kind, suffix)) = bad {
            diag(
                out,
                file,
                name_tok.line,
                UNIT_SUFFIX,
                format!(
                    "`{name}` looks like a {kind} quantity in a raw numeric type; suffix it \
                     with {suffix} or use a typed unit (SimTime/SimDuration/ByteSize/Rate)"
                ),
            );
        }
    }
}

/// Net bracket-depth delta of a token, counting `()[]{}` and `<>`.
/// Angle brackets are only unambiguous inside type positions, which is
/// the only place this helper runs.
fn depth_delta(t: &Tok) -> i32 {
    if t.kind != TokKind::Punct {
        return 0;
    }
    match t.text.as_str() {
        "(" | "[" | "{" | "<" => 1,
        ")" | "]" | "}" | ">" => -1,
        _ => 0,
    }
}

/// Extract `(name token, type tokens)` for every named struct field.
fn struct_fields(toks: &[Tok]) -> Vec<(Tok, Vec<String>)> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) != Some("struct") {
            i += 1;
            continue;
        }
        // struct Name <generics>? { ... }  — skip tuple/unit structs.
        let mut j = i + 2; // past `struct Name`
        let mut angle = 0i32;
        while j < toks.len() {
            match text_at(toks, j) {
                Some("<") => angle += 1,
                Some(">") => angle -= 1,
                Some("{") if angle == 0 => break,
                Some("(") | Some(";") if angle == 0 => {
                    j = toks.len(); // tuple or unit struct: no named fields
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            i += 1;
            continue;
        }
        // Inside the braces: entries are `[attrs] [pub[(..)]] name: Type,`.
        let mut k = j + 1;
        let mut depth = 1i32;
        while k < toks.len() && depth > 0 {
            let t = &toks[k];
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    k += 1;
                    continue;
                }
                "}" => {
                    depth -= 1;
                    k += 1;
                    continue;
                }
                "#" if depth == 1 => {
                    // Attribute: skip the balanced [...] group.
                    k += 1;
                    if text_at(toks, k) == Some("[") {
                        let mut d = 0i32;
                        while k < toks.len() {
                            d += depth_delta(&toks[k]);
                            k += 1;
                            if d == 0 {
                                break;
                            }
                        }
                    }
                    continue;
                }
                _ => {}
            }
            if depth == 1
                && t.kind == TokKind::Ident
                && t.text != "pub"
                && text_at(toks, k + 1) == Some(":")
            {
                // Field: collect the type until a top-level `,` or the
                // closing `}`.
                let name = t.clone();
                let mut ty = Vec::new();
                let mut m = k + 2;
                let mut d = 0i32;
                while m < toks.len() {
                    let tt = &toks[m];
                    if d == 0 && (tt.text == "," || tt.text == "}") {
                        break;
                    }
                    d += depth_delta(tt);
                    ty.push(tt.text.clone());
                    m += 1;
                }
                fields.push((name, ty));
                k = m;
                continue;
            }
            k += 1;
        }
        i = k;
    }
    fields
}

/// Extract `(name token, type tokens)` for every fn parameter.
fn fn_params(toks: &[Tok]) -> Vec<(Tok, Vec<String>)> {
    let mut params = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) != Some("fn") || ident_at(toks, i + 1).is_none() {
            i += 1;
            continue;
        }
        // fn name <generics>? ( params )
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < toks.len() {
            match text_at(toks, j) {
                Some("<") => angle += 1,
                Some(">") => angle -= 1,
                Some("(") if angle == 0 => break,
                Some("{") | Some(";") if angle == 0 => {
                    j = toks.len();
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            i += 1;
            continue;
        }
        // Split the parameter list on top-level commas.
        let mut k = j + 1;
        let mut d = 1i32;
        let mut cur: Vec<Tok> = Vec::new();
        let mut groups: Vec<Vec<Tok>> = Vec::new();
        while k < toks.len() && d > 0 {
            let t = &toks[k];
            let delta = depth_delta(t);
            if t.text == ")" && d == 1 {
                break;
            }
            if t.text == "," && d == 1 {
                groups.push(std::mem::take(&mut cur));
            } else {
                cur.push(t.clone());
            }
            d += delta;
            k += 1;
        }
        if !cur.is_empty() {
            groups.push(cur);
        }
        for g in groups {
            // Name = last ident before the first top-level `:`; skip
            // `self` receivers and destructuring patterns.
            let Some(colon) = g.iter().position(|t| t.text == ":") else {
                continue;
            };
            let before = &g[..colon];
            if before.iter().any(|t| t.text == "self") {
                continue;
            }
            let Some(name) = before
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident && t.text != "mut")
            else {
                continue;
            };
            let ty: Vec<String> = g[colon + 1..].iter().map(|t| t.text.clone()).collect();
            params.push((name.clone(), ty));
        }
        i = k;
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Diag> {
        check_tokens("test.rs", &lex(src).0)
    }

    fn rules_of(diags: &[Diag]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn os_entropy_trips() {
        let d = run("let mut rng = rand::thread_rng();");
        assert_eq!(rules_of(&d), vec![NO_OS_ENTROPY]);
    }

    #[test]
    fn partial_cmp_call_trips_but_impl_does_not() {
        let d = run("xs.sort_by(|a, b| a.partial_cmp(b).unwrap());");
        assert_eq!(rules_of(&d), vec![TOTAL_FLOAT_ORDER]);
        let d = run("impl PartialOrd for T { fn partial_cmp(&self, o: &T) -> Option<Ordering> { Some(self.cmp(o)) } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unit_suffix_fields_and_params() {
        // Bad: raw f64 latency with no suffix.
        let d = run("struct P { fetch_latency: f64 }");
        assert_eq!(rules_of(&d), vec![UNIT_SUFFIX]);
        // Good: suffixed, or typed.
        assert!(run("struct P { fetch_latency_s: f64 }").is_empty());
        assert!(run("struct P { fetch_latency: SimDuration }").is_empty());
        // Params.
        let d = run("fn go(timeout: u64) {}");
        assert_eq!(rules_of(&d), vec![UNIT_SUFFIX]);
        assert!(run("fn go(timeout_ms: u64) {}").is_empty());
        // Bytes and rates.
        assert_eq!(
            rules_of(&run("struct S { spill_byte_count: u64 }")),
            vec![UNIT_SUFFIX]
        );
        assert!(run("struct S { spill_bytes: u64 }").is_empty());
        assert_eq!(rules_of(&run("struct S { rate: f64 }")), vec![UNIT_SUFFIX]);
        assert!(run("struct S { rate_bps: f64 }").is_empty());
        // Unrelated names never trip (no substring matching).
        assert!(run("struct S { accurate: f64, iterate: u32, generated: u64 }").is_empty());
    }

    #[test]
    fn unit_suffix_skips_self_and_patterns() {
        assert!(run("impl T { fn f(&mut self, work: f64) {} }").is_empty());
        assert!(run("fn f((a, b): (u64, u64)) {}").is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip() {
        assert!(run("// HashMap Instant::now thread_rng\nlet s = \"partial_cmp\";").is_empty());
    }
}
