//! The semantic (program-wide) determinism passes.
//!
//! Where [`crate::rules`] matches single tokens, the passes here reason
//! over the item structure recovered by [`crate::items`]:
//!
//! * **`determinism-taint`** — builds a cross-crate call graph and
//!   walks it from every sim-state mutator (methods of `Engine` and
//!   `Network`, and everything in a `multijob` file such as
//!   `crates/core/src/multijob.rs`). Any function those
//!   mutators can transitively reach must not contain a wall-clock,
//!   OS-entropy, or unordered-iteration sink; the diagnostic carries
//!   the *full call chain*, not just the leaf.
//! * **`rng-draw-discipline`** — flags RNG draws from a long-lived
//!   generator inside conditionals whose guards mention scheduling
//!   state. Such a draw's *count* depends on the schedule, so adding a
//!   tenant or reordering slots silently shifts every later draw.
//!   Draws from a freshly label-keyed stream (`seeds.stream(..)`,
//!   `SplitMix64::new(seed_for(..))`) in the same statement are exempt:
//!   that is exactly the pre-drawn discipline the runtime uses.
//! * **`float-accumulation-order`** — flags `f64`/`f32` reductions
//!   (`sum`/`product`/`fold`, or `+=` in a loop) whose iteration source
//!   is not provably order-deterministic: channel receives, lock-order
//!   gathers, thread joins. Float addition does not commute in
//!   rounding, so a schedule-dependent order is a schedule-dependent
//!   result.
//!
//! Call resolution is deliberately an over-approximation (no type
//! inference): a method call `.step(...)` resolves to every workspace
//! `fn step` defined in an impl, a qualified `Engine::step(...)` to
//! impls of `Engine`, a bare `helper(...)` to same-file free fns first.
//! False chains are possible and are silenced with an audited
//! `// simlint: allow(determinism-taint, <why>)` at the sink.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::FileItems;
use crate::lexer::{Tok, TokKind};
use crate::rules::{Diag, DETERMINISM_TAINT, FLOAT_ACCUMULATION_ORDER, RNG_DRAW_DISCIPLINE};

/// One parsed file handed to the program-wide passes.
#[derive(Debug)]
pub struct ProgramFile<'a> {
    /// Diagnostic path.
    pub name: &'a str,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Parsed items.
    pub items: FileItems,
}

/// Owner types whose methods mutate sim state and therefore root the
/// taint walk.
const ROOT_OWNERS: &[&str] = &["Engine", "Network"];

/// Path fragments that root every fn in the file (the multi-tenant
/// job-stream driver, `crates/core/src/multijob.rs`).
const ROOT_PATH_FRAGMENTS: &[&str] = &["multijob"];

/// Run every semantic pass over the whole program.
pub fn check_program(files: &[ProgramFile<'_>], out: &mut Vec<Diag>) {
    determinism_taint(files, out);
    rng_draw_discipline(files, out);
    float_accumulation_order(files, out);
}

// ---------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------

/// Global function id: (file index, fn index within the file).
type FnId = (usize, usize);

fn fn_display(files: &[ProgramFile<'_>], id: FnId) -> String {
    let f = &files[id.0].items.fns[id.1];
    match &f.owner {
        Some(o) => format!("{}::{}", o, f.name),
        None => f.name.clone(),
    }
}

fn fn_location(files: &[ProgramFile<'_>], id: FnId) -> String {
    let f = &files[id.0].items.fns[id.1];
    format!("{}:{}", files[id.0].name, f.line)
}

/// Resolve one call site to candidate definitions. Over-approximates;
/// see the module docs.
fn resolve(
    files: &[ProgramFile<'_>],
    by_name: &BTreeMap<&str, Vec<FnId>>,
    caller_file: usize,
    call: &crate::items::Call,
) -> Vec<FnId> {
    let Some(cands) = by_name.get(call.name.as_str()) else {
        return Vec::new();
    };
    let owner_of = |id: &FnId| files[id.0].items.fns[id.1].owner.as_deref();
    if call.method {
        // `.name(...)`: any impl/trait method of that name.
        return cands
            .iter()
            .filter(|id| owner_of(id).is_some())
            .copied()
            .collect();
    }
    if let Some(q) = &call.qualifier {
        // `Q::name(...)`: impls of Q, plus free fns in a module named q.
        let mut v: Vec<FnId> = cands
            .iter()
            .filter(|id| owner_of(id) == Some(q.as_str()))
            .copied()
            .collect();
        let modpath = format!("/{}.", to_snake(q));
        v.extend(cands.iter().filter(|id| {
            owner_of(id).is_none()
                && (files[id.0].name.contains(&modpath)
                    || files[id.0].name.contains(&format!("/{}/", to_snake(q))))
        }));
        v.sort_unstable();
        v.dedup();
        return v;
    }
    // Bare `name(...)`: free fns in the same file win; otherwise any
    // free fn of that name (visible via `use`).
    let same_file: Vec<FnId> = cands
        .iter()
        .filter(|id| id.0 == caller_file && owner_of(id).is_none())
        .copied()
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    cands
        .iter()
        .filter(|id| owner_of(id).is_none())
        .copied()
        .collect()
}

/// Lower-cases a type name into its conventional module name
/// (`FairshareSolver` → `fairshare_solver`).
fn to_snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.extend(c.to_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

fn determinism_taint(files: &[ProgramFile<'_>], out: &mut Vec<Diag>) {
    // Function index by simple name.
    let mut by_name: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.items.fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push((fi, gi));
        }
    }

    // Roots: sim-state mutators, in (file, line) order for determinism.
    let mut roots: Vec<FnId> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        let rooted_file = ROOT_PATH_FRAGMENTS.iter().any(|p| file.name.contains(p));
        for (gi, f) in file.items.fns.iter().enumerate() {
            let rooted =
                rooted_file || f.owner.as_deref().is_some_and(|o| ROOT_OWNERS.contains(&o));
            if rooted {
                roots.push((fi, gi));
            }
        }
    }

    // BFS over the call graph, remembering the discovery parent so the
    // diagnostic can print the whole chain.
    let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<FnId> = std::collections::VecDeque::new();
    for r in &roots {
        if !parent.contains_key(r) {
            parent.insert(*r, None);
            queue.push_back(*r);
        }
    }
    let mut reported: BTreeSet<(FnId, u32, String)> = BTreeSet::new();
    while let Some(id) = queue.pop_front() {
        let def = &files[id.0].items.fns[id.1];
        for sink in &def.sinks {
            if !reported.insert((id, sink.line, sink.what.clone())) {
                continue;
            }
            // Reconstruct root -> ... -> sink fn.
            let mut chain = vec![id];
            while let Some(Some(p)) = parent.get(chain.last().unwrap()) {
                chain.push(*p);
            }
            chain.reverse();
            let rendered: Vec<String> = chain
                .iter()
                .map(|c| format!("{} ({})", fn_display(files, *c), fn_location(files, *c)))
                .collect();
            out.push(Diag {
                file: files[id.0].name.to_string(),
                line: sink.line,
                rule: DETERMINISM_TAINT,
                message: format!(
                    "sim-state mutator `{}` transitively reaches {} ({}): {} -> {}",
                    fn_display(files, chain[0]),
                    sink.what,
                    sink.kind,
                    rendered.join(" -> "),
                    sink.what,
                ),
            });
        }
        for call in &def.calls {
            for target in resolve(files, &by_name, id.0, call) {
                if target == id {
                    continue; // self-recursion adds nothing to a chain
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(target) {
                    e.insert(Some(id));
                    queue.push_back(target);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// rng-draw-discipline
// ---------------------------------------------------------------------

/// Method names that advance a generator.
const DRAW_METHODS: &[&str] = &[
    "next_u64",
    "next_f64",
    "next_below",
    "next_int",
    "next_int_bound",
    "next_long",
    "next_double",
    "next_boolean",
    "fill_bytes",
    "gen",
    "gen_range",
    "sample",
];

/// Identifier words that signal scheduling state in a guard.
const SCHED_WORDS: &[&str] = &[
    "slot",
    "slots",
    "running",
    "outstanding",
    "pending",
    "queue",
    "queued",
    "ready",
    "inflight",
    "scheduled",
    "backlog",
    "arbiter",
];

/// A statement that constructs its generator from the seed plan right
/// where it draws is schedule-independent by construction.
const FRESH_SOURCES: &[&str] = &[
    "stream",
    "seed_for",
    "SplitMix64",
    "Xoshiro256pp",
    "JavaRandom",
];

fn ident_words_match(id: &str, words: &[&'static str]) -> Option<&'static str> {
    for w in id.split('_') {
        if let Some(hit) = words.iter().find(|s| **s == w) {
            return Some(hit);
        }
    }
    None
}

/// Scan one guard expression (`if`/`while` condition, `match`
/// scrutinee, `for` iterated expression) from `i` to its opening `{` at
/// paren depth 0. Returns (matched scheduling word if any, index of the
/// brace).
fn scan_guard(toks: &[Tok], mut i: usize) -> (Option<&'static str>, usize) {
    let mut depth = 0i32;
    let mut hit = None;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
            (TokKind::Punct, "{") if depth <= 0 => return (hit, i),
            (TokKind::Punct, ";") if depth <= 0 => return (hit, i), // `for` headers never hit this; defensive
            (TokKind::Ident, id) if hit.is_none() => {
                hit = ident_words_match(id, SCHED_WORDS);
            }
            _ => {}
        }
        i += 1;
    }
    (hit, i)
}

/// The statement token window around index `i`: back to the previous
/// `;`/`{`/`}` and forward to the next one.
fn statement_window(toks: &[Tok], i: usize, lo: usize, hi: usize) -> (usize, usize) {
    let boundary = |t: &Tok| t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}");
    let mut a = i;
    while a > lo && !boundary(&toks[a - 1]) {
        a -= 1;
    }
    let mut b = i;
    while b + 1 < hi && !boundary(&toks[b + 1]) {
        b += 1;
    }
    (a, b + 1)
}

fn rng_draw_discipline(files: &[ProgramFile<'_>], out: &mut Vec<Diag>) {
    for file in files {
        for def in &file.items.fns {
            let (lo, hi) = def.body;
            let hi = hi.min(file.toks.len());
            // Stack of enclosing blocks: Some(word) when the block is
            // guarded by scheduling state.
            let mut stack: Vec<Option<&'static str>> = Vec::new();
            let mut pending: Option<Option<&'static str>> = None;
            let mut last_if: Option<&'static str> = None;
            let mut i = lo;
            while i < hi {
                let t = &file.toks[i];
                match (t.kind, t.text.as_str()) {
                    (TokKind::Punct, "{") => {
                        stack.push(pending.take().unwrap_or(None));
                        i += 1;
                    }
                    (TokKind::Punct, "}") => {
                        stack.pop();
                        i += 1;
                    }
                    (TokKind::Ident, "if")
                    | (TokKind::Ident, "while")
                    | (TokKind::Ident, "match") => {
                        let carried = if t.text == "if" { last_if } else { None };
                        let (hit, brace) = scan_guard(file.toks, i + 1);
                        let flag = hit.or(carried);
                        if t.text == "if" {
                            last_if = flag;
                        }
                        pending = Some(flag);
                        i = brace.max(i + 1);
                    }
                    (TokKind::Ident, "for") => {
                        // `for pat in expr {` — scan from `in`.
                        let mut j = i + 1;
                        while j < hi
                            && !(file.toks[j].kind == TokKind::Ident && file.toks[j].text == "in")
                        {
                            if file.toks[j].kind == TokKind::Punct && file.toks[j].text == "{" {
                                break;
                            }
                            j += 1;
                        }
                        let (hit, brace) = scan_guard(file.toks, j + 1);
                        pending = Some(hit);
                        i = brace.max(i + 1);
                    }
                    (TokKind::Ident, "else") => {
                        // `else {` inherits the sibling if's guard: the
                        // not-taken branch is just as schedule-dependent.
                        if matches!(file.toks.get(i + 1), Some(n) if n.text == "{") {
                            pending = Some(last_if);
                        }
                        i += 1;
                    }
                    (TokKind::Ident, id)
                        if DRAW_METHODS.contains(&id)
                            && i > 0
                            && file.toks[i - 1].text == "."
                            && matches!(file.toks.get(i + 1), Some(n) if n.text == "(") =>
                    {
                        let guard = stack.iter().rev().flatten().next();
                        if let Some(word) = guard {
                            let (a, b) = statement_window(file.toks, i, lo, hi);
                            let fresh = file.toks[a..b].iter().any(|t| {
                                t.kind == TokKind::Ident && FRESH_SOURCES.contains(&t.text.as_str())
                            });
                            if !fresh {
                                out.push(Diag {
                                    file: file.name.to_string(),
                                    line: t.line,
                                    rule: RNG_DRAW_DISCIPLINE,
                                    message: format!(
                                        "RNG draw `.{id}()` sits inside a conditional guarded by \
                                         scheduling state (`{word}`): the draw count now depends \
                                         on the schedule, shifting every later draw. Pre-draw \
                                         outside the guard or use a label-keyed fresh stream \
                                         (seeds.stream(..)) in this statement"
                                    ),
                                });
                            }
                        }
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// float-accumulation-order
// ---------------------------------------------------------------------

/// Iteration sources whose order is not provably deterministic:
/// channel receives, lock-acquisition gathers, thread joins, parallel
/// iterators.
const UNORDERED_SOURCES: &[&str] = &[
    "recv",
    "try_recv",
    "recv_timeout",
    "try_iter",
    "lock",
    "join",
    "par_iter",
    "into_par_iter",
    "par_bridge",
];

/// True when the statement window contains float evidence: an `f64`/
/// `f32` type token or a float literal.
fn floaty(toks: &[Tok]) -> bool {
    toks.iter().any(|t| match t.kind {
        TokKind::Ident => t.text == "f64" || t.text == "f32",
        TokKind::Literal => {
            !t.text.starts_with("0x") && (t.text.contains('.') || t.text.contains('e'))
        }
        _ => false,
    })
}

fn float_accumulation_order(files: &[ProgramFile<'_>], out: &mut Vec<Diag>) {
    for file in files {
        for def in &file.items.fns {
            let (lo, hi) = def.body;
            let hi = hi.min(file.toks.len());
            // Blocks whose loop header iterates an unordered source.
            let mut stack: Vec<Option<&'static str>> = Vec::new();
            let mut pending: Option<Option<&'static str>> = None;
            let mut i = lo;
            while i < hi {
                let t = &file.toks[i];
                match (t.kind, t.text.as_str()) {
                    (TokKind::Punct, "{") => {
                        stack.push(pending.take().unwrap_or(None));
                        i += 1;
                    }
                    (TokKind::Punct, "}") => {
                        stack.pop();
                        i += 1;
                    }
                    (TokKind::Ident, "for") | (TokKind::Ident, "while") => {
                        let (hit, brace) = scan_loop_header(file.toks, i + 1);
                        pending = Some(hit);
                        i = brace.max(i + 1);
                    }
                    // Reduction method in a statement that also touches
                    // an unordered source.
                    (TokKind::Ident, m @ ("sum" | "product" | "fold"))
                        if i > 0
                            && file.toks[i - 1].text == "."
                            && matches!(file.toks.get(i + 1), Some(n) if n.text == "(" || n.text == "::") =>
                    {
                        let (a, b) = statement_window(file.toks, i, lo, hi);
                        let window = &file.toks[a..b];
                        let src = window.iter().find_map(|t| {
                            (t.kind == TokKind::Ident)
                                .then(|| UNORDERED_SOURCES.iter().find(|s| **s == t.text))
                                .flatten()
                        });
                        if let Some(src) = src {
                            if floaty(window) {
                                out.push(Diag {
                                    file: file.name.to_string(),
                                    line: t.line,
                                    rule: FLOAT_ACCUMULATION_ORDER,
                                    message: format!(
                                        "float `.{m}()` reduction over a `{src}`-ordered source: \
                                         float addition does not commute in rounding, so a \
                                         schedule-dependent order is a schedule-dependent result. \
                                         Collect into an indexed/sorted buffer first"
                                    ),
                                });
                            }
                        }
                        i += 1;
                    }
                    // `+=` accumulation inside a loop over an unordered
                    // source.
                    (TokKind::Punct, "+") if matches!(file.toks.get(i + 1), Some(n) if n.text == "=") =>
                    {
                        if let Some(src) = stack.iter().rev().flatten().next() {
                            let (a, b) = statement_window(file.toks, i, lo, hi);
                            if floaty(&file.toks[a..b]) {
                                out.push(Diag {
                                    file: file.name.to_string(),
                                    line: t.line,
                                    rule: FLOAT_ACCUMULATION_ORDER,
                                    message: format!(
                                        "float `+=` accumulation inside a loop over a \
                                         `{src}`-ordered source: iteration order is not provably \
                                         deterministic. Collect into an indexed/sorted buffer \
                                         before accumulating"
                                    ),
                                });
                            }
                        }
                        i += 2;
                    }
                    _ => i += 1,
                }
            }
        }
    }
}

/// Scan a `for`/`while` header to its `{`, looking for an unordered
/// source. `for pat in expr {` — everything between the keyword and the
/// brace is scanned, which over-covers the pattern; patterns cannot
/// call `.recv()` so this is harmless.
fn scan_loop_header(toks: &[Tok], mut i: usize) -> (Option<&'static str>, usize) {
    let mut depth = 0i32;
    let mut hit = None;
    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
            (TokKind::Punct, "{") if depth <= 0 => return (hit, i),
            (TokKind::Ident, id) if hit.is_none() => {
                hit = UNORDERED_SOURCES.iter().find(|s| **s == id).copied();
            }
            _ => {}
        }
        i += 1;
    }
    (hit, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use crate::lexer::lex;

    fn run(srcs: &[(&str, &str)]) -> Vec<Diag> {
        let lexed: Vec<(usize, Vec<Tok>)> = srcs
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (i, lex(s).0))
            .collect();
        let files: Vec<ProgramFile<'_>> = lexed
            .iter()
            .map(|(i, toks)| ProgramFile {
                name: srcs[*i].0,
                toks,
                items: parse_file(toks),
            })
            .collect();
        let mut out = Vec::new();
        check_program(&files, &mut out);
        out
    }

    #[test]
    fn indirect_wall_clock_two_calls_below_engine_step_is_caught_with_chain() {
        let src = "\
struct Engine;
impl Engine {
    pub fn step(&mut self) { advance_clock(); }
}
fn advance_clock() { read_time(); }
fn read_time() -> u64 { let t = Instant::now(); 0 }
";
        let d = run(&[("eng.rs", src)]);
        let taint: Vec<_> = d.iter().filter(|d| d.rule == DETERMINISM_TAINT).collect();
        assert_eq!(taint.len(), 1, "{d:?}");
        let msg = &taint[0].message;
        for part in ["Engine::step", "advance_clock", "read_time", "Instant::now"] {
            assert!(msg.contains(part), "missing {part} in: {msg}");
        }
        assert_eq!(taint[0].line, 6);
    }

    #[test]
    fn taint_crosses_files_via_qualified_calls() {
        let a = "struct Network;\nimpl Network { pub fn advance(&mut self) { util::sample(); } }";
        let b = "pub fn sample() { let r = thread_rng(); }";
        let d = run(&[("net.rs", a), ("crates/x/src/util.rs", b)]);
        let taint: Vec<_> = d.iter().filter(|d| d.rule == DETERMINISM_TAINT).collect();
        assert_eq!(taint.len(), 1, "{d:?}");
        assert!(taint[0].message.contains("Network::advance"));
        assert!(taint[0].message.contains("OS entropy"));
        assert_eq!(taint[0].file, "crates/x/src/util.rs");
    }

    #[test]
    fn unreachable_sinks_do_not_taint() {
        let src = "\
struct Engine;
impl Engine { pub fn step(&mut self) { fine(); } }
fn fine() -> u64 { 1 }
fn never_called_from_sim() { let t = Instant::now(); }
";
        let d = run(&[("eng.rs", src)]);
        assert!(d.iter().all(|d| d.rule != DETERMINISM_TAINT), "{d:?}");
    }

    #[test]
    fn multijob_files_root_the_walk() {
        let src = "pub fn run() { helper(); }\nfn helper() { let t = SystemTime::now(); }";
        let d = run(&[("crates/core/src/multijob.rs", src)]);
        // Every fn in a multijob file is a root, so the nearest root
        // (`helper` itself) heads the chain.
        assert!(
            d.iter().any(|d| d.rule == DETERMINISM_TAINT
                && d.message.contains("helper")
                && d.message.contains("SystemTime::now")),
            "{d:?}"
        );
    }

    #[test]
    fn rng_draw_in_sched_guard_fires() {
        let src = "\
fn maybe(rng: &mut X, slots_free: usize) -> f64 {
    if slots_free > 0 { return rng.next_f64(); }
    0.0
}
";
        let d = run(&[("a.rs", src)]);
        let hits: Vec<_> = d.iter().filter(|d| d.rule == RNG_DRAW_DISCIPLINE).collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert!(hits[0].message.contains("slots"));
    }

    #[test]
    fn rng_draw_in_else_branch_of_sched_guard_fires() {
        let src = "\
fn maybe(rng: &mut X, pending: usize) -> f64 {
    if pending == 0 { 0.0 } else { rng.next_f64() }
}
";
        let d = run(&[("a.rs", src)]);
        assert_eq!(
            d.iter().filter(|d| d.rule == RNG_DRAW_DISCIPLINE).count(),
            1,
            "{d:?}"
        );
    }

    #[test]
    fn fresh_labelled_stream_draw_is_exempt() {
        let src = "\
fn jitter(seeds: &SeedFactory, slots_free: usize) -> f64 {
    if slots_free > 0 { return seeds.stream(\"jitter\").next_f64(); }
    0.0
}
";
        let d = run(&[("a.rs", src)]);
        assert!(d.iter().all(|d| d.rule != RNG_DRAW_DISCIPLINE), "{d:?}");
    }

    #[test]
    fn unguarded_draws_and_non_sched_guards_are_fine() {
        let src = "\
fn ok(rng: &mut X, n_jobs: usize) -> f64 {
    let a = rng.next_f64();
    if n_jobs > 3 { return rng.next_f64(); }
    a
}
";
        let d = run(&[("a.rs", src)]);
        assert!(d.iter().all(|d| d.rule != RNG_DRAW_DISCIPLINE), "{d:?}");
    }

    #[test]
    fn float_sum_over_channel_fires() {
        let src = "fn total(rx: &Receiver<f64>) -> f64 { rx.try_iter().sum::<f64>() }";
        let d = run(&[("a.rs", src)]);
        let hits: Vec<_> = d
            .iter()
            .filter(|d| d.rule == FLOAT_ACCUMULATION_ORDER)
            .collect();
        assert_eq!(hits.len(), 1, "{d:?}");
        assert!(hits[0].message.contains("try_iter"));
    }

    #[test]
    fn float_plus_eq_in_recv_loop_fires() {
        let src = "\
fn drain(rx: &Receiver<f64>) -> f64 {
    let mut total_s = 0.0;
    while let Ok(v) = rx.recv() { total_s += v * 1.0; }
    total_s
}
";
        let d = run(&[("a.rs", src)]);
        assert_eq!(
            d.iter()
                .filter(|d| d.rule == FLOAT_ACCUMULATION_ORDER)
                .count(),
            1,
            "{d:?}"
        );
    }

    #[test]
    fn ordered_float_sums_are_fine() {
        let src = "\
fn ok(xs: &[f64]) -> f64 {
    let a: f64 = xs.iter().sum();
    let b = xs.iter().cloned().fold(0.0f64, f64::max);
    let mut c = 0.0;
    for x in xs { c += *x; }
    a + b + c
}
";
        let d = run(&[("a.rs", src)]);
        assert!(
            d.iter().all(|d| d.rule != FLOAT_ACCUMULATION_ORDER),
            "{d:?}"
        );
    }

    #[test]
    fn integer_sums_over_channels_are_fine() {
        let src = "fn total(rx: &Receiver<u64>) -> u64 { rx.try_iter().sum::<u64>() }";
        let d = run(&[("a.rs", src)]);
        assert!(
            d.iter().all(|d| d.rule != FLOAT_ACCUMULATION_ORDER),
            "{d:?}"
        );
    }
}
