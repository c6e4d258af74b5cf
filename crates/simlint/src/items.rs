//! Item-granularity parsing on top of the token [`crate::lexer`].
//!
//! This is the front half of simlint's semantic analyzer: it walks a
//! file's token stream once and recovers the *items* the dataflow
//! passes need — `fn` definitions (with their owning `impl`/`trait`
//! type), the calls and determinism *sinks* inside each body, and the
//! file's `use ... as ...` aliases for workspace-internal name
//! resolution. It is still not a Rust front-end: types are never
//! resolved, and calls are recorded as `(qualifier, name)` pairs that
//! [`crate::analysis`] matches against the workspace's own definitions
//! with documented over-approximation.

use crate::lexer::{ident_at, text_at, Tok, TokKind};
use crate::rules::{wall_clock_sink, ENTROPY_SINKS, UNORDERED_SINKS};

/// A determinism sink inside a function body: a token pattern that the
/// leaf rules forbid, matched with their own patterns (`crate::rules`) so
/// the call-graph pass can report *reaching* one transitively.
#[derive(Clone, Debug)]
pub struct Sink {
    /// 1-based line of the sink.
    pub line: u32,
    /// The offending token text (e.g. `Instant::now`).
    pub what: String,
    /// Sink family: `"wall clock"`, `"OS entropy"`, or
    /// `"unordered iteration"`.
    pub kind: &'static str,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Last path segment before the called name (`Engine` in
    /// `Engine::step(...)`), after `use`-alias substitution. `None` for
    /// bare calls and method calls.
    pub qualifier: Option<String>,
    /// Called name.
    pub name: String,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// 1-based line of the call.
    pub line: u32,
}

/// One `fn` definition.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// The `impl`/`trait` type the fn is defined on, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token-index range of the body, including both braces.
    pub body: (usize, usize),
    /// Calls made inside the body (innermost-fn attribution: a nested
    /// fn's calls belong to the nested fn, a closure's to its owner).
    pub calls: Vec<Call>,
    /// Determinism sinks inside the body.
    pub sinks: Vec<Sink>,
}

/// Everything the semantic passes need from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// Function definitions, in source order.
    pub fns: Vec<FnDef>,
    /// `use foo::Bar as Baz` aliases, as (local, target-last-segment).
    pub aliases: Vec<(String, String)>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "fn", "move", "else", "unsafe", "as",
    "let", "mut", "ref", "pub", "where", "impl", "dyn", "use",
];

/// What an opening brace is about to open.
#[derive(Clone, Debug)]
enum Scope {
    /// `impl Type { ... }` or `trait Name { ... }` body.
    Owner(String),
    /// A fn body; the payload indexes `FileItems::fns`.
    Fn(usize),
    /// Any other block.
    Plain,
}

/// Parse one file's token stream into items.
pub fn parse_file(toks: &[Tok]) -> FileItems {
    let mut out = FileItems::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Scope> = None;
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => {
                stack.push(pending.take().unwrap_or(Scope::Plain));
                i += 1;
            }
            (TokKind::Punct, "}") => {
                if let Some(Scope::Fn(idx)) = stack.last() {
                    out.fns[*idx].body.1 = i + 1;
                }
                stack.pop();
                i += 1;
            }
            (TokKind::Ident, "use") if at_item_position(toks, i) => {
                i = parse_use(toks, i + 1, &mut out.aliases);
            }
            (TokKind::Ident, "impl") => {
                let (owner, next) = parse_impl_header(toks, i + 1);
                pending = Some(Scope::Owner(owner.unwrap_or_default()));
                i = next;
            }
            (TokKind::Ident, "trait") => {
                let owner = ident_at(toks, i + 1).unwrap_or_default().to_string();
                pending = Some(Scope::Owner(owner));
                i = skip_to_body_or_semi(toks, i + 1);
            }
            (TokKind::Ident, "fn") => {
                let Some(name) = ident_at(toks, i + 1) else {
                    // `fn(...)` pointer type, not a definition.
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let line = t.line;
                let next = skip_to_body_or_semi(toks, i + 2);
                if text_at(toks, next) == Some("{") {
                    let owner = stack.iter().rev().find_map(|s| match s {
                        Scope::Owner(o) if !o.is_empty() => Some(o.clone()),
                        _ => None,
                    });
                    let idx = out.fns.len();
                    out.fns.push(FnDef {
                        name,
                        owner,
                        line,
                        body: (next, toks.len()),
                        calls: Vec::new(),
                        sinks: Vec::new(),
                    });
                    pending = Some(Scope::Fn(idx));
                }
                i = next;
            }
            (TokKind::Ident, _) => {
                // Inside a fn body: record calls and sinks, attributed to
                // the innermost enclosing fn.
                if let Some(fn_idx) = innermost_fn(&stack) {
                    record_call_or_sink(toks, i, &mut out, fn_idx);
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    // Unterminated bodies (should not happen on real code) close at EOF.
    out
}

/// True when `use` at `i` starts an item (not e.g. a field named `use`,
/// which is not valid Rust anyway — this guards macro-ish token soup).
fn at_item_position(toks: &[Tok], i: usize) -> bool {
    i == 0
        || matches!(
            text_at(toks, i - 1),
            Some(";") | Some("{") | Some("}") | Some("pub") | Some(")")
        )
}

/// Parse a `use` tree starting after the `use` keyword; returns the
/// index past the terminating `;`. Collects `X as Y` aliases.
fn parse_use(toks: &[Tok], mut i: usize, aliases: &mut Vec<(String, String)>) -> usize {
    let mut prev_ident: Option<String> = None;
    while i < toks.len() {
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, ";") => return i + 1,
            (TokKind::Ident, "as") => {
                if let (Some(target), Some(local)) = (prev_ident.clone(), ident_at(toks, i + 1)) {
                    aliases.push((local.to_string(), target));
                }
                i += 2;
            }
            (TokKind::Ident, id) => {
                prev_ident = Some(id.to_string());
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Parse an `impl` header starting after the `impl` keyword. Returns the
/// implemented-on type (the last path segment at angle-depth 0, after
/// `for` when present) and the index of the opening `{`.
fn parse_impl_header(toks: &[Tok], mut i: usize) -> (Option<String>, usize) {
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut in_where = false;
    while i < toks.len() {
        match (toks[i].kind, toks[i].text.as_str()) {
            (TokKind::Punct, "{") if angle <= 0 => break,
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">")
                // `->` in an assoc-fn-pointer type: not a closing angle.
                if text_at(toks, i.wrapping_sub(1)) != Some("-") => {
                    angle -= 1;
                }
            (TokKind::Ident, "for") if angle == 0 && !in_where => last_ident = None,
            (TokKind::Ident, "where") if angle == 0 => in_where = true,
            (TokKind::Ident, id) if angle == 0 && !in_where => last_ident = Some(id.to_string()),
            _ => {}
        }
        i += 1;
    }
    (last_ident, i)
}

/// From a position inside a fn signature (after the name) or trait
/// header, return the index of the opening body `{` or just past a
/// terminating `;`.
fn skip_to_body_or_semi(toks: &[Tok], mut i: usize) -> usize {
    let mut paren = 0i32;
    let mut angle = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "<" => angle += 1,
                ">"
                    // `->` is an arrow, not a closing angle bracket.
                    if text_at(toks, i.wrapping_sub(1)) != Some("-") => {
                        angle = (angle - 1).max(0);
                    }
                "{" if paren == 0 && bracket == 0 => return i,
                ";" if paren == 0 && bracket == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    i
}

/// Innermost enclosing fn on the scope stack, if any.
fn innermost_fn(stack: &[Scope]) -> Option<usize> {
    stack.iter().rev().find_map(|s| match s {
        Scope::Fn(idx) => Some(*idx),
        _ => None,
    })
}

/// At ident index `i` inside a fn body: record a sink or a call.
fn record_call_or_sink(toks: &[Tok], i: usize, out: &mut FileItems, fn_idx: usize) {
    let t = &toks[i];
    let id = t.text.as_str();

    if let Some(what) = wall_clock_sink(toks, i) {
        out.fns[fn_idx].sinks.push(Sink {
            line: t.line,
            what: what.to_string(),
            kind: "wall clock",
        });
    } else if ENTROPY_SINKS.contains(&id) {
        out.fns[fn_idx].sinks.push(Sink {
            line: t.line,
            what: id.to_string(),
            kind: "OS entropy",
        });
    } else if UNORDERED_SINKS.contains(&id) {
        out.fns[fn_idx].sinks.push(Sink {
            line: t.line,
            what: id.to_string(),
            kind: "unordered iteration",
        });
    }

    // A call is an ident directly followed by `(` (macros are
    // `ident ! (` and thus skipped naturally).
    if text_at(toks, i + 1) != Some("(") || NON_CALL_KEYWORDS.contains(&id) {
        return;
    }
    let prev = if i > 0 { text_at(toks, i - 1) } else { None };
    let call = match prev {
        Some(".") => Call {
            qualifier: None,
            name: id.to_string(),
            method: true,
            line: t.line,
        },
        Some("::") => {
            let qualifier = ident_at(toks, i.wrapping_sub(2)).map(|q| {
                // Substitute a `use ... as ...` alias with its target.
                out.aliases
                    .iter()
                    .find(|(local, _)| local == q)
                    .map_or_else(|| q.to_string(), |(_, target)| target.clone())
            });
            Call {
                qualifier,
                name: id.to_string(),
                method: false,
                line: t.line,
            }
        }
        _ => Call {
            qualifier: None,
            name: id.to_string(),
            method: false,
            line: t.line,
        },
    };
    out.fns[fn_idx].calls.push(call);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> FileItems {
        parse_file(&lex(src).0)
    }

    #[test]
    fn free_fn_and_method_defs_are_found() {
        let items = parse(
            "fn alpha() { beta(); }\n\
             impl Engine { pub fn step(&mut self) { self.tick(); gamma(); } }\n\
             impl fmt::Debug for Widget { fn fmt(&self) {} }\n",
        );
        let names: Vec<(String, Option<String>)> = items
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha".into(), None),
                ("step".into(), Some("Engine".into())),
                ("fmt".into(), Some("Widget".into())),
            ]
        );
        let step = &items.fns[1];
        let called: Vec<&str> = step.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(called, vec!["tick", "gamma"]);
        assert!(step.calls[0].method);
        assert!(!step.calls[1].method);
    }

    #[test]
    fn nested_fns_get_innermost_attribution() {
        let items = parse("fn outer() { fn inner() { leaf(); } trunk(); }");
        let outer = items.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.fns.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].name, "trunk");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].name, "leaf");
    }

    #[test]
    fn closures_attribute_to_their_owner() {
        let items = parse("fn f() { let g = |x: u64| helper(x); g(1); }");
        let f = &items.fns[0];
        assert!(f.calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn sinks_are_detected_inside_bodies_only() {
        let items = parse(
            "struct S { m: HashMap<u64, u64> }\n\
             fn f() { let t = Instant::now(); let r = thread_rng(); }\n",
        );
        let f = items.fns.iter().find(|f| f.name == "f").unwrap();
        let kinds: Vec<&str> = f.sinks.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec!["wall clock", "OS entropy"]);
        // The struct field HashMap is outside any fn: item-level hazards
        // stay with the token rules.
        assert!(items
            .fns
            .iter()
            .all(|d| d.sinks.iter().all(|s| s.kind != "unordered iteration")));
    }

    #[test]
    fn qualified_calls_carry_their_qualifier_through_aliases() {
        let items = parse(
            "use crate::engine::Engine as Motor;\n\
             fn f() { Motor::start(); simnet::Network::poll(); }\n",
        );
        let f = &items.fns[0];
        assert_eq!(f.calls[0].qualifier.as_deref(), Some("Engine"));
        assert_eq!(f.calls[0].name, "start");
        assert_eq!(f.calls[1].qualifier.as_deref(), Some("Network"));
    }

    #[test]
    fn trait_decls_without_bodies_are_not_defs() {
        let items = parse("trait Backend { fn run(&self) -> u64; fn kind(&self) { helper(); } }");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "kind");
        assert_eq!(items.fns[0].owner.as_deref(), Some("Backend"));
    }

    #[test]
    fn signatures_with_arrows_and_generics_do_not_confuse_the_scanner() {
        let items = parse(
            "fn make<F: Fn(u64) -> u64>(f: F) -> Vec<Box<dyn Fn() -> u64>> { apply(f); vec![] }",
        );
        assert_eq!(items.fns.len(), 1);
        assert!(items.fns[0].calls.iter().any(|c| c.name == "apply"));
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let items = parse("struct S { cb: fn(u64) -> u64 }\nfn real() {}");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "real");
    }

    #[test]
    fn macros_are_not_calls() {
        let items = parse("fn f() { println!(\"x\"); assert_eq!(1, 1); real(); }");
        let names: Vec<&str> = items.fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
