//! A minimal Rust lexer for lint scanning.
//!
//! This is not a full Rust front-end: it produces a stream of
//! identifier/punctuation/literal tokens with line numbers, which is
//! exactly what the [`crate::rules`] need. Its one hard obligation is to
//! *never* leak the contents of comments, strings (including raw and
//! byte strings), or character literals into the token stream — a
//! `"HashMap"` inside a doc string must not trip a lint. Comments are
//! captured separately so the driver can parse `simlint: allow(...)`
//! escape-hatch directives out of them.

/// What kind of token a [`Tok`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `HashMap`, `partial_cmp`, ...).
    Ident,
    /// Punctuation. `::` is fused into a single token; everything else
    /// is a single character.
    Punct,
    /// A string/char/number literal. String bodies are not preserved.
    Literal,
    /// A lifetime (`'a`). Kept distinct so `'a` is never mistaken for a
    /// char literal.
    Lifetime,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Token text. For string literals this is the placeholder `"str"`.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

/// A comment (line or block), captured for allow-directive parsing.
#[derive(Clone, Debug)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Full comment text including the `//` / `/*` sigils.
    pub text: String,
}

/// The identifier at token index `i`, if that token is one.
pub(crate) fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

/// The text of the token at index `i`, if there is one.
pub(crate) fn text_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).map(|t| t.text.as_str())
}

/// Lex `src` into significant tokens plus the comment stream.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_whitespace() => i += 1,
            '/' if peek(&chars, i + 1) == Some('/') => {
                let start = i;
                while i < n && chars[i] != '\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    text: chars[start..i].iter().collect(),
                });
            }
            '/' if peek(&chars, i + 1) == Some('*') => {
                let start = i;
                let start_line = line;
                i += 2;
                let mut depth = 1u32;
                while i < n && depth > 0 {
                    match chars[i] {
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        '/' if peek(&chars, i + 1) == Some('*') => {
                            depth += 1;
                            i += 2;
                        }
                        '*' if peek(&chars, i + 1) == Some('/') => {
                            depth -= 1;
                            i += 2;
                        }
                        _ => i += 1,
                    }
                }
                comments.push(Comment {
                    line: start_line,
                    text: chars[start..i.min(n)].iter().collect(),
                });
            }
            '"' => {
                let l = line;
                let (ni, nl) = scan_string(&chars, i, line);
                i = ni;
                line = nl;
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: "\"str\"".into(),
                    line: l,
                });
            }
            '\'' => {
                // Char literal (`'x'`, `'\n'`) vs lifetime (`'a`).
                if peek(&chars, i + 1) == Some('\\') {
                    // Escaped char literal: skip the quote, backslash, and
                    // escaped char (handles '\'' too), then scan to the
                    // closing quote.
                    let l = line;
                    i += 3;
                    while i < n && chars[i] != '\'' {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 1; // closing quote
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: "'c'".into(),
                        line: l,
                    });
                } else if peek(&chars, i + 2) == Some('\'') {
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: "'c'".into(),
                        line,
                    });
                    i += 3;
                } else {
                    // Lifetime: consume the identifier after the quote.
                    let l = line;
                    i += 1;
                    let start = i;
                    while i < n && is_ident_continue(chars[i]) {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line: l,
                    });
                }
            }
            'r' | 'b' | 'c' if raw_or_byte_string_len(&chars, i).is_some() => {
                let (prefix_len, hashes) = raw_or_byte_string_len(&chars, i).expect("checked");
                let l = line;
                if hashes == usize::MAX {
                    // Plain byte/C string: b"..." / c"..." — escaped scan.
                    let (ni, nl) = scan_string(&chars, i + prefix_len, line);
                    i = ni;
                    line = nl;
                } else {
                    // Raw string: skip prefix, hashes, opening quote, then
                    // find `"` followed by the same number of hashes.
                    i += prefix_len + hashes + 1;
                    loop {
                        if i >= n {
                            break;
                        }
                        if chars[i] == '\n' {
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if chars[i] == '"' && count_hashes(&chars, i + 1) >= hashes {
                            i += 1 + hashes;
                            break;
                        }
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: "\"str\"".into(),
                    line: l,
                });
            }
            _ if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                while i < n {
                    let d = chars[i];
                    if is_ident_continue(d) {
                        // Exponent sign: `1e-3` / `1E+5`.
                        if (d == 'e' || d == 'E')
                            && matches!(peek(&chars, i + 1), Some('+') | Some('-'))
                            && matches!(peek(&chars, i + 2), Some(x) if x.is_ascii_digit())
                        {
                            i += 2;
                        }
                        i += 1;
                    } else if d == '.'
                        && peek(&chars, i + 1) != Some('.')
                        && matches!(peek(&chars, i + 1), Some(x) if x.is_ascii_digit())
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            ':' if peek(&chars, i + 1) == Some(':') => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: "::".into(),
                    line,
                });
                i += 2;
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    (toks, comments)
}

fn peek(chars: &[char], i: usize) -> Option<char> {
    chars.get(i).copied()
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Past-the-quote scan of a `"..."` string starting at `i` (which must
/// point at the opening quote). Returns `(next index, next line)`.
fn scan_string(chars: &[char], i: usize, line: u32) -> (usize, u32) {
    let n = chars.len();
    let mut i = i + 1;
    let mut line = line;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '\n' => {
                line += 1;
                i += 1;
            }
            '"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    (i, line)
}

/// If position `i` starts a raw/byte/C string (`r"`, `r#"`, `br"`, `b"`,
/// `c"`, ...), return `(prefix length, hash count)`. A hash count of
/// `usize::MAX` marks the non-raw `b"`/`c"` forms, which use escape
/// scanning instead of hash matching.
fn raw_or_byte_string_len(chars: &[char], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let mut prefix = 0usize;
    let mut saw_r = false;
    while prefix < 2 {
        match peek(chars, j) {
            Some('r') if !saw_r => {
                saw_r = true;
                prefix += 1;
                j += 1;
            }
            Some('b') | Some('c') if prefix == 0 => {
                prefix += 1;
                j += 1;
            }
            _ => break,
        }
    }
    if prefix == 0 {
        return None;
    }
    if saw_r {
        let hashes = count_hashes(chars, j);
        if peek(chars, j + hashes) == Some('"') {
            return Some((prefix, hashes));
        }
        return None;
    }
    // b"..." / c"..." without r: plain escaped string.
    if peek(chars, j) == Some('"') {
        return Some((prefix, usize::MAX));
    }
    None
}

fn count_hashes(chars: &[char], i: usize) -> usize {
    let mut k = 0;
    while peek(chars, i + k) == Some('#') {
        k += 1;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .0
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
            // HashMap in a line comment
            /* HashSet in a /* nested */ block */
            let s = "Instant::now inside a string";
            let r = r#"thread_rng in a raw "quoted" string"#;
            let b = b"RandomState bytes";
            fn real() {}
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"fn".to_string()));
        assert!(ids.contains(&"real".to_string()));
        for bad in ["HashMap", "HashSet", "Instant", "thread_rng", "RandomState"] {
            assert!(!ids.contains(&bad.to_string()), "{bad} leaked: {ids:?}");
        }
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let src = "let a = 1;\n// simlint: allow(no-os-entropy, fixture seed only)\nlet b = 2;\n";
        let (_, comments) = lex(src);
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 2);
        assert!(comments[0].text.contains("simlint: allow"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let (toks, _) = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
    }

    #[test]
    fn line_numbers_track_newlines_in_literals() {
        let src = "let a = \"two\nlines\";\nlet second = 1;";
        let (toks, _) = lex(src);
        let second = toks.iter().find(|t| t.text == "second").unwrap();
        assert_eq!(second.line, 3);
    }

    #[test]
    fn double_colon_is_fused() {
        let (toks, _) = lex("std::time::Instant");
        let texts: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, vec!["std", "::", "time", "::", "Instant"]);
    }

    #[test]
    fn numeric_literals_with_exponents() {
        let (toks, _) = lex("let x = 1.5e-3 + 0x1f + 2..10;");
        let lits: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lits, vec!["1.5e-3", "0x1f", "2", "10"]);
    }

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lifetime_vs_char_disambiguation_battery() {
        // Lifetimes in every position they appear in real signatures.
        let (toks, _) = lex("impl<'a, 'b: 'a> Iter<'a> { fn get(&'a self) -> &'b str { x } }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            6
        );
        // The anonymous lifetime.
        let (toks, _) = lex("fn f(x: &Foo<'_>) {}");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "_"));
        // Loop labels, at definition and at the break.
        let (toks, _) = lex("'outer: loop { break 'outer; }");
        let labels: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(labels.len(), 2);
        assert!(labels.iter().all(|t| t.text == "outer"));
        // Plain and escaped char literals stay literals.
        for src in [
            "'x'",
            "'_'",
            "' '",
            "'('",
            "'\\''",
            "'\\\\'",
            "'\\n'",
            "'\\u{1F600}'",
        ] {
            let (toks, _) = lex(src);
            assert_eq!(toks.len(), 1, "{src} must be one token: {toks:?}");
            assert_eq!(toks[0].kind, TokKind::Literal, "{src}");
        }
        // A char range: two literals, no lifetimes.
        let (toks, _) = lex("'a'..='z'");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            2
        );
        assert!(toks.iter().all(|t| t.kind != TokKind::Lifetime));
        // Byte chars: `b` lexes as an ident, the quoted part as a char.
        let (toks, _) = lex("b'x' b'\\''");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Literal).count(),
            2
        );
        // Mixing both on one line must not confuse either.
        let (toks, _) = lex("fn f<'a>(c: char) -> bool { c == 'a' }");
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            1
        );
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Literal && t.text == "'c'"));
    }

    #[test]
    fn nested_block_comment_edge_cases() {
        // Depth-2 nesting closes where Rust closes it.
        let (toks, comments) = lex("/* a /* b */ HashSet */ fn real() {}");
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("HashSet"));
        assert!(toks.iter().any(|t| t.text == "real"));
        assert!(toks.iter().all(|t| t.text != "HashSet"));
        // An unterminated nested comment swallows the rest of the file
        // instead of leaking tokens or panicking.
        let (toks, comments) = lex("/* open /* still open */ Instant");
        assert!(toks.is_empty(), "{toks:?}");
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.ends_with("Instant"));
        // Line numbers survive multi-line comments.
        let (toks, _) = lex("/*\n * doc\n */\nlet after = 1;");
        assert_eq!(toks.iter().find(|t| t.text == "after").unwrap().line, 4);
        // `*/` then immediately `/*` again: two comments, not one.
        let (_, comments) = lex("/* one */ /* two */");
        assert_eq!(comments.len(), 2);
    }

    #[test]
    fn raw_string_edge_cases() {
        // Embedded quotes and a `"#` that does not close an `r##` string.
        let (toks, _) = lex(r####"let s = r##"has "# inside"##;"####);
        let lits: Vec<_> = kinds(r####"let s = r##"has "# inside"##;"####)
            .into_iter()
            .filter(|(k, _)| *k == TokKind::Literal)
            .collect();
        assert_eq!(lits.len(), 1, "{toks:?}");
        assert!(toks.iter().all(|t| t.text != "inside"));
        // Raw byte strings.
        let (toks, _) = lex(r###"let b = br#"HashMap"#; let after = 1;"###);
        assert!(toks.iter().all(|t| t.text != "HashMap"));
        assert!(toks.iter().any(|t| t.text == "after"));
        // Backslashes are NOT escapes inside raw strings: `r"\"` is a
        // complete string holding one backslash.
        let (toks, _) = lex(r#"let s = r"\"; let after = 1;"#);
        assert!(toks.iter().any(|t| t.text == "after"), "{toks:?}");
        // Multi-line raw strings keep the line count right.
        let (toks, _) = lex("let s = r#\"a\nb\nc\"#;\nlet after = 1;");
        assert_eq!(toks.iter().find(|t| t.text == "after").unwrap().line, 4);
        // Identifiers that merely start with r/b/c are not strings.
        let (toks, _) = lex("let ready = radius + crate_count + bytes;");
        for id in ["ready", "radius", "crate_count", "bytes"] {
            assert!(
                toks.iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == id),
                "{id} mislexed: {toks:?}"
            );
        }
    }
}
