//! The byte-level `simcore::json` writers and slice-based parser checked
//! against the original char-at-a-time implementation (`reference.rs`)
//! over seeded random trees: every `to_pretty`/`to_compact` byte must
//! match, and parsing either output must give the oracle's tree, bit for
//! bit.

mod reference;

use simcore::json::Json;
use simcore::rng::SplitMix64;

/// Integers at the edges of the writer's digit-loop range (`i64` and
/// `u64`, each ±1), at the parser's digit-count switch, and beyond `u64`.
fn edge_int(rng: &mut SplitMix64) -> i128 {
    const U64: i128 = u64::MAX as i128;
    const I64_MIN: i128 = i64::MIN as i128;
    const I64_MAX: i128 = i64::MAX as i128;
    const EDGES: [i128; 27] = [
        0,
        1,
        -1,
        9,
        10,
        99,
        100,
        -100,
        I64_MIN - 1,
        I64_MIN,
        I64_MIN + 1,
        I64_MAX - 1,
        I64_MAX,
        I64_MAX + 1,
        U64 - 1,
        U64,
        U64 + 1,
        -U64 - 1,
        -U64,
        -U64 + 1,
        999_999_999_999_999_999,
        1_000_000_000_000_000_000,
        9_999_999_999_999_999_999,
        10_000_000_000_000_000_000,
        -10_000_000_000_000_000_000,
        i128::MIN,
        i128::MAX,
    ];
    match rng.next_below(4) {
        0 => EDGES[rng.next_below(EDGES.len() as u64) as usize],
        1 => i128::from(rng.next_below(2000)) - 1000,
        2 => i128::from(rng.next_u64()) * if rng.next_below(2) == 0 { 1 } else { -1 },
        _ => (i128::from(rng.next_u64()) << 64 | i128::from(rng.next_u64())) >> rng.next_below(64),
    }
}

/// Floats including −0.0, subnormals, non-finite values (written as
/// `null`), integral values on both sides of 2^53 (the writer's digit
/// loop takes those below it) and, rarely, 1e300, whose 301-digit
/// rendering neither parser accepts as an integer.
fn edge_float(rng: &mut SplitMix64) -> f64 {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    const EDGES: [f64; 29] = [
        -0.0,
        0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(0x000f_ffff_ffff_ffff),
        0.1,
        1.0 / 3.0,
        1e21,
        f64::NAN,
        f64::NEG_INFINITY,
        EXACT - 1.0,
        -(EXACT - 1.0),
        EXACT,
        -EXACT,
        EXACT + 2.0,
        1e15,
        1e16,
        1e17,
        1e18,
        1e19,
        1e20,
        -1e15,
        -1.0,
        -7.0,
        -123_456_789.0,
        1.5,
        -2.5,
    ];
    match rng.next_below(40) {
        0 => 1e300,
        1..=12 => EDGES[rng.next_below(EDGES.len() as u64) as usize],
        // An integral value, mostly below 2^53, of either sign.
        13..=16 => {
            let magnitude = (rng.next_u64() >> rng.next_below(64)) as f64;
            if rng.next_below(2) == 0 {
                -magnitude
            } else {
                magnitude
            }
        }
        _ => {
            // Mantissa in [-0.5, 0.5) scaled from the subnormal range up
            // to 1e30.
            let exp = rng.next_below(351) as i32 - 320;
            (rng.next_f64() - 0.5) * 10f64.powi(exp)
        }
    }
}

/// A string drawn from every class the writer treats differently: the
/// two escaped printables, every control byte (short and `\u` forms),
/// DEL, ASCII, and 2-, 3- and 4-byte characters. Often empty.
fn edge_string(rng: &mut SplitMix64) -> String {
    const WIDE: [char; 8] = [
        'é',
        '\u{7ff}',
        '\u{800}',
        '∂',
        '\u{e000}',
        '\u{fffd}',
        '\u{1f600}',
        '\u{10ffff}',
    ];
    let len = match rng.next_below(4) {
        0 => 0,
        1 => rng.next_below(4),
        _ => rng.next_below(40),
    };
    (0..len)
        .map(|_| match rng.next_below(8) {
            0 => '"',
            1 => '\\',
            2 => char::from(rng.next_below(0x20) as u8),
            3 => '\u{7f}',
            4 => WIDE[rng.next_below(WIDE.len() as u64) as usize],
            _ => char::from(0x20 + rng.next_below(0x5f) as u8),
        })
        .collect()
}

/// A packed series, empty or of one pair as often as longer: times at
/// 0, `u64::MAX` and between, values from [`edge_float`] and +inf.
fn pairs(rng: &mut SplitMix64) -> Json {
    let len = match rng.next_below(3) {
        0 => 0,
        1 => 1,
        _ => 2 + rng.next_below(6),
    };
    Json::Pairs(
        (0..len)
            .map(|_| {
                let time = match rng.next_below(4) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => rng.next_below(1000),
                    _ => rng.next_u64(),
                };
                let value = match rng.next_below(20) {
                    0 => f64::INFINITY,
                    _ => edge_float(rng),
                };
                (time, value)
            })
            .collect(),
    )
}

fn leaf(rng: &mut SplitMix64) -> Json {
    match rng.next_below(6) {
        0 => Json::Null,
        1 => Json::Bool(rng.next_below(2) == 1),
        2 => Json::Int(edge_int(rng)),
        3 => Json::Num(edge_float(rng)),
        4 => pairs(rng),
        _ => Json::Str(edge_string(rng)),
    }
}

/// A random tree of at most `depth` more levels; containers are
/// sometimes empty.
fn tree(rng: &mut SplitMix64, depth: usize) -> Json {
    if depth == 0 || rng.next_below(3) == 0 {
        return leaf(rng);
    }
    let len = rng.next_below(6);
    if rng.next_below(2) == 0 {
        Json::Arr((0..len).map(|_| tree(rng, depth - 1)).collect())
    } else {
        Json::Obj(
            (0..len)
                .map(|_| (edge_string(rng), tree(rng, depth - 1)))
                .collect(),
        )
    }
}

/// `inner` wrapped in 41–120 alternating one-item arrays and objects,
/// so pretty indentation runs past one chunk of spaces, and past two.
fn deep(rng: &mut SplitMix64, inner: Json) -> Json {
    let levels = 41 + rng.next_below(80);
    (0..levels).fold(inner, |v, level| {
        if level % 2 == 0 {
            Json::Arr(vec![Json::Int(edge_int(rng)), v])
        } else {
            Json::Obj(vec![(edge_string(rng), v), ("k".into(), leaf(rng))])
        }
    })
}

/// Tree equality with floats compared by bits, so `-0.0` vs `0.0` or a
/// one-ulp difference counts.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
        }
        _ => a == b,
    }
}

/// Both parsers on `text` must agree: the same tree, or both refuse.
/// Returns whether the text parsed.
fn parses_like_oracle(text: &str, ctx: &str) -> bool {
    match (Json::parse(text), reference::parse(text)) {
        (Ok(new), Ok(old)) => {
            assert!(same(&new, &old), "{ctx}: parse differs\n{text}");
            true
        }
        (Err(_), Err(_)) => false,
        (new, old) => panic!("{ctx}: parse disagrees: {new:?} vs oracle {old:?}\n{text}"),
    }
}

#[test]
fn writers_and_parser_match_the_oracle_byte_for_byte() {
    let mut rng = SplitMix64::new(0x0DD_BA11);
    let mut parsed = 0;
    let cases = 600;
    for case in 0..cases {
        let mut value = tree(&mut rng, 4);
        if case % 5 == 0 {
            value = deep(&mut rng, value);
        }
        let ctx = format!("case {case}");
        let pretty = value.to_pretty();
        assert_eq!(
            pretty,
            reference::to_pretty(&value),
            "{ctx}: to_pretty bytes"
        );
        let compact = value.to_compact();
        assert_eq!(
            compact,
            reference::to_compact(&value),
            "{ctx}: to_compact bytes"
        );
        let pretty_ok = parses_like_oracle(&pretty, &ctx);
        assert_eq!(parses_like_oracle(&compact, &ctx), pretty_ok, "{ctx}");
        parsed += usize::from(pretty_ok);
    }
    // Only trees holding 1e300 (or an integer past i128, which the
    // generator does not make) may fail to parse; most must succeed so
    // the parse comparison is not vacuous.
    assert!(
        parsed * 10 > cases * 8,
        "only {parsed}/{cases} outputs parsed"
    );
}

/// `inner` under `levels` alternating one-item arrays and objects.
fn nest(inner: Json, levels: usize) -> Json {
    (0..levels).fold(inner, |v, level| {
        if level % 2 == 0 {
            Json::Arr(vec![v])
        } else {
            Json::Obj(vec![("k".into(), v)])
        }
    })
}

/// Every class of time and value a packed series writes differently,
/// in empty, one-pair and long nodes, at the top level, a few levels
/// down and past 32 levels, where the indent takes two chunks.
#[test]
fn packed_pairs_write_as_their_arr_expansion() {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    let values = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        0.1,
        -2.5,
        EXACT - 1.0,
        -(EXACT - 1.0),
        EXACT,
        EXACT + 2.0,
        1e300,
    ];
    let times = [0, 1, 1_000_000_000, u64::MAX];
    let all: Vec<(u64, f64)> = times
        .iter()
        .flat_map(|&t| values.iter().map(move |&v| (t, v)))
        .collect();
    let mut nodes = vec![Json::Pairs(Vec::new()), Json::Pairs(all.clone())];
    nodes.extend(all.iter().map(|&pair| Json::Pairs(vec![pair])));
    for node in nodes {
        for levels in [0, 1, 3, 31, 32, 33, 40] {
            let value = nest(node.clone(), levels);
            let ctx = format!("{node:?} under {levels} levels");
            assert_eq!(value.to_pretty(), reference::to_pretty(&value), "{ctx}");
            assert_eq!(value.to_compact(), reference::to_compact(&value), "{ctx}");
        }
    }
}

/// Whitespace the writers never emit: runs of spaces of every length
/// and alignment, tabs and CRLF, between every pair of tokens.
fn noise(rng: &mut SplitMix64, out: &mut String) {
    match rng.next_below(4) {
        0 => {}
        1 => out.extend(std::iter::repeat_n(' ', rng.next_below(20) as usize)),
        2 => {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', rng.next_below(40) as usize));
        }
        _ => {
            for _ in 0..rng.next_below(12) {
                out.push([' ', '\t', '\n', '\r'][rng.next_below(4) as usize]);
            }
        }
    }
}

/// A string literal using the escapes the writers never emit: `\/`,
/// `\b`, `\f`, and `\u` in either hex case for any BMP character.
fn noisy_string(rng: &mut SplitMix64, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.next_below(2) == 0 => out.push_str("\\/"),
            '\u{8}' if rng.next_below(2) == 0 => out.push_str("\\b"),
            '\u{c}' if rng.next_below(2) == 0 => out.push_str("\\f"),
            c if (c as u32) < 0x20 || ((c as u32) < 0x10000 && rng.next_below(6) == 0) => {
                if rng.next_below(2) == 0 {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                } else {
                    out.push_str(&format!("\\u{:04X}", c as u32));
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn noisy(rng: &mut SplitMix64, value: &Json, out: &mut String) {
    noise(rng, out);
    match value {
        Json::Str(s) => noisy_string(rng, s, out),
        Json::Arr(items) => {
            out.push('[');
            noise(rng, out);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                noisy(rng, item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            noise(rng, out);
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                noise(rng, out);
                noisy_string(rng, key, out);
                noise(rng, out);
                out.push(':');
                noisy(rng, member, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_compact()),
    }
    noise(rng, out);
}

/// Valid documents in layouts and escapes the writers never produce
/// parse to the oracle's tree too.
#[test]
fn parser_matches_the_oracle_on_hand_laid_out_documents() {
    let mut rng = SplitMix64::new(0x5ACE_5EED);
    for case in 0..400 {
        let value = tree(&mut rng, 4);
        let mut text = String::new();
        noisy(&mut rng, &value, &mut text);
        parses_like_oracle(&text, &format!("case {case}"));
    }
}
