//! Seeded fuzz/property tests for the hand-rolled JSON layer.
//!
//! The parser is fed by artifact files, result-store fragments, and
//! Chrome traces that may be torn mid-write by a crash — so it must
//! never panic, whatever bytes it sees, and must reject (not overflow
//! on) adversarially deep nesting. The writer/parser pair must
//! round-trip every value the suite can produce, including non-finite
//! floats (written as `null` by design).
//!
//! `Json::parse` reads a compact series of pairs as one packed
//! [`Json::Pairs`] node. That reading is held to the unpacked one of
//! the same text (a space after each `[`, a layout the packed path never
//! takes): the same verdict on every input, and the same times, value
//! bits and written bytes.
//!
//! Everything is driven by `SplitMix64` from fixed seeds: a failure
//! reproduces exactly, per the workspace's determinism rules.

use simcore::json::{Json, MAX_PARSE_DEPTH};
use simcore::rng::SplitMix64;
use simcore::stats::TimeSeries;

/// Arbitrary bytes, biased toward JSON's working set so the fuzzer
/// spends its iterations inside the parser rather than failing on the
/// first byte.
fn arbitrary_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    const HOT: &[u8] = br#"{}[]",:null truefalse0123456789.-+eE\ "#;
    (0..len)
        .map(|_| {
            if rng.next_below(4) == 0 {
                rng.next_u64() as u8
            } else {
                HOT[rng.next_below(HOT.len() as u64) as usize]
            }
        })
        .collect()
}

/// A float, non-finite one time in two.
fn arbitrary_float(rng: &mut SplitMix64) -> f64 {
    match rng.next_below(6) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => rng.next_f64() * 1e18,
        4 => -rng.next_f64() / 1e18,
        _ => rng.next_f64(),
    }
}

/// A random `Json` tree of bounded depth, covering every variant.
fn arbitrary_value(rng: &mut SplitMix64, depth: usize) -> Json {
    let pick = if depth == 0 {
        rng.next_below(5) // leaves only
    } else {
        rng.next_below(8)
    };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.next_below(2) == 1),
        // Cover the full i128-visible range the suite uses (u64 and i64).
        2 => Json::Int(match rng.next_below(4) {
            0 => i128::from(rng.next_u64()),
            1 => -i128::from(rng.next_u64()),
            2 => i128::from(u64::MAX),
            _ => i128::from(i64::MIN),
        }),
        3 => Json::Num(arbitrary_float(rng)),
        4 => {
            let len = rng.next_below(12) as usize;
            Json::Str(
                (0..len)
                    .map(|_| {
                        // Escapes, controls, and some multi-byte chars.
                        char::from_u32(match rng.next_below(5) {
                            0 => rng.next_below(0x20) as u32, // control
                            1 => u32::from(b'"'),
                            2 => u32::from(b'\\'),
                            3 => 0x1F600 + rng.next_below(16) as u32, // emoji
                            _ => 0x20 + rng.next_below(0x5e) as u32,  // ascii
                        })
                        .unwrap_or('?')
                    })
                    .collect(),
            )
        }
        5 => {
            let len = rng.next_below(4) as usize;
            Json::Arr((0..len).map(|_| arbitrary_value(rng, depth - 1)).collect())
        }
        6 => {
            let len = rng.next_below(4);
            Json::Pairs(
                (0..len)
                    .map(|_| {
                        let time = rng.next_u64() >> rng.next_below(64);
                        (time, arbitrary_float(rng))
                    })
                    .collect(),
            )
        }
        _ => {
            let len = rng.next_below(4) as usize;
            Json::Obj(
                (0..len)
                    .map(|i| (format!("k{i}"), arbitrary_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// The parser must never panic on arbitrary byte strings — it returns
/// `Ok` or `Err`, both fine; what it may not do is unwind.
#[test]
fn parser_never_panics_on_arbitrary_bytes() {
    let mut rng = SplitMix64::new(0xF0BB_F022);
    let mut parsed_ok = 0u32;
    for round in 0..4000 {
        let len = 1 + rng.next_below(64) as usize;
        let bytes = arbitrary_bytes(&mut rng, len);
        let text = String::from_utf8_lossy(&bytes);
        if Json::parse(&text).is_ok() {
            parsed_ok += 1;
        }
        let _ = round;
    }
    // Sanity: the bias makes *some* inputs valid, so the success path is
    // exercised too, not just early rejection.
    assert!(parsed_ok > 0, "generator never produced valid JSON");
}

/// Mutations of a valid document — truncation at every byte boundary
/// (the torn-write case) and single-byte corruption — must parse or
/// fail cleanly, never panic.
#[test]
fn truncated_and_corrupted_documents_fail_cleanly() {
    let mut rng = SplitMix64::new(0x7EA12);
    let doc = arbitrary_value(&mut rng, 4);
    let text = doc.to_pretty();
    for cut in 0..text.len() {
        if text.is_char_boundary(cut) {
            let _ = Json::parse(&text[..cut]);
        }
    }
    let bytes = text.as_bytes();
    for _ in 0..500 {
        let mut mutated = bytes.to_vec();
        let at = rng.next_below(mutated.len() as u64) as usize;
        mutated[at] = rng.next_u64() as u8;
        let _ = Json::parse(&String::from_utf8_lossy(&mutated));
    }
}

/// Nesting past `MAX_PARSE_DEPTH` is rejected with an error instead of
/// a stack overflow, for arrays, objects, and mixtures.
#[test]
fn deep_nesting_is_rejected_not_overflowed() {
    let deep_arr = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    let err = Json::parse(&deep_arr).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");

    let deep_obj = format!("{}1{}", "{\"k\":".repeat(100_000), "}".repeat(100_000));
    let err = Json::parse(&deep_obj).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");

    let mixed: String = (0..100_000)
        .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
        .collect();
    let err = Json::parse(&mixed).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");

    // Just inside the limit still parses.
    let depth = MAX_PARSE_DEPTH - 1;
    let ok = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    assert!(Json::parse(&ok).is_ok());
}

/// Mirror the writer's two lossy steps: non-finite floats are written
/// as `null`, and integral-valued floats are written without a decimal
/// point (so they reparse as `Int`).
fn normalize(v: &Json) -> Json {
    match v {
        Json::Num(f) if !f.is_finite() => Json::Null,
        Json::Num(f) => {
            let text = format!("{f}");
            match text.parse::<i128>() {
                Ok(i) => Json::Int(i),
                Err(_) => Json::Num(*f),
            }
        }
        Json::Arr(items) => Json::Arr(items.iter().map(normalize).collect()),
        // A packed series parses back as its `Arr` expansion.
        Json::Pairs(pairs) => Json::Arr(
            pairs
                .iter()
                .map(|&(t, v)| Json::Arr(vec![Json::from(t), normalize(&Json::Num(v))]))
                .collect(),
        ),
        Json::Obj(members) => Json::Obj(
            members
                .iter()
                .map(|(k, m)| (k.clone(), normalize(m)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// value → to_pretty → parse returns the same tree (modulo the
/// documented non-finite-float-to-null collapse), and the reparsed
/// value is a writer fixpoint — the property every artifact round trip
/// in the suite leans on.
#[test]
fn value_to_pretty_to_parse_round_trips() {
    let mut rng = SplitMix64::new(0x5EED_CAFE);
    for _ in 0..400 {
        let value = arbitrary_value(&mut rng, 4);
        let text = value.to_pretty();
        let back =
            Json::parse(&text).unwrap_or_else(|e| panic!("own output must parse: {e}\n{text}"));
        assert_eq!(back, normalize(&value), "{text}");
        // Fixpoint: writing the reparsed tree reproduces the text.
        assert_eq!(back.to_pretty(), text);
        // The compact writer agrees with the pretty writer, whether or
        // not the compact text parses packed.
        assert_eq!(Json::parse(&value.to_compact()).unwrap().to_pretty(), text);
    }
}

/// The suite writes NaN job metrics as `null` and reads them back as
/// NaN via `field_f64_or_nan`; pin both directions.
#[test]
fn non_finite_floats_round_trip_as_null_then_nan() {
    let value = Json::Obj(vec![
        ("nan".into(), Json::Num(f64::NAN)),
        ("inf".into(), Json::Num(f64::INFINITY)),
        ("ninf".into(), Json::Num(f64::NEG_INFINITY)),
        ("fin".into(), Json::Num(1.5)),
    ]);
    let text = value.to_pretty();
    let back = Json::parse(&text).unwrap();
    for key in ["nan", "inf", "ninf"] {
        assert_eq!(back.get(key), Some(&Json::Null), "{key}");
        assert!(back.field_f64_or_nan(key).unwrap().is_nan(), "{key}");
    }
    assert_eq!(back.field_f64_or_nan("fin").unwrap(), 1.5);
}

/// `text` with a space after each `[` outside strings: the same
/// document, which `Json::parse` never reads packed.
fn unpacked(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let (mut in_string, mut escaped) = (false, false);
    for c in text.chars() {
        out.push(c);
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '[' if !in_string => out.push(' '),
            _ => {}
        }
    }
    out
}

/// Tree equality with floats compared by bits, where a packed node
/// equals the `Arr` of `[time, value]` pairs that reads as the same
/// times and value bits.
fn same(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Pairs(pairs), Json::Arr(items)) | (Json::Arr(items), Json::Pairs(pairs)) => {
            pairs.len() == items.len()
                && pairs.iter().zip(items).all(|(&(time, value), item)| {
                    matches!(item.as_arr(), Some([t, v])
                        if t.as_u64() == Some(time)
                            && v.as_f64().map(f64::to_bits) == Some(value.to_bits()))
                })
        }
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

/// Whether `v` holds a packed node.
fn has_pairs(v: &Json) -> bool {
    match v {
        Json::Pairs(_) => true,
        Json::Arr(items) => items.iter().any(has_pairs),
        Json::Obj(members) => members.iter().any(|(_, m)| has_pairs(m)),
        _ => false,
    }
}

/// Parses `text` as it stands and [`unpacked`], requires the same
/// verdict, and when both accept, the same values bit for bit and the
/// same written bytes. Returns the packed reading.
fn parses_like_unpacked(text: &str) -> Result<Json, String> {
    let packed = Json::parse(text);
    let plain = Json::parse(&unpacked(text));
    assert!(!plain.as_ref().is_ok_and(has_pairs), "{text:?}");
    match (&packed, &plain) {
        (Ok(a), Ok(b)) => {
            assert!(same(a, b), "{text:?}: {a:?} vs {b:?}");
            assert_eq!(a.to_compact(), b.to_compact(), "{text:?}");
        }
        (Err(_), Err(_)) => {}
        _ => panic!("{text:?}: {packed:?} vs unpacked {plain:?}"),
    }
    packed
}

/// [`TimeSeries::from_json`] on a parsed text, as its samples' times
/// and value bits; `None` when either step rejects it.
fn series(parsed: &Result<Json, String>) -> Option<Vec<(u64, u64)>> {
    let ts = TimeSeries::from_json(parsed.as_ref().ok()?).ok()?;
    Some(pairs(&ts))
}

fn pairs(ts: &TimeSeries) -> Vec<(u64, u64)> {
    ts.samples()
        .iter()
        .map(|s| (s.time.as_nanos(), s.value.to_bits()))
        .collect()
}

/// `[t,v]` pairs at the edges of what parses packed: times of 19 and
/// 20 digits and past `u64`,
/// signed and zero-led ones; `-0`, `-0.0`, zero-led and dotless values;
/// fraction mantissas at and past 2^53 and 22 and 23 fraction digits;
/// integer values at and past 2^53, past 19 digits and past `i128`;
/// exponents; whitespace inside a pair; and pairs of the wrong length or
/// kind.
const EDGE_PAIRS: [&str; 43] = [
    "[1,2]",
    "[0,-0]",
    "[3,0.5]",
    "[9,1e2]",
    "[18446744073709551615,7]",
    "[9999999999999999999,1]",
    "[1234567890123456789,1.5]",
    "[12345678901234567890,1]",
    "[18446744073709551616,1]",
    "[-0,1]",
    "[-1,1]",
    "[01,1]",
    "[1.0,1]",
    "[2,-0.0]",
    "[2,-0.000]",
    "[2,01]",
    "[2,1.]",
    "[2,.5]",
    "[2,-.5]",
    "[3,6.2588265378287862]",
    "[3,90071992547409.93]",
    "[3,900719925474099.5]",
    "[3,-32008589043444.209]",
    "[3,0.0000000000000000000003]",
    "[3,0.00000000000000000000003]",
    "[3,1.2345678901234567890123]",
    "[4,9007199254740991]",
    "[4,-9007199254740992]",
    "[4,1234567890123456789]",
    "[4,12345678901234567890]",
    "[4,-170141183460469231731687303715884105728]",
    "[4,1234567890123456789012345678901234567890]",
    "[5,1e5]",
    "[5,1E+5]",
    "[5,2.5e-3]",
    "[6, 1]",
    "[ 6,1]",
    "[6 ,1]",
    "[6,1 ]",
    "[6,null]",
    "[1,2,3]",
    "[4]",
    "[]",
];

/// Arbitrary bytes shaped like a series (`[[t,v],...]`), so some of
/// them are valid ones and the rest fail at every step of the grammar.
fn arbitrary_series(rng: &mut SplitMix64) -> Vec<u8> {
    const PARTS: [&str; 10] = [
        "[",
        "]",
        ",",
        " ",
        "[5,1],[4,1]",
        "-",
        "null",
        "\"x\"",
        "2",
        "{}",
    ];
    let mut out = Vec::new();
    if rng.next_below(4) > 0 {
        out.push(b'[');
    }
    for _ in 0..rng.next_below(10) {
        let part = match rng.next_below(8) {
            0 => {
                out.push(rng.next_u64() as u8);
                continue;
            }
            1 => {
                random_pair(rng, &mut out);
                continue;
            }
            2..=4 => EDGE_PAIRS[rng.next_below(EDGE_PAIRS.len() as u64) as usize],
            _ => PARTS[rng.next_below(PARTS.len() as u64) as usize],
        };
        out.extend_from_slice(part.as_bytes());
    }
    out
}

/// A `[t,v]` pair of random digit runs: a time of 1 to 21 digits and a
/// signed value of 1 to 25 digits, with a decimal point in a random
/// place or none, so mantissas land on both sides of 2^53 and of 19
/// digits.
fn random_pair(rng: &mut SplitMix64, out: &mut Vec<u8>) {
    out.push(b'[');
    random_digits(rng, 21, out);
    out.push(b',');
    if rng.next_below(2) == 0 {
        out.push(b'-');
    }
    if rng.next_below(4) == 0 {
        out.push(b'0');
    } else {
        random_digits(rng, 20, out);
    }
    if rng.next_below(4) > 0 {
        out.push(b'.');
        if rng.next_below(4) == 0 {
            let zeros = rng.next_below(22) as usize;
            out.extend(std::iter::repeat_n(b'0', zeros));
        }
        random_digits(rng, 24, out);
    }
    out.push(b']');
}

/// 1 to `max` random digits, the first non-zero unless it is the only one.
fn random_digits(rng: &mut SplitMix64, max: u64, out: &mut Vec<u8>) {
    let n = 1 + rng.next_below(max);
    for i in 0..n {
        let low = u64::from(i == 0 && n > 1);
        out.push(b'0' + (low + rng.next_below(10 - low)) as u8);
    }
}

/// The packed reading never panics, and it accepts exactly what the
/// unpacked one accepts, with the same values, and the same series.
#[test]
fn packed_parse_matches_the_unpacked_on_arbitrary_bytes() {
    let mut rng = SplitMix64::new(0x5724_EA4D);
    let (mut trees, mut packed, mut accepted) = (0u32, 0u32, 0u32);
    for round in 0..6000 {
        let bytes = if round % 2 == 0 {
            let len = 1 + rng.next_below(64) as usize;
            arbitrary_bytes(&mut rng, len)
        } else {
            arbitrary_series(&mut rng)
        };
        let text = String::from_utf8_lossy(&bytes);
        let parsed = parses_like_unpacked(&text);
        if let Ok(tree) = &parsed {
            trees += 1;
            packed += u32::from(has_pairs(tree));
        }
        let read = series(&parsed);
        let plain = series(&Json::parse(&unpacked(&text)));
        assert_eq!(read, plain, "{text:?}");
        accepted += u32::from(read.is_some());
    }
    assert!(
        packed > 0 && trees > packed && accepted > 0,
        "{trees} trees, {packed} packed, {accepted} series"
    );
}

/// Every single-sample series built from an edge part or a random pair
/// parses packed or not as the unpacked text reads: the same verdict
/// and, when accepted, the same time and value bits. Many of them pack.
#[test]
fn single_samples_parse_packed_like_unpacked() {
    let mut rng = SplitMix64::new(0x5A3D_1E00);
    let mut texts: Vec<String> = EDGE_PAIRS.iter().map(|p| format!("[{p}]")).collect();
    for _ in 0..20_000 {
        let mut pair = Vec::new();
        random_pair(&mut rng, &mut pair);
        texts.push(format!("[{}]", String::from_utf8(pair).expect("ASCII")));
    }
    let (mut packed, mut accepted) = (0, 0);
    for text in &texts {
        let parsed = parses_like_unpacked(text);
        let read = series(&parsed);
        assert_eq!(read, series(&Json::parse(&unpacked(text))), "{text}");
        accepted += usize::from(read.is_some());
        if let Ok(Json::Pairs(p)) = &parsed {
            assert_eq!(p.len(), 1, "{text}");
            packed += 1;
        }
    }
    assert!(
        packed > 5_000 && accepted > packed,
        "{packed} packed of {accepted} accepted"
    );
}

/// The packed reading rejects nesting past `MAX_PARSE_DEPTH` like the
/// unpacked one, and accepts it just inside.
#[test]
fn packed_parse_rejects_deep_nesting() {
    let deep_arr = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    let deep_obj = format!("{}1{}", "{\"k\":".repeat(100_000), "}".repeat(100_000));
    let deep_pairs = format!("{}[[1,2]]{}", "[".repeat(100_000), "]".repeat(100_000));
    for text in [
        deep_arr,
        format!("[[0,{deep_obj}]]"),
        format!("[[0,1],[2,{deep_obj}]]"),
        deep_pairs,
    ] {
        let err = parses_like_unpacked(&text).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    // A compact series that deep: its pairs' scalars sit at the limit or
    // one past it, and the packed reading gives the unpacked verdict.
    for levels in MAX_PARSE_DEPTH - 3..=MAX_PARSE_DEPTH {
        let text = format!("{}[[1,2]]{}", "[".repeat(levels), "]".repeat(levels));
        let parsed = parses_like_unpacked(&text);
        assert_eq!(parsed.is_ok(), levels + 2 <= MAX_PARSE_DEPTH, "{levels}");
        assert_eq!(
            parsed.is_ok_and(|v| has_pairs(&v)),
            levels + 2 <= MAX_PARSE_DEPTH
        );
    }
}
