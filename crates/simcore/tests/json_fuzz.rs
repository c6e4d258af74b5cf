//! Seeded fuzz/property tests for the hand-rolled JSON layer.
//!
//! The parser is fed by artifact files, result-store fragments, and
//! Chrome traces that may be torn mid-write by a crash — so it must
//! never panic, whatever bytes it sees, and must reject (not overflow
//! on) adversarially deep nesting. The writer/parser pair must
//! round-trip every value the suite can produce, including non-finite
//! floats (written as `null` by design).
//!
//! The streamed [`Reader`] walk and [`TimeSeries::read`] are held to
//! the same rules, and to `Json::parse`'s verdict on every input.
//!
//! Everything is driven by `SplitMix64` from fixed seeds: a failure
//! reproduces exactly, per the workspace's determinism rules.

use simcore::json::{Json, Reader, MAX_PARSE_DEPTH};
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
        // The compact writer agrees with the pretty writer.
        assert_eq!(Json::parse(&value.to_compact()).unwrap(), back);
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

/// [`Json::parse`] the way a streamed decoder reads: a top-level array
/// or object walked with [`Reader::array`] / [`Reader::object_with`],
/// each item read as a tree.
fn streamed(text: &str) -> Result<Json, String> {
    let mut r = Reader::new(text);
    let value = match text
        .trim_start_matches([' ', '\t', '\n', '\r'])
        .as_bytes()
        .first()
    {
        Some(b'[') => {
            let mut items = Vec::new();
            r.array(|r| {
                items.push(r.value()?);
                Ok(())
            })?;
            Json::Arr(items)
        }
        Some(b'{') => r.object_with(&[], |_, key| unreachable!("{key} is not streamed"))?,
        _ => r.value()?,
    };
    r.finish()?;
    Ok(value)
}

/// [`TimeSeries::read`] over the whole text.
fn series_read(text: &str) -> Result<Vec<(u64, u64)>, String> {
    let mut r = Reader::new(text);
    let ts = TimeSeries::read(&mut r)?;
    r.finish()?;
    Ok(pairs(&ts))
}

fn pairs(ts: &TimeSeries) -> Vec<(u64, u64)> {
    ts.samples()
        .iter()
        .map(|s| (s.time.as_nanos(), s.value.to_bits()))
        .collect()
}

/// `[t,v]` pairs at the edges of `Reader::sample_pair`, the fast path
/// of `TimeSeries::read`: times of 19 and 20 digits and past `u64`,
/// signed and zero-led ones; `-0`, `-0.0`, zero-led and dotless values;
/// fraction mantissas at and past 2^53 and 22 and 23 fraction digits;
/// integer values past 19 digits and past `i128`; exponents; whitespace
/// inside a pair; and pairs of the wrong length or kind.
const EDGE_PAIRS: [&str; 40] = [
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

/// The streamed reads never panic, and they accept exactly what the
/// tree path accepts, with the same values.
#[test]
fn streamed_reads_match_the_tree_on_arbitrary_bytes() {
    let mut rng = SplitMix64::new(0x5724_EA4D);
    let (mut trees, mut series) = (0u32, 0u32);
    for round in 0..6000 {
        let bytes = if round % 2 == 0 {
            let len = 1 + rng.next_below(64) as usize;
            arbitrary_bytes(&mut rng, len)
        } else {
            arbitrary_series(&mut rng)
        };
        let text = String::from_utf8_lossy(&bytes);
        let tree = Json::parse(&text);
        let walked = streamed(&text);
        assert_eq!(
            walked.is_ok(),
            tree.is_ok(),
            "{text:?}: {walked:?} vs {tree:?}"
        );
        if let (Ok(a), Ok(b)) = (&walked, &tree) {
            assert_eq!(a, b, "{text:?}");
            trees += 1;
        }
        let from_tree = tree
            .and_then(|t| TimeSeries::from_json(&t))
            .map(|ts| pairs(&ts));
        let read = series_read(&text);
        assert_eq!(
            read.is_ok(),
            from_tree.is_ok(),
            "{text:?}: {read:?} vs {from_tree:?}"
        );
        if read.is_ok() {
            assert_eq!(read, from_tree, "{text:?}");
            series += 1;
        }
    }
    assert!(trees > 0 && series > 0, "{trees} trees, {series} series");
}

/// Every single-sample series built from an edge part or a random pair
/// reads as the tree path reads it: the same verdict and, when
/// accepted, the same time and value bits. Many of them take the fast
/// path, and all that it takes it reads the same way.
#[test]
fn single_samples_read_like_the_tree() {
    let mut rng = SplitMix64::new(0x5A3D_1E00);
    let mut texts: Vec<String> = EDGE_PAIRS.iter().map(|p| format!("[{p}]")).collect();
    for _ in 0..20_000 {
        let mut pair = Vec::new();
        random_pair(&mut rng, &mut pair);
        texts.push(format!("[{}]", String::from_utf8(pair).expect("ASCII")));
    }
    let (mut fast, mut accepted) = (0, 0);
    for text in &texts {
        let from_tree = Json::parse(text)
            .and_then(|t| TimeSeries::from_json(&t))
            .map(|ts| pairs(&ts));
        let read = series_read(text);
        assert_eq!(
            read.is_ok(),
            from_tree.is_ok(),
            "{text}: {read:?} vs {from_tree:?}"
        );
        if read.is_ok() {
            assert_eq!(read, from_tree, "{text}");
            accepted += 1;
        }
        let mut r = Reader::new(&text[1..]);
        if let Some((time, value)) = r.sample_pair() {
            assert_eq!(Ok(vec![(time, value.to_bits())]), from_tree, "{text}");
            fast += 1;
        }
    }
    assert!(
        fast > 5_000 && accepted > fast,
        "{fast} fast of {accepted} accepted"
    );
}

/// The streamed reads reject nesting past `MAX_PARSE_DEPTH` like
/// `Json::parse`, and accept it just inside.
#[test]
fn streamed_reads_reject_deep_nesting() {
    let deep_arr = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    let deep_obj = format!("{}1{}", "{\"k\":".repeat(100_000), "}".repeat(100_000));
    for text in [&deep_arr, &deep_obj] {
        let err = streamed(text).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
    let err = series_read(&deep_arr).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");
    let err = series_read(&format!("[[0,{deep_obj}]]")).unwrap_err();
    assert!(err.contains("nesting deeper than"), "{err}");

    // Each level counts once, so the limit falls where the tree's does.
    let at = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    assert!(streamed(&at(MAX_PARSE_DEPTH)).is_ok());
    assert!(Json::parse(&at(MAX_PARSE_DEPTH)).is_ok());
    assert!(streamed(&at(MAX_PARSE_DEPTH + 1)).is_err());
    assert!(Json::parse(&at(MAX_PARSE_DEPTH + 1)).is_err());

    // A compact series read that deep: its pair's scalars sit at the
    // limit or one past it, and the fast path leaves the verdict to the
    // general read.
    fn descend(r: &mut Reader<'_>, levels: usize) -> Result<(), String> {
        if levels == 0 {
            return TimeSeries::read(r).map(drop);
        }
        r.array(|r| descend(r, levels - 1))
    }
    for levels in MAX_PARSE_DEPTH - 3..=MAX_PARSE_DEPTH {
        let text = format!("{}[[1,2]]{}", "[".repeat(levels), "]".repeat(levels));
        let mut r = Reader::new(&text);
        let read = descend(&mut r, levels).and_then(|()| r.finish());
        assert_eq!(
            read.is_ok(),
            Json::parse(&text).is_ok(),
            "{levels}: {read:?}"
        );
        assert_eq!(read.is_ok(), levels + 2 <= MAX_PARSE_DEPTH, "{levels}");
    }
}
