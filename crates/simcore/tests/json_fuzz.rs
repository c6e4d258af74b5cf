//! Seeded fuzz/property tests for the hand-rolled JSON layer.
//!
//! The parser is fed by artifact files, result-store fragments, and
//! Chrome traces that may be torn mid-write by a crash — so it must
//! never panic, whatever bytes it sees, and must reject (not overflow
//! on) adversarially deep nesting. The writer/parser pair must
//! round-trip every value the suite can produce, including non-finite
//! floats (written as `null` by design).
//!
//! A series read from its raw-bits string (`TimeSeries::from_json` on
//! a [`Json::Str`], the form result-store fragments hold) is held to a
//! reference decoder written from RFC 4648 here: the same verdict on
//! every string, valid, mangled or arbitrary, and the same times and
//! value bits.
//!
//! Everything is driven by `SplitMix64` from fixed seeds: a failure
//! reproduces exactly, per the workspace's determinism rules.

use std::sync::Arc;

use simcore::json::{Json, MAX_PARSE_DEPTH};
use simcore::rng::SplitMix64;
use simcore::stats::{encode_bits, Sample, TimeSeries};
use simcore::time::SimTime;

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
            Json::Pairs(Arc::new(
                (0..len)
                    .map(|_| Sample {
                        time: SimTime::from_nanos(rng.next_u64() >> rng.next_below(64)),
                        value: arbitrary_float(rng),
                    })
                    .collect(),
            ))
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
                .map(|s| {
                    let value = normalize(&Json::Num(s.value));
                    Json::Arr(vec![Json::from(s.time.as_nanos()), value])
                })
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

/// The base64 alphabet of RFC 4648 §4.
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The reference decoder: RFC 4648 base64 in its canonical form (groups
/// of four, `=` only to pad the last, padded bits zero), read one sextet
/// at a time into a bit buffer, then cut into 16-byte little-endian
/// `(time_ns, value bits)` records whose times must not decrease. An
/// empty string holds no series.
fn reference_decode(text: &[u8]) -> Option<Vec<(u64, u64)>> {
    if text.is_empty() || !text.len().is_multiple_of(4) {
        return None;
    }
    let pad = text.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return None;
    }
    let (mut bytes, mut buffer, mut bits) = (Vec::new(), 0u32, 0);
    for &c in &text[..text.len() - pad] {
        let sextet = ALPHABET.iter().position(|&a| a == c)?;
        buffer = buffer << 6 | sextet as u32;
        bits += 6;
        if bits >= 8 {
            bits -= 8;
            bytes.push((buffer >> bits) as u8);
            buffer &= (1 << bits) - 1;
        }
    }
    if buffer != 0 || !bytes.len().is_multiple_of(16) {
        return None;
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
    let records: Vec<(u64, u64)> = bytes
        .chunks(16)
        .map(|r| (word(&r[..8]), word(&r[8..])))
        .collect();
    records
        .windows(2)
        .all(|w| w[0].0 <= w[1].0)
        .then_some(records)
}

/// `TimeSeries::from_json` on `text` as a string node, as times and
/// value bits; `None` when it rejects it.
fn decode(text: &[u8]) -> Option<Vec<(u64, u64)>> {
    let ts = TimeSeries::from_json(&Json::Str(String::from_utf8_lossy(text).into_owned())).ok()?;
    Some(
        ts.samples()
            .iter()
            .map(|s| (s.time.as_nanos(), s.value.to_bits()))
            .collect(),
    )
}

/// A value drawn from the classes a text series cannot hold or holds
/// only approximately: NaNs of several payloads and both signs, ±inf,
/// −0.0, subnormals, integers around 2^53, and arbitrary bits.
fn edge_bits(rng: &mut SplitMix64) -> f64 {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    const VALUES: [f64; 10] = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        EXACT - 1.0,
        EXACT,
        EXACT + 2.0,
        -EXACT,
        0.1,
    ];
    match rng.next_below(4) {
        0 => VALUES[rng.next_below(VALUES.len() as u64) as usize],
        // A NaN of random sign, quiet bit and payload.
        1 => f64::from_bits(rng.next_u64() | 0x7ff0_0000_0000_0001),
        // A subnormal.
        2 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// A series of 1–40 samples at non-decreasing times from 0 to
/// `u64::MAX`, values from [`edge_bits`].
fn arbitrary_samples(rng: &mut SplitMix64) -> Vec<Sample> {
    let len = 1 + rng.next_below(40) as usize;
    let mut times: Vec<u64> = (0..len)
        .map(|_| match rng.next_below(4) {
            0 => 0,
            1 => u64::MAX,
            _ => rng.next_u64() >> rng.next_below(64),
        })
        .collect();
    times.sort_unstable();
    times
        .into_iter()
        .map(|t| Sample {
            time: SimTime::from_nanos(t),
            value: edge_bits(rng),
        })
        .collect()
}

/// Every sample's bits survive the string form, which is the reference
/// encoding of its records, and a mangled string (a byte replaced,
/// inserted or cut, padding added or removed) is read as the reference
/// reads it, accepted or rejected, without a panic. Arbitrary bytes
/// are read as the reference reads them too.
#[test]
fn series_bits_decode_like_the_reference() {
    const HOT: &[u8] = b"=AQgw+/-_ \"\\\n\x00\x7f\xff";
    let mut rng = SplitMix64::new(0xB175_E41D);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for round in 0..6000 {
        let samples = arbitrary_samples(&mut rng);
        let text = encode_bits(&samples).into_bytes();
        let want: Vec<(u64, u64)> = samples
            .iter()
            .map(|s| (s.time.as_nanos(), s.value.to_bits()))
            .collect();
        assert_eq!(reference_decode(&text), Some(want.clone()), "{round}");
        assert_eq!(decode(&text), Some(want), "{round}");
        let mut mangled = text.clone();
        let at = rng.next_below(mangled.len() as u64 + 1) as usize;
        let byte = match rng.next_below(3) {
            0 => ALPHABET[rng.next_below(64) as usize],
            1 => HOT[rng.next_below(HOT.len() as u64) as usize],
            _ => rng.next_u64() as u8,
        };
        match rng.next_below(5) {
            0 if at < mangled.len() => mangled[at] = byte,
            1 => mangled.insert(at, byte),
            2 => mangled.truncate(at),
            3 => mangled.push(b'='),
            _ => {
                while mangled.last() == Some(&b'=') {
                    mangled.pop();
                }
            }
        }
        if round % 4 == 0 {
            let len = rng.next_below(48) as usize;
            mangled = arbitrary_bytes(&mut rng, len);
        }
        // The node holds what `Json::parse` can: valid UTF-8.
        let mangled = String::from_utf8_lossy(&mangled).into_owned().into_bytes();
        let got = decode(&mangled);
        assert_eq!(
            got,
            reference_decode(&mangled),
            "{:?}",
            String::from_utf8_lossy(&mangled)
        );
        if got.is_some() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert!(accepted > 500 && rejected > 500, "{accepted} / {rejected}");
}
