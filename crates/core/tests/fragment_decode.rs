//! The result store's decode of every fragment form it serves.
//!
//! `ResultStore::put` writes a v2 fragment: compact JSON whose non-empty
//! series are strings of raw sample bits. Earlier builds wrote v1
//! fragments, compact or pretty, whose series are text pairs, and the
//! pretty form of a v2 fragment serves too. The oracle is the store's
//! decode rebuilt here: `Json::parse`, the schema and digest checks, a
//! reference base64 decoder that turns each series string into the
//! `Arr` of pairs it holds, and `BenchReport::from_json`. For every text
//! below, both must accept or both reject, and an accepted text must
//! give the same report, byte for byte in its compact JSON. The texts
//! are seeded fragments, in all four forms, of DES and analytic runs
//! that succeeded, failed or ran out of budget, series that are empty or
//! hold edge-case literals, and their truncated, byte-flipped,
//! duplicate-key, unknown-key and reordered variants. Other tests
//! reject v2 fragments with corrupt series strings and put series of
//! every value class back and forth bit for bit.

use std::path::PathBuf;

use mrbench::store::{FRAGMENT_SCHEMA, LEGACY_FRAGMENT_SCHEMA};
use mrbench::{
    config_digest, BackendKind, BenchConfig, BenchReport, Interconnect, MicroBenchmark, ResultStore,
};
use simcore::jobj;
use simcore::json::Json;
use simcore::rng::SplitMix64;
use simcore::stats::{encode_bits, Sample, TimeSeries};
use simcore::time::SimTime;
use simcore::units::ByteSize;

fn small(bench: MicroBenchmark, seed: u64) -> BenchConfig {
    let mut c = BenchConfig::cluster_a_default(bench, Interconnect::GigE1, ByteSize::from_mib(96));
    c.slaves = 2;
    c.num_maps = 4;
    c.num_reduces = 3;
    c.seed = seed;
    c
}

/// Marker values of the edge-case series, each rewritten in a v1 text
/// to a literal the writer never emits: exponents, an integer past
/// 2^53, `-0.0`, and whitespace inside a pair.
const REWRITES: [(&str, &str); 5] = [
    ("4321.125", "4.321125e3"),
    ("987654321", "9.87654321E+8"),
    ("31337", "9007199254740993"),
    ("2718.5", "-0.0"),
    ("1618.25", " 1618.25 "),
];

/// A marker rewritten in a v1 text to a literal or shape the grammar or
/// the series rejects: a dotless fraction, a bare fraction, a zero-led
/// integer, an integer past `i128`, and a pair of three.
const REJECTED: [(&str, &str); 5] = [
    ("4242.75", "4242."),
    ("4242.75", ".75"),
    ("4242.75", "04242"),
    ("4242.75", "4242000000000000000000000000000000000000"),
    ("4242.75", "4242.75,1"),
];

/// The edge-case samples: each one's time, value, and the value a v1
/// text of it reads back as once [`REWRITES`] are applied. Times run
/// from 0 past 19 and 20 digits to `u64::MAX`; values cover `-0`
/// (written by the text writer, read as +0.0), `-0.0`, negative
/// integral values, a 17-digit mantissa past 2^53, 22 and 23 fraction
/// digits, and an integer literal past 19 digits. A v2 fragment keeps
/// every value bit for bit.
const EDGE_SAMPLES: [(u64, f64, f64); 19] = [
    (0, 1.0, 1.0),
    (1, 0.25, 0.25),
    (2, -0.0, 0.0),
    (3, 4321.125, 4321.125),
    (4, 987_654_321.0, 987_654_321.0),
    (5, 31337.0, 9_007_199_254_740_992.0),
    (6, 2718.5, -0.0),
    (7, 0.300_000_000_000_000_04, 0.300_000_000_000_000_04),
    (8, 3e-22, 3e-22),
    (9, 1e-23, 1e-23),
    (10, -123.0, -123.0),
    (11, 1e21, 1e21),
    (12, 1618.25, 1618.25),
    (13, 4242.75, 4242.75),
    ((1 << 53) + 1, 1e-7, 1e-7),
    (9_999_999_999_999_999_999, 0.5, 0.5),
    (10_000_000_000_000_000_000, -6.25, -6.25),
    (
        10_000_000_000_000_000_000,
        12.500_000_000_000_005,
        12.500_000_000_000_005,
    ),
    (u64::MAX, -2.5, -2.5),
];

fn series(samples: impl IntoIterator<Item = (u64, f64)>) -> TimeSeries {
    let mut ts = TimeSeries::new();
    for (time, value) in samples {
        ts.push(SimTime::from_nanos(time), value);
    }
    ts
}

/// The seeded reports: every outcome, both backends, empty series, and
/// a series of edge-case samples.
fn reports() -> Vec<(&'static str, BenchReport)> {
    let run = |c: &BenchConfig| mrbench::run(c).expect("valid config");
    let des = run(&small(MicroBenchmark::Avg, 11));
    let mut analytic = small(MicroBenchmark::Rand, 12);
    analytic.backend = BackendKind::Analytic;
    let mut failed = small(MicroBenchmark::Skew, 13);
    failed.faults.map_failure_prob = 1.0;
    failed.max_attempts = 2;
    let mut budget = small(MicroBenchmark::Avg, 14);
    budget.max_events = Some(50);

    let mut empty = des.clone();
    empty.result.cpu_series = vec![TimeSeries::new(); 2];
    empty.result.net_rx_series = Vec::new();

    let mut edges = des.clone();
    edges.result.cpu_series[0] = series(EDGE_SAMPLES.map(|(t, v, _)| (t, v)));

    let all = vec![
        ("des", des),
        ("analytic", run(&analytic)),
        ("failed", run(&failed)),
        ("budget", run(&budget)),
        ("empty-series", empty),
        ("edge-samples", edges),
    ];
    assert!(
        all[2].1.result.failure.is_some(),
        "a failed run with its diagnosis"
    );
    assert!(
        all[3].1.result.budget.is_some(),
        "a run past its event budget"
    );
    all
}

/// The v1 fragment earlier builds wrote for `report`: its series are
/// the text pairs `BenchReport::to_json` writes.
fn v1_fragment(report: &BenchReport) -> Json {
    jobj! {
        "schema": LEGACY_FRAGMENT_SCHEMA,
        "digest": config_digest(&report.config),
        "report": report.to_json(),
    }
}

/// The text `store.put` writes for `report`, under its digest.
fn put_text(store: &ResultStore, report: &BenchReport) -> String {
    let digest = config_digest(&report.config);
    store.put(&digest, report).expect("fragment is written");
    std::fs::read_to_string(store.fragment_path(&digest)).expect("fragment reads")
}

/// The base64 alphabet of RFC 4648 §4.
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// The reference decoder of a series string: canonical RFC 4648 base64
/// read one sextet at a time into a bit buffer, cut into 16-byte
/// little-endian `[time_ns, value bits]` records. The order of the times
/// is left to `TimeSeries::from_json` on the `Arr` it builds.
fn reference_pairs(text: &[u8]) -> Option<Json> {
    if text.is_empty() || !text.len().is_multiple_of(4) {
        return None;
    }
    let pad = text.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return None;
    }
    let (mut bytes, mut buffer, mut bits) = (Vec::new(), 0u32, 0);
    for &c in &text[..text.len() - pad] {
        buffer = buffer << 6 | ALPHABET.iter().position(|&a| a == c)? as u32;
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
    let pairs = bytes.chunks(16).map(|r| {
        let value = f64::from_bits(word(&r[8..]));
        Json::Arr(vec![Json::from(word(&r[..8])), Json::Num(value)])
    });
    Some(Json::Arr(pairs.collect()))
}

/// The member `key` of an object, the first of duplicates as in
/// `Json::get`.
fn first_member<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match v {
        Json::Obj(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, m)| m),
        _ => None,
    }
}

/// The store's decode rebuilt over [`reference_pairs`].
fn reference_decode(bytes: &[u8], digest: &str) -> Option<String> {
    let mut json = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    let schema = json.field_str("schema").ok()?;
    if ![FRAGMENT_SCHEMA, LEGACY_FRAGMENT_SCHEMA].contains(&schema)
        || json.field_str("digest").ok()? != digest
    {
        return None;
    }
    let result = first_member(first_member(&mut json, "report")?, "result")?;
    for key in ["cpu_series", "net_rx_series"] {
        if let Some(Json::Arr(all)) = first_member(result, key) {
            for series in all {
                if let Json::Str(bits) = series {
                    *series = reference_pairs(bits.as_bytes())?;
                }
            }
        }
    }
    let report = BenchReport::from_json(json.get("report")?).ok()?;
    Some(report.to_json().to_compact())
}

/// Serves `bytes` as the fragment of `digest` through the store and
/// checks the answer against [`reference_decode`].
fn served(store: &ResultStore, digest: &str, bytes: &[u8], what: &str) -> Option<String> {
    std::fs::write(store.fragment_path(digest), bytes).expect("fragment is writable");
    let got = store.get(digest).map(|r| r.to_json().to_compact());
    let oracle = reference_decode(bytes, digest);
    assert!(
        got == oracle,
        "{what}: the store {} but the reference {}\n{}",
        verdict(&got),
        verdict(&oracle),
        String::from_utf8_lossy(bytes)
    );
    got
}

fn verdict(decoded: &Option<String>) -> &'static str {
    if decoded.is_some() {
        "accepts"
    } else {
        "rejects"
    }
}

/// Key paths of every object reachable from `v` through object members.
fn object_paths(v: &Json, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    if let Json::Obj(members) = v {
        out.push(path.clone());
        for (key, member) in members {
            path.push(key.clone());
            object_paths(member, path, out);
            path.pop();
        }
    }
}

/// An object's members, in order.
type Members = Vec<(String, Json)>;

fn members_at<'a>(v: &'a mut Json, path: &[String]) -> &'a mut Members {
    let Json::Obj(members) = v else {
        unreachable!("object_paths only lists objects")
    };
    match path.split_first() {
        None => members,
        Some((key, rest)) => {
            let (_, member) = members
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("path exists");
            members_at(member, rest)
        }
    }
}

/// Each object's members reversed, an unknown key first and last, and
/// each key doubled with a junk value before and after the real one.
fn structural_variants(fragment: &Json) -> Vec<(String, Json)> {
    let mut paths = Vec::new();
    object_paths(fragment, &mut Vec::new(), &mut paths);
    let mut out = Vec::new();
    for path in paths {
        let at = path.join(".");
        let mut variant = |what: String, edit: &dyn Fn(&mut Members)| {
            let mut v = fragment.clone();
            edit(members_at(&mut v, &path));
            out.push((format!("{at}: {what}"), v));
        };
        variant("reordered".into(), &|m| m.reverse());
        variant("unknown key first".into(), &|m| {
            m.insert(0, ("unknown_key".into(), Json::Int(1)));
        });
        variant("unknown key last".into(), &|m| {
            m.push(("unknown_key".into(), Json::Arr(Vec::new())));
        });
        let keys: Vec<String> = members_at(&mut fragment.clone(), &path)
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            variant(format!("'{key}' twice, junk second"), &|m| {
                m.push((key.clone(), Json::from("junk")));
            });
            variant(format!("'{key}' twice, junk first"), &|m| {
                m.insert(0, (key.clone(), Json::from("junk")));
            });
        }
    }
    out
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrbench-decode-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each series' samples as times and value bits.
fn sample_bits(all: &[TimeSeries]) -> Vec<Vec<(u64, u64)>> {
    all.iter()
        .map(|ts| {
            ts.samples()
                .iter()
                .map(|s| (s.time.as_nanos(), s.value.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn store_decode_matches_the_reference_on_every_variant() {
    let dir = scratch("variants");
    let store = ResultStore::open(&dir).unwrap();
    let mut rng = SplitMix64::new(0xF4A6_2014);
    let mut checked = 0;
    for (name, report) in reports() {
        let digest = config_digest(&report.config);
        let v1 = v1_fragment(&report);
        let v2 = Json::parse(&put_text(&store, &report)).unwrap();
        let forms = [
            ("v2 compact", v2.to_compact()),
            ("v2 pretty", v2.to_pretty()),
            ("v1 compact", v1.to_compact()),
            ("v1 pretty", v1.to_pretty()),
        ];
        for (form, text) in forms {
            let legacy = form.starts_with("v1");
            let what = format!("{name} {form}");
            let mut text = text;
            if name == "edge-samples" && legacy {
                for (marker, literal) in REWRITES {
                    assert_eq!(text.matches(marker).count(), 1, "{marker} is unique");
                    text = text.replace(marker, literal);
                }
            }
            let decoded = served(&store, &digest, text.as_bytes(), &what)
                .unwrap_or_else(|| panic!("{what}: the fragment must be a hit"));
            if name == "edge-samples" && legacy {
                let back = store.get(&digest).unwrap();
                let read_back = series(EDGE_SAMPLES.map(|(t, _, v)| (t, v)));
                assert_eq!(
                    sample_bits(&back.result.cpu_series[..1]),
                    sample_bits(&[read_back]),
                    "{what}: -0 reads as +0.0, as `Int(0)` does"
                );
                for (marker, literal) in REJECTED {
                    assert_eq!(text.matches(marker).count(), 1, "{marker} is unique");
                    let bad = text.replace(marker, literal);
                    let got = served(
                        &store,
                        &digest,
                        bad.as_bytes(),
                        &format!("{what} {literal}"),
                    );
                    assert!(got.is_none(), "{what}: {literal} is rejected");
                }
            } else {
                assert_eq!(decoded, report.to_json().to_compact(), "{what}");
                let back = store.get(&digest).unwrap();
                assert_eq!(
                    sample_bits(&back.result.cpu_series),
                    sample_bits(&report.result.cpu_series),
                    "{what}"
                );
            }

            let bytes = text.as_bytes();
            let mut cuts = vec![0, 1, bytes.len() / 2, bytes.len() - 1];
            cuts.extend((0..40).map(|_| rng.next_below(bytes.len() as u64) as usize));
            for cut in cuts {
                let got = served(
                    &store,
                    &digest,
                    &bytes[..cut],
                    &format!("{what} cut at {cut}"),
                );
                if cut < text.trim_end().len() {
                    assert!(got.is_none(), "{what}: a fragment cut at {cut} is rejected");
                }
            }
            const HOT: &[u8] = b"0123456789-.eE+,:[]{}\" tnf=AQgw/";
            for _ in 0..60 {
                let mut flipped = bytes.to_vec();
                let at = rng.next_below(flipped.len() as u64) as usize;
                flipped[at] = match rng.next_below(4) {
                    0 => rng.next_u64() as u8,
                    1 => ALPHABET[rng.next_below(64) as usize],
                    _ => HOT[rng.next_below(HOT.len() as u64) as usize],
                };
                served(
                    &store,
                    &digest,
                    &flipped,
                    &format!("{what} byte {at} flipped"),
                );
            }
            checked += 1;
        }
        for fragment in [&v2, &v1] {
            for (what, variant) in structural_variants(fragment) {
                for text in [variant.to_compact(), variant.to_pretty()] {
                    served(&store, &digest, text.as_bytes(), &format!("{name} {what}"));
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 1000, "{checked} texts");
    let (hits, misses, rejected) = store.stats();
    assert_eq!(misses, 0, "every fragment existed");
    assert!(hits > 0 && rejected > 0, "{hits} hits, {rejected} rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every non-empty series of a fragment `put` writes is one string of
/// raw sample bits, and an empty one is `[]`.
#[test]
fn put_writes_each_series_as_one_string_of_bits() {
    let dir = scratch("bits");
    let store = ResultStore::open(&dir).unwrap();
    for (name, report) in reports() {
        let doc = Json::parse(&put_text(&store, &report)).unwrap();
        assert_eq!(doc.field_str("schema"), Ok(FRAGMENT_SCHEMA), "{name}");
        let result = doc.req("report").and_then(|r| r.req("result")).unwrap();
        let written = ["cpu_series", "net_rx_series"]
            .iter()
            .flat_map(|key| result.field_arr(key).unwrap());
        let recorded = report
            .result
            .cpu_series
            .iter()
            .chain(&report.result.net_rx_series);
        let mut samples = 0;
        for (json, ts) in written.zip(recorded) {
            match json {
                Json::Str(bits) => assert_eq!(bits, &encode_bits(ts.samples()), "{name}"),
                other => assert!(ts.is_empty() && other == &Json::Arr(Vec::new()), "{name}"),
            }
            samples += ts.len();
        }
        assert!(samples > 10 || name == "empty-series", "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Raw bytes as canonical padded base64, to build strings `encode_bits`
/// never writes.
fn reference_base64(bytes: &[u8]) -> String {
    let mut out = String::new();
    for group in bytes.chunks(3) {
        let mut word = [0u8; 3];
        word[..group.len()].copy_from_slice(group);
        let bits = u32::from(word[0]) << 16 | u32::from(word[1]) << 8 | u32::from(word[2]);
        for i in 0..4 {
            out.push(if i <= group.len() {
                char::from(ALPHABET[(bits >> (18 - 6 * i) & 63) as usize])
            } else {
                '='
            });
        }
    }
    out
}

/// A v2 fragment whose series string is corrupt, in each way the decode
/// checks: a byte outside the alphabet, padding that is missing,
/// misplaced or pads non-zero bits, bits that are not whole 16-byte
/// records, and a time that decreases. Each is rejected and counted,
/// not served and not a panic.
#[test]
fn corrupt_series_bits_are_rejected() {
    let dir = scratch("corrupt");
    let store = ResultStore::open(&dir).unwrap();
    let mut report = mrbench::run(&small(MicroBenchmark::Avg, 31)).unwrap();
    // Four samples: 64 bytes, so the last group carries two `=`.
    let samples = [(1, 0.5), (2, 1.5), (3, f64::NAN), (4, 99.0)];
    report.result.cpu_series[0] = series(samples);
    let digest = config_digest(&report.config);
    let text = put_text(&store, &report);
    let good = encode_bits(report.result.cpu_series[0].samples());
    assert_eq!(text.matches(&good).count(), 1);
    assert!(good.ends_with("A=="), "{good}");

    let raw: Vec<u8> = samples
        .iter()
        .flat_map(|&(t, v): &(u64, f64)| {
            let mut record = t.to_le_bytes().to_vec();
            record.extend(v.to_bits().to_le_bytes());
            record
        })
        .collect();
    assert_eq!(reference_base64(&raw), good);
    let backwards = [(1, 0.5), (3, 1.5), (2, 2.5)].map(|(t, value)| Sample {
        time: SimTime::from_nanos(t),
        value,
    });
    let cut = |n: usize| good[..good.len() - n].to_owned();
    let variants = [
        ("a byte outside the alphabet", good.replacen('A', "-", 1)),
        ("a URL-safe byte", format!("_{}", &good[1..])),
        ("padding dropped", cut(2)),
        ("one `=` of two", cut(1)),
        ("three `=`", format!("{}===", cut(3))),
        ("`=` before a data byte", format!("{}=A=", cut(3))),
        ("padded bits not zero", format!("{}B==", cut(3))),
        ("`=` inside the string", format!("{good}AAAA")),
        ("half a record", reference_base64(&raw[..56])),
        ("a record and a byte", reference_base64(&raw[..17])),
        ("an empty string", String::new()),
        ("a decreasing time", encode_bits(&backwards)),
    ];
    for (i, (what, bits)) in variants.into_iter().enumerate() {
        assert_ne!(bits, good, "{what}");
        let bad = text.replace(&good, &bits);
        std::fs::write(store.fragment_path(&digest), &bad).unwrap();
        assert!(store.get(&digest).is_none(), "{what} is rejected");
        assert_eq!(store.stats(), (0, 0, i as u64 + 1), "{what} is counted");
        assert!(
            reference_decode(bad.as_bytes(), &digest).is_none(),
            "{what}"
        );
    }
    std::fs::write(store.fragment_path(&digest), &text).unwrap();
    assert!(store.get(&digest).is_some(), "the fragment itself serves");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A value from the classes a text series cannot hold or holds only
/// approximately: NaNs of several payloads and both signs, ±inf, −0.0,
/// subnormals, integers around 2^53, and arbitrary bits.
fn edge_bits(rng: &mut SplitMix64) -> f64 {
    const EXACT: f64 = 9_007_199_254_740_992.0;
    const VALUES: [f64; 9] = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f64::MIN_POSITIVE,
        EXACT - 1.0,
        EXACT,
        EXACT + 2.0,
        -EXACT - 2.0,
        f64::MAX,
    ];
    match rng.next_below(4) {
        0 => VALUES[rng.next_below(VALUES.len() as u64) as usize],
        1 => f64::from_bits(rng.next_u64() | 0x7ff0_0000_0000_0001),
        2 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// Seeded series of every value class, at times from 0 to `u64::MAX`,
/// go `put` → `get` → `put` with equal bytes, and `get` serves each
/// value's bits: NaN payloads and infinities too, which a text series
/// writes as `null` and could not read back.
#[test]
fn series_bits_round_trip_put_get_put() {
    let dir = scratch("round-trip");
    let (first, second) = (
        ResultStore::open(dir.join("first")).unwrap(),
        ResultStore::open(dir.join("second")).unwrap(),
    );
    let base = mrbench::run(&small(MicroBenchmark::Avg, 41)).unwrap();
    let digest = config_digest(&base.config);
    let mut rng = SplitMix64::new(0x0B17_5EED);
    for round in 0..40 {
        let mut report = base.clone();
        let mut seeded = || {
            let len = rng.next_below(50);
            let mut times: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            times.extend([0, u64::MAX].into_iter().take(len.min(2) as usize));
            times.sort_unstable();
            series(times.into_iter().map(|t| (t, edge_bits(&mut rng))))
        };
        report.result.cpu_series = (0..3).map(|_| seeded()).collect();
        report.result.net_rx_series = (0..2).map(|_| seeded()).collect();
        let text = put_text(&first, &report);
        let served = first.get(&digest).expect("the fragment is served");
        for (got, want) in [
            (&served.result.cpu_series, &report.result.cpu_series),
            (&served.result.net_rx_series, &report.result.net_rx_series),
        ] {
            assert_eq!(sample_bits(got), sample_bits(want), "round {round}");
        }
        assert!(put_text(&second, &served) == text, "round {round}");
    }
    assert_eq!(first.stats(), (40, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_keys_take_the_first_like_json_get() {
    let dir = scratch("duplicates");
    let store = ResultStore::open(&dir).unwrap();
    let report = mrbench::run(&small(MicroBenchmark::Avg, 21)).unwrap();
    let digest = config_digest(&report.config);
    let mut other = report.clone();
    other.result.cpu_series[0] = TimeSeries::new();
    other.result.net_rx_series.clear();
    let v2 = |report: &BenchReport| Json::parse(&put_text(&store, report)).unwrap();
    // The result's series twice: a valid second copy is ignored.
    let mut doc = v2(&report);
    let Json::Obj(second) = v2(&other)
        .req("report")
        .unwrap()
        .req("result")
        .unwrap()
        .clone()
    else {
        unreachable!()
    };
    let result = members_at(&mut doc, &["report".into(), "result".into()]);
    result.extend(second.into_iter().filter(|(k, _)| k.ends_with("_series")));
    let got = served(&store, &digest, doc.to_compact().as_bytes(), "series twice");
    assert_eq!(got, Some(report.to_json().to_compact()));
    // The whole report twice, the other one first: it is the one served.
    let mut doc = v2(&report);
    let first = v2(&other).req("report").unwrap().clone();
    members_at(&mut doc, &[]).insert(0, ("report".into(), first));
    let got = served(&store, &digest, doc.to_pretty().as_bytes(), "report twice");
    assert_eq!(got, Some(other.to_json().to_compact()));
    let _ = std::fs::remove_dir_all(&dir);
}
