//! The result store's streamed decode against the tree it replaced.
//!
//! `ResultStore::get` reads a fragment's series straight from the text
//! and everything else as `Json` subtrees. Its oracle is the tree path:
//! `Json::parse`, the schema and digest checks, then
//! `BenchReport::from_json`. For every text below, compact and pretty,
//! both must accept or both reject, and an accepted text must give the
//! same report, byte for byte in its compact JSON. The texts are seeded
//! fragments of DES and analytic runs that succeeded, failed or ran out
//! of budget, series that are empty or hold edge-case literals, and
//! their truncated, byte-flipped, duplicate-key, unknown-key and
//! reordered variants. Another test counts which samples of a fragment
//! `Reader::sample_pair`, the fast path of the series decode, takes.

use std::path::PathBuf;

use mrbench::store::FRAGMENT_SCHEMA;
use mrbench::{
    config_digest, BackendKind, BenchConfig, BenchReport, Interconnect, MicroBenchmark, ResultStore,
};
use simcore::jobj;
use simcore::json::{Json, Reader};
use simcore::rng::SplitMix64;
use simcore::stats::TimeSeries;
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

/// Marker values of the edge-case series, each rewritten in the text to
/// a literal the writer never emits: exponents, an integer past 2^53,
/// `-0.0`, and whitespace inside a pair.
const REWRITES: [(&str, &str); 5] = [
    ("4321.125", "4.321125e3"),
    ("987654321", "9.87654321E+8"),
    ("31337", "9007199254740993"),
    ("2718.5", "-0.0"),
    ("1618.25", " 1618.25 "),
];

/// A marker rewritten to a literal or shape the grammar or the series
/// rejects: a dotless fraction, a bare fraction, a zero-led integer, an
/// integer past `i128`, and a pair of three.
const REJECTED: [(&str, &str); 5] = [
    ("4242.75", "4242."),
    ("4242.75", ".75"),
    ("4242.75", "04242"),
    ("4242.75", "4242000000000000000000000000000000000000"),
    ("4242.75", "4242.75,1"),
];

/// The edge-case series: each sample's time, value and the value it
/// reads back as once [`REWRITES`] are applied. Times run from 0 past
/// 19 and 20 digits to `u64::MAX`; values cover `-0` (written by the
/// writer, read as +0.0), `-0.0`, negative integral values, a 17-digit
/// mantissa past 2^53, 22 and 23 fraction digits, and an integer literal
/// past 19 digits.
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

/// The seeded reports: every outcome, both backends, empty series, and
/// one series of edge-case samples.
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
    let mut series = TimeSeries::new();
    for (time, value, _) in EDGE_SAMPLES {
        series.push(SimTime::from_nanos(time), value);
    }
    edges.result.cpu_series[0] = series;

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

fn fragment(report: &BenchReport) -> Json {
    jobj! {
        "schema": FRAGMENT_SCHEMA,
        "digest": config_digest(&report.config),
        "report": report.to_json(),
    }
}

/// The tree path: what `ResultStore::get` did before it streamed.
fn tree_decode(bytes: &[u8], digest: &str) -> Option<String> {
    let json = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
    if json.field_str("schema").ok()? != FRAGMENT_SCHEMA || json.field_str("digest").ok()? != digest
    {
        return None;
    }
    let report = BenchReport::from_json(json.get("report")?).ok()?;
    Some(report.to_json().to_compact())
}

/// Serves `bytes` as the fragment of `digest` through the store and
/// checks the answer against [`tree_decode`].
fn served(store: &ResultStore, digest: &str, bytes: &[u8], what: &str) -> Option<String> {
    std::fs::write(store.fragment_path(digest), bytes).expect("fragment is writable");
    let streamed = store.get(digest).map(|r| r.to_json().to_compact());
    let tree = tree_decode(bytes, digest);
    assert!(
        streamed == tree,
        "{what}: streamed {} but the tree {}\n{}",
        verdict(&streamed),
        verdict(&tree),
        String::from_utf8_lossy(bytes)
    );
    streamed
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

#[test]
fn streamed_decode_matches_the_tree_on_every_variant() {
    let dir = scratch("variants");
    let store = ResultStore::open(&dir).unwrap();
    let mut rng = SplitMix64::new(0xF4A6_2014);
    let mut checked = 0;
    for (name, report) in reports() {
        let fragment = fragment(&report);
        let digest = config_digest(&report.config);
        for (layout, text) in [
            ("compact", fragment.to_compact()),
            ("pretty", fragment.to_pretty()),
        ] {
            let mut text = text;
            if name == "edge-samples" {
                for (marker, literal) in REWRITES {
                    assert_eq!(text.matches(marker).count(), 1, "{marker} is unique");
                    text = text.replace(marker, literal);
                }
            }
            let what = format!("{name} {layout}");
            let decoded = served(&store, &digest, text.as_bytes(), &what)
                .unwrap_or_else(|| panic!("{what}: the fragment must be a hit"));
            if name == "edge-samples" {
                let back = store.get(&digest).unwrap();
                let got: Vec<(u64, u64)> = back.result.cpu_series[0]
                    .samples()
                    .iter()
                    .map(|s| (s.time.as_nanos(), s.value.to_bits()))
                    .collect();
                let want: Vec<(u64, u64)> = EDGE_SAMPLES
                    .iter()
                    .map(|&(time, _, value)| (time, value.to_bits()))
                    .collect();
                assert_eq!(got, want, "{what}: -0 reads as +0.0, as `Int(0)` does");
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
            const HOT: &[u8] = b"0123456789-.eE+,:[]{}\" tnf";
            for _ in 0..60 {
                let mut flipped = bytes.to_vec();
                let at = rng.next_below(flipped.len() as u64) as usize;
                flipped[at] = match rng.next_below(3) {
                    0 => rng.next_u64() as u8,
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
        for (what, variant) in structural_variants(&fragment) {
            for text in [variant.to_compact(), variant.to_pretty()] {
                served(&store, &digest, text.as_bytes(), &format!("{name} {what}"));
                checked += 1;
            }
        }
    }
    assert!(checked > 500, "{checked} texts");
    let (hits, misses, rejected) = store.stats();
    assert_eq!(misses, 0, "every fragment existed");
    assert!(hits > 0 && rejected > 0, "{hits} hits, {rejected} rejected");
    let _ = std::fs::remove_dir_all(&dir);
}

/// How many samples of a fragment's series `Reader::sample_pair` takes
/// and how many it leaves to the general read, walking the fragment as
/// `ResultStore::get` does.
fn sample_paths(text: &str) -> (usize, usize) {
    let (mut fast, mut general) = (0, 0);
    let mut reader = Reader::new(text);
    reader
        .object_with(&["report"], |r, _| {
            r.object_with(&["result"], |r, _| {
                r.object_with(&["cpu_series", "net_rx_series"], |r, _| {
                    r.array(|r| {
                        r.array(|r| {
                            if r.sample_pair().is_some() {
                                fast += 1;
                            } else {
                                general += 1;
                                r.value()?;
                            }
                            Ok(())
                        })
                    })
                })
                .map(drop)
            })
            .map(drop)
        })
        .expect("the fragment parses");
    reader.finish().expect("the fragment ends");
    (fast, general)
}

/// Every sample of a compact fragment as `ResultStore::put` writes it
/// takes the fast path, except those the fast path leaves by design: a
/// time past 19 digits or an integral value written with more. Every
/// sample of the same fragment written pretty, as earlier builds did,
/// takes the general read.
#[test]
fn put_fragments_take_the_sample_fast_path() {
    let dir = scratch("fast-path");
    let store = ResultStore::open(&dir).unwrap();
    for (name, report) in reports() {
        let result = &report.result;
        let samples: Vec<_> = result
            .cpu_series
            .iter()
            .chain(&result.net_rx_series)
            .flat_map(TimeSeries::samples)
            .collect();
        let general = samples
            .iter()
            .filter(|s| s.time.as_nanos() >= 10_000_000_000_000_000_000 || s.value.abs() >= 1e19)
            .count();
        let digest = config_digest(&report.config);
        store.put(&digest, &report).unwrap();
        let compact = std::fs::read_to_string(store.fragment_path(&digest)).unwrap();
        assert_eq!(
            sample_paths(&compact),
            (samples.len() - general, general),
            "{name} compact"
        );
        let pretty = fragment(&report).to_pretty();
        assert_eq!(sample_paths(&pretty), (0, samples.len()), "{name} pretty");
        if name == "edge-samples" {
            assert_eq!(general, 4, "three times past 19 digits and 1e21");
        } else {
            assert!(samples.len() > 10 || name == "empty-series", "{name}");
        }
    }
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
    // The result's series twice: a valid second copy is ignored.
    let mut doc = fragment(&report);
    let result = members_at(&mut doc, &["report".into(), "result".into()]);
    let Json::Obj(second) = other.result.to_json() else {
        unreachable!()
    };
    result.extend(second.into_iter().filter(|(k, _)| k.ends_with("_series")));
    let got = served(&store, &digest, doc.to_compact().as_bytes(), "series twice");
    assert_eq!(got, Some(report.to_json().to_compact()));
    // The whole report twice, the other one first: it is the one served.
    let mut doc = fragment(&report);
    members_at(&mut doc, &[]).insert(0, ("report".into(), other.to_json()));
    let got = served(&store, &digest, doc.to_pretty().as_bytes(), "report twice");
    assert_eq!(got, Some(other.to_json().to_compact()));
    let _ = std::fs::remove_dir_all(&dir);
}
