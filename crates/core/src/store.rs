//! Content-addressed result store and crash-safe file writes.
//!
//! Determinism (seeded RNG streams, integer timestamps, canonical JSON)
//! makes every benchmark result a pure function of its [`BenchConfig`],
//! so results are infinitely cacheable: the store keys each completed
//! sweep cell by a digest of the config's canonical JSON and persists it
//! as a compact `mrbench-cell-v1` fragment (pretty fragments written by
//! earlier builds read the same). A killed sweep restarted with
//! `--resume` reloads finished cells from the store and re-runs only the
//! rest, producing a byte-identical final artifact.
//!
//! Layout: one file per cell, `<dir>/<32-hex-digest>.json`. Fragments
//! are written via [`atomic_write`] (temp file in the destination
//! directory + fsync + rename), so a crash at any instant leaves either
//! the old bytes, the new bytes, or a stray `.tmp` file — never a torn
//! fragment. Reads reject anything unreadable, unparsable, or
//! mis-digested and re-run the cell: corruption costs a re-run, not a
//! wrong answer.
//!
//! ## The digest contract
//!
//! [`config_digest`] hashes the config's **canonical JSON**
//! ([`BenchConfig::to_json`] rendered compact), and that encoding — not
//! the in-memory struct — is the contract:
//!
//! * **Fields added after v1 are emitted only when non-default** (racks,
//!   oversubscription, fabric cap, monitor interval, backend, ablation,
//!   …), so a config that never touches them digests exactly as it did
//!   before the field existed. Old fragments stay valid across suite
//!   upgrades; a new knob never invalidates a cache that never used it.
//! * The flip side: **an explicit value equal to the built-in behaviour
//!   still digests differently from leaving the field unset** whenever
//!   the encoder cannot see the equivalence. `fabric_cap_mb_s:
//!   Some(aggregate-NIC-rate)` simulates identically to `None` (the cap
//!   never binds) but emits a key and therefore gets its own digest;
//!   likewise `ablation: Some(Baseline)` vs. `None`. Equal digests
//!   imply equal results; *unequal digests do not imply different
//!   results* — the store trades a few duplicate cells for never
//!   serving a stale one.
//! * **Every semantic knob must reach the JSON.** Anything that can
//!   change a result — including which backend ([`crate::runner`])
//!   produced it — must appear in the encoding the moment it departs
//!   from the default, so DES and analytic results for the same workload
//!   live under distinct keys and can never shadow each other
//!   (`digest_distinguishes_every_semantic_knob` below pins this).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use simcore::jobj;
use simcore::json::Json;

use crate::config::BenchConfig;
use crate::error::Error;
use crate::report::BenchReport;

/// Schema tag of one persisted cell fragment.
pub const FRAGMENT_SCHEMA: &str = "mrbench-cell-v1";

/// Write `contents` to `path` crash-safely: the bytes land in a temp
/// file in the destination directory, are fsynced, and are renamed over
/// `path` in one atomic step. Readers never observe a half-written file.
pub fn atomic_write(path: &Path, contents: &str) -> Result<(), Error> {
    use std::io::Write;

    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        Error::io(
            "write",
            path,
            std::io::Error::other("path has no file name"),
        )
    })?;
    // Unique per process and per call, so concurrent writers (threads of
    // this process, other processes, a crashed predecessor's leftovers)
    // never share a temp file; the final rename is what publishes.
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    let tmp_name = format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let mut f = std::fs::File::create(&tmp).map_err(|e| Error::io("create", &tmp, e))?;
    let published = f
        .write_all(contents.as_bytes())
        .map_err(|e| Error::io("write", &tmp, e))
        // Flush to the platters before publishing the name, so a crash
        // after the rename cannot expose an empty or partial file.
        .and_then(|()| f.sync_all().map_err(|e| Error::io("sync", &tmp, e)))
        .and_then(|()| {
            drop(f);
            std::fs::rename(&tmp, path).map_err(|e| Error::io("rename", &tmp, e))
        });
    if published.is_err() {
        // The name was never published; leave no temp file behind.
        let _ = std::fs::remove_file(&tmp);
    }
    published
}

/// Digest of a config's canonical JSON: the cache key under which its
/// result is stored. 128-bit FNV-1a, rendered as 32 hex digits — not
/// cryptographic, but collision-safe for the suite's config space and
/// dependency-free.
pub fn config_digest(config: &BenchConfig) -> String {
    fnv1a_128(config.to_json().to_compact().as_bytes())
}

/// 128-bit FNV-1a over `bytes`, as lowercase hex.
pub fn fnv1a_128(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// A directory of digest-keyed result fragments. Shared across sweep
/// worker threads (`&self` everywhere, atomic counters), and across
/// *processes* too: the atomic-rename publish step makes concurrent
/// writers of the same digest last-writer-wins with no torn state.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
    bypassed: AtomicU64,
}

impl ResultStore {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, Error> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| Error::io("create", &dir, e))?;
        Ok(ResultStore {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            bypassed: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the fragment for `digest`.
    pub fn fragment_path(&self, digest: &str) -> PathBuf {
        self.dir.join(format!("{digest}.json"))
    }

    /// Look up a cached report. A missing fragment is a miss; an
    /// unreadable, non-UTF-8, torn, corrupt, or mis-keyed one is
    /// rejected. Either way the answer is `None` and the cell re-runs.
    pub fn get(&self, digest: &str) -> Option<BenchReport> {
        let found = match std::fs::read(self.fragment_path(digest)) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => Err(e.to_string()),
            Ok(bytes) => String::from_utf8(bytes).map_err(|e| e.to_string()),
        };
        match found.and_then(|text| Self::parse_fragment(&text, digest)) {
            Ok(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            Err(_) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Decodes a fragment, compact or pretty: its schema and digest
    /// must match, and its report is [`BenchReport::from_json`]. A
    /// compact fragment's series parse packed ([`Json::Pairs`]).
    fn parse_fragment(text: &str, digest: &str) -> Result<BenchReport, String> {
        let json = Json::parse(text)?;
        let schema = json.field_str("schema")?;
        if schema != FRAGMENT_SCHEMA {
            return Err(format!("unknown fragment schema '{schema}'"));
        }
        let stored = json.field_str("digest")?;
        if stored != digest {
            return Err(format!("fragment digest '{stored}' does not match key"));
        }
        BenchReport::from_json(json.req("report")?)
    }

    /// Persist `report` under `digest`, atomically, as compact JSON.
    pub fn put(&self, digest: &str, report: &BenchReport) -> Result<(), Error> {
        let fragment = jobj! {
            "schema": FRAGMENT_SCHEMA,
            "digest": digest,
            "report": report.to_json(),
        };
        atomic_write(&self.fragment_path(digest), &fragment.to_compact())
    }

    /// `(hits, misses, rejected)` counters for this store handle.
    /// "Rejected" counts fragments that existed but failed validation.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
        )
    }

    /// Count a cell that ran without consulting the store: a traced cell,
    /// whose span stream a fragment would not keep.
    pub fn note_bypass(&self) {
        self.bypassed.fetch_add(1, Ordering::Relaxed);
    }

    /// Cells counted by [`ResultStore::note_bypass`]; [`ResultStore::stats`]
    /// counts only the cells the store was asked about.
    pub fn bypassed(&self) -> u64 {
        self.bypassed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::MicroBenchmark;
    use simcore::json::Json;
    use simcore::units::ByteSize;
    use simnet::Interconnect;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mrbench-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> BenchConfig {
        let mut c = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(64),
        );
        c.num_maps = 4;
        c.num_reduces = 2;
        c.slaves = 2;
        c
    }

    #[test]
    fn digest_is_stable_and_config_sensitive() {
        let a = config_digest(&small_config());
        assert_eq!(a, config_digest(&small_config()), "deterministic");
        assert_eq!(a.len(), 32);
        let mut other = small_config();
        other.seed += 1;
        assert_ne!(a, config_digest(&other), "seed must change the key");
        let mut other = small_config();
        other.interconnect = Interconnect::RdmaFdr;
        assert_ne!(a, config_digest(&other));
    }

    #[test]
    fn digest_distinguishes_every_semantic_knob() {
        // The digest-contract pin (see module docs): each post-v1 knob
        // must move the cache key the moment it departs from its
        // default, or a backend/topology change could serve a stale
        // result recorded under different semantics.
        type Mutation = Box<dyn Fn(&mut BenchConfig)>;
        let base = config_digest(&small_config());
        let mutations: Vec<(&str, Mutation)> = vec![
            ("racks", Box::new(|c| c.racks = 2)),
            ("oversubscription", Box::new(|c| c.oversubscription = 4.0)),
            (
                "fabric_cap_mb_s",
                Box::new(|c| c.fabric_cap_mb_s = Some(200.0)),
            ),
            (
                "monitor_interval_s",
                Box::new(|c| c.monitor_interval_s = 0.5),
            ),
            (
                "backend",
                Box::new(|c| c.backend = crate::config::BackendKind::Analytic),
            ),
            (
                "ablation",
                Box::new(|c| c.ablation = Some(crate::config::Ablation::Baseline)),
            ),
        ];
        let mut seen = vec![base.clone()];
        for (name, mutate) in &mutations {
            let mut c = small_config();
            mutate(&mut c);
            let d = config_digest(&c);
            assert!(!seen.contains(&d), "{name} must move the digest");
            seen.push(d);
        }

        // The documented asymmetry: an explicit fabric cap equal to the
        // aggregate NIC rate simulates identically to no cap, yet emits
        // a key and so digests apart. Duplicate cells, never stale ones.
        let mut explicit = small_config();
        let nic_mb_s =
            explicit.topology().nic_rate().as_bytes_per_sec() * explicit.slaves as f64 / 1e6;
        explicit.fabric_cap_mb_s = Some(nic_mb_s);
        assert_ne!(base, config_digest(&explicit));
        let a = crate::runner::run(&small_config()).unwrap();
        let b = crate::runner::run(&explicit).unwrap();
        assert_eq!(a.result.job_time, b.result.job_time, "cap never binds");
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 128 test vectors.
        assert_eq!(fnv1a_128(b""), "6c62272e07bb014262b821756295c58d");
        assert_eq!(fnv1a_128(b"a"), "d228cb696f1a8caf78912b704e4a8964");
    }

    #[test]
    fn put_get_round_trip_and_miss_cases() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let config = small_config();
        let digest = config_digest(&config);
        assert!(store.get(&digest).is_none(), "empty store misses");

        let report = crate::runner::run(&config).unwrap();
        store.put(&digest, &report).unwrap();
        let back = store.get(&digest).expect("hit after put");
        assert_eq!(
            back.to_json().to_compact(),
            report.to_json().to_compact(),
            "cached report is byte-identical"
        );
        assert_eq!(store.stats(), (1, 1, 0));

        // Corrupt fragments are rejected, not errors.
        std::fs::write(store.fragment_path(&digest), "{ torn").unwrap();
        assert!(store.get(&digest).is_none());
        // So is a whole one with bytes that are not UTF-8 after it: it
        // exists, so it is no miss.
        store.put(&digest, &report).unwrap();
        let mut bytes = std::fs::read(store.fragment_path(&digest)).unwrap();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        std::fs::write(store.fragment_path(&digest), bytes).unwrap();
        assert!(store.get(&digest).is_none());
        // A fragment stored under the wrong key is rejected too.
        store.put(&digest, &report).unwrap();
        std::fs::rename(
            store.fragment_path(&digest),
            store.fragment_path("0000000000000000000000000000beef"),
        )
        .unwrap();
        assert!(store.get("0000000000000000000000000000beef").is_none());
        assert_eq!(store.stats(), (1, 1, 3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pretty_fragments_from_earlier_builds_still_serve() {
        let dir = tmp_dir("pretty");
        let store = ResultStore::open(&dir).unwrap();
        let config = small_config();
        let digest = config_digest(&config);
        let report = crate::runner::run(&config).unwrap();
        store.put(&digest, &report).unwrap();
        let compact = std::fs::read_to_string(store.fragment_path(&digest)).unwrap();
        assert!(!compact.contains('\n'), "put writes one compact line");
        // What `put` wrote before fragments were compact.
        let pretty = jobj! {
            "schema": FRAGMENT_SCHEMA,
            "digest": digest.as_str(),
            "report": report.to_json(),
        }
        .to_pretty();
        let written = |text: &str| Json::parse(text).map(|v| v.to_compact());
        assert_eq!(written(&pretty), written(&compact), "same value");
        std::fs::write(store.fragment_path(&digest), &pretty).unwrap();
        let back = store.get(&digest).expect("a pretty fragment is a hit");
        assert_eq!(
            back.to_json().to_compact(),
            report.to_json().to_compact(),
            "served report is identical"
        );
        assert_eq!(store.stats(), (1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = tmp_dir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, "first").unwrap();
        atomic_write(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["out.json"], "no temp files linger");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_atomic_write_leaves_no_temp() {
        let dir = tmp_dir("failed-rename");
        let path = dir.join("taken");
        std::fs::create_dir_all(path.join("inside")).unwrap();
        // A file cannot be renamed onto a non-empty directory.
        match atomic_write(&path, "body") {
            Err(Error::Io { op, .. }) => assert_eq!(op, "rename"),
            other => panic!("expected a rename error, got {other:?}"),
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["taken"], "no temp file lingers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `write` `per_thread` times on each of four threads released
    /// together, and returns how many calls failed.
    fn failures_of_concurrent(
        per_thread: usize,
        write: impl Fn(usize) -> Result<(), Error> + Sync,
    ) -> usize {
        const THREADS: usize = 4;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (start, write) = (&start, &write);
                    s.spawn(move || {
                        start.wait();
                        (0..per_thread).filter(|_| write(t).is_err()).count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        })
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let dir = tmp_dir("concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let bodies: Vec<String> = (0..4)
            .map(|t| format!("writer {t}\n").repeat(500))
            .collect();
        let failed = failures_of_concurrent(200, |t| atomic_write(&path, &bodies[t]));
        assert_eq!(failed, 0, "{failed} of 800 atomic_write calls failed");
        let last = std::fs::read_to_string(&path).unwrap();
        assert!(
            bodies.contains(&last),
            "the file holds one writer's whole body"
        );

        // Sweep workers finishing the same cell `put` one digest.
        let store = ResultStore::open(dir.join("store")).unwrap();
        let config = small_config();
        let digest = config_digest(&config);
        let report = crate::runner::run(&config).unwrap();
        let failed = failures_of_concurrent(25, |_| store.put(&digest, &report));
        assert_eq!(failed, 0, "{failed} of 100 concurrent puts failed");
        let back = store.get(&digest).expect("hit after concurrent puts");
        assert_eq!(back.to_json().to_pretty(), report.to_json().to_pretty());
        let names: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [format!("{digest}.json")], "no temp files linger");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
