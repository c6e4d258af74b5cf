//! The data-plane oracle: the byte formulas the simulator charges
//! (`ifile::record_len`, `ifile::SEGMENT_OVERHEAD`, `DataType::wire_len`,
//! `vint_size`) checked against the real Hadoop codec in
//! `data_plane/codec.rs` — vint and `Writable` encodings, IFile streams
//! with their CRC-32, generated records, and whole jobs' counters.

#[path = "data_plane/codec.rs"]
mod codec;

use codec::{
    crc32, decoded_len, read_vlong, stream_len, write_datum, write_vlong, IFileError, IFileReader,
    IFileWriter, KvGenerator,
};
use hadoop_mr_microbench::mapreduce::ifile;
use hadoop_mr_microbench::mapreduce::io::vint::vlong_size;
use hadoop_mr_microbench::mapreduce::job::JobSpec;
use hadoop_mr_microbench::mrbench::{
    run, BenchConfig, DataType, Interconnect, MicroBenchmark, ShuffleVolume,
};
use hadoop_mr_microbench::simcore::rng::SplitMix64;
use hadoop_mr_microbench::simcore::units::ByteSize;

#[test]
fn simulated_bytes_equal_real_serialized_bytes() {
    for dt in DataType::ALL {
        let mut config = BenchConfig::cluster_a_default(
            MicroBenchmark::Avg,
            Interconnect::GigE1,
            ByteSize::from_mib(64),
        );
        config.slaves = 2;
        config.num_maps = 2;
        config.num_reduces = 4;
        config.data_type = dt;
        config.volume = ShuffleVolume::PairsPerMap(1000);

        let report = run(&config).unwrap();

        // Build the same records for real and measure them.
        let gen = KvGenerator::new(config.key_size, config.value_size, 4, dt);
        let per_map_stream = gen.build_ifile(1000);
        // The engine accounts per-partition segments: each has its own
        // EOF marker + checksum, so per map there are 4 segment overheads
        // instead of the single one in this stream.
        let body = per_map_stream.len() as u64 - ifile::SEGMENT_OVERHEAD;
        let expected_per_map = body + 4 * ifile::SEGMENT_OVERHEAD;

        assert_eq!(
            report.result.counters.map_output_materialized_bytes,
            expected_per_map * 2,
            "{dt}: simulator charge vs real serialization"
        );
    }
}

#[test]
fn generated_streams_parse_back_record_for_record() {
    let gen = KvGenerator::new(100, 900, 8, DataType::BytesWritable);
    let stream = gen.build_ifile(500);
    let mut reader = IFileReader::new(&stream).expect("valid checksum");
    let mut n = 0u64;
    while let Some((k, v)) = reader.next().expect("well-formed") {
        // Writable framing: BytesWritable adds a 4-byte length prefix.
        assert_eq!(k.len(), 104);
        assert_eq!(v.len(), 904);
        n += 1;
    }
    assert_eq!(n, 500);
}

#[test]
fn record_count_precision_across_volume_derivation() {
    // set_shuffle_size derives pairs_per_map; the realized volume must be
    // within one record per map of the request.
    let config = BenchConfig::cluster_a_default(
        MicroBenchmark::Avg,
        Interconnect::GigE1,
        ByteSize::from_gib(3),
    );
    let spec = config.job_spec();
    let realized = spec.total_shuffle_bytes().as_bytes() as i64;
    let target = ByteSize::from_gib(3).as_bytes() as i64;
    let slack = (spec.record_ifile_len() * u64::from(spec.conf.num_maps)) as i64;
    assert!(
        (realized - target).abs() <= slack,
        "realized {realized} vs target {target} (slack {slack})"
    );
}

#[test]
fn counters_are_internally_consistent() {
    let mut config = BenchConfig::cluster_a_default(
        MicroBenchmark::Rand,
        Interconnect::IpoibQdr,
        ByteSize::from_mib(256),
    );
    config.slaves = 2;
    config.num_maps = 4;
    config.num_reduces = 4;
    let c = run(&config).unwrap().result.counters;

    assert_eq!(
        c.map_input_records, 4,
        "one dummy record per NullInputFormat split"
    );
    assert_eq!(c.map_output_records, c.reduce_input_records);
    assert_eq!(c.map_output_records, c.spilled_records_map);
    assert_eq!(
        c.shuffled_fetches,
        4 * 4,
        "every (map, reduce) pair fetched"
    );
    assert!(c.map_output_materialized_bytes > c.map_output_bytes);
    assert!(c.cpu_core_seconds > 0.0);
    assert!(c.disk_write_bytes >= c.map_output_materialized_bytes);
}

// ---- vints -------------------------------------------------------------

/// Encode, check the length against the simulator's `vlong_size`, and
/// decode back.
fn vlong_round_trip(v: i64) {
    let mut buf = Vec::new();
    write_vlong(&mut buf, v);
    assert_eq!(buf.len(), vlong_size(v), "size mismatch for {v}");
    let mut pos = 0;
    assert_eq!(read_vlong(&buf, &mut pos), Some(v));
    assert_eq!(pos, buf.len());
}

#[test]
fn vint_single_byte_range() {
    for v in -112..=127i64 {
        let mut buf = Vec::new();
        write_vlong(&mut buf, v);
        assert_eq!(buf.len(), 1, "{v} should be one byte");
        vlong_round_trip(v);
    }
}

#[test]
fn vint_known_hadoop_encodings() {
    // Cross-checked against WritableUtils: 128 -> [-113, -128i8 as u8].
    for (v, bytes) in [
        (128, vec![0x8F, 0x80]), // -113 = 0x8F
        (255, vec![0x8F, 0xFF]),
        (256, vec![0x8E, 0x01, 0x00]), // -114 = 0x8E
        (-113, vec![0x87, 0x70]),      // -121 tag, payload 112
    ] {
        let mut buf = Vec::new();
        write_vlong(&mut buf, v);
        assert_eq!(buf, bytes, "{v}");
    }
}

#[test]
fn vint_boundaries_round_trip() {
    for v in [
        -113i64,
        -112,
        127,
        128,
        255,
        256,
        65535,
        65536,
        i64::from(i32::MAX),
        i64::from(i32::MIN),
        i64::MAX,
        i64::MIN,
        0,
        -1,
    ] {
        vlong_round_trip(v);
    }
}

#[test]
fn vint_truncated_input_errors() {
    let mut buf = Vec::new();
    write_vlong(&mut buf, 1_000_000);
    for cut in 0..buf.len() {
        let mut pos = 0;
        assert_eq!(read_vlong(&buf[..cut], &mut pos), None, "cut={cut}");
    }
}

#[test]
fn vint_decoded_len_matches_writes() {
    for v in [-1i64, 0, 1, -113, 128, 1 << 20, -(1 << 40), i64::MAX] {
        let mut buf = Vec::new();
        write_vlong(&mut buf, v);
        assert_eq!(decoded_len(buf[0] as i8), buf.len(), "v={v}");
    }
}

// ---- Writables ---------------------------------------------------------

#[test]
fn bytes_writable_format() {
    let mut buf = Vec::new();
    write_datum(&mut buf, DataType::BytesWritable, &[0xAA, 0xBB]);
    assert_eq!(buf, vec![0, 0, 0, 2, 0xAA, 0xBB]);
}

#[test]
fn text_format_uses_vint_length() {
    let mut buf = Vec::new();
    write_datum(&mut buf, DataType::Text, b"hi");
    assert_eq!(buf, vec![2, b'h', b'i']);
    let mut buf = Vec::new();
    write_datum(&mut buf, DataType::Text, "ünïcødé ✓".as_bytes());
    assert_eq!(buf[0] as usize, "ünïcødé ✓".len());
}

/// `DataType::wire_len` equals the real encoding's length on both sides
/// of every vint width change.
#[test]
fn wire_len_matches_real_writables() {
    for dt in DataType::ALL {
        for n in [
            0, 1, 10, 111, 112, 127, 128, 200, 255, 256, 1024, 65535, 65536, 70_000,
        ] {
            let mut buf = Vec::new();
            write_datum(&mut buf, dt, &vec![b'x'; n]);
            assert_eq!(buf.len(), dt.wire_len(n), "{dt} {n}");
        }
    }
}

// ---- IFile -------------------------------------------------------------

#[test]
fn crc32_known_vectors() {
    // Standard test vector: CRC32("123456789") = 0xCBF43926.
    assert_eq!(crc32(b"123456789"), 0xCBF43926);
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"a"), 0xE8B7BE43);
}

#[test]
fn ifile_write_read_round_trip() {
    let mut w = IFileWriter::new();
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..50)
        .map(|i| (vec![i as u8; 10], vec![(i * 2) as u8; 100]))
        .collect();
    for (k, v) in &records {
        w.append(k, v);
    }
    assert_eq!(w.records(), 50);
    let stream = w.close();
    let mut r = IFileReader::new(&stream).unwrap();
    for (k, v) in &records {
        let (rk, rv) = r.next().unwrap().expect("record");
        assert_eq!(rk, &k[..]);
        assert_eq!(rv, &v[..]);
    }
    assert!(r.next().unwrap().is_none());
}

#[test]
fn empty_stream_is_just_markers() {
    let stream = IFileWriter::new().close();
    assert_eq!(stream.len() as u64, ifile::SEGMENT_OVERHEAD);
    let mut r = IFileReader::new(&stream).unwrap();
    assert!(r.next().unwrap().is_none());
}

#[test]
fn stream_len_formula_matches_real_stream() {
    for (n, kl, vl) in [(0u64, 10, 100), (7, 1, 1), (20, 200, 1024), (3, 0, 0)] {
        let mut w = IFileWriter::new();
        for _ in 0..n {
            w.append(&vec![0xAB; kl], &vec![0xCD; vl]);
        }
        let stream = w.close();
        assert_eq!(
            stream.len() as u64,
            stream_len(n, kl, vl),
            "n={n} kl={kl} vl={vl}"
        );
    }
}

#[test]
fn ifile_corruption_detected() {
    let mut w = IFileWriter::new();
    w.append(b"key", b"value");
    let mut stream = w.close();
    stream[2] ^= 0xFF;
    assert_eq!(
        IFileReader::new(&stream).err(),
        Some(IFileError::BadChecksum)
    );
}

#[test]
fn ifile_truncated_stream_detected() {
    let mut w = IFileWriter::new();
    w.append(b"key", b"value");
    let stream = w.close();
    assert!(IFileReader::new(&stream[..3]).is_err());
}

// ---- the generator -----------------------------------------------------

#[test]
fn unique_keys_repeat_every_n_reducers() {
    let g = KvGenerator::new(64, 64, 8, DataType::BytesWritable);
    let mut a = Vec::new();
    let mut b = Vec::new();
    g.key_payload(3, &mut a);
    g.key_payload(11, &mut b);
    assert_eq!(a, b);
    g.key_payload(4, &mut b);
    assert_ne!(a, b);
    assert_eq!(a.len(), 64);
}

#[test]
fn text_payloads_are_utf8() {
    let g = KvGenerator::new(333, 777, 5, DataType::Text);
    let mut k = Vec::new();
    g.key_payload(2, &mut k);
    assert!(std::str::from_utf8(&k).is_ok());
    assert_eq!(k.len(), 333);
    g.datums(2); // would panic on invalid UTF-8
}

#[test]
fn spec_roundtrip_consistency() {
    // One real record, IFile-framed, is what the job spec charges.
    let spec = JobSpec::default();
    let stream = KvGenerator::for_spec(&spec).build_ifile(1);
    assert_eq!(
        stream.len() as u64 - ifile::SEGMENT_OVERHEAD,
        spec.record_ifile_len()
    );
}

/// The generator's serialized records always match the wire-length
/// formula the simulator charges, for fixed paper geometries and any
/// random one, both types.
#[test]
fn generator_wire_length_exact() {
    let check = |key, value, reducers, dt, ordinal| {
        let gen = KvGenerator::new(key, value, reducers, dt);
        // Writable framing only; the IFile vints come on top.
        let (k, v) = gen.datums(ordinal);
        assert_eq!(k.len(), gen.key_wire_len(), "{dt} {key}");
        assert_eq!(v.len(), gen.value_wire_len(), "{dt} {value}");
    };
    for dt in DataType::ALL {
        for (ks, vs) in [(10, 100), (1024, 1024), (100, 100), (10240, 10240)] {
            check(ks, vs, 8, dt, 0);
        }
    }
    let mut rng = SplitMix64::new(0x3174);
    for _ in 0..128 {
        let key = 1 + rng.next_below(4095) as usize;
        let value = 1 + rng.next_below(4095) as usize;
        let reducers = 1 + rng.next_below(31) as u32;
        let ordinal = rng.next_below(1_000_000);
        let dt = DataType::ALL[rng.next_below(2) as usize];
        check(key, value, reducers, dt, ordinal);
    }
}

/// Generated IFile streams always validate, parse back, and measure what
/// the simulator charges.
#[test]
fn generator_streams_round_trip() {
    let check = |key, value, n, dt| {
        let gen = KvGenerator::new(key, value, 4, dt);
        let stream = gen.build_ifile(n);
        assert_eq!(
            stream.len() as u64,
            stream_len(n, gen.key_wire_len(), gen.value_wire_len()),
            "{dt} {key}/{value} x{n}"
        );
        let mut reader = IFileReader::new(&stream).expect("valid crc");
        let mut count = 0u64;
        while reader.next().expect("well-formed").is_some() {
            count += 1;
        }
        assert_eq!(count, n);
    };
    check(100, 1000, 25, DataType::BytesWritable);
    let mut rng = SplitMix64::new(0x121D);
    for _ in 0..64 {
        let key = 1 + rng.next_below(255) as usize;
        let value = 1 + rng.next_below(255) as usize;
        let n = rng.next_below(200);
        let dt = DataType::ALL[rng.next_below(2) as usize];
        check(key, value, n, dt);
    }
}
