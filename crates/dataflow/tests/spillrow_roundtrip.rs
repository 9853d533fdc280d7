//! Encode→decode identity for every implemented [`SpillRow`] type.
//!
//! The spill encoding is the engine's on-disk row format: if any type
//! drifts (endianness, prefix width, tag values), spilled partitions
//! silently corrupt. This suite pins `decode(encode(x)) == x` for the
//! whole implemented surface — fixed ints, pointer-width ints, floats by
//! bit pattern (NaN payloads and signed zeros included), `bool`, `char`,
//! `()`, strings, `Option`, `Vec`, arrays, tuples, `Either`, and nested
//! compositions — plus the `&'static str` intern-cache regression: a
//! thousand decodes of the same partition may leak each distinct string at
//! most once.

use peachy_dataflow::keyed::Either;
use peachy_dataflow::{PartitionStore, SpillReader, SpillRow, StoreConfig};

/// Encode a slice row-by-row into one buffer, decode it back, and require
/// exact equality plus full consumption (no trailing or missing bytes).
fn roundtrip<T: SpillRow + PartialEq + std::fmt::Debug>(rows: &[T]) {
    let mut buf = Vec::new();
    for row in rows {
        row.spill_encode(&mut buf);
    }
    let mut reader = SpillReader::new(&buf);
    for row in rows {
        assert_eq!(&T::spill_decode(&mut reader), row);
    }
    assert_eq!(reader.remaining(), 0, "encoding left trailing bytes");
}

#[test]
fn fixed_width_ints_roundtrip() {
    roundtrip(&[u8::MIN, 1, 0x7F, u8::MAX]);
    roundtrip(&[u16::MIN, 1, 0xBEEF, u16::MAX]);
    roundtrip(&[u32::MIN, 1, 0xDEAD_BEEF, u32::MAX]);
    roundtrip(&[u64::MIN, 1, 0x0123_4567_89AB_CDEF, u64::MAX]);
    roundtrip(&[u128::MIN, 1, u64::MAX as u128 + 1, u128::MAX]);
    roundtrip(&[i8::MIN, -1, 0, i8::MAX]);
    roundtrip(&[i16::MIN, -1, 0, i16::MAX]);
    roundtrip(&[i32::MIN, -1, 0, i32::MAX]);
    roundtrip(&[i64::MIN, -1, 0, i64::MAX]);
    roundtrip(&[i128::MIN, -1, 0, i128::MAX]);
}

#[test]
fn pointer_width_ints_roundtrip() {
    roundtrip(&[usize::MIN, 1, usize::MAX]);
    roundtrip(&[isize::MIN, -1, 0, isize::MAX]);
}

#[test]
fn floats_roundtrip_by_bit_pattern() {
    // PartialEq can't see the cases that matter (NaN != NaN, -0.0 == 0.0),
    // so compare bits directly.
    let f32s = [
        0.0f32,
        -0.0,
        1.5,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7FC0_1234), // NaN with a payload
    ];
    let mut buf = Vec::new();
    for v in &f32s {
        v.spill_encode(&mut buf);
    }
    let mut reader = SpillReader::new(&buf);
    for v in &f32s {
        assert_eq!(f32::spill_decode(&mut reader).to_bits(), v.to_bits());
    }

    let f64s = [
        0.0f64,
        -0.0,
        std::f64::consts::PI,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_BEEF), // NaN with a payload
    ];
    let mut buf = Vec::new();
    for v in &f64s {
        v.spill_encode(&mut buf);
    }
    let mut reader = SpillReader::new(&buf);
    for v in &f64s {
        assert_eq!(f64::spill_decode(&mut reader).to_bits(), v.to_bits());
    }
}

#[test]
fn scalars_and_strings_roundtrip() {
    roundtrip(&[true, false]);
    roundtrip(&['a', 'ß', '中', '🦀', '\0']);
    roundtrip(&[(), (), ()]);
    roundtrip(&[
        String::new(),
        "ascii".to_string(),
        "ünïcödé 中文 🦀".to_string(),
        "x".repeat(10_000),
    ]);
    roundtrip(&["", "static", "with spaces and 中文"]);
}

#[test]
fn compound_types_roundtrip() {
    roundtrip(&[None, Some(42u64), None, Some(u64::MAX)]);
    roundtrip(&[vec![1u32, 2, 3], vec![], vec![u32::MAX; 17]]);
    roundtrip(&[[1u16, 2, 3], [u16::MAX, 0, 7]]);
    roundtrip(&[(1u8,), (u8::MAX,)]);
    roundtrip(&[(1u64, "pair".to_string()), (2, String::new())]);
    roundtrip(&[(1u8, 2u16, 3u32), (u8::MAX, u16::MAX, u32::MAX)]);
    roundtrip(&[(1u8, 2u16, 3u32, 4u64)]);
    roundtrip(&[(1u8, 2u16, 3u32, 4u64, 5i8)]);
    roundtrip(&[(1u8, 2u16, 3u32, 4u64, 5i8, true)]);
    roundtrip(&[
        Either::<u64, String>::Left(7),
        Either::Right("right".to_string()),
    ]);
}

#[test]
fn nested_composition_roundtrips() {
    // The deepest shape the engine's combinators produce: optional vectors
    // of mixed-representation pairs, plus empty vessels at every level.
    let rows: Vec<Option<Vec<(f64, String)>>> = vec![
        None,
        Some(vec![]),
        Some(vec![(1.25, "one and a quarter".to_string())]),
        Some(vec![
            (0.0, String::new()),
            (-0.0, "signed zero".to_string()),
            (f64::MAX, "big".to_string()),
        ]),
    ];
    roundtrip(&rows);

    // And the same shape through an actual spilled store: file format
    // (row-count header + per-row length prefixes) included.
    let store = PartitionStore::prefilled(
        vec![rows.clone(), vec![None; 3]],
        StoreConfig {
            budget: Some(1),
            ..StoreConfig::default()
        },
    );
    assert!(store.spilled_parts() > 0, "a 1 B budget must spill");
    assert_eq!(*store.load(0).unwrap(), rows);
    assert_eq!(*store.load(1).unwrap(), vec![None; 3]);
}

#[test]
fn empty_rows_and_empty_partitions_roundtrip() {
    // `()` encodes to zero bytes: a spilled partition of 1000 unit rows is
    // just the header, and must still come back as 1000 rows.
    let store = PartitionStore::prefilled(
        vec![vec![(); 1000]],
        StoreConfig {
            budget: Some(1),
            ..StoreConfig::default()
        },
    );
    assert_eq!(store.load(0).unwrap().len(), 1000);
    let empty: Vec<Vec<u64>> = vec![vec![]];
    let store = PartitionStore::prefilled(
        empty,
        StoreConfig {
            budget: Some(1),
            ..StoreConfig::default()
        },
    );
    assert_eq!(store.load(0).unwrap().len(), 0);
}

/// Regression for the `&'static str` decode leak: every decode used to
/// `Box::leak` a fresh copy, so replaying a spilled partition grew memory
/// without bound. The process-wide intern cache must hand back the *same*
/// pointer for the same bytes, every time.
#[test]
fn static_str_decodes_intern_to_the_same_pointers() {
    let rows: Vec<&'static str> = vec!["alpha", "beta", "gamma", "alpha", "beta"];
    let mut buf = Vec::new();
    for row in &rows {
        row.spill_encode(&mut buf);
    }
    let decode_all = || -> Vec<&'static str> {
        let mut reader = SpillReader::new(&buf);
        (0..rows.len())
            .map(|_| <&'static str>::spill_decode(&mut reader))
            .collect()
    };
    let first = decode_all();
    for (got, want) in first.iter().zip(&rows) {
        assert_eq!(got, want);
    }
    // Duplicate strings within one partition share an interned entry...
    assert!(
        std::ptr::eq(first[0], first[3]),
        "duplicate rows must intern"
    );
    assert!(std::ptr::eq(first[1], first[4]));
    // ...and 1000 replays of the whole partition mint nothing new.
    for _ in 0..1000 {
        let again = decode_all();
        for (a, b) in again.iter().zip(&first) {
            assert!(
                std::ptr::eq(*a, *b),
                "replayed decode must return the interned pointer"
            );
        }
    }
}
