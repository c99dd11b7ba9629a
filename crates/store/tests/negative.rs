//! Negative coverage for the plan store: truncated, bit-flipped,
//! version-bumped, and roster-mismatched entries must surface as typed
//! errors at the format layer and as counted evict-and-miss at the store
//! layer — never a panic, never a bogus plan.

use std::sync::Arc;
use tssa_pipelines::{CompiledProgram, Pipeline, TensorSsa};
use tssa_store::{
    format::{decode_plan_full, encode_plan},
    roster_fingerprint, Expected, PlanStore, StoreError, FORMAT_VERSION, HEADER_LEN, MAGIC,
};

const KEY: u64 = 0xABCD;

fn compiled() -> (CompiledProgram, u64) {
    let g = tssa_frontend::compile(
        "def f(b0: Tensor, n: int):
             b = b0.clone()
             for i in range(n):
                 b[i] = sigmoid(b[i]) * 2.0
             return b
    ",
    )
    .unwrap();
    let pipeline = TensorSsa::default();
    let fp = roster_fingerprint(pipeline.roster().iter().copied());
    (pipeline.compile(&g), fp)
}

fn expect(fp: u64) -> Expected {
    Expected {
        content_hash: Some(KEY),
        roster_fingerprint: Some(fp),
    }
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let (plan, fp) = compiled();
    let bytes = encode_plan(&plan, KEY, fp);
    // Cut the file at a spread of lengths covering the header, the length
    // field boundary, and the payload: all must decode to an error.
    let cuts: Vec<usize> = (0..HEADER_LEN)
        .chain([HEADER_LEN + 1, bytes.len() / 2, bytes.len() - 1])
        .collect();
    for cut in cuts {
        let err = decode_plan_full(&bytes[..cut], expect(fp)).unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated(_) | StoreError::ChecksumMismatch),
            "cut at {cut}: unexpected {err}"
        );
    }
}

#[test]
fn bit_flips_never_panic_and_never_yield_a_wrong_plan() {
    let (plan, fp) = compiled();
    let bytes = encode_plan(&plan, KEY, fp);
    // Flip one bit at a sample of positions across header and payload.
    let step = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        let mut evil = bytes.clone();
        evil[pos] ^= 0x10;
        match decode_plan_full(&evil, expect(fp)) {
            // A flip inside the graph text can survive the checksum only if
            // the checksum itself was flipped to match — impossible for a
            // single-bit flip, so any Ok must be a flip in ignored bytes.
            Ok(_) => panic!("flip at {pos} went undetected"),
            Err(e) => {
                // Typed, recoverable; kind depends on which field was hit.
                assert!(!e.kind().is_empty());
            }
        }
    }
}

#[test]
fn version_bump_is_rejected_before_payload_is_touched() {
    let (plan, fp) = compiled();
    let mut bytes = encode_plan(&plan, KEY, fp);
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..12].copy_from_slice(&future);
    match decode_plan_full(&bytes, expect(fp)).unwrap_err() {
        StoreError::VersionMismatch { found, expected } => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(expected, FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
}

#[test]
fn roster_change_is_stale_not_corrupt() {
    let (plan, fp) = compiled();
    let bytes = encode_plan(&plan, KEY, fp);
    let new_roster = roster_fingerprint(["some", "new", "pass", "order"]);
    let err = decode_plan_full(&bytes, expect(new_roster)).unwrap_err();
    assert!(matches!(err, StoreError::RosterMismatch { .. }));
    assert!(err.is_stale());
    assert_eq!(err.kind(), "roster");
}

#[test]
fn wrong_magic_is_not_a_plan_file() {
    let (plan, fp) = compiled();
    let mut bytes = encode_plan(&plan, KEY, fp);
    bytes[..8].copy_from_slice(b"NOTAPLAN");
    assert!(matches!(
        decode_plan_full(&bytes, expect(fp)).unwrap_err(),
        StoreError::BadMagic
    ));
    assert_eq!(&bytes[..8], b"NOTAPLAN");
    assert_ne!(&bytes[..8], &MAGIC);
}

/// Store-level policy: each damaged/stale flavor is counted, evicted from
/// disk, and read as a miss; a following compile+save repopulates it.
#[test]
fn store_evicts_and_counts_each_flavor_then_recovers() {
    let dir = std::env::temp_dir().join(format!("tssa-store-neg-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PlanStore::open(&dir).unwrap();
    let (plan, fp) = compiled();
    let plan = Arc::new(plan);

    // 1. plain miss
    assert!(store.load(KEY, fp).is_none());
    assert_eq!(store.stats().disk_misses, 1);

    // 2. truncated file -> corrupt_evicted, file removed
    store.save_blocking(KEY, fp, &plan).unwrap();
    let path = store.path_for(KEY);
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    assert!(store.load(KEY, fp).is_none());
    assert_eq!(store.stats().corrupt_evicted, 1);
    assert!(!path.exists(), "corrupt entry must be evicted");

    // 3. bit flip in payload -> corrupt_evicted
    store.save_blocking(KEY, fp, &plan).unwrap();
    let mut flipped = std::fs::read(&path).unwrap();
    let mid = HEADER_LEN + (flipped.len() - HEADER_LEN) / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    assert!(store.load(KEY, fp).is_none());
    assert_eq!(store.stats().corrupt_evicted, 2);

    // 4. roster changed underneath -> stale_evicted
    store.save_blocking(KEY, fp, &plan).unwrap();
    let other = roster_fingerprint(["different"]);
    assert!(store.load(KEY, other).is_none());
    assert_eq!(store.stats().stale_evicted, 1);
    assert!(!path.exists());

    // 5. version bump -> stale_evicted
    store.save_blocking(KEY, fp, &plan).unwrap();
    let mut bumped = std::fs::read(&path).unwrap();
    bumped[8..12].copy_from_slice(&(FORMAT_VERSION + 9).to_le_bytes());
    std::fs::write(&path, &bumped).unwrap();
    assert!(store.load(KEY, fp).is_none());
    assert_eq!(store.stats().stale_evicted, 2);

    // 6. recovery: a fresh save serves hits again
    store.save_blocking(KEY, fp, &plan).unwrap();
    assert!(store.load(KEY, fp).is_some());
    let stats = store.stats();
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.writes, 5);
    assert_eq!(stats.write_errors, 0);

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A plan file of an older format is stale: v5 carries its constraints as
/// strings; v6 stores the pipeline's `ExecConfig`, the pass names, a flags
/// word and the class hash. The store evicts such a file and reports a
/// miss.
#[test]
fn plan_files_of_older_formats_are_stale_misses() {
    let dir = std::env::temp_dir().join(format!("tssa-store-old-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PlanStore::open(&dir).unwrap();
    let (plan, fp) = compiled();
    let plan = Arc::new(plan);
    let path = store.path_for(KEY);
    for (evicted, version) in [5u32, 6].into_iter().enumerate() {
        store.save_blocking(KEY, fp, &plan).unwrap();
        let mut old = std::fs::read(&path).unwrap();
        old[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &old).unwrap();
        assert!(store.load(KEY, fp).is_none(), "v{version}");
        assert_eq!(
            store.stats().stale_evicted,
            evicted as u64 + 1,
            "v{version}"
        );
        assert_eq!(store.stats().corrupt_evicted, 0, "v{version}");
        assert!(!path.exists(), "a stale v{version} entry is evicted");
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// An old-format file under a name no live key produces is reached by no
/// exact load, so the class scan evicts it; a newer format's file belongs
/// to another binary and stays.
#[test]
fn the_class_scan_evicts_old_format_files_under_dead_names() {
    const DEAD: u64 = 0xDEAD;
    let dir = std::env::temp_dir().join(format!("tssa-store-dead-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PlanStore::open(&dir).unwrap();
    let (plan, fp) = compiled();
    let bytes = encode_plan(&plan, DEAD, fp);
    let (old, new) = (store.path_for(DEAD), store.path_for(DEAD + 1));
    for (path, version) in [(&old, 6u32), (&new, FORMAT_VERSION + 1)] {
        let mut file = bytes.clone();
        file[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(path, &file).unwrap();
    }
    assert!(store.load_class(KEY, 1, fp, |_| true).is_none());
    let stats = store.stats();
    assert_eq!(stats.stale_evicted, 1);
    assert_eq!(stats.disk_misses, 1);
    assert!(!old.exists(), "the v6 file is evicted");
    assert!(new.exists(), "a newer format's file is left alone");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The payload names its pipeline; a name no pipeline carries is a parse
/// error (a corrupt entry), not a plan with a guessed execution profile.
#[test]
fn an_unknown_pipeline_name_is_a_parse_error() {
    let (mut plan, fp) = compiled();
    plan.pipeline = "TorchScript+TVM";
    let bytes = encode_plan(&plan, KEY, fp);
    match decode_plan_full(&bytes, expect(fp)).unwrap_err() {
        StoreError::Parse(msg) => assert!(msg.contains("TorchScript+TVM"), "{msg}"),
        other => panic!("expected Parse, got {other}"),
    }
}
