//! Log-file corruption suite: every way the on-disk log can rot or be
//! tampered with yields a *structured* [`StoreError`] from `recover` —
//! never a panic, never a silently-loaded prefix. The one corruption no
//! local check can catch — truncation at a record boundary — recovers
//! "successfully" into rolled-back state, which is the clients' job to
//! detect (see `tests/attacks.rs`).

use faust_store::log::{RECORD_OVERHEAD, WAL_FILE};
use faust_store::testutil::{self, clients, run_op};
use faust_store::{
    truncate_tail_records, wal_record_spans, Durability, PersistentServer, StoreConfig, StoreError,
};
use faust_types::Value;
use std::path::Path;

fn no_sync() -> StoreConfig {
    StoreConfig {
        durability: Durability::Never,
        ..StoreConfig::default()
    }
}

/// Builds a store with 6 committed records and returns its pristine log
/// bytes plus the record spans.
fn seeded_store(dir: &Path) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let n = 2;
    let mut server = PersistentServer::open(dir, n, no_sync()).unwrap();
    let mut cs = clients(n, b"corruption");
    for round in 0..3u64 {
        let i = (round % 2) as usize;
        let submit = cs[i].begin_write(Value::unique(i as u32, round)).unwrap();
        run_op(&mut server, &mut cs[i], submit);
    }
    assert_eq!(server.next_seq(), 6);
    drop(server);
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let spans = wal_record_spans(dir).unwrap();
    assert_eq!(spans.len(), 6);
    (bytes, spans)
}

fn write_log(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join(WAL_FILE), bytes).unwrap();
}

#[test]
fn flipped_byte_is_a_checksum_mismatch() {
    let dir = testutil::scratch_dir("corrupt-flip");
    let (good, spans) = seeded_store(&dir);
    // Flip one payload byte of record 2 (past its length + digest).
    let mut bad = good.clone();
    bad[spans[2].start + RECORD_OVERHEAD + 3] ^= 0x40;
    write_log(&dir, &bad);
    match PersistentServer::recover(&dir, 2, no_sync()).unwrap_err() {
        StoreError::RecordChecksum { seq } => assert_eq!(seq, 2),
        other => panic!("expected RecordChecksum, got {other}"),
    }

    // Flipping a byte of the stored *digest* is the same mismatch.
    let mut bad = good.clone();
    bad[spans[4].start + 7] ^= 0x01;
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::RecordChecksum { seq: 4 }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_mid_record_is_a_torn_record() {
    let dir = testutil::scratch_dir("corrupt-torn");
    let (good, spans) = seeded_store(&dir);
    // Cut inside the last record's payload.
    write_log(&dir, &good[..spans[5].end - 5]);
    match PersistentServer::recover(&dir, 2, no_sync()).unwrap_err() {
        StoreError::TornRecord { seq, missing } => {
            assert_eq!(seq, 5);
            assert_eq!(missing, 5);
        }
        other => panic!("expected TornRecord, got {other}"),
    }

    // Cut inside the length/digest prefix of record 3.
    write_log(&dir, &good[..spans[3].start + 2]);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::TornRecord { seq: 3, .. }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicated_tail_is_a_duplicate_record() {
    let dir = testutil::scratch_dir("corrupt-dup");
    let (good, spans) = seeded_store(&dir);
    // Append a byte-exact copy of the final record: every checksum
    // holds, but seq 5 appears twice.
    let mut bad = good.clone();
    bad.extend_from_slice(&good[spans[5].clone()]);
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::DuplicateRecord {
            expected: 6,
            found: 5
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spliced_out_middle_record_is_a_sequence_gap() {
    let dir = testutil::scratch_dir("corrupt-gap");
    let (good, spans) = seeded_store(&dir);
    let mut bad = good[..spans[1].start].to_vec();
    bad.extend_from_slice(&good[spans[2].start..]); // drop record 1
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::SequenceGap {
            expected: 1,
            found: 2
        }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_length_prefix_is_rejected_without_allocating() {
    let dir = testutil::scratch_dir("corrupt-len");
    let (good, spans) = seeded_store(&dir);
    let mut bad = good[..spans[5].start].to_vec();
    bad.extend_from_slice(&u32::MAX.to_be_bytes());
    bad.extend_from_slice(&[0u8; 40]); // some trailing garbage
    write_log(&dir, &bad);
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::ImplausibleRecordLength { seq: 5, .. }
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn garbage_payload_with_matching_checksum_is_record_corrupt() {
    let dir = testutil::scratch_dir("corrupt-payload");
    let (good, spans) = seeded_store(&dir);
    // The genuine record-5 body (its LogRecord encoding, after the
    // per-record overhead and the sequence number).
    let record5 = &good[spans[5].start + RECORD_OVERHEAD + 8..spans[5].end];
    // Hand-craft records whose checksum is *valid* but whose payload is
    // not a LogRecord: seq 5 followed by a bogus tag, and seq 5 in the
    // retired sharded-layout framing (tag 2, a global sequence number,
    // then the wrapped record) — a store written by that layout is
    // refused, never misread.
    let mut retired = vec![2u8];
    retired.extend_from_slice(&9u64.to_be_bytes());
    retired.extend_from_slice(record5);
    for (body, tag) in [(vec![0xEE], 0xEE), (retired, 2)] {
        let mut payload = Vec::new();
        payload.extend_from_slice(&5u64.to_be_bytes());
        payload.extend_from_slice(&body);
        let digest = faust_crypto::sha256::sha256(&payload);
        let mut bad = good[..spans[5].start].to_vec();
        bad.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bad.extend_from_slice(digest.as_bytes());
        bad.extend_from_slice(&payload);
        write_log(&dir, &bad);
        match PersistentServer::recover(&dir, 2, no_sync()).unwrap_err() {
            StoreError::RecordCorrupt { seq: 5, error } => {
                assert_eq!(error, faust_types::WireError::BadTag(tag));
            }
            other => panic!("tag {tag}: expected RecordCorrupt, got {other}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_repairable_with_zero_record_truncation() {
    // The honest-operator path after a real crash: strict recovery
    // refuses the torn tail; `truncate_tail_records(dir, 0)` discards
    // exactly the torn bytes — no valid (acknowledged) record is lost —
    // and recovery then proceeds.
    let dir = testutil::scratch_dir("corrupt-repair");
    let (good, spans) = seeded_store(&dir);
    write_log(&dir, &good[..spans[5].end - 5]); // record 5 torn
    assert!(matches!(
        PersistentServer::recover(&dir, 2, no_sync()).unwrap_err(),
        StoreError::TornRecord { seq: 5, .. }
    ));
    assert_eq!(truncate_tail_records(&dir, 0).unwrap(), 5);
    let recovered = PersistentServer::recover(&dir, 2, no_sync()).expect("repaired");
    assert_eq!(recovered.next_seq(), 5, "all complete records kept");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn boundary_truncation_recovers_locally_but_rolls_back() {
    // The rollback attack: drop the last 2 records at a record boundary.
    // Local recovery has nothing to object to — and that is the point:
    // the resulting regression is detectable only by clients (proved
    // end-to-end in tests/attacks.rs and tests/crash_recovery.rs).
    let dir = testutil::scratch_dir("corrupt-rollback");
    let (_, spans) = seeded_store(&dir);
    assert_eq!(spans.len(), 6);
    assert_eq!(truncate_tail_records(&dir, 2).unwrap(), 4);
    let recovered = PersistentServer::recover(&dir, 2, no_sync()).unwrap();
    assert_eq!(recovered.next_seq(), 4, "state silently rolled back");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_never_panics_on_random_tail_garbage() {
    // Shotgun: append random-ish garbage of every length 1..64 to a
    // pristine log; recovery must always return Err or Ok, never panic.
    let dir = testutil::scratch_dir("corrupt-shotgun");
    let (good, _) = seeded_store(&dir);
    for len in 1..64usize {
        let mut bad = good.clone();
        for k in 0..len {
            bad.push((k as u8).wrapping_mul(37).wrapping_add(len as u8));
        }
        write_log(&dir, &bad);
        let _ = PersistentServer::recover(&dir, 2, no_sync());
    }
    std::fs::remove_dir_all(&dir).ok();
}
