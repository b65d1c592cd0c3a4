//! Container-format tests: round-trip fidelity and typed rejection of
//! every class of damaged file. The shotgun tests mutate every
//! byte-region class — manifest, record header, record payload,
//! signature bytes — and a full sweep asserts that *any* single-byte
//! flip and *any* truncation is rejected with a typed error, never a
//! panic and never silent acceptance.

use faust_audit::{export_records, HistoryFileError, Section, SessionHistory};
use faust_crypto::SigScheme;
use faust_store::testutil::clients;
use faust_store::LogRecord;
use faust_types::{ClientId, History, Value, WireError};
use faust_ustor::{Server, UstorServer};

/// Drives an honest 2-client session against a fresh in-memory server,
/// capturing the accepted records exactly as a WAL would.
fn honest_session(ops_per_client: u64) -> SessionHistory {
    let n = 2;
    let mut server = UstorServer::new(n);
    let mut cs = clients(n, b"container-tests");
    let mut records: Vec<(u64, LogRecord)> = Vec::new();
    let mut seq = 0u64;
    let mut history = History::new();
    let mut now = 0u64;
    for round in 0..ops_per_client {
        for i in 0..n {
            let id = ClientId::new(i as u32);
            let (submit, op_id) = if i == 0 {
                let value = Value::unique(i as u32, round);
                let op = history.begin_write(id, value.clone(), now);
                (cs[i].begin_write(value).unwrap(), op)
            } else {
                let target = ClientId::new(0);
                let op = history.begin_read(id, target, now);
                (cs[i].begin_read(target).unwrap(), op)
            };
            now += 1;
            records.push((
                seq,
                LogRecord::Submit {
                    from: id,
                    msg: submit.clone(),
                },
            ));
            seq += 1;
            let replies = server.on_submit(id, submit);
            let (_, reply) = replies.into_iter().find(|(to, _)| *to == id).unwrap();
            let (commit, completion) = cs[i].handle_reply(reply).unwrap();
            let commit = commit.expect("immediate mode");
            match completion.kind {
                faust_types::OpKind::Write => {
                    history.complete_write(op_id, now, Some(completion.timestamp));
                }
                faust_types::OpKind::Read => {
                    history.complete_read(
                        op_id,
                        now,
                        completion.read_value.clone().unwrap_or(None),
                        Some(completion.timestamp),
                    );
                }
            }
            now += 1;
            records.push((
                seq,
                LogRecord::Commit {
                    from: id,
                    msg: commit.clone(),
                },
            ));
            seq += 1;
            server.on_commit(id, commit);
        }
    }
    export_records(n, SigScheme::Hmac, None, records, Some(history))
}

#[test]
fn roundtrip_preserves_everything() {
    let session = honest_session(3);
    let bytes = session.encode();
    let decoded = SessionHistory::decode(&bytes).expect("clean container decodes");
    assert_eq!(decoded.n, session.n);
    assert_eq!(decoded.scheme, session.scheme);
    assert_eq!(decoded.base_seq, session.base_seq);
    assert_eq!(decoded.records, session.records);
    assert_eq!(decoded.claimed_chain, session.claimed_chain);
    assert_eq!(decoded.claimed_proofs, session.claimed_proofs);
    let original = session.client_history.as_ref().unwrap();
    let roundtripped = decoded.client_history.as_ref().unwrap();
    assert_eq!(roundtripped.ops(), original.ops());
    // Re-encoding the decoded history is byte-identical (canonical form).
    assert_eq!(decoded.encode(), bytes);
}

#[test]
fn write_read_roundtrip_on_disk() {
    let session = honest_session(2);
    let dir = faust_store::testutil::scratch_dir("audit-container-rt");
    let path = dir.join("session.fausthis");
    session.write_to(&path).expect("write container");
    let back = SessionHistory::read_from(&path).expect("read container");
    assert_eq!(back.records, session.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_preamble_is_typed() {
    let bytes = honest_session(1).encode();
    assert_eq!(
        SessionHistory::decode(&bytes[..7]),
        Err(HistoryFileError::TruncatedPreamble { len: 7 })
    );
    assert_eq!(
        SessionHistory::decode(&[]),
        Err(HistoryFileError::TruncatedPreamble { len: 0 })
    );
}

#[test]
fn bad_magic_is_typed() {
    let mut bytes = honest_session(1).encode();
    bytes[0] ^= 0x01;
    assert_eq!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::BadMagic)
    );
}

#[test]
fn unsupported_version_is_typed() {
    let mut bytes = honest_session(1).encode();
    bytes[11] = 99;
    assert_eq!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::UnsupportedVersion { version: 99 })
    );
}

#[test]
fn manifest_bit_flip_is_pinned_to_the_manifest() {
    let mut bytes = honest_session(1).encode();
    // First manifest byte lives right after the 12-byte preamble and the
    // 36-byte manifest frame header.
    bytes[48] ^= 0x80;
    assert_eq!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::ManifestChecksum { offset: 48 })
    );
}

#[test]
fn record_region_flips_are_pinned_to_the_record() {
    let session = honest_session(2);
    let clean = session.encode();
    // Locate the records section: everything the manifest says. Rather
    // than re-parse by hand, find the first record's frame by scanning
    // for its known payload prefix (seq 0 = 8 zero bytes after the
    // 36-byte frame header is fragile; instead use decode offsets from
    // the typed errors themselves).
    // Flip one byte at a time over the whole file; every failure inside
    // the records section must name a record index and offset.
    let mut record_errors = 0;
    for pos in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x40;
        match SessionHistory::decode(&bytes) {
            Err(
                HistoryFileError::RecordChecksum { index, offset }
                | HistoryFileError::RecordCorrupt { index, offset, .. }
                | HistoryFileError::RecordTorn { index, offset }
                | HistoryFileError::ImplausibleRecordLength { index, offset, .. }
                | HistoryFileError::RecordSequence { index, offset, .. },
            ) => {
                record_errors += 1;
                // The named offset is the frame of the record the flip
                // landed in (or the one it derailed); it must not point
                // past the flip.
                assert!(offset <= pos, "offset {offset} past flip at {pos}");
                assert!(index < session.records.len() as u64 + 1);
            }
            Err(_) => {}
            Ok(_) => panic!("flip at byte {pos} went undetected"),
        }
    }
    // A healthy share of the file is record bytes; the sweep must have
    // exercised the per-record path many times.
    assert!(record_errors > 100, "only {record_errors} record errors");

    // Retag the first record with the retired sharded-layout tag 2 and
    // re-seal its checksum: the frame verifies, the payload does not
    // decode, and the error is pinned to that record.
    let manifest_len = u32::from_be_bytes(clean[12..16].try_into().unwrap()) as usize;
    let first = 12 + 36 + manifest_len; // no base-state section
    let len = u32::from_be_bytes(clean[first..first + 4].try_into().unwrap()) as usize;
    let payload = first + 36..first + 36 + len;
    let mut bytes = clean.clone();
    bytes[payload.start + 8] = 2; // the record tag, after `seq: u64`
    let digest = faust_crypto::sha256(&bytes[payload]);
    bytes[first + 4..first + 36].copy_from_slice(digest.as_bytes());
    assert_eq!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::RecordCorrupt {
            index: 0,
            offset: first,
            error: WireError::BadTag(2),
        })
    );
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let clean = honest_session(1).encode();
    for pos in 0..clean.len() {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x01;
        assert!(
            SessionHistory::decode(&bytes).is_err(),
            "flip at byte {pos}/{} went undetected",
            clean.len()
        );
    }
}

#[test]
fn every_truncation_is_rejected() {
    let clean = honest_session(1).encode();
    for len in 0..clean.len() {
        assert!(
            SessionHistory::decode(&clean[..len]).is_err(),
            "truncation to {len}/{} went undetected",
            clean.len()
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = honest_session(1).encode();
    let offset = bytes.len();
    bytes.push(0);
    assert_eq!(
        SessionHistory::decode(&bytes),
        Err(HistoryFileError::TrailingBytes { offset })
    );
}

#[test]
fn section_truncation_names_the_section() {
    let session = honest_session(1);
    let bytes = session.encode();
    // Drop the final byte: the client-history section (last) is torn.
    match SessionHistory::decode(&bytes[..bytes.len() - 1]) {
        Err(HistoryFileError::SectionTruncated { section, .. }) => {
            assert_eq!(section, Section::ClientHistory);
        }
        other => panic!("expected SectionTruncated, got {other:?}"),
    }
}

#[test]
fn dimension_mismatch_is_rejected() {
    let mut session = honest_session(1);
    session.claimed_chain.pop();
    let bytes = session.encode();
    match SessionHistory::decode(&bytes) {
        Err(HistoryFileError::DimensionMismatch {
            expected, found, ..
        }) => {
            assert_eq!(expected, 2);
            assert_eq!(found, 1);
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
}

#[test]
fn renumbered_records_are_rejected() {
    let mut session = honest_session(1);
    // Give the last record a gapped sequence number; the container
    // requires consecutive sequences from base_seq.
    let last = session.records.len() - 1;
    session.records[last].0 += 5;
    let bytes = session.encode();
    match SessionHistory::decode(&bytes) {
        Err(HistoryFileError::RecordSequence {
            index,
            expected,
            found,
            ..
        }) => {
            assert_eq!(index, last as u64);
            assert_eq!(expected, last as u64);
            assert_eq!(found, last as u64 + 5);
        }
        other => panic!("expected RecordSequence, got {other:?}"),
    }
}
