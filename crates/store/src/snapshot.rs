//! Snapshots: the log-compaction half of the backend.
//!
//! A snapshot is one file (`snapshot.bin`) holding the complete
//! [`ServerState`] at a log position:
//!
//! ```text
//!   "FAUSTSNP" | version: u32 | payload_len: u32 | sha256(payload): 32 B | payload
//!   payload:     n: u32 | next_seq: u64 | ServerState encoding
//! ```
//!
//! `next_seq` is the first log sequence number **not** reflected in the
//! state — recovery loads the snapshot and replays records from
//! `next_seq` on. Snapshots are written to a temp file, synced, and
//! renamed into place, so at every instant the directory holds exactly
//! one complete, checksummed snapshot (or none); a crash mid-write
//! leaves the previous snapshot untouched. The log is only rotated
//! *after* the rename, and recovery tolerates the in-between crash by
//! skipping already-covered records (verified but not replayed).

use crate::codec::{decode_state, encode_state};
use crate::log::sync_dir;
use crate::StoreError;
use faust_crypto::sha256::sha256;
use faust_types::Wire;
use faust_ustor::ServerState;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Magic string opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"FAUSTSNP";
/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// A decoded snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Client count the state is for.
    pub n: usize,
    /// First log sequence number not reflected in `state`.
    pub next_seq: u64,
    /// The full server state at that position.
    pub state: ServerState,
}

/// Atomically writes `snapshot` as `dir/snapshot.bin`.
///
/// With `sync`, the payload is fsynced before the rename and the
/// directory after it, so the rename is durable; without, both syncs are
/// skipped (benchmark mode).
///
/// # Errors
///
/// Propagates file-system errors; a failed write never disturbs an
/// existing snapshot.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot, sync: bool) -> Result<(), StoreError> {
    let mut payload = Vec::new();
    (snapshot.n as u32).encode_into(&mut payload);
    snapshot.next_seq.encode_into(&mut payload);
    encode_state(&snapshot.state, &mut payload);

    let mut bytes = Vec::with_capacity(8 + 4 + 4 + 32 + payload.len());
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    SNAPSHOT_VERSION.encode_into(&mut bytes);
    (payload.len() as u32).encode_into(&mut bytes);
    bytes.extend_from_slice(sha256(&payload).as_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join("snapshot.tmp");
    let path = dir.join(SNAPSHOT_FILE);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&bytes)?;
    if sync {
        file.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    if sync {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Reads and fully validates `dir/snapshot.bin`; `Ok(None)` if no
/// snapshot exists.
///
/// # Errors
///
/// Structured [`StoreError`]s for a bad magic, unknown version,
/// truncated header or payload, checksum mismatch, or undecodable state
/// — a corrupt snapshot is never partially loaded.
pub fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>, StoreError> {
    let path = dir.join(SNAPSHOT_FILE);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_end(&mut bytes)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    const HEADER: usize = 8 + 4 + 4 + 32;
    if bytes.len() < HEADER {
        return Err(StoreError::TruncatedHeader { file: "snapshot" });
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic { file: "snapshot" });
    }
    let mut rest = &bytes[8..HEADER];
    let version = u32::decode_from(&mut rest).expect("sized above");
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: "snapshot",
            version,
        });
    }
    let payload_len = u32::decode_from(&mut rest).expect("sized above") as usize;
    let digest = &bytes[16..HEADER];
    let Some(payload) = bytes.get(HEADER..HEADER + payload_len) else {
        // File ends inside the declared payload.
        return Err(StoreError::SnapshotCorrupt(
            faust_types::WireError::Truncated,
        ));
    };
    if sha256(payload).as_bytes() != digest {
        return Err(StoreError::SnapshotChecksum);
    }
    let mut input = payload;
    let n = u32::decode_from(&mut input).map_err(StoreError::SnapshotCorrupt)? as usize;
    let next_seq = u64::decode_from(&mut input).map_err(StoreError::SnapshotCorrupt)?;
    let state = decode_state(&mut input).map_err(StoreError::SnapshotCorrupt)?;
    if !input.is_empty() {
        return Err(StoreError::SnapshotCorrupt(
            faust_types::WireError::TrailingBytes(input.len()),
        ));
    }
    if state.mem.len() != n {
        return Err(StoreError::ClientCountMismatch {
            expected: n,
            found: state.mem.len(),
        });
    }
    Ok(Some(Snapshot { n, next_seq, state }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::scratch_dir;
    use faust_ustor::UstorServer;

    fn snapshot(n: usize, next_seq: u64) -> Snapshot {
        Snapshot {
            n,
            next_seq,
            state: UstorServer::new(n).export_state(),
        }
    }

    #[test]
    fn roundtrip_and_absence() {
        let dir = scratch_dir("snap-roundtrip");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        let snap = snapshot(3, 42);
        write_snapshot(&dir, &snap, false).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(snap));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_atomically() {
        let dir = scratch_dir("snap-overwrite");
        write_snapshot(&dir, &snapshot(2, 1), true).unwrap();
        write_snapshot(&dir, &snapshot(2, 9), true).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap().next_seq, 9);
        // No temp file left behind.
        assert!(!dir.join("snapshot.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_structured_not_a_panic() {
        let dir = scratch_dir("snap-corrupt");
        write_snapshot(&dir, &snapshot(2, 5), false).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&path).unwrap();

        // Flip a payload byte: checksum mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::SnapshotChecksum
        ));

        // Truncate inside the payload.
        std::fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::SnapshotCorrupt(_)
        ));

        // Bad magic.
        let mut bad = good.clone();
        bad[3] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::BadMagic { file: "snapshot" }
        ));

        // Retired format version 2 (the sharded layout's snapshots).
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&2u32.encode());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            read_snapshot(&dir).unwrap_err(),
            StoreError::UnsupportedVersion {
                file: "snapshot",
                version: 2
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
