//! The write-ahead log: append + fsync before apply, fixed-size segment
//! rotation, and recovery that replays every intact record and
//! truncates a torn tail.
//!
//! Layout: `<dir>/wal/wal-NNNNNN.seg`, each segment a sequence of
//! checksummed frames (tag [`TAG_WAL`]). File
//! order is sequence order: the appender assigns `seq` under the same
//! lock that writes the frame, so a reader walking segments in filename
//! order sees strictly increasing sequence numbers — the property
//! replay relies on to skip records already folded into a snapshot.
//!
//! Durability contract: [`Wal::append`] returns only after the record's
//! bytes have been handed to the OS *and* `fdatasync`ed. A crash after
//! `append` returns therefore never loses the batch; a crash during
//! `append` leaves at most one torn frame at the very tail, which
//! recovery detects (CRC/truncation) and chops off.

use crate::codec::{decode_wal, encode_wal, WalRecord, TAG_WAL};
use crate::PersistError;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use tc_datasets::Dataset;
use tc_graph::binary_io::{read_frame, write_frame, BinError};

/// Subdirectory holding the log segments.
pub const WAL_SUBDIR: &str = "wal";

fn segment_name(index: u64) -> String {
    format!("wal-{index:06}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Point-in-time WAL figures for the `stats` surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Total bytes across live segments.
    pub bytes: u64,
    /// Live segment files.
    pub segments: usize,
    /// Records appended since open.
    pub records_appended: u64,
    /// Segments deleted by snapshot-driven GC since open.
    pub segments_collected: u64,
}

/// The appender half of the log. One per store, behind a mutex: seq
/// assignment, frame write, and fsync happen under it, so file order is
/// seq order by construction.
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    current: File,
    current_index: u64,
    current_len: u64,
    next_seq: u64,
    /// Per-segment, per-dataset max sequence number — what GC consults
    /// to decide whether a snapshot fully covers a sealed segment.
    coverage: HashMap<u64, HashMap<Dataset, u64>>,
    records_appended: u64,
    segments_collected: u64,
}

/// Everything a WAL directory scan yields: the intact records in order,
/// plus what recovery had to do to get there.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every intact record, in sequence order.
    pub records: Vec<WalRecord>,
    /// Per-segment, per-dataset max seq (feeds the appender's GC map).
    pub coverage: HashMap<u64, HashMap<Dataset, u64>>,
    /// Segment indices found, sorted.
    pub segments: Vec<u64>,
    /// Bytes chopped off the final segment's torn tail, if any.
    pub torn_bytes_truncated: u64,
}

impl Wal {
    /// Opens (creating if needed) the log under `dir`, scanning existing
    /// segments first: intact records are returned for replay, a torn
    /// tail on the last segment is truncated in place, and appending
    /// resumes after the highest surviving sequence number.
    ///
    /// A corrupt frame anywhere *other* than the tail of the last
    /// segment is not a torn write — it is damage to supposedly-durable
    /// history, and surfaces as an error rather than silent data loss.
    pub fn open(dir: &Path, segment_bytes: u64) -> Result<(Self, WalScan), PersistError> {
        let wal_dir = dir.join(WAL_SUBDIR);
        fs::create_dir_all(&wal_dir)?;
        let mut scan = scan_segments(&wal_dir)?;

        let next_seq = scan.records.last().map_or(0, |r| r.seq) + 1;
        let current_index = scan.segments.last().copied().unwrap_or(0);
        let path = wal_dir.join(segment_name(current_index));
        let current = OpenOptions::new().create(true).append(true).open(&path)?;
        let current_len = current.metadata()?.len();
        if scan.segments.is_empty() {
            scan.segments.push(current_index);
        }
        Ok((
            Self {
                dir: wal_dir,
                segment_bytes: segment_bytes.max(4096),
                current,
                current_index,
                current_len,
                next_seq,
                coverage: scan.coverage.clone(),
                records_appended: 0,
                segments_collected: 0,
            },
            scan,
        ))
    }

    /// Appends one batch for `dataset`, assigning and returning its
    /// sequence number. Returns only after `fdatasync` — the batch is
    /// durable (and will be replayed after a crash) before the caller
    /// applies it in memory.
    pub fn append(
        &mut self,
        dataset: Dataset,
        ops: &[tc_stream::EdgeOp],
    ) -> Result<u64, PersistError> {
        let seq = self.next_seq;
        let rec = WalRecord {
            seq,
            dataset,
            ops: ops.to_vec(),
        };
        let payload = encode_wal(&rec);
        let mut framed = Vec::with_capacity(payload.len() + 32);
        write_frame(&mut framed, TAG_WAL, &payload)?;
        self.current.write_all(&framed)?;
        self.current.sync_data()?;
        self.next_seq += 1;
        self.current_len += framed.len() as u64;
        self.records_appended += 1;
        let per = self.coverage.entry(self.current_index).or_default();
        let entry = per.entry(dataset).or_insert(seq);
        *entry = (*entry).max(seq);
        if self.current_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(seq)
    }

    /// Raises the next sequence number above `seq` — used after
    /// recovery so numbering resumes above snapshots whose covered WAL
    /// segments were already collected.
    pub fn ensure_next_seq_above(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    fn rotate(&mut self) -> Result<(), PersistError> {
        self.current_index += 1;
        let path = self.dir.join(segment_name(self.current_index));
        self.current = OpenOptions::new().create(true).append(true).open(path)?;
        self.current_len = 0;
        Ok(())
    }

    /// Deletes sealed segments every record of which is covered by the
    /// given per-dataset snapshot sequence numbers (`seq <=
    /// covered[dataset]` for every record). The active segment is never
    /// collected. Returns how many segments were removed.
    pub fn collect(&mut self, covered: &HashMap<Dataset, u64>) -> Result<usize, PersistError> {
        let mut removed = 0;
        let sealed: Vec<u64> = self
            .coverage
            .keys()
            .copied()
            .filter(|&i| i != self.current_index)
            .collect();
        for index in sealed {
            let fully_covered = self.coverage[&index]
                .iter()
                .all(|(ds, &max_seq)| covered.get(ds).is_some_and(|&c| c >= max_seq));
            if fully_covered {
                fs::remove_file(self.dir.join(segment_name(index)))?;
                self.coverage.remove(&index);
                removed += 1;
            }
        }
        self.segments_collected += removed as u64;
        Ok(removed)
    }

    /// Current figures for the `stats` surface.
    pub fn stats(&self) -> Result<WalStats, PersistError> {
        let mut bytes = 0;
        let mut segments = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if parse_segment_name(&entry.file_name().to_string_lossy()).is_some() {
                segments += 1;
                bytes += entry.metadata()?.len();
            }
        }
        Ok(WalStats {
            bytes,
            segments,
            records_appended: self.records_appended,
            segments_collected: self.segments_collected,
        })
    }
}

/// Scans every segment under `wal_dir` in filename order, validating
/// frames and sequence monotonicity, truncating a torn tail on the last
/// segment only.
fn scan_segments(wal_dir: &Path) -> Result<WalScan, PersistError> {
    let mut indices: Vec<u64> = fs::read_dir(wal_dir)?
        .filter_map(|e| {
            e.ok()
                .and_then(|e| parse_segment_name(&e.file_name().to_string_lossy()))
        })
        .collect();
    indices.sort_unstable();

    let mut scan = WalScan {
        segments: indices.clone(),
        ..WalScan::default()
    };
    let mut last_seq: Option<u64> = None;
    for (pos, &index) in indices.iter().enumerate() {
        let is_last_segment = pos + 1 == indices.len();
        let path = wal_dir.join(segment_name(index));
        let bytes = fs::read(&path)?;
        let mut r = &bytes[..];
        let mut good_offset = 0u64;
        loop {
            match read_frame(&mut r) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    if frame.tag != TAG_WAL {
                        return Err(PersistError::Corrupt(format!(
                            "unexpected frame tag {:?} in {}",
                            frame.tag,
                            path.display()
                        )));
                    }
                    let rec = decode_wal(&frame.payload)?;
                    if last_seq.is_some_and(|p| rec.seq <= p) {
                        return Err(PersistError::Corrupt(format!(
                            "non-monotonic WAL sequence {} in {}",
                            rec.seq,
                            path.display()
                        )));
                    }
                    last_seq = Some(rec.seq);
                    scan.coverage
                        .entry(index)
                        .or_default()
                        .entry(rec.dataset)
                        .and_modify(|m| *m = (*m).max(rec.seq))
                        .or_insert(rec.seq);
                    scan.records.push(rec);
                    good_offset = (bytes.len() - r.len()) as u64;
                }
                Err(BinError::Truncated | BinError::Checksum { .. } | BinError::BadMagic)
                    if is_last_segment =>
                {
                    // Torn tail: the crash interrupted the final append.
                    // Everything before it is intact; chop the rest.
                    scan.torn_bytes_truncated = bytes.len() as u64 - good_offset;
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(good_offset)?;
                    f.sync_all()?;
                    break;
                }
                Err(e) => {
                    return Err(PersistError::Corrupt(format!(
                        "damaged WAL history in {}: {e}",
                        path.display()
                    )))
                }
            }
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_stream::EdgeOp;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tc-persist-wal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn append_scan_round_trips_in_order() {
        let dir = tmp("roundtrip");
        {
            let (mut wal, scan) = Wal::open(&dir, 1 << 20).expect("open");
            assert!(scan.records.is_empty());
            assert_eq!(
                wal.append(Dataset::EmailEucore, &[EdgeOp::Insert(0, 1)])
                    .unwrap(),
                1
            );
            assert_eq!(
                wal.append(Dataset::Gowalla, &[EdgeOp::Delete(2, 3)])
                    .unwrap(),
                2
            );
            assert_eq!(wal.append(Dataset::EmailEucore, &[]).unwrap(), 3);
        }
        let (mut wal, scan) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(scan.records[1].dataset, Dataset::Gowalla);
        assert_eq!(scan.records[0].ops, vec![EdgeOp::Insert(0, 1)]);
        assert_eq!(scan.torn_bytes_truncated, 0);
        // Appending resumes after the highest recovered seq.
        assert_eq!(wal.append(Dataset::Gowalla, &[]).unwrap(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_history_survives() {
        let dir = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&dir, 1 << 20).expect("open");
            wal.append(Dataset::EmailEucore, &[EdgeOp::Insert(0, 1)])
                .unwrap();
            wal.append(Dataset::EmailEucore, &[EdgeOp::Insert(1, 2)])
                .unwrap();
        }
        // Simulate a crash mid-append: garbage where the next frame
        // would have started.
        let seg = dir.join(WAL_SUBDIR).join(segment_name(0));
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(b"TCFR\x01\x00WREC\xFF\xFF").unwrap();
        drop(f);
        let before = fs::metadata(&seg).unwrap().len();

        let (_, scan) = Wal::open(&dir, 1 << 20).expect("recover");
        assert_eq!(scan.records.len(), 2, "intact prefix survives");
        assert!(scan.torn_bytes_truncated > 0);
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            before - scan.torn_bytes_truncated,
            "tail chopped in place"
        );
        // A second open sees a clean log.
        let (_, scan) = Wal::open(&dir, 1 << 20).expect("reopen");
        assert_eq!((scan.records.len(), scan.torn_bytes_truncated), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_history_in_sealed_segment_is_an_error() {
        let dir = tmp("sealed");
        {
            // Tiny segment budget, oversized records: every append
            // rotates, so record 1 lands in a sealed segment.
            let (mut wal, _) = Wal::open(&dir, 4096).expect("open");
            let big = vec![EdgeOp::Insert(0, 1); 600];
            wal.append(Dataset::EmailEucore, &big).unwrap();
            wal.append(Dataset::EmailEucore, &big).unwrap();
        }
        // Flip a byte mid-payload of the FIRST (sealed) segment.
        let seg = dir.join(WAL_SUBDIR).join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&dir, 4096),
            Err(PersistError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_gc_drop_covered_segments() {
        let dir = tmp("gc");
        let (mut wal, _) = Wal::open(&dir, 4096).expect("open");
        let big = vec![EdgeOp::Insert(0, 1); 200];
        for _ in 0..4 {
            wal.append(Dataset::EmailEucore, &big).unwrap();
        }
        let stats = wal.stats().unwrap();
        assert!(stats.segments > 1, "tiny budget must have rotated");

        // Nothing covered: nothing collected.
        assert_eq!(wal.collect(&HashMap::new()).unwrap(), 0);

        // Cover everything: all sealed segments go, the active one stays.
        let covered = HashMap::from([(Dataset::EmailEucore, u64::MAX)]);
        let removed = wal.collect(&covered).unwrap();
        assert!(removed >= 1);
        let after = wal.stats().unwrap();
        assert_eq!(after.segments, stats.segments - removed);
        assert_eq!(after.segments_collected, removed as u64);

        // The survivors still replay cleanly and appending continues.
        drop(wal);
        let (mut wal, scan) = Wal::open(&dir, 4096).expect("reopen");
        assert!(scan.records.iter().all(|r| r.seq >= 1));
        let next = wal.append(Dataset::EmailEucore, &[]).unwrap();
        assert_eq!(next, 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
