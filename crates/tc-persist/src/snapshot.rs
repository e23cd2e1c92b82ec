//! Snapshot files: one checksummed frame per file, written atomically
//! (temp file + fsync + rename) so a crash mid-write leaves either the
//! old snapshot or the new one, never a hybrid.
//!
//! Layout: `<dir>/snap/entry-<dataset>-<direction>-<ordering>-<bucket>.tcp`
//! for preprocessed registry entries, `<dir>/snap/stream-<dataset>.tcp`
//! for stream state. Filenames are derived from the key for
//! deterministic overwrite/delete, but the *payload* carries the
//! authoritative key — recovery trusts what it decodes, not what the
//! file is called.

use crate::codec::{
    decode_entry, decode_stream, direction_token, encode_entry, encode_stream, ordering_token,
    EntryRecord, PrepKey, StreamRecord, TAG_ENTRY, TAG_ENTRY_RETIRED, TAG_STREAM,
};
use crate::PersistError;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use tc_core::PreprocessResult;
use tc_datasets::Dataset;
use tc_graph::binary_io::{read_frame, write_frame};

/// Subdirectory holding snapshot files.
pub const SNAP_SUBDIR: &str = "snap";

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Snapshot filename for a registry entry key.
pub fn entry_file_name(key: &PrepKey) -> String {
    format!(
        "entry-{}-{}-{}-{}.tcp",
        sanitize(key.dataset.name()),
        direction_token(key.direction),
        ordering_token(key.ordering),
        key.bucket_size
    )
}

/// Snapshot filename for a dataset's stream state.
pub fn stream_file_name(dataset: Dataset) -> String {
    format!("stream-{}.tcp", sanitize(dataset.name()))
}

/// Point-in-time snapshot-directory figures for the `stats` surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Snapshot files on disk (entries + streams).
    pub files: usize,
    /// Total bytes across them.
    pub bytes: u64,
}

/// Manages the snapshot directory.
pub struct SnapshotDir {
    dir: PathBuf,
}

impl SnapshotDir {
    /// Opens (creating if needed) `<dir>/snap`.
    pub fn open(dir: &Path) -> Result<Self, PersistError> {
        let snap = dir.join(SNAP_SUBDIR);
        fs::create_dir_all(&snap)?;
        Ok(Self { dir: snap })
    }

    fn write_atomic(&self, name: &str, tag: [u8; 4], payload: &[u8]) -> Result<(), PersistError> {
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let target = self.dir.join(name);
        {
            let mut f = File::create(&tmp)?;
            write_frame(&mut f, tag, payload)?;
            f.flush()?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &target)?;
        // Make the rename itself durable where the platform allows it.
        if let Ok(d) = OpenOptions::new().read(true).open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Writes (or atomically replaces) one entry snapshot.
    pub fn write_entry(
        &self,
        key: &PrepKey,
        prep: &PreprocessResult,
        triangles: Option<u64>,
    ) -> Result<(), PersistError> {
        self.write_atomic(
            &entry_file_name(key),
            TAG_ENTRY,
            &encode_entry(key, prep, triangles),
        )
    }

    /// Writes (or atomically replaces) one stream snapshot.
    pub fn write_stream(&self, rec: &StreamRecord) -> Result<(), PersistError> {
        self.write_atomic(
            &stream_file_name(rec.dataset),
            TAG_STREAM,
            &encode_stream(rec),
        )
    }

    /// Deletes one entry snapshot if present.
    pub fn delete_entry(&self, key: &PrepKey) -> Result<(), PersistError> {
        match fs::remove_file(self.dir.join(entry_file_name(key))) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Deletes every entry snapshot belonging to `dataset` (they went
    /// stale the moment the dataset mutated).
    pub fn delete_dataset_entries(&self, dataset: Dataset) -> Result<usize, PersistError> {
        let prefix = format!("entry-{}-", sanitize(dataset.name()));
        let mut removed = 0;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(&prefix) && name.ends_with(".tcp") {
                fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Loads every snapshot in the directory. Corrupt or unreadable
    /// files are skipped (recovery proceeds on what is intact) and
    /// counted; their paths are returned for the report.
    pub fn load_all(&self) -> Result<SnapshotLoad, PersistError> {
        let mut load = SnapshotLoad::default();
        let mut names: Vec<String> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
            .filter(|n| n.ends_with(".tcp"))
            .collect();
        names.sort(); // deterministic load order
        for name in names {
            let path = self.dir.join(&name);
            match read_one(&path) {
                Ok(Loaded::Entry(rec)) => load.entries.push(rec),
                Ok(Loaded::Stream(rec)) => load.streams.push(rec),
                Err(e) => {
                    load.corrupt.push(format!("{}: {e}", path.display()));
                }
            }
        }
        Ok(load)
    }

    /// Current figures for the `stats` surface.
    pub fn stats(&self) -> Result<SnapshotStats, PersistError> {
        let mut stats = SnapshotStats::default();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tcp") {
                stats.files += 1;
                stats.bytes += entry.metadata()?.len();
            }
        }
        Ok(stats)
    }
}

/// Everything [`SnapshotDir::load_all`] found.
#[derive(Debug, Default)]
pub struct SnapshotLoad {
    /// Intact entry snapshots.
    pub entries: Vec<EntryRecord>,
    /// Intact stream snapshots.
    pub streams: Vec<StreamRecord>,
    /// Descriptions of files skipped as corrupt/unreadable.
    pub corrupt: Vec<String>,
}

enum Loaded {
    Entry(EntryRecord),
    Stream(StreamRecord),
}

fn read_one(path: &Path) -> Result<Loaded, PersistError> {
    let f = File::open(path)?;
    let frame = read_frame(std::io::BufReader::new(f))?
        .ok_or_else(|| PersistError::Corrupt("empty snapshot file".into()))?;
    match frame.tag {
        TAG_ENTRY => Ok(Loaded::Entry(decode_entry(&frame.payload)?)),
        TAG_STREAM => Ok(Loaded::Stream(decode_stream(&frame.payload)?)),
        TAG_ENTRY_RETIRED => Err(PersistError::Corrupt(
            "entry snapshot in the retired layout that also stored the relabelled graph".into(),
        )),
        tag => Err(PersistError::Corrupt(format!(
            "unexpected snapshot frame tag {tag:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_core::{DirectionScheme, OrderingScheme, Preprocessor};
    use tc_graph::generators::power_law_configuration;
    use tc_stream::DynamicGraph;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tc-persist-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn sample_key() -> PrepKey {
        PrepKey {
            dataset: Dataset::EmailEucore,
            direction: DirectionScheme::ADirection,
            ordering: OrderingScheme::AOrder,
            bucket_size: 64,
        }
    }

    #[test]
    fn entries_and_streams_round_trip_through_files() {
        let dir = tmp("roundtrip");
        let snap = SnapshotDir::open(&dir).expect("open");

        let g = power_law_configuration(150, 2.2, 6.0, 3);
        let prep = Preprocessor::new().run(&g);
        snap.write_entry(&sample_key(), &prep, Some(11))
            .expect("write entry");

        let mut dg = DynamicGraph::new(power_law_configuration(80, 2.2, 5.0, 4));
        dg.apply_batch(&[tc_stream::EdgeOp::Insert(0, 1)]);
        let rec = StreamRecord {
            dataset: Dataset::Gowalla,
            last_seq: 3,
            snapshot: dg.snapshot(),
        };
        snap.write_stream(&rec).expect("write stream");

        let load = snap.load_all().expect("load");
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.streams.len(), 1);
        assert!(load.corrupt.is_empty());
        assert_eq!(load.entries[0].key, sample_key());
        assert_eq!(load.entries[0].triangles, Some(11));
        assert_eq!(load.entries[0].prep.directed(), prep.directed());
        assert_eq!(load.entries[0].prep.permutation(), prep.permutation());
        assert_eq!(load.streams[0], rec);

        let stats = snap.stats().expect("stats");
        assert_eq!(stats.files, 2);
        assert!(stats.bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_not_fatal() {
        let dir = tmp("corrupt");
        let snap = SnapshotDir::open(&dir).expect("open");
        let g = power_law_configuration(60, 2.2, 5.0, 8);
        let prep = Preprocessor::new().run(&g);
        snap.write_entry(&sample_key(), &prep, None).expect("write");

        // Flip one byte mid-file: the CRC layer must catch it and
        // load_all must carry on.
        let path = dir.join(SNAP_SUBDIR).join(entry_file_name(&sample_key()));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let load = snap.load_all().expect("load");
        assert!(load.entries.is_empty());
        assert_eq!(load.corrupt.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_and_delete_manage_files() {
        let dir = tmp("manage");
        let snap = SnapshotDir::open(&dir).expect("open");
        let g = power_law_configuration(60, 2.2, 5.0, 1);
        let prep = Preprocessor::new().run(&g);

        snap.write_entry(&sample_key(), &prep, None).expect("write");
        snap.write_entry(&sample_key(), &prep, Some(5))
            .expect("overwrite");
        let load = snap.load_all().expect("load");
        assert_eq!(load.entries.len(), 1, "overwrite replaces, not duplicates");
        assert_eq!(load.entries[0].triangles, Some(5));

        snap.delete_entry(&sample_key()).expect("delete");
        snap.delete_entry(&sample_key())
            .expect("double delete is fine");
        assert_eq!(snap.stats().unwrap().files, 0);

        // delete_dataset_entries only touches the named dataset.
        snap.write_entry(&sample_key(), &prep, None).expect("write");
        let other = PrepKey {
            dataset: Dataset::Gowalla,
            ..sample_key()
        };
        snap.write_entry(&other, &prep, None).expect("write other");
        let removed = snap
            .delete_dataset_entries(Dataset::EmailEucore)
            .expect("sweep");
        assert_eq!(removed, 1);
        let load = snap.load_all().expect("load");
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].key.dataset, Dataset::Gowalla);
        let _ = fs::remove_dir_all(&dir);
    }
}
