//! The persistent store: append-only WAL + periodically compacted snapshot.
//!
//! A [`Store`] owns a directory with two files:
//!
//! * `wal.qcs` — the write-ahead log; every [`Store::append`] adds one frame
//!   and (by default) fsyncs before returning, so an acknowledged write
//!   survives `kill -9`.
//! * `snapshot.qcs` — a compacted rewrite holding one frame per live key.
//!
//! When the WAL accumulates [`StoreOptions::compact_after`] records, the
//! store rewrites all live records into `snapshot.tmp`, fsyncs it, renames
//! it over `snapshot.qcs`, and truncates the WAL back to a bare header —
//! the rename is the atomic commit point, so a crash at any step leaves
//! either the old or the new snapshot fully intact.
//!
//! [`Store::open`] recovers both files with the rules in [`crate::wal`]:
//! the longest intact prefix of frames wins, a torn tail is truncated away,
//! and a damaged header resets that file. Recovery never fails the open —
//! a cache must come up even if the disk ate its homework.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qca_adapt::Adaptation;

use crate::wal::{
    frame_bytes, read_value_at, scan, write_header, FrameLoc, HEADER_LEN, MAGIC_SNAP, MAGIC_WAL,
};
use crate::wire::{decode_adaptation, encode_adaptation};

/// WAL file name inside the store directory.
pub const WAL_FILE: &str = "wal.qcs";
/// Snapshot file name inside the store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.qcs";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Tuning knobs for [`Store::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Rewrite the snapshot once this many WAL records accumulate.
    pub compact_after: usize,
    /// Fsync the WAL after every append. Turning this off trades crash
    /// durability of the newest writes for latency; recovery still drops
    /// only the torn tail.
    pub fsync: bool,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            compact_after: 1024,
            fsync: true,
        }
    }
}

/// Point-in-time counters and sizes, surfaced in `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records served from disk (missed the in-memory cache, found here).
    pub hits: u64,
    /// Lookups that missed both the memory cache and the store.
    pub misses: u64,
    /// Records replayed into the in-memory cache on warm restart.
    pub replays: u64,
    /// Snapshot compactions performed since open.
    pub compactions: u64,
    /// Torn-tail bytes dropped during recovery at open.
    pub recovered_dropped_bytes: u64,
    /// Live keys currently indexed.
    pub live_records: u64,
    /// Records sitting in the WAL (not yet compacted).
    pub wal_records: u64,
    /// WAL file length in bytes.
    pub wal_bytes: u64,
}

/// Where the newest frame for a key lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    in_wal: bool,
    frame: FrameLoc,
}

struct Inner {
    dir: PathBuf,
    wal: File,
    snapshot: File,
    /// Newest location per key; WAL entries shadow snapshot entries.
    index: HashMap<u64, Loc>,
    wal_len: u64,
    wal_records: u64,
    opts: StoreOptions,
}

/// Persistent, crash-safe map of cache key → [`Adaptation`].
///
/// All methods take `&self`; file access is serialized behind one mutex
/// (reads are rare — they only happen on memory-cache misses), counters are
/// lock-free atomics.
pub struct Store {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    replays: AtomicU64,
    compactions: AtomicU64,
    recovered_dropped_bytes: u64,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Store").field("stats", &stats).finish()
    }
}

/// Opens (or repairs) one framed file, truncating any torn tail.
fn open_framed(path: &Path, magic: [u8; 8]) -> io::Result<(File, Vec<FrameLoc>, u64, u64)> {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)?;
    let r = scan(&bytes, magic);
    if r.bad_header {
        f.set_len(0)?;
        f.seek(SeekFrom::Start(0))?;
        write_header(&mut f, magic)?;
        f.sync_all()?;
        return Ok((f, Vec::new(), HEADER_LEN, r.dropped_bytes));
    }
    if r.dropped_bytes > 0 {
        f.set_len(r.good_len)?;
        f.sync_all()?;
    }
    f.seek(SeekFrom::Start(r.good_len))?;
    Ok((f, r.frames, r.good_len, r.dropped_bytes))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    // Durable rename needs the directory entry flushed too.
    File::open(dir)?.sync_all()
}

impl Store {
    /// Opens the store in `dir` (created if missing) with default options.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        Store::open_with(dir, StoreOptions::default())
    }

    /// Opens the store in `dir` with explicit [`StoreOptions`].
    pub fn open_with(dir: impl AsRef<Path>, opts: StoreOptions) -> io::Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        // A crash between writing snapshot.tmp and the rename leaves the
        // tmp file behind; it was never committed, so discard it.
        let _ = fs::remove_file(dir.join(SNAPSHOT_TMP));

        let (snapshot, snap_frames, _, snap_dropped) =
            open_framed(&dir.join(SNAPSHOT_FILE), MAGIC_SNAP)?;
        let (wal, wal_frames, wal_len, wal_dropped) = open_framed(&dir.join(WAL_FILE), MAGIC_WAL)?;

        let mut index = HashMap::new();
        for frame in &snap_frames {
            index.insert(
                frame.key,
                Loc {
                    in_wal: false,
                    frame: *frame,
                },
            );
        }
        for frame in &wal_frames {
            index.insert(
                frame.key,
                Loc {
                    in_wal: true,
                    frame: *frame,
                },
            );
        }
        Ok(Store {
            inner: Mutex::new(Inner {
                dir,
                wal,
                snapshot,
                index,
                wal_len,
                wal_records: wal_frames.len() as u64,
                opts,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            replays: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            recovered_dropped_bytes: snap_dropped + wal_dropped,
        })
    }

    /// Looks up one adaptation by cache key, decoding it from disk.
    pub fn get(&self, key: u64) -> Option<Arc<Adaptation>> {
        let mut inner = self.inner.lock().unwrap();
        let Some(loc) = inner.index.get(&key).copied() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let file = if loc.in_wal {
            &mut inner.wal
        } else {
            &mut inner.snapshot
        };
        let value = read_value_at(file, loc.frame).ok().flatten();
        drop(inner);
        match value.and_then(|v| decode_adaptation(&v).ok()) {
            Some(a) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::new(a))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Appends one record to the WAL (fsynced per [`StoreOptions::fsync`])
    /// and compacts when the WAL is due. Returns whether it compacted.
    pub fn append(&self, key: u64, value: &Adaptation) -> io::Result<bool> {
        let bytes = frame_bytes(key, &encode_adaptation(value));
        let mut inner = self.inner.lock().unwrap();
        let offset = inner.wal_len;
        inner.wal.seek(SeekFrom::Start(offset))?;
        inner.wal.write_all(&bytes)?;
        if inner.opts.fsync {
            inner.wal.sync_data()?;
        }
        inner.wal_len += bytes.len() as u64;
        inner.wal_records += 1;
        inner.index.insert(
            key,
            Loc {
                in_wal: true,
                frame: FrameLoc {
                    key,
                    offset,
                    len: bytes.len() as u64,
                },
            },
        );
        let due = inner.wal_records >= inner.opts.compact_after as u64;
        if due {
            self.compact_locked(&mut inner)?;
        }
        Ok(due)
    }

    /// Rewrites all live records into a fresh snapshot and empties the WAL.
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        self.compact_locked(&mut inner)
    }

    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        // Collect live values in deterministic (key-sorted) order. Reads go
        // through the index so WAL versions shadow snapshot versions.
        let mut keys: Vec<u64> = inner.index.keys().copied().collect();
        keys.sort_unstable();
        let mut records = Vec::with_capacity(keys.len());
        for key in keys {
            let loc = inner.index[&key];
            let file = if loc.in_wal {
                &mut inner.wal
            } else {
                &mut inner.snapshot
            };
            if let Some(value) = read_value_at(file, loc.frame)? {
                records.push((key, value));
            }
        }

        let tmp_path = inner.dir.join(SNAPSHOT_TMP);
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        write_header(&mut tmp, MAGIC_SNAP)?;
        let mut offset = HEADER_LEN;
        let mut new_index = HashMap::with_capacity(records.len());
        for (key, value) in &records {
            let bytes = frame_bytes(*key, value);
            tmp.write_all(&bytes)?;
            new_index.insert(
                *key,
                Loc {
                    in_wal: false,
                    frame: FrameLoc {
                        key: *key,
                        offset,
                        len: bytes.len() as u64,
                    },
                },
            );
            offset += bytes.len() as u64;
        }
        tmp.sync_all()?;
        // Atomic commit point: after this rename the new snapshot is the
        // durable truth and the WAL contents are redundant.
        fs::rename(&tmp_path, inner.dir.join(SNAPSHOT_FILE))?;
        sync_dir(&inner.dir)?;

        inner.snapshot = tmp;
        inner.index = new_index;
        inner.wal.set_len(HEADER_LEN)?;
        inner.wal.sync_all()?;
        inner.wal.seek(SeekFrom::Start(HEADER_LEN))?;
        inner.wal_len = HEADER_LEN;
        inner.wal_records = 0;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replays every live record in deterministic order — snapshot frames
    /// first, then WAL frames, both oldest-first — so an LRU fed by this
    /// ends up with the newest writes as most-recently-used. Counts each
    /// record as a replay.
    pub fn replay(&self, mut f: impl FnMut(u64, Arc<Adaptation>)) {
        let mut inner = self.inner.lock().unwrap();
        let mut locs: Vec<Loc> = inner.index.values().copied().collect();
        locs.sort_by_key(|l| (l.in_wal, l.frame.offset));
        for loc in locs {
            let file = if loc.in_wal {
                &mut inner.wal
            } else {
                &mut inner.snapshot
            };
            if let Some(value) = read_value_at(file, loc.frame).ok().flatten() {
                if let Ok(a) = decode_adaptation(&value) {
                    self.replays.fetch_add(1, Ordering::Relaxed);
                    f(loc.frame.key, Arc::new(a));
                }
            }
        }
    }

    /// Forces any buffered WAL bytes to disk; used by graceful drain.
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.wal.flush()?;
        inner.wal.sync_data()
    }

    /// Current counters and sizes.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap();
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            recovered_dropped_bytes: self.recovered_dropped_bytes,
            live_records: inner.index.len() as u64,
            wal_records: inner.wal_records,
            wal_bytes: inner.wal_len,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// True when no live keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
