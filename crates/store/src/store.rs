//! The on-disk plan cache: a directory of plan files keyed by content hash,
//! with a dedicated writer thread so saves never block the serving hot
//! path.
//!
//! Invariants:
//!
//! - **Reads are infallible to the caller.** [`PlanStore::load`] returns
//!   `Some(plan)` only for an intact, version- and roster-matched entry.
//!   A missing or unreadable file counts a miss and stays; a torn write,
//!   flipped bit, stale roster or old format counts its typed counter,
//!   evicts the bad file, and reads as a miss. A poisoned file is just
//!   another fault kind.
//! - **Writes are atomic and asynchronous.** Entries are encoded on the
//!   writer thread and written to a temp file then renamed into place, so a
//!   crash mid-write leaves either the old entry or none — never a torn
//!   one. [`PlanStore::flush`] drains the queue for shutdown and tests.

use crate::format::{
    decode_plan_full, encode_plan_with, peek_header, Expected, StoreError, FORMAT_VERSION,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use tssa_pipelines::CompiledProgram;

/// Snapshot of the store's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served intact from disk.
    pub disk_hits: u64,
    /// Lookups that found no entry on disk.
    pub disk_misses: u64,
    /// Damaged entries evicted (bad magic, truncation, checksum, parse).
    pub corrupt_evicted: u64,
    /// Stale entries evicted (version, roster, or key mismatch).
    pub stale_evicted: u64,
    /// Entries written to disk.
    pub writes: u64,
    /// Saves that failed (encode ok, filesystem said no).
    pub write_errors: u64,
}

#[derive(Debug, Default)]
struct Counters {
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    corrupt_evicted: AtomicU64,
    stale_evicted: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
}

enum Job {
    Save {
        path: PathBuf,
        plan: Arc<CompiledProgram>,
        content_hash: u64,
        roster_fingerprint: u64,
        coarse_hash: u64,
    },
    Sync(Sender<()>),
}

/// A directory of serialized compiled plans. Cheap to clone the handle via
/// `Arc`; dropping the last handle joins the writer thread.
pub struct PlanStore {
    dir: PathBuf,
    counters: Arc<Counters>,
    tx: Mutex<Option<Sender<Job>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for PlanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanStore {
    /// Open (creating if needed) the cache directory and start the writer
    /// thread.
    ///
    /// # Errors
    ///
    /// Any filesystem error creating `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<PlanStore> {
        let dir: PathBuf = dir.into();
        std::fs::create_dir_all(&dir)?;
        let counters = Arc::new(Counters::default());
        let (tx, rx) = channel::<Job>();
        let thread_counters = Arc::clone(&counters);
        let writer = std::thread::Builder::new()
            .name("tssa-plan-store".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        Job::Save {
                            path,
                            plan,
                            content_hash,
                            roster_fingerprint,
                            coarse_hash,
                        } => {
                            let bytes = encode_plan_with(
                                &plan,
                                content_hash,
                                roster_fingerprint,
                                coarse_hash,
                            );
                            match write_atomic(&path, &bytes) {
                                Ok(()) => {
                                    thread_counters.writes.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    thread_counters.write_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Job::Sync(ack) => {
                            let _ = ack.send(());
                        }
                    }
                }
            })?;
        Ok(PlanStore {
            dir,
            counters,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `content_hash`.
    pub fn path_for(&self, content_hash: u64) -> PathBuf {
        self.dir.join(format!("{content_hash:016x}.plan"))
    }

    /// Number of plan files currently on disk.
    pub fn entries(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "plan"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// The one read of the exact entry for `content_hash`, validated
    /// against the caller's key and live roster, behind both
    /// [`PlanStore::load`] and [`PlanStore::load_class`]. A hit is counted
    /// here; a damaged or stale entry is counted under its typed counter and
    /// evicted. A missing entry, or one that exists but cannot be read, is
    /// [`Miss::Absent`]: it stays on disk and the caller counts the miss.
    fn load_exact(
        &self,
        content_hash: u64,
        roster_fingerprint: u64,
    ) -> Result<CompiledProgram, Miss> {
        let path = self.path_for(content_hash);
        let Ok(bytes) = std::fs::read(&path) else {
            return Err(Miss::Absent);
        };
        let expected = Expected {
            content_hash: Some(content_hash),
            roster_fingerprint: Some(roster_fingerprint),
        };
        match decode_plan_full(&bytes, expected) {
            Ok(plan) => {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                Ok(plan)
            }
            Err(e) => {
                let slot = if e.is_stale() {
                    &self.counters.stale_evicted
                } else {
                    &self.counters.corrupt_evicted
                };
                slot.fetch_add(1, Ordering::Relaxed);
                let _ = std::fs::remove_file(&path);
                Err(Miss::Evicted)
            }
        }
    }

    /// Look up `content_hash`, requiring the entry to match
    /// `roster_fingerprint`. Missing or unreadable entries count as misses;
    /// damaged or stale entries are evicted (file removed) under their typed
    /// counter and also read as misses. Never panics, never surfaces an
    /// error.
    pub fn load(&self, content_hash: u64, roster_fingerprint: u64) -> Option<CompiledProgram> {
        match self.load_exact(content_hash, roster_fingerprint) {
            Ok(plan) => Some(plan),
            Err(Miss::Evicted) => None,
            Err(Miss::Absent) => {
                self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Class-aware lookup, counting **exactly one** disk hit or miss (or one
    /// eviction) per call. The exact `content_hash` entry is tried first; on
    /// an exact miss, the directory is scanned for a current-version entry
    /// whose header carries `coarse_hash`, matches `roster_fingerprint`, and
    /// whose decoded plan passes the caller's `admit` check (the shape-class
    /// admission test) — this is how a warm restart serves a concrete shape
    /// it never stored exactly. The scan also evicts, and counts stale, every
    /// plan file of an older format it meets.
    pub fn load_class(
        &self,
        content_hash: u64,
        coarse_hash: u64,
        roster_fingerprint: u64,
        admit: impl Fn(&CompiledProgram) -> bool,
    ) -> Option<CompiledProgram> {
        match self.load_exact(content_hash, roster_fingerprint) {
            Ok(plan) => return Some(plan),
            // A bad exact entry means the class scan would find the same
            // generation of files: the eviction is this load's one outcome.
            Err(Miss::Evicted) => return None,
            Err(Miss::Absent) => {}
        }
        let exact_path = self.path_for(content_hash);
        // Exact miss: scan headers for the class. Files that fail to peek
        // or decode are skipped without counters — they belong to other
        // keys, whose own loads will evict them. A file of an older format
        // is evicted here, since its name may be one no live key produces
        // any more (v7 renamed every plan file) and then no exact load
        // ever reaches it. A newer format's file belongs to another
        // binary, and stays.
        if coarse_hash != 0 {
            let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.dir)
                .map(|rd| {
                    rd.filter_map(Result::ok)
                        .map(|e| e.path())
                        .filter(|p| p.extension().is_some_and(|x| x == "plan"))
                        .collect()
                })
                .unwrap_or_default();
            paths.sort();
            for path in paths {
                if path == exact_path {
                    continue;
                }
                let Ok(bytes) = std::fs::read(&path) else {
                    continue;
                };
                let Ok(header) = peek_header(&bytes) else {
                    continue;
                };
                if header.version < FORMAT_VERSION {
                    self.counters.stale_evicted.fetch_add(1, Ordering::Relaxed);
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                if header.version != FORMAT_VERSION
                    || header.coarse_hash != coarse_hash
                    || header.roster_fingerprint != roster_fingerprint
                {
                    continue;
                }
                let Ok(decoded) = decode_plan_full(
                    &bytes,
                    Expected {
                        content_hash: Some(header.content_hash),
                        roster_fingerprint: Some(roster_fingerprint),
                    },
                ) else {
                    continue;
                };
                if admit(&decoded) {
                    self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Some(decoded);
                }
            }
        }
        self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Queue `plan` for write-back under `coarse_hash`, its class hash with
    /// every pin erased (0 when the plan is not class-eligible). Returns
    /// immediately; encoding and the write happen on the store's writer
    /// thread.
    pub fn save_async_with(
        &self,
        content_hash: u64,
        roster_fingerprint: u64,
        plan: Arc<CompiledProgram>,
        coarse_hash: u64,
    ) {
        let job = Job::Save {
            path: self.path_for(content_hash),
            plan,
            content_hash,
            roster_fingerprint,
            coarse_hash,
        };
        let sent = self
            .tx
            .lock()
            .ok()
            .and_then(|tx| tx.as_ref().map(|tx| tx.send(job).is_ok()))
            .unwrap_or(false);
        if !sent {
            self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Encode and write `plan` on the calling thread (atomic temp+rename).
    ///
    /// # Errors
    ///
    /// Any filesystem error as [`StoreError::Io`].
    pub fn save_blocking(
        &self,
        content_hash: u64,
        roster_fingerprint: u64,
        plan: &CompiledProgram,
    ) -> Result<(), StoreError> {
        let bytes = encode_plan_with(plan, content_hash, roster_fingerprint, 0);
        write_atomic(&self.path_for(content_hash), &bytes)?;
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Block until every save queued before this call has hit the
    /// filesystem.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = channel();
        let sent = self
            .tx
            .lock()
            .ok()
            .and_then(|tx| tx.as_ref().map(|tx| tx.send(Job::Sync(ack_tx)).is_ok()))
            .unwrap_or(false);
        if sent {
            let _ = ack_rx.recv();
        }
    }

    /// Current counter values.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            corrupt_evicted: self.counters.corrupt_evicted.load(Ordering::Relaxed),
            stale_evicted: self.counters.stale_evicted.load(Ordering::Relaxed),
            writes: self.counters.writes.load(Ordering::Relaxed),
            write_errors: self.counters.write_errors.load(Ordering::Relaxed),
        }
    }
}

impl Drop for PlanStore {
    fn drop(&mut self) {
        if let Ok(mut tx) = self.tx.lock() {
            tx.take(); // close the channel so the writer loop ends
        }
        if let Ok(mut writer) = self.writer.lock() {
            if let Some(handle) = writer.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Why the exact entry of a key served no plan.
enum Miss {
    /// No entry, or one that cannot be read: nothing is counted yet.
    Absent,
    /// A damaged or stale entry, counted under its typed counter and
    /// evicted.
    Evicted,
}

/// Write `bytes` to `path` via a temp file in the same directory plus an
/// atomic rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("plan.tmp");
    std::fs::write(&tmp, bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}
