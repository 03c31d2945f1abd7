//! The crash-safe on-disk [`Repository`]: WAL + immutable segments.
//!
//! # Layout
//!
//! ```text
//! <root>/wal                 the write-ahead log (all shards)
//! <root>/shard_00/seg_00000001
//! <root>/shard_00/seg_00000002   append-once, then immutable
//! ...
//! <root>/shard_15/seg_00000007
//! ```
//!
//! Keys hash into [`STORE_SHARDS`] shards (FNV-1a, the same function
//! `MemRepository` buckets with). Each shard owns an in-memory index —
//! key → record chain, emit bytes, revisions — guarded by one mutex
//! registered as the `store` lock class (rank 25): callers hold the
//! per-URL named lock (rank 10) across read-modify-write, the store lock
//! nests inside it, and the VFS's own structure guards (rank 30) nest
//! inside that.
//!
//! # Record chains
//!
//! A key's entry is a chain of frames, oldest first: one full
//! `OP_STORE` base (the archive's `,v` text) and then one `OP_APPEND`
//! increment per check-in stored on top of it (see [`frame`]). Each part
//! has its own location, so a chain may start in a segment and end in
//! the WAL; its WAL-resident parts are always a suffix.
//!
//! # Write path
//!
//! A mutation is one checksummed frame committed to the WAL with group
//! commit (see [`Wal`]) *before* the index is updated. A store whose
//! archive is the stored archive plus exactly one check-in — checked
//! against the shard's cached copy — appends an increment: the new
//! revision's metadata, its reverse delta and the new head, so the write
//! costs the edit rather than the history. Any other store writes a full
//! record and starts a new chain, and so does a check-in once the
//! chain's increments would outweigh its base record (the fold rule,
//! which bounds the bytes written per chain at twice its base).
//!
//! Once the WAL crosses a size threshold, a *checkpoint* relocates every
//! WAL-resident record into a fresh per-shard segment file (fsynced),
//! then truncates the log. Segments are immutable once written;
//! superseded records make a segment partially dead, and *compaction*
//! rewrites a shard's live records — every segment-resident part of a
//! live chain, in chain order — into one new segment and deletes the old
//! ones **oldest-first**, which is what makes tombstones safe: a
//! tombstone always lives in a higher-numbered segment (or the WAL) than
//! the record it masks, so no crash point can delete a tombstone while
//! leaving the masked record.
//!
//! # Recovery invariant
//!
//! On open, segments replay in ascending id order, then the WAL; within
//! a file, later frames win. An increment numbered `n` extends a key at
//! `n - 1` revisions, is skipped by a key already at `n` or more (the
//! window a checkpoint duplicates if it dies before truncating the WAL),
//! and after a gap is chained anyway so the key surfaces as Corrupt at
//! load. Every file may carry a torn tail (a crash mid-append); recovery
//! truncates each file at the first undecodable frame. Because frames
//! are appended in operation order and fsynced before the operation is
//! acknowledged, the recovered state is always a *prefix* of
//! acknowledged history: every acknowledged store/remove either fully
//! survives or (if the crash landed inside its commit, unacknowledged)
//! fully disappears — never a half-applied record.
//!
//! # Serving
//!
//! `load` reads a chain's frames by exact location, re-verifies their
//! checksums, parses the base's `,v` text and replays the increments
//! (no delta is computed), and keeps a small per-shard archive cache.
//! Stats are O(shards) running counters, byte-identical to
//! `MemRepository`'s accounting: both count `emitted_len(&archive)`.

use crate::frame::{self, Frame, Increment, Record};
use crate::wal::Wal;
use aide_rcs::archive::{Archive, RevId};
use aide_rcs::delta::Delta;
use aide_rcs::format::{emit, emitted_len, parse};
use aide_rcs::repo::{RepoError, Repository, StorageStats};
use aide_util::checksum::fnv1a64;
use aide_util::sync::{lockrank, Condvar, Mutex, MutexGuard};
use aide_util::time::Timestamp;
use aide_util::vfs::{read_exact, Vfs, VfsError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Number of storage shards (directories). Kept modest: each shard costs
/// a directory and an open segment chain.
pub const STORE_SHARDS: usize = 16;

/// Tuning knobs for [`DiskRepository`]. `Default` suits production-sized
/// archives; tests shrink the thresholds to exercise checkpoints and
/// compaction with small data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// Checkpoint (relocate WAL records to segments, truncate the log)
    /// once the WAL exceeds this many bytes.
    pub checkpoint_wal_bytes: u64,
    /// Compact a shard once its dead segment bytes exceed this *and*
    /// make up at least half the shard's segment bytes.
    pub compact_min_dead_bytes: u64,
    /// Compact a shard regardless of dead ratio once it has more than
    /// this many segment files.
    pub max_segments: usize,
    /// Parsed-archive cache entries per shard (0 disables caching).
    pub cache_entries: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            checkpoint_wal_bytes: 1 << 20,
            compact_min_dead_bytes: 256 << 10,
            max_segments: 8,
            cache_entries: 64,
        }
    }
}

/// Where one of a key's records lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In the WAL (not yet checkpointed).
    Wal,
    /// In segment file `seg_<id>` of the key's shard.
    Seg(u32),
}

/// One durable record of a key: its frame's file, offset and length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Part {
    loc: Loc,
    off: u64,
    len: u32,
}

/// One live key's index entry.
#[derive(Debug, Clone)]
struct Entry {
    /// The key's records, oldest first: a full `OP_STORE` base, then
    /// one `OP_APPEND` increment per check-in stored on top of it. Any
    /// WAL-resident parts are a suffix (they are the newest).
    chain: Vec<Part>,
    /// Length of the archive's `,v` serialization — the accounted size,
    /// identical to `MemRepository`'s `emitted_len()`.
    emit_len: u32,
    /// Revision count, recorded in the frame header so recovery can
    /// account stats without parsing archive bodies.
    revisions: u32,
    /// True if some segment still holds an older record for this key
    /// while the whole chain lives in the WAL — a remove must then write
    /// a tombstone at the next checkpoint.
    prior_seg: bool,
}

impl Entry {
    fn new(part: Part, counts: Option<(u32, u32)>, prior_seg: bool) -> Entry {
        // A payload too short for its counts is indexed anyway, so the
        // key surfaces as Corrupt at load rather than silently vanishing.
        let (revisions, emit_len) = counts.unwrap_or((0, 0));
        Entry {
            chain: vec![part],
            emit_len,
            revisions,
            prior_seg,
        }
    }

    fn tail(&self) -> Option<Part> {
        self.chain.last().copied()
    }

    /// Bytes of this key's records that live in segments.
    fn seg_bytes(&self) -> u64 {
        self.chain
            .iter()
            .filter(|p| matches!(p.loc, Loc::Seg(_)))
            .map(|p| p.len as u64)
            .sum()
    }

    /// True if a segment holds any record of this key, live or masked.
    fn touches_segments(&self) -> bool {
        self.prior_seg || self.chain.iter().any(|p| matches!(p.loc, Loc::Seg(_)))
    }
}

struct CacheSlot {
    tick: u64,
    archive: Arc<Archive>,
}

#[derive(Default)]
struct Shard {
    index: BTreeMap<String, Entry>,
    /// Running totals over live entries (O(shards) stats).
    bytes: u64,
    revisions: u64,
    /// Segment id → file length.
    seg_lens: BTreeMap<u32, u64>,
    /// Sum of frame lengths of live entries located in segments; the
    /// difference against `seg_lens` totals is the dead-byte count that
    /// triggers compaction.
    live_seg_bytes: u64,
    next_seg: u32,
    /// Keys removed since the last checkpoint whose records still exist
    /// in some segment: the next checkpoint must write tombstones.
    wal_tombstones: BTreeSet<String>,
    cache: BTreeMap<String, CacheSlot>,
    cache_tick: u64,
    /// Bumped whenever entry locations move (checkpoint, compaction) so
    /// lock-free readers can detect staleness and retry.
    version: u64,
}

struct MaintState {
    pending: bool,
    attached: bool,
    shutdown: bool,
}

/// The on-disk repository. See the module docs for the design.
pub struct DiskRepository {
    vfs: Arc<dyn Vfs>,
    root: String,
    opts: StoreOptions,
    wal: Wal,
    shards: Vec<Mutex<Shard>>,
    maint: Mutex<MaintState>,
    maint_cv: Condvar,
}

fn join_path(root: &str, name: &str) -> String {
    if root.is_empty() {
        name.to_string()
    } else {
        format!("{root}/{name}")
    }
}

fn shard_of(key: &str) -> usize {
    fnv1a64(key.as_bytes()) as usize % STORE_SHARDS
}

/// What a single record-read attempt reported.
enum ReadFail {
    Vfs(VfsError),
    Corrupt(String),
}

impl DiskRepository {
    /// Opens (creating or recovering) a repository under `root` inside
    /// `vfs`. Recovery replays segments then the WAL, truncating torn
    /// tails, and rebuilds every shard's index and running counters.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        root: &str,
        opts: StoreOptions,
    ) -> Result<DiskRepository, RepoError> {
        vfs.create_dir_all(root)?;
        let mut shards: Vec<Shard> = (0..STORE_SHARDS).map(|_| Shard::default()).collect();
        let mut frames_replayed = 0u64;
        let mut torn_frames = 0u64;
        let mut truncated_bytes = 0u64;

        // Pass 1: segments, ascending id per shard.
        for (si, shard) in shards.iter_mut().enumerate() {
            let dir = join_path(root, &format!("shard_{si:02}"));
            vfs.create_dir_all(&dir)?;
            let mut seg_ids: Vec<u32> = Vec::new();
            for name in vfs.list(&dir)? {
                if let Some(id) = name
                    .strip_prefix("seg_")
                    .and_then(|s| s.parse::<u32>().ok())
                {
                    seg_ids.push(id);
                }
            }
            seg_ids.sort_unstable();
            shard.next_seg = seg_ids.last().map(|&m| m + 1).unwrap_or(1);
            for id in seg_ids {
                let path = join_path(&dir, &format!("seg_{id:08}"));
                let buf = vfs.read(&path)?;
                let (frames, clean_len, err) = frame::scan(&buf);
                if err.is_some() && clean_len < buf.len() {
                    torn_frames += 1;
                    truncated_bytes += (buf.len() - clean_len) as u64;
                    vfs.truncate(&path, clean_len as u64)?;
                    vfs.sync(&path)?;
                }
                frames_replayed += frames.len() as u64;
                for (off, f) in frames {
                    Self::replay(shard, Loc::Seg(id), off, &f);
                }
                shard.seg_lens.insert(id, clean_len as u64);
            }
        }

        // Pass 2: the WAL — newest records, replayed last.
        let wal_path = join_path(root, "wal");
        let wal_len = match vfs.len(&wal_path)? {
            None => 0u64,
            Some(_) => {
                let buf = vfs.read(&wal_path)?;
                let (frames, clean_len, err) = frame::scan(&buf);
                if err.is_some() && clean_len < buf.len() {
                    torn_frames += 1;
                    truncated_bytes += (buf.len() - clean_len) as u64;
                    vfs.truncate(&wal_path, clean_len as u64)?;
                    vfs.sync(&wal_path)?;
                }
                frames_replayed += frames.len() as u64;
                for (off, f) in frames {
                    let shard = &mut shards[shard_of(f.key)];
                    Self::replay(shard, Loc::Wal, off, &f);
                }
                clean_len as u64
            }
        };

        // Pass 3: running counters from the rebuilt indexes.
        for shard in shards.iter_mut() {
            for e in shard.index.values() {
                shard.bytes += e.emit_len as u64;
                shard.revisions += e.revisions as u64;
                shard.live_seg_bytes += e.seg_bytes();
            }
        }

        aide_obs::counter("store.recovery", 1);
        aide_obs::counter("store.recovery.frames", frames_replayed);
        aide_obs::counter("store.recovery.torn_frames", torn_frames);
        aide_obs::counter("store.recovery.truncated_bytes", truncated_bytes);

        Ok(DiskRepository {
            wal: Wal::new(vfs.clone(), wal_path, wal_len),
            vfs,
            root: root.to_string(),
            opts,
            shards: shards.into_iter().map(Mutex::new).collect(),
            maint: Mutex::new(MaintState {
                pending: false,
                attached: false,
                shutdown: false,
            }),
            maint_cv: Condvar::new(),
        })
    }

    /// Opens a repository on the real filesystem at `dir` with default
    /// options.
    pub fn open_dir(dir: impl AsRef<std::path::Path>) -> Result<DiskRepository, RepoError> {
        let vfs = Arc::new(crate::vfs::RealVfs::new(dir));
        DiskRepository::open(vfs, "", StoreOptions::default())
    }

    /// Applies one recovered frame to a shard index. Replay semantics:
    /// later frames win and tombstones erase; an increment numbered
    /// `n` extends a key at `n - 1` revisions, is skipped by a key that
    /// already has `n` or more (a checkpoint's duplicated WAL window),
    /// and after a gap is chained anyway so the key surfaces as Corrupt
    /// at load.
    fn replay(shard: &mut Shard, loc: Loc, off: u64, f: &Frame<'_>) {
        let part = Part {
            loc,
            off,
            len: f.len as u32,
        };
        let counts = f.counts();
        if f.op == frame::OP_APPEND {
            if let Some(e) = shard.index.get_mut(f.key) {
                match counts {
                    Some((n, _)) if n <= e.revisions => {}
                    Some((n, emit_len)) => {
                        e.chain.push(part);
                        e.revisions = n;
                        e.emit_len = emit_len;
                    }
                    None => e.chain.push(part),
                }
                return;
            }
        }
        if f.op == frame::OP_REMOVE {
            if let Some(old) = shard.index.remove(f.key) {
                if matches!(loc, Loc::Wal) && old.touches_segments() {
                    shard.wal_tombstones.insert(f.key.to_string());
                }
            }
            return;
        }
        // A base record, or an increment with nothing under it.
        let prior_seg = match loc {
            Loc::Seg(_) => false,
            Loc::Wal => {
                shard.wal_tombstones.remove(f.key)
                    || shard
                        .index
                        .get(f.key)
                        .map(Entry::touches_segments)
                        .unwrap_or(false)
            }
        };
        shard
            .index
            .insert(f.key.to_string(), Entry::new(part, counts, prior_seg));
    }

    fn shard_dir(&self, si: usize) -> String {
        join_path(&self.root, &format!("shard_{si:02}"))
    }

    fn seg_path(&self, si: usize, id: u32) -> String {
        join_path(&self.shard_dir(si), &format!("seg_{id:08}"))
    }

    fn wal_path(&self) -> String {
        join_path(&self.root, "wal")
    }

    /// Acquires shard `si`'s index lock under the `store` lock class
    /// (rank 25: inside url/user named locks, outside structure guards).
    fn lock_shard(&self, si: usize) -> (lockrank::Held, MutexGuard<'_, Shard>) {
        let held = lockrank::acquire("store", &format!("store:shard:{si}"));
        (held, self.shards[si].lock())
    }

    fn cache_insert(opts: &StoreOptions, sh: &mut Shard, key: &str, archive: Arc<Archive>) {
        if opts.cache_entries == 0 {
            return;
        }
        sh.cache_tick += 1;
        let tick = sh.cache_tick;
        sh.cache
            .insert(key.to_string(), CacheSlot { tick, archive });
        while sh.cache.len() > opts.cache_entries {
            let oldest = sh
                .cache
                .iter()
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    sh.cache.remove(&k);
                }
                None => break,
            }
        }
    }

    fn part_path(&self, si: usize, part: &Part) -> String {
        match part.loc {
            Loc::Wal => self.wal_path(),
            Loc::Seg(id) => self.seg_path(si, id),
        }
    }

    /// Reads one record of `key`, checks its frame — checksum, and that
    /// it belongs to `key` — and hands it to `read`.
    fn with_part<T>(
        &self,
        si: usize,
        part: &Part,
        key: &str,
        read: impl FnOnce(Frame<'_>) -> Result<T, ReadFail>,
    ) -> Result<T, ReadFail> {
        let path = self.part_path(si, part);
        let buf = read_exact(self.vfs.as_ref(), &path, part.off, part.len as usize)
            .map_err(ReadFail::Vfs)?;
        match frame::decode(&buf) {
            Ok(f) if f.key == key => read(f),
            Ok(_) => Err(ReadFail::Corrupt(format!(
                "frame at {path}+{} belongs to another key",
                part.off
            ))),
            Err(e) => Err(ReadFail::Corrupt(format!(
                "frame at {path}+{}: {e}",
                part.off
            ))),
        }
    }

    /// Reads, verifies and rebuilds an archive from its record chain:
    /// parses the base, then replays each increment — push its delta and
    /// metadata, replace the head. Failures distinguish VFS errors
    /// (possibly-stale locations) from true corruption.
    fn read_chain(&self, si: usize, chain: &[Part], key: &str) -> Result<Archive, ReadFail> {
        let corrupt = |detail: String| ReadFail::Corrupt(detail);
        let (base, increments) = chain
            .split_first()
            .ok_or_else(|| corrupt("empty record chain".into()))?;
        let mut archive = self.with_part(si, base, key, |f| match f.record() {
            Ok(Record::Store { text, .. }) => {
                parse(text).map_err(|e| corrupt(format!("archive text: {e}")))
            }
            _ => Err(corrupt("chain does not start with a store record".into())),
        })?;
        for part in increments {
            self.with_part(si, part, key, |f| {
                let Ok(Record::Append(inc)) = f.record() else {
                    return Err(corrupt(format!(
                        "record at +{} is not an increment",
                        part.off
                    )));
                };
                let reverse = Delta::parse(inc.delta)
                    .map_err(|e| corrupt(format!("increment delta: {e}")))?;
                archive
                    .push_checkin(
                        RevId(inc.revisions),
                        Timestamp(inc.date),
                        inc.author.to_string(),
                        inc.log.to_string(),
                        reverse,
                        inc.head.to_string(),
                    )
                    .map_err(|e| corrupt(format!("increment {}: {e}", inc.revisions)))
            })?;
        }
        Ok(archive)
    }

    /// Relocates every WAL-resident record into fresh per-shard segment
    /// files, then truncates the WAL. A key's WAL-resident records are
    /// the newest part of its chain and move in chain order. Safe at any
    /// crash point: segments are synced before the truncate, and replay
    /// order (segments, then WAL, later-file-wins, increments already
    /// applied skipped) makes the duplicated window idempotent.
    pub fn checkpoint(&self) -> Result<(), RepoError> {
        let pause = self.wal.pause_commits();
        if self.wal.is_empty() {
            return Ok(());
        }
        let mut moved_bytes = 0u64;
        let wal_path = self.wal_path();
        for si in 0..STORE_SHARDS {
            let (_held, mut sh) = self.lock_shard(si);
            let wal_parts: Vec<(String, usize, Part)> = sh
                .index
                .iter()
                .flat_map(|(k, e)| {
                    e.chain
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.loc == Loc::Wal)
                        .map(move |(i, p)| (k.clone(), i, *p))
                })
                .collect();
            if wal_parts.is_empty() && sh.wal_tombstones.is_empty() {
                continue;
            }
            let seg_id = sh.next_seg;
            let seg_path = self.seg_path(si, seg_id);
            let mut out: Vec<u8> = Vec::new();
            let mut relocated: Vec<(String, usize, u64)> = Vec::new();
            for (key, i, part) in wal_parts {
                let bytes = read_exact(self.vfs.as_ref(), &wal_path, part.off, part.len as usize)?;
                relocated.push((key, i, out.len() as u64));
                out.extend_from_slice(&bytes);
            }
            for key in sh.wal_tombstones.iter() {
                out.extend_from_slice(&frame::encode(key, &Record::Remove));
            }
            self.vfs.append(&seg_path, &out)?;
            // aide-lint: allow(blocking-while-locked): checkpoint must
            // sync the new segment before repointing index entries at
            // it, and the repoint must be atomic under the shard lock
            self.vfs.sync(&seg_path)?;
            sh.next_seg += 1;
            sh.seg_lens.insert(seg_id, out.len() as u64);
            moved_bytes += out.len() as u64;
            let mut seg_bytes = 0u64;
            for (key, i, off) in relocated {
                if let Some(e) = sh.index.get_mut(&key) {
                    let part = &mut e.chain[i];
                    part.loc = Loc::Seg(seg_id);
                    part.off = off;
                    e.prior_seg = false;
                    seg_bytes += part.len as u64;
                }
            }
            sh.live_seg_bytes += seg_bytes;
            sh.wal_tombstones.clear();
            sh.version += 1;
        }
        self.wal.reset(&pause)?;
        aide_obs::counter("store.checkpoint", 1);
        aide_obs::counter("store.checkpoint.bytes_moved", moved_bytes);
        Ok(())
    }

    fn needs_compaction(opts: &StoreOptions, sh: &Shard) -> bool {
        if sh.seg_lens.len() > opts.max_segments {
            return true;
        }
        let total: u64 = sh.seg_lens.values().sum();
        let dead = total.saturating_sub(sh.live_seg_bytes);
        dead >= opts.compact_min_dead_bytes && dead * 2 >= total
    }

    /// Rewrites shard `si`'s live segment records into one fresh segment
    /// and deletes the old segments oldest-first (the tombstone-safety
    /// order — see module docs). Every segment-resident part of a live
    /// chain is live, including the base of a key whose newest
    /// increments are still in the WAL; parts keep their chain order.
    pub fn compact_shard(&self, si: usize) -> Result<(), RepoError> {
        let (_held, mut sh) = self.lock_shard(si);
        let old_ids: Vec<u32> = sh.seg_lens.keys().copied().collect();
        if old_ids.is_empty() {
            return Ok(());
        }
        let old_total: u64 = sh.seg_lens.values().sum();
        let live: Vec<(String, usize, Part)> = sh
            .index
            .iter()
            .flat_map(|(k, e)| {
                e.chain
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| matches!(p.loc, Loc::Seg(_)))
                    .map(move |(i, p)| (k.clone(), i, *p))
            })
            .collect();
        let new_id = sh.next_seg;
        sh.next_seg += 1;
        let mut out: Vec<u8> = Vec::new();
        let mut relocated: Vec<(String, usize, u64)> = Vec::new();
        for (key, i, part) in live {
            let bytes = read_exact(
                self.vfs.as_ref(),
                &self.part_path(si, &part),
                part.off,
                part.len as usize,
            )?;
            relocated.push((key, i, out.len() as u64));
            out.extend_from_slice(&bytes);
        }
        if !out.is_empty() {
            let new_path = self.seg_path(si, new_id);
            self.vfs.append(&new_path, &out)?;
            // aide-lint: allow(blocking-while-locked): compaction must
            // sync the fresh segment before deleting the ones it
            // replaces, and holds the shard lock so readers never see a
            // half-moved index
            self.vfs.sync(&new_path)?;
        }
        sh.seg_lens.clear();
        if !out.is_empty() {
            sh.seg_lens.insert(new_id, out.len() as u64);
        }
        sh.live_seg_bytes = out.len() as u64;
        for (key, i, off) in relocated {
            if let Some(e) = sh.index.get_mut(&key) {
                e.chain[i].loc = Loc::Seg(new_id);
                e.chain[i].off = off;
            }
        }
        sh.version += 1;
        // Oldest-first deletion: if we crash partway, every surviving
        // record's tombstone (always in a later file) also survives.
        for id in old_ids {
            self.vfs.remove(&self.seg_path(si, id))?;
        }
        // With the old segments gone, pending tombstones have nothing
        // left to mask.
        sh.wal_tombstones.clear();
        for e in sh.index.values_mut() {
            e.prior_seg = false;
        }
        aide_obs::counter("store.compaction", 1);
        aide_obs::counter(
            "store.compaction.reclaimed_bytes",
            old_total.saturating_sub(out.len() as u64),
        );
        Ok(())
    }

    /// Runs any due maintenance: a checkpoint if the WAL is over its
    /// threshold, then compaction of any shard over its dead-byte or
    /// segment-count threshold. Called inline after writes when no
    /// background compactor is attached, or by the compactor thread.
    pub fn maintenance(&self) -> Result<(), RepoError> {
        if self.wal.len() >= self.opts.checkpoint_wal_bytes {
            self.checkpoint()?;
        }
        for si in 0..STORE_SHARDS {
            let due = {
                let (_held, sh) = self.lock_shard(si);
                Self::needs_compaction(&self.opts, &sh)
            };
            if due {
                self.compact_shard(si)?;
            }
        }
        Ok(())
    }

    /// Post-write trigger: hand maintenance to the background compactor
    /// if one is attached, else run it inline.
    fn after_write(&self, si: usize) -> Result<(), RepoError> {
        let need_ckpt = self.wal.len() >= self.opts.checkpoint_wal_bytes;
        let need_compact = {
            let (_held, sh) = self.lock_shard(si);
            Self::needs_compaction(&self.opts, &sh)
        };
        if !need_ckpt && !need_compact {
            return Ok(());
        }
        {
            let mut m = self.maint.lock();
            if m.attached {
                m.pending = true;
                drop(m);
                self.maint_cv.notify_all();
                return Ok(());
            }
        }
        if need_ckpt {
            self.checkpoint()?;
        }
        if need_compact {
            self.compact_shard(si)?;
        }
        Ok(())
    }

    /// Total segment files across all shards (observability for tests
    /// and benches).
    pub fn segment_count(&self) -> usize {
        (0..STORE_SHARDS)
            .map(|si| {
                let (_held, sh) = self.lock_shard(si);
                sh.seg_lens.len()
            })
            .sum()
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Where each record of `key`'s chain lives, oldest first: `None`
    /// for the WAL, `Some(id)` for segment `id` of the key's shard.
    /// Empty if the key is absent. For tests and tools.
    pub fn chain_locations(&self, key: &str) -> Vec<Option<u32>> {
        let (_held, sh) = self.lock_shard(shard_of(key));
        sh.index
            .get(key)
            .map(|e| {
                e.chain
                    .iter()
                    .map(|p| match p.loc {
                        Loc::Wal => None,
                        Loc::Seg(id) => Some(id),
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Stores `archive` as one increment on top of `key`'s chain, if it
    /// is the stored archive plus exactly one check-in — judged against
    /// the cached copy, which the caller's load normally just put there
    /// — and the chain's increments would still total no more than its
    /// base record (the fold rule). Returns `Ok(false)` when it wrote
    /// nothing to the index; the caller then writes a full record.
    fn store_increment(&self, si: usize, key: &str, archive: &Archive) -> Result<bool, RepoError> {
        let (prior, base_len, increment_bytes) = {
            let (_held, sh) = self.lock_shard(si);
            let (Some(e), Some(slot)) = (sh.index.get(key), sh.cache.get(key)) else {
                return Ok(false);
            };
            let increment_bytes: u64 = e.chain[1..].iter().map(|p| p.len as u64).sum();
            (slot.archive.clone(), e.chain[0].len as u64, increment_bytes)
        };
        let Some((meta, reverse)) = archive.checkin_since(&prior) else {
            return Ok(false);
        };
        let emit_len = emitted_len(archive) as u32;
        let delta = reverse.to_text();
        let buf = frame::encode(
            key,
            &Record::Append(Increment {
                revisions: meta.id.0,
                emit_len,
                date: meta.date.0,
                author: &meta.author,
                log: &meta.log,
                delta: &delta,
                head: archive.head_text(),
            }),
        );
        if increment_bytes + buf.len() as u64 > base_len {
            return Ok(false);
        }
        let flen = buf.len() as u32;
        {
            let permit = self.wal.begin_commit();
            let off = self.wal.commit(&permit, &buf)?;
            let (_held, mut sh) = self.lock_shard(si);
            // The cache holds exactly the archive the index describes,
            // and every store or remove of the key replaces or drops it;
            // so the same cached handle means the chain still ends where
            // the increment was built. Callers serialize stores of one
            // key, so it differs only if they do not; the full record
            // the caller then writes lands after the increment and wins
            // on replay.
            let unchanged = sh
                .cache
                .get(key)
                .is_some_and(|slot| Arc::ptr_eq(&slot.archive, &prior));
            let Some(e) = sh.index.get_mut(key).filter(|_| unchanged) else {
                return Ok(false);
            };
            e.chain.push(Part {
                loc: Loc::Wal,
                off,
                len: flen,
            });
            let (old_emit, old_revisions) = (e.emit_len, e.revisions);
            e.emit_len = emit_len;
            e.revisions = meta.id.0;
            sh.bytes = sh.bytes - old_emit as u64 + emit_len as u64;
            sh.revisions = sh.revisions - old_revisions as u64 + meta.id.0 as u64;
            Self::cache_insert(&self.opts, &mut sh, key, Arc::new(archive.clone()));
        }
        aide_obs::counter("store.append", 1);
        aide_obs::counter("store.append.increment", 1);
        aide_obs::counter("store.append.bytes", flen as u64);
        Ok(true)
    }

    /// Stores `archive` as a full record, starting a new chain for `key`.
    fn store_full(&self, si: usize, key: &str, archive: &Archive) -> Result<(), RepoError> {
        let emitted = emit(archive);
        let revisions = archive.len() as u32;
        let buf = frame::encode(
            key,
            &Record::Store {
                revisions,
                text: &emitted,
            },
        );
        let flen = buf.len() as u32;
        {
            let permit = self.wal.begin_commit();
            let off = self.wal.commit(&permit, &buf)?;
            let (_held, mut sh) = self.lock_shard(si);
            let mut prior_seg = sh.wal_tombstones.remove(key);
            if let Some(old) = sh.index.remove(key) {
                sh.bytes -= old.emit_len as u64;
                sh.revisions -= old.revisions as u64;
                sh.live_seg_bytes -= old.seg_bytes();
                prior_seg |= old.touches_segments();
            }
            sh.bytes += emitted.len() as u64;
            sh.revisions += revisions as u64;
            let part = Part {
                loc: Loc::Wal,
                off,
                len: flen,
            };
            sh.index.insert(
                key.to_string(),
                Entry::new(part, Some((revisions, emitted.len() as u32)), prior_seg),
            );
            Self::cache_insert(&self.opts, &mut sh, key, Arc::new(archive.clone()));
        }
        aide_obs::counter("store.append", 1);
        aide_obs::counter("store.append.bytes", flen as u64);
        Ok(())
    }
}

impl Repository for DiskRepository {
    fn load(&self, key: &str) -> Result<Option<Arc<Archive>>, RepoError> {
        let si = shard_of(key);
        let mut last_fail: Option<ReadFail> = None;
        for _attempt in 0..4 {
            let (ver, chain) = {
                let (_held, mut sh) = self.lock_shard(si);
                sh.cache_tick += 1;
                let tick = sh.cache_tick;
                if let Some(slot) = sh.cache.get_mut(key) {
                    slot.tick = tick;
                    return Ok(Some(slot.archive.clone()));
                }
                match sh.index.get(key) {
                    None => return Ok(None),
                    Some(e) => (sh.version, e.chain.clone()),
                }
            };
            match self.read_chain(si, &chain, key) {
                Ok(archive) => {
                    let handle = Arc::new(archive);
                    let (_held, mut sh) = self.lock_shard(si);
                    // Cache only the chain the index still holds: a store
                    // that landed during the read has moved its tail.
                    let current = sh.index.get(key).and_then(Entry::tail);
                    if sh.version == ver && current == chain.last().copied() {
                        Self::cache_insert(&self.opts, &mut sh, key, handle.clone());
                    }
                    return Ok(Some(handle));
                }
                Err(fail) => {
                    // A checkpoint or compaction may have moved the
                    // record mid-read; retry against the fresh location.
                    let moved = {
                        let (_held, sh) = self.lock_shard(si);
                        sh.version != ver
                    };
                    if moved {
                        last_fail = Some(fail);
                        continue;
                    }
                    return match fail {
                        ReadFail::Vfs(e) => Err(RepoError::Storage(e)),
                        ReadFail::Corrupt(detail) => {
                            aide_obs::counter("store.load.corrupt", 1);
                            Err(RepoError::corrupt(key, detail))
                        }
                    };
                }
            }
        }
        let detail = match last_fail {
            Some(ReadFail::Vfs(e)) => format!("record kept moving; last error: {e}"),
            Some(ReadFail::Corrupt(d)) => format!("record kept moving; last error: {d}"),
            None => "record kept moving".to_string(),
        };
        Err(RepoError::corrupt(key, detail))
    }

    fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError> {
        let si = shard_of(key);
        if !self.store_increment(si, key, archive)? {
            self.store_full(si, key, archive)?;
        }
        self.after_write(si)
    }

    fn remove(&self, key: &str) -> Result<bool, RepoError> {
        let si = shard_of(key);
        {
            let (_held, sh) = self.lock_shard(si);
            if !sh.index.contains_key(key) {
                return Ok(false);
            }
        }
        let buf = frame::encode(key, &Record::Remove);
        {
            let permit = self.wal.begin_commit();
            self.wal.commit(&permit, &buf)?;
            let (_held, mut sh) = self.lock_shard(si);
            if let Some(old) = sh.index.remove(key) {
                sh.bytes -= old.emit_len as u64;
                sh.revisions -= old.revisions as u64;
                sh.live_seg_bytes -= old.seg_bytes();
                if old.touches_segments() {
                    sh.wal_tombstones.insert(key.to_string());
                }
            }
            sh.cache.remove(key);
        }
        aide_obs::counter("store.remove", 1);
        self.after_write(si)?;
        Ok(true)
    }

    fn keys(&self) -> Result<Vec<String>, RepoError> {
        let mut all: Vec<String> = Vec::new();
        for si in 0..STORE_SHARDS {
            let (_held, sh) = self.lock_shard(si);
            all.extend(sh.index.keys().cloned());
        }
        all.sort();
        Ok(all)
    }

    fn stats(&self) -> Result<StorageStats, RepoError> {
        let mut s = StorageStats::default();
        for si in 0..STORE_SHARDS {
            let (_held, sh) = self.lock_shard(si);
            s.archives += sh.index.len();
            s.revisions += sh.revisions as usize;
            s.bytes += sh.bytes as usize;
        }
        Ok(s)
    }

    fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError> {
        let mut v: Vec<(String, usize)> = Vec::new();
        for si in 0..STORE_SHARDS {
            let (_held, sh) = self.lock_shard(si);
            v.extend(
                sh.index
                    .iter()
                    .map(|(k, e)| (k.clone(), e.emit_len as usize)),
            );
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(v)
    }
}

impl std::fmt::Debug for DiskRepository {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskRepository")
            .field("root", &self.root)
            .field("wal_len", &self.wal.len())
            .finish()
    }
}

/// Owns the background compaction thread; dropping it shuts the thread
/// down (signaled via condvar — no wall-clock polling, so simulations
/// stay deterministic in their observables).
pub struct CompactorHandle {
    repo: Arc<DiskRepository>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Spawns the background maintenance thread for `repo`: write paths
/// signal it instead of checkpointing/compacting inline.
pub fn spawn_compactor(repo: &Arc<DiskRepository>) -> CompactorHandle {
    {
        let mut m = repo.maint.lock();
        m.attached = true;
        m.shutdown = false;
    }
    let r = Arc::clone(repo);
    let thread = std::thread::spawn(move || loop {
        {
            let guard = r.maint.lock();
            // aide-lint: allow(blocking-while-locked): the condvar wait
            // atomically releases the coordination mutex it parks under
            let mut guard = r.maint_cv.wait_while(guard, |m| !m.pending && !m.shutdown);
            if guard.shutdown {
                break;
            }
            guard.pending = false;
        }
        if r.maintenance().is_err() {
            aide_obs::counter("store.maintenance.errors", 1);
        }
    });
    CompactorHandle {
        repo: Arc::clone(repo),
        thread: Some(thread),
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        {
            let mut m = self.repo.maint.lock();
            m.shutdown = true;
            m.attached = false;
        }
        self.maint_notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl CompactorHandle {
    fn maint_notify(&self) {
        self.repo.maint_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::vfs::MemVfs;

    /// Offset of an append frame's revision count for the key `"k"`.
    const HEADER_LEN_FOR_TEST: usize = frame::HEADER_LEN + 1;

    fn tiny_opts() -> StoreOptions {
        StoreOptions {
            checkpoint_wal_bytes: 512,
            compact_min_dead_bytes: 256,
            max_segments: 3,
            cache_entries: 4,
        }
    }

    fn archive(text: &str) -> Archive {
        Archive::create("desc", text, "me", "init", Timestamp(100))
    }

    fn open_mem(vfs: &Arc<MemVfs>) -> DiskRepository {
        DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", tiny_opts()).unwrap()
    }

    #[test]
    fn store_load_remove_roundtrip() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        assert!(r.load("http://x/").unwrap().is_none());
        r.store("http://x/", &archive("body\n")).unwrap();
        assert_eq!(r.load("http://x/").unwrap().unwrap().head_text(), "body\n");
        assert!(r.remove("http://x/").unwrap());
        assert!(!r.remove("http://x/").unwrap());
        assert!(r.load("http://x/").unwrap().is_none());
    }

    #[test]
    fn reopen_recovers_everything() {
        let vfs = MemVfs::shared();
        {
            let r = open_mem(&vfs);
            for i in 0..30 {
                let mut a = archive(&format!("page {i}\nbody line\n"));
                a.checkin(&format!("page {i}\nedited\n"), "me", "edit", Timestamp(200))
                    .unwrap();
                r.store(&format!("http://h{}/p{i}", i % 5), &a).unwrap();
            }
            r.remove("http://h0/p0").unwrap();
        }
        let r2 = open_mem(&vfs);
        let stats = r2.stats().unwrap();
        assert_eq!(stats.archives, 29);
        assert_eq!(stats.revisions, 58);
        assert!(r2.load("http://h0/p0").unwrap().is_none());
        let a = r2.load("http://h1/p1").unwrap().unwrap();
        assert_eq!(a.head_text(), "page 1\nedited\n");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn checkpoint_moves_wal_to_segments_and_preserves_reads() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        for i in 0..10 {
            r.store(&format!("k{i}"), &archive(&format!("text {i}\n")))
                .unwrap();
        }
        // Tiny thresholds: the WAL has certainly been checkpointed at
        // least once along the way.
        assert!(r.segment_count() > 0);
        for i in 0..10 {
            let a = r.load(&format!("k{i}")).unwrap().unwrap();
            assert_eq!(a.head_text(), format!("text {i}\n"));
        }
        // Force one more and verify the WAL empties.
        r.checkpoint().unwrap();
        assert_eq!(r.wal_len(), 0);
        assert_eq!(r.stats().unwrap().archives, 10);
    }

    #[test]
    fn compaction_reclaims_dead_bytes_and_keeps_state() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        // Overwrite the same keys repeatedly: most segment bytes die.
        for round in 0..12 {
            for i in 0..4 {
                r.store(
                    &format!("k{i}"),
                    &archive(&format!("round {round} body {i}\npadding padding\n")),
                )
                .unwrap();
            }
        }
        r.checkpoint().unwrap();
        for si in 0..STORE_SHARDS {
            r.compact_shard(si).unwrap();
        }
        // After compaction every shard holds at most one segment.
        assert!(r.segment_count() <= STORE_SHARDS);
        for i in 0..4 {
            let a = r.load(&format!("k{i}")).unwrap().unwrap();
            assert_eq!(
                a.head_text(),
                format!("round 11 body {i}\npadding padding\n")
            );
        }
        // And a reopen agrees.
        let r2 = open_mem(&vfs);
        assert_eq!(r2.stats().unwrap(), r.stats().unwrap());
    }

    #[test]
    fn removed_keys_stay_removed_across_checkpoint_compact_reopen() {
        let vfs = MemVfs::shared();
        let r = open_mem(&vfs);
        r.store("victim", &archive("doomed\n")).unwrap();
        r.checkpoint().unwrap(); // record now in a segment
        r.remove("victim").unwrap(); // tombstone pending in WAL
        r.checkpoint().unwrap(); // tombstone now in a segment
        let r2 = open_mem(&vfs);
        assert!(r2.load("victim").unwrap().is_none(), "tombstone replayed");
        for si in 0..STORE_SHARDS {
            r2.compact_shard(si).unwrap();
        }
        let r3 = open_mem(&vfs);
        assert!(
            r3.load("victim").unwrap().is_none(),
            "compaction kept removal"
        );
        assert_eq!(r3.stats().unwrap().archives, 0);
    }

    #[test]
    fn stats_match_mem_repository_accounting() {
        use aide_rcs::repo::MemRepository;
        let vfs = MemVfs::shared();
        let disk = open_mem(&vfs);
        let mem = MemRepository::new();
        for i in 0..12 {
            let mut a = archive(&format!("content {i}\nwith lines\n"));
            if i % 2 == 0 {
                a.checkin(
                    &format!("content {i}\nrevised\n"),
                    "me",
                    "r",
                    Timestamp(300),
                )
                .unwrap();
            }
            disk.store(&format!("http://h/p{i}"), &a).unwrap();
            mem.store(&format!("http://h/p{i}"), &a).unwrap();
        }
        disk.remove("http://h/p3").unwrap();
        mem.remove("http://h/p3").unwrap();
        assert_eq!(disk.stats().unwrap(), mem.stats().unwrap());
        assert_eq!(disk.sizes().unwrap(), mem.sizes().unwrap());
        assert_eq!(disk.keys().unwrap(), mem.keys().unwrap());
    }

    #[test]
    fn background_compactor_keeps_up() {
        let vfs = MemVfs::shared();
        let r = Arc::new(open_mem(&vfs));
        let handle = spawn_compactor(&r);
        for round in 0..20 {
            for i in 0..6 {
                r.store(
                    &format!("k{i}"),
                    &archive(&format!("r{round} i{i}\nbody\n")),
                )
                .unwrap();
            }
        }
        drop(handle); // joins the thread; all signaled work done or dropped
                      // Whatever maintenance ran, the data is intact.
        for i in 0..6 {
            assert_eq!(
                r.load(&format!("k{i}")).unwrap().unwrap().head_text(),
                format!("r19 i{i}\nbody\n")
            );
        }
        let r2 = open_mem(&vfs);
        assert_eq!(r2.stats().unwrap(), r.stats().unwrap());
    }

    /// Loads `key`, checks in `text` and stores it — the Remember path.
    fn checkin(r: &DiskRepository, key: &str, text: &str, date: u64) -> Archive {
        let mut a = (*r.load(key).unwrap().unwrap()).clone();
        a.checkin(text, "me", "edit", Timestamp(date)).unwrap();
        r.store(key, &a).unwrap();
        a
    }

    fn page(rev: u64) -> String {
        let body: String = (0..12)
            .map(|i| format!("stable line {i} of the page\n"))
            .collect();
        format!("{body}revision {rev} of the page\n")
    }

    fn roomy_opts() -> StoreOptions {
        StoreOptions {
            checkpoint_wal_bytes: 1 << 20,
            ..tiny_opts()
        }
    }

    #[test]
    fn checkins_append_increments_that_reload_identically() {
        use aide_rcs::repo::MemRepository;
        let vfs = MemVfs::shared();
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        let mem = MemRepository::new();
        let mut a = Archive::create("d", &page(1), "me", "init", Timestamp(100));
        for rev in 2..=8 {
            a.checkin(&page(rev), "me", "edit", Timestamp(100 + rev))
                .unwrap();
        }
        r.store("k", &a).unwrap();
        mem.store("k", &a).unwrap();
        assert_eq!(r.chain_locations("k"), vec![None]);
        for rev in 9..=11 {
            a = checkin(&r, "k", &page(rev), 100 + rev);
            mem.store("k", &a).unwrap();
        }
        assert_eq!(r.chain_locations("k"), vec![None; 4], "base + 3 increments");
        assert_eq!(r.stats().unwrap(), mem.stats().unwrap());
        assert_eq!(r.sizes().unwrap(), mem.sizes().unwrap());
        drop(r);
        let r2 = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        assert_eq!(r2.chain_locations("k").len(), 4);
        assert_eq!(emit(&r2.load("k").unwrap().unwrap()), emit(&a));
        assert_eq!(r2.stats().unwrap(), mem.stats().unwrap());
    }

    #[test]
    fn chains_fold_once_increments_outweigh_their_base() {
        let vfs = MemVfs::shared();
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        r.store(
            "k",
            &Archive::create("d", &page(1), "me", "init", Timestamp(100)),
        )
        .unwrap();
        let mut longest = 0;
        let mut folds = 0;
        for rev in 2..=40 {
            let before = r.chain_locations("k").len();
            checkin(&r, "k", &page(rev), 100 + rev);
            let after = r.chain_locations("k").len();
            longest = longest.max(after);
            if after == 1 {
                assert!(before > 1, "a fold follows increments");
                folds += 1;
            }
        }
        // Each increment carries the whole head, so a one-revision base
        // folds at once while a deep one carries several increments.
        assert!(folds >= 3, "folds: {folds}");
        assert!(longest >= 3, "longest chain: {longest}");
        let r2 = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        assert_eq!(r2.load("k").unwrap().unwrap().len(), 40);
    }

    /// Readers thrash a one-entry cache while a writer checks in: a load
    /// that read a chain before a store landed must not cache the old
    /// archive, or the writer's next increment would extend a stale
    /// prior and the reopened store would disagree with what was stored.
    #[test]
    fn racing_loads_never_cache_a_superseded_chain() {
        let vfs = MemVfs::shared();
        let opts = StoreOptions {
            cache_entries: 1,
            ..roomy_opts()
        };
        let r = Arc::new(DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", opts).unwrap());
        let si = shard_of("k");
        let other = (0..)
            .map(|i| format!("o{i}"))
            .find(|o| shard_of(o) == si)
            .unwrap();
        r.store(
            "k",
            &Archive::create("d", &page(1), "me", "init", Timestamp(100)),
        )
        .unwrap();
        r.store(&other, &archive("other\n")).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let last = std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        r.load("k").unwrap();
                        r.load(&other).unwrap();
                    }
                });
            }
            let mut last = None;
            for rev in 2..=300 {
                last = Some(checkin(&r, "k", &page(rev), 100 + rev));
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            last.unwrap()
        });
        assert_eq!(*r.load("k").unwrap().unwrap(), last);
        let r2 = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", opts).unwrap();
        assert_eq!(*r2.load("k").unwrap().unwrap(), last);
    }

    #[test]
    fn one_more_revision_with_a_different_history_writes_a_full_record() {
        let vfs = MemVfs::shared();
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        let mut stored = Archive::create("d", &page(1), "me", "init", Timestamp(100));
        stored
            .checkin(&page(2), "me", "edit", Timestamp(101))
            .unwrap();
        r.store("k", &stored).unwrap();
        assert!(r.load("k").unwrap().is_some(), "prior is cached");
        // revisions + 1, but revision 1.2 differs from the stored one.
        let mut other = Archive::create("d", &page(1), "me", "init", Timestamp(100));
        other
            .checkin("a different 1.2\n", "me", "edit", Timestamp(101))
            .unwrap();
        other
            .checkin(&page(3), "me", "edit", Timestamp(102))
            .unwrap();
        assert_eq!(other.len(), stored.len() + 1);
        r.store("k", &other).unwrap();
        assert_eq!(
            r.chain_locations("k"),
            vec![None],
            "a full record, not an increment"
        );
        drop(r);
        let r2 = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        assert_eq!(*r2.load("k").unwrap().unwrap(), other);
        assert_eq!(emit(&r2.load("k").unwrap().unwrap()), emit(&other));
    }

    #[test]
    fn compaction_copies_a_segment_base_under_wal_increments() {
        let vfs = MemVfs::shared();
        let opts = StoreOptions {
            cache_entries: 1,
            ..roomy_opts()
        };
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", opts).unwrap();
        let mut a = Archive::create("d", &page(1), "me", "init", Timestamp(100));
        for rev in 2..=6 {
            a.checkin(&page(rev), "me", "edit", Timestamp(100 + rev))
                .unwrap();
        }
        r.store("k", &a).unwrap();
        r.checkpoint().unwrap();
        a = checkin(&r, "k", &page(7), 107);
        let shape = r.chain_locations("k");
        assert!(shape[0].is_some() && shape[1].is_none(), "{shape:?}");
        let si = shard_of("k");
        r.compact_shard(si).unwrap();
        let shape = r.chain_locations("k");
        assert!(shape[0].is_some() && shape[1].is_none(), "{shape:?}");
        // Push "k" out of the one-entry cache so the load reads the chain.
        let other = (0..)
            .map(|i| format!("o{i}"))
            .find(|o| shard_of(o) == si)
            .unwrap();
        r.store(&other, &archive("other\n")).unwrap();
        assert_eq!(*r.load("k").unwrap().unwrap(), a);
        drop(r);
        let r2 = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", opts).unwrap();
        assert_eq!(*r2.load("k").unwrap().unwrap(), a);
    }

    /// Replays `frames` (appended raw to the WAL) over a store holding
    /// one deep archive, and reports what a reopened store loads.
    fn reopen_with_wal_frames(
        frames: &[Vec<u8>],
    ) -> (Archive, Result<Option<Arc<Archive>>, RepoError>) {
        let vfs = MemVfs::shared();
        let mut a = Archive::create("d", &page(1), "me", "init", Timestamp(100));
        for rev in 2..=4 {
            a.checkin(&page(rev), "me", "edit", Timestamp(100 + rev))
                .unwrap();
        }
        {
            let r =
                DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
            r.store("k", &a).unwrap();
        }
        for f in frames {
            vfs.append("store/wal", f).unwrap();
        }
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", roomy_opts()).unwrap();
        (a, r.load("k"))
    }

    fn increment_frame(a: &Archive, revisions: u32) -> Vec<u8> {
        let mut next = a.clone();
        next.checkin(&page(revisions as u64), "me", "edit", Timestamp(200))
            .unwrap();
        let (meta, reverse) = next.checkin_since(a).unwrap();
        frame::encode(
            "k",
            &Record::Append(Increment {
                revisions,
                emit_len: emitted_len(&next) as u32,
                date: meta.date.0,
                author: &meta.author,
                log: &meta.log,
                delta: &reverse.to_text(),
                head: next.head_text(),
            }),
        )
    }

    #[test]
    fn replay_applies_the_next_increment_skips_old_ones_and_flags_gaps() {
        let (a, _) = reopen_with_wal_frames(&[]);
        let inc5 = increment_frame(&a, 5);
        // The next revision applies; a duplicate of it is skipped.
        let (_, loaded) = reopen_with_wal_frames(&[inc5.clone(), inc5.clone()]);
        let loaded = loaded.unwrap().unwrap();
        assert_eq!(loaded.len(), 5);
        assert_eq!(loaded.head_text(), page(5));
        // Revision 6 on a key at 4: a gap, reported at load.
        let mut gap = increment_frame(&a, 5);
        let n = HEADER_LEN_FOR_TEST;
        gap[n..n + 4].copy_from_slice(&6u32.to_le_bytes());
        let crc_at = gap.len() - 8;
        let crc = fnv1a64(&gap[1..crc_at]);
        gap[crc_at..].copy_from_slice(&crc.to_le_bytes());
        let (_, loaded) = reopen_with_wal_frames(&[gap]);
        assert!(
            matches!(loaded, Err(RepoError::Corrupt { .. })),
            "{loaded:?}"
        );
    }

    #[test]
    fn corrupt_segment_byte_surfaces_as_corrupt_error() {
        let vfs = MemVfs::shared();
        // Cache disabled so the load below actually reads the damaged
        // bytes instead of serving the archive stored moments ago.
        let opts = StoreOptions {
            cache_entries: 0,
            ..tiny_opts()
        };
        let r = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "store", opts).unwrap();
        r.store("k", &archive("body\n")).unwrap();
        r.checkpoint().unwrap();
        // Flip one byte inside the (only) segment record's payload.
        let mut seg_file = None;
        for si in 0..STORE_SHARDS {
            for name in vfs.list(&format!("store/shard_{si:02}")).unwrap() {
                seg_file = Some(format!("store/shard_{si:02}/{name}"));
            }
        }
        let path = seg_file.unwrap();
        let mut bytes = vfs.read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        vfs.remove(&path).unwrap();
        vfs.append(&path, &bytes).unwrap();
        match r.load("k") {
            Err(RepoError::Corrupt { key, .. }) => assert_eq!(key, "k"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // The store itself keeps serving other keys.
        r.store("other", &archive("fine\n")).unwrap();
        assert!(r.load("other").unwrap().is_some());
    }
}
