//! Crash-recovery suite: kill the store at **every** durability point.
//!
//! A fixed workload runs over [`FaultVfs`]; an honest pass counts the
//! durability ops (appends, truncates, removes, fsyncs) it performs —
//! WAL commits, checkpoints, compactions, all of it. Then, for every
//! op index `i`, the workload reruns on a fresh filesystem scripted to
//! die at op `i` (once plainly, once with the dying append torn), the
//! "machine" power-cycles via `crash_and_revive`, the store reopens,
//! and the recovered observables must equal the model state after
//! applying either all acknowledged operations or at most one more —
//! the op whose WAL frame became durable before its trigger work died.
//! That is the prefix-consistency invariant of DESIGN.md §4i: no torn
//! record ever surfaces, no acknowledged write is ever lost, no removed
//! key is ever resurrected.
//!
//! `Checkin` ops load a key, check one revision in and store it, so
//! most of them append an increment to the key's record chain rather
//! than a whole archive: kill points land inside increment appends,
//! inside checkpoints that relocate the WAL part of a chain, inside a
//! compaction whose key has its base in a segment and increments in the
//! WAL, on the remove of a chained key, and on its re-creation.
//!
//! Two companion properties run the softer fault models: short reads
//! must be invisible (read loops), and a lying disk (`fsync_loss`) may
//! lose writes but recovery must still produce an internally consistent
//! store that serves every indexed key.
//!
//! Setting `AIDE_STORE_DUMP=<path>` writes one line per kill point
//! (matched model index + state hash); ci.sh runs the suite twice and
//! `cmp`s the dumps to pin recovery determinism.

use aide_obs::MetricsRegistry;
use aide_rcs::archive::Archive;
use aide_rcs::format::emit;
use aide_rcs::repo::{RepoError, Repository};
use aide_store::{DiskRepository, StoreOptions, STORE_SHARDS};
use aide_util::checksum::fnv1a64;
use aide_util::time::Timestamp;
use aide_util::vfs::{FaultScript, FaultVfs, Vfs};
use std::collections::BTreeMap;
use std::sync::Arc;

const SEED: u64 = 0xA1DE_570E;

fn tiny_opts() -> StoreOptions {
    StoreOptions {
        checkpoint_wal_bytes: 500,
        compact_min_dead_bytes: 250,
        max_segments: 2,
        cache_entries: 2,
    }
}

/// One step of the fixed workload.
#[derive(Debug, Clone, Copy)]
enum WorkOp {
    Store(u8, u8),
    /// Load key `k`, check in its next revision, store it.
    Checkin(u8),
    Remove(u8),
    Checkpoint,
    CompactAll,
}

/// The deterministic workload: enough stores to force checkpoints at
/// the tiny thresholds, overwrites to create dead segment bytes,
/// removes (including of segment-resident and chained keys) to exercise
/// tombstones, check-ins that grow record chains across checkpoints and
/// compactions, and explicit maintenance so kill points land inside
/// checkpoint and compaction too.
fn workload() -> Vec<WorkOp> {
    use WorkOp::*;
    vec![
        Store(0, 1),
        Store(1, 2),
        Store(2, 3),
        Store(3, 4),
        Checkpoint,
        Checkin(2), // increment on a segment-resident base
        CompactAll, // base in a segment, increment in the WAL
        Checkin(2),
        Store(0, 5), // overwrite a segment-resident key
        Checkin(0),  // increment on a WAL-resident base
        Store(4, 6),
        Remove(1), // tombstone for a segment-resident key
        Checkin(3),
        Checkin(3),
        Store(5, 7),
        Store(2, 8), // a different history over a chain: full record
        Checkpoint,
        CompactAll,
        Checkin(0),
        Store(6, 9),
        Checkin(0),
        Remove(0),    // remove a chained key
        Store(1, 10), // re-store a removed key
        Checkin(1),   // ...and chain onto the re-created key
        Checkin(1),
        Store(7, 11),
        Checkin(4),
        Checkpoint,
        Store(3, 12),
        Checkin(3),
        Remove(5),
        CompactAll,
        Store(0, 13),
        Checkin(0),
        Checkin(7),
    ]
}

fn key_for(k: u8) -> String {
    format!("http://site{}/doc/{}", k % 2, k)
}

fn archive_for(k: u8, seed: u8) -> Archive {
    let mut a = Archive::create(
        "tracked page",
        &format!("doc {k}\nversion seed {seed}\npadding so frames have some size\n"),
        "w3newer",
        "initial",
        Timestamp(500 + seed as u64),
    );
    if seed.is_multiple_of(2) {
        a.checkin(
            &format!("doc {k}\nversion seed {seed}\nedited body\n"),
            "w3newer",
            "update",
            Timestamp(900 + seed as u64),
        )
        .unwrap();
    }
    a
}

/// The text a `Checkin` of key `k` stores as revision `rev`.
fn checkin_text(k: u8, rev: usize) -> String {
    format!("doc {k}\nrevision {rev}\npadding so frames have some size\n")
}

/// `archive` with its next revision checked in, as op `i` makes it.
fn checked_in(archive: &Archive, k: u8, i: usize) -> Archive {
    let mut next = archive.clone();
    let out = next
        .checkin(
            &checkin_text(k, archive.len() + 1),
            "w3newer",
            "checkin",
            Timestamp(2_000 + i as u64),
        )
        .unwrap();
    assert!(out.is_new(), "every check-in adds a revision");
    next
}

/// Model states: `snap[i]` is the key→`,v` map after the first `i` ops.
fn model_snapshots(ops: &[WorkOp]) -> Vec<BTreeMap<String, String>> {
    let mut snaps = vec![BTreeMap::new()];
    let mut cur: BTreeMap<String, Archive> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            WorkOp::Store(k, seed) => {
                cur.insert(key_for(k), archive_for(k, seed));
            }
            WorkOp::Checkin(k) => {
                let next = checked_in(&cur[&key_for(k)], k, i);
                cur.insert(key_for(k), next);
            }
            WorkOp::Remove(k) => {
                cur.remove(&key_for(k));
            }
            WorkOp::Checkpoint | WorkOp::CompactAll => {}
        }
        snaps.push(cur.iter().map(|(k, a)| (k.clone(), emit(a))).collect());
    }
    snaps
}

/// Applies op `i` of the workload.
fn apply(repo: &DiskRepository, i: usize, op: WorkOp) -> Result<(), RepoError> {
    match op {
        WorkOp::Store(k, seed) => repo.store(&key_for(k), &archive_for(k, seed)),
        WorkOp::Checkin(k) => repo.load(&key_for(k)).and_then(|found| {
            let prior = found.expect("check-ins target stored keys");
            repo.store(&key_for(k), &checked_in(&prior, k, i))
        }),
        WorkOp::Remove(k) => repo.remove(&key_for(k)).map(|_| ()),
        WorkOp::Checkpoint => repo.checkpoint(),
        WorkOp::CompactAll => (0..STORE_SHARDS).try_for_each(|si| repo.compact_shard(si)),
    }
}

/// Applies the workload until the first error, returning how many ops
/// were fully acknowledged.
fn run_until_failure(repo: &DiskRepository, ops: &[WorkOp]) -> usize {
    for (i, op) in ops.iter().enumerate() {
        if apply(repo, i, *op).is_err() {
            return i;
        }
    }
    ops.len()
}

/// Reads the full observable state of a (recovered) repository and
/// checks its internal consistency: counters must match a recomputation
/// from the loaded archives.
fn recovered_state(repo: &DiskRepository) -> BTreeMap<String, String> {
    let keys = repo.keys().unwrap();
    let mut map = BTreeMap::new();
    for k in &keys {
        let a = repo
            .load(k)
            .unwrap()
            .expect("recovered index entry must load");
        map.insert(k.clone(), emit(&a));
    }
    let stats = repo.stats().unwrap();
    assert_eq!(stats.archives, map.len(), "archive count vs index");
    let bytes: usize = map.values().map(|t| t.len()).sum();
    assert_eq!(stats.bytes, bytes, "running byte counter vs emitted text");
    let sizes = repo.sizes().unwrap();
    assert_eq!(sizes.len(), map.len());
    for (k, sz) in &sizes {
        assert_eq!(*sz, map[k].len(), "size entry for {k}");
    }
    map
}

fn state_hash(map: &BTreeMap<String, String>) -> u64 {
    let mut blob = Vec::new();
    for (k, v) in map {
        blob.extend_from_slice(k.as_bytes());
        blob.push(0);
        blob.extend_from_slice(v.as_bytes());
        blob.push(0);
    }
    fnv1a64(&blob)
}

/// Counts the durability ops the full workload performs when nothing
/// fails — the kill-point enumeration space — and checks that the
/// workload reaches the chain shapes the suite is meant to cover.
fn count_durability_ops() -> u64 {
    let vfs = FaultVfs::shared(FaultScript::honest(SEED));
    let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
    let ops = workload();
    let registry = Arc::new(MetricsRegistry::new());
    let previous = aide_obs::install(registry.clone());
    let mut split_before_compaction = false;
    let mut chained_remove = false;
    for (i, op) in ops.iter().enumerate() {
        let chains: Vec<Vec<Option<u32>>> =
            (0..8).map(|k| repo.chain_locations(&key_for(k))).collect();
        match *op {
            WorkOp::CompactAll => {
                split_before_compaction |= chains
                    .iter()
                    .any(|c| c.first().is_some_and(Option::is_some) && c.contains(&None));
            }
            WorkOp::Remove(k) => chained_remove |= chains[k as usize].len() > 1,
            _ => {}
        }
        apply(&repo, i, *op).unwrap();
    }
    match previous {
        Some(p) => drop(aide_obs::install(p)),
        None => drop(aide_obs::uninstall()),
    }
    let increments = registry
        .snapshot()
        .counters
        .get("store.append.increment")
        .copied()
        .unwrap_or(0);
    assert!(increments >= 8, "only {increments} increments appended");
    assert!(split_before_compaction, "no compaction met a split chain");
    assert!(chained_remove, "no remove of a chained key");
    vfs.durability_ops()
}

#[test]
fn recovery_is_prefix_consistent_at_every_kill_point() {
    let ops = workload();
    let snaps = model_snapshots(&ops);
    let total = count_durability_ops();
    assert!(
        total > 40,
        "workload too small to be interesting: {total} ops"
    );

    let mut dump = String::new();
    for torn in [false, true] {
        for kill in 0..total {
            let script = if torn {
                FaultScript::honest(SEED).crash_after(kill).torn()
            } else {
                FaultScript::honest(SEED).crash_after(kill)
            };
            let vfs = FaultVfs::shared(script);
            let acked = {
                let repo =
                    DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
                run_until_failure(&repo, &ops)
            };
            assert!(acked < ops.len(), "kill point {kill} never fired");

            vfs.crash_and_revive();
            let repo =
                DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
            let state = recovered_state(&repo);

            // Prefix consistency: every acknowledged op survived, and at
            // most the single in-flight op may additionally have become
            // durable before its maintenance work died.
            let matched = if state == snaps[acked] {
                acked
            } else if state == snaps[acked + 1] {
                acked + 1
            } else {
                panic!(
                    "kill={kill} torn={torn}: recovered state matches neither \
                     model[{acked}] nor model[{}]\nrecovered: {:?}\nexpected: {:?}",
                    acked + 1,
                    state.keys().collect::<Vec<_>>(),
                    snaps[acked].keys().collect::<Vec<_>>(),
                );
            };
            dump.push_str(&format!(
                "kill={kill} torn={torn} acked={acked} matched={matched} hash={:016x}\n",
                state_hash(&state)
            ));
        }
    }

    if let Ok(path) = std::env::var("AIDE_STORE_DUMP") {
        if !path.is_empty() {
            std::fs::write(&path, &dump).expect("write AIDE_STORE_DUMP");
        }
    }
}

#[test]
fn short_reads_are_invisible_to_loads() {
    let vfs = FaultVfs::shared(FaultScript::honest(SEED ^ 1).short_reads(0.45));
    let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
    let ops = workload();
    assert_eq!(run_until_failure(&repo, &ops), ops.len());
    let snaps = model_snapshots(&ops);
    let state = recovered_state(&repo);
    assert_eq!(&state, snaps.last().unwrap(), "short reads changed results");
    assert!(
        vfs.stats().short_reads > 0,
        "the script never actually injected a short read"
    );
}

#[test]
fn lying_fsync_still_recovers_to_a_consistent_store() {
    let vfs = FaultVfs::shared(FaultScript::honest(SEED ^ 2).fsync_loss(0.5));
    let ops = workload();
    {
        let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
        assert_eq!(run_until_failure(&repo, &ops), ops.len());
    }
    assert!(vfs.stats().lost_syncs > 0, "no sync was ever lost");
    vfs.crash_and_revive();
    // A disk that acknowledges fsyncs it did not perform CAN lose
    // acknowledged writes — no storage engine can prevent that. What
    // recovery must still guarantee: the store opens, every indexed key
    // loads, and the counters agree with the data (recovered_state
    // asserts all of this internally).
    let repo = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "st", tiny_opts()).unwrap();
    let _ = recovered_state(&repo);
}
