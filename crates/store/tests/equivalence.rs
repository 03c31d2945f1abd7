//! Backend equivalence: `DiskRepository` must be observationally
//! identical to `MemRepository`.
//!
//! The property: apply one random operation sequence — stores,
//! check-ins (load, check one revision in, store: the disk backend
//! appends these as increments to the key's record chain), removes,
//! explicit checkpoints and compactions — to both backends
//! (the disk one over `MemVfs` with thresholds shrunk so checkpoints
//! and compactions actually fire mid-sequence), then compare every
//! observable the `Repository` trait exposes: `keys`, `stats`, `sizes`,
//! and the emitted `,v` text of every loaded archive. Afterwards,
//! reopen the disk backend from its files alone (recovery path) and
//! require the same observables again.

use aide_obs::MetricsRegistry;
use aide_rcs::archive::Archive;
use aide_rcs::format::emit;
use aide_rcs::repo::{MemRepository, Repository};
use aide_store::{DiskRepository, StoreOptions, STORE_SHARDS};
use aide_util::time::Timestamp;
use aide_util::vfs::{MemVfs, Vfs};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn tiny_opts() -> StoreOptions {
    StoreOptions {
        checkpoint_wal_bytes: 600,
        compact_min_dead_bytes: 300,
        max_segments: 2,
        cache_entries: 3,
    }
}

fn key_for(k: u8) -> String {
    format!("http://host{}/page/{}", k % 3, k)
}

/// A deterministic archive whose shape varies with `seed`: one to three
/// revisions, content a function of `(k, seed)`.
fn archive_for(k: u8, seed: u8) -> Archive {
    let mut a = Archive::create(
        "tracked page",
        &format!("page {k}\nseed {seed}\nbody line one\n"),
        "tracker",
        "initial fetch",
        Timestamp(1_000 + seed as u64),
    );
    for r in 0..(seed % 3) {
        a.checkin(
            &format!("page {k}\nseed {seed}\nrevision {r}\nbody line one\n"),
            "tracker",
            "changed",
            Timestamp(2_000 + seed as u64 * 10 + r as u64),
        )
        .unwrap();
    }
    a
}

/// The full observable fingerprint of a repository: sorted keys, stats
/// debug text, sizes, and each key's emitted `,v` text.
type Fingerprint = (
    Vec<String>,
    String,
    Vec<(String, usize)>,
    BTreeMap<String, String>,
);

fn observe(repo: &dyn Repository) -> Fingerprint {
    let keys = repo.keys().unwrap();
    let stats = format!("{:?}", repo.stats().unwrap());
    let sizes = repo.sizes().unwrap();
    let mut texts = BTreeMap::new();
    for k in &keys {
        let a = repo.load(k).unwrap().expect("indexed key must load");
        texts.insert(k.clone(), emit(&a));
    }
    (keys, stats, sizes, texts)
}

/// Applies one op sequence to both backends; `kind` picks the op:
/// 0–2 store, 3 remove, 4 checkpoint, 5 compact a shard, 6–8 check-in.
fn run_ops(
    disk: &DiskRepository,
    mem: &MemRepository,
    ops: Vec<(u8, u8, u8)>,
) -> Result<(), TestCaseError> {
    for (step, (kind, k, seed)) in ops.into_iter().enumerate() {
        match kind {
            // Weight writes heaviest: they drive checkpoints.
            0..=2 => {
                let a = archive_for(k, seed);
                disk.store(&key_for(k), &a).unwrap();
                mem.store(&key_for(k), &a).unwrap();
            }
            3 => {
                let d = disk.remove(&key_for(k)).unwrap();
                let m = mem.remove(&key_for(k)).unwrap();
                prop_assert_eq!(d, m, "remove acknowledgements diverged");
            }
            4 => disk.checkpoint().unwrap(),
            5 => disk.compact_shard(seed as usize % STORE_SHARDS).unwrap(),
            _ => {
                let d = disk.load(&key_for(k)).unwrap();
                let m = mem.load(&key_for(k)).unwrap();
                prop_assert_eq!(&d, &m, "loads diverged before a check-in");
                if let Some(prior) = d {
                    let mut a = (*prior).clone();
                    a.checkin(
                        &format!("page {k}\ncheck-in {step} seed {seed}\nbody line one\n"),
                        "tracker",
                        "changed",
                        Timestamp(10_000 + step as u64),
                    )
                    .unwrap();
                    disk.store(&key_for(k), &a).unwrap();
                    mem.store(&key_for(k), &a).unwrap();
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn disk_and_mem_backends_are_observationally_identical(
        ops in proptest::collection::vec((0u8..9, 0u8..8, 0u8..16), 1..48)
    ) {
        let vfs = MemVfs::shared();
        let disk = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "repo", tiny_opts()).unwrap();
        let mem = MemRepository::new();
        run_ops(&disk, &mem, ops)?;

        prop_assert_eq!(observe(&disk), observe(&mem), "live observables diverged");

        // Recovery equivalence: everything must survive a reopen from
        // the files alone.
        drop(disk);
        let reopened =
            DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "repo", tiny_opts()).unwrap();
        prop_assert_eq!(observe(&reopened), observe(&mem), "recovered observables diverged");
    }
}

/// The check-ins above really take the increment path: a fixed run of
/// check-ins across checkpoints and compactions appends increments
/// (`store.append.increment`) and still matches `MemRepository`.
#[test]
fn checkins_append_increments() {
    let registry = Arc::new(MetricsRegistry::new());
    let previous = aide_obs::install(registry.clone());
    let vfs = MemVfs::shared();
    let disk = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "repo", tiny_opts()).unwrap();
    let mem = MemRepository::new();
    let mut ops = vec![(0, 1, 5), (0, 2, 4), (0, 3, 2)];
    for round in 0..6u8 {
        ops.extend([(6, 1, round), (7, 2, round), (8, 3, round)]);
        ops.push(if round % 2 == 0 {
            (4, 0, 0)
        } else {
            (5, 0, round)
        });
    }
    run_ops(&disk, &mem, ops).unwrap();
    match previous {
        Some(p) => drop(aide_obs::install(p)),
        None => drop(aide_obs::uninstall()),
    }
    let increments = registry
        .snapshot()
        .counters
        .get("store.append.increment")
        .copied();
    assert!(increments.unwrap_or(0) >= 6, "increments: {increments:?}");
    assert_eq!(observe(&disk), observe(&mem));
    drop(disk);
    let reopened = DiskRepository::open(vfs.clone() as Arc<dyn Vfs>, "repo", tiny_opts()).unwrap();
    assert_eq!(observe(&reopened), observe(&mem));
}
