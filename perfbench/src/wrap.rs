//! Delegating wrappers that time calls into three layers.
//!
//! Each wrapper forwards every call unchanged and, when tracing is on,
//! records a span around it. None of them changes what the wrapped
//! layer does, so the untraced runs measure the program as shipped.

use crate::trace;
use aide_rcs::archive::Archive;
use aide_rcs::repo::{RepoError, Repository, StorageStats};
use aide_serve::{ConnError, Connection};
use aide_store::{DiskRepository, RealVfs};
use aide_util::vfs::{Vfs, VfsResult};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// `aide-serve`'s [`Connection`] over a real socket.
///
/// Traced, one request is the interval from the read that delivers its
/// first bytes to the end of the response write (`serve.process`), with
/// the write itself as a child (`serve.write`). The op id comes from
/// the client's slot for this connection in [`OpSlots`], so server-side
/// spans join the client's op.
pub struct TracedConn {
    stream: TcpStream,
    peer_port: u16,
    slots: Arc<OpSlots>,
    request: Option<trace::Open>,
}

/// Each client connection's current op id, keyed by the client's local
/// port (the server's peer port). Clients register before sending.
pub type OpSlots = Mutex<HashMap<u16, Arc<AtomicU64>>>;

impl TracedConn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream, slots: Arc<OpSlots>) -> TracedConn {
        let peer_port = stream.peer_addr().map_or(0, |a| a.port());
        TracedConn {
            stream,
            peer_port,
            slots,
            request: None,
        }
    }
}

impl Connection for TracedConn {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize, ConnError> {
        let n = self.stream.read(buf).map_err(|_| ConnError::Reset)?;
        if n > 0 && self.request.is_none() && trace::enabled() {
            let op = self
                .slots
                .lock()
                .ok()
                .and_then(|m| m.get(&self.peer_port).map(|s| s.load(Ordering::Acquire)));
            trace::set_op(op.unwrap_or(0));
            self.request = trace::open("serve.process");
        }
        Ok(n)
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), ConnError> {
        let out = trace::scoped(
            "serve.write",
            |_| bytes.len() as u64,
            || self.stream.write_all(bytes),
        );
        if let Some(mut span) = self.request.take() {
            span.bytes = bytes.len() as u64;
            trace::close(span);
            trace::set_op(0);
        }
        out.map_err(|_| ConnError::Reset)
    }
}

/// A [`Repository`] over a shared [`DiskRepository`], timing loads
/// (`store.load`) and stores (`store.store`).
#[derive(Clone)]
pub struct TracedRepo(pub Arc<DiskRepository>);

impl Repository for TracedRepo {
    fn load(&self, key: &str) -> Result<Option<Arc<Archive>>, RepoError> {
        trace::scoped("store.load", |_| 0, || self.0.load(key))
    }

    fn store(&self, key: &str, archive: &Archive) -> Result<(), RepoError> {
        trace::scoped("store.store", |_| 0, || self.0.store(key, archive))
    }

    fn remove(&self, key: &str) -> Result<bool, RepoError> {
        self.0.remove(key)
    }

    fn keys(&self) -> Result<Vec<String>, RepoError> {
        self.0.keys()
    }

    fn stats(&self) -> Result<StorageStats, RepoError> {
        self.0.stats()
    }

    fn sizes(&self) -> Result<Vec<(String, usize)>, RepoError> {
        self.0.sizes()
    }
}

/// A [`Vfs`] over [`RealVfs`]. Appends and syncs are split by file:
/// the write-ahead log (`wal`) versus segment files.
#[derive(Debug)]
pub struct TracedVfs(pub RealVfs);

fn is_wal(path: &str) -> bool {
    path.rsplit('/').next() == Some("wal")
}

impl Vfs for TracedVfs {
    fn read(&self, path: &str) -> VfsResult<Vec<u8>> {
        trace::scoped(
            "vfs.read",
            |r: &VfsResult<Vec<u8>>| r.as_ref().map_or(0, |b| b.len() as u64),
            || self.0.read(path),
        )
    }

    fn read_range(&self, path: &str, offset: u64, len: usize) -> VfsResult<Vec<u8>> {
        trace::scoped(
            "vfs.read",
            |r: &VfsResult<Vec<u8>>| r.as_ref().map_or(0, |b| b.len() as u64),
            || self.0.read_range(path, offset, len),
        )
    }

    fn append(&self, path: &str, data: &[u8]) -> VfsResult<()> {
        let name = if is_wal(path) {
            "vfs.append.wal"
        } else {
            "vfs.append.seg"
        };
        trace::scoped(name, |_| data.len() as u64, || self.0.append(path, data))
    }

    fn truncate(&self, path: &str, len: u64) -> VfsResult<()> {
        self.0.truncate(path, len)
    }

    fn sync(&self, path: &str) -> VfsResult<()> {
        let name = if is_wal(path) {
            "vfs.sync.wal"
        } else {
            "vfs.sync.seg"
        };
        trace::scoped(name, |_| 0, || self.0.sync(path))
    }

    fn remove(&self, path: &str) -> VfsResult<bool> {
        self.0.remove(path)
    }

    fn list(&self, dir: &str) -> VfsResult<Vec<String>> {
        self.0.list(dir)
    }

    fn create_dir_all(&self, dir: &str) -> VfsResult<()> {
        self.0.create_dir_all(dir)
    }

    fn len(&self, path: &str) -> VfsResult<Option<u64>> {
        self.0.len(path)
    }
}

/// Opens (creating or recovering) a store in `dir` on the real
/// filesystem behind the traced VFS.
pub fn open_store(dir: &std::path::Path) -> Result<Arc<DiskRepository>, RepoError> {
    let vfs: Arc<dyn Vfs> = Arc::new(TracedVfs(RealVfs::new(dir)));
    DiskRepository::open(vfs, "", aide_store::StoreOptions::default()).map(Arc::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_is_told_apart_from_segments() {
        assert!(is_wal("wal"));
        assert!(is_wal("root/wal"));
        assert!(!is_wal("shard_03/seg_00000001"));
    }
}
