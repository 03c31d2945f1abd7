//! The run record (host, toolchain, commit) and the filesystem guard.

use std::path::Path;
use std::process::Command;

/// What every result records about where it was measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Filesystem type of the store directory.
    pub store_fs: String,
}

impl RunRecord {
    /// Gathers the record for a store under `store_dir`.
    pub fn gather(store_dir: &Path) -> RunRecord {
        RunRecord {
            nproc: nproc(),
            git_commit: git_commit(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            store_fs: fs_type(store_dir).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        use crate::stats::json_string;
        format!(
            "{{\"nproc\": {}, \"git_commit\": {}, \"rustc\": {}, \"store_fs\": {}}}",
            self.nproc,
            json_string(&self.git_commit),
            json_string(&self.rustc),
            json_string(&self.store_fs)
        )
    }
}

/// Usable parallelism of this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

/// First line of a command's standard output, when it succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (the longest mount point that prefixes it).
pub fn fs_type(path: &Path) -> Option<String> {
    let canon = std::fs::canonicalize(path).ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mount_fs_type(&info, &canon.to_string_lossy())
}

/// Parses mountinfo text: field 5 is the mount point, the field after
/// the ` - ` separator is the filesystem type.
pub fn mount_fs_type(mountinfo: &str, path: &str) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let (left, right) = line.split_once(" - ")?;
        let mount = left.split(' ').nth(4)?;
        let fstype = right.split(' ').next()?;
        let covers = mount == "/"
            || path == mount
            || (path.starts_with(mount) && path.as_bytes().get(mount.len()) == Some(&b'/'));
        if covers && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// Filesystems on which fsync costs nothing.
pub fn is_memory_fs(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs")
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU ticks of this machine from `/proc/stat`: `(busy,
/// stolen)`. Busy counts user, nice, system, irq and softirq time;
/// stolen counts the time a virtual CPU wanted to run while the
/// hypervisor ran another guest. Both read 0 where there is no
/// `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").unwrap_or_default())
}

/// [`cpu_ticks`] from the text of `/proc/stat`.
pub fn parse_cpu_ticks(stat: &str) -> (u64, u64) {
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| v.get(i).copied().unwrap_or(0);
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Share of the CPU time wanted between readings `a` and `b` of
/// [`cpu_ticks`] that the hypervisor gave to other guests.
pub fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    let busy = b.0.saturating_sub(a.0) as f64;
    let stolen = b.1.saturating_sub(a.1) as f64;
    crate::stats::ratio(stolen, busy + stolen)
}

/// CPU time this process has used, s: user plus system time of all its
/// threads from `/proc/self/stat`. With paravirtual steal accounting
/// the kernel leaves stolen time out of it. 0 where there is no
/// `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    parse_process_cpu_s(&std::fs::read_to_string("/proc/self/stat").unwrap_or_default())
}

/// [`process_cpu_s`] from the text of `/proc/self/stat`: `utime` and
/// `stime` are the 12th and 13th fields after the parenthesised command
/// name, in clock ticks of 1/100 s.
pub fn parse_process_cpu_s(stat: &str) -> f64 {
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let v: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    v.iter().sum::<u64>() as f64 / 100.0
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const INFO: &str = "\
22 1 8:1 / / rw,relatime - ext4 /dev/vda rw
30 22 0:26 / /dev/shm rw - tmpfs tmpfs rw
31 22 0:27 / /work/fast rw - tmpfs tmpfs rw";

    #[test]
    fn longest_mount_wins() {
        assert_eq!(
            mount_fs_type(INFO, "/work/fast/x").as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            mount_fs_type(INFO, "/work/fastest").as_deref(),
            Some("ext4")
        );
        assert_eq!(mount_fs_type(INFO, "/home").as_deref(), Some("ext4"));
        assert!(is_memory_fs("tmpfs"));
        assert!(!is_memory_fs("ext4"));
    }

    #[test]
    fn steal_is_read_from_the_cpu_line() {
        let a = parse_cpu_ticks("cpu  100 5 20 900 3 1 2 30 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n");
        assert_eq!(a, (128, 30));
        let b = parse_cpu_ticks("cpu  190 5 30 950 3 1 2 50 0 0\n");
        assert!((steal_share(a, b) - 20.0 / 120.0).abs() < 1e-12);
        assert_eq!(parse_cpu_ticks(""), (0, 0));
        assert_eq!(steal_share((0, 0), (0, 0)), 0.0);
    }

    #[test]
    fn process_cpu_is_utime_plus_stime() {
        // A command name with spaces and a parenthesis cannot shift the
        // fields: they are counted from the last `)`.
        let stat = "4242 (a b) c) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 3";
        assert!((parse_process_cpu_s(stat) - 3.25).abs() < 1e-12);
        assert_eq!(parse_process_cpu_s(""), 0.0);
    }
}
