//! The platform record stamped on every result (GEMMbench's rule: a
//! result without its platform record is not reproducible), the sizing
//! rule, and the process's own peak memory.

use blob_core::wire::Json;
use std::path::{Path, PathBuf};

/// Threads the benchmark may keep runnable: `min(nproc, 4)`.
pub fn threads_total() -> usize {
    nproc().min(4)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The repository root: the directory that holds `ledger/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Where result and trace files go (`ledger/results/`, git-ignored).
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Parses a sysfs cache size such as `260M`, `4096K` or `512`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, unit) = match t.chars().last()? {
        'K' | 'k' => (&t[..t.len() - 1], 1u64 << 10),
        'M' | 'm' => (&t[..t.len() - 1], 1 << 20),
        'G' | 'g' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * unit)
}

/// Bytes of the last-level cache as cpu0 reports it (the highest cache
/// `index*` in sysfs); 32 MiB when sysfs has no answer.
pub fn llc_bytes() -> u64 {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u64, u64)> = None; // (level, size)
    if let Ok(entries) = std::fs::read_dir(base) {
        for entry in entries.flatten() {
            let dir = entry.path();
            let level = std::fs::read_to_string(dir.join("level"))
                .ok()
                .and_then(|s| s.trim().parse::<u64>().ok());
            let size = std::fs::read_to_string(dir.join("size"))
                .ok()
                .and_then(|s| parse_cache_size(&s));
            if let (Some(level), Some(size)) = (level, size) {
                if best.is_none_or(|(l, _)| level > l) {
                    best = Some((level, size));
                }
            }
        }
    }
    best.map_or(32 << 20, |(_, size)| size)
}

/// A `kB` field of a `/proc` status file, in bytes.
fn proc_kb(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Physical memory of the host, bytes (8 GiB when `/proc` has no answer).
pub fn ram_bytes() -> u64 {
    proc_kb("/proc/meminfo", "MemTotal:").unwrap_or(8 << 30)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_kb("/proc/self/status", "VmHWM:").map_or(0.0, |b| b as f64 / (1u64 << 20) as f64)
}

/// Bytes of the DRAM-resident operand: `max(4×LLC, 256 MiB)`, capped at
/// an eighth of memory — the bandwidth rule that an array must be at
/// least four times the last-level cache.
pub fn dram_operand_bytes() -> u64 {
    (4 * llc_bytes()).max(256 << 20).min(ram_bytes() / 8)
}

/// The commit checked out at the repository root, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head; // detached HEAD holds the hash itself
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The platform record: host fingerprint, engine, sizing, toolchain,
/// commit and seed.
pub fn record(seed: u64) -> Json {
    Json::obj()
        .field("fingerprint", blob_blas::tune::fingerprint())
        .field("engine", blob_blas::microkernel::active_engine().label())
        .field("nproc", nproc())
        .field("threads", threads_total())
        .field("llc_bytes", llc_bytes())
        .field("ram_bytes", ram_bytes())
        .field("rustc", env!("LEDGER_RUSTC_VERSION"))
        .field("git_commit", git_commit())
        .field("seed", seed)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("260M\n"), Some(260 << 20));
        assert_eq!(parse_cache_size("4096K"), Some(4096 << 10));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn sizing_rule_holds() {
        assert!((1..=4).contains(&threads_total()));
        let dram = dram_operand_bytes();
        assert!(dram <= ram_bytes() / 8);
        assert!(dram >= (256 << 20).min(ram_bytes() / 8));
    }

    #[test]
    fn record_round_trips_through_the_wire_parser() {
        let rec = record(7);
        let back = Json::parse(&rec.encode());
        assert_eq!(back.as_ref().ok(), Some(&rec));
        assert_eq!(rec.get("seed").and_then(Json::as_u64), Some(7));
    }
}
