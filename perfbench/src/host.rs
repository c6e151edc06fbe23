//! Process resource readings (CPU time, peak RSS) and the machine/build
//! stamp every result carries.

use serde::Serialize;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of all the process's
/// threads, user + system.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed so far by every thread of this
/// process (nanosecond resolution).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching the C layout through `repr(C)`);
    // `clock_gettime` writes only into it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Worker count of every workload: the machine's parallelism, capped at
/// two so results from larger hosts stay comparable with the 2-core
/// reference machine.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2)
}

/// Machine and build context of a result. The first four fields
/// identify the host; `compare` refuses to pair results whose host
/// fields differ.
#[derive(Debug, Clone, Serialize)]
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub llc: String,
    pub mem_total_kb: u64,
    pub hostname: String,
    pub workers: usize,
    pub rustc: String,
    pub git_commit: String,
    pub exe_fingerprint: String,
    pub seed: u64,
}

impl Stamp {
    pub fn collect(seed: u64) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model: field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into()),
            llc: last_level_cache(),
            mem_total_kb: field(&meminfo, "MemTotal")
                .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
                .unwrap_or(0),
            hostname: std::fs::read_to_string("/proc/sys/kernel/hostname")
                .map_or_else(|_| "unknown".into(), |h| h.trim().to_string()),
            workers: workers(),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            git_commit: git_commit(),
            exe_fingerprint: exe_fingerprint(),
            seed,
        }
    }
}

/// Value of the first `key : value` line of a /proc file.
fn field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Size of CPU 0's highest-level cache, e.g. `L3 32768K`.
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size.trim().to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(l, s)| format!("L{l} {s}"))
}

/// `git rev-parse HEAD` of the working directory, or `unknown` when it is
/// not the root of a git checkout (git is not asked to search parents).
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// FNV-1a hash of the running executable: two results with the same
/// fingerprint ran the same build, so their work counts must agree.
fn exe_fingerprint() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}
