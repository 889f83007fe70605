//! Process counters read from the kernel, and the host/run fingerprint.

use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// CPU time and context switches of the whole process, all threads
/// (including threads that already exited), from `getrusage`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub cpu_us: f64,
    pub ctx_switches: f64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    // maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    // oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage` (x86_64 /
    // aarch64 Linux layout: two timevals followed by fourteen longs).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let tv = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    Usage {
        cpu_us: tv(&ru.utime) + tv(&ru.stime),
        ctx_switches: (ru.rest[12] + ru.rest[13]) as f64,
    }
}

/// Disk-level write counters of the process, from `/proc/self/io`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskIo {
    /// Bytes the process caused to be sent to the storage layer.
    pub write_bytes: f64,
    /// `write`-family system calls.
    pub write_syscalls: f64,
}

pub fn disk_io() -> DiskIo {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    DiskIo { write_bytes: field("write_bytes"), write_syscalls: field("syscw") }
}

/// Peak resident set size (`VmHWM` in `/proc/self/status`), MiB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                let (k, v) = l.split_once(':')?;
                (k.trim() == "model name").then(|| v.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest over the workspace sources the benchmark builds from, so
/// a result is tied to its code even outside a git checkout.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "third_party", "perfbench/src"] {
        walk(&root.join(sub), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in name.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `s` as a JSON string literal (control characters become spaces).
pub fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The host and run fingerprint printed with every result, as one JSON
/// object. `run` carries the per-run settings (seed, isolation level,
/// fsync policy, ...).
pub fn fingerprint(run: &[(&str, String)]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap_or(Path::new("."));
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let mut fields = vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu_model())),
        ("rustc", json_str(&command_output(&rustc, &["--version"], root).unwrap_or_default())),
        (
            "git_rev",
            json_str(
                &command_output("git", &["rev-parse", "HEAD"], root)
                    .unwrap_or_else(|| "none (not a git checkout)".into()),
            ),
        ),
        ("source_digest", json_str(&source_digest(root))),
    ];
    fields.extend(run.iter().map(|(k, v)| (*k, json_str(v))));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A 1024-bit `cpu_set_t`.
type CpuSet = [u64; 16];

/// The CPUs this thread may run on, lowest first (empty if unreadable).
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Move every thread of this process to `cpu` alone. Threads spawned
/// later inherit their spawner's affinity, so they land there too.
/// Returns whether every thread was moved.
fn pin_process(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return false;
    };
    let mut all = true;
    for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        // SAFETY: `mask` is a readable `cpu_set_t` of the size passed. A
        // thread that exited in between only makes the call fail.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
        all &= rc == 0;
    }
    all
}

/// Keeps the whole process on one CPU at a time and moves it to the next
/// allowed CPU every `period`, until dropped. Threads that talk to each
/// other then always share a CPU (their wake-ups never cross vCPUs),
/// while over a run the process still spends equal time on each CPU.
pub struct CpuRotation {
    stop: Arc<AtomicBool>,
    moves: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl CpuRotation {
    /// `None` if the process cannot be pinned (it then runs unpinned).
    pub fn start(period: Duration) -> Option<CpuRotation> {
        let cpus = allowed_cpus();
        if cpus.is_empty() || !pin_process(cpus[0]) {
            return None;
        }
        let stop = Arc::new(AtomicBool::new(false));
        let moves = Arc::new(AtomicU64::new(0));
        let (s, m) = (Arc::clone(&stop), Arc::clone(&moves));
        let thread = std::thread::spawn(move || {
            for cpu in cpus.iter().cycle().skip(1) {
                std::thread::park_timeout(period);
                if s.load(Ordering::Relaxed) {
                    break;
                }
                if pin_process(*cpu) {
                    m.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        Some(CpuRotation { stop, moves, thread: Some(thread) })
    }

    /// Moves made so far.
    pub fn moves(&self) -> u64 {
        self.moves.load(Ordering::Relaxed)
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}
