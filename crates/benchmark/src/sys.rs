//! What the benchmark asks of the operating system: CPU clocks, timer
//! slack, `/proc` readings and a description of the machine.

use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// A CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn clock_gettime(clk_id: c_int, tp: *mut Timespec) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuMask) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuMask) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const PR_SET_TIMERSLACK: c_int = 29;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Lets the calling thread's sleeps end within about a nanosecond of the
/// requested instant instead of the default 50 µs slack, so that paced
/// operations start on schedule.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and affects only
    // the calling thread's timer behaviour.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong) };
}

/// Caps glibc's malloc at two arenas, one for each side of the CPU split.
/// By default a thread gets one of up to eight arenas per core the first
/// time it finds its arena busy; which threads end up sharing is a race,
/// and both memory use and the cost of allocating differ from run to run
/// with its outcome. Call before any other thread exists.
pub fn cap_malloc_arenas() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_ARENA_MAX: c_int = -8;
        // SAFETY: `mallopt` only stores the limit; no other thread is
        // allocating yet.
        unsafe { mallopt(M_ARENA_MAX, 2) };
    }
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines the calling thread, and every thread it spawns from now on,
/// to `cpus`.
pub fn run_on(cpus: &[usize]) {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type `dir` lives on: the longest mount point in
/// `/proc/mounts` that is a prefix of it.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The machine and toolchain a result was measured on.
pub fn machine_info(work_dir: &Path) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model),
        ("kernel", kernel),
        ("wal_filesystem", filesystem_of(work_dir)),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
}
