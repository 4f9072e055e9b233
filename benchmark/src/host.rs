//! What `/proc` says about this process and this host: CPU time per
//! thread, peak memory, steal, and the facts recorded with every result.

use std::fs;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// One thread of this process, from `/proc/self/task/<tid>/`.
#[derive(Debug, Clone, Default)]
pub struct ThreadRow {
    pub name: String,
    /// Time on a core, ns (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a core, ns (`schedstat` field 2).
    pub runq_wait_ns: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

impl ThreadRow {
    /// Counters of `self` minus those of an earlier row of the same thread.
    pub fn since(&self, earlier: &ThreadRow) -> ThreadRow {
        ThreadRow {
            name: self.name.clone(),
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
            voluntary_switches: self.voluntary_switches.saturating_sub(earlier.voluntary_switches),
            involuntary_switches: self
                .involuntary_switches
                .saturating_sub(earlier.involuntary_switches),
        }
    }
}

/// A thread's name as `/proc` shows it: the kernel keeps 15 bytes.
pub fn comm_of(thread_name: &str) -> &str {
    thread_name.get(..15).unwrap_or(thread_name)
}

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

fn thread_row(dir: &str) -> Option<ThreadRow> {
    let name = fs::read_to_string(format!("{dir}/comm")).ok()?.trim().to_string();
    let sched = fs::read_to_string(format!("{dir}/schedstat")).ok()?;
    let mut fields = sched.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
    let run_ns = fields.next()?;
    let runq_wait_ns = fields.next()?;
    let status = fs::read_to_string(format!("{dir}/status")).ok()?;
    Some(ThreadRow {
        name,
        run_ns,
        runq_wait_ns,
        voluntary_switches: status_field(&status, "voluntary_ctxt_switches"),
        involuntary_switches: status_field(&status, "nonvoluntary_ctxt_switches"),
    })
}

/// Every live thread of this process. A thread that exits while the
/// directory is read is skipped.
pub fn threads() -> Vec<ThreadRow> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.flatten().filter_map(|e| thread_row(&e.path().to_string_lossy())).collect()
}

/// The calling thread's row.
pub fn this_thread() -> ThreadRow {
    thread_row("/proc/thread-self").unwrap_or_default()
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

/// `RssAnon` of this process now, KiB: the resident memory it allocated,
/// without the pages of the executable and libc it happened to touch.
pub fn anon_rss_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "RssAnon")
}

/// `(steal, total)` jiffies of the host so far, from `/proc/stat`.
pub fn steal_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().next() else { return (0, 0) };
    let fields: Vec<u64> = cpu.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already inside user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen between two `steal_jiffies` readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// CPUs this process may run on, as it was started. Read once: the count
/// follows the calling thread's affinity, which [`pin_to_next_cpu`] narrows.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// A CPU set as the kernel takes it: 1024 bits, glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    // glibc's wrappers; std links libc on every Linux target.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `set`. `false` if the kernel refused.
fn set_affinity(set: &CpuSet) -> bool {
    // SAFETY: `set` outlives the call, the size passed is its size, and
    // pid 0 names the calling thread; the kernel only reads the set.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

fn only(cpu: usize) -> CpuSet {
    let mut set = [0u64; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// The CPUs the process was started on: as the kernel's set, and one by
/// one from the highest-numbered down (CPU 0, where a guest's interrupts
/// land, comes last). `None` where the kernel would not say.
static ALLOWED: OnceLock<Option<(CpuSet, Vec<usize>)>> = OnceLock::new();
/// How many times [`pin_to_next_cpu`] has moved the benchmark on.
static TURNS: AtomicUsize = AtomicUsize::new(0);

fn allowed() -> Option<&'static (CpuSet, Vec<usize>)> {
    ALLOWED
        .get_or_init(|| {
            nproc();
            let mut set: CpuSet = [0; 16];
            // SAFETY: `set` is writable for the size passed, and pid 0
            // names the calling thread.
            let read =
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
            let cpus: Vec<usize> =
                (0..64 * set.len()).rev().filter(|c| set[c / 64] & (1 << (c % 64)) != 0).collect();
            (read == 0 && !cpus.is_empty()).then_some((set, cpus))
        })
        .as_ref()
}

/// The CPU the benchmark is on, if it has been pinned.
fn current_cpu() -> Option<usize> {
    let (_, cpus) = allowed()?;
    let turns = TURNS.load(Ordering::Relaxed);
    (turns > 0).then(|| cpus[(turns - 1) % cpus.len()])
}

/// Confines the calling thread, and every thread spawned after it (a
/// server's own among them), to one CPU, as `taskset -c` would: on each
/// call the next of the CPUs the process was started on. Returns that CPU;
/// `None` where the kernel refuses, and then nothing is pinned.
///
/// **One CPU at a time**: generator and server time-share it on purpose.
/// On this 2-vCPU guest a wake-up that crosses vCPUs costs 50 to 800 us and
/// shows as 30-40 % steal, so a round trip is 16 us with client, reactor
/// and combiner on one vCPU and 60 to 900 us with the client across from
/// the server; what a run then measures is the hypervisor (README,
/// finding 6).
///
/// **The next CPU on each call**, which `run` makes ahead of each trial:
/// the host slows each vCPU by 1.4 to 1.75 for seconds to minutes at a
/// time, but not both vCPUs at the same times (two copies of one loop, one
/// per vCPU, agreed on fast or slow in 127 of 180 seconds), so trials that
/// take turns find the code's floor in runs where one CPU never shows it
/// (README, finding 7).
pub fn pin_to_next_cpu() -> Option<usize> {
    let (_, cpus) = allowed()?;
    let cpu = cpus[TURNS.load(Ordering::Relaxed) % cpus.len()];
    if !set_affinity(&only(cpu)) {
        return None;
    }
    TURNS.fetch_add(1, Ordering::Relaxed);
    Some(cpu)
}

/// Runs `measure` (which brings its own threads and is meant to spread
/// them) with every CPU the process was started on open to it, then
/// returns the calling thread to the benchmark's one CPU. `measure` joins
/// what it spawns.
pub fn spread<T>(measure: impl FnOnce() -> T) -> T {
    let (Some((set, _)), Some(cpu)) = (allowed(), current_cpu()) else { return measure() };
    set_affinity(set);
    let measured = measure();
    set_affinity(&only(cpu));
    measured
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts recorded in every result, as `(name, value)` pairs.
pub fn facts(poller_backend: &str) -> Vec<(&'static str, String)> {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim()))
        .unwrap_or("unknown")
        .to_string();
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["--version"])),
        // "unknown" in the driver's checkout, which is not a git repository.
        ("git_commit", command_line("git", &["rev-parse", "--short", "HEAD"])),
        ("poller_backend", poller_backend.to_string()),
        (
            "pinning",
            match (allowed(), current_cpu()) {
                (Some((_, cpus)), Some(_)) => {
                    format!("all threads on one cpu at a time, taking turns on {cpus:?}")
                }
                _ => "none".to_string(),
            },
        ),
    ]
}
