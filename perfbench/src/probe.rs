//! Process probes that need nothing beyond the standard library and
//! procfs: a counting global allocator, `/proc/self/stat` (minor faults,
//! CPU time), `/proc/self/status` (peak resident set) and the runner
//! class, plus one snapshot of the library's own solve counters.

use bcc_lp::stats::LpStats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator, counting every allocation.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System`; the size obligations pass
        // through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) since the process started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Relaxed)
}

/// Counters of `/proc/self/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults.
    pub minor_faults: u64,
    /// User plus system CPU time of every thread, live or joined, in
    /// clock ticks.
    pub cpu_ticks: u64,
}

/// Parses `/proc/self/stat`. The command name may hold spaces and
/// parentheses, so fields are counted from the last `)`.
fn parse_stat(text: &str) -> Option<ProcStat> {
    let fields: Vec<&str> = text[text.rfind(')')? + 1..].split_whitespace().collect();
    // After the name come state (field 3 of proc(5)), ..., minflt (10),
    // ..., utime (14) and stime (15).
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minor_faults: field(10)?,
        cpu_ticks: field(14)? + field(15)?,
    })
}

/// The process's fault and CPU counters.
pub fn proc_stat() -> ProcStat {
    let text = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    parse_stat(&text).expect("/proc/self/stat has the proc(5) layout")
}

/// `AT_CLKTCK` from the auxiliary vector: the unit of the CPU times in
/// `/proc/self/stat`.
fn clock_ticks_per_s() -> u64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .find_map(|pair| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&pair[..8]) == AT_CLKTCK).then(|| word(&pair[8..]))
        })
        .filter(|&hz| hz > 0)
        .unwrap_or(100)
}

/// Milliseconds per CPU clock tick.
pub fn ms_per_tick() -> f64 {
    1e3 / clock_ticks_per_s() as f64
}

/// The `kB` value of one `/proc/self/status` line.
fn status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status_kib(&text, "VmHWM:").expect("/proc/self/status reports VmHWM");
    kib as f64 / 1024.0
}

/// Resets the peak resident set to the current one, so a later
/// [`peak_rss_mib`] covers only what follows. Returns `false` where the
/// kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The machine a run measured, stamped on every output.
#[derive(Debug, Clone)]
pub struct Runner {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
}

impl Runner {
    /// Reads the runner class of this machine.
    pub fn detect() -> Runner {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Runner { nproc, cpu_model }
    }
}

/// One snapshot of the counters a serial pass moves on the calling
/// thread: allocations, minor faults, LP solves and batched points.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub allocations: u64,
    pub minor_faults: u64,
    pub lp: LpStats,
    pub batched_points: u64,
    pub lanes_filled: u64,
}

impl Counts {
    fn read(allocations: u64) -> Counts {
        Counts {
            allocations,
            minor_faults: proc_stat().minor_faults,
            lp: bcc_lp::stats::local_snapshot(),
            batched_points: bcc_core::batch::stats::batched_points_local(),
            lanes_filled: bcc_core::batch::stats::lanes_filled_local(),
        }
    }

    /// A snapshot before the measured work. The allocation count is read
    /// last, after the procfs read has allocated.
    pub fn before() -> Counts {
        let mut c = Counts::read(0);
        c.allocations = allocations();
        c
    }

    /// The counters the work since `before` moved. The allocation count
    /// is read first, before the procfs read allocates.
    pub fn since(before: &Counts) -> Counts {
        let now = Counts::read(allocations());
        Counts {
            allocations: now.allocations - before.allocations,
            minor_faults: now.minor_faults - before.minor_faults,
            lp: now.lp.delta_since(&before.lp),
            batched_points: now.batched_points - before.batched_points,
            lanes_filled: now.lanes_filled - before.lanes_filled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let line = "4242 (perf (bench) x) R 1 2 3 4 5 6 789 0 1 0 55 66 0 0 20 0 3 0";
        assert_eq!(
            parse_stat(line),
            Some(ProcStat {
                minor_faults: 789,
                cpu_ticks: 121,
            })
        );
        assert_eq!(parse_stat("no parenthesis"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_values_are_read_by_key() {
        let text = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t   1234 kB\n";
        assert_eq!(status_kib(text, "VmHWM:"), Some(1234));
        assert_eq!(status_kib(text, "VmRSS:"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(ms_per_tick() > 0.0);
        let before = Counts::before();
        let v: Vec<u64> = (0..1_000).collect();
        let delta = Counts::since(&before);
        assert!(delta.allocations >= 1, "the vector allocated");
        assert_eq!(v.len(), 1_000);
        assert!(Runner::detect().nproc >= 1);
    }
}
