//! The host side of a run: CPU pinning, `/proc` readings, provenance.

use std::process::Command;

use trace::Json;

// The two affinity calls of the C library `std` already links. The mask
// is 1024 bits, the size of glibc's `cpu_set_t`.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const MASK_WORDS: usize = 16;

/// Where a run was pinned, and what the host looked like just before.
pub struct Pinned {
    pub cpu: usize,
    /// CPUs the process was allowed on before it pinned itself.
    pub nproc: usize,
    pub loadavg_at_start: String,
}

/// Pins the calling thread — and so every thread it later spawns — to
/// the highest-numbered CPU it is allowed on.
///
/// The Mesa model is a uniprocessor and a baton passed across CPUs costs
/// 7–10× one passed on a single CPU, bimodally, so an unpinned figure is
/// not a measurement. The highest CPU is the one least likely to take
/// the host's interrupts.
pub fn pin_to_one_cpu() -> Result<Pinned, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = highest_set_bit(&mask).ok_or("the affinity mask allows no CPU")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed,
    // and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(Pinned {
        cpu,
        nproc: mask.iter().map(|w| w.count_ones() as usize).sum(),
        loadavg_at_start: loadavg(),
    })
}

fn highest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// Keeps the simulated worlds' deliberate panics (the fuzz grid's
/// weak-memory race, fork-failure cells) off stderr. Must run before the
/// first `Sim` is built: `pcr` chains its own hook in front of this one.
pub fn silence_carrier_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let on_carrier = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sim-worker-"));
        if !on_carrier {
            previous(info);
        }
    }));
}

/// The value of `key` (as in `VmHWM`) in `/proc/<pid>/status` text, in
/// the file's own unit (kB for the memory rows).
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// `(utime, stime)` in clock ticks from `/proc/<pid>/stat` text. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // After the command come state (field 3) … utime (14), stime (15).
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// A reading of the process's cumulative CPU time and of the driver
/// thread's context switches; subtract two to cover an interval.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    utime: u64,
    stime: u64,
    ctx_switches: u64,
}

impl Usage {
    /// Reads the counters now. Call from the driver thread: the
    /// context-switch rows of `/proc/thread-self/status` are per thread.
    pub fn now() -> Usage {
        let (utime, stime) =
            stat_cpu_ticks(&read_proc("/proc/self/stat")).expect("utime/stime in /proc/self/stat");
        let status = read_proc("/proc/thread-self/status");
        let ctx = |key| status_field(&status, key).expect("context-switch rows in status");
        Usage {
            utime,
            stime,
            ctx_switches: ctx("voluntary_ctxt_switches") + ctx("nonvoluntary_ctxt_switches"),
        }
    }

    /// `stime / (utime + stime)` since `earlier`; 0 when no tick passed.
    pub fn sys_frac_since(&self, earlier: &Usage) -> f64 {
        let (u, s) = (self.utime - earlier.utime, self.stime - earlier.stime);
        if u + s == 0 {
            0.0
        } else {
            s as f64 / (u + s) as f64
        }
    }

    /// Times the driver thread left the CPU since `earlier`. The driver
    /// thread runs the scheduler and parks once per baton it hands to a
    /// simulated thread, so this counts handoffs from outside `pcr`.
    pub fn ctx_switches_since(&self, earlier: &Usage) -> u64 {
        self.ctx_switches - earlier.ctx_switches
    }
}

/// Peak resident set of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read_proc("/proc/self/status"), "VmHWM").expect("VmHWM") as f64 / 1024.0
}

/// Resident set of the process now, in bytes.
pub fn rss_bytes() -> u64 {
    status_field(&read_proc("/proc/self/status"), "VmRSS").expect("VmRSS") * 1024
}

/// OS threads in the process now.
pub fn os_threads() -> u64 {
    status_field(&read_proc("/proc/self/status"), "Threads").expect("Threads")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken. Collected after the timed
/// work, so the two child processes it waits for cost the run nothing.
pub fn provenance(pinned: &Pinned) -> Json {
    Json::obj([
        ("pinned_cpu", Json::from(pinned.cpu)),
        ("nproc", Json::from(pinned.nproc)),
        (
            "loadavg_at_start",
            Json::from(pinned.loadavg_at_start.as_str()),
        ),
        (
            "kernel",
            Json::from(read_proc("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::from(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

/// The 1-, 5- and 15-minute load averages, as `/proc/loadavg` prints them.
fn loadavg() -> String {
    read_proc("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t41\nvoluntary_ctxt_switches:\t1200\nnonvoluntary_ctxt_switches:\t34\n";

    #[test]
    fn status_rows_parse_by_exact_key() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(20480));
        assert_eq!(status_field(STATUS, "VmRSS"), Some(10240));
        assert_eq!(status_field(STATUS, "Threads"), Some(41));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(1200));
        assert_eq!(status_field(STATUS, "nonvoluntary_ctxt_switches"), Some(34));
        // A prefix of a key is not the key.
        assert_eq!(status_field(STATUS, "Vm"), None);
        assert_eq!(status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    731 269 0 0 20 0 41 0 12345 1000000 2560 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some((731, 269)));
        assert_eq!(stat_cpu_ticks("garbage"), None);
        assert_eq!(stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn usage_deltas() {
        let a = Usage {
            utime: 100,
            stime: 100,
            ctx_switches: 10,
        };
        let b = Usage {
            utime: 130,
            stime: 170,
            ctx_switches: 510,
        };
        assert_eq!(b.sys_frac_since(&a), 0.7);
        assert_eq!(b.ctx_switches_since(&a), 500);
        assert_eq!(a.sys_frac_since(&a), 0.0);
    }

    #[test]
    fn highest_cpu_of_a_mask() {
        assert_eq!(highest_set_bit(&[0b0110, 0]), Some(2));
        assert_eq!(highest_set_bit(&[1, 1 << 3]), Some(67));
        assert_eq!(highest_set_bit(&[0, 0]), None);
    }

    #[test]
    fn pinning_leaves_exactly_one_cpu() {
        let cpu = pin_to_one_cpu().expect("pin").cpu;
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: as in `pin_to_one_cpu`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0);
        assert_eq!(mask.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(highest_set_bit(&mask), Some(cpu));
    }
}
