//! Host counters read inside the benchmark process, without pinning:
//! CPU time and context switches from `getrusage`, per-thread CPU time
//! from `clock_gettime`, and peak resident memory from `/proc`.

use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// Indices of `ru_nvcsw` / `ru_nivcsw` among the trailing longs.
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// CPU time and context switches of a process or thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
}

impl Usage {
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

fn rusage(who: i32) -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the x86-64 /
    // aarch64 Linux layout, and `who` is RUSAGE_SELF or RUSAGE_THREAD.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        ctx_switches: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
    }
}

/// The whole process, exited threads included.
pub fn process_usage() -> Usage {
    rusage(RUSAGE_SELF)
}

/// The calling thread only.
pub fn thread_usage() -> Usage {
    rusage(RUSAGE_THREAD)
}

/// CPU nanoseconds consumed by the calling thread.  A rank parked by the
/// event scheduler accrues none, so spans timed with this clock measure
/// the rank's own work, not the time it waited for its peers.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, and the
    // thread CPU-time clock exists on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.  The
/// workloads read it after a fixed number of units, so a faster program
/// that fits more units into a run does not read as using more memory.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Spin for `secs` of wall time: the injected slowdown of a red run.
pub fn busy_wait(secs: f64) {
    let until = Instant::now() + std::time::Duration::from_secs_f64(secs.max(0.0));
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}
