//! The handful of Linux calls the benchmark needs — CPU pinning, CPU
//! clocks, context-switch counts, peak RSS — declared directly against
//! the C library `std` already links, because no `libc` crate resolves
//! offline. Linux x86-64 / aarch64 layouts only, like the rest of the
//! benchmark's assumptions about `/proc`.

use std::ffi::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct rusage`: two `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct Rusage {
    times: [c_long; 4],
    fields: [c_long; 14],
}

/// Index of `ru_nvcsw` among the fourteen `long`s of `struct rusage`.
const RU_NVCSW: usize = 12;
const RUSAGE_SELF: c_int = 0;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
/// 1024 CPUs, the kernel's default `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call's
    // duration, and both clock ids exist on every Linux this runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Voluntary context switches of the whole process so far.
pub fn voluntary_ctx_switches() -> u64 {
    let mut usage = Rusage {
        times: [0; 4],
        fields: [0; 14],
    };
    // SAFETY: `usage` has the size and layout of `struct rusage` on
    // 64-bit Linux and is writable for the call's duration.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.fields[RU_NVCSW] as u64
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and exactly the byte size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered allowed CPU (CPU 0 takes most interrupts).
/// Returns the CPU, or `None` when the kernel refuses.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly the byte size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Peak resident set of the process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
