//! Process resource usage from `getrusage(2)`: CPU time of every thread
//! the process ran (joined ones included) and the peak resident set.

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    debug_assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u
}

/// User + system CPU seconds consumed by the process so far.
pub fn cpu_s() -> f64 {
    let u = rusage();
    let t = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    t(&u.utime) + t(&u.stime)
}

/// Peak resident set of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kb as f64 / 1024.0
}
