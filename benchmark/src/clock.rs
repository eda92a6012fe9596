//! The benchmark's single wall clock and its CPU-time readers.
//!
//! Every reading the benchmark reports is a wall-clock or CPU-time
//! measurement taken from outside the program under test, so the one
//! `Instant::now` call lives here, allowlisted for `sitw-lint`'s
//! clock-discipline rule.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Linux reports `/proc/stat` times in USER_HZ ticks, fixed at 100.
const NS_PER_TICK: u64 = 10_000_000;

fn instant() -> Instant {
    // sitw-lint: allow(clock-discipline)
    Instant::now()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(instant)
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let epoch = epoch();
    instant().duration_since(epoch).as_nanos() as u64
}

/// Blocks until `now_ns() >= due_ns`: sleeps while the deadline is more
/// than `spin_ns` away, then spins. A sleeping thread wakes late by the
/// timer slack and, on a virtual machine whose CPU halted meanwhile, by
/// the host's wake-up latency; the spin absorbs that at a CPU cost.
pub fn wait_until(due_ns: u64, spin_ns: u64) {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > spin_ns.max(10_000) {
            std::thread::sleep(Duration::from_nanos(left - spin_ns.max(10_000)));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// CPU time a task has run, ns, from its `/proc/.../schedstat`, or
/// `None` when the file is gone (the thread or process ended).
pub fn run_ns(schedstat: &str) -> Option<u64> {
    let text = std::fs::read_to_string(schedstat).ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    run_ns("/proc/thread-self/schedstat").unwrap_or(0)
}

/// Steal time of the whole machine so far, ns: time its virtual CPUs
/// were ready to run but the host ran something else.
pub fn steal_ns() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<u64>().ok()
        })
        .unwrap_or(0)
        * NS_PER_TICK
}
