//! Process CPU time via `getrusage(2)`, the memory high-water mark from
//! `/proc/self/status`, and the machine's stolen CPU time from
//! `/proc/stat`.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the kernel's
    // 64-bit layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    r
}

/// User plus system CPU time of the whole process, in microseconds.
pub fn cpu_us() -> f64 {
    let r = rusage();
    let us = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
    us(&r.utime) + us(&r.stime)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
/// `getrusage`'s `ru_maxrss` is not used: it keeps the high-water mark of
/// the image before `exec`, so under `cargo run` it reports cargo's own.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Clock ticks all CPUs have spent so far, and the part of them the
/// hypervisor gave to other guests (`steal`), from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .map(|f| f.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let total = fields.iter().take(8).sum();
    (total, fields.get(7).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = cpu_us();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us() > before);
        assert!(peak_rss_mb() > 0.5);
        let (total, steal) = cpu_ticks();
        assert!(total > 0 && steal <= total);
    }
}
