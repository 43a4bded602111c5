//! What the harness asks of the operating system: process CPU time, peak
//! resident memory, core count, one-CPU confinement, and the commit
//! being measured.

use std::path::Path;

/// User + system CPU time of this process so far, ms: the process CPU
/// clock (all threads, including ones that have exited), which counts
/// nanoseconds where `/proc/self/stat` counts 10 ms ticks and sums over
/// every live thread to do so. `0.0` off 64-bit Linux.
#[allow(unsafe_code)]
pub fn cpu_ms() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        /// `struct timespec` of the C library on 64-bit Linux.
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut at = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `at` is a live, writable `timespec` with the layout the
        // call expects on this target.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut at) } == 0 {
            return at.sec as f64 * 1e3 + at.nsec as f64 / 1e6;
        }
    }
    0.0
}

/// Peak resident set size of this process, MiB (`VmHWM`). `0.0` where
/// procfs is missing.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs the calling thread may run on (the whole process's, unless
/// [`pin_to_one_cpu`] narrowed it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Restricts the calling thread — and every thread it spawns from here
/// on — to the lowest-numbered CPU it may run on. Returns whether it
/// did; `false` off Linux or when the kernel refuses.
#[allow(unsafe_code)]
pub fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        // `cpu_set_t` of the C library: a 1024-bit mask.
        type CpuSet = [u64; 16];
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        }
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of exactly `size`
        // bytes, the size passed; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return false;
        }
        let Some(word) = allowed.iter().position(|w| *w != 0) else {
            return false;
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << allowed[word].trailing_zeros();
        // SAFETY: `one` is a live buffer of exactly `size` bytes that the
        // call only reads.
        unsafe { sched_setaffinity(0, size, &one) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// The compiler the benchmark was built with (recorded by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout (the driver's checkouts are
/// plain directories).
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_readings_are_sane() {
        // The CPU clock advances with work, and no faster than every
        // CPU working at once.
        let before = cpu_ms();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while cpu_ms() - before < 20.0 && t.elapsed().as_secs() < 5 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let burnt = cpu_ms() - before;
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            burnt >= 20.0,
            "{burnt} ms of CPU after {wall_ms} ms of spinning"
        );
        assert!(
            burnt <= wall_ms * nproc() as f64 + 50.0,
            "{burnt} ms in {wall_ms} ms"
        );
        assert!(peak_rss_mib() > 0.5);
        assert!(nproc() >= 1);
        assert!(!rustc_version().is_empty());
    }

    #[test]
    fn pinning_narrows_this_thread_and_its_children_only() {
        let before = nproc();
        let inside = std::thread::spawn(|| {
            pin_to_one_cpu().then(|| {
                let child = std::thread::spawn(nproc).join().expect("child ran");
                (nproc(), child)
            })
        })
        .join()
        .expect("pinning thread ran");
        if cfg!(target_os = "linux") {
            assert_eq!(inside, Some((1, 1)));
        }
        assert_eq!(nproc(), before);
    }
}
