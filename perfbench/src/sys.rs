//! Linux process accounting (`/proc`) and the two libc calls the generator
//! needs: `ppoll` to sleep until a socket is readable or a deadline passes
//! without spinning a core, and `prctl` so a spawned broker dies with the
//! generator.

use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// A CPU set as the affinity calls read and write it: up to 1,024 CPUs.
type CpuSet = [u64; 16];

const POLLIN: c_short = 1;
const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_int = 9;

/// Blocks until one of `fds` is readable or `timeout` passes. Returns, per
/// descriptor, whether it is readable (or hung up).
pub fn wait_readable(fds: &[i32], timeout: Duration) -> Vec<bool> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `set` is a live, exclusively borrowed array of `set.len()`
    // `pollfd` structs laid out as the C ABI expects; `ts` outlives the call
    // and a null signal mask is allowed. An error (EINTR) leaves `revents`
    // zeroed, which reads as "nothing ready".
    unsafe {
        ppoll(
            set.as_mut_ptr(),
            set.len() as c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
    set.iter().map(|p| p.revents != 0).collect()
}

/// Asks the kernel to SIGKILL the calling process when its parent exits.
/// Called in a spawned child between fork and exec.
pub fn die_with_parent() -> std::io::Result<()> {
    // SAFETY: `prctl(PR_SET_PDEATHSIG, sig)` takes one integer argument and
    // touches no memory; it is async-signal-safe, as `pre_exec` requires.
    let rc = unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL as c_ulong) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, exclusively borrowed array of
    // `size_of_val(&mask)` bytes for the kernel to fill; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (or, between fork and exec, the child) to
/// CPU `cpu`.
pub fn pin_to_cpu(cpu: usize) -> std::io::Result<()> {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, the CPU
    // set layout the kernel reads; pid 0 is the calling thread. One
    // async-signal-safe system call, as `pre_exec` requires.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

fn proc_dir(pid: Option<u32>) -> std::path::PathBuf {
    match pid {
        Some(p) => format!("/proc/{p}").into(),
        None => "/proc/self".into(),
    }
}

fn proc_file(pid: Option<u32>, file: &str) -> String {
    let path = proc_dir(pid).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// CPU seconds consumed so far by the live threads of process `pid`, or of
/// this process when `pid` is `None`: the scheduler's per-thread run time
/// (`/proc/PID/task/*/schedstat`), which has nanosecond resolution and does
/// not count time the hypervisor stole from the virtual CPU.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let tasks = proc_dir(pid).join("task");
    let dir = std::fs::read_dir(&tasks)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", tasks.display()));
    let mut ns = 0u64;
    for task in dir {
        let path = task.expect("task entry").path().join("schedstat");
        // A thread may exit between listing and reading.
        if let Ok(s) = std::fs::read_to_string(&path) {
            ns += s
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
        }
    }
    ns as f64 / 1e9
}

/// Seconds the hypervisor has taken from this machine's virtual CPUs since
/// boot, summed over all of them: the `steal` column of `/proc/stat`, in
/// clock ticks of 1/100 s (Linux's fixed `USER_HZ`). 0 on a host that does
/// not report it.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    ticks as f64 / 100.0
}

/// Hands the allocator's free memory back to the kernel (glibc's
/// `malloc_trim`), so what one simulation freed does not stay resident
/// under the next.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes a byte count and only walks the
    // allocator's own free lists.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size (VmHWM) of `pid`, or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let status = proc_file(pid, "status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kib / 1024.0
}

/// The machine a result was measured on.
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
}

pub fn machine() -> Machine {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Machine {
        nproc: nproc(),
        cpu_model,
        kernel,
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
