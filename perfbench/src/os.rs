//! The two operating-system calls the benchmark makes: pinning a
//! key-value workload's process to one CPU, and reading a thread's CPU
//! time.
//!
//! Every thread the process starts afterwards (the caller, the server's
//! acceptor, handlers and monitor, the scrubber) inherits the calling
//! thread's CPU mask. On one CPU the caller and the server hand off
//! without cross-CPU wake-ups, whose cost depends on where the scheduler
//! happens to place the threads: unpinned, `get_hot`'s median batch time
//! on a 2-vCPU VM flipped between ~17 us and ~34 us from run to run.

/// Mask words: room for 1,024 CPUs.
const WORDS: usize = 16;

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
#[cfg(target_os = "linux")]
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used, in nanoseconds. Unlike wall
/// time it does not grow while the thread waits to be scheduled.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as u64 * 1_000_000_000 + ts.nsec as u64)
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Pins the calling thread to the lowest-numbered CPU it may run on and
/// returns that CPU.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, &bits)| bits != 0)
        .map(|(w, bits)| w * 64 + bits.trailing_zeros() as usize)
        .ok_or("empty CPU mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning needs Linux".into())
}
