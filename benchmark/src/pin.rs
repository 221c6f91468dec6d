//! Decide which hardware thread each busy thread runs on, instead of
//! leaving it to the scheduler.
//!
//! Left alone, Linux sometimes keeps two threads that wake each other on
//! one CPU and sometimes spreads them over two, and stays with either
//! choice for minutes. On this host the two placements differ by 4x for a
//! wire GET (13 µs against 53 µs: two idle-CPU wake-ups per request) and
//! by 10x for the foreground p99 under reorganization (6 µs against 58 µs:
//! cross-CPU mutex hand-offs). Neither is wrong; a benchmark must pick
//! one:
//!
//! * a client and its server session alternate and are never both
//!   runnable, so the process is confined to one CPU before any thread is
//!   spawned;
//! * the reorganizer and the foreground session are both runnable, so the
//!   reorganizer thread is moved to the other CPUs and the two really run
//!   in parallel.

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getcpu() -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
fn set_affinity(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live, initialised buffer of exactly the byte
    // length passed; pid 0 names the calling thread; the kernel only reads
    // the buffer.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// Restrict the calling thread, and every thread it spawns from now on, to
/// the CPU it is running on. Returns that CPU, or `None` where the calls
/// are unavailable or refused (the run goes on unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads kernel state.
    let cpu = usize::try_from(unsafe { sys::sched_getcpu() }).ok()?;
    let mut mask: Mask = [0; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    set_affinity(&mask).then_some(cpu)
}

/// Restrict the calling thread to every CPU but `cpu`. The kernel ignores
/// mask bits for CPUs that do not exist and refuses an empty result, in
/// which case the thread stays where it was.
#[cfg(target_os = "linux")]
pub fn pin_away_from(cpu: usize) -> bool {
    let mut mask: Mask = [u64::MAX; 16];
    match mask.get_mut(cpu / 64) {
        Some(word) => *word &= !(1 << (cpu % 64)),
        None => return false,
    }
    set_affinity(&mask)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

#[cfg(not(target_os = "linux"))]
pub fn pin_away_from(_cpu: usize) -> bool {
    false
}
