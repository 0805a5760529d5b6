//! Pins the process to one CPU, so the server's threads and its client
//! share it and no round pays the hypervisor's idle-CPU wakeup.

#[cfg(target_os = "linux")]
mod sys {
    /// Bits in the kernel's `cpu_set_t` as glibc declares it.
    const SET_BITS: usize = 1024;
    pub type CpuSet = [u64; SET_BITS / 64];

    // std already links libc on Linux; declaring the two calls here avoids a
    // dependency on the `libc` crate, which is not available offline.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn allowed() -> Option<CpuSet> {
        let mut set: CpuSet = [0; SET_BITS / 64];
        // SAFETY: `set` is a live, writable buffer of exactly the size passed,
        // which is all sched_getaffinity(2) requires; pid 0 is this thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn restrict_to(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed and the
        // call only reads it; pid 0 is this thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

/// Pins the calling thread — call it before spawning any other, they inherit
/// the mask — to the highest-numbered CPU it is allowed on (CPU 0 takes most
/// of a guest's interrupts). Returns that CPU, or `None` with a warning on
/// stderr when pinning is unavailable; the run then proceeds unpinned.
pub fn pin_to_last_allowed_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let cpu = sys::allowed().and_then(|set| {
            let cpu = (0..set.len() * 64)
                .rev()
                .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)?;
            let mut one: sys::CpuSet = [0; 16];
            one[cpu / 64] = 1 << (cpu % 64);
            sys::restrict_to(&one).then_some(cpu)
        });
        if cpu.is_none() {
            eprintln!("warning: could not pin to one CPU; timings will be noisier");
        }
        cpu
    }
    #[cfg(not(target_os = "linux"))]
    {
        eprintln!("warning: CPU pinning is Linux-only; timings will be noisier");
        None
    }
}
