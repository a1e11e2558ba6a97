//! Keeping the host's idle CPUs from sleeping while the service is
//! measured.
//!
//! On a virtual machine an idle vCPU halts, and waking it for the next
//! request goes through the hypervisor. On a shared, oversubscribed host
//! that wake-up waits for the host to schedule the vCPU again, which adds
//! milliseconds to open-loop requests at random: in three paired `rerank`
//! runs on a 2-vCPU guest, p50 was 0.60–0.76 ms with the CPUs kept awake
//! and 1.3–4.8 ms without. One spinning thread pinned to each CPU at
//! `SCHED_IDLE` priority keeps the vCPUs running; the guest scheduler preempts it the
//! moment any other thread wakes, so it takes no CPU time from runnable
//! threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Linux `SCHED_IDLE` (`<sched.h>`).
const SCHED_IDLE: i32 = 5;

/// Linux `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Linux `cpu_set_t`: a 1024-bit CPU mask.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on (CPU 0 alone if they cannot be
/// read).
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed beside it;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// The spinning threads; stop them with [`IdleKeepers::stop`].
pub struct IdleKeepers {
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleKeepers {
    /// One keeper pinned to each CPU the process may use. A thread that
    /// cannot pin itself or lower itself to `SCHED_IDLE` exits at once
    /// rather than compete with the service.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let threads = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let (stop, active) = (Arc::clone(&stop), Arc::clone(&active));
                std::thread::spawn(move || {
                    let mut mask: CpuSet = [0; 16];
                    mask[cpu / 64] |= 1 << (cpu % 64);
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `mask` and `param` are initialised values of
                    // the kernel's `cpu_set_t` and `sched_param` layouts that
                    // outlive the calls; pid 0 names the calling thread.
                    let ok = unsafe {
                        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) == 0
                            && sched_setscheduler(0, SCHED_IDLE, &param) == 0
                    };
                    if !ok {
                        return;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self {
            stop,
            active,
            threads,
        }
    }

    /// Stops and joins the keepers; returns how many were running.
    pub fn stop(mut self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            t.join().expect("idle keeper thread panicked");
        }
        self.active.load(Ordering::Relaxed)
    }
}
