//! On-CPU time of the whole process.
//!
//! The benchmark's timings are on-CPU time, summed over every thread of
//! the process, user and system: the time an operation keeps cores busy.
//! On a shared virtual machine the wall clock also counts the stretches in
//! which the hypervisor runs another tenant on our vCPU ("steal"); Linux
//! leaves steal out of a task's CPU time, so these figures repeat from run
//! to run where wall-clock ones move with the neighbours.

use std::time::Instant;

#[cfg(target_os = "linux")]
mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }

    /// Seconds of CPU the process has used, or `None` when the clock is
    /// unavailable.
    pub fn process_s() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the whole call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

#[cfg(not(target_os = "linux"))]
mod clock {
    pub fn process_s() -> Option<f64> {
        None
    }
}

/// A point in both wall-clock and process CPU time.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    wall: Instant,
    cpu_s: Option<f64>,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_s: clock::process_s(),
        }
    }

    /// `(wall ms, cpu ms)` from `self` to now. Where the process clock is
    /// missing the CPU figure falls back to the wall clock.
    pub fn elapsed(self) -> (f64, f64) {
        let now = Stamp::now();
        let wall_ms = now.wall.saturating_duration_since(self.wall).as_secs_f64() * 1e3;
        let cpu_ms = match (self.cpu_s, now.cpu_s) {
            (Some(a), Some(b)) => (b - a).max(0.0) * 1e3,
            _ => wall_ms,
        };
        (wall_ms, cpu_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_work_uses_cpu() {
        // other tests run in this process at the same time, so only a lower
        // bound on the process's CPU time holds
        let start = Stamp::now();
        let mut x = 1u64;
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let (wall, cpu) = start.elapsed();
        assert!(wall >= 30.0, "{wall}");
        assert!(cpu > 5.0, "spinning used only {cpu} ms of CPU");
    }
}
