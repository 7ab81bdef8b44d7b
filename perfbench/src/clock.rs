//! The core-clock probe behind the host-time metrics.
//!
//! The build box's cores float between 3.3 GHz and 4.2 GHz in 100 MHz
//! steps, for seconds to minutes at a time and one core independently of the
//! other, so wall time of identical work spreads by a quarter. What the work
//! costs in **core cycles** does not move with the clock. The probe measures
//! the clock while the work runs: the process is pinned to one CPU, and a
//! sampler thread on that same CPU wakes every [`PERIOD`], times a chain of
//! dependent multiplies (a fixed number of core cycles) against the
//! time-stamp counter (which ticks at one rate — the *nominal clock*, 2.1 GHz
//! here — whatever the core does), and logs the ratio. A call that took
//! `wall` seconds while the samples inside it averaged `ratio` cost
//! `wall × ratio` seconds *at the nominal clock* — the number the host-time
//! metrics report. On a box whose clock does not float the ratio is a
//! constant and nothing changes; off x86-64 there is no probe and the ratio
//! is 1. What a busy sibling hyper-thread or a loaded memory system costs is
//! not taken out (`README.md`, "Noise").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period. A sample costs ~25 µs, so the sampler takes ~2 % of the
/// CPU it shares with the work.
const PERIOD: Duration = Duration::from_micros(1500);

/// Chain iterations per reading: eight dependent `imul`s each, three cycles
/// per `imul` on every x86-64 core of the last decade. ~24 k cycles (~8 µs),
/// short enough to seldom meet an interrupt.
const CHAIN: u64 = 1_000;

/// Core cycles one chain iteration takes.
const CYCLES_PER_ITERATION: u64 = 8 * 3;

/// Core cycles per time-stamp tick right now on the calling thread's CPU:
/// the best of three chains, so that an interrupt inside one does not read
/// as a slow clock. The chain is bound by the multiplier's latency alone —
/// the loop branch runs beside it — so neither code alignment nor a busy
/// sibling hyper-thread changes what it reads.
#[cfg(target_arch = "x86_64")]
pub fn cycles_per_tick() -> f64 {
    use core::arch::x86_64::_rdtsc;
    let mut best = 0.0f64;
    for _ in 0..3 {
        // SAFETY: `rdtsc` and a register-only countdown loop have no memory
        // or control-flow effects outside the block.
        let ticks = unsafe {
            let start = _rdtsc();
            core::arch::asm!(
                "2:",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "imul {x}, {x}",
                "dec {n}",
                "jnz 2b",
                n = inout(reg) CHAIN => _,
                x = inout(reg) 3u64 => _,
                options(nomem, nostack),
            );
            _rdtsc() - start
        };
        best = best.max((CHAIN * CYCLES_PER_ITERATION) as f64 / ticks.max(1) as f64);
    }
    best
}

/// No probe off x86-64: host times are reported as measured.
#[cfg(not(target_arch = "x86_64"))]
pub fn cycles_per_tick() -> f64 {
    1.0
}

/// CPU affinity mask wide enough for 1024 CPUs.
type CpuMask = [u64; 16];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuMask;

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's affinity mask, if it can be read.
    pub fn get() -> Option<CpuMask> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: the buffer is as long as the size passed with it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Set the calling thread's affinity; threads it spawns inherit it. A
    /// failure leaves it as it was, which only makes the probe less exact.
    pub fn set(mask: &CpuMask) {
        // SAFETY: the buffer is as long as the size passed with it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    }

    /// A mask of only the CPU the calling thread is on.
    pub fn current_cpu() -> Option<CpuMask> {
        // SAFETY: no arguments, no memory touched.
        let cpu = unsafe { sched_getcpu() };
        (0..1024).contains(&cpu).then(|| {
            let mut mask: CpuMask = [0; 16];
            mask[cpu as usize / 64] = 1 << (cpu % 64);
            mask
        })
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuMask;
    pub fn get() -> Option<CpuMask> {
        None
    }
    pub fn set(_: &CpuMask) {}
    pub fn current_cpu() -> Option<CpuMask> {
        None
    }
}

/// Host seconds of one call, as the wall clock read them and at the nominal
/// clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Wall seconds × core cycles per time-stamp tick while they passed.
    pub nominal_s: f64,
}

/// Time a call too short to hold samples (milliseconds or less): one
/// reading before it and one after. Needs no running [`Clock`].
pub fn time_short<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = cycles_per_tick();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let ratio = (before + cycles_per_tick()) / 2.0;
    (
        out,
        Timed {
            wall_s,
            nominal_s: wall_s * ratio,
        },
    )
}

/// One reading: nanoseconds since the probe started, cycles per tick.
type Sample = (u64, f64);

/// Fewer samples than this inside a call and it is timed as a short one.
const MIN_SAMPLES: usize = 8;

const LOCK: &str = "the sampler only pushes with the lock held";

/// The running probe. Dropping it stops the sampler and undoes the pin.
pub struct Clock {
    epoch: Instant,
    samples: Arc<Mutex<Vec<Sample>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<()>>,
    /// Affinity before and after the pin, when both could be had.
    masks: Option<(CpuMask, CpuMask)>,
}

impl Clock {
    /// Pin the calling thread (and every thread it spawns from here on) to
    /// the CPU it is on, and start sampling that CPU's clock.
    pub fn start() -> Clock {
        let masks = affinity::get().zip(affinity::current_cpu());
        if let Some((_, pinned)) = &masks {
            affinity::set(pinned);
        }
        let epoch = Instant::now();
        let samples = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    let at = epoch.elapsed().as_nanos() as u64;
                    let ratio = cycles_per_tick();
                    samples.lock().expect(LOCK).push((at, ratio));
                }
            })
        };
        Clock {
            epoch,
            samples,
            stop,
            sampler: Some(sampler),
            masks,
        }
    }

    /// Run `f` and time it: wall seconds, and those seconds × the mean
    /// cycles per tick over the samples taken while it ran (a call that
    /// held too few is timed like [`time_short`]). Calls must not nest.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Timed) {
        let from = self.epoch.elapsed().as_nanos() as u64;
        let (out, short) = time_short(f);
        let to = self.epoch.elapsed().as_nanos() as u64;
        let mut samples = self.samples.lock().expect(LOCK);
        let inside: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, ratio)| ratio)
            .collect();
        samples.clear();
        if inside.len() < MIN_SAMPLES {
            return (out, short);
        }
        let ratio = inside.iter().sum::<f64>() / inside.len() as f64;
        (
            out,
            Timed {
                wall_s: short.wall_s,
                nominal_s: short.wall_s * ratio,
            },
        )
    }

    /// Run `f` with the affinity the process started with — for the one
    /// measurement that needs two CPUs — and pin again afterwards.
    pub fn unpinned<T>(&self, f: impl FnOnce() -> T) -> T {
        if let Some((original, _)) = &self.masks {
            affinity::set(original);
        }
        let out = f();
        if let Some((_, pinned)) = &self.masks {
            affinity::set(pinned);
        }
        out
    }
}

impl Drop for Clock {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        if let Some((original, _)) = &self.masks {
            affinity::set(original);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible_clock_ratios() {
        // A core runs somewhere between a fifth of and five times the
        // time-stamp counter's rate (exactly 1 where there is no probe).
        let r = cycles_per_tick();
        assert!((0.2..5.0).contains(&r), "{r}");
    }

    #[test]
    fn timing_scales_wall_time_by_the_readings() {
        let clock = Clock::start();
        let spin = || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(40) {
                std::hint::black_box(cycles_per_tick());
            }
        };
        for timed in [
            clock.time(spin).1,
            time_short(spin).1,
            clock.unpinned(|| clock.time(spin).1),
        ] {
            assert!(timed.wall_s >= 0.04);
            let ratio = timed.nominal_s / timed.wall_s;
            assert!((0.2..5.0).contains(&ratio), "{ratio}");
        }
    }
}
