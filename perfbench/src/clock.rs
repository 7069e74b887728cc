//! Host clocks: on-CPU time of the process and of the calling thread, wall
//! time beside it, and the process's peak resident set.
//!
//! Every host time the benchmark reports is on-CPU time scaled to a
//! reference machine speed. On-CPU time ignores the wall time a competing
//! process steals, but not the slowdown of a shared host: on a 2-vCPU
//! virtual machine the same replay's on-CPU rate drifted by ±25% within
//! minutes while nothing ran beside it. [`Speed`] measures that drift with
//! a fixed calibration kernel interleaved after every frame, and the
//! benchmark divides each measured time by the factor it finds.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU clocks through a 64-bit `timespec`");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and both clock ids are constants of that platform.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// On-CPU nanoseconds of the whole process, summed over all its threads
/// (exited ones included).
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A start point on both the process CPU clock and the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    cpu_ns: u64,
    wall: Instant,
}

/// What elapsed since a [`Mark`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Elapsed {
    /// Process on-CPU seconds.
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl Mark {
    /// Now.
    pub fn now() -> Self {
        Self {
            cpu_ns: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// The mark's wall-clock instant.
    pub fn wall(&self) -> Instant {
        self.wall
    }

    /// Time since the mark.
    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            cpu_s: (process_cpu_ns() - self.cpu_ns) as f64 * 1e-9,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Nanoseconds of measured work per calibration iteration: at the
/// reference speed a slice takes 1/25 of the work it follows.
const WORK_NS_PER_ITER: u64 = 25 * REF_NS_PER_ITER as u64;
/// Smallest calibration slice, in iterations.
const MIN_ITERS: u64 = 20_000;
/// On-CPU nanoseconds one calibration iteration takes at the reference
/// speed (about the median of an Intel Xeon 2-vCPU virtual machine).
const REF_NS_PER_ITER: f64 = 11.0;

/// Machine-speed probe for one thread: after each unit of work,
/// [`tick`](Self::tick) runs a slice of a fixed cache-simulation kernel
/// proportional to that work and accumulates how long the slice took
/// against how long it takes at the reference speed. The kernel belongs
/// to the benchmark, not to the simulator, so a change to the simulator
/// never moves it.
#[derive(Debug)]
pub struct Speed {
    /// 512 sets × 4 ways of the kernel's LRU tag store.
    tags: Vec<u64>,
    rng: u64,
    mark: u64,
    cal_ns: u64,
    /// Wall time of the slices; on several threads, of the slowest one.
    cal_wall_ns: u64,
    ref_ns: f64,
}

impl Default for Speed {
    fn default() -> Self {
        Self {
            tags: vec![0; 512 * 4],
            rng: 0x2545_f491_4f6c_dd1d,
            mark: thread_cpu_ns(),
            cal_ns: 0,
            cal_wall_ns: 0,
            ref_ns: 0.0,
        }
    }
}

impl Speed {
    /// Starts a new measurement on the calling thread.
    pub fn restart(&mut self) {
        self.cal_ns = 0;
        self.cal_wall_ns = 0;
        self.ref_ns = 0.0;
        self.mark = thread_cpu_ns();
    }

    /// Calibrates against the work done on this thread since the last
    /// tick (or restart).
    pub fn tick(&mut self) {
        let (start, wall) = (thread_cpu_ns(), Instant::now());
        let iters = ((start - self.mark) / WORK_NS_PER_ITER).max(MIN_ITERS);
        std::hint::black_box(self.kernel(iters));
        let end = thread_cpu_ns();
        self.cal_ns += end - start;
        self.cal_wall_ns += wall.elapsed().as_nanos() as u64;
        self.ref_ns += iters as f64 * REF_NS_PER_ITER;
        self.mark = end;
    }

    /// Adds the measurement of another thread that ran beside this one:
    /// on-CPU times add up, while the wall time the slices took is that
    /// of the thread that spent longest in them.
    pub fn absorb(&mut self, other: &Speed) {
        self.cal_ns += other.cal_ns;
        self.cal_wall_ns = self.cal_wall_ns.max(other.cal_wall_ns);
        self.ref_ns += other.ref_ns;
    }

    /// On-CPU seconds spent calibrating.
    pub fn cal_s(&self) -> f64 {
        self.cal_ns as f64 * 1e-9
    }

    /// How much slower than the reference the machine ran (1 = as fast).
    pub fn factor(&self) -> f64 {
        assert!(self.ref_ns > 0.0, "no calibration slice ran");
        self.cal_ns as f64 / self.ref_ns
    }

    /// `elapsed` with the calibration's own time removed and the rest
    /// scaled to the reference speed.
    pub fn scale(&self, elapsed: Elapsed) -> Elapsed {
        Elapsed {
            cpu_s: (elapsed.cpu_s - self.cal_s()) / self.factor(),
            wall_s: elapsed.wall_s - self.cal_wall_ns as f64 * 1e-9,
        }
    }

    /// A 4-way LRU cache simulation over a synthetic texel walk: the same
    /// kind of branchy, table-bound integer work as the replay, so it slows
    /// down with the host the way the replay does.
    fn kernel(&mut self, iters: u64) -> u64 {
        let sets = self.tags.len() / 4;
        let (mut h, mut u, mut v, mut hits) = (self.rng, 0u64, 0u64, 0u64);
        for i in 0..iters {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            if h & 7 == 0 {
                u = (h >> 8) & 1023;
                v = (h >> 20) & 1023;
            } else {
                u = (u + (i & 1)) & 1023;
                v = (v + ((i >> 1) & 1)) & 1023;
            }
            let tag = (u >> 2) | (v >> 2) << 10 | (h >> 60) << 20;
            let set = ((u >> 2) ^ (v >> 2).wrapping_mul(31)) as usize % sets;
            let ways = &mut self.tags[set * 4..set * 4 + 4];
            match ways.iter().position(|&t| t == tag) {
                Some(w) => {
                    hits += 1;
                    ways[..=w].rotate_right(1);
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = tag;
                }
            }
        }
        self.rng = h;
        hits
    }
}
