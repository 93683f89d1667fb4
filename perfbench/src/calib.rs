//! Host-drift calibration: a fixed, std-only CPU kernel timed in quiet
//! windows (no request in flight, no engine worker busy) spread across a
//! run. End-to-end timings are rescaled to reference-host time with
//! `nominal ÷ median kernel time`, so a host that runs slower for the
//! whole run does not read as a slower program. The traced run keeps the
//! raw figures visible (`host.calib_ms`, `load.raw_*`).
//!
//! A shared host slows programs in two ways: it gives them less CPU, and
//! its neighbours contend for the caches and memory. The compilers and the
//! server allocate, hash and chase pointers, so they feel the second kind
//! far more than an L1-resident loop does. The kernel therefore has three
//! parts, which take about 20%, 50% and 30% of its time on the reference
//! host: sort rounds on an L1-resident array, a dependent pointer chase
//! through an 8 MiB cycle, and a hash-map build with heap allocation.
//! Over ten seeds of each workload on the reference host (interquartile
//! range over median of the timing metrics), the raw timings spread
//! 5–13%, timings rescaled by the sort part alone 3–15%, and timings
//! rescaled by the whole kernel 4–8%.
//!
//! The kernel runs on one thread: two threads chasing at once overreacted
//! to contention, and one sort thread tracked the workloads as well as
//! two.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Median kernel wall time, in milliseconds, on the reference host
/// (2-core x86_64 VM, release build). Timings reported in reference-host
/// time are `measured × NOMINAL_KERNEL_MS ÷ run median`.
pub const NOMINAL_KERNEL_MS: f64 = 0.85;

/// Kernel calls in each quiet window.
pub const REPS_PER_WINDOW: usize = 6;

/// Entries of the pointer-chase cycle (`u32`s: 8 MiB): more than the L2
/// cache holds, so every step is an L3 or memory access, the part of the
/// host that neighbours contend for.
const CHASE_LEN: usize = 1 << 21;
const CHASE_STEPS: usize = 3_000;
const SORT_ROUNDS: usize = 20;
const MAP_INSERTS: u64 = 3_000;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded single-cycle permutation (Sattolo's shuffle): `next[i]` is
/// the entry after `i`. Built once per process, outside every timed
/// window.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut x = 0x5eed;
        for i in (1..CHASE_LEN).rev() {
            next.swap(i, (splitmix(&mut x) % i as u64) as usize);
        }
        next
    })
}

/// Where the next chase starts. Each call walks on from where the last
/// one stopped, so no call finds its lines still in a private cache.
static CHASE_AT: AtomicUsize = AtomicUsize::new(0);

/// One kernel call: sort rounds, pointer chase, hash-map build.
fn kernel(chase: &[u32]) -> u64 {
    let mut a = [0u64; 512];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for round in 0..SORT_ROUNDS {
        for v in a.iter_mut() {
            *v = splitmix(&mut x);
        }
        black_box(&mut a).sort_unstable();
        acc ^= a[round % a.len()];
    }
    let mut at = CHASE_AT.load(Ordering::Relaxed);
    for _ in 0..CHASE_STEPS {
        at = black_box(chase)[at] as usize;
    }
    CHASE_AT.store(at, Ordering::Relaxed);
    acc ^= at as u64;
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for k in 0..MAP_INSERTS {
        let key = splitmix(&mut x);
        map.entry(key % (MAP_INSERTS / 2))
            .or_default()
            .push(k ^ key);
    }
    let mut sizes: Vec<(u64, usize)> = map.iter().map(|(k, v)| (*k, v.len())).collect();
    sizes.sort_unstable();
    sizes.iter().fold(acc, |h, &(k, n)| h ^ k ^ n as u64)
}

/// Kernel samples collected over one run.
#[derive(Default)]
pub struct Calibration {
    samples_ms: Vec<f64>,
}

impl Calibration {
    /// Runs one quiet window: [`REPS_PER_WINDOW`] timed kernel calls. The
    /// caller guarantees that the program under test is idle.
    pub fn window(&mut self) {
        let chase = chase_table();
        for _ in 0..REPS_PER_WINDOW {
            let t = Instant::now();
            black_box(kernel(chase));
            self.samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Number of kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    /// The run's median kernel time (raw host milliseconds).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    /// Factor that converts a measured duration into reference-host time.
    pub fn scale(&self) -> f64 {
        NOMINAL_KERNEL_MS / self.median_ms()
    }
}
