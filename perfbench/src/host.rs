//! Host diagnostics and the seeded input generator.
//!
//! The host-speed probe times one fixed pure-CPU kernel. It is evidence
//! for steadiness reports only: no metric is scaled, filtered or dropped
//! because of it.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration kernel (tens of milliseconds on a
/// server-class core).
const CALIB_ITERS: u64 = 40_000_000;

/// Milliseconds one run of the fixed calibration kernel takes now.
pub fn calib_ms() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Entries of the memory probe's permutation (32 MiB of `u32`).
const MEM_ENTRIES: usize = 8 << 20;
/// Dependent loads the memory probe times.
const MEM_LOADS: usize = 1_000_000;

/// Milliseconds for a fixed chain of dependent loads through a 32 MiB
/// random cyclic permutation: the host's memory latency now. Shared hosts
/// can be fast on [`calib_ms`] while memory access is contended, so both
/// are reported. Allocates 32 MiB: call it after reading the peak RSS.
pub fn mem_probe_ms() -> f64 {
    // Sattolo's algorithm: one cycle through every entry.
    let mut next: Vec<u32> = (0..MEM_ENTRIES as u32).collect();
    let mut rng = Rng::new(0x3e3);
    for i in (1..MEM_ENTRIES).rev() {
        let j = rng.below(i as u64) as usize;
        next.swap(i, j);
    }
    let started = Instant::now();
    let mut p = 0u32;
    for _ in 0..MEM_LOADS {
        p = next[p as usize];
    }
    black_box(p);
    started.elapsed().as_secs_f64() * 1e3
}

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
