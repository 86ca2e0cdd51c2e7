//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose cores change speed every few
//! seconds, each on its own: the same single-threaded op can take 1.5×
//! longer on a core whose host neighbour is busy, with nothing in the
//! program or its inputs changed. Every run therefore brackets each op (and
//! each set-up) with a fixed reference kernel, and reports the op's time
//! scaled to the reference host: multiplied by [`REFERENCE_MS`] over the
//! mean kernel time measured right before and right after it. The kernel
//! runs on as many threads at once as the workload keeps busy, so it sees
//! the cores the op ran on. It is part of the benchmark, not of the
//! program: a change to the program leaves it as it is and moves only the
//! op times.
//!
//! The kernel does the kind of work the program does: bit-parallel word
//! operations over a cache-resident plane, ordered-map updates and short
//! string building and sorting.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use crate::stats;

/// Kernel time on the reference host (a 2-vCPU Intel Xeon at 2.1 GHz, on
/// an uncontended core), in ms. Scaled times are what that host measures
/// in its fast state.
pub const REFERENCE_MS: f64 = 0.6;

/// What [`kernel`] returns; a different value means a miscompiled kernel.
const CHECKSUM: u64 = 3_442_025_169_743_372_323;

/// Share of each measured span the kernel runs for right after it.
const SHARE: f64 = 0.1;

const WORDS: usize = 4096;
const ROUNDS: usize = 48;

/// The fixed reference work. Returns a checksum of it.
pub fn kernel() -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut words: Vec<u64> = (0..WORDS)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        for i in 0..WORDS {
            let a = words[i];
            let b = words[(i * 7 + round) % WORDS];
            let mixed = (a & !b) ^ b.rotate_left(round as u32 + 1) ^ (a >> 3);
            words[i] = mixed;
            if mixed.count_ones() > 32 {
                acc = acc.wrapping_add(mixed);
            } else {
                acc ^= mixed.rotate_right(7);
            }
        }
    }
    let mut buckets: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &word) in words.iter().enumerate() {
        *buckets.entry(word % 509).or_default() += i as u64;
    }
    let mut keys: Vec<String> = buckets
        .iter()
        .map(|(key, value)| format!("{key}:{value}"))
        .collect();
    keys.sort();
    acc ^ keys.len() as u64 ^ keys.iter().map(|key| key.len() as u64).sum::<u64>()
}

/// Kernel timings taken during one run.
#[derive(Debug)]
pub struct Calibration {
    /// Kernels run at once per sample.
    threads: usize,
    samples_ms: Vec<f64>,
    /// Whether a kernel call returned something else than [`CHECKSUM`].
    mismatch: bool,
}

/// Runs the kernel once and returns its time in ms and its checksum.
fn timed_kernel() -> (f64, u64) {
    let started = Instant::now();
    let checksum = black_box(kernel());
    (started.elapsed().as_secs_f64() * 1e3, checksum)
}

impl Calibration {
    pub fn new(threads: usize) -> Calibration {
        Calibration {
            threads: threads.max(1),
            samples_ms: Vec::new(),
            mismatch: false,
        }
    }

    /// One sample: the kernel on every thread at once, their mean time.
    fn sample(&mut self) -> f64 {
        let runs: Vec<(f64, u64)> = if self.threads == 1 {
            vec![timed_kernel()]
        } else {
            thread::scope(|scope| {
                let others: Vec<_> = (1..self.threads)
                    .map(|_| scope.spawn(timed_kernel))
                    .collect();
                let mut runs = vec![timed_kernel()];
                runs.extend(others.into_iter().map(|handle| {
                    handle
                        .join()
                        .expect("the calibration kernel does not panic")
                }));
                runs
            })
        };
        self.mismatch |= runs.iter().any(|&(_, checksum)| checksum != CHECKSUM);
        let ms = runs.iter().map(|&(ms, _)| ms).sum::<f64>() / runs.len() as f64;
        self.samples_ms.push(ms);
        ms
    }

    /// Runs the kernel right after a measured span of `measured_ms`, for
    /// [`SHARE`] of it and at least once, and returns the median kernel
    /// time of these samples: the host speed the span ran at.
    pub fn follow(&mut self, measured_ms: f64) -> f64 {
        let mut samples = vec![self.sample()];
        while samples.iter().sum::<f64>() < SHARE * measured_ms {
            samples.push(self.sample());
        }
        stats::median(&samples)
    }

    /// `ms`, measured at kernel time `kernel_ms`, scaled to the reference
    /// host.
    pub fn scaled(ms: f64, kernel_ms: f64) -> f64 {
        ms * REFERENCE_MS / kernel_ms
    }

    /// The median kernel time of this run, in ms; samples once first if
    /// nothing was sampled yet.
    pub fn median_ms(&mut self) -> f64 {
        if self.samples_ms.is_empty() {
            self.sample();
        }
        stats::median(&self.samples_ms)
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }

    pub fn checksum_ok(&self) -> bool {
        !self.mismatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_checksum_is_pinned() {
        assert_eq!(kernel(), CHECKSUM);
    }
}
