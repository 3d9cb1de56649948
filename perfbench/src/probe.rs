//! Machine-speed probe: a fixed kernel that calls none of the program's
//! code, timed before and after every timed operation.
//!
//! On a shared host the same pass takes up to 1.9× longer while the
//! neighbours are busy, for minutes at a time, and the probe slows down by
//! about the same factor. Scaling an operation's time by the probe's time
//! around it removes the host's state and keeps the program's cost. A
//! change to the program cannot move the probe, so it cannot hide a
//! regression.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::SplitMix;

/// Entries of the chased table: 256 KiB of `u32`, the size of a core's
/// private cache, where the passes' working sets mostly live.
const TABLE: usize = 1 << 16;

/// Dependent loads (each with a square root) per kernel run, about 5 ms.
const STEPS: usize = 1 << 20;

/// Kernel runs per probe. The probe reports the fastest, so a run that
/// the scheduler interrupts does not count.
const RUNS: usize = 3;

/// The probe's time, in seconds, on the reference machine (a 2-vCPU
/// Intel Xeon VM while its host is idle). An operation's time scaled by
/// this over the probe's time around it is its time on that machine.
const REFERENCE_S: f64 = 0.005;

/// A random single-cycle permutation, chased one load at a time.
struct Probe {
    next: Vec<u32>,
}

impl Probe {
    fn new() -> Self {
        // Sattolo's shuffle: one cycle through every entry.
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut rng = SplitMix::new(0x70b3);
        for i in (1..TABLE).rev() {
            next.swap(i, rng.below(i));
        }
        Probe { next }
    }

    /// Seconds of the fastest of [`RUNS`] runs of the kernel.
    fn run(&self) -> f64 {
        (0..RUNS)
            .map(|_| {
                let start = Instant::now();
                let (mut i, mut acc) = (0usize, 0.0f64);
                for _ in 0..STEPS {
                    i = self.next[i] as usize;
                    acc += (i as f64).sqrt();
                }
                black_box(acc);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Scales a sequence of timed operations to the reference machine's
/// speed, probing between them.
pub struct Scaler {
    probe: Probe,
    last: f64,
}

impl Scaler {
    /// Builds the probe and runs it once, ahead of the first operation.
    pub fn new() -> Self {
        let probe = Probe::new();
        let last = probe.run();
        Scaler { probe, last }
    }

    /// `secs` of the operation that just ended, at the reference speed:
    /// times [`REFERENCE_S`] over the mean of the probe before the
    /// operation and one run now.
    pub fn scale(&mut self, secs: f64) -> f64 {
        let before = self.last;
        self.last = self.probe.run();
        secs * REFERENCE_S / (0.5 * (before + self.last))
    }
}
