//! The frozen calibrator: five std-only kernels, one per level of the
//! memory hierarchy the pipeline leans on, timed on either side of every
//! block so that slow drift of the machine can be divided out.
//!
//! The kernels and their reference times are part of the benchmark's
//! definition.  Changing either changes every calibrated number, so it is
//! a change to the benchmark, never part of a change that claims a gain.

use crate::stats::geometric_mean;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Kernel names, in the order [`Calibrator::measure`] runs them.
pub const KERNELS: [&str; 5] = [
    "alu",
    "walk_2mib",
    "walk_16mib",
    "walk_64mib",
    "alloc_churn",
];

/// Milliseconds each kernel took on the box the benchmark was defined on
/// (2-core shared VM; rounded medians over six `calibrate` reports of 40
/// calibrations each, taken while its speed index wandered between 0.76
/// and 0.95 of these).  A speed index of 1.0 means "as fast as that".
pub const REFERENCE_MS: [f64; 5] = [102.0, 105.0, 130.0, 120.0, 110.0];

const ALU_STEPS: u64 = 50_000_000;
const WALK_STEPS: [usize; 3] = [6_000_000, 1_500_000, 800_000];
const WALK_MIB: [usize; 3] = [2, 16, 64];
const CHURN_KEYS: u64 = 300_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// One timing of the five kernels.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Measured milliseconds per kernel, in [`KERNELS`] order.
    pub kernel_ms: [f64; 5],
}

impl Calibration {
    /// Geometric mean of `reference ÷ measured` over the kernels: above 1
    /// when the machine is faster than the reference, below 1 when slower.
    pub fn speed_index(&self) -> f64 {
        speed_index(&self.kernel_ms, &REFERENCE_MS)
    }
}

/// [`Calibration::speed_index`] against explicit reference times.
pub fn speed_index(measured_ms: &[f64; 5], reference_ms: &[f64; 5]) -> f64 {
    let ratios: Vec<f64> = reference_ms
        .iter()
        .zip(measured_ms)
        .map(|(reference, measured)| reference / measured)
        .collect();
    geometric_mean(&ratios)
}

/// The factor a block's raw seconds are multiplied by: the mean of the
/// speed indices measured just before and just after it.
pub fn block_factor(before: &Calibration, after: &Calibration) -> f64 {
    (before.speed_index() + after.speed_index()) / 2.0
}

/// Owns the walk buffers, so they are faulted in once, before any timer.
pub struct Calibrator {
    walks: [Vec<u64>; 3],
}

impl Calibrator {
    /// Allocate and fault in the three walk buffers (82 MiB, resident for
    /// the whole run and therefore a constant part of `peak_rss_mb`).
    pub fn new() -> Self {
        Calibrator {
            walks: WALK_MIB.map(|mib| {
                let words = (mib << 20) / 8;
                (0..words as u64).map(|i| xorshift(i + 1)).collect()
            }),
        }
    }

    /// Time the five kernels once.
    pub fn measure(&mut self) -> Calibration {
        let mut kernel_ms = [0.0; 5];
        kernel_ms[0] = time_ms(|| alu(ALU_STEPS));
        for (level, buffer) in self.walks.iter_mut().enumerate() {
            kernel_ms[1 + level] = time_ms(|| walk(buffer, WALK_STEPS[level]));
        }
        kernel_ms[4] = time_ms(|| alloc_churn(CHURN_KEYS));
        Calibration { kernel_ms }
    }
}

fn time_ms(kernel: impl FnOnce() -> u64) -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_secs_f64() * 1e3
}

/// Pure ALU: a dependent xorshift chain that never leaves the registers.
fn alu(steps: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..steps {
        x = xorshift(x);
    }
    x
}

/// Dependent random read-modify-write walk: each step's address comes
/// from the word the previous step loaded, so the latency of the level
/// the buffer lives in cannot be hidden.
fn walk(buffer: &mut [u64], steps: usize) -> u64 {
    let mask = buffer.len() - 1;
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..steps {
        let word = buffer[at];
        acc = acc.wrapping_add(word);
        buffer[at] = xorshift(word);
        at = (word >> 11) as usize & mask;
    }
    acc
}

/// Allocator and container churn in the shape the pipeline produces:
/// hashing, ordered insertion, sorting and small-string formatting.
fn alloc_churn(keys: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut set = BTreeSet::new();
    let mut text = String::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for _ in 0..keys {
        x = xorshift(x);
        map.entry(x % (keys / 4)).or_default().push(x as u32);
        set.insert(x >> 20);
        text.clear();
        write!(text, "{:x}:{}", x, x % 65_536).expect("writing to a String");
        x ^= text.len() as u64;
    }
    let mut flat: Vec<u32> = map.into_values().flatten().collect();
    flat.sort_unstable();
    flat.len() as u64 + set.len() as u64 + u64::from(flat[flat.len() / 2])
}

/// `calibrate`: time the kernels forty times and print what a reference
/// taken on this machine, now, would be.
pub fn report() {
    let mut calibrator = Calibrator::new();
    let runs: Vec<Calibration> = (0..40).map(|_| calibrator.measure()).collect();
    for (k, name) in KERNELS.iter().enumerate() {
        let ms: Vec<f64> = runs.iter().map(|c| c.kernel_ms[k]).collect();
        println!(
            "{name:<12} median {:8.2} ms  cv {:5.1} %  (reference {:.2} ms)",
            crate::stats::median(&ms),
            crate::stats::cv(&ms) * 100.0,
            REFERENCE_MS[k]
        );
    }
    let indices: Vec<f64> = runs.iter().map(Calibration::speed_index).collect();
    println!(
        "speed index  median {:8.4}     cv {:5.1} %",
        crate::stats::median(&indices),
        crate::stats::cv(&indices) * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_index_is_the_geometric_mean_of_reference_over_measured() {
        let reference = [100.0, 200.0, 50.0, 80.0, 10.0];
        assert!((speed_index(&reference, &reference) - 1.0).abs() < 1e-12);
        // Twice as slow on every kernel: index one half.
        let slow = reference.map(|ms| ms * 2.0);
        assert!((speed_index(&slow, &reference) - 0.5).abs() < 1e-12);
        // One kernel four times faster, the others level: 4^(1/5).
        let mut mixed = reference;
        mixed[2] /= 4.0;
        assert!((speed_index(&mixed, &reference) - 4.0_f64.powf(0.2)).abs() < 1e-12);
    }

    #[test]
    fn a_block_is_scaled_by_the_mean_of_the_indices_around_it() {
        let level = Calibration {
            kernel_ms: REFERENCE_MS,
        };
        let slow = Calibration {
            kernel_ms: REFERENCE_MS.map(|ms| ms * 2.0),
        };
        assert!((block_factor(&level, &level) - 1.0).abs() < 1e-12);
        assert!((block_factor(&level, &slow) - 0.75).abs() < 1e-12);
        assert_eq!(block_factor(&level, &slow), block_factor(&slow, &level));
    }

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(alu(1_000), alu(1_000));
        let mut a: Vec<u64> = (0..1024).map(|i| xorshift(i + 1)).collect();
        let mut b = a.clone();
        assert_eq!(walk(&mut a, 5_000), walk(&mut b, 5_000));
        assert_eq!(a, b);
        assert_eq!(alloc_churn(4_000), alloc_churn(4_000));
    }
}
