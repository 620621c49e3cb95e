//! The reference unit: a fixed piece of work, independent of the repo's
//! crates, whose on-CPU time reads the host's current speed.
//!
//! On a shared virtual machine the same code runs faster or slower from
//! one stretch of seconds to the next, with steal left out of CPU time
//! too: neighbours share the caches and the cores' power state, and an idle
//! vCPU is slow to wake. The measured loops run one unit between
//! operations every few ms, and each operation's on-CPU time is scaled by
//! the nominal unit time over the unit times read around it
//! ([`crate::stats::OpTimes`]). The unit mixes what inference does: a dense
//! f32 product at a serving shape, ordered-map lookups and a sort. A change
//! to the program cannot move it.

use std::collections::BTreeMap;

use crate::cpu::Stamp;

/// On-CPU ms of one unit on an idle 2-vCPU Xeon VM: the speed every scaled
/// time is expressed at.
pub const REFERENCE_NOMINAL_MS: f64 = 0.4;

const ROWS: usize = 16;
const INNER: usize = 300;
const COLS: usize = 64;
const KEYS: usize = 1_024;

pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
    map: BTreeMap<u64, u64>,
    keys: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        // xorshift: fixed contents, no dependency on the program's RNG
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let a = (0..ROWS * INNER)
            .map(|_| (next() % 1_000) as f32 / 1e3)
            .collect();
        let b = (0..INNER * COLS)
            .map(|_| (next() % 1_000) as f32 / 1e3)
            .collect();
        let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
        let map = keys.iter().map(|&k| (k, k ^ 0xff)).collect();
        Self {
            a,
            b,
            out: vec![0.0; ROWS * COLS],
            map,
            keys,
        }
    }

    /// Run one unit; returns its on-CPU ms.
    pub fn unit(&mut self) -> f64 {
        let start = Stamp::now();
        for i in 0..ROWS {
            for j in 0..COLS {
                let mut acc = 0.0f32;
                for k in 0..INNER {
                    acc += self.a[i * INNER + k] * self.b[k * COLS + j];
                }
                self.out[i * COLS + j] = acc;
            }
        }
        std::hint::black_box(&self.out);
        let mut hits = 0u64;
        for k in self.keys.iter().step_by(2) {
            hits = hits.wrapping_add(self.map.get(k).copied().unwrap_or(0));
        }
        let mut sorted = self.keys.clone();
        sorted.sort_unstable();
        std::hint::black_box((hits, sorted));
        start.elapsed().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_takes_time_and_keeps_its_result() {
        let mut r = Reference::new();
        let first = r.unit();
        assert!(first > 0.0);
        let out = r.out.clone();
        r.unit();
        assert_eq!(out, r.out, "the unit's work is fixed");
    }
}
