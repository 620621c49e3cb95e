//! Sample summaries under the benchmark's percentile rule: every timing is
//! reported as its median plus the highest percentile that still has at
//! least [`MIN_BEYOND`] samples beyond it.

use std::time::Instant;

use crate::calib::{Reference, REFERENCE_NOMINAL_MS};

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, highest first. The top is p99, the tail
/// the paper-facing figures name; a higher one would change which
/// percentile a run reports as its op count crosses a threshold.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank index of percentile `pct` in `n` sorted samples.
pub fn rank(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    // the epsilon keeps float noise (99.9% of 10 000 = 9990.000000000002)
    // from bumping an exact rank up by one
    let r = (pct / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank percentile `pct`.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, pct)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] samples
/// beyond it; the median when even that is not supported.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median + supported tail of one sample set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

pub fn summarize(samples: &[f64]) -> Summary {
    summarize_up_to(samples, TAIL_CANDIDATES[0])
}

/// [`summarize`] with the tail held at or below `max_pct`, so that a
/// workload reports the same percentile whatever its op count.
pub fn summarize_up_to(samples: &[f64], max_pct: f64) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = tail_percentile(n).min(max_pct);
    Summary {
        n,
        p50: sorted[rank(n, 50.0)],
        tail: sorted[rank(n, tail_pct)],
        tail_pct,
    }
}

/// Median of a small set of repeated measurements (mean of the middle
/// pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How often, in wall-clock ms, the reference unit runs between operations.
const REFERENCE_EVERY_MS: u128 = 20;
/// Reference units on each side of an operation whose median sets its
/// speed factor.
const REFERENCE_WINDOW: usize = 5;

/// Wall-clock and on-CPU time of every operation of one measured pass,
/// with the reference unit's on-CPU time read between operations.
#[derive(Default)]
pub struct OpTimes {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    /// Work units done (graphs, deltas, requests), for the rate.
    units: f64,
    reference: Option<Reference>,
    last_reference: Option<Instant>,
    /// (operations recorded before it, its on-CPU ms) per reference unit.
    references: Vec<(usize, f64)>,
}

/// What a pass reports: summaries per operation of on-CPU time scaled to
/// the reference speed (the end-to-end figures), of raw on-CPU time and of
/// wall time, and work units per scaled CPU-second.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpFigures {
    pub scaled: Summary,
    pub cpu: Summary,
    pub wall: Summary,
    pub per_cpu_s: f64,
    /// Median on-CPU ms of the reference unit over the pass.
    pub reference_ms: f64,
}

impl OpFigures {
    /// One log line's worth: scaled figures, then raw CPU and wall.
    pub fn describe(&self, ops: &str, units: &str) -> String {
        format!(
            "{} {ops}: scaled on-CPU p50 {:.3} ms, p{} {:.3} ms, {:.1} {units} per CPU-second; \
             raw on-CPU p50 {:.3} ms, p{} {:.3} ms; wall p50 {:.3} ms, p{} {:.3} ms; \
             reference unit {:.3} ms on-CPU (nominal {REFERENCE_NOMINAL_MS})",
            self.scaled.n,
            self.scaled.p50,
            self.scaled.tail_pct,
            self.scaled.tail,
            self.per_cpu_s,
            self.cpu.p50,
            self.cpu.tail_pct,
            self.cpu.tail,
            self.wall.p50,
            self.wall.tail_pct,
            self.wall.tail,
            self.reference_ms,
        )
    }
}

impl OpTimes {
    /// Record one operation's `(wall ms, cpu ms)` and the units it did;
    /// then run the reference unit if it is due.
    pub fn record(&mut self, (wall_ms, cpu_ms): (f64, f64), units: f64) {
        self.wall_ms.push(wall_ms);
        self.cpu_ms.push(cpu_ms);
        self.units += units;
        if self
            .last_reference
            .is_none_or(|t| t.elapsed().as_millis() >= REFERENCE_EVERY_MS)
        {
            let ms = self.reference.get_or_insert_with(Reference::new).unit();
            self.references.push((self.cpu_ms.len(), ms));
            self.last_reference = Some(Instant::now());
        }
    }

    /// Each operation's on-CPU ms scaled to the reference speed: times the
    /// nominal reference time over the median of the reference units read
    /// around it.
    fn scaled_ms(&self) -> Vec<f64> {
        let at: Vec<usize> = self.references.iter().map(|r| r.0).collect();
        self.cpu_ms
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                let j = at.partition_point(|&n| n <= i);
                let window: Vec<f64> = self.references
                    [j.saturating_sub(REFERENCE_WINDOW)..(j + REFERENCE_WINDOW).min(at.len())]
                    .iter()
                    .map(|r| r.1)
                    .collect();
                let local = median(&window);
                if local > 0.0 {
                    ms * REFERENCE_NOMINAL_MS / local
                } else {
                    ms
                }
            })
            .collect()
    }

    /// Figures with the tail at the highest supported percentile up to
    /// `max_tail_pct`.
    pub fn figures(&self, max_tail_pct: f64) -> OpFigures {
        let scaled = self.scaled_ms();
        let scaled_s = scaled.iter().sum::<f64>() / 1e3;
        let reference: Vec<f64> = self.references.iter().map(|r| r.1).collect();
        OpFigures {
            scaled: summarize_up_to(&scaled, max_tail_pct),
            cpu: summarize_up_to(&self.cpu_ms, max_tail_pct),
            wall: summarize_up_to(&self.wall_ms, max_tail_pct),
            per_cpu_s: if scaled_s > 0.0 {
                self.units / scaled_s
            } else {
                0.0
            },
            reference_ms: median(&reference),
        }
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_tail_has_ten_samples_beyond_it() {
        for n in 21..20_000 {
            let pct = tail_percentile(n);
            assert!(beyond(n, pct) >= MIN_BEYOND, "n={n} p{pct}");
            // and it is the highest candidate that qualifies
            if let Some(&higher) = TAIL_CANDIDATES.iter().rev().find(|&&p| p > pct) {
                assert!(
                    beyond(n, higher) < MIN_BEYOND,
                    "n={n}: p{higher} also qualifies"
                );
            }
        }
    }

    #[test]
    fn tail_steps_up_with_sample_count() {
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn summary_reads_sorted_ranks() {
        let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn op_times_summarize_cpu_and_rate() {
        let mut t = OpTimes::default();
        for i in 1..=1_000 {
            // the wall clock also counts a stolen stretch on every tenth op
            let cpu = f64::from(i) / 1_000.0;
            let wall = if i % 10 == 0 { cpu + 5.0 } else { cpu };
            t.record((wall, cpu), 2.0);
        }
        let f = t.figures(99.0);
        assert_eq!(f.cpu.n, 1_000);
        assert_eq!(f.cpu.p50, 0.5);
        assert_eq!(f.cpu.tail_pct, 99.0);
        assert_eq!(f.cpu.tail, 0.99);
        assert!(f.wall.tail > 5.0);
        // the first op is always followed by a reference unit
        assert!(!t.references.is_empty() && f.reference_ms > 0.0);
        assert_eq!(f.scaled.n, 1_000);
        assert!(f.per_cpu_s > 0.0);
        assert_eq!(t.figures(95.0).cpu.tail_pct, 95.0);
        assert_eq!(t.figures(95.0).cpu.tail, 0.95);
        assert_eq!(OpTimes::default().figures(99.0).per_cpu_s, 0.0);
    }

    #[test]
    fn scaling_follows_the_nearby_reference_units() {
        let mut t = OpTimes::default();
        // ten ops at 1 ms on a host at nominal speed, then ten at 2 ms on
        // one at half speed
        t.cpu_ms = [1.0; 10].into_iter().chain([2.0; 10]).collect();
        t.wall_ms = t.cpu_ms.clone();
        t.units = 20.0;
        t.references = (0..=20)
            .map(|i| {
                let nominal = if i <= 10 { 1.0 } else { 2.0 };
                (i, nominal * REFERENCE_NOMINAL_MS)
            })
            .collect();
        let scaled = t.scaled_ms();
        assert_eq!(scaled.len(), 20);
        assert!((scaled[0] - 1.0).abs() < 1e-12, "{scaled:?}");
        assert!((scaled[19] - 1.0).abs() < 1e-12, "{scaled:?}");
        let f = t.figures(99.0);
        assert!((f.per_cpu_s - 1_000.0).abs() < 200.0, "{}", f.per_cpu_s);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
