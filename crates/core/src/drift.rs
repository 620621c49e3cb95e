//! Drifting-interaction-pattern detection (Algorithm 3).
//!
//! In the ITGNN-C contrastive latent space: per class, compute the centroid
//! and the median absolute deviation (MAD) of distances to it; a test sample
//! whose normalized deviation exceeds `T_MAD` for *every* class is drifting.

use glint_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// The empirical threshold from the paper (Leys et al.).
pub const T_MAD: f64 = 3.0;

/// Per-class statistics of the latent space.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ClassStats {
    centroid: Vec<f32>,
    median_dist: f64,
    mad: f64,
}

/// Fitted drift detector (Algorithm 3).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DriftDetector {
    classes: Vec<ClassStats>,
    pub threshold: f64,
}

fn dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

fn median(sorted: &mut [f64]) -> f64 {
    // total_cmp: NaNs sort to the end instead of panicking; callers filter
    // them out, but a panic inside a detector is never the right failure mode
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

impl DriftDetector {
    /// Fit on training embeddings (`n × d`) with binary labels.
    pub fn fit(embeddings: &Matrix, labels: &[usize]) -> Self {
        assert_eq!(embeddings.rows(), labels.len());
        let n_classes = labels.iter().copied().max().map_or(1, |m| m + 1);
        let mut classes = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            // a non-finite embedding (a NaN that leaked out of training)
            // must not poison the centroid or the distance statistics
            let rows: Vec<usize> = (0..labels.len())
                .filter(|&i| labels[i] == c && embeddings.row(i).iter().all(|v| v.is_finite()))
                .collect();
            assert!(!rows.is_empty(), "class {c} has no finite training samples");
            // centroid (Algorithm 3 line 3's mean of latent representations)
            let mut centroid = vec![0.0f32; embeddings.cols()];
            for &i in &rows {
                for (acc, &v) in centroid.iter_mut().zip(embeddings.row(i)) {
                    *acc += v;
                }
            }
            let inv = 1.0 / rows.len() as f32;
            centroid.iter_mut().for_each(|v| *v *= inv);
            // distances, median, MAD (lines 5–9)
            let mut dists: Vec<f64> = rows
                .iter()
                .map(|&i| dist(embeddings.row(i), &centroid))
                .collect();
            let med = median(&mut dists);
            let mut devs: Vec<f64> = dists.iter().map(|d| (d - med).abs()).collect();
            let mad = median(&mut devs).max(1e-9);
            classes.push(ClassStats {
                centroid,
                median_dist: med,
                mad,
            });
        }
        Self {
            classes,
            threshold: T_MAD,
        }
    }

    /// Drifting degree of one embedding: `min_i (d_i − median_i)⁺ / MAD_i`
    /// (lines 10–15). One-sided: only *outward* deviation counts — a sample
    /// closer to a centroid than the typical training point is squarely
    /// in-distribution, and the symmetric |·| of the paper's Algorithm 3
    /// would mislabel it.
    pub fn drift_degree(&self, embedding: &[f32]) -> f64 {
        self.classes
            .iter()
            .map(|c| {
                let d = dist(embedding, &c.centroid);
                if !d.is_finite() {
                    // NaN/Inf embeddings are maximally out-of-distribution;
                    // without this, NaN.max(0.0) silently evaluates to 0.0
                    // and the sample would pass as perfectly in-distribution
                    return f64::INFINITY;
                }
                (d - c.median_dist).max(0.0) / c.mad
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Is the sample drifting (degree beyond the threshold for every class)?
    pub fn is_drifting(&self, embedding: &[f32]) -> bool {
        self.drift_degree(embedding) > self.threshold
    }

    /// Batch query: indices and degrees of drifting samples, in input row
    /// order. Rows are scored serially: one degree is a fraction of a
    /// microsecond, far below the cost of starting worker threads.
    pub fn detect(&self, embeddings: &Matrix) -> Vec<(usize, f64)> {
        (0..embeddings.rows())
            .map(|i| (i, self.drift_degree(embeddings.row(i))))
            .filter(|&(_, deg)| deg > self.threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two tight clusters at (0,0) and (10,0); drifters far away.
    fn fixture() -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            rows.push(vec![
                rng.gen_range(-0.5f32..0.5),
                rng.gen_range(-0.5f32..0.5),
            ]);
            labels.push(0);
        }
        for _ in 0..60 {
            rows.push(vec![
                10.0 + rng.gen_range(-0.5f32..0.5),
                rng.gen_range(-0.5f32..0.5),
            ]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn in_distribution_samples_pass() {
        let (x, y) = fixture();
        let det = DriftDetector::fit(&x, &y);
        assert!(!det.is_drifting(&[0.1, 0.1]));
        assert!(!det.is_drifting(&[9.9, -0.2]));
    }

    #[test]
    fn far_samples_drift() {
        let (x, y) = fixture();
        let det = DriftDetector::fit(&x, &y);
        assert!(
            det.is_drifting(&[5.0, 30.0]),
            "degree {}",
            det.drift_degree(&[5.0, 30.0])
        );
        assert!(det.is_drifting(&[-50.0, 0.0]));
    }

    #[test]
    fn degree_monotone_in_distance() {
        let (x, y) = fixture();
        let det = DriftDetector::fit(&x, &y);
        let d1 = det.drift_degree(&[0.0, 5.0]);
        let d2 = det.drift_degree(&[0.0, 15.0]);
        assert!(d2 > d1);
    }

    #[test]
    fn batch_detection_counts() {
        let (x, y) = fixture();
        let det = DriftDetector::fit(&x, &y);
        let mut all = x.clone();
        // append two drifters
        all = all.concat_rows(&Matrix::from_rows(&[vec![5.0, 40.0], vec![-40.0, 5.0]]));
        let hits = det.detect(&all);
        let drifted: Vec<usize> = hits.iter().map(|(i, _)| *i).collect();
        assert!(drifted.contains(&120) && drifted.contains(&121));
        // the vast majority of the training distribution passes
        assert!(hits.len() <= 8, "too many false drifts: {}", hits.len());
    }

    #[test]
    fn nan_training_row_does_not_poison_fit() {
        let (x, y) = fixture();
        let clean = DriftDetector::fit(&x, &y);
        // append a NaN embedding labeled class 0: fit must neither panic
        // (median once sorted with partial_cmp().unwrap()) nor shift stats
        let mut polluted = x.concat_rows(&Matrix::from_rows(&[vec![f32::NAN, 0.0]]));
        let mut y2 = y.clone();
        y2.push(0);
        let det = DriftDetector::fit(&polluted, &y2);
        for p in [[0.1f32, 0.1], [9.9, -0.2], [5.0, 30.0]] {
            assert_eq!(clean.drift_degree(&p), det.drift_degree(&p));
        }
        polluted.set(x.rows(), 0, f32::INFINITY);
        let det_inf = DriftDetector::fit(&polluted, &y2);
        assert_eq!(
            clean.drift_degree(&[0.1, 0.1]),
            det_inf.drift_degree(&[0.1, 0.1])
        );
    }

    #[test]
    fn non_finite_queries_always_drift() {
        let (x, y) = fixture();
        let det = DriftDetector::fit(&x, &y);
        assert!(det.is_drifting(&[f32::NAN, 0.0]));
        assert!(det.is_drifting(&[0.0, f32::INFINITY]));
        assert_eq!(det.drift_degree(&[f32::NAN, f32::NAN]), f64::INFINITY);
        // batch path flags them too
        let all = x.concat_rows(&Matrix::from_rows(&[vec![f32::NAN, 0.0]]));
        let hits = det.detect(&all);
        assert!(hits
            .iter()
            .any(|&(i, d)| i == x.rows() && d == f64::INFINITY));
    }

    #[test]
    fn degenerate_identical_class_handled() {
        // all class-0 points identical → MAD 0 → guarded by epsilon
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0], vec![5.0], vec![6.0]]);
        let y = vec![0, 0, 0, 1, 1];
        let det = DriftDetector::fit(&x, &y);
        assert!(det.drift_degree(&[1.0]).is_finite());
        assert!(det.is_drifting(&[100.0]));
    }
}
