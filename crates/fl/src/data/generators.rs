//! Deterministic dataset generators with the profiles of the paper's
//! evaluation datasets (Table II).
//!
//! | Dataset   | Instances | Features  | Character        |
//! |-----------|-----------|-----------|------------------|
//! | RCV1      | 677,399   | 47,236    | sparse text      |
//! | Avazu     | 1,719,304 | 1,000,000 | very sparse CTR  |
//! | Synthetic | 100,000   | 10,000    | dense (LEAF)     |
//!
//! Each generator plants a sparse ground-truth linear concept and labels
//! instances by a noisy sigmoid threshold, so logistic models converge
//! and convergence-bias measurements (paper Table VII) are meaningful.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{Dataset, SparseRow};

/// Declarative description of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Base name; the scale is appended to the generated dataset's name.
    pub name: &'static str,
    /// Instance count at scale 1.0.
    pub instances: usize,
    /// Feature dimension (not scaled — geometry drives the experiments).
    pub features: usize,
    /// Mean non-zeros per row.
    pub nnz_per_row: usize,
    /// Label-noise rate.
    pub label_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// RCV1 profile (text categorization; ~0.16% density).
    pub fn rcv1() -> Self {
        DatasetSpec {
            name: "rcv1-like",
            instances: 677_399,
            features: 47_236,
            nnz_per_row: 76,
            label_noise: 0.02,
            seed: 0x5CB1,
        }
    }

    /// Avazu profile (click-through-rate; ~0.002% density, hashed
    /// categorical features with unit values).
    pub fn avazu() -> Self {
        DatasetSpec {
            name: "avazu-like",
            instances: 1_719_304,
            features: 1_000_000,
            nnz_per_row: 21,
            label_noise: 0.05,
            seed: 0xAA2A,
        }
    }

    /// LEAF-Synthetic profile (dense classification).
    pub fn synthetic() -> Self {
        DatasetSpec {
            name: "synthetic-leaf",
            instances: 100_000,
            features: 10_000,
            nnz_per_row: 10_000, // dense
            label_noise: 0.01,
            seed: 0x5E17,
        }
    }

    /// All three specs in the paper's order.
    pub fn all() -> [DatasetSpec; 3] {
        [Self::rcv1(), Self::avazu(), Self::synthetic()]
    }

    /// Generates the dataset scaled to `scale · instances` rows
    /// (`0 < scale <= 1`), with at least 8 rows.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "two floors of non-negative f64s: the row count `instances · scale` and a \
                  feature index `u² · features` below `features`"
    )]
    pub fn generate(&self, scale: f64) -> Dataset {
        // Documented parameter range.
        // flcheck: allow(pf-assert)
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.instances as f64 * scale) as usize).max(8);
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        // Planted concept: a sparse weight vector over a "relevant" subset
        // of features so sparse rows still usually touch signal.
        let relevant = (self.features / 10).clamp(8, 4096);
        let concept: Vec<(u32, f64)> = (0..relevant)
            .map(|i| {
                let idx = crate::count_u32(i * self.features / relevant);
                (idx, rng.gen_range(-2.0..2.0))
            })
            .collect();
        // Ordered map: the planted concept feeds labels (result content),
        // so lookups — and any future iteration — must be hash-order-free.
        let concept_dense: std::collections::BTreeMap<u32, f64> = concept.into_iter().collect();

        let dense = self.nnz_per_row >= self.features;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let row = if dense {
                SparseRow::new(
                    (0..crate::count_u32(self.features)).collect(),
                    (0..self.features)
                        .map(|_| rng.gen_range(-1.0..1.0))
                        .collect(),
                )
            } else {
                // Sample distinct indices; geometric-ish skew toward low
                // indices mimics term-frequency distributions.
                let mut idx: Vec<u32> = (0..self.nnz_per_row)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        ((u * u) * self.features as f64) as u32
                    })
                    .collect();
                idx.sort_unstable();
                idx.dedup();
                let values = idx.iter().map(|_| rng.gen_range(0.1..1.0)).collect();
                SparseRow::new(idx, values)
            };

            let margin: f64 = row
                .indices
                .iter()
                .zip(&row.values)
                .filter_map(|(i, v)| concept_dense.get(i).map(|w| w * v))
                .sum();
            let p = 1.0 / (1.0 + (-margin).exp());
            let mut label = if p > 0.5 { 1.0 } else { 0.0 };
            if rng.gen::<f64>() < self.label_noise {
                label = 1.0 - label;
            }
            rows.push(row);
            labels.push(label);
        }

        Dataset {
            name: format!("{}@{scale}", self.name),
            num_features: self.features,
            rows,
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_table2_shapes() {
        let r = DatasetSpec::rcv1();
        assert_eq!(r.features, 47_236);
        assert_eq!(r.instances, 677_399);
        let a = DatasetSpec::avazu();
        assert_eq!(a.features, 1_000_000);
        let s = DatasetSpec::synthetic();
        assert_eq!(s.features, 10_000);
        assert_eq!(s.nnz_per_row, s.features);
    }

    #[test]
    fn generation_is_deterministic() {
        let d1 = DatasetSpec::rcv1().generate(0.0005);
        let d2 = DatasetSpec::rcv1().generate(0.0005);
        assert_eq!(d1.rows.len(), d2.rows.len());
        assert_eq!(d1.rows[0], d2.rows[0]);
        assert_eq!(d1.labels, d2.labels);
    }

    #[test]
    fn scale_controls_instances() {
        let spec = DatasetSpec::synthetic();
        let small = spec.generate(0.001);
        assert_eq!(small.len(), 100);
        assert_eq!(small.num_features, 10_000);
    }

    #[test]
    fn sparse_rows_have_expected_density() {
        let d = DatasetSpec::rcv1().generate(0.001);
        let mean = d.mean_nnz();
        assert!(mean > 30.0 && mean < 80.0, "mean nnz {mean}");
        assert!(d.density() < 0.01);
    }

    #[test]
    fn dense_rows_are_full() {
        let d = DatasetSpec::synthetic().generate(0.0002);
        assert_eq!(d.rows[0].nnz(), 10_000);
        assert!((d.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn labels_are_binary_and_balancedish() {
        let d = DatasetSpec::synthetic().generate(0.002);
        assert!(d.labels.iter().all(|&l| l == 0.0 || l == 1.0));
        let rate = d.positive_rate();
        assert!(rate > 0.15 && rate < 0.85, "positive rate {rate}");
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        DatasetSpec::rcv1().generate(0.0);
    }
}
