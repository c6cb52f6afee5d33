//! Sparse dataset representation.

#![expect(
    clippy::indexing_slicing,
    reason = "feature indices are validated against the dataset's `num_features` at \
              construction; dense buffers are sized to it"
)]

/// One instance: sorted feature indices with values (CSR-style row).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRow {
    /// Sorted, unique feature indices.
    pub indices: Vec<u32>,
    /// Values aligned with [`SparseRow::indices`].
    pub values: Vec<f64>,
}

impl SparseRow {
    /// An empty row.
    pub fn empty() -> Self {
        SparseRow {
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a row, asserting indices are sorted and aligned.
    pub fn new(indices: Vec<u32>, values: Vec<f64>) -> Self {
        // Documented constructor contract (misalignment is data corruption).
        // flcheck: allow(pf-assert)
        assert_eq!(indices.len(), values.len(), "indices/values must align");
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be sorted unique"
        );
        SparseRow { indices, values }
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Dot product with a dense weight vector.
    pub fn dot(&self, weights: &[f64]) -> f64 {
        self.indices
            .iter()
            .zip(&self.values)
            .map(|(&i, &v)| v * weights[i as usize])
            .sum()
    }

    /// `out[i] += scale * self[i]` (scatter-add into a dense vector).
    pub fn axpy_into(&self, scale: f64, out: &mut [f64]) {
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] += scale * v;
        }
    }

    /// Restricts the row to the feature range `[lo, hi)`, re-basing
    /// indices to start at zero — used by the vertical partitioner.
    pub fn slice_features(&self, lo: u32, hi: u32) -> SparseRow {
        let start = self.indices.partition_point(|&i| i < lo);
        let end = self.indices.partition_point(|&i| i < hi);
        SparseRow {
            indices: self.indices[start..end].iter().map(|&i| i - lo).collect(),
            values: self.values[start..end].to_vec(),
        }
    }
}

/// A labeled dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name ("rcv1-like@0.01", ...).
    pub name: String,
    /// Feature-space dimension.
    pub num_features: usize,
    /// Instances.
    pub rows: Vec<SparseRow>,
    /// Binary labels in {0.0, 1.0}, aligned with rows.
    pub labels: Vec<f64>,
}

impl Dataset {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Mean non-zeros per row.
    pub fn mean_nnz(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.nnz()).sum::<usize>() as f64 / self.rows.len() as f64
    }

    /// Density: mean nnz / num_features.
    pub fn density(&self) -> f64 {
        if self.num_features == 0 {
            0.0
        } else {
            self.mean_nnz() / self.num_features as f64
        }
    }

    /// Fraction of positive labels.
    pub fn positive_rate(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().sum::<f64>() / self.labels.len() as f64
    }

    /// Yields batch index ranges of `batch_size` (last may be short).
    pub fn batches(&self, batch_size: usize) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let n = self.len();
        let bs = batch_size.max(1);
        (0..n.div_ceil(bs)).map(move |b| (b * bs)..(((b + 1) * bs).min(n)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> SparseRow {
        SparseRow::new(vec![0, 3, 7], vec![1.0, 2.0, -1.0])
    }

    #[test]
    fn dot_and_axpy() {
        let w = vec![0.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0];
        assert_eq!(row().dot(&w), 0.5 + 4.0 - 1.0);
        let mut out = vec![0.0; 8];
        row().axpy_into(2.0, &mut out);
        assert_eq!(out[0], 2.0);
        assert_eq!(out[3], 4.0);
        assert_eq!(out[7], -2.0);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn slice_features_rebases() {
        let s = row().slice_features(3, 8);
        assert_eq!(s.indices, vec![0, 4]);
        assert_eq!(s.values, vec![2.0, -1.0]);
        let empty = row().slice_features(8, 100);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn batches_cover_everything() {
        let d = Dataset {
            name: "t".into(),
            num_features: 4,
            rows: vec![SparseRow::empty(); 10],
            labels: vec![0.0; 10],
        };
        let ranges: Vec<_> = d.batches(4).collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn stats() {
        let d = Dataset {
            name: "t".into(),
            num_features: 8,
            rows: vec![row(), SparseRow::empty()],
            labels: vec![1.0, 0.0],
        };
        assert_eq!(d.mean_nnz(), 1.5);
        assert_eq!(d.density(), 1.5 / 8.0);
        assert_eq!(d.positive_rate(), 0.5);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_row_panics() {
        SparseRow::new(vec![1], vec![]);
    }
}
