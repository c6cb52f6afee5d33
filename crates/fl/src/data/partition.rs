//! Federated partitioning (paper Sec. VI-A, "Benchmark FL Models").
//!
//! > "For the homogeneous model, we horizontally divide three datasets
//! > into subsets of the same number of data instances where each
//! > participant shares the same feature space but is different in
//! > samples. For heterogeneous models, we vertically divide three
//! > datasets into subsets of the same number of features, where each
//! > participant shares the same sample ID space but differs in feature
//! > space."

use super::{Dataset, SparseRow};

/// Splits rows round-robin into `parts` horizontally-partitioned
/// datasets (same features, disjoint instances).
pub fn horizontal_split(dataset: &Dataset, parts: u32) -> Vec<Dataset> {
    // Documented precondition: zero participants is a config error.
    // flcheck: allow(pf-assert)
    assert!(parts >= 1, "at least one participant");
    let parts = parts as usize;
    let mut out: Vec<Dataset> = (0..parts)
        .map(|k| Dataset {
            name: format!("{}#h{k}", dataset.name),
            num_features: dataset.num_features,
            rows: Vec::with_capacity(dataset.len() / parts + 1),
            labels: Vec::with_capacity(dataset.len() / parts + 1),
        })
        .collect();
    #[expect(
        clippy::indexing_slicing,
        reason = "k = i % parts < parts = out.len() by construction"
    )]
    for (i, (row, &label)) in dataset.rows.iter().zip(&dataset.labels).enumerate() {
        let k = i % parts;
        out[k].rows.push(row.clone());
        out[k].labels.push(label);
    }
    out
}

/// One participant's vertical shard: a contiguous feature range of every
/// instance. Labels live only with the *active* party (shard 0).
#[derive(Debug, Clone)]
pub struct VerticalShard {
    /// Shard name.
    pub name: String,
    /// Global feature range `[lo, hi)` this shard owns.
    pub feature_range: (u32, u32),
    /// Rows restricted to the range (indices re-based to 0).
    pub rows: Vec<SparseRow>,
    /// Labels — `Some` only for the active party.
    pub labels: Option<Vec<f64>>,
}

impl VerticalShard {
    /// Local feature count.
    pub fn num_features(&self) -> usize {
        (self.feature_range.1 - self.feature_range.0) as usize
    }

    /// Instance count (same across all shards of a split).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the shard has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Splits features into `parts` contiguous ranges (same instances,
/// disjoint features). Shard 0 is the active party and keeps the labels.
pub fn vertical_split(dataset: &Dataset, parts: u32) -> Vec<VerticalShard> {
    // Documented preconditions: split shape is a config error, not data.
    // flcheck: allow(pf-assert)
    assert!(parts >= 1, "at least one participant");
    // flcheck: allow(pf-assert)
    assert!(
        dataset.num_features >= parts as usize,
        "fewer features than participants"
    );
    let parts_usize = parts as usize;
    let per = dataset.num_features / parts_usize;
    let mut shards = Vec::with_capacity(parts_usize);
    for k in 0..parts_usize {
        let lo = crate::count_u32(k * per);
        let hi = if k + 1 == parts_usize {
            crate::count_u32(dataset.num_features)
        } else {
            crate::count_u32((k + 1) * per)
        };
        let rows = dataset
            .rows
            .iter()
            .map(|r| r.slice_features(lo, hi))
            .collect();
        shards.push(VerticalShard {
            name: format!("{}#v{k}", dataset.name),
            feature_range: (lo, hi),
            rows,
            labels: if k == 0 {
                Some(dataset.labels.clone())
            } else {
                None
            },
        });
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generators::DatasetSpec;

    fn tiny() -> Dataset {
        DatasetSpec::rcv1().generate(0.0001) // ~67 rows
    }

    #[test]
    fn horizontal_covers_all_rows() {
        let d = tiny();
        let parts = horizontal_split(&d, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, d.len());
        // Balanced within 1.
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        for p in &parts {
            assert_eq!(p.num_features, d.num_features);
            assert_eq!(p.rows.len(), p.labels.len());
        }
    }

    #[test]
    fn vertical_covers_all_features() {
        let d = tiny();
        let shards = vertical_split(&d, 4);
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].feature_range.0, 0);
        assert_eq!(
            shards.last().unwrap().feature_range.1 as usize,
            d.num_features
        );
        for w in shards.windows(2) {
            assert_eq!(w[0].feature_range.1, w[1].feature_range.0, "contiguous");
        }
        // Same instance count everywhere; nnz conserved.
        let nnz_total: usize = d.rows.iter().map(|r| r.nnz()).sum();
        let nnz_shards: usize = shards
            .iter()
            .flat_map(|s| s.rows.iter())
            .map(|r| r.nnz())
            .sum();
        assert_eq!(nnz_total, nnz_shards);
        for s in &shards {
            assert_eq!(s.len(), d.len());
        }
    }

    #[test]
    fn only_active_party_has_labels() {
        let shards = vertical_split(&tiny(), 3);
        assert!(shards[0].labels.is_some());
        assert!(shards[1].labels.is_none());
        assert!(shards[2].labels.is_none());
    }

    #[test]
    fn vertical_values_rebase_correctly() {
        let d = Dataset {
            name: "t".into(),
            num_features: 6,
            rows: vec![SparseRow::new(vec![0, 2, 4, 5], vec![1.0, 2.0, 3.0, 4.0])],
            labels: vec![1.0],
        };
        let shards = vertical_split(&d, 2);
        assert_eq!(shards[0].rows[0].indices, vec![0, 2]);
        assert_eq!(shards[0].rows[0].values, vec![1.0, 2.0]);
        assert_eq!(shards[1].rows[0].indices, vec![1, 2]);
        assert_eq!(shards[1].rows[0].values, vec![3.0, 4.0]);
    }

    #[test]
    fn single_participant_degenerates() {
        let d = tiny();
        let h = horizontal_split(&d, 1);
        assert_eq!(h[0].len(), d.len());
        let v = vertical_split(&d, 1);
        assert_eq!(v[0].num_features(), d.num_features);
    }
}
