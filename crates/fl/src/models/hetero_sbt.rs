//! Heterogeneous SecureBoost (the paper's "Hetero SBT", Cheng et al.).
//!
//! Gradient-boosted decision trees over vertically-partitioned data. Per
//! boosting round:
//!
//! 1. the active party computes first/second-order gradients `g, h` of
//!    the logistic loss for every instance and ships them to the passive
//!    parties **encrypted** — packed `[g|h]` per instance under batch
//!    compression (the SecureBoost+ GH-packing layout, with enough guard
//!    bits that a whole node's worth of instances can be summed in-slot),
//!    or as two ciphertexts per instance otherwise;
//! 2. each passive party buckets its node instances by feature-quantile
//!    bins and reduces the encrypted `g`/`h` into per-bin sums with
//!    *homomorphic additions* ([`he::HeBackend::fold_groups`]);
//! 3. bucket sums return to the active party, which decrypts them,
//!    evaluates the XGBoost split gain, and announces the winner;
//! 4. recursion continues to `max_depth`; leaves get `-G/(H+λ)` weights.
//!
//! The active party's own features never leave home, so its histograms
//! are computed in plaintext — exactly as in SecureBoost.

// flcheck: allow-file(pf-index) — instance ids index per-instance vectors
// sized to the dataset; bin ids are clamped to `bins - 1` at quantization.

use codec::{Quantizer, QuantizerConfig};
use he::paillier::Ciphertext;
use mpint::Natural;

use crate::data::{vertical_split, Dataset, VerticalShard};
use crate::metrics::{Charge, EpochBreakdown, EpochResult};
use crate::train::{logloss, sigmoid, FlEnv, FlModel, TrainConfig};
use crate::{Error, Result};

/// A decision-tree node.
#[derive(Debug, Clone)]
pub enum TreeNode {
    /// Terminal node carrying the leaf weight.
    Leaf(f64),
    /// Internal split on `shard`'s local `feature` at `threshold`.
    Split {
        /// Owning party.
        shard: usize,
        /// Local feature index within the shard.
        feature: usize,
        /// Instances with value `<= threshold` go left.
        threshold: f64,
        /// Left child.
        left: Box<TreeNode>,
        /// Right child.
        right: Box<TreeNode>,
    },
}

/// One boosted tree.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Root node.
    pub root: TreeNode,
}

impl Tree {
    /// Margin contribution of this tree for instance `i` (rows indexed
    /// across all shards).
    pub fn predict(&self, shards: &[VerticalShard], i: usize) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                TreeNode::Leaf(w) => return *w,
                TreeNode::Split {
                    shard,
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let value = feature_value(&shards[*shard], i, *feature);
                    node = if value <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        fn walk(n: &TreeNode) -> usize {
            match n {
                TreeNode::Leaf(_) => 1,
                TreeNode::Split { left, right, .. } => walk(left) + walk(right),
            }
        }
        walk(&self.root)
    }
}

fn feature_value(shard: &VerticalShard, row: usize, feature: usize) -> f64 {
    let r = &shard.rows[row];
    match r.indices.binary_search(&(feature as u32)) {
        Ok(pos) => r.values[pos],
        Err(_) => 0.0,
    }
}

/// Vertically-federated gradient-boosted trees.
pub struct HeteroSbt {
    dataset_name: String,
    shards: Vec<VerticalShard>,
    labels: Vec<f64>,
    margins: Vec<f64>,
    trees: Vec<Tree>,
    /// Quantile bins per shard/feature.
    bin_edges: Vec<Vec<Vec<f64>>>,
    gh_quantizer: Quantizer,
    gh_slot_bits: u32,
    bins: usize,
    max_depth: usize,
    min_node: usize,
    eta: f64,
    lambda: f64,
    max_features_per_node: usize,
    loss: f64,
}

impl HeteroSbt {
    /// Builds the boosting state over a vertical split.
    pub fn new(dataset: &Dataset, participants: u32, _cfg: &TrainConfig) -> Result<Self> {
        let shards = vertical_split(dataset, participants);
        let labels = shards[0]
            .labels
            .clone()
            .ok_or_else(|| Error::BadConfig("active party must hold labels".into()))?;
        let n = labels.len();
        let bins = 8;

        // GH quantizer: 16 value bits, guard bits sized so summing every
        // instance of the dataset in one slot cannot overflow.
        let gh_cfg = QuantizerConfig {
            alpha: 1.0,
            r_bits: 16,
            participants: crate::count_u32(n).max(2),
            clip: true,
        };
        let gh_quantizer = Quantizer::new(gh_cfg).map_err(flbooster_core::Error::from)?;
        let gh_slot_bits = gh_cfg.slot_bits();

        let bin_edges = shards
            .iter()
            .map(|s| {
                (0..s.num_features())
                    .map(|f| quantile_edges(s, f, bins))
                    .collect()
            })
            .collect();

        let mut model = HeteroSbt {
            dataset_name: dataset.name.clone(),
            shards,
            labels,
            margins: vec![0.0; n],
            trees: Vec::new(),
            bin_edges,
            gh_quantizer,
            gh_slot_bits,
            bins,
            max_depth: 3,
            min_node: 8,
            eta: 0.3,
            lambda: 1.0,
            max_features_per_node: 8,
            loss: f64::NAN,
        };
        model.loss = model.global_loss();
        Ok(model)
    }

    /// Trees grown so far.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Margin prediction for training instance `i`.
    pub fn predict_margin(&self, i: usize) -> f64 {
        self.trees.iter().map(|t| t.predict(&self.shards, i)).sum()
    }

    fn global_loss(&self) -> f64 {
        let preds: Vec<f64> = self.margins.iter().map(|&m| sigmoid(m)).collect();
        logloss(&preds, &self.labels)
    }

    /// Quantizes and (optionally) GH-packs the gradient pair of one
    /// instance.
    fn encode_gh(&self, g: f64, h: f64, packed: bool) -> Result<Vec<Natural>> {
        let qg = self
            .gh_quantizer
            .quantize(g)
            .map_err(flbooster_core::Error::from)?;
        let qh = self
            .gh_quantizer
            .quantize(h)
            .map_err(flbooster_core::Error::from)?;
        if packed {
            let word = Natural::from(qg).add_ref(&Natural::from(qh).shl_bits(self.gh_slot_bits));
            Ok(vec![word])
        } else {
            Ok(vec![Natural::from(qg), Natural::from(qh)])
        }
    }

    /// Decodes a decrypted bucket sum into `(G, H)` given the bucket's
    /// member count.
    fn decode_gh_sum(&self, words: &[Natural], count: u32, packed: bool) -> (f64, f64) {
        if packed {
            let w = &words[0];
            let zg = w.extract_bits(0, self.gh_slot_bits);
            let zh = w.extract_bits(self.gh_slot_bits, self.gh_slot_bits);
            (
                self.gh_quantizer.dequantize_sum(zg, count),
                self.gh_quantizer.dequantize_sum(zh, count),
            )
        } else {
            (
                self.gh_quantizer.dequantize_sum(words[0].low_u64(), count),
                self.gh_quantizer.dequantize_sum(words[1].low_u64(), count),
            )
        }
    }

    /// Deterministic feature subsample for a node.
    fn sample_features(&self, shard: usize, node_seed: u64) -> Vec<usize> {
        let total = self.shards[shard].num_features();
        if total <= self.max_features_per_node {
            return (0..total).collect();
        }
        // Low-discrepancy stride sample keyed by the node seed.
        let stride = (total / self.max_features_per_node).max(1);
        let offset = (node_seed as usize) % stride.max(1);
        (0..self.max_features_per_node)
            .map(|j| (offset + j * stride) % total)
            .collect()
    }

    fn bin_of(&self, shard: usize, feature: usize, row: usize) -> usize {
        let v = feature_value(&self.shards[shard], row, feature);
        let edges = &self.bin_edges[shard][feature];
        edges.partition_point(|&e| e < v).min(self.bins - 1)
    }

    /// XGBoost split gain.
    fn gain(&self, gl: f64, hl: f64, g: f64, h: f64) -> f64 {
        let gr = g - gl;
        let hr = h - hl;
        0.5 * (gl * gl / (hl + self.lambda) + gr * gr / (hr + self.lambda)
            - g * g / (h + self.lambda))
    }
}

/// Quantile bin edges for one shard feature (`bins - 1` boundaries).
fn quantile_edges(shard: &VerticalShard, feature: usize, bins: usize) -> Vec<f64> {
    let mut values: Vec<f64> = (0..shard.len())
        .map(|i| feature_value(shard, i, feature))
        .collect();
    // total_cmp orders NaNs deterministically instead of panicking.
    values.sort_by(|a, b| a.total_cmp(b));
    let mut edges = Vec::with_capacity(bins - 1);
    for b in 1..bins {
        let idx = b * (values.len().saturating_sub(1)) / bins;
        let e = values[idx];
        if edges.last() != Some(&e) {
            edges.push(e);
        }
    }
    edges
}

/// One candidate split found from decrypted histograms.
struct BestSplit {
    gain: f64,
    shard: usize,
    feature: usize,
    threshold: f64,
    left: Vec<usize>,
    right: Vec<usize>,
}

impl FlModel for HeteroSbt {
    fn name(&self) -> &'static str {
        "Hetero SBT"
    }

    fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    fn loss(&self) -> f64 {
        self.loss
    }

    /// One epoch = one boosting round (tree).
    fn run_epoch(&mut self, env: &FlEnv, cfg: &TrainConfig, epoch: usize) -> Result<EpochResult> {
        let mut breakdown = EpochBreakdown::default();
        let n = self.labels.len();
        let packed = env.accel.batch_compression();
        let pk = &env.accel.keys().public;
        let sk = &env.accel.keys().private;
        let he = env.accel.he_backend();

        // (1) gradients and their encrypted broadcast.
        let mut g = Vec::with_capacity(n);
        let mut h = Vec::with_capacity(n);
        for i in 0..n {
            let p = sigmoid(self.margins[i]);
            g.push(p - self.labels[i]);
            h.push((p * (1.0 - p)).max(1e-16));
        }
        env.charge_local_compute(8 * n as u64, cfg, &mut breakdown);

        let mut plaintexts = Vec::with_capacity(if packed { n } else { 2 * n });
        for i in 0..n {
            plaintexts.extend(self.encode_gh(g[i], h[i], packed)?);
        }
        let seed = cfg.seed ^ ((epoch as u64) << 20);
        let (gh_cts, t) = he
            .encrypt_batch(pk, &plaintexts, seed)
            .map_err(flbooster_core::Error::from)?;
        // Direct he_backend() use must report back, or the accelerator's
        // own timing accumulator misses every SBT HE operation.
        env.accel.charge_external(&t, plaintexts.len());
        breakdown.charge(Charge::EncryptHe, t.sim_seconds);
        breakdown.he_values += 2 * n as u64;
        breakdown.charge(Charge::EncryptCodec, n as f64 * 4.0e-8); // encode/pack

        let gh_bytes: u64 = gh_cts.iter().map(|c| c.wire_size_bytes() as u64).sum();
        let passive = self.shards.len().saturating_sub(1) as u32;
        if passive > 0 {
            let t = env
                .network
                .broadcast(passive, gh_cts.len() as u64, gh_bytes)?;
            breakdown.charge(Charge::Downlink, t);
            breakdown.comm_bytes += passive as u64 * gh_bytes;
            breakdown.ciphertexts += passive as u64 * gh_cts.len() as u64;
        }

        // Per-instance ciphertext accessors (packed: one ct; plain: two).
        let ct_of = |i: usize| -> Vec<Ciphertext> {
            if packed {
                vec![gh_cts[i].clone()]
            } else {
                vec![gh_cts[2 * i].clone(), gh_cts[2 * i + 1].clone()]
            }
        };

        // (2)–(4) grow one tree.
        let all: Vec<usize> = (0..n).collect();
        let mut leaf_updates: Vec<(Vec<usize>, f64)> = Vec::new();
        let root = self.grow(
            env,
            cfg,
            &all,
            0,
            seed,
            &g,
            &h,
            &ct_of,
            packed,
            sk,
            &mut breakdown,
            &mut leaf_updates,
        )?;
        let tree = Tree { root };
        self.trees.push(tree);

        // (5) margin updates with shrinkage.
        for (members, weight) in leaf_updates {
            for i in members {
                self.margins[i] += self.eta * weight;
            }
        }
        env.charge_local_compute(2 * n as u64, cfg, &mut breakdown);

        self.loss = self.global_loss();
        Ok(EpochResult {
            breakdown,
            loss: self.loss,
        })
    }
}

impl HeteroSbt {
    /// Recursive node growth. Returns the node and records leaf member
    /// sets for the margin update.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        &self,
        env: &FlEnv,
        cfg: &TrainConfig,
        members: &[usize],
        depth: usize,
        seed: u64,
        g: &[f64],
        h: &[f64],
        ct_of: &dyn Fn(usize) -> Vec<Ciphertext>,
        packed: bool,
        sk: &he::paillier::PaillierPrivateKey,
        breakdown: &mut EpochBreakdown,
        leaves: &mut Vec<(Vec<usize>, f64)>,
    ) -> Result<TreeNode> {
        let g_total: f64 = members.iter().map(|&i| g[i]).sum();
        let h_total: f64 = members.iter().map(|&i| h[i]).sum();

        if depth >= self.max_depth || members.len() < self.min_node {
            let w = -g_total / (h_total + self.lambda);
            leaves.push((members.to_vec(), w));
            return Ok(TreeNode::Leaf(w));
        }

        let mut best: Option<BestSplit> = None;
        let he = env.accel.he_backend();
        let pk = &env.accel.keys().public;

        for shard_idx in 0..self.shards.len() {
            let node_seed = seed ^ ((depth as u64) << 8) ^ (members.len() as u64);
            let features = self.sample_features(shard_idx, node_seed);
            let active = shard_idx == 0;

            // Bucket membership (plaintext at the feature owner).
            // bucket_members[f][b] = instance list.
            let mut bucket_members: Vec<Vec<Vec<usize>>> =
                vec![vec![Vec::new(); self.bins]; features.len()];
            for &i in members {
                for (fi, &f) in features.iter().enumerate() {
                    let b = self.bin_of(shard_idx, f, i);
                    bucket_members[fi][b].push(i);
                }
            }

            // Histogram sums: plaintext for the active party, homomorphic
            // folds + decryption round trip for passive parties.
            let mut sums: Vec<Vec<(f64, f64, u32)>> =
                vec![vec![(0.0, 0.0, 0); self.bins]; features.len()];
            if active {
                for (fi, per_bin) in bucket_members.iter().enumerate() {
                    for (b, bucket) in per_bin.iter().enumerate() {
                        let gs: f64 = bucket.iter().map(|&i| g[i]).sum();
                        let hs: f64 = bucket.iter().map(|&i| h[i]).sum();
                        sums[fi][b] = (gs, hs, bucket.len() as u32);
                    }
                }
                // Local flops: one pass over node instances per feature.
            } else {
                // Build ciphertext groups (one per (feature, bin), with
                // packed GH or separate g/h streams).
                let streams = if packed { 1 } else { 2 };
                let mut groups: Vec<Vec<Ciphertext>> =
                    Vec::with_capacity(features.len() * self.bins * streams);
                for per_bin in &bucket_members {
                    for bucket in per_bin {
                        if packed {
                            groups.push(bucket.iter().map(|&i| ct_of(i).remove(0)).collect());
                        } else {
                            groups.push(bucket.iter().map(|&i| ct_of(i).remove(0)).collect());
                            // Unpacked encryption produced exactly two cts
                            // per instance; pop() yields the h stream.
                            groups.push(bucket.iter().filter_map(|&i| ct_of(i).pop()).collect());
                        }
                    }
                }
                let (folded, t) = he
                    .fold_groups(pk, &groups)
                    .map_err(flbooster_core::Error::from)?;
                env.accel.charge_external(&t, 0);
                breakdown.charge(Charge::Aggregate, t.sim_seconds);

                // Bucket sums travel back to the active party...
                let bytes: u64 = folded.iter().map(|c| c.wire_size_bytes() as u64).sum();
                let ts = env.network.send(folded.len() as u64, bytes)?;
                breakdown.charge(Charge::Uplink, ts);
                breakdown.comm_bytes += bytes;
                breakdown.ciphertexts += folded.len() as u64;

                // ...where they are decrypted and decoded.
                let (words, t) = he
                    .decrypt_batch(sk, &folded)
                    .map_err(flbooster_core::Error::from)?;
                env.accel.charge_external(&t, words.len());
                breakdown.charge(Charge::DecryptHe, t.sim_seconds);
                breakdown.he_values += (features.len() * self.bins * 2) as u64;

                for (fi, per_bin) in bucket_members.iter().enumerate() {
                    for (b, bucket) in per_bin.iter().enumerate() {
                        let gi = (fi * self.bins + b) * streams;
                        let words_gb = if packed {
                            std::slice::from_ref(&words[gi])
                        } else {
                            &words[gi..gi + 2]
                        };
                        let terms = crate::count_u32(bucket.len());
                        let (gs, hs) = self.decode_gh_sum(words_gb, terms, packed);
                        sums[fi][b] = (gs, hs, terms);
                    }
                }
            }

            // Split evaluation at the active party (plaintext gains).
            for (fi, &f) in features.iter().enumerate() {
                let edges = &self.bin_edges[shard_idx][f];
                let mut gl = 0.0;
                let mut hl = 0.0;
                let mut nl = 0u32;
                for b in 0..self.bins.saturating_sub(1) {
                    let (gs, hs, cnt) = sums[fi][b];
                    gl += gs;
                    hl += hs;
                    nl += cnt;
                    if nl == 0 || nl as usize == members.len() || b >= edges.len() {
                        continue;
                    }
                    let gain = self.gain(gl, hl, g_total, h_total);
                    if gain > best.as_ref().map_or(1e-6, |s| s.gain) {
                        let threshold = edges[b];
                        let (mut left, mut right) = (Vec::new(), Vec::new());
                        for &i in members {
                            if feature_value(&self.shards[shard_idx], i, f) <= threshold {
                                left.push(i);
                            } else {
                                right.push(i);
                            }
                        }
                        if !left.is_empty() && !right.is_empty() {
                            best = Some(BestSplit {
                                gain,
                                shard: shard_idx,
                                feature: f,
                                threshold,
                                left,
                                right,
                            });
                        }
                    }
                }
            }
            // Charge the histogram pass as local compute.
            env.charge_local_compute((members.len() * features.len()) as u64 * 3, cfg, breakdown);
        }

        match best {
            None => {
                let w = -g_total / (h_total + self.lambda);
                leaves.push((members.to_vec(), w));
                Ok(TreeNode::Leaf(w))
            }
            Some(split) => {
                let left = self.grow(
                    env,
                    cfg,
                    &split.left,
                    depth + 1,
                    seed.rotate_left(7),
                    g,
                    h,
                    ct_of,
                    packed,
                    sk,
                    breakdown,
                    leaves,
                )?;
                let right = self.grow(
                    env,
                    cfg,
                    &split.right,
                    depth + 1,
                    seed.rotate_left(13),
                    g,
                    h,
                    ct_of,
                    packed,
                    sk,
                    breakdown,
                    leaves,
                )?;
                Ok(TreeNode::Split {
                    shard: split.shard,
                    feature: split.feature,
                    threshold: split.threshold,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Accelerator, BackendKind};
    use crate::data::generators::DatasetSpec;
    use he::paillier::PaillierKeyPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn env(kind: BackendKind) -> FlEnv {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5B7);
        let keys = PaillierKeyPair::generate(&mut rng, 128).unwrap();
        FlEnv::new(Accelerator::new(kind, keys, 3).unwrap(), 3)
    }

    fn small_dataset() -> Dataset {
        let mut spec = DatasetSpec::synthetic();
        spec.features = 12;
        spec.nnz_per_row = 12;
        spec.instances = 150;
        spec.generate(1.0)
    }

    #[test]
    fn boosting_reduces_loss() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        let initial = model.loss();
        for e in 0..3 {
            model.run_epoch(&env, &cfg, e).unwrap();
        }
        assert!(
            model.loss() < initial - 0.02,
            "{} vs {initial}",
            model.loss()
        );
        assert_eq!(model.trees().len(), 3);
    }

    #[test]
    fn unpacked_backend_also_learns() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let env = env(BackendKind::Haflo);
        let mut model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        let initial = model.loss();
        model.run_epoch(&env, &cfg, 0).unwrap();
        assert!(model.loss() < initial);
    }

    #[test]
    fn trees_have_splits_and_leaves() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        model.run_epoch(&env, &cfg, 0).unwrap();
        let tree = &model.trees()[0];
        let leaves = tree.leaf_count();
        assert!(leaves >= 2, "tree degenerated to a stump without splits");
        assert!(leaves <= 8, "depth-3 tree cannot exceed 8 leaves");
    }

    #[test]
    fn predict_margin_matches_tracked_margins() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        model.run_epoch(&env, &cfg, 0).unwrap();
        model.run_epoch(&env, &cfg, 1).unwrap();
        for i in (0..model.labels.len()).step_by(17) {
            let predicted: f64 = model.predict_margin(i) * model.eta;
            assert!(
                (predicted - model.margins[i]).abs() < 1e-9,
                "instance {i}: {predicted} vs {}",
                model.margins[i]
            );
        }
    }

    #[test]
    fn breakdown_components_present() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let env = env(BackendKind::Fate);
        let mut model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        let b = model.run_epoch(&env, &cfg, 0).unwrap().breakdown;
        assert!(b.he_seconds > 0.0);
        assert!(b.comm_seconds > 0.0);
        assert!(b.other_seconds > 0.0);
        assert!(b.he_values >= 2 * 150);
    }

    #[test]
    fn direct_he_backend_use_reports_into_accelerator_timing() {
        // SBT drives the HE engine through `he_backend()` directly; each
        // site must report back via `charge_external`, or the
        // accelerator's own accumulator misses every SBT HE operation
        // while the breakdown still looks complete (an audit in PR 10
        // caught exactly this).
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let env = env(BackendKind::FlBooster);
        let mut model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        let b = model.run_epoch(&env, &cfg, 0).unwrap().breakdown;
        let t = env.accel.timing();
        assert!(
            t.he_seconds > 0.0,
            "direct he_backend() work never reached Accelerator::timing()"
        );
        assert!(t.he_ops > 0 && t.he_items > 0);
        // The accumulator mirrors what the epoch charged into the
        // breakdown: encrypt + fold + decrypt, nothing double-counted.
        assert!(
            t.he_seconds <= b.he_seconds + 1e-12,
            "accumulator {} exceeds breakdown HE time {}",
            t.he_seconds,
            b.he_seconds
        );
    }

    #[test]
    fn gh_encoding_roundtrip() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        for packed in [true, false] {
            let words = model.encode_gh(-0.37, 0.21, packed).unwrap();
            let (g, h) = model.decode_gh_sum(&words, 1, packed);
            assert!((g + 0.37).abs() < 1e-4, "g {g}");
            assert!((h - 0.21).abs() < 1e-4, "h {h}");
        }
    }

    #[test]
    fn packed_gh_sums_accumulate() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        // Sum three packed GH words as the homomorphic fold would.
        let pairs = [(-0.5, 0.25), (0.1, 0.2), (0.3, 0.05)];
        let mut acc = Natural::zero();
        for (g, h) in pairs {
            acc = acc.add_ref(&model.encode_gh(g, h, true).unwrap()[0]);
        }
        let (gs, hs) = model.decode_gh_sum(&[acc], 3, true);
        assert!((gs - (-0.1)).abs() < 1e-3, "G {gs}");
        assert!((hs - 0.5).abs() < 1e-3, "H {hs}");
    }
}
