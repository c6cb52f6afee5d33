//! Heterogeneous SecureBoost (the paper's "Hetero SBT", Cheng et al.).
//!
//! Gradient-boosted decision trees over vertically-partitioned data. Per
//! boosting round:
//!
//! 1. the active party computes first/second-order gradients `g, h` of
//!    the logistic loss for every instance and ships them to the passive
//!    parties **encrypted**. The epoch's [`BatchCodec`] — the platform's
//!    codec over SecureBoost's own GH quantizer, whose guard bits let a
//!    whole node's worth of instances sum in-slot — packs each instance
//!    as `codec.pack(&[g, h])`: one `g‖h` word under batch compression
//!    (the SecureBoost+ GH-packing layout), one word per value otherwise
//!    ([`FlEnv::encrypted_gh_broadcast`]);
//! 2. each passive party buckets its node instances by feature-quantile
//!    bins and reduces the encrypted `g`/`h` of every **non-empty** bucket
//!    into one sum by *homomorphic additions*. An empty bucket sends
//!    nothing: bucket member counts travel in the clear (the active party
//!    needs them to undo the quantizer's offset), so a zero count already
//!    says the sum is zero. Under batch compression the party then
//!    shift-and-adds its bucket sums, `2·slot` bits apart, into as few
//!    plaintext words as the key holds
//!    ([`he::HeBackend::fold_packed`]) — one ciphertext per 24 buckets at
//!    1024 bits; without it each sum keeps a ciphertext to itself. The
//!    engine charges and sends the replies in party order, summed as
//!    serial aggregation time
//!    ([`FlEnv::histogram_exchange`]);
//! 3. the active party decrypts every passive reply of the node in one
//!    batch, slices the words back into per-bucket sums, decodes each
//!    with the same codec (`codec.unpack_sums(sum, 2, count)`, so a bit
//!    above a slot is the codec's `SlotOverflow`), evaluates the
//!    XGBoost split gain, and announces the winner. Steps 2 and 3 are one
//!    host call per node
//!    ([`Accelerator::fold_packed_decrypt_timed`](crate::Accelerator::fold_packed_decrypt_timed)):
//!    the parties fold side by side, and each word is decrypted as soon
//!    as it is packed;
//! 4. recursion continues to `max_depth`; leaves get `-G/(H+λ)` weights.
//!
//! The active party's own features never leave home, so its histograms
//! are computed in plaintext — exactly as in SecureBoost.

#![expect(
    clippy::indexing_slicing,
    reason = "instance ids index per-instance vectors sized to the dataset; bin ids \
              are clamped to `bins - 1` at quantization; a bucket decodes to the two \
              values it asks `unpack_sums` for"
)]

use codec::{BatchCodec, QuantizerConfig};
use he::paillier::{Ciphertext, PaillierPublicKey};
use mpint::Natural;

use crate::data::{vertical_split, Dataset, VerticalShard};
use crate::metrics::{EpochBreakdown, EpochResult};
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
    match r.indices.binary_search(&crate::count_u32(feature)) {
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
    /// The GH quantizer every epoch's codec is built from.
    gh: QuantizerConfig,
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
        let gh = QuantizerConfig {
            alpha: 1.0,
            r_bits: 16,
            participants: crate::count_u32(n).max(2),
            clip: true,
        };

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
            gh,
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

    /// The epoch's `g‖h` codec for a `key_bits`-bit key: the GH quantizer
    /// packed `g` then `h` into one word under batch compression
    /// (`packed`), else one slot per word, as every backend lays values
    /// out.
    fn gh_codec(&self, key_bits: u32, packed: bool) -> Result<BatchCodec> {
        let codec = BatchCodec::new(self.gh, key_bits)?;
        Ok(if packed {
            codec
        } else {
            codec.one_slot_per_word()
        })
    }

    /// Width of the slot one bucket sum occupies in a reply word: `g‖h`
    /// when one word holds an instance; otherwise the whole plaintext
    /// word, so a sum keeps its ciphertext to itself.
    fn bucket_slot_bits(pk: &PaillierPublicKey, codec: &BatchCodec) -> u32 {
        if codec.words_for(2) == 1 {
            2 * codec.quantizer().config().slot_bits()
        } else {
            pk.n.bit_len().saturating_sub(1)
        }
    }

    /// Host side of the histogram: the ciphertexts of each bucket's
    /// members, borrowed from the broadcast — one group per word of an
    /// instance (`g‖h`, or `g` then `h`). Every bucket is held to its
    /// guard capacity before anything is folded.
    fn bucket_groups<'a>(
        codec: &BatchCodec,
        buckets: &[Vec<Vec<usize>>],
        gh_cts: &'a [Ciphertext],
    ) -> Result<Vec<Vec<&'a Ciphertext>>> {
        let streams = codec.words_for(2);
        let mut groups = Vec::new();
        for bucket in buckets.iter().flatten() {
            codec
                .quantizer()
                .check_terms(crate::count_u32(bucket.len()))?;
            for s in 0..streams {
                groups.push(bucket.iter().map(|&i| &gh_cts[streams * i + s]).collect());
            }
        }
        Ok(groups)
    }

    /// Guest side of the histogram: one party's decrypted reply `words`
    /// sliced back into `(G, H, count)` per bucket. Which buckets replied
    /// follows from the member counts, which travel in the clear.
    fn decode_buckets(
        pk: &PaillierPublicKey,
        codec: &BatchCodec,
        words: &[Natural],
        buckets: &[Vec<Vec<usize>>],
    ) -> Result<Vec<Vec<(f64, f64, u32)>>> {
        let streams = codec.words_for(2);
        let filled = buckets.iter().flatten().filter(|b| !b.is_empty()).count();
        let slots = pk.unpack_runs(words, filled * streams, Self::bucket_slot_bits(pk, codec))?;
        let mut sums = slots.chunks(streams);
        buckets
            .iter()
            .map(|per_bin| {
                per_bin
                    .iter()
                    .map(|bucket| {
                        if bucket.is_empty() {
                            return Ok((0.0, 0.0, 0));
                        }
                        // `unpack_runs` returned a sum per filled bucket.
                        let sum = sums.next().unwrap_or_default();
                        let terms = crate::count_u32(bucket.len());
                        let gh = codec.unpack_sums(sum, 2, terms)?;
                        Ok((gh[0], gh[1], terms))
                    })
                    .collect()
            })
            .collect()
    }

    /// Deterministic feature subsample for a node.
    fn sample_features(&self, shard: usize, node_seed: u64) -> Vec<usize> {
        let total = self.shards[shard].num_features();
        if total <= self.max_features_per_node {
            return (0..total).collect();
        }
        // Low-discrepancy stride sample keyed by the node seed.
        let stride = (total / self.max_features_per_node).max(1);
        // The remainder is below `stride`, so it fits a `usize`.
        let offset = usize::try_from(node_seed % stride as u64).unwrap_or(0);
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
        let codec = self.gh_codec(env.accel.key_bits(), env.accel.batch_compression())?;

        // (1) gradients and their encrypted broadcast.
        let mut g = Vec::with_capacity(n);
        let mut h = Vec::with_capacity(n);
        for i in 0..n {
            let p = sigmoid(self.margins[i]);
            g.push(p - self.labels[i]);
            h.push((p * (1.0 - p)).max(1e-16));
        }
        env.charge_local_compute(8 * n as u64, &mut breakdown);

        let mut plaintexts = Vec::with_capacity(codec.words_for(2) * n);
        for i in 0..n {
            plaintexts.extend(codec.pack(&[g[i], h[i]])?);
        }
        let seed = cfg.seed ^ ((epoch as u64) << 20);
        let passive = crate::count_u32(self.shards.len().saturating_sub(1));
        let gh_cts = env.encrypted_gh_broadcast(&plaintexts, passive, seed, &mut breakdown)?;

        // (2)–(4) grow one tree.
        let round = Round {
            env,
            codec: &codec,
            g: &g,
            h: &h,
            gh_cts: &gh_cts,
        };
        let all: Vec<usize> = (0..n).collect();
        let mut leaf_updates: Vec<(Vec<usize>, f64)> = Vec::new();
        let root = self.grow(&round, &all, 0, seed, &mut breakdown, &mut leaf_updates)?;
        let tree = Tree { root };
        self.trees.push(tree);

        // (5) margin updates with shrinkage.
        for (members, weight) in leaf_updates {
            for i in members {
                self.margins[i] += self.eta * weight;
            }
        }
        env.charge_local_compute(2 * n as u64, &mut breakdown);

        self.loss = self.global_loss();
        Ok(EpochResult {
            breakdown,
            loss: self.loss,
        })
    }
}

/// What growing one tree borrows from its boosting round.
struct Round<'a> {
    env: &'a FlEnv,
    /// The epoch's `g‖h` codec.
    codec: &'a BatchCodec,
    g: &'a [f64],
    h: &'a [f64],
    /// The encrypted gradients as broadcast: the codec's words of each
    /// instance in turn.
    gh_cts: &'a [Ciphertext],
}

impl HeteroSbt {
    /// Recursive node growth. Returns the node and records leaf member
    /// sets for the margin update.
    fn grow(
        &self,
        round: &Round,
        members: &[usize],
        depth: usize,
        seed: u64,
        breakdown: &mut EpochBreakdown,
        leaves: &mut Vec<(Vec<usize>, f64)>,
    ) -> Result<TreeNode> {
        let Round { env, g, h, .. } = *round;
        let g_total: f64 = members.iter().map(|&i| g[i]).sum();
        let h_total: f64 = members.iter().map(|&i| h[i]).sum();

        if depth >= self.max_depth || members.len() < self.min_node {
            let w = -g_total / (h_total + self.lambda);
            leaves.push((members.to_vec(), w));
            return Ok(TreeNode::Leaf(w));
        }

        let pk = &env.accel.keys().public;
        let node_seed = seed ^ ((depth as u64) << 8) ^ (members.len() as u64);

        // Bucket membership (plaintext at each feature owner):
        // buckets[shard][f][b] = instance list.
        let features: Vec<Vec<usize>> = (0..self.shards.len())
            .map(|shard_idx| self.sample_features(shard_idx, node_seed))
            .collect();
        let buckets: Vec<Vec<Vec<Vec<usize>>>> = features
            .iter()
            .enumerate()
            .map(|(shard_idx, features)| {
                let mut per_feature = vec![vec![Vec::new(); self.bins]; features.len()];
                for &i in members {
                    for (fi, &f) in features.iter().enumerate() {
                        per_feature[fi][self.bin_of(shard_idx, f, i)].push(i);
                    }
                }
                per_feature
            })
            .collect();

        // Each passive party folds its non-empty buckets, packs the sums
        // and uplinks the words; bucket counts travel in the clear. The
        // active party decrypts the node's replies in one batch. On the
        // host it is one call: the parties fold side by side and each word
        // is decrypted as soon as it is packed. The engine charges the
        // parties in party order, as one after another, then the
        // decryption.
        let codec = round.codec;
        let slot_bits = Self::bucket_slot_bits(pk, codec);
        let groups = buckets
            .iter()
            .skip(1)
            .map(|per_feature| Self::bucket_groups(codec, per_feature, round.gh_cts))
            .collect::<Result<Vec<_>>>()?;
        let (reply_lens, words) = env.histogram_exchange(&groups, slot_bits, breakdown)?;
        let mut words = words.as_slice();

        let mut best: Option<BestSplit> = None;
        for (shard_idx, (features, per_feature)) in features.iter().zip(&buckets).enumerate() {
            // Histogram sums: plaintext for the active party, the decoded
            // reply for a passive one.
            let sums: Vec<Vec<(f64, f64, u32)>> = if shard_idx == 0 {
                per_feature
                    .iter()
                    .map(|per_bin| {
                        per_bin
                            .iter()
                            .map(|bucket| {
                                let gs: f64 = bucket.iter().map(|&i| g[i]).sum();
                                let hs: f64 = bucket.iter().map(|&i| h[i]).sum();
                                (gs, hs, crate::count_u32(bucket.len()))
                            })
                            .collect()
                    })
                    .collect()
            } else {
                let (reply, rest) = words.split_at(reply_lens[shard_idx - 1]);
                words = rest;
                Self::decode_buckets(pk, codec, reply, per_feature)?
            };

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
            env.charge_local_compute((members.len() * features.len()) as u64 * 3, breakdown);
        }

        match best {
            None => {
                let w = -g_total / (h_total + self.lambda);
                leaves.push((members.to_vec(), w));
                Ok(TreeNode::Leaf(w))
            }
            Some(split) => {
                let left = self.grow(
                    round,
                    &split.left,
                    depth + 1,
                    seed.rotate_left(7),
                    breakdown,
                    leaves,
                )?;
                let right = self.grow(
                    round,
                    &split.right,
                    depth + 1,
                    seed.rotate_left(13),
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
    use he::{CpuHe, HeBackend};
    use rand::{Rng, SeedableRng};
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

    /// One node's histogram through both spellings: a ciphertext per
    /// bucket (`fold_groups`, empty buckets included, as the uplink was
    /// before replies were packed) against the packed reply. The triples
    /// must agree to the bit on every backend family. The reference fold
    /// runs on a CPU backend of its own: fold bits do not depend on the
    /// schedule.
    #[test]
    fn packed_reply_decodes_to_the_per_bucket_histogram() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        let n = model.labels.len();
        let (features, bins) = (5usize, model.bins);
        let reference = CpuHe::default();
        for kind in [
            BackendKind::FlBooster,
            BackendKind::Fate,
            BackendKind::Haflo,
        ] {
            let env = env(kind);
            let packed = env.accel.batch_compression();
            let pk = &env.accel.keys().public;
            let codec = model.gh_codec(env.accel.key_bits(), packed).unwrap();
            let mut plaintexts = Vec::new();
            for i in 0..n {
                let g = ((i * 37 % 200) as f64 - 100.0) / 100.0;
                let h = (i * 11 % 100) as f64 / 100.0;
                plaintexts.extend(codec.pack(&[g, h]).unwrap());
            }
            let (gh_cts, _) = env.accel.encrypt_words_timed(&plaintexts, 9).unwrap();

            let mut rng = ChaCha8Rng::seed_from_u64(0xB0C4);
            for case in 0..6 {
                // Random membership; feature 1 is all-empty (no member
                // reaches it) in odd cases, feature 0 one full bucket.
                let mut buckets = vec![vec![Vec::new(); bins]; features];
                for i in 0..n {
                    if rng.gen_range(0..4) == 0 {
                        continue;
                    }
                    buckets[0][3].push(i);
                    for (f, per_bin) in buckets.iter_mut().enumerate().skip(1) {
                        if f != 1 || case % 2 == 0 {
                            per_bin[rng.gen_range(0..bins)].push(i);
                        }
                    }
                }

                let groups = HeteroSbt::bucket_groups(&codec, &buckets, &gh_cts).unwrap();
                let slot_bits = HeteroSbt::bucket_slot_bits(pk, &codec);
                let node = env
                    .accel
                    .fold_packed_decrypt_timed(std::slice::from_ref(&groups), slot_bits)
                    .unwrap();
                let [(reply, _)] = <[_; 1]>::try_from(node.replies).unwrap();
                let got = HeteroSbt::decode_buckets(pk, &codec, &node.words, &buckets).unwrap();

                let owned: Vec<Vec<Ciphertext>> = groups
                    .iter()
                    .map(|g| g.iter().map(|&c| c.clone()).collect())
                    .collect();
                let (folded, _) = reference.fold_groups(pk, &owned).unwrap();
                assert!(reply.len() < folded.len());
                let (per_bucket, _) = env.accel.decrypt_words_timed(&folded).unwrap();
                let streams = if packed { 1 } else { 2 };
                let want: Vec<(f64, f64, u32)> = buckets
                    .iter()
                    .flatten()
                    .zip(per_bucket.chunks(streams))
                    .map(|(bucket, words)| {
                        let terms = u32::try_from(bucket.len()).unwrap();
                        let gh = codec.unpack_sums(words, 2, terms).unwrap();
                        (gh[0], gh[1], terms)
                    })
                    .collect();
                let bits = |t: &(f64, f64, u32)| (t.0.to_bits(), t.1.to_bits(), t.2);
                let got: Vec<_> = got.iter().flatten().map(bits).collect();
                let want: Vec<_> = want.iter().map(bits).collect();
                assert_eq!(got, want, "{kind:?} case {case}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Guard capacity at the slot boundary: a run of `cap`
        /// buckets, each holding `max_terms` members at the clipped
        /// extreme (`g = ±α`, `h = α` — every value bit set or none),
        /// unpacks to exactly `±max_terms·α` and `max_terms·α` per
        /// bucket: nothing carries into the neighbouring slot.
        #[test]
        fn full_buckets_at_the_clipped_extreme_do_not_carry(
            signs in proptest::collection::vec(proptest::prelude::any::<bool>(), 5),
        ) {
            let model = HeteroSbt::new(&small_dataset(), 3, &TrainConfig::default()).unwrap();
            let max_terms = model.gh.max_terms();
            let keys = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0xCA9), 256).unwrap();
            let accel = Accelerator::new(BackendKind::FlBooster, keys, 3).unwrap();
            let pk = &accel.keys().public;
            let codec = model.gh_codec(accel.key_bits(), true).unwrap();
            let slot_bits = HeteroSbt::bucket_slot_bits(pk, &codec);
            proptest::prop_assert_eq!(pk.pack_capacity(slot_bits).unwrap(), 5);

            // E(−α‖α) and E(+α‖α); a full bucket is one of them
            // `max_terms` times over.
            let words: Vec<Natural> = [-1.0, 1.0]
                .iter()
                .flat_map(|&g| codec.pack(&[g, 1.0]).unwrap())
                .collect();
            let (gh_cts, _) = accel.encrypt_words_timed(&words, 3).unwrap();
            let buckets: Vec<Vec<Vec<usize>>> =
                vec![signs.iter().map(|&up| vec![usize::from(up); max_terms as usize]).collect()];
            let groups = HeteroSbt::bucket_groups(&codec, &buckets, &gh_cts).unwrap();
            let node = accel.fold_packed_decrypt_timed(&[groups], slot_bits).unwrap();
            let [(reply, _)] = <[_; 1]>::try_from(node.replies).unwrap();
            proptest::prop_assert_eq!(reply.len(), 1);
            let sums = HeteroSbt::decode_buckets(pk, &codec, &node.words, &buckets).unwrap();
            let full = f64::from(max_terms);
            let want: Vec<(f64, f64, u32)> = signs
                .iter()
                .map(|&up| (if up { full } else { -full }, full, max_terms))
                .collect();
            proptest::prop_assert_eq!(&sums[0], &want);
        }
    }

    #[test]
    fn a_bucket_past_its_guard_capacity_is_an_error_on_both_sides() {
        let model = HeteroSbt::new(&small_dataset(), 3, &TrainConfig::default()).unwrap();
        let max_terms = model.gh.max_terms();
        let pinned = format!(
            "platform: codec: aggregating {} terms exceeds the {max_terms}-term guard capacity",
            max_terms + 1
        );
        for packed in [true, false] {
            let codec = model.gh_codec(1024, packed).unwrap();
            // Host: refused before anything is folded.
            let over = vec![vec![vec![0usize; max_terms as usize + 1]]];
            let err = HeteroSbt::bucket_groups(&codec, &over, &[]).unwrap_err();
            assert_eq!(err.to_string(), pinned);
            // Guest: a count it cannot have packed is not decoded.
            let words = codec.pack(&[0.5, 0.5]).unwrap();
            assert!(codec.unpack_sums(&words, 2, max_terms).is_ok());
            let err = codec.unpack_sums(&words, 2, max_terms + 1).unwrap_err();
            assert_eq!(Error::from(err).to_string(), pinned);
        }
    }

    /// Without batch compression each bucket sum has a word to itself,
    /// decoded by the codec like any other: a bit above the GH slot of
    /// the `g` word is the codec's `SlotOverflow`, never a histogram
    /// with the bit cut off.
    #[test]
    fn a_bit_above_the_gh_slot_of_an_unpacked_bucket_is_a_slot_overflow() {
        let model = HeteroSbt::new(&small_dataset(), 3, &TrainConfig::default()).unwrap();
        for kind in [BackendKind::Fate, BackendKind::Haflo] {
            let env = env(kind);
            let pk = &env.accel.keys().public;
            let gh = model
                .gh_codec(env.accel.key_bits(), env.accel.batch_compression())
                .unwrap();
            let slot_bits = gh.quantizer().config().slot_bits();
            let buckets = vec![vec![vec![7usize]]];
            let mut words = gh.pack(&[0.25, 0.5]).unwrap();
            assert_eq!(words.len(), 2, "{kind:?}: `g` and `h` words");
            assert!(HeteroSbt::decode_buckets(pk, &gh, &words, &buckets).is_ok());
            words[0].add_assign_ref(&Natural::one().shl_bits(slot_bits));
            let err = HeteroSbt::decode_buckets(pk, &gh, &words, &buckets).unwrap_err();
            let overflow = codec::Error::SlotOverflow {
                word: 0,
                bits: slot_bits + 1,
                limit: slot_bits,
            };
            assert_eq!(err, Error::from(overflow), "{kind:?}");
        }
    }

    #[test]
    fn gh_encoding_roundtrip() {
        let data = small_dataset();
        let cfg = TrainConfig::default();
        let model = HeteroSbt::new(&data, 3, &cfg).unwrap();
        for packed in [true, false] {
            let codec = model.gh_codec(1024, packed).unwrap();
            let words = codec.pack(&[-0.37, 0.21]).unwrap();
            let gh = codec.unpack_sums(&words, 2, 1).unwrap();
            let (g, h) = (gh[0], gh[1]);
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
        let codec = model.gh_codec(1024, true).unwrap();
        let pairs = [(-0.5, 0.25), (0.1, 0.2), (0.3, 0.05)];
        let mut acc = Natural::zero();
        for (g, h) in pairs {
            acc = acc.add_ref(&codec.pack(&[g, h]).unwrap()[0]);
        }
        let gh = codec.unpack_sums(&[acc], 2, 3).unwrap();
        let (gs, hs) = (gh[0], gh[1]);
        assert!((gs - (-0.1)).abs() < 1e-3, "G {gs}");
        assert!((hs - 0.5).abs() < 1e-3, "H {hs}");
    }
}
