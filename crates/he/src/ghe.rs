//! GPU-HE: batched homomorphic operations (paper Sec. IV-A).
//!
//! The paper's key observation is that HE operations over a gradient
//! vector are *independent*, so encryption, decryption, and homomorphic
//! computation parallelize perfectly across GPU threads. This module is
//! laid out the way that argument runs — **operations once, schedule
//! twice**:
//!
//! - Each batched operation of [`HeBackend`] is written exactly once, as
//!   a provided method: its kernel name, its transfer bytes, its
//!   divergence stride, and a per-item body returning the item's result
//!   and the limb-level operations it cost. The body performs the *real*
//!   cryptographic computation whatever runs it.
//! - The operations that fold one aggregator node
//!   ([`sum_batches`](HeBackend::sum_batches),
//!   [`weighted_aggregate`](HeBackend::weighted_aggregate)) are the
//!   one-entry case of a multi-node form (`*_each`) that takes every node
//!   of a tree level: independent operations are issued together, one
//!   launch and one timing per entry, all the launches in one drive of
//!   the host pool. A SecureBoost tree node is one drive too
//!   ([`fold_packed_decrypt`](HeBackend::fold_packed_decrypt)): every
//!   party's [`fold_packed`](HeBackend::fold_packed) launch, then one
//!   decrypt launch whose items each wait for their packed word and no
//!   longer, so decryption starts while other parties still pack.
//! - A [`Schedule`] is the single place the backends differ — how a
//!   call's launches are fanned out and how simulated time is charged for
//!   each:
//!   - [`Schedule::Cpu`] — the FATE-style baseline: a serial per-value
//!     loop, simulated time `Σops · β_cpu` per launch, per the paper's
//!     Eq. 10 numerator.
//!   - [`Schedule::Gpu`] — the GHE layer: every batch becomes one kernel
//!     launch on a [`gpu_sim::Device`] ([`Device::launch_each`]), with
//!     the kernel spec (lanes, registers) derived from the key size, so
//!     occupancy and SM utilization respond to the key size exactly as in
//!     the paper's Fig. 6.
//!
//! [`CpuHe`] and [`GpuHe`] are a name, a schedule and an optional
//! blinding pool; nothing else distinguishes them.

use std::sync::{Arc, OnceLock};

use gpu_sim::{Device, KernelSpec, Launch};
use mpint::straus::MultiExpPlan;
use mpint::{Limb, Natural};
use rayon::prelude::*;

use crate::paillier::{Ciphertext, ObfuscatorPool, PaillierPrivateKey, PaillierPublicKey};
use crate::{Error, Result};

/// Timing and volume accounting for one batched HE launch. `Schedule::run`
/// is the only way a batched operation executes, and it returns one of
/// these beside each launch's results: a caller that drops it has dropped
/// the cost.
#[must_use = "the simulated cost of a batched HE call: charge it or it is lost"]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeTiming {
    /// Simulated seconds the operation took on its backend.
    pub sim_seconds: f64,
    /// Limb-level operations executed.
    pub ops: u64,
    /// Items processed.
    pub items: u64,
}

/// A batched homomorphic-encryption execution backend: a
/// [`name`](Self::name), a [`schedule`](Self::schedule) and an optional
/// blinding [`pool`](Self::pool). The operations are provided methods,
/// the same on every backend.
pub trait HeBackend: Send + Sync {
    /// Backend name for reports ("cpu", "gpu").
    fn name(&self) -> &'static str;

    /// Where this backend's batches run and how their time is charged.
    fn schedule(&self) -> Schedule<'_>;

    /// The blinding-factor pool batch encryption draws from, if any.
    fn pool(&self) -> Option<&ObfuscatorPool>;

    /// Encrypts a batch of plaintexts. `seed` derives per-item blinding
    /// randomness deterministically (each item gets an independent
    /// stream, matching the paper's per-thread RNG).
    fn encrypt_batch(
        &self,
        pk: &PaillierPublicKey,
        plaintexts: &[Natural],
        seed: u64,
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let pool = self.pool();
        let per_item_ops = match pool {
            Some(_) => pk.encrypt_pooled_op_estimate(),
            None => pk.encrypt_op_estimate(),
        };
        let kernel = Kernel {
            name: "paillier_encrypt",
            key_bits: pk.key_bits,
            // Plaintexts go up (quantized words), ciphertexts come back.
            bytes_in: plaintexts
                .iter()
                .map(|m| m.wire_size_bytes().max(4) as u64)
                .sum(),
            bytes_out: ct_bytes(pk) * plaintexts.len() as u64,
            divergence_stride: 2,
        };
        self.schedule()
            .run(&[(kernel, plaintexts)], |i, m| {
                (encrypt_item(pk, pool, m, seed, i), per_item_ops)
            })
            .map(sole)
    }

    /// Decrypts a batch of ciphertexts (CRT fast path).
    fn decrypt_batch(
        &self,
        sk: &PaillierPrivateKey,
        ciphertexts: &[Ciphertext],
    ) -> Result<(Vec<Natural>, HeTiming)> {
        let per_item_ops = sk.decrypt_op_estimate();
        let kernel = decrypt_kernel(sk, ciphertexts.len());
        self.schedule()
            .run(&[(kernel, ciphertexts)], |_, c| {
                (sk.decrypt_crt(c), per_item_ops)
            })
            .map(sole)
    }

    /// Pairwise homomorphic addition of two equal-length batches — the
    /// two-batch [`sum_batches`](Self::sum_batches); misaligned batches
    /// are an [`Error::InvalidParameter`].
    fn add_batch(
        &self,
        pk: &PaillierPublicKey,
        a: &[Ciphertext],
        b: &[Ciphertext],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        self.sum_batches(pk, &[a, b])
    }

    /// Slot-wise homomorphic sum of any number of equal-length batches in
    /// one launch: slot `j` of the result is
    /// [`checked_sum`](PaillierPublicKey::checked_sum) over slot `j` of
    /// every batch, charged as the `batches − 1` additions it replaces.
    /// Misaligned batches are an [`Error::InvalidParameter`]; no batches
    /// yield an empty output. `items` in the timing counts slots. The
    /// one-node [`sum_batches_each`](Self::sum_batches_each).
    fn sum_batches(
        &self,
        pk: &PaillierPublicKey,
        batches: &[&[Ciphertext]],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        self.sum_batches_each(pk, &[batches]).map(sole)
    }

    /// [`sum_batches`](Self::sum_batches) for every aggregator node of a
    /// tree level: one launch and one timing per node, in node order, all
    /// the launches side by side in one drive of the host pool. A node's
    /// error is its misalignment or its earliest failing slot, and the
    /// earliest failing node's error wins; no node after a misaligned one
    /// launches.
    fn sum_batches_each(
        &self,
        pk: &PaillierPublicKey,
        nodes: &[&[&[Ciphertext]]],
    ) -> Result<Vec<(Vec<Ciphertext>, HeTiming)>> {
        let (slots, misaligned) = prepare_each(nodes, |&batches| {
            let slots = batches.first().map_or(0, |b| b.len());
            if batches.iter().any(|b| b.len() != slots) {
                return Err(Error::InvalidParameter(
                    "add_batch requires equal-length batches",
                ));
            }
            Ok((0..slots).map(|j| (batches, j)).collect::<Vec<_>>())
        });
        let launches: Vec<(Kernel, &[_])> = slots
            .iter()
            .map(|slots| {
                let kernel = Kernel {
                    name: "paillier_add",
                    key_bits: pk.key_bits,
                    // Homomorphic computation keeps data resident (paper
                    // Fig. 4 phase ⑩–⑫): operands were already on-device
                    // from prior phases; only the key parameters move, and
                    // the result stays.
                    bytes_in: ct_bytes(pk),
                    bytes_out: 0,
                    divergence_stride: 4,
                };
                (kernel, slots.as_slice())
            })
            .collect();
        let per_add_ops = pk.add_op_estimate();
        let sums = self.schedule().run(&launches, |_, &(batches, j)| {
            let adds = batches.len().saturating_sub(1) as u64;
            (pk.checked_sum(&column(batches, j)), per_add_ops * adds)
        })?;
        misaligned.map_or(Ok(sums), Err)
    }

    /// Folds each group of ciphertexts into one by homomorphic addition,
    /// one [`checked_sum`](PaillierPublicKey::checked_sum) chain per group
    /// and one ciphertext back per group: an empty group yields the
    /// unblinded encryption of zero. SecureBoost's histogram reply is
    /// [`fold_packed`](Self::fold_packed), which sends nothing for an
    /// empty bucket.
    fn fold_groups(
        &self,
        pk: &PaillierPublicKey,
        groups: &[Vec<Ciphertext>],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let per_add_ops = pk.add_op_estimate();
        let kernel = Kernel {
            name: "paillier_fold",
            key_bits: pk.key_bits,
            // Operands are assumed device-resident (they arrive from a
            // prior encrypt); every group's sum comes back, empty or not.
            bytes_in: 0,
            bytes_out: ct_bytes(pk) * groups.len() as u64,
            divergence_stride: 2,
        };
        self.schedule()
            .run(&[(kernel, groups)], |_, group| {
                let members: Vec<&Ciphertext> = group.iter().collect();
                (pk.checked_sum(&members), per_add_ops * group.len() as u64)
            })
            .map(sole)
    }

    /// Folds each non-empty group and packs the sums, a run at a time,
    /// into shared plaintext words — a SecureBoost host's whole reply for
    /// one tree node. Empty groups are dropped; the `k` sums that remain
    /// are cut in index order into `⌈k / capacity⌉` runs of near-equal
    /// length ([`pack_capacity`](PaillierPublicKey::pack_capacity) slots
    /// fit a word), and each run is one item of one launch:
    /// [`checked_sum`](PaillierPublicKey::checked_sum) per group, then
    /// [`checked_pack`](PaillierPublicKey::checked_pack) with the run's
    /// `j`-th sum in slot `j`. One ciphertext per run comes back;
    /// [`unpack_runs`](PaillierPublicKey::unpack_runs) makes the same cut
    /// on the decrypted words. The caller vouches that every group's
    /// plaintext sum stays below `2^slot_bits`. Nothing to fold launches
    /// nothing. [`fold_packed_decrypt`](Self::fold_packed_decrypt) runs
    /// every party of a node and the guest's decryption together.
    fn fold_packed(
        &self,
        pk: &PaillierPublicKey,
        groups: &[Vec<&Ciphertext>],
        slot_bits: u32,
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let runs = pack_cut(pk, groups, slot_bits)?;
        if runs.is_empty() {
            return Ok(Default::default());
        }
        let kernel = fold_pack_kernel(pk, runs.len());
        let per_add_ops = pk.add_op_estimate();
        self.schedule()
            .run(&[(kernel, runs.as_slice())], |_, run| {
                pack_run(pk, run, slot_bits, per_add_ops)
            })
            .map(sole)
    }

    /// One SecureBoost tree node's exchange: every passive party's
    /// [`fold_packed`](Self::fold_packed) reply, and the active party's
    /// [`decrypt_batch`](Self::decrypt_batch) of all the replies' words,
    /// in party order, as one drive of the host pool. The drive holds one
    /// fold-and-pack launch per party with something to fold, in party
    /// order, then one decrypt launch whose item `j` waits for packed word
    /// `j` (a `Handoff`) and decrypts it as soon as it exists, so a worker
    /// done packing decrypts while another still packs. Every launch is
    /// charged and recorded as it would be alone: replies, words, timings
    /// and device stats equal `fold_packed` per party then one
    /// `decrypt_batch`. A party with nothing to fold gets an empty reply
    /// and a zero timing; no words launch no decrypt and time zero. The
    /// earliest failing party's error wins; no party after one whose runs
    /// cannot be cut launches, nor does the decrypt.
    fn fold_packed_decrypt(
        &self,
        sk: &PaillierPrivateKey,
        parties: &[&[Vec<&Ciphertext>]],
        slot_bits: u32,
    ) -> Result<NodeExchange> {
        let pk = &sk.public;
        let (cuts, uncut) = prepare_each(parties, |groups| pack_cut(pk, groups, slot_bits));
        // One hand-off per run, in party order: `zip` takes a party's
        // slots only while the party has runs left.
        let handoffs: Vec<Handoff> = cuts.iter().flatten().map(|_| Handoff::default()).collect();
        let mut slots = handoffs.iter();
        let packs: Vec<Vec<NodeItem<'_>>> = cuts
            .iter()
            .map(|runs| {
                let items = runs.iter().zip(slots.by_ref());
                items.map(|(run, slot)| NodeItem::Pack(run, slot)).collect()
            })
            .collect();
        let decrypts: Vec<NodeItem<'_>> = match uncut {
            Some(_) => Vec::new(),
            None => handoffs.iter().map(NodeItem::Decrypt).collect(),
        };
        let launches: Vec<(Kernel, &[_])> = packs
            .iter()
            .filter(|items| !items.is_empty())
            .map(|items| (fold_pack_kernel(pk, items.len()), items.as_slice()))
            .chain(
                (!decrypts.is_empty())
                    .then(|| (decrypt_kernel(sk, decrypts.len()), decrypts.as_slice())),
            )
            .collect();
        let per_add_ops = pk.add_op_estimate();
        let per_decrypt_ops = sk.decrypt_op_estimate();
        let mut done = self
            .schedule()
            .run(&launches, |_, item| match *item {
                NodeItem::Pack(run, slot) => {
                    let (packed, ops) = slot.produce(|| pack_run(pk, run, slot_bits, per_add_ops));
                    (packed.map(NodeOut::Packed), ops)
                }
                NodeItem::Decrypt(slot) => {
                    let word = match slot.wait() {
                        Some(c) => sk.decrypt_crt(c).map(NodeOut::Word),
                        None => Err(Error::InvalidParameter("no packed word to decrypt")),
                    };
                    (word, per_decrypt_ops)
                }
            })?
            .into_iter();
        if let Some(e) = uncut {
            return Err(e);
        }
        let replies = packs
            .iter()
            .map(|items| {
                if items.is_empty() {
                    Default::default()
                } else {
                    done.next().map(NodeOut::packed).unwrap_or_default()
                }
            })
            .collect();
        let (words, decrypt) = done.next().map(NodeOut::words).unwrap_or_default();
        Ok(NodeExchange {
            replies,
            words,
            decrypt,
        })
    }

    /// Weighted aggregation across participant batches:
    /// `out[j] = ∏ᵢ batches[i][j] ^ weights[i] mod n²` — one Bos–Coster
    /// chain per slot ([`PaillierPublicKey::weighted_sum`]), each on its
    /// own slot task, the chain and its `R`-power fix-up computed once
    /// for the whole launch (`PaillierPublicKey::weighted_pass`). Each
    /// slot is charged
    /// [`weighted_sum_op_estimate`](PaillierPublicKey::weighted_sum_op_estimate)
    /// of that plan, the chain it replays, and slot 0 also the launch's
    /// `R`-power
    /// ([`weighted_fixup_op_estimate`](PaillierPublicKey::weighted_fixup_op_estimate)).
    /// Weights are public sample counts. A weight count or batch length
    /// that does not line up is an [`Error::InvalidParameter`]; an empty
    /// batch list yields an empty output.
    fn weighted_aggregate(
        &self,
        pk: &PaillierPublicKey,
        batches: &[&[Ciphertext]],
        weights: &[u64],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        self.weighted_aggregate_each(pk, &[(batches, weights)])
            .map(sole)
    }

    /// [`weighted_aggregate`](Self::weighted_aggregate) for every edge
    /// aggregator of a tree's leaf level, each node its batches and their
    /// weights: each node's plan and `R`-power fix-up built first, then
    /// one launch and one timing per node, in node order, all the launches
    /// side by side in one drive of the host pool. The earliest failing
    /// node's error wins; no node after one whose weights or batches do
    /// not line up launches.
    fn weighted_aggregate_each(
        &self,
        pk: &PaillierPublicKey,
        nodes: &[(&[&[Ciphertext]], &[u64])],
    ) -> Result<Vec<(Vec<Ciphertext>, HeTiming)>> {
        let (ready, misaligned) = prepare_each(nodes, |&(batches, weights)| {
            if batches.len() != weights.len() {
                return Err(Error::InvalidParameter(
                    "weighted_aggregate requires one weight per batch",
                ));
            }
            let slots = batches.first().map_or(0, |b| b.len());
            if batches.iter().any(|b| b.len() != slots) {
                return Err(Error::InvalidParameter(
                    "weighted_aggregate requires equal-length batches",
                ));
            }
            let wnat: Vec<Natural> = weights.iter().map(|&w| Natural::from(w)).collect();
            let (plan, fixup) = pk.weighted_pass(&wnat);
            Ok(WeightedNode {
                batches,
                slots,
                per_slot_ops: pk.weighted_sum_op_estimate(&plan),
                fixup_ops: pk.weighted_fixup_op_estimate(&plan),
                plan,
                fixup,
            })
        });
        let slots: Vec<Vec<(&WeightedNode, usize)>> = ready
            .iter()
            .map(|node| (0..node.slots).map(|j| (node, j)).collect())
            .collect();
        let launches: Vec<(Kernel, &[_])> = ready
            .iter()
            .zip(&slots)
            .map(|(node, slots)| {
                let kernel = Kernel {
                    name: "paillier_weighted_sum",
                    key_bits: pk.key_bits,
                    // Participant ciphertexts are device-resident from
                    // prior phases (paper Fig. 4 ⑩–⑫); only the weights
                    // go up and the aggregated slots come back.
                    bytes_in: 8 * node.batches.len() as u64,
                    bytes_out: ct_bytes(pk) * node.slots as u64,
                    divergence_stride: 2,
                };
                (kernel, slots.as_slice())
            })
            .collect();
        let sums = self.schedule().run(&launches, |_, &(node, j)| {
            let sum = pk.weighted_sum_column(&column(node.batches, j), &node.plan, &node.fixup);
            let ops = node.per_slot_ops + if j == 0 { node.fixup_ops } else { 0 };
            (sum, ops)
        })?;
        misaligned.map_or(Ok(sums), Err)
    }
}

/// One SecureBoost tree node's exchange, from
/// [`HeBackend::fold_packed_decrypt`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeExchange {
    /// Each passive party's packed reply and its fold-and-pack timing, in
    /// party order.
    pub replies: Vec<(Vec<Ciphertext>, HeTiming)>,
    /// Every reply's words decrypted, party by party, in reply order.
    pub words: Vec<Natural>,
    /// The decryption's timing; zero when no party replied.
    pub decrypt: HeTiming,
}

/// An item of a node exchange's drive: a party's run to fold and pack
/// into its word's hand-off, or the decryption of the word handed off.
enum NodeItem<'a> {
    Pack(&'a [&'a [&'a Ciphertext]], &'a Handoff),
    Decrypt(&'a Handoff),
}

/// What a node exchange's item produced.
enum NodeOut {
    Packed(Ciphertext),
    Word(Natural),
}

impl NodeOut {
    /// A fold-and-pack launch's reply and timing.
    fn packed((outs, t): (Vec<NodeOut>, HeTiming)) -> (Vec<Ciphertext>, HeTiming) {
        let cts = outs.into_iter().filter_map(|o| match o {
            NodeOut::Packed(c) => Some(c),
            NodeOut::Word(_) => None,
        });
        (cts.collect(), t)
    }

    /// The decrypt launch's words and timing.
    fn words((outs, t): (Vec<NodeOut>, HeTiming)) -> (Vec<Natural>, HeTiming) {
        let words = outs.into_iter().filter_map(|o| match o {
            NodeOut::Word(m) => Some(m),
            NodeOut::Packed(_) => None,
        });
        (words.collect(), t)
    }
}

/// One packed word passed from the item that packs it to the item that
/// decrypts it, within one drive. The decrypt item's index is above the
/// pack item's, so by the pool's claim order (`rayon::pool`) its wait
/// ends: the pack was claimed first and fills the slot on every exit —
/// its word on success, nothing on an error or an unwind.
#[derive(Default)]
struct Handoff(OnceLock<Option<Ciphertext>>);

impl Handoff {
    /// Runs `pack` and hands its word over.
    fn produce(
        &self,
        pack: impl FnOnce() -> (Result<Ciphertext>, u64),
    ) -> (Result<Ciphertext>, u64) {
        struct Unwind<'a>(&'a OnceLock<Option<Ciphertext>>);
        impl Drop for Unwind<'_> {
            fn drop(&mut self) {
                // A no-op when the word was handed over below.
                let _ = self.0.set(None);
            }
        }
        let _unwind = Unwind(&self.0);
        let (packed, ops) = pack();
        let _ = self.0.set(packed.as_ref().ok().cloned());
        (packed, ops)
    }

    /// Blocks until the word is handed over: `None` if its pack failed.
    fn wait(&self) -> Option<&Ciphertext> {
        self.0.wait().as_ref()
    }
}

/// The non-empty groups of one party, cut into the runs a packed word
/// holds ([`HeBackend::fold_packed`]).
fn pack_cut<'a>(
    pk: &PaillierPublicKey,
    groups: &'a [Vec<&'a Ciphertext>],
    slot_bits: u32,
) -> Result<Vec<Vec<&'a [&'a Ciphertext]>>> {
    let filled: Vec<&[&Ciphertext]> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(Vec::as_slice)
        .collect();
    let spans = pk.pack_runs(filled.len(), slot_bits)?;
    Ok(spans
        .into_iter()
        .filter_map(|run| filled.get(run).map(<[_]>::to_vec))
        .collect())
}

/// One run folded and packed into one word, and what it cost: the
/// per-item body of every fold-and-pack launch.
fn pack_run(
    pk: &PaillierPublicKey,
    run: &[&[&Ciphertext]],
    slot_bits: u32,
    per_add_ops: u64,
) -> (Result<Ciphertext>, u64) {
    let members: usize = run.iter().map(|group| group.len()).sum();
    let ops = per_add_ops * members as u64 + pk.pack_op_estimate(run.len(), slot_bits);
    let packed = run
        .iter()
        .map(|group| pk.checked_sum(group))
        .collect::<Result<Vec<Ciphertext>>>()
        .and_then(|sums| pk.checked_pack(&sums.iter().collect::<Vec<_>>(), slot_bits));
    (packed, ops)
}

/// The fold-and-pack launch of one party's `runs` words.
fn fold_pack_kernel(pk: &PaillierPublicKey, runs: usize) -> Kernel {
    Kernel {
        name: "paillier_fold_pack",
        key_bits: pk.key_bits,
        // Operands are device-resident from the broadcast that delivered
        // them; one packed word per run comes back.
        bytes_in: 0,
        bytes_out: ct_bytes(pk) * runs as u64,
        divergence_stride: 2,
    }
}

/// The decrypt launch of `count` ciphertexts.
fn decrypt_kernel(sk: &PaillierPrivateKey, count: usize) -> Kernel {
    let pt_bytes = (sk.public.n.bit_len() as u64).div_ceil(8);
    Kernel {
        name: "paillier_decrypt",
        key_bits: sk.public.key_bits,
        bytes_in: ct_bytes(&sk.public) * count as u64,
        bytes_out: pt_bytes * count as u64,
        divergence_stride: 2,
    }
}

/// One weighted edge aggregator, ready to launch: its batches, its
/// Bos–Coster plan and `R`-power fix-up, and what each slot is charged.
struct WeightedNode<'a> {
    batches: &'a [&'a [Ciphertext]],
    slots: usize,
    plan: MultiExpPlan,
    fixup: Vec<Limb>,
    per_slot_ops: u64,
    fixup_ops: u64,
}

/// Checks each entry of a multi-node call in order, stopping at the first
/// that fails: what the entries before it prepared, and its error. The
/// caller launches what was prepared and returns the earliest failing
/// entry's error — a launch error of an earlier entry, else this one.
fn prepare_each<E, T>(
    entries: &[E],
    mut prepare: impl FnMut(&E) -> Result<T>,
) -> (Vec<T>, Option<Error>) {
    let mut ready = Vec::with_capacity(entries.len());
    for entry in entries {
        match prepare(entry) {
            Ok(t) => ready.push(t),
            Err(e) => return (ready, Some(e)),
        }
    }
    (ready, None)
}

/// The one result of a multi-launch call given one entry.
#[expect(
    clippy::expect_used,
    reason = "every multi-launch call returns one result per entry it is given"
)]
fn sole<T>(mut each: Vec<T>) -> T {
    each.pop().expect("one entry in, one result out")
}

/// What one launch of a batched operation tells the [`Schedule`] about
/// itself, beside its items and the call's per-item body.
struct Kernel {
    name: &'static str,
    key_bits: u32,
    /// Bytes copied to the device before the launch.
    bytes_in: u64,
    /// Bytes copied back after it.
    bytes_out: u64,
    /// Every `divergence_stride`-th item takes the data-dependent branch.
    divergence_stride: usize,
}

/// Slot `j` of every batch, borrowed. The batched folds check that every
/// batch holds the slot before they ask, so the column has one ciphertext
/// per batch.
fn column<'a>(batches: &[&'a [Ciphertext]], j: usize) -> Vec<&'a Ciphertext> {
    batches.iter().filter_map(|b| b.get(j)).collect()
}

/// Wire bytes of one ciphertext under `pk`.
fn ct_bytes(pk: &PaillierPublicKey) -> u64 {
    (pk.n_squared.bit_len() as u64).div_ceil(8)
}

/// Where a batch runs and how its simulated time is charged — the one
/// place the backends differ.
pub enum Schedule<'a> {
    /// The paper's FATE baseline. Simulated time charges `β_cpu` per
    /// limb-level operation *serially* (FATE's per-value Python loop);
    /// the computation itself runs on the host thread pool so that large
    /// benchmark batches finish quickly — wall-clock and simulated time
    /// are decoupled throughout the harness.
    Cpu {
        /// Seconds per limb-level operation (`β_cpu`).
        seconds_per_op: f64,
    },
    /// The GHE layer: one kernel launch per batch on the simulated device,
    /// each charged from its launch report (`timing_from`).
    Gpu(&'a Device),
}

impl Schedule<'_> {
    /// Runs `launches`, each a kernel and its items, as one drive of the
    /// host pool — `body(index, item)` per item — and charges each
    /// launch the limb-level operations its items report. Results and
    /// timings come back per launch, in launch order, each exactly what
    /// the launch would have returned alone; the earliest failing
    /// launch's error (its earliest failing item's) wins.
    fn run<I: Sync, R: Send>(
        &self,
        launches: &[(Kernel, &[I])],
        body: impl Fn(usize, &I) -> (Result<R>, u64) + Sync,
    ) -> Result<Vec<(Vec<R>, HeTiming)>> {
        match *self {
            Schedule::Cpu { seconds_per_op } => {
                let tasks: Vec<(usize, &I)> = launches
                    .iter()
                    .flat_map(|(_, items)| items.iter().enumerate())
                    .collect();
                #[expect(
                    clippy::disallowed_methods,
                    reason = "drive home: the batched HE launches of one call on the CPU schedule"
                )]
                let results: Vec<(Result<R>, u64)> =
                    tasks.par_iter().map(|&(i, item)| body(i, item)).collect();
                let mut results = results.into_iter();
                launches
                    .iter()
                    .map(|(_, items)| {
                        let own: Vec<(Result<R>, u64)> =
                            results.by_ref().take(items.len()).collect();
                        let ops: u64 = own.iter().map(|(_, ops)| ops).sum();
                        let out: Result<Vec<R>> = own.into_iter().map(|(r, _)| r).collect();
                        let timing = HeTiming {
                            sim_seconds: ops as f64 * seconds_per_op,
                            ops,
                            items: items.len() as u64,
                        };
                        Ok((out?, timing))
                    })
                    .collect()
            }
            Schedule::Gpu(device) => {
                let specs: Vec<Launch<'_, I>> = launches
                    .iter()
                    .map(|(kernel, items)| Launch {
                        spec: GpuHe::kernel_spec(kernel.name, kernel.key_bits, true),
                        items,
                        bytes_in: kernel.bytes_in,
                        bytes_out: kernel.bytes_out,
                    })
                    .collect();
                let each = device.launch_each(&specs, |l, i, item| {
                    let (out, ops) = body(i, item);
                    let divergent = launches
                        .get(l)
                        .is_some_and(|(kernel, _)| i % kernel.divergence_stride == 0);
                    // A launched thread does at least one op, even over an
                    // empty group.
                    gpu_sim::kernel::outcome_from_result(out, ops.max(1), divergent)
                });
                each.into_iter()
                    .map(|(results, report)| {
                        let out: Result<Vec<R>> = results.into_iter().collect();
                        Ok((out?, timing_from(&report, device.config())))
                    })
                    .collect()
            }
        }
    }
}

/// Encrypts one batch item, computing its blinding factor here and
/// moving it into the encryption. With a pool, the factor is the pool's
/// fixed-base power for `(seed, index)` ([`ObfuscatorPool`]). With no
/// pool (the FATE / HAFLO baselines) it is `r^n` for the uniform `r` of
/// [`PaillierPublicKey::batch_blinding`], by the public route.
/// [`HeBackend::encrypt_batch`] charges the first the pooled encrypt and
/// the second the paper's full inline `r^n`, whatever the host paid.
fn encrypt_item(
    pk: &PaillierPublicKey,
    pool: Option<&ObfuscatorPool>,
    m: &Natural,
    seed: u64,
    index: usize,
) -> Result<Ciphertext> {
    let obf = match pool {
        Some(p) => p.blinding_power(seed, index),
        None => pk.precompute_obfuscator(&pk.batch_blinding(seed, index)),
    };
    pk.encrypt_with_obfuscator(m, obf)
}

/// CPU execution of HE batches — the paper's FATE baseline
/// ([`Schedule::Cpu`]), charged at [`DEFAULT_CPU_SECONDS_PER_OP`]:
/// a `β_cpu` calibrated so 1024-bit Paillier encryption throughput lands
/// near the paper's Table IV FATE row (~360 instances/s).
#[derive(Debug, Clone, Default)]
pub struct CpuHe {
    pool: Option<Arc<ObfuscatorPool>>,
}

/// Calibrated `β_cpu`, seconds per limb-level operation (see
/// [`CpuHe`]).
pub const DEFAULT_CPU_SECONDS_PER_OP: f64 = 2.0e-9;

impl CpuHe {
    /// Attaches a blinding-factor pool: batch encryption draws each
    /// item's factor from it and is charged the pooled encrypt.
    pub fn with_pool(mut self, pool: Arc<ObfuscatorPool>) -> Self {
        self.pool = Some(pool);
        self
    }
}

impl HeBackend for CpuHe {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn schedule(&self) -> Schedule<'_> {
        Schedule::Cpu {
            seconds_per_op: DEFAULT_CPU_SECONDS_PER_OP,
        }
    }

    fn pool(&self) -> Option<&ObfuscatorPool> {
        self.pool.as_deref()
    }
}

/// Batched HE dispatched through the GPU execution-model simulator — the
/// paper's GHE layer ([`Schedule::Gpu`]).
#[derive(Clone)]
pub struct GpuHe {
    device: Arc<Device>,
    pool: Option<Arc<ObfuscatorPool>>,
}

impl GpuHe {
    /// Wraps a simulated device.
    pub fn new(device: Arc<Device>) -> Self {
        GpuHe { device, pool: None }
    }

    /// Attaches a blinding-factor pool: batch encryption draws each
    /// item's factor from it and is charged the pooled encrypt.
    pub fn with_pool(mut self, pool: Arc<ObfuscatorPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The underlying device (for stats inspection).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Kernel spec for an HE operation over a `key_bits`-bit cryptosystem.
    ///
    /// Each work item is one HE operation executed by a 32-lane thread
    /// group (the paper's `T` threads); each lane holds `x = s/T` words of
    /// the four working operands in registers, so register demand — and
    /// with it occupancy, Fig. 6 — scales with the key size.
    pub fn kernel_spec(name: &'static str, key_bits: u32, ciphertext: bool) -> KernelSpec {
        let bits = if ciphertext { 2 * key_bits } else { key_bits };
        let s = bits.div_ceil(64); // operand limbs
        let lanes = 32u32;
        let x = s.div_ceil(lanes); // words per lane
        KernelSpec {
            name,
            lanes_per_item: lanes,
            // 4 working operands × x 64-bit words × 2 registers, plus
            // bookkeeping.
            registers_per_thread: 24 + 8 * x,
            shared_mem_per_block: 0,
            // The final conditional subtraction of Algorithm 2 is a
            // data-dependent branch taken by roughly half the warps.
            divergence: 0.5,
        }
    }
}

impl HeBackend for GpuHe {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn schedule(&self) -> Schedule<'_> {
        Schedule::Gpu(&self.device)
    }

    fn pool(&self) -> Option<&ObfuscatorPool> {
        self.pool.as_deref()
    }
}

/// Converts a launch report into HE timing under *epoch-amortized*
/// accounting: kernel time is charged at the launch's occupancy-limited
/// device throughput rather than its instantaneous batch width.
///
/// Rationale: the paper's epochs stream hundreds of thousands of HE
/// operations through the GPU back-to-back, so the device is saturated;
/// the harness's scaled-down batches would otherwise be dominated by
/// tail-wave underfill that the real workload never sees. Occupancy (and
/// with it every register/branch effect the resource manager controls)
/// still shapes the charged time; only the batch-width underfill is
/// amortized away. Launch reports and utilization statistics keep the
/// unamortized view.
fn timing_from(report: &gpu_sim::LaunchReport, cfg: &gpu_sim::DeviceConfig) -> HeTiming {
    let resident = (report.plan.resident_threads_per_sm as u64 * cfg.num_sms as u64).max(1) as f64;
    // Re-derive the divergence-penalized op count the device charged.
    let penalized = report.sim_kernel_seconds * report.plan.concurrent_threads(cfg).max(1) as f64
        / cfg.sec_per_thread_op;
    let kernel_seconds = penalized / resident * cfg.sec_per_thread_op;
    HeTiming {
        sim_seconds: report.sim_h2d_seconds + kernel_seconds + report.sim_d2h_seconds,
        ops: report.total_thread_ops,
        items: report.items as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::PaillierKeyPair;
    use gpu_sim::DeviceConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn keys() -> PaillierKeyPair {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        PaillierKeyPair::generate(&mut rng, 128).unwrap()
    }

    fn gpu() -> GpuHe {
        GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())))
    }

    fn nats(vals: &[u64]) -> Vec<Natural> {
        vals.iter().map(|&v| Natural::from(v)).collect()
    }

    #[test]
    fn cpu_and_gpu_encrypt_same_plaintexts() {
        let k = keys();
        let ms = nats(&[1, 2, 3, 4, 5]);
        let (cpu_cts, _) = CpuHe::default().encrypt_batch(&k.public, &ms, 99).unwrap();
        let (gpu_cts, _) = gpu().encrypt_batch(&k.public, &ms, 99).unwrap();
        // Same seed => same per-item blinding => identical ciphertexts.
        assert_eq!(cpu_cts, gpu_cts);
        for (c, m) in cpu_cts.iter().zip(&ms) {
            assert_eq!(&k.private.decrypt(c).unwrap(), m);
        }
    }

    #[test]
    fn gpu_batch_roundtrip() {
        let k = keys();
        let g = gpu();
        let ms = nats(&[10, 20, 30, 40]);
        let (cts, enc_t) = g.encrypt_batch(&k.public, &ms, 7).unwrap();
        let (back, dec_t) = g.decrypt_batch(&k.private, &cts).unwrap();
        assert_eq!(back, ms);
        assert!(enc_t.sim_seconds > 0.0);
        assert!(dec_t.sim_seconds > 0.0);
        assert_eq!(enc_t.items, 4);
    }

    #[test]
    fn gpu_add_batch_is_homomorphic() {
        let k = keys();
        let g = gpu();
        let (ca, _) = g.encrypt_batch(&k.public, &nats(&[1, 2, 3]), 1).unwrap();
        let (cb, _) = g.encrypt_batch(&k.public, &nats(&[10, 20, 30]), 2).unwrap();
        let (sums, _) = g.add_batch(&k.public, &ca, &cb).unwrap();
        let (plains, _) = g.decrypt_batch(&k.private, &sums).unwrap();
        assert_eq!(plains, nats(&[11, 22, 33]));
    }

    #[test]
    fn gpu_is_simulated_faster_than_cpu_on_large_batches() {
        let k = keys();
        let ms = nats(&(0..512u64).collect::<Vec<_>>());
        let (_, cpu_t) = CpuHe::default().encrypt_batch(&k.public, &ms, 3).unwrap();
        let (_, gpu_t) = gpu().encrypt_batch(&k.public, &ms, 3).unwrap();
        assert!(
            gpu_t.sim_seconds < cpu_t.sim_seconds,
            "gpu {} !< cpu {}",
            gpu_t.sim_seconds,
            cpu_t.sim_seconds
        );
    }

    #[test]
    fn kernel_spec_registers_grow_with_key_size() {
        let r1 = GpuHe::kernel_spec("e", 1024, true).registers_per_thread;
        let r2 = GpuHe::kernel_spec("e", 2048, true).registers_per_thread;
        let r4 = GpuHe::kernel_spec("e", 4096, true).registers_per_thread;
        assert!(r1 < r2 && r2 < r4, "{r1} {r2} {r4}");
    }

    #[test]
    fn utilization_falls_with_key_size() {
        // The Fig.-6 trend, via occupancy of the planned kernels.
        let d = Device::new(DeviceConfig::rtx3090());
        let mut last = f64::INFINITY;
        for bits in [1024u32, 2048, 4096] {
            let spec = GpuHe::kernel_spec("enc", bits, true);
            let plan = d.manager().plan(d.config(), &spec, 100_000);
            assert!(plan.occupancy <= last, "occupancy rose at {bits}");
            last = plan.occupancy;
        }
    }

    #[test]
    fn device_stats_accumulate_he_launches() {
        let k = keys();
        let g = gpu();
        let (_, t2) = g.encrypt_batch(&k.public, &nats(&[1, 2]), 0).unwrap();
        let (cts, t1) = g.encrypt_batch(&k.public, &nats(&[3]), 1).unwrap();
        let (_, td) = g.decrypt_batch(&k.private, &cts).unwrap();
        assert_eq!((t2.items, t1.items, td.items), (2, 1, 1));
        let stats = g.device().stats();
        assert_eq!(stats.launches, 3);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
        let kernels: Vec<_> = stats.utilization_samples.iter().map(|s| s.kernel).collect();
        assert!(kernels.contains(&"paillier_encrypt"));
        assert!(kernels.contains(&"paillier_decrypt"));
    }

    fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    /// A backend and, when it runs on the simulated device, that device.
    type Backend = (Box<dyn HeBackend>, Option<Arc<Device>>);

    /// A fresh CPU backend and a fresh GPU backend, with the GPU's device
    /// stats rendered (empty for the CPU).
    fn fresh() -> [Backend; 2] {
        let device = Arc::new(Device::new(DeviceConfig::rtx3090()));
        [
            (Box::new(CpuHe::default()), None),
            (Box::new(GpuHe::new(Arc::clone(&device))), Some(device)),
        ]
    }

    fn stats(device: &Option<Arc<Device>>) -> String {
        format!("{:?}", device.as_ref().map(|d| d.stats()))
    }

    /// `(node, party)` uploads of `slots` ciphertexts each.
    fn uploads(pk: &PaillierPublicKey, nodes: &[(usize, usize)]) -> Vec<Vec<Vec<Ciphertext>>> {
        let cpu = CpuHe::default();
        nodes
            .iter()
            .enumerate()
            .map(|(n, &(parties, slots))| {
                (0..parties)
                    .map(|p| {
                        let ms = nats(
                            &(0..slots as u64)
                                .map(|j| 100 * p as u64 + j)
                                .collect::<Vec<_>>(),
                        );
                        cpu.encrypt_batch(pk, &ms, (n * 64 + p) as u64).unwrap().0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn multi_node_calls_equal_one_node_calls_bit_for_bit_at_any_width() {
        // Five nodes of different fan-ins and widths, the middle one with
        // no slots (an empty launch between non-empty ones).
        let k = keys();
        let pk = &k.public;
        let owned = uploads(pk, &[(3, 4), (1, 2), (4, 0), (2, 5), (5, 3)]);
        let nodes: Vec<Vec<&[Ciphertext]>> = owned
            .iter()
            .map(|node| node.iter().map(Vec::as_slice).collect())
            .collect();
        let nodes: Vec<&[&[Ciphertext]]> = nodes.iter().map(Vec::as_slice).collect();
        let weights: Vec<Vec<u64>> = nodes
            .iter()
            .enumerate()
            .map(|(n, node)| {
                (0..node.len() as u64)
                    .map(|p| 3 + 7 * p + n as u64)
                    .collect()
            })
            .collect();
        let weighted: Vec<(&[&[Ciphertext]], &[u64])> = nodes
            .iter()
            .zip(&weights)
            .map(|(&node, w)| (node, w.as_slice()))
            .collect();

        type Out = Vec<(Vec<Ciphertext>, HeTiming)>;
        let run_all = |be: &dyn HeBackend, each: bool| -> [Out; 2] {
            if each {
                [
                    be.sum_batches_each(pk, &nodes).unwrap(),
                    be.weighted_aggregate_each(pk, &weighted).unwrap(),
                ]
            } else {
                [
                    nodes
                        .iter()
                        .map(|n| be.sum_batches(pk, n).unwrap())
                        .collect(),
                    weighted
                        .iter()
                        .map(|(n, w)| be.weighted_aggregate(pk, n, w).unwrap())
                        .collect(),
                ]
            }
        };
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let got = in_pool(threads, || {
                fresh().map(|(be, device)| {
                    let together = format!("{:?} {}", run_all(&*be, true), stats(&device));
                    let (be, device) = fresh().into_iter().nth(device.is_some() as usize).unwrap();
                    let apart = format!("{:?} {}", run_all(&*be, false), stats(&device));
                    assert_eq!(together, apart, "{} threads={threads}", be.name());
                    together
                })
            });
            assert_eq!(
                reference.get_or_insert_with(|| got.clone()),
                &got,
                "threads={threads}"
            );
        }
        // The GPU recorded one sample per node, in call order.
        let (be, device) = fresh().into_iter().nth(1).unwrap();
        let [sums, _] = run_all(&*be, true);
        assert_eq!(sums.len(), 5);
        let want: Vec<&str> = ["paillier_add"; 5]
            .into_iter()
            .chain(["paillier_weighted_sum"; 5])
            .collect();
        assert_eq!(kernels(&device), want);
    }

    fn kernels(device: &Option<Arc<Device>>) -> Vec<&'static str> {
        let stats = device.as_ref().map(|d| d.stats()).unwrap_or_default();
        stats.utilization_samples.iter().map(|s| s.kernel).collect()
    }

    /// Each party's bucket groups: `groups` buckets of up to three of
    /// `cts`, strided so the parties' replies differ.
    fn histograms<'a>(cts: &'a [Ciphertext], parties: &[usize]) -> Vec<Vec<Vec<&'a Ciphertext>>> {
        parties
            .iter()
            .map(|&groups| {
                (0..groups)
                    .map(|g| cts.iter().skip(g).step_by(groups).take(g % 4).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn node_exchange_equals_fold_packed_per_party_then_one_decrypt_at_any_width() {
        // Four parties, one with nothing to fold and one of several runs:
        // the one-drive node call is `fold_packed` party by party, then one
        // `decrypt_batch` of every reply's words, to the bit — replies,
        // words, every timing, the device's stats and its kernel order.
        let k = keys();
        let cts = uploads(&k.public, &[(1, 40)]).remove(0).remove(0);
        let parties = histograms(&cts, &[17, 0, 4, 27]);
        let parties: Vec<&[Vec<&Ciphertext>]> = parties.iter().map(Vec::as_slice).collect();
        let slot_bits = 20;
        let apart = |be: &dyn HeBackend| {
            let replies: Vec<(Vec<Ciphertext>, HeTiming)> = parties
                .iter()
                .map(|p| be.fold_packed(&k.public, p, slot_bits).unwrap())
                .collect();
            let all: Vec<Ciphertext> = replies.iter().flat_map(|(r, _)| r.clone()).collect();
            let (words, decrypt) = be.decrypt_batch(&k.private, &all).unwrap();
            NodeExchange {
                replies,
                words,
                decrypt,
            }
        };
        let mut reference = None;
        for threads in [1usize, 2, 8] {
            let got = in_pool(threads, || {
                fresh().map(|(be, device)| {
                    let node = be
                        .fold_packed_decrypt(&k.private, &parties, slot_bits)
                        .unwrap();
                    let (alone, alone_device) =
                        fresh().into_iter().nth(device.is_some() as usize).unwrap();
                    let want = apart(&*alone);
                    let what = format!("{} threads={threads}", be.name());
                    assert_eq!(node, want, "{what}");
                    assert_eq!(stats(&device), stats(&alone_device), "{what}");
                    assert_eq!(kernels(&device), kernels(&alone_device), "{what}");
                    format!("{node:?} {}", stats(&device))
                })
            });
            assert_eq!(
                reference.get_or_insert_with(|| got.clone()),
                &got,
                "threads={threads}"
            );
        }

        let (be, device) = fresh().into_iter().nth(1).unwrap();
        let node = be
            .fold_packed_decrypt(&k.private, &parties, slot_bits)
            .unwrap();
        let lens: Vec<usize> = node.replies.iter().map(|(r, _)| r.len()).collect();
        assert_eq!(lens, [2, 0, 1, 4]);
        assert_eq!(
            node.replies[1],
            Default::default(),
            "an empty party launches nothing"
        );
        assert_eq!(node.words.len(), 7);
        let want = ["paillier_fold_pack"; 3]
            .into_iter()
            .chain(["paillier_decrypt"]);
        assert_eq!(kernels(&device), want.collect::<Vec<_>>());
        // And the words are the histograms: party 3's unpack to its sums.
        let sums: Vec<Natural> = parties[3]
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| {
                k.private
                    .decrypt_crt(&k.public.checked_sum(g).unwrap())
                    .unwrap()
            })
            .collect();
        let unpacked = k
            .public
            .unpack_runs(&node.words[3..], sums.len(), slot_bits);
        assert_eq!(unpacked.unwrap(), sums);

        // Nothing to fold anywhere launches nothing and times zero.
        for (be, device) in fresh() {
            let empty = be
                .fold_packed_decrypt(&k.private, &[&[], &[Vec::new()]], slot_bits)
                .unwrap();
            assert_eq!(empty.replies, vec![Default::default(); 2]);
            assert_eq!((empty.words, empty.decrypt), Default::default());
            assert!(kernels(&device).is_empty());
        }
    }

    #[test]
    fn a_failing_party_of_a_node_exchange_returns_its_own_error() {
        // Party 2 of 3 holds a foreign or an out-of-range upload; the node
        // call returns the error its own `fold_packed` returns, at any
        // width, and its waiting decrypt items do not hang.
        let k = keys();
        let other = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(43), 128).unwrap();
        let cts = uploads(&k.public, &[(1, 40)]).remove(0).remove(0);
        let foreign = uploads(&other.public, &[(1, 1)])
            .remove(0)
            .remove(0)
            .remove(0);
        let mut zero = cts[0].clone();
        zero.value = Natural::zero();
        for (bad, error) in [
            (&foreign, Error::KeyMismatch),
            (&zero, Error::CiphertextOutOfRange),
        ] {
            let mut parties = histograms(&cts, &[9, 13, 27]);
            parties[1][6][1] = bad;
            let parties: Vec<&[Vec<&Ciphertext>]> = parties.iter().map(Vec::as_slice).collect();
            for threads in [1usize, 2, 8] {
                in_pool(threads, || {
                    for (be, device) in fresh() {
                        let what = format!("{} threads={threads}", be.name());
                        let alone = be.fold_packed(&k.public, parties[1], 20).unwrap_err();
                        assert_eq!(alone, error, "{what}");
                        let before = kernels(&device).len();
                        let err = be.fold_packed_decrypt(&k.private, &parties, 20);
                        assert_eq!(err.unwrap_err(), error, "{what}");
                        // The drive ran whole: the device recorded every
                        // party's launch and the decrypt launch.
                        let want: Vec<&str> = match device {
                            Some(_) => ["paillier_fold_pack"; 3]
                                .into_iter()
                                .chain(["paillier_decrypt"])
                                .collect(),
                            None => Vec::new(),
                        };
                        assert_eq!(kernels(&device)[before..], want, "{what}");
                    }
                });
            }
        }
    }

    #[test]
    fn the_earliest_failing_node_wins_on_both_backends() {
        // Eight weighted leaves of four; node 5 holds a foreign-key upload
        // at position 2, which alone is its typed error.
        let k = keys();
        let pk = &k.public;
        let other = PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(43), 128).unwrap();
        let mut owned = uploads(pk, &[(4, 3); 8]);
        owned[5][2] = uploads(&other.public, &[(1, 3)]).remove(0).remove(0);
        let nodes: Vec<Vec<&[Ciphertext]>> = owned
            .iter()
            .map(|node| node.iter().map(Vec::as_slice).collect())
            .collect();
        let weights = [5u64, 6, 7, 8];
        let weighted = || -> Vec<(Vec<&[Ciphertext]>, &[u64])> {
            nodes.iter().map(|n| (n.clone(), &weights[..])).collect()
        };
        fn as_entries<'a>(
            w: &'a [(Vec<&'a [Ciphertext]>, &'a [u64])],
        ) -> Vec<(&'a [&'a [Ciphertext]], &'a [u64])> {
            w.iter().map(|(n, w)| (n.as_slice(), *w)).collect()
        }
        let foreign = Error::AggregandKeyMismatch { index: 2 };
        for threads in [1usize, 2, 8] {
            in_pool(threads, || {
                for (be, device) in fresh() {
                    let name = format!("{} threads={threads}", be.name());
                    let alone = be.weighted_aggregate(pk, &nodes[5], &weights).unwrap_err();
                    assert_eq!(alone, foreign, "{name}");
                    let all = weighted();
                    assert_eq!(
                        be.weighted_aggregate_each(pk, &as_entries(&all))
                            .unwrap_err(),
                        foreign,
                        "{name}"
                    );
                    let sums: Vec<&[&[Ciphertext]]> = nodes.iter().map(Vec::as_slice).collect();
                    assert_eq!(
                        be.sum_batches_each(pk, &sums).unwrap_err(),
                        Error::KeyMismatch,
                        "{name}"
                    );

                    // A later misaligned node loses to node 5; an earlier
                    // one wins, and nothing after it launches.
                    let mut late = weighted();
                    late[6].1 = &weights[..3];
                    assert_eq!(
                        be.weighted_aggregate_each(pk, &as_entries(&late))
                            .unwrap_err(),
                        foreign,
                        "{name}"
                    );
                    let mut early = weighted();
                    early[2].0.pop();
                    let before = device.as_ref().map(|d| d.stats().launches);
                    assert_eq!(
                        be.weighted_aggregate_each(pk, &as_entries(&early))
                            .unwrap_err(),
                        Error::InvalidParameter("weighted_aggregate requires one weight per batch"),
                        "{name}"
                    );
                    let after = device.as_ref().map(|d| d.stats().launches);
                    assert_eq!(
                        after,
                        before.map(|b| b + 2),
                        "{name}: nodes 0 and 1 launched"
                    );
                }
            });
        }
    }

    #[test]
    fn misaligned_batches_are_typed_errors_on_both_backends() {
        let k = keys();
        let backends: [&dyn HeBackend; 2] = [&CpuHe::default(), &gpu()];
        for be in backends {
            let (ca, _) = be.encrypt_batch(&k.public, &nats(&[1]), 0).unwrap();
            let err = be.add_batch(&k.public, &ca, &[]).unwrap_err();
            assert_eq!(
                err,
                Error::InvalidParameter("add_batch requires equal-length batches")
            );
            assert_eq!(
                err.to_string(),
                "invalid parameter: add_batch requires equal-length batches"
            );
            let two = [ca.as_slice(), ca.as_slice()];
            assert_eq!(
                be.weighted_aggregate(&k.public, &two, &[1]).unwrap_err(),
                Error::InvalidParameter("weighted_aggregate requires one weight per batch")
            );
            let ragged = [ca.as_slice(), &[]];
            assert_eq!(
                be.weighted_aggregate(&k.public, &ragged, &[1, 2])
                    .unwrap_err(),
                Error::InvalidParameter("weighted_aggregate requires equal-length batches")
            );
        }
    }
}
