//! The round engine: every exchange a model makes, and the only module
//! that charges.
//!
//! One round (the paper's Fig. 2) has every client compute locally,
//! encrypt its vector, and upload it; the server folds the ciphertexts
//! homomorphically and broadcasts the aggregate; every client decrypts.
//! [`run_round`] is the only implementation of that round — Homo LR,
//! Hetero LR and Hetero NN enter it, configured by
//! [`TrainConfig::engine`](crate::train::TrainConfig::engine). The other
//! exchanges and local compute are engine steps on [`FlEnv`]. Real
//! deployments overlap the stages — client 0's ciphertext is folding at
//! the server while client 7 is still encrypting — and the engine
//! reproduces that overlap on a deterministic simulated timeline.
//!
//! # Event model
//!
//! Each client advances through a small state machine
//! (`local-compute → encrypt → uplink → server-aggregate → downlink →
//! decrypt`), and every transition is an `Event` on a simulated-time
//! min-heap. The *real* cryptographic work (encrypt, homomorphic adds,
//! decrypt) executes eagerly — client encrypts concurrently on the
//! host pool, folds as ciphertexts arrive — while the event
//! queue only decides *when* each step lands on the timeline. Uplink,
//! edge-tree hops, and downlink transfers are laid out on a
//! [`LinkSchedule`] honouring the network's configured
//! `duplex_streams`, so concurrent transfers overlap exactly as far as
//! the modeled NIC allows.
//!
//! # Determinism
//!
//! Results and timings are invariant to the pool's thread count:
//!
//! - Encryption is deterministic per `(values, seed)` and runs under an
//!   order-preserving parallel map, so the ciphertext vector is the
//!   same in any pool.
//! - The event queue is ordered by `(time, sequence)` with
//!   [`f64::total_cmp`], and is drained single-threaded; no event time
//!   ever depends on wall clock.
//! - Paillier aggregation multiplies canonical residues mod `n²` — a
//!   commutative, associative product — so folding ciphertexts in
//!   *arrival* order is bit-identical to an index-order fold, and every
//!   add costs the same simulated seconds regardless of order.
//!
//! # Charging
//!
//! `EpochBreakdown::charge_work`, which lands every simulated second in
//! one component and one phase, and the one send step, which counts each
//! message's ciphertexts and bytes, are private to this module. In a
//! round, clients run in parallel on their own machines and are
//! symmetric, so
//! client-side compute, encrypt, and decrypt are charged once (the
//! survivor mean); server-side folds and all NIC traffic are serial and
//! charged in full. Work is invariant under reordering: `pipelined`
//! changes only the *elapsed*
//! [`round_seconds`](crate::metrics::EpochBreakdown::round_seconds).
//! With `pipelined` off every charge also elapses, so elapsed equals the
//! work total; with it on the engine adds the event timeline's critical
//! path once at the end of the round. Tree topologies charge each hop
//! at the partial aggregate's true wire size.
//!
//! The engine also prices every codec second: `CODEC_SECONDS_PER_VALUE`
//! per value packed or unpacked beside the [`he::ghe::HeTiming`] an
//! `Accelerator::*_timed` call returns, and
//! `GH_PACK_SECONDS_PER_INSTANCE` per SecureBoost `g‖h` instance.
//!
//! # Stragglers
//!
//! With a `straggler_timeout`, any client whose *local* deadline slips
//! (`compute + encrypt` exceeding the timeout) is dropped from the
//! round before its upload is admitted — the rule is local by design so
//! that NIC contention can never change membership, keeping the
//! survivor set identical at every thread count and duplex setting.
//! The server cannot finalize before the deadline when anyone dropped
//! (it waited that long to learn the stragglers' fate); survivors below
//! the quorum abandon the round with [`Error::StragglerTimeout`] naming
//! the first straggler. Dropped clients rejoin at the next round —
//! membership is recomputed per call.

#![expect(
    clippy::indexing_slicing,
    reason = "every index in this module is either a client index `k < parties.len()` \
              produced by enumerating the party vectors themselves, or a node index \
              yielded by the tree builder over `nodes`; both are in-bounds by \
              construction"
)]

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rayon::prelude::*;

use he::ghe::NodeExchange;
use he::paillier::Ciphertext;
use mpint::Natural;

use crate::backend::EncryptedVector;
use crate::metrics::{Charge, EpochBreakdown};
use crate::net::LinkSchedule;
use crate::train::{FlEnv, TrainConfig};
use crate::{Error, Result};

/// Round-engine configuration, carried by
/// [`TrainConfig::engine`](crate::train::TrainConfig::engine).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Overlap phases on the event timeline. When false the engine
    /// still runs the event machinery (and straggler semantics) but
    /// charges elapsed time equal to the work total.
    pub pipelined: bool,
    /// Local deadline in simulated seconds: a client whose
    /// `compute + encrypt` exceeds it is dropped from the round.
    /// `None` disables dropping.
    pub straggler_timeout: Option<f64>,
    /// Per-client compute heterogeneity: client `k`'s local compute is
    /// scaled by `compute_multipliers[k % len]`. Empty means every
    /// client runs at 1.0 (homogeneous).
    pub compute_multipliers: Vec<f64>,
    /// Minimum surviving clients for the round to count (clamped to at
    /// least 1). Fewer survivors abort the round with
    /// [`Error::StragglerTimeout`].
    pub min_clients: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pipelined: true,
            straggler_timeout: None,
            compute_multipliers: Vec::new(),
            min_clients: 1,
        }
    }
}

impl EngineConfig {
    /// A non-overlapping engine: same event machinery and straggler
    /// rules, elapsed time equal to work. This is
    /// [`TrainConfig`]'s default.
    pub fn sequential() -> Self {
        EngineConfig {
            pipelined: false,
            ..EngineConfig::default()
        }
    }

    /// Sets the straggler deadline (simulated seconds). Seconds are `f64`
    /// and counts `u64`, so a count is not accepted as time:
    ///
    /// ```compile_fail,E0308
    /// let bytes: u64 = 4096;
    /// fl::engine::EngineConfig::default().with_straggler_timeout(bytes);
    /// ```
    pub fn with_straggler_timeout(mut self, seconds: f64) -> Self {
        self.straggler_timeout = Some(seconds);
        self
    }

    /// Sets the per-client compute heterogeneity multipliers.
    pub fn with_compute_multipliers(mut self, multipliers: Vec<f64>) -> Self {
        self.compute_multipliers = multipliers;
        self
    }

    /// Sets the survival quorum.
    pub fn with_min_clients(mut self, min: usize) -> Self {
        self.min_clients = min;
        self
    }

    /// Client `k`'s compute multiplier.
    fn multiplier_for(&self, client: usize) -> f64 {
        if self.compute_multipliers.is_empty() {
            1.0
        } else {
            self.compute_multipliers[client % self.compute_multipliers.len()]
        }
    }

    fn validate(&self) -> Result<()> {
        for &m in &self.compute_multipliers {
            if !(m.is_finite() && m > 0.0) {
                return Err(Error::BadConfig(format!(
                    "compute multipliers must be finite and positive, got {m}"
                )));
            }
        }
        if let Some(t) = self.straggler_timeout {
            if !(t.is_finite() && t > 0.0) {
                return Err(Error::BadConfig(format!(
                    "straggler timeout must be finite and positive, got {t}"
                )));
            }
        }
        Ok(())
    }
}

/// One client's simulated-time trace through the round. Times are
/// absolute simulated seconds from round start; stages the client never
/// reached stay 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientTimeline {
    /// Local compute done.
    pub compute_done: f64,
    /// Encryption done (the straggler deadline is checked here).
    pub encrypt_done: f64,
    /// Uplink transfer admitted onto a NIC stream.
    pub uplink_start: f64,
    /// Ciphertext delivered to its aggregator.
    pub uplink_done: f64,
    /// Broadcast of the aggregate received.
    pub downlink_done: f64,
    /// New model decrypted and installed.
    pub decrypt_done: f64,
}

/// What one engine round produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundOutcome {
    /// Element-wise sums over the *survivors'* vectors (divide by
    /// `survivors.len()` for the mean).
    pub sums: Vec<f64>,
    /// Clients that made the round, ascending.
    pub survivors: Vec<usize>,
    /// Clients dropped at the straggler deadline, ascending.
    pub dropped: Vec<usize>,
    /// Elapsed simulated seconds for the round: the event timeline's
    /// critical path when pipelined, the work total otherwise.
    pub round_seconds: f64,
    /// Per-client traces, indexed by client.
    pub timelines: Vec<ClientTimeline>,
}

/// Who delivered a ciphertext to an aggregator node.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A client's uplink.
    Client(usize),
    /// A child aggregator's hop.
    Node(usize),
}

/// A state-machine transition on the simulated timeline.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A client finished its local mini-batch computation.
    ComputeDone { client: usize },
    /// A client finished encrypting (straggler deadline checked here).
    EncryptDone { client: usize },
    /// A ciphertext landed at an aggregator node.
    Arrive { node: usize, source: Source },
    /// An aggregator folded its whole fan-in.
    NodeDone { node: usize },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: simulated time, then insertion sequence — ties
        // resolve identically on every run and at every thread count.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The (time, sequence)-ordered event queue.
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// One aggregator in the fold tree (the flat topology is a single
/// root). Folds stream: each arrival is added into the node's partial
/// as soon as the node is free.
struct AggNode {
    parent: Option<usize>,
    fan_in: usize,
    received: usize,
    /// When the node's serial fold unit frees up.
    busy_until: f64,
    /// The streaming partial aggregate.
    acc: Option<EncryptedVector>,
}

fn internal_error(what: &str) -> Error {
    Error::BadConfig(format!("round engine internal invariant broken: {what}"))
}

/// Runs one secure-aggregation round over `parties` same-length
/// vectors, charging `breakdown` and returning the surviving sums.
///
/// `client_flops` holds each client's local-compute cost for the round
/// (same length as `parties`); the engine scales it by the configured
/// heterogeneity multipliers to stagger the timeline and charges the
/// survivor mean. A caller that charges its own local compute passes
/// zeros.
pub fn run_round(
    env: &FlEnv,
    engine: &EngineConfig,
    cfg: &TrainConfig,
    parties: &[Vec<f64>],
    client_flops: &[u64],
    seed: u64,
    breakdown: &mut EpochBreakdown,
) -> Result<RoundOutcome> {
    engine.validate()?;
    let p = parties.len();
    if p == 0 {
        return Ok(RoundOutcome::default());
    }
    if client_flops.len() != p {
        return Err(Error::BadConfig(format!(
            "engine round: {} parties but {} flop counts",
            p,
            client_flops.len()
        )));
    }
    // Slot-wise aggregation needs same-shaped vectors; reject a ragged
    // round here, before any ciphertext reaches the fold.
    let values = parties[0].len();
    if let Some((k, v)) = parties.iter().enumerate().find(|(_, v)| v.len() != values) {
        return Err(Error::BadConfig(format!(
            "engine round: party {k} has {} values but party 0 has {values}",
            v.len()
        )));
    }

    // --- Real work, phase 1: every client encrypts on the pool. ---
    // Order-preserving parallel map: ciphertexts are a deterministic
    // function of (values, seed), so the vector is thread-count
    // invariant. Timings come back per client instead of through the
    // shared accumulator.
    #[expect(
        clippy::disallowed_methods,
        reason = "drive home: the round's client fan-out"
    )]
    let encrypted: Vec<Result<_>> = parties
        .par_iter()
        .enumerate()
        .map(|(k, v)| env.accel.encrypt_timed(v, seed.wrapping_add(k as u64)))
        .collect();
    let mut client_cts = Vec::with_capacity(p);
    let mut enc_timings = Vec::with_capacity(p);
    for r in encrypted {
        let (ev, t) = r?;
        client_cts.push(Some(ev));
        enc_timings.push(t);
    }

    // --- Timeline durations and straggler membership. ---
    let mut compute_dur = Vec::with_capacity(p);
    let mut enc_dur = Vec::with_capacity(p);
    for k in 0..p {
        compute_dur.push(client_flops[k] as f64 * engine.multiplier_for(k) * cfg.sec_per_flop);
        enc_dur.push(enc_timings[k].sim_seconds + codec_seconds(values));
    }
    let mut timelines = vec![ClientTimeline::default(); p];
    let mut survivors = Vec::with_capacity(p);
    let mut dropped = Vec::new();
    let mut is_dropped = vec![false; p];
    for k in 0..p {
        timelines[k].compute_done = compute_dur[k];
        timelines[k].encrypt_done = compute_dur[k] + enc_dur[k];
        let late = matches!(engine.straggler_timeout, Some(t) if timelines[k].encrypt_done > t);
        if late {
            dropped.push(k);
            is_dropped[k] = true;
        } else {
            survivors.push(k);
        }
    }
    if survivors.len() < engine.min_clients.max(1) {
        return match dropped.first() {
            Some(&client) => Err(Error::StragglerTimeout { client }),
            None => Err(Error::BadConfig(format!(
                "engine round: min_clients {} exceeds party count {}",
                engine.min_clients, p
            ))),
        };
    }
    let n = survivors.len() as f64;

    // Every charge is work; with pipelining off it also elapses, so the
    // round's elapsed time is the running work total.
    let serial = !engine.pipelined;
    let mut work = 0.0;
    let mut charge = |b: &mut EpochBreakdown, kind: Charge, seconds: f64| {
        b.charge_work(kind, seconds, serial);
        work += seconds;
    };

    // --- Client-side charges (survivor means). ---
    let mut flops_sum = 0.0;
    let mut enc_he_sum = 0.0;
    let mut enc_codec_sum = 0.0;
    for &k in &survivors {
        flops_sum += client_flops[k] as f64 * engine.multiplier_for(k);
        enc_he_sum += enc_timings[k].sim_seconds;
        enc_codec_sum += codec_seconds(values);
    }
    charge(breakdown, Charge::Compute, flops_sum / n * cfg.sec_per_flop);
    charge(breakdown, Charge::EncryptHe, enc_he_sum / n);
    charge(breakdown, Charge::EncryptCodec, enc_codec_sum / n);
    breakdown.he_values += values as u64;

    // --- Uplink costs, charged in client index order (the network's
    // drop-retry randomness, when enabled, must consume its stream in
    // the same order at every thread count). ---
    let mut uplink_dur = vec![0.0f64; p];
    for &k in &survivors {
        let Some(ev) = client_cts[k].as_ref() else {
            return Err(internal_error("survivor ciphertext missing"));
        };
        let d = env.send(&ev.cts, breakdown)?;
        charge(breakdown, Charge::Uplink, d);
        uplink_dur[k] = d;
    }

    // --- Fold tree over survivor positions (flat = one root). ---
    let topology = env.accel.topology();
    let groups = topology.leaf_groups(survivors.len());
    let mut nodes: Vec<AggNode> = Vec::new();
    let mut leaf_of_client = vec![0usize; p];
    for (g_idx, g) in groups.iter().enumerate() {
        for pos in g.clone() {
            leaf_of_client[survivors[pos]] = g_idx;
        }
        nodes.push(AggNode {
            parent: None,
            fan_in: g.len(),
            received: 0,
            busy_until: 0.0,
            acc: None,
        });
    }
    let mut level: Vec<usize> = (0..groups.len()).collect();
    while level.len() > 1 {
        let mut next = Vec::new();
        for g in topology.leaf_groups(level.len()) {
            let parent = nodes.len();
            nodes.push(AggNode {
                parent: None,
                fan_in: g.len(),
                received: 0,
                busy_until: 0.0,
                acc: None,
            });
            for pos in g {
                nodes[level[pos]].parent = Some(parent);
            }
            next.push(parent);
        }
        level = next;
    }
    if level.is_empty() {
        return Err(internal_error("empty fold tree"));
    }

    // --- Event loop: drain the timeline. ---
    let mut queue = EventQueue::new();
    for (k, &t) in compute_dur.iter().enumerate() {
        queue.push(t, EventKind::ComputeDone { client: k });
    }
    let mut link = LinkSchedule::for_config(env.network.config());
    let mut agg_he_total = 0.0;
    let mut root_acc: Option<EncryptedVector> = None;
    let mut root_done_at: Option<f64> = None;
    while let Some(event) = queue.pop() {
        let now = event.time;
        match event.kind {
            EventKind::ComputeDone { client } => {
                queue.push(now + enc_dur[client], EventKind::EncryptDone { client });
            }
            EventKind::EncryptDone { client } => {
                if is_dropped[client] {
                    continue;
                }
                let (start, finish) = link.admit(now, uplink_dur[client]);
                timelines[client].uplink_start = start;
                timelines[client].uplink_done = finish;
                queue.push(
                    finish,
                    EventKind::Arrive {
                        node: leaf_of_client[client],
                        source: Source::Client(client),
                    },
                );
            }
            EventKind::Arrive { node, source } => {
                let payload = match source {
                    Source::Client(k) => client_cts[k].take(),
                    Source::Node(child) => nodes[child].acc.take(),
                };
                let Some(payload) = payload else {
                    return Err(internal_error("arrival without a ciphertext"));
                };
                if nodes[node].busy_until < now {
                    nodes[node].busy_until = now;
                }
                match nodes[node].acc.take() {
                    None => nodes[node].acc = Some(payload),
                    Some(acc) => {
                        // Real work, phase 2: one streaming fold step.
                        // Arrival-order folding is bit-identical to the
                        // index-order fold (commutative product of
                        // canonical residues), and each add's simulated
                        // cost is shape-determined, so the charged total
                        // is order-invariant too.
                        let (sum, t) = env.accel.add_timed(&acc, &payload)?;
                        agg_he_total += t.sim_seconds;
                        nodes[node].busy_until += t.sim_seconds;
                        nodes[node].acc = Some(sum);
                    }
                }
                nodes[node].received += 1;
                if nodes[node].received == nodes[node].fan_in {
                    queue.push(nodes[node].busy_until, EventKind::NodeDone { node });
                }
            }
            EventKind::NodeDone { node } => match nodes[node].parent {
                Some(parent) => {
                    // Hop one level up: charged at the partial's true
                    // wire size, overlapped on the same link schedule.
                    let d = match nodes[node].acc.as_ref() {
                        Some(part) => env.send(&part.cts, breakdown)?,
                        None => return Err(internal_error("edge node finished empty")),
                    };
                    charge(breakdown, Charge::Uplink, d);
                    let (_start, finish) = link.admit(now, d);
                    queue.push(
                        finish,
                        EventKind::Arrive {
                            node: parent,
                            source: Source::Node(node),
                        },
                    );
                }
                None => {
                    // The server cannot close the round before the
                    // straggler deadline when anyone dropped: it waited
                    // until then to learn who was coming.
                    let deadline = engine.straggler_timeout.unwrap_or(0.0);
                    let closes = if dropped.is_empty() {
                        now
                    } else {
                        now.max(deadline)
                    };
                    root_done_at = Some(closes);
                    root_acc = nodes[node].acc.take();
                }
            },
        }
    }
    let (agg, root_done) = match (root_acc, root_done_at) {
        (Some(a), Some(t)) => (a, t),
        _ => return Err(internal_error("aggregation never completed")),
    };
    charge(breakdown, Charge::Aggregate, agg_he_total);

    // --- Downlink: broadcast the aggregate to every survivor. ---
    let mut broadcast_total = 0.0;
    let mut last_downlink = root_done;
    for &k in &survivors {
        let d = env.send(&agg.cts, breakdown)?;
        broadcast_total += d;
        let (_start, finish) = link.admit(root_done, d);
        timelines[k].downlink_done = finish;
        if finish > last_downlink {
            last_downlink = finish;
        }
    }
    charge(breakdown, Charge::Downlink, broadcast_total);

    // --- Real work, phase 3: decrypt (clients are symmetric; one
    // client's cost is charged). ---
    let (sums, dec_t) = env
        .accel
        .decrypt_sum_timed(&agg, crate::count_u32(survivors.len()))?;
    let dec_codec = codec_seconds(agg.count);
    charge(breakdown, Charge::DecryptHe, dec_t.sim_seconds);
    charge(breakdown, Charge::DecryptCodec, dec_codec);
    let decrypt_dur = dec_t.sim_seconds + dec_codec;
    for &k in &survivors {
        timelines[k].decrypt_done = timelines[k].downlink_done + decrypt_dur;
    }

    let round_seconds = if engine.pipelined {
        // The one elapsed-time write outside `charge_work`: overlapped
        // work was charged off the clock, so the critical path goes on
        // it here, once.
        let critical_path = last_downlink + decrypt_dur;
        breakdown.round_seconds += critical_path;
        critical_path
    } else {
        work
    };

    Ok(RoundOutcome {
        sums,
        survivors,
        dropped,
        round_seconds,
        timelines,
    })
}

/// Simulated cost of the per-value data conversion + encode/quantize/pack
/// step (paper Fig. 4 "data conversion"/"data processing"): dominated by
/// the float↔multi-precision boundary crossing, calibrated so FATE's
/// "Others" share lands near the paper's 0.1% and FLBooster's near 22%.
const CODEC_SECONDS_PER_VALUE: f64 = 5.0e-6;

/// SecureBoost's `g‖h` packing cost per instance (codec seconds).
const GH_PACK_SECONDS_PER_INSTANCE: f64 = 4.0e-8;

/// Simulated codec seconds for `values` gradient components, on either
/// side of the HE step ([`Accelerator::encrypt_timed`] packs them,
/// [`Accelerator::decrypt_sum_timed`] unpacks them).
///
/// [`Accelerator::encrypt_timed`]: crate::Accelerator::encrypt_timed
/// [`Accelerator::decrypt_sum_timed`]: crate::Accelerator::decrypt_sum_timed
fn codec_seconds(values: usize) -> f64 {
    values as f64 * CODEC_SECONDS_PER_VALUE
}

impl EpochBreakdown {
    /// Charges `seconds` of `kind` work that nothing overlaps: they
    /// count as work and also elapse on the round clock.
    fn charge(&mut self, kind: Charge, seconds: f64) {
        self.charge_work(kind, seconds, true);
    }

    /// Charges `seconds` of `kind` work to its component and its phase —
    /// the only place either attribution is written, so the two cannot
    /// drift. When `serial`, the seconds also elapse on the round clock;
    /// the pipelined round passes `false` and adds its critical path to
    /// [`round_seconds`](EpochBreakdown::round_seconds) once per round.
    /// Private to this module, so a charge by hand does not compile:
    ///
    /// ```compile_fail,E0624
    /// use fl::metrics::{Charge, EpochBreakdown};
    /// let mut b = EpochBreakdown::default();
    /// b.charge_work(Charge::Compute, 1.0e-3, true); // only `fl::engine` charges
    /// ```
    fn charge_work(&mut self, kind: Charge, seconds: f64, serial: bool) {
        let (component, phase) = match kind {
            Charge::Compute => (&mut self.other_seconds, &mut self.phases.compute_seconds),
            Charge::EncryptHe => (&mut self.he_seconds, &mut self.phases.encrypt_seconds),
            Charge::EncryptCodec => (&mut self.other_seconds, &mut self.phases.encrypt_seconds),
            Charge::Uplink => (&mut self.comm_seconds, &mut self.phases.uplink_seconds),
            Charge::Aggregate => (&mut self.he_seconds, &mut self.phases.aggregate_seconds),
            Charge::Downlink => (&mut self.comm_seconds, &mut self.phases.downlink_seconds),
            Charge::DecryptHe => (&mut self.he_seconds, &mut self.phases.decrypt_seconds),
            Charge::DecryptCodec => (&mut self.other_seconds, &mut self.phases.decrypt_seconds),
        };
        *component += seconds;
        *phase += seconds;
        if serial {
            self.round_seconds += seconds;
        }
    }
}

/// The exchanges that are not a round, charged as DESIGN §9 says.
impl FlEnv {
    /// The one send step: sends `payload` as one message and counts its
    /// ciphertexts and wire bytes; the caller charges the seconds.
    fn send(&self, payload: &[Ciphertext], breakdown: &mut EpochBreakdown) -> Result<f64> {
        let ciphertexts = payload.len() as u64;
        let bytes: u64 = payload.iter().map(|c| c.wire_size_bytes() as u64).sum();
        let seconds = self.network.send(ciphertexts, bytes)?;
        breakdown.comm_bytes += bytes;
        breakdown.ciphertexts += ciphertexts;
        Ok(seconds)
    }

    /// Encrypted broadcast: one party encrypts `values` once and sends the
    /// ciphertexts to each of `receivers` parties, who share the key and
    /// decrypt in parallel. Returns the values after their
    /// quantize→encrypt→decrypt round trip, which every receiver trains on.
    /// Charged: the encryption once, each send as downlink, one receiver's
    /// decryption; `he_values` counts `values` once. With no receiver
    /// nothing is protected, sent or charged.
    pub fn encrypted_broadcast(
        &self,
        values: &[f64],
        receivers: usize,
        seed: u64,
        breakdown: &mut EpochBreakdown,
    ) -> Result<Vec<f64>> {
        self.encrypted_send(values, receivers, Charge::Downlink, seed, breakdown)
    }

    /// Pairwise encrypted exchange: [`encrypted_broadcast`](Self::encrypted_broadcast)
    /// to one receiver, the send charged as uplink.
    pub fn encrypted_exchange(
        &self,
        values: &[f64],
        seed: u64,
        breakdown: &mut EpochBreakdown,
    ) -> Result<Vec<f64>> {
        self.encrypted_send(values, 1, Charge::Uplink, seed, breakdown)
    }

    fn encrypted_send(
        &self,
        values: &[f64],
        receivers: usize,
        link: Charge,
        seed: u64,
        breakdown: &mut EpochBreakdown,
    ) -> Result<Vec<f64>> {
        if receivers == 0 {
            return Ok(values.to_vec());
        }
        let (ev, enc_t) = self.accel.encrypt_timed(values, seed)?;
        breakdown.charge(Charge::EncryptHe, enc_t.sim_seconds);
        breakdown.charge(Charge::EncryptCodec, codec_seconds(values.len()));
        // One charge per send, not one total: f64 sums depend on add order,
        // and a broadcast to `k` receivers must charge the links exactly
        // what `k` exchanges of this payload do.
        for _ in 0..receivers {
            let t = self.send(&ev.cts, breakdown)?;
            breakdown.charge(link, t);
        }
        let (out, dec_t) = self.accel.decrypt_sum_timed(&ev, 1)?;
        breakdown.charge(Charge::DecryptHe, dec_t.sim_seconds);
        breakdown.charge(Charge::DecryptCodec, codec_seconds(ev.count));
        breakdown.he_values += values.len() as u64;
        Ok(out)
    }

    /// Charges `flops` of local model computation to "Others".
    pub fn charge_local_compute(
        &self,
        flops: u64,
        cfg: &TrainConfig,
        breakdown: &mut EpochBreakdown,
    ) {
        breakdown.charge(Charge::Compute, flops as f64 * cfg.sec_per_flop);
    }

    /// SecureBoost's gradient broadcast: encrypts the `g‖h` `words` (one
    /// per instance under batch compression, else `g` then `h`) and sends
    /// them to each of `receivers` passive parties, the sends summed into
    /// one downlink charge. Returns the ciphertexts the parties fold.
    pub fn encrypted_gh_broadcast(
        &self,
        words: &[Natural],
        receivers: u32,
        seed: u64,
        breakdown: &mut EpochBreakdown,
    ) -> Result<Vec<Ciphertext>> {
        let (gh_cts, t) = self.accel.encrypt_words_timed(words, seed)?;
        let values = (1 + u64::from(self.accel.batch_compression())) * words.len() as u64;
        breakdown.charge(Charge::EncryptHe, t.sim_seconds);
        breakdown.he_values += values;
        let pack_seconds = (values / 2) as f64 * GH_PACK_SECONDS_PER_INSTANCE;
        breakdown.charge(Charge::EncryptCodec, pack_seconds);
        if receivers > 0 {
            let mut total = 0.0;
            for _ in 0..receivers {
                total += self.send(&gh_cts, breakdown)?;
            }
            breakdown.charge(Charge::Downlink, total);
        }
        Ok(gh_cts)
    }

    /// One SecureBoost node's histogram exchange over each passive party's
    /// bucket `groups`, charged party by party (its fold as aggregation,
    /// its reply as uplink), then the decryption. Returns each party's
    /// reply length and the decrypted words.
    pub fn histogram_exchange(
        &self,
        groups: &[Vec<Vec<&Ciphertext>>],
        slot_bits: u32,
        breakdown: &mut EpochBreakdown,
    ) -> Result<(Vec<usize>, Vec<Natural>)> {
        let NodeExchange {
            replies,
            words,
            decrypt,
        } = self.accel.fold_packed_decrypt_timed(groups, slot_bits)?;
        let values_per_sum = 1 + u64::from(self.accel.batch_compression());
        let mut reply_lens = Vec::with_capacity(replies.len());
        for ((reply, t), party) in replies.into_iter().zip(groups) {
            breakdown.charge(Charge::Aggregate, t.sim_seconds);
            let ts = self.send(&reply, breakdown)?;
            breakdown.charge(Charge::Uplink, ts);
            let sums = party.iter().filter(|g| !g.is_empty()).count() as u64;
            breakdown.he_values += values_per_sum * sums;
            reply_lens.push(reply.len());
        }
        if !words.is_empty() {
            breakdown.charge(Charge::DecryptHe, decrypt.sim_seconds);
        }
        Ok((reply_lens, words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Accelerator, BackendKind};
    use crate::topology::AggregationTopology;
    use he::paillier::PaillierKeyPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn keys() -> PaillierKeyPair {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE17);
        PaillierKeyPair::generate(&mut rng, 128).unwrap()
    }

    fn env_with(kind: BackendKind, duplex: u32) -> FlEnv {
        let accel = Accelerator::new(kind, keys(), 8).unwrap();
        let profile = accel.network_profile().with_duplex_streams(duplex);
        let network = crate::net::Network::new(profile, 1);
        FlEnv { accel, network }
    }

    fn parties(p: usize, len: usize) -> Vec<Vec<f64>> {
        (0..p)
            .map(|k| {
                (0..len)
                    .map(|i| ((k * len + i) as f64 * 0.31).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_charge_kind_lands_in_one_component_and_one_phase() {
        // (kind, component it must land in, phase slot it must land in)
        let he = |b: &EpochBreakdown| b.he_seconds;
        let comm = |b: &EpochBreakdown| b.comm_seconds;
        let other = |b: &EpochBreakdown| b.other_seconds;
        type Get = fn(&EpochBreakdown) -> f64;
        let cases: [(Charge, Get, Get); 8] = [
            (Charge::Compute, other, |b| b.phases.compute_seconds),
            (Charge::EncryptHe, he, |b| b.phases.encrypt_seconds),
            (Charge::EncryptCodec, other, |b| b.phases.encrypt_seconds),
            (Charge::Uplink, comm, |b| b.phases.uplink_seconds),
            (Charge::Aggregate, he, |b| b.phases.aggregate_seconds),
            (Charge::Downlink, comm, |b| b.phases.downlink_seconds),
            (Charge::DecryptHe, he, |b| b.phases.decrypt_seconds),
            (Charge::DecryptCodec, other, |b| b.phases.decrypt_seconds),
        ];
        for (kind, component, phase) in cases {
            let mut b = EpochBreakdown::default();
            b.charge(kind, 1.5);
            assert_eq!(component(&b), 1.5, "{kind:?} component");
            assert_eq!(phase(&b), 1.5, "{kind:?} phase");
            assert_eq!(b.total_seconds(), 1.5, "{kind:?}: one component only");
            assert_eq!(b.phases.total(), 1.5, "{kind:?}: one phase only");
            assert_eq!(b.round_seconds, 1.5, "{kind:?}: serial seconds elapse");

            // Overlapped work is the same attribution off the round clock.
            let mut w = EpochBreakdown::default();
            w.charge_work(kind, 1.5, false);
            assert_eq!(w.round_seconds, 0.0, "{kind:?}");
            w.round_seconds = 1.5;
            assert_eq!(w, b, "{kind:?}");
        }
    }

    /// Every model's epoch counts each message it sends exactly once: on
    /// a lossless link the breakdown's wire counters equal the network's,
    /// through the round, the broadcast, the pairwise exchange and
    /// SecureBoost's broadcast and replies alike.
    #[test]
    fn every_model_counts_each_message_once() {
        use crate::data::generators::DatasetSpec;
        use crate::models::{HeteroLr, HeteroNn, HeteroSbt, HomoLr};
        use crate::train::FlModel;

        let mut spec = DatasetSpec::synthetic();
        spec.features = 16;
        spec.nnz_per_row = 16;
        spec.instances = 120;
        let data = spec.generate(1.0);
        let cfg = TrainConfig {
            batch_size: 40,
            ..TrainConfig::default()
        };
        for kind in [BackendKind::Fate, BackendKind::FlBooster] {
            let models: [(Box<dyn FlModel>, u32); 4] = [
                (Box::new(HomoLr::new(&data, 4, &cfg)), 4),
                (Box::new(HeteroLr::new(&data, 3, &cfg).unwrap()), 3),
                (Box::new(HeteroNn::new(&data, 3, &cfg).unwrap()), 3),
                (Box::new(HeteroSbt::new(&data, 3, &cfg).unwrap()), 3),
            ];
            for (mut model, parties) in models {
                let env = FlEnv::new(Accelerator::new(kind, keys(), parties).unwrap(), 1);
                let b = model.run_epoch(&env, &cfg, 0).unwrap().breakdown;
                let net = env.network.stats();
                let what = format!("{} on {kind:?}", model.name());
                assert!(net.messages > 0 && net.retries == 0, "{what}");
                assert_eq!(b.comm_bytes, net.bytes, "{what}");
                assert_eq!(b.ciphertexts, net.ciphertexts, "{what}");
                assert!(
                    (b.comm_seconds - net.seconds).abs() <= 1e-12 * net.seconds,
                    "{what}: charged {} s, sent {} s",
                    b.comm_seconds,
                    net.seconds
                );
            }
        }
    }

    #[test]
    fn empty_round_is_a_no_op() {
        let env = env_with(BackendKind::Fate, 1);
        let mut b = EpochBreakdown::default();
        let out = run_round(
            &env,
            &EngineConfig::default(),
            &TrainConfig::default(),
            &[],
            &[],
            1,
            &mut b,
        )
        .unwrap();
        assert_eq!(out, RoundOutcome::default());
        assert_eq!(b, EpochBreakdown::default());
    }

    #[test]
    fn flop_count_mismatch_is_rejected() {
        let env = env_with(BackendKind::Fate, 1);
        let mut b = EpochBreakdown::default();
        let err = run_round(
            &env,
            &EngineConfig::default(),
            &TrainConfig::default(),
            &parties(2, 4),
            &[100],
            1,
            &mut b,
        )
        .unwrap_err();
        assert!(matches!(err, Error::BadConfig(_)));
    }

    #[test]
    fn bad_multipliers_are_rejected() {
        let env = env_with(BackendKind::Fate, 1);
        let mut b = EpochBreakdown::default();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = EngineConfig::default().with_compute_multipliers(vec![bad]);
            let err = run_round(
                &env,
                &cfg,
                &TrainConfig::default(),
                &parties(2, 4),
                &[100, 100],
                1,
                &mut b,
            )
            .unwrap_err();
            assert!(matches!(err, Error::BadConfig(_)), "multiplier {bad}");
        }
    }

    #[test]
    fn sequential_engine_matches_classic_loop_exactly() {
        // The barrier-by-barrier loop this engine replaced (every client
        // encrypts, then every upload, then the fold, then the
        // broadcast) charged this fixed 5-party round the values below,
        // captured from it bit-for-bit before it was deleted. The engine
        // with pipelining off must keep reproducing them: components,
        // phases, round_seconds, wire counters, and the decrypted sums.
        let s = f64::from_bits;
        let golden = EpochBreakdown {
            he_seconds: s(0x3e778f642238c62c),
            comm_seconds: s(0x3f75ff1ad2bf2a22),
            other_seconds: s(0x3f21f82dac3e3f8a),
            comm_bytes: 1280,
            ciphertexts: 40,
            he_values: 12,
            phases: crate::metrics::PhaseBreakdown {
                compute_seconds: s(0x3ef1ed2c2c9d86a8),
                encrypt_seconds: s(0x3f0f76ee79a085a3),
                uplink_seconds: s(0x3f65ff1ad2bf2a22),
                aggregate_seconds: s(0x3e51dedf9ae672d1),
                downlink_seconds: s(0x3f65ff1ad2bf2a22),
                decrypt_seconds: s(0x3f0f7cbdf72774c6),
            },
            round_seconds: s(0x3f768ef3cf853e58),
        };
        let golden_sums = [
            0x3fae6eccd0f37680u64,
            0x3fb087d6b8843ec0,
            0x3fb044d7f88226c0,
            0x3face99af0e74d00,
            0x3fa687e810b43f80,
            0x3f9c00aca0e00500,
            0x3f808c3fc0846200,
            0xbf887cb440c3e600,
            0xbf9f980560fcc000,
            0xbfa7f75170bfba80,
            0xbfadd9ba70eece00,
            0xbfb071d0c8838e80,
        ];

        let grads = parties(5, 12);
        let flops: Vec<u64> = (0..5).map(|k| 4000 + 137 * k as u64).collect();
        let env = env_with(BackendKind::FlBooster, 1);
        let mut engined = EpochBreakdown::default();
        let out = run_round(
            &env,
            &EngineConfig::sequential(),
            &TrainConfig::default(),
            &grads,
            &flops,
            99,
            &mut engined,
        )
        .unwrap();

        let sums: Vec<u64> = out.sums.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sums, golden_sums);
        assert_eq!(out.survivors, vec![0, 1, 2, 3, 4]);
        assert!(out.dropped.is_empty());
        assert_eq!(engined, golden);
        assert_eq!(out.round_seconds, engined.round_seconds);
        let net = env.network.stats();
        assert_eq!((net.messages, net.ciphertexts, net.bytes), (10, 40, 1280));
        assert_eq!((net.seconds, net.retries), (0.005370239999999999, 0));
    }

    #[test]
    fn round_sums_match_plain_sums() {
        let env = env_with(BackendKind::FlBooster, 1);
        let same: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..20).map(|i| ((i as f64) * 0.37).sin() * 0.8).collect())
            .collect();
        let mut b = EpochBreakdown::default();
        let out = run_round(
            &env,
            &EngineConfig::sequential(),
            &TrainConfig::default(),
            &same,
            &[0; 4],
            3,
            &mut b,
        )
        .unwrap();
        for i in 0..20 {
            let expected: f64 = same.iter().map(|p| p[i]).sum();
            assert!((out.sums[i] - expected).abs() < 4e-8, "i={i}");
        }
    }

    #[test]
    fn ragged_party_vectors_are_rejected_before_any_work() {
        // Unequal lengths must never reach the fold, whose shape assert
        // would panic mid-round: the round refuses them at entry.
        let env = env_with(BackendKind::FlBooster, 1);
        let mut ragged = parties(4, 20);
        ragged[2].push(0.25);
        let mut b = EpochBreakdown::default();
        let err = run_round(
            &env,
            &EngineConfig::default(),
            &TrainConfig::default(),
            &ragged,
            &[0; 4],
            3,
            &mut b,
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "bad configuration: engine round: party 2 has 21 values but party 0 has 20"
        );
        assert_eq!(b, EpochBreakdown::default(), "nothing charged");
        assert_eq!(env.network.stats().messages, 0, "nothing sent");
    }

    #[test]
    fn pipelined_round_is_shorter_but_charges_identical_work() {
        let grads = parties(8, 12);
        let flops = vec![60_000u64; 8];
        let tcfg = TrainConfig::default();
        let hetero: Vec<f64> = (0..8).map(|k| 1.0 + 0.35 * k as f64).collect();

        let seq_env = env_with(BackendKind::Fate, 4);
        let mut seq_b = EpochBreakdown::default();
        let seq = run_round(
            &seq_env,
            &EngineConfig::sequential().with_compute_multipliers(hetero.clone()),
            &tcfg,
            &grads,
            &flops,
            7,
            &mut seq_b,
        )
        .unwrap();

        let pipe_env = env_with(BackendKind::Fate, 4);
        let mut pipe_b = EpochBreakdown::default();
        let pipe = run_round(
            &pipe_env,
            &EngineConfig::default().with_compute_multipliers(hetero),
            &tcfg,
            &grads,
            &flops,
            7,
            &mut pipe_b,
        )
        .unwrap();

        // Same work, same results...
        assert_eq!(pipe.sums, seq.sums);
        assert_eq!(pipe_b.he_seconds, seq_b.he_seconds);
        assert_eq!(pipe_b.comm_seconds, seq_b.comm_seconds);
        assert_eq!(pipe_b.other_seconds, seq_b.other_seconds);
        assert_eq!(pipe_b.phases, seq_b.phases);
        // ...but the pipelined critical path is strictly shorter.
        assert!(
            pipe.round_seconds < seq.round_seconds,
            "pipelined {} !< sequential {}",
            pipe.round_seconds,
            seq.round_seconds
        );
        assert!(pipe_b.overlap_speedup() > 1.0);
        assert!((seq_b.overlap_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tree_topology_streams_to_the_same_sums() {
        let grads = parties(7, 10);
        let flops = vec![5000u64; 7];
        let tcfg = TrainConfig::default();

        let flat_env = env_with(BackendKind::Fate, 2);
        let mut flat_b = EpochBreakdown::default();
        let flat = run_round(
            &flat_env,
            &EngineConfig::default(),
            &tcfg,
            &grads,
            &flops,
            3,
            &mut flat_b,
        )
        .unwrap();

        let accel = Accelerator::new(BackendKind::Fate, keys(), 8)
            .unwrap()
            .with_topology(AggregationTopology::tree(3));
        let profile = accel.network_profile().with_duplex_streams(2);
        let tree_env = FlEnv {
            network: crate::net::Network::new(profile, 1),
            accel,
        };
        let mut tree_b = EpochBreakdown::default();
        let tree = run_round(
            &tree_env,
            &EngineConfig::default(),
            &tcfg,
            &grads,
            &flops,
            3,
            &mut tree_b,
        )
        .unwrap();

        assert_eq!(tree.sums, flat.sums);
        // Tree hops are extra wire traffic the flat round doesn't pay.
        assert!(tree_b.comm_bytes > flat_b.comm_bytes);
        assert_eq!(tree_b.he_seconds, flat_b.he_seconds);
    }

    #[test]
    fn stragglers_drop_and_the_round_waits_for_the_deadline() {
        let grads = parties(4, 8);
        let flops = vec![1_000_000u64; 4];
        let tcfg = TrainConfig::default();
        let env = env_with(BackendKind::Fate, 1);

        // Client 3 runs 50x slower than the rest; pick a deadline that
        // only it misses.
        let ecfg = EngineConfig::default().with_compute_multipliers(vec![1.0, 1.0, 1.0, 50.0]);
        let mut probe = EpochBreakdown::default();
        let full = run_round(&env, &ecfg, &tcfg, &grads, &flops, 11, &mut probe).unwrap();
        let fast = full.timelines[2].encrypt_done;
        let slow = full.timelines[3].encrypt_done;
        assert!(slow > fast);
        let deadline = (fast + slow) / 2.0;

        let env = env_with(BackendKind::Fate, 1);
        let mut b = EpochBreakdown::default();
        let out = run_round(
            &env,
            &ecfg.clone().with_straggler_timeout(deadline),
            &tcfg,
            &grads,
            &flops,
            11,
            &mut b,
        )
        .unwrap();
        assert_eq!(out.survivors, vec![0, 1, 2]);
        assert_eq!(out.dropped, vec![3]);
        assert_eq!(out.timelines[3].uplink_start, 0.0);
        // The server learned about the straggler only at the deadline.
        assert!(out.round_seconds > deadline);
        for &k in &out.survivors {
            assert!(out.timelines[k].downlink_done >= deadline);
        }

        // The surviving sums are the 3-party aggregate.
        let env = env_with(BackendKind::Fate, 1);
        let mut b3 = EpochBreakdown::default();
        let three = run_round(
            &env,
            &EngineConfig::default(),
            &tcfg,
            &grads[..3],
            &flops[..3],
            11,
            &mut b3,
        )
        .unwrap();
        assert_eq!(out.sums, three.sums);
    }

    #[test]
    fn quorum_failure_names_the_first_straggler() {
        let grads = parties(3, 6);
        let flops = vec![1_000_000u64; 3];
        let env = env_with(BackendKind::Fate, 1);
        let mut b = EpochBreakdown::default();
        // Everyone has the same deadline-busting profile except client 0.
        let ecfg = EngineConfig::default()
            .with_compute_multipliers(vec![1.0, 400.0, 400.0])
            .with_min_clients(2);
        let mut probe = EpochBreakdown::default();
        let full = run_round(
            &env,
            &ecfg,
            &TrainConfig::default(),
            &grads,
            &flops,
            5,
            &mut probe,
        )
        .unwrap();
        let deadline = full.timelines[0].encrypt_done * 2.0;
        assert!(deadline < full.timelines[1].encrypt_done);

        let env = env_with(BackendKind::Fate, 1);
        let err = run_round(
            &env,
            &ecfg.with_straggler_timeout(deadline),
            &TrainConfig::default(),
            &grads,
            &flops,
            5,
            &mut b,
        )
        .unwrap_err();
        assert_eq!(err, Error::StragglerTimeout { client: 1 });
    }

    #[test]
    fn impossible_quorum_without_stragglers_is_a_config_error() {
        let env = env_with(BackendKind::Fate, 1);
        let mut b = EpochBreakdown::default();
        let err = run_round(
            &env,
            &EngineConfig::default().with_min_clients(5),
            &TrainConfig::default(),
            &parties(2, 4),
            &[100, 100],
            1,
            &mut b,
        )
        .unwrap_err();
        assert!(matches!(err, Error::BadConfig(_)));
    }
}
