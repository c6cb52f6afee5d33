//! The client↔server network simulator.
//!
//! The paper's testbed connects four servers over Gigabit Ethernet
//! (Sec. VI-B); communication cost there is dominated not by raw
//! bandwidth but by the *number of ciphertexts* each message carries —
//! FATE serializes every `PaillierEncryptedNumber` individually, which is
//! why batch compression (fewer ciphertexts) wins far more than the byte
//! reduction alone would suggest. The model here charges, per message:
//!
//! ```text
//! t = latency + ciphertexts · per_ciphertext_seconds + bytes / bandwidth
//! ```
//!
//! with optional packet loss (the whole message retries, adding latency
//! and bytes). All times are simulated; no real sockets are involved, but
//! every byte that would cross the wire is counted.

use parking_lot::Mutex;

use crate::{Error, Result};

/// Attempts a send makes before it fails with [`Error::NetworkFailure`].
pub const MAX_ATTEMPTS: u32 = 5;

/// Static description of a link and its serialization stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Link bandwidth in bytes/second (Gigabit Ethernet ≈ 125 MB/s).
    pub bandwidth_bytes_per_sec: f64,
    /// One-way message latency in seconds.
    pub latency_seconds: f64,
    /// Serialization/deserialization cost per ciphertext object. This is
    /// the FATE-style per-object overhead; FLBooster's batched binary
    /// framing sets it lower (see [`NetworkConfig::flbooster_profile`]).
    pub per_ciphertext_seconds: f64,
    /// Probability that a message is dropped and must be retried.
    pub drop_probability: f64,
    /// Transfers the link can carry simultaneously (duplex / multi-queue
    /// NIC factor). This never changes what a message *costs* — per-message
    /// seconds and byte accounting are identical at any value — only how
    /// many in-flight transfers a [`LinkSchedule`] overlaps when the round
    /// engine lays messages out on simulated time. The default of 1 is
    /// today's strictly serial NIC.
    pub duplex_streams: u32,
}

impl NetworkConfig {
    /// FATE-style profile: Gigabit link, per-object Python serialization.
    ///
    /// `per_ciphertext_seconds` is calibrated so that a CPU-HE epoch
    /// splits ≈50% HE / ≈50% communication at 1024-bit keys (each value
    /// crosses the NIC several times per aggregation round), matching the
    /// paper's Fig. 1 / Table VI FATE rows.
    pub fn fate_profile() -> Self {
        NetworkConfig {
            bandwidth_bytes_per_sec: 125.0e6,
            latency_seconds: 2.0e-4,
            per_ciphertext_seconds: 4.5e-4,
            drop_probability: 0.0,
            duplex_streams: 1,
        }
    }

    /// FLBooster's transport: same link, but ciphertexts travel in packed
    /// binary buffers instead of per-object pickles, cutting the
    /// per-object overhead ~5x (calibrated to the Table VI FLBooster
    /// component shares).
    pub fn flbooster_profile() -> Self {
        NetworkConfig {
            per_ciphertext_seconds: 8.4e-5,
            ..Self::fate_profile()
        }
    }

    /// A lossy variant for failure-injection tests.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Sets the number of concurrent transfers the link can overlap
    /// (clamped up to 1). Cost accounting is unchanged; only the round
    /// engine's simulated-time layout reads this.
    pub fn with_duplex_streams(mut self, streams: u32) -> Self {
        self.duplex_streams = streams.max(1);
        self
    }

    /// Simulated seconds of one attempt at a message carrying
    /// `ciphertexts` ciphertext objects and `bytes` payload bytes: the
    /// one place a byte count becomes seconds (latency + per-ciphertext
    /// overhead + bytes / bandwidth). [`Network::send`] pays it once per
    /// attempt.
    pub fn message_seconds(&self, ciphertexts: u64, bytes: u64) -> f64 {
        self.latency_seconds
            + ciphertexts as f64 * self.per_ciphertext_seconds
            + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

/// Simulated-time occupancy of one link with a fixed number of
/// concurrent streams ([`NetworkConfig::duplex_streams`]).
///
/// The round engine asks the schedule to *admit* each transfer: given the
/// instant the payload became ready and the per-message duration (from
/// [`Network::send`], which also does all byte/seconds accounting), the
/// schedule picks the stream that frees up earliest and returns the
/// transfer's `(start, finish)` on simulated time. With one stream and
/// every payload ready at the same instant this reproduces today's
/// strictly sequential NIC layout exactly: transfer `k` starts when
/// transfer `k − 1` finishes, and the last finish equals the sum of
/// durations.
///
/// Admission is deterministic: the earliest-free stream wins ties by
/// lowest index, and the caller admits transfers in a deterministic
/// order, so the layout never depends on host thread count.
#[derive(Debug, Clone)]
pub struct LinkSchedule {
    free_at: Vec<f64>,
}

impl LinkSchedule {
    /// A schedule over `streams` concurrent channels (clamped up to 1),
    /// all idle at simulated time zero.
    pub fn new(streams: u32) -> Self {
        LinkSchedule {
            free_at: vec![0.0; streams.max(1) as usize],
        }
    }

    /// A schedule sized from a link configuration.
    pub fn for_config(cfg: &NetworkConfig) -> Self {
        Self::new(cfg.duplex_streams)
    }

    /// Concurrent streams this schedule overlaps.
    pub fn streams(&self) -> usize {
        self.free_at.len()
    }

    /// Admits a transfer that becomes ready at `ready` and occupies one
    /// stream for `duration` simulated seconds; returns its
    /// `(start, finish)` instants.
    #[expect(
        clippy::indexing_slicing,
        reason = "`best` only ever holds an index yielded by enumerating `free_at` \
                  (or 0, and the vec is built non-empty)"
    )]
    pub fn admit(&mut self, ready: f64, duration: f64) -> (f64, f64) {
        let mut best = 0usize;
        for (i, &free) in self.free_at.iter().enumerate().skip(1) {
            // Strict less-than: ties resolve to the lowest stream index.
            // `free_at` entries are finite sums of finite durations, so
            // total_cmp is a plain numeric comparison here.
            if free.total_cmp(&self.free_at[best]) == std::cmp::Ordering::Less {
                best = i;
            }
        }
        let free = self.free_at[best];
        let start = if ready > free { ready } else { free };
        let finish = start + duration;
        self.free_at[best] = finish;
        (start, finish)
    }
}

/// Cumulative traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Messages successfully delivered.
    pub messages: u64,
    /// Ciphertexts carried.
    pub ciphertexts: u64,
    /// Payload bytes carried (including retransmissions).
    pub bytes: u64,
    /// Simulated seconds spent communicating.
    pub seconds: f64,
    /// Retransmissions performed.
    pub retries: u64,
}

impl std::ops::AddAssign for NetStats {
    fn add_assign(&mut self, o: NetStats) {
        self.messages += o.messages;
        self.ciphertexts += o.ciphertexts;
        self.bytes += o.bytes;
        self.seconds += o.seconds;
        self.retries += o.retries;
    }
}

/// The simulated link.
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    state: Mutex<LinkState>,
}

/// What a send mutates, under the link's one lock.
#[derive(Debug)]
struct LinkState {
    stats: NetStats,
    /// Deterministic xorshift state for drop decisions.
    rng: u64,
}

impl LinkState {
    /// Makes up to [`MAX_ATTEMPTS`] attempts at one message on `cfg`'s
    /// link and records them; returns whether it was delivered and the
    /// seconds spent.
    fn send(&mut self, cfg: &NetworkConfig, ciphertexts: u64, bytes: u64) -> (bool, f64) {
        let per_try = cfg.message_seconds(ciphertexts, bytes);
        let mut total = 0.0;
        let mut sent_bytes = 0u64;
        let mut retries = 0u64;
        let mut delivered = false;
        for _ in 0..MAX_ATTEMPTS {
            total += per_try;
            sent_bytes += bytes;
            if !dropped(&mut self.rng, cfg.drop_probability) {
                delivered = true;
                break;
            }
            retries += 1;
        }
        self.stats += NetStats {
            messages: u64::from(delivered),
            ciphertexts: if delivered { ciphertexts } else { 0 },
            bytes: sent_bytes,
            seconds: total,
            retries,
        };
        (delivered, total)
    }
}

impl Network {
    /// Creates a link with the given profile and a deterministic seed for
    /// loss decisions.
    pub fn new(cfg: NetworkConfig, seed: u64) -> Self {
        Network {
            cfg,
            state: Mutex::new(LinkState {
                stats: NetStats::default(),
                rng: seed | 1,
            }),
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Sends one message carrying `ciphertexts` ciphertext objects and
    /// `bytes` payload bytes; returns the simulated seconds it took
    /// (including any retries). A send that exhausts [`MAX_ATTEMPTS`]
    /// still records the bytes, seconds and retries it spent; only
    /// `messages` and `ciphertexts` count deliveries.
    ///
    /// Each attempt costs [`NetworkConfig::message_seconds`]. Counts are
    /// `u64` and seconds are `f64` everywhere in the charging layers, so
    /// the compiler keeps the two apart — seconds are not a payload size:
    ///
    /// ```compile_fail,E0308
    /// use fl::{Network, NetworkConfig};
    /// let net = Network::new(NetworkConfig::fate_profile(), 1);
    /// let seconds: f64 = net.send(1, 4096).unwrap();
    /// net.send(1, seconds).unwrap(); // an `f64` is not a byte count
    /// ```
    pub fn send(&self, ciphertexts: u64, bytes: u64) -> Result<f64> {
        let (delivered, total) = self.state.with(|s| s.send(&self.cfg, ciphertexts, bytes));
        if !delivered {
            return Err(Error::NetworkFailure {
                attempts: MAX_ATTEMPTS,
            });
        }
        Ok(total)
    }

    /// Broadcast: the server sends the same message to `receivers` peers
    /// (sequentially on one NIC, as a parameter server does).
    pub fn broadcast(&self, receivers: u32, ciphertexts: u64, bytes: u64) -> Result<f64> {
        let mut total = 0.0;
        for _ in 0..receivers {
            total += self.send(ciphertexts, bytes)?;
        }
        Ok(total)
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.state.with(|s| s.stats)
    }

    /// Clears the traffic counters.
    pub fn reset(&self) {
        self.state.with(|s| s.stats = NetStats::default());
    }
}

/// Whether one attempt is lost on a link that drops with probability
/// `p`: advances the xorshift64* state `s` only when `p > 0`.
fn dropped(s: &mut u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    let mut x = *s;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *s = x;
    let u = (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64;
    u < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_time_formula() {
        let net = Network::new(NetworkConfig::fate_profile(), 1);
        let t = net.send(10, 125_000_000).unwrap();
        // latency + 10 * 0.45ms + 1 second of bytes
        let expected = 2.0e-4 + 10.0 * 4.5e-4 + 1.0;
        assert!((t - expected).abs() < 1e-9);
        let s = net.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.ciphertexts, 10);
        assert_eq!(s.bytes, 125_000_000);
    }

    #[test]
    fn per_ciphertext_cost_dominates_small_payloads() {
        // The BC insight: 32 ciphertexts cost ~32x one ciphertext even at
        // equal byte volume.
        let net = Network::new(NetworkConfig::fate_profile(), 1);
        let many = net.send(32, 8192).unwrap();
        let one = net.send(1, 8192).unwrap();
        assert!(many > 20.0 * one, "many={many} one={one}");
    }

    #[test]
    fn broadcast_multiplies() {
        let net = Network::new(NetworkConfig::fate_profile(), 1);
        let single = net.send(1, 100).unwrap();
        let bcast = net.broadcast(4, 1, 100).unwrap();
        assert!((bcast - 4.0 * single).abs() < 1e-12);
        assert_eq!(net.stats().messages, 5);
    }

    #[test]
    fn lossy_link_retries_and_counts() {
        let cfg = NetworkConfig::fate_profile().with_drop_probability(0.5);
        let net = Network::new(cfg, 42);
        let mut retried = false;
        for _ in 0..100 {
            match net.send(1, 100) {
                Ok(_) => {}
                Err(Error::NetworkFailure { attempts }) => assert_eq!(attempts, 5),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        if net.stats().retries > 0 {
            retried = true;
        }
        assert!(retried, "a 50% lossy link must retry within 100 sends");
    }

    #[test]
    fn hopeless_link_fails() {
        let cfg = NetworkConfig::fate_profile().with_drop_probability(1.0);
        let net = Network::new(cfg, 7);
        assert_eq!(net.send(3, 100), Err(Error::NetworkFailure { attempts: 5 }));
        // Five full transmissions crossed the wire; none was delivered.
        let s = net.stats();
        assert_eq!((s.bytes, s.retries), (500, 5));
        assert_eq!((s.messages, s.ciphertexts), (0, 0));
        let per_try = 2.0e-4 + 3.0 * 4.5e-4 + 100.0 / 125.0e6;
        assert!((s.seconds - 5.0 * per_try).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let net = Network::new(NetworkConfig::fate_profile(), 1);
        net.send(1, 1).unwrap();
        net.reset();
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn flbooster_profile_is_cheaper_per_ciphertext() {
        let f = NetworkConfig::fate_profile();
        let b = NetworkConfig::flbooster_profile();
        assert!(b.per_ciphertext_seconds < f.per_ciphertext_seconds);
        assert_eq!(b.bandwidth_bytes_per_sec, f.bandwidth_bytes_per_sec);
    }

    #[test]
    fn default_profiles_are_single_stream_and_accounting_is_unchanged() {
        // The duplex factor must not disturb the per-message cost model:
        // both built-in profiles stay at one stream, and `send` charges
        // the same seconds and bytes regardless of the factor.
        assert_eq!(NetworkConfig::fate_profile().duplex_streams, 1);
        assert_eq!(NetworkConfig::flbooster_profile().duplex_streams, 1);
        let serial = Network::new(NetworkConfig::fate_profile(), 1);
        let duplex = Network::new(NetworkConfig::fate_profile().with_duplex_streams(8), 1);
        let a = serial.send(10, 125_000_000).unwrap();
        let b = duplex.send(10, 125_000_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(serial.stats(), duplex.stats());
    }

    #[test]
    fn duplex_streams_clamp_to_one() {
        assert_eq!(
            NetworkConfig::fate_profile()
                .with_duplex_streams(0)
                .duplex_streams,
            1
        );
        assert_eq!(LinkSchedule::new(0).streams(), 1);
    }

    #[test]
    fn single_stream_schedule_reproduces_sequential_layout() {
        // Three messages ready at t=0 on one stream: back to back, last
        // finish equals the duration sum — today's serial NIC exactly.
        let mut link = LinkSchedule::new(1);
        assert_eq!(link.admit(0.0, 2.0), (0.0, 2.0));
        assert_eq!(link.admit(0.0, 3.0), (2.0, 5.0));
        assert_eq!(link.admit(0.0, 1.0), (5.0, 6.0));
    }

    #[test]
    fn multi_stream_schedule_overlaps_and_breaks_ties_by_index() {
        let mut link = LinkSchedule::new(2);
        // Both streams idle: the tie goes to stream 0, the next transfer
        // overlaps on stream 1.
        assert_eq!(link.admit(0.0, 4.0), (0.0, 4.0));
        assert_eq!(link.admit(0.0, 4.0), (0.0, 4.0));
        // Third transfer waits for the earliest-free stream.
        assert_eq!(link.admit(1.0, 1.0), (4.0, 5.0));
        // A transfer that becomes ready after every stream frees starts
        // at its ready instant, not earlier.
        assert_eq!(link.admit(10.0, 0.5), (10.0, 10.5));
        // That transfer took stream 1, so stream 0, free since 5.0, is
        // the earliest free.
        assert_eq!(link.admit(0.0, 1.0), (5.0, 6.0));
    }

    #[test]
    fn for_config_reads_the_duplex_factor() {
        let cfg = NetworkConfig::fate_profile().with_duplex_streams(3);
        assert_eq!(LinkSchedule::for_config(&cfg).streams(), 3);
    }
}
