//! Epoch timing breakdowns and convergence metrics.
//!
//! The paper reports (i) average running time per epoch (Table III), (ii)
//! component shares — Others / HE operations / Communication (Fig. 1,
//! Table VI), (iii) HE throughput (Table IV), and (iv) convergence bias
//! (Eq. 15, Table VII). These types carry those measurements out of the
//! trainers; only [`crate::engine`] charges seconds and counts traffic
//! into an [`EpochBreakdown`].

#![expect(
    clippy::indexing_slicing,
    reason = "rank-loop indices in `auc` are bounded by `pairs.len()` in the loop \
              conditions"
)]

/// Simulated seconds of one epoch attributed to the six per-round
/// pipeline phases the round engine overlaps: local gradient compute,
/// client-side encrypt (incl. quantize/pack), uplink transfer, server
/// aggregation, downlink transfer, and client-side decrypt (incl.
/// unpack).
///
/// [`crate::engine`] lands every simulated second in one component
/// ([`EpochBreakdown::he_seconds`] / `comm_seconds` / `other_seconds`)
/// and one phase, so [`PhaseBreakdown::total`] always matches
/// [`EpochBreakdown::total_seconds`] (up to f64 re-association). The
/// phases exist so pipeline overlap is directly measurable: phase totals
/// are *work*, while [`EpochBreakdown::round_seconds`] is *elapsed*
/// simulated time, and the gap between them is exactly what the
/// event-driven engine hides.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Local model computation (gradients, encode-side flops).
    pub compute_seconds: f64,
    /// Client-side quantize + pack + encrypt.
    pub encrypt_seconds: f64,
    /// Client → aggregator transfers (incl. edge-aggregator hops).
    pub uplink_seconds: f64,
    /// Homomorphic folding at the aggregator(s).
    pub aggregate_seconds: f64,
    /// Aggregator → client broadcasts.
    pub downlink_seconds: f64,
    /// Client-side decrypt + unpack.
    pub decrypt_seconds: f64,
}

impl PhaseBreakdown {
    /// Total work across all six phases.
    pub fn total(&self) -> f64 {
        self.compute_seconds
            + self.encrypt_seconds
            + self.uplink_seconds
            + self.aggregate_seconds
            + self.downlink_seconds
            + self.decrypt_seconds
    }

    /// Accumulates another phase breakdown.
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        self.compute_seconds += other.compute_seconds;
        self.encrypt_seconds += other.encrypt_seconds;
        self.uplink_seconds += other.uplink_seconds;
        self.aggregate_seconds += other.aggregate_seconds;
        self.downlink_seconds += other.downlink_seconds;
        self.decrypt_seconds += other.decrypt_seconds;
    }
}

/// What a charged simulated second paid for.
///
/// The encrypt and decrypt phases each mix HE seconds with codec
/// ("Others") seconds, so the Others / HE / Communication split is not a
/// projection of the six phases: a kind names both, and the engine's
/// charge maps it to exactly one component and one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Local model computation.
    Compute,
    /// Client-side encryption (HE).
    EncryptHe,
    /// Client-side quantize + pack before encryption.
    EncryptCodec,
    /// Client → aggregator transfer (incl. edge-aggregator hops).
    Uplink,
    /// Homomorphic folding at the aggregator(s) (HE).
    Aggregate,
    /// Aggregator → client broadcast.
    Downlink,
    /// Client-side decryption (HE).
    DecryptHe,
    /// Client-side unpack + dequantize after decryption.
    DecryptCodec,
}

/// Simulated seconds of one epoch, attributed to the paper's three
/// components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochBreakdown {
    /// HE operations (encrypt + homomorphic compute + decrypt).
    pub he_seconds: f64,
    /// Client↔server communication.
    pub comm_seconds: f64,
    /// Everything else: local model computation, data conversion,
    /// quantization/packing.
    pub other_seconds: f64,
    /// Bytes that crossed the wire.
    pub comm_bytes: u64,
    /// Ciphertexts that crossed the wire.
    pub ciphertexts: u64,
    /// Gradient components that passed through HE.
    pub he_values: u64,
    /// The same seconds re-attributed to the six pipeline phases: each
    /// charged second lands in exactly one slot.
    pub phases: PhaseBreakdown,
    /// *Elapsed* simulated seconds: the critical path after the round
    /// engine overlaps phases on the event timeline. Serial charges add
    /// their seconds here too, so [`EpochBreakdown::overlap_speedup`] is
    /// 1.0 unless the pipelined engine ran.
    pub round_seconds: f64,
}

impl EpochBreakdown {
    /// Total epoch seconds.
    pub fn total_seconds(&self) -> f64 {
        self.he_seconds + self.comm_seconds + self.other_seconds
    }

    /// Component shares `(others, he, comm)` as fractions of the total —
    /// the Table VI columns.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total_seconds();
        if t == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.other_seconds / t,
            self.he_seconds / t,
            self.comm_seconds / t,
        )
    }

    /// Work-over-elapsed ratio: how much simulated time phase overlap
    /// removed. 1.0 for purely sequential execution; >1 when the
    /// pipelined round engine hid work behind transfers. Returns 1.0
    /// when no elapsed time was recorded.
    pub fn overlap_speedup(&self) -> f64 {
        if self.round_seconds <= 0.0 {
            1.0
        } else {
            self.total_seconds() / self.round_seconds
        }
    }

    /// Accumulates another breakdown.
    pub fn merge(&mut self, other: &EpochBreakdown) {
        self.he_seconds += other.he_seconds;
        self.comm_seconds += other.comm_seconds;
        self.other_seconds += other.other_seconds;
        self.comm_bytes += other.comm_bytes;
        self.ciphertexts += other.ciphertexts;
        self.he_values += other.he_values;
        self.phases.merge(&other.phases);
        self.round_seconds += other.round_seconds;
    }
}

/// One epoch's outcome.
#[derive(Debug, Clone, Copy)]
pub struct EpochResult {
    /// Timing attribution.
    pub breakdown: EpochBreakdown,
    /// Global training loss after the epoch.
    pub loss: f64,
}

/// A full training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Model name ("Homo LR", ...).
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Backend name ("FATE", "HAFLO", "FLBooster", ...).
    pub backend: String,
    /// Key size in bits.
    pub key_bits: u32,
    /// Per-epoch results in order.
    pub epochs: Vec<EpochResult>,
    /// Whether the tolerance stopping rule fired.
    pub converged: bool,
}

impl TrainReport {
    /// Mean simulated seconds per epoch — the Table III cell.
    pub fn mean_epoch_seconds(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs
            .iter()
            .map(|e| e.breakdown.total_seconds())
            .sum::<f64>()
            / self.epochs.len() as f64
    }

    /// Final loss.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map(|e| e.loss).unwrap_or(f64::NAN)
    }

    /// Summed breakdown across epochs.
    pub fn total_breakdown(&self) -> EpochBreakdown {
        let mut acc = EpochBreakdown::default();
        for e in &self.epochs {
            acc.merge(&e.breakdown);
        }
        acc
    }

    /// Cumulative simulated time at the end of each epoch, paired with
    /// loss — the Fig. 8 convergence series.
    pub fn convergence_series(&self) -> Vec<(f64, f64)> {
        let mut t = 0.0;
        self.epochs
            .iter()
            .map(|e| {
                t += e.breakdown.total_seconds();
                (t, e.loss)
            })
            .collect()
    }
}

/// Convergence bias (paper Eq. 15): `|L − L_other| / L`, the relative
/// deviation of a compressed run's loss from the uncompressed reference.
pub fn convergence_bias(reference_loss: f64, other_loss: f64) -> f64 {
    if reference_loss == 0.0 {
        return if other_loss == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (reference_loss - other_loss).abs() / reference_loss.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(he: f64, comm: f64, other: f64) -> EpochBreakdown {
        EpochBreakdown {
            he_seconds: he,
            comm_seconds: comm,
            other_seconds: other,
            comm_bytes: 100,
            ciphertexts: 10,
            he_values: 50,
            phases: PhaseBreakdown {
                compute_seconds: other,
                encrypt_seconds: he,
                uplink_seconds: comm,
                ..PhaseBreakdown::default()
            },
            round_seconds: he + comm + other,
        }
    }

    #[test]
    fn shares_sum_to_one() {
        let b = breakdown(2.0, 3.0, 5.0);
        let (o, h, c) = b.shares();
        assert!((o + h + c - 1.0).abs() < 1e-12);
        assert!((o - 0.5).abs() < 1e-12);
        assert!((h - 0.2).abs() < 1e-12);
        assert_eq!(b.total_seconds(), 10.0);
    }

    #[test]
    fn zero_breakdown_has_zero_shares() {
        assert_eq!(EpochBreakdown::default().shares(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = breakdown(1.0, 1.0, 1.0);
        a.merge(&breakdown(2.0, 2.0, 2.0));
        assert_eq!(a.total_seconds(), 9.0);
        assert_eq!(a.comm_bytes, 200);
        assert_eq!(a.he_values, 100);
        assert_eq!(a.phases.total(), 9.0);
        assert_eq!(a.round_seconds, 9.0);
    }

    #[test]
    fn phase_total_sums_all_six_phases() {
        let p = PhaseBreakdown {
            compute_seconds: 1.0,
            encrypt_seconds: 2.0,
            uplink_seconds: 4.0,
            aggregate_seconds: 8.0,
            downlink_seconds: 16.0,
            decrypt_seconds: 32.0,
        };
        assert_eq!(p.total(), 63.0);
        let mut q = p;
        q.merge(&p);
        assert_eq!(q.total(), 126.0);
    }

    #[test]
    fn overlap_speedup_is_work_over_elapsed() {
        let mut b = breakdown(2.0, 3.0, 5.0);
        assert_eq!(b.overlap_speedup(), 1.0, "sequential: elapsed == work");
        b.round_seconds = 4.0;
        assert_eq!(b.overlap_speedup(), 2.5);
        b.round_seconds = 0.0;
        assert_eq!(b.overlap_speedup(), 1.0, "no elapsed recorded");
    }

    #[test]
    fn report_statistics() {
        let report = TrainReport {
            model: "m".into(),
            dataset: "d".into(),
            backend: "b".into(),
            key_bits: 1024,
            epochs: vec![
                EpochResult {
                    breakdown: breakdown(1.0, 1.0, 0.0),
                    loss: 0.5,
                },
                EpochResult {
                    breakdown: breakdown(1.0, 0.0, 1.0),
                    loss: 0.25,
                },
            ],
            converged: true,
        };
        assert_eq!(report.mean_epoch_seconds(), 2.0);
        assert_eq!(report.final_loss(), 0.25);
        assert_eq!(report.convergence_series(), vec![(2.0, 0.5), (4.0, 0.25)]);
        assert_eq!(report.total_breakdown().total_seconds(), 4.0);
    }

    #[test]
    fn empty_report() {
        let report = TrainReport {
            model: "m".into(),
            dataset: "d".into(),
            backend: "b".into(),
            key_bits: 1024,
            epochs: vec![],
            converged: false,
        };
        assert_eq!(report.mean_epoch_seconds(), 0.0);
        assert!(report.final_loss().is_nan());
    }

    #[test]
    fn convergence_bias_formula() {
        assert_eq!(convergence_bias(0.5, 0.5), 0.0);
        assert!((convergence_bias(0.5, 0.51) - 0.02).abs() < 1e-12);
        assert!((convergence_bias(0.5, 0.49) - 0.02).abs() < 1e-12);
        assert_eq!(convergence_bias(0.0, 0.0), 0.0);
        assert_eq!(convergence_bias(0.0, 0.1), f64::INFINITY);
    }
}

/// Classification accuracy at the 0.5 threshold.
pub fn accuracy(predictions: &[f64], labels: &[f64]) -> f64 {
    // Documented precondition: a shape mismatch is a caller bug.
    // flcheck: allow(pf-assert)
    assert_eq!(predictions.len(), labels.len(), "prediction/label mismatch");
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
        .count();
    correct as f64 / predictions.len() as f64
}

/// Area under the ROC curve (rank statistic; ties get half credit).
///
/// Returns 0.5 when either class is absent.
pub fn auc(predictions: &[f64], labels: &[f64]) -> f64 {
    // Documented precondition: a shape mismatch is a caller bug.
    // flcheck: allow(pf-assert)
    assert_eq!(predictions.len(), labels.len(), "prediction/label mismatch");
    let mut pairs: Vec<(f64, f64)> = predictions
        .iter()
        .copied()
        .zip(labels.iter().copied())
        .collect();
    // total_cmp orders NaNs deterministically instead of panicking.
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));

    let positives = labels.iter().filter(|&&y| y >= 0.5).count() as f64;
    let negatives = labels.len() as f64 - positives;
    if positives == 0.0 || negatives == 0.0 {
        return 0.5;
    }

    // Sum of positive ranks (average ranks over tied scores).
    let mut rank_sum = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i;
        while j + 1 < pairs.len() && pairs[j + 1].0 == pairs[i].0 {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0; // ranks are 1-based
        for pair in &pairs[i..=j] {
            if pair.1 >= 0.5 {
                rank_sum += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum - positives * (positives + 1.0) / 2.0) / (positives * negatives)
}

#[cfg(test)]
mod classification_tests {
    use super::*;

    #[test]
    fn accuracy_counts_threshold_agreement() {
        assert_eq!(accuracy(&[0.9, 0.1, 0.6], &[1.0, 0.0, 0.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
        assert_eq!(accuracy(&[0.5], &[1.0]), 1.0, "0.5 predicts positive");
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let labels = [0.0, 0.0, 1.0, 1.0];
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 1.0);
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        // All predictions identical: pure ties => 0.5.
        assert_eq!(auc(&[0.5; 6], &[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]), 0.5);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
        assert_eq!(auc(&[0.1, 0.9], &[0.0, 0.0]), 0.5);
    }

    #[test]
    fn auc_handles_partial_ties() {
        // One tie pair across classes contributes half credit.
        let got = auc(&[0.3, 0.3, 0.7], &[0.0, 1.0, 1.0]);
        assert!((got - 0.75).abs() < 1e-12, "{got}");
    }
}
