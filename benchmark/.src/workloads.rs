//! The four workloads: their frozen geometry, their set-up, the unit of
//! work each one times, and the oracle that checks its outputs.
//!
//! The plaintext side of every workload (dataset, model initialisation,
//! sample counts) is a fixture, so the simulated seconds, wire bytes and
//! training loss are comparable between runs with different seeds. The
//! seed drives the cryptographic material: the key pair, and through it
//! every blinding factor and every ciphertext.

use std::time::Instant;

use crate::api::{self, Accel, Data, EncVec, Env, Keys, ModelKind, NetTraffic, Res, TrainCfg};
use crate::api::{Fnv, UnitCost};
use crate::host::Reference;
use crate::json::{self, Value};
use crate::trace::{Counts, Tracer};

/// What a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Train(ModelKind),
    ServerAgg,
}

/// One workload's frozen geometry (`workloads.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    pub name: String,
    pub kind: Kind,
    pub key_bits: u32,
    pub parties: usize,
    pub instances: usize,
    pub features: usize,
    pub nnz_per_row: usize,
    pub batch_size: usize,
    /// Values per protected vector on this workload's exchange path: the
    /// shape the per-layer ledger measures `codec` and `Accelerator` at.
    pub vector_len: usize,
    pub weight_min: u64,
    pub weight_max: u64,
    pub tree_arity: usize,
    /// In-process repetitions of set-up behind `setup_s`.
    pub setup_repeats: usize,
    /// Spin passes per thread in one host reference sample.
    pub reference_passes: u32,
    /// Chunks per round of the reference sample: the size of the batches
    /// this workload hands the pool.
    pub reference_tasks: u32,
}

/// Everything `workloads.json` freezes.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub warmup_samples: usize,
    pub min_samples: usize,
    pub traced_samples: usize,
    pub train_epochs: usize,
    pub train_seed: u64,
    pub engine_parties: usize,
    /// Nanoseconds one spin pass takes on a quiet host of the measuring
    /// class.
    pub reference_pass_ns: f64,
    pub shapes: Vec<Shape>,
}

impl Plan {
    pub fn load() -> Res<Plan> {
        Plan::parse(include_str!("../workloads.json"))
    }

    pub fn parse(text: &str) -> Res<Plan> {
        let doc = json::parse(text)?;
        let shapes = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("workloads.json: missing \"workloads\"")?
            .iter()
            .map(Shape::from_json)
            .collect::<Res<Vec<_>>>()?;
        Ok(Plan {
            warmup_samples: field(&doc, "warmup_samples")? as usize,
            min_samples: field(&doc, "min_samples")? as usize,
            traced_samples: field(&doc, "traced_samples")? as usize,
            train_epochs: field(&doc, "train_epochs")? as usize,
            train_seed: field(&doc, "train_seed")? as u64,
            engine_parties: field(&doc, "engine_parties")? as usize,
            reference_pass_ns: field(&doc, "reference_pass_ns")?,
            shapes,
        })
    }

    pub fn shape(&self, name: &str) -> Option<&Shape> {
        self.shapes.iter().find(|s| s.name == name)
    }

    /// The host reference sample that accompanies `shape`'s timed unit:
    /// about as long, and as wide as the product's pool.
    pub fn reference(&self, shape: &Shape) -> Reference {
        Reference {
            passes: shape.reference_passes,
            tasks: shape.reference_tasks,
            threads: api::pool_threads(),
            nominal_pass_ns: self.reference_pass_ns,
        }
    }
}

fn field(v: &Value, key: &str) -> Res<f64> {
    v.get(key)
        .and_then(Value::as_f64)
        .filter(|n| *n >= 0.0)
        .ok_or_else(|| format!("workloads.json: missing or negative number \"{key}\""))
}

impl Shape {
    fn from_json(v: &Value) -> Res<Shape> {
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("workloads.json: missing string \"{key}\""))
        };
        let kind = match text("model")? {
            "homo_lr" => Kind::Train(ModelKind::HomoLr),
            "hetero_nn" => Kind::Train(ModelKind::HeteroNn),
            "hetero_sbt" => Kind::Train(ModelKind::HeteroSbt),
            "server_agg" => Kind::ServerAgg,
            other => return Err(format!("workloads.json: unknown model \"{other}\"")),
        };
        let optional = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        Ok(Shape {
            name: text("name")?.to_string(),
            kind,
            key_bits: field(v, "key_bits")? as u32,
            parties: field(v, "parties")? as usize,
            instances: field(v, "instances")? as usize,
            features: field(v, "features")? as usize,
            nnz_per_row: field(v, "nnz_per_row")? as usize,
            batch_size: field(v, "batch_size")? as usize,
            vector_len: field(v, "vector_len")? as usize,
            weight_min: optional("weight_min") as u64,
            weight_max: optional("weight_max") as u64,
            tree_arity: optional("tree_arity") as usize,
            setup_repeats: (field(v, "setup_repeats")? as usize).max(1),
            reference_passes: (field(v, "reference_passes")? as u32).max(1),
            reference_tasks: (field(v, "reference_tasks")? as u32).max(1),
        })
    }
}

/// One timed unit's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitOut {
    pub wall_ns: u64,
    pub cost: UnitCost,
    pub net: NetTraffic,
    /// Equal between two samples exactly when every result bit is.
    pub fingerprint: u64,
    /// Whether the unit's internal cross-check held (flat = tree).
    pub consistent: bool,
}

/// What the oracle found, once per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub checks: u64,
    pub failed: u64,
    pub train_loss: f64,
}

/// A workload after set-up: keys generated, data built, backends
/// constructed and, on `server_agg_1024`, every client upload encrypted.
pub struct Workload {
    pub shape: Shape,
    pub keys: Keys,
    pub cfg: TrainCfg,
    pub env: Env,
    pub data: Data,
    /// Plaintext vectors on the exchange path: the clients' gradients on
    /// `server_agg_1024`, seeded vectors of `vector_len` elsewhere.
    pub vectors: Vec<Vec<f64>>,
    /// Per-client sample counts (the aggregation weights).
    pub weights: Vec<u64>,
    server: Option<ServerSide>,
}

/// The server's state on `server_agg_1024`: three configurations of the
/// same backend over the same uploads. The flat one lives in `env`.
struct ServerSide {
    uploads: Vec<EncVec>,
    sharded: Accel,
    tree: Accel,
}

/// Learning rate of the one FedAvg step `server_agg_1024` takes to turn
/// its decrypted aggregate into a training loss.
const SERVER_LEARNING_RATE: f64 = 1.0;

impl Workload {
    pub fn setup(shape: &Shape, plan: &Plan, seed: u64) -> Res<Workload> {
        let keys = api::keygen(seed, shape.key_bits)?;
        let cfg = api::train_cfg(shape.batch_size, plan.train_seed, plan.train_epochs);
        let parties = shape.parties as u32;
        match shape.kind {
            Kind::Train(_) => {
                let data = api::rcv1_dataset(shape.instances, shape.features, shape.nnz_per_row);
                let env = api::env(api::accel(&keys, parties)?, seed);
                Ok(Workload {
                    shape: shape.clone(),
                    vectors: api::unit_vectors(plan.train_seed, shape.parties, shape.vector_len),
                    weights: api::sample_counts(plan.train_seed, shape.parties, 100, 999),
                    keys,
                    cfg,
                    env,
                    data,
                    server: None,
                })
            }
            Kind::ServerAgg => {
                let weights = api::sample_counts(
                    plan.train_seed,
                    shape.parties,
                    shape.weight_min,
                    shape.weight_max,
                );
                let total: u64 = weights.iter().sum();
                let total_u32 = u32::try_from(total).map_err(|_| "sample counts overflow u32")?;
                // Client k holds the next `weights[k]` rows; its upload is
                // its local gradient at the zero model.
                let data = api::rcv1_dataset(total as usize, shape.features, shape.nnz_per_row);
                let mut vectors = Vec::with_capacity(shape.parties);
                let mut start = 0usize;
                for &w in &weights {
                    vectors.push(api::lr_gradient_at_zero(&data, start..start + w as usize));
                    start += w as usize;
                }
                let shards = api::pool_threads();
                let flat = api::accel_for_weights(&keys, parties, total_u32, 1, None)?;
                let sharded = api::accel_for_weights(&keys, parties, total_u32, shards, None)?;
                let tree = api::accel_for_weights(
                    &keys,
                    parties,
                    total_u32,
                    shards,
                    Some(shape.tree_arity),
                )?;
                let uploads = vectors
                    .iter()
                    .enumerate()
                    .map(|(k, v)| {
                        api::accel_encrypt(&flat, v, plan.train_seed.wrapping_add(k as u64))
                    })
                    .collect::<Res<Vec<_>>>()?;
                Ok(Workload {
                    shape: shape.clone(),
                    keys,
                    cfg,
                    env: api::env(flat, seed),
                    data,
                    vectors,
                    weights,
                    server: Some(ServerSide {
                        uploads,
                        sharded,
                        tree,
                    }),
                })
            }
        }
    }

    pub fn accel(&self) -> &Accel {
        api::env_accel(&self.env)
    }

    /// The encrypted client uploads, where set-up made them.
    pub fn uploads(&self) -> Option<&[EncVec]> {
        self.server.as_ref().map(|s| s.uploads.as_slice())
    }

    /// Runs the timed unit once: one epoch of a fresh model, or one server
    /// round. Construction before and bookkeeping after are outside the
    /// timed region.
    pub fn unit(&self, tracer: &mut Tracer, sample: u32) -> Res<UnitOut> {
        match (&self.shape.kind, &self.server) {
            (Kind::Train(kind), _) => self.train_unit(*kind, tracer, sample),
            (Kind::ServerAgg, Some(server)) => self.server_unit(server, tracer, sample),
            (Kind::ServerAgg, None) => Err("server workload without server state".to_string()),
        }
    }

    fn train_unit(&self, kind: ModelKind, tracer: &mut Tracer, sample: u32) -> Res<UnitOut> {
        let parties = self.shape.parties as u32;
        let mut model = api::build_model(kind, &self.data, parties, &self.cfg)?;
        api::net_reset(&self.env);
        let start = Instant::now();
        let cost = tracer.span("epoch", "epoch", sample, Counts::default(), |_| {
            api::run_epoch(&mut model, &self.env, &self.cfg, 0)
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cost = cost?;
        let mut h = Fnv::default();
        h.word(cost.loss.to_bits());
        h.word(cost.sim_s.to_bits());
        h.word(cost.wire_bytes);
        h.word(cost.ciphertexts);
        Ok(UnitOut {
            wall_ns,
            cost,
            net: api::net_traffic(&self.env),
            fingerprint: h.0,
            consistent: true,
        })
    }

    fn server_unit(&self, server: &ServerSide, tracer: &mut Tracer, sample: u32) -> Res<UnitOut> {
        let flat = self.accel();
        let uploads = &server.uploads;
        let adds = (uploads.len().saturating_sub(1)) as u64 * api::encvec_words(&uploads[0]);
        for accel in [flat, &server.sharded, &server.tree] {
            api::accel_take_he_seconds(accel);
        }
        let start = Instant::now();
        let aggregates = tracer.span("epoch", "epoch", sample, Counts::default(), |t| {
            let plain = t.span(
                "accel.aggregate",
                "fl::backend",
                sample,
                Counts::items(adds),
                |_| api::accel_aggregate(flat, uploads),
            )?;
            let weighted = t.span(
                "accel.aggregate_weighted",
                "fl::backend",
                sample,
                Counts::default(),
                |_| api::accel_aggregate_weighted(&server.sharded, uploads, &self.weights),
            )?;
            let tree = t.span(
                "accel.aggregate_tree",
                "fl::backend",
                sample,
                Counts::default(),
                |_| api::accel_aggregate_weighted(&server.tree, uploads, &self.weights),
            )?;
            Ok::<_, String>((plain, weighted, tree))
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let (plain, weighted, tree) = aggregates?;
        let sim_s: f64 = [flat, &server.sharded, &server.tree]
            .into_iter()
            .map(api::accel_take_he_seconds)
            .sum();

        // The wire: every client uploads once, the weighted aggregate goes
        // back to every client.
        api::net_reset(&self.env);
        for upload in uploads {
            api::net_send(&self.env, upload)?;
        }
        api::net_broadcast(&self.env, uploads.len() as u32, &weighted)?;
        let net = api::net_traffic(&self.env);

        let (fp_weighted, fp_tree) = (
            api::encvec_fingerprint(&weighted),
            api::encvec_fingerprint(&tree),
        );
        let mut h = Fnv::default();
        h.word(api::encvec_fingerprint(&plain));
        h.word(fp_weighted);
        h.word(fp_tree);
        h.word(sim_s.to_bits());
        let mut phase_sim_s = [0.0; 6];
        phase_sim_s[3] = sim_s;
        Ok(UnitOut {
            wall_ns,
            cost: UnitCost {
                sim_s,
                wire_bytes: net.bytes,
                loss: f64::NAN,
                phase_sim_s,
                he_values: (uploads.len() * self.shape.vector_len) as u64,
                ciphertexts: net.ciphertexts,
                overlap_speedup: 1.0,
            },
            net,
            fingerprint: h.0,
            consistent: fp_weighted == fp_tree,
        })
    }

    /// The oracle, once per run and outside every timed region: decrypted
    /// sums against plaintext sums within the quantizer's bound, and the
    /// loss after training.
    pub fn verify(&self, tracer: &mut Tracer, plan: &Plan) -> Res<Verdict> {
        let mut verdict = Verdict {
            checks: 0,
            failed: 0,
            train_loss: f64::NAN,
        };
        let mut check = |ok: bool| {
            verdict.checks += 1;
            verdict.failed += u64::from(!ok);
        };
        let n = plan.engine_parties.min(self.vectors.len());
        let replayed = replay_round(self.accel(), &self.vectors[..n], plan.train_seed, tracer)?;
        let bound = n as f64 * api::accel_quant_error(self.accel());
        check(sums_within(
            &replayed,
            &plain_sums(&self.vectors[..n], None),
            bound,
        ));

        match (&self.shape.kind, &self.server) {
            (Kind::Train(kind), _) => {
                let parties = self.shape.parties as u32;
                let mut model = api::build_model(*kind, &self.data, parties, &self.cfg)?;
                let initial = api::model_loss(&model);
                let loss = api::train_final_loss(&mut model, &self.env, &self.cfg)?;
                check(loss.is_finite() && loss < initial);
                verdict.train_loss = loss;
            }
            (Kind::ServerAgg, Some(server)) => {
                let flat = self.accel();
                let parties = self.vectors.len();
                let total: u64 = self.weights.iter().sum();
                let step = api::accel_quant_error(flat);

                let plain = api::accel_aggregate(flat, &server.uploads)?;
                let sums = api::accel_decrypt_sum(flat, &plain, parties as u32)?;
                check(sums_within(
                    &sums,
                    &plain_sums(&self.vectors, None),
                    parties as f64 * step,
                ));

                let weighted =
                    api::accel_aggregate_weighted(&server.sharded, &server.uploads, &self.weights)?;
                let sums = api::accel_decrypt_sum(&server.sharded, &weighted, total as u32)?;
                let expected = plain_sums(&self.vectors, Some(&self.weights));
                check(sums_within(&sums, &expected, total as f64 * step));

                // One FedAvg step from the zero model with the decrypted
                // weighted mean, then the loss over every client's rows.
                let model: Vec<f64> = sums
                    .iter()
                    .map(|s| -SERVER_LEARNING_RATE * s / total as f64)
                    .collect();
                let loss = api::lr_loss(&self.data, &model);
                check(loss.is_finite() && loss < api::lr_loss(&self.data, &vec![0.0; model.len()]));
                verdict.train_loss = loss;
            }
            (Kind::ServerAgg, None) => {
                return Err("server workload without server state".to_string())
            }
        }
        Ok(verdict)
    }
}

/// The benchmark's own secure-aggregation round over the `Accelerator`:
/// every party encrypts, the server folds, one party decrypts.
pub fn replay_round(
    accel: &Accel,
    vectors: &[Vec<f64>],
    seed: u64,
    tracer: &mut Tracer,
) -> Res<Vec<f64>> {
    let values: u64 = vectors.iter().map(|v| v.len() as u64).sum();
    tracer.span(
        "round.replay",
        "fl::engine",
        0,
        Counts::items(values),
        |t| {
            let mut encrypted = Vec::with_capacity(vectors.len());
            for (k, v) in vectors.iter().enumerate() {
                let counts = Counts::items(api::codec_words_for(accel, v.len()) as u64);
                encrypted.push(
                    t.span("accel.encrypt", "fl::backend", k as u32, counts, |_| {
                        api::accel_encrypt(accel, v, seed.wrapping_add(k as u64))
                    })?,
                );
            }
            let words: u64 = encrypted.iter().skip(1).map(api::encvec_words).sum();
            let sum = t.span(
                "accel.aggregate",
                "fl::backend",
                0,
                Counts::items(words),
                |_| api::accel_aggregate(accel, &encrypted),
            )?;
            let counts = Counts {
                items: api::encvec_words(&sum),
                bytes: api::encvec_bytes(&sum),
                limb_mults: 0,
            };
            t.span("accel.decrypt_sum", "fl::backend", 0, counts, |_| {
                api::accel_decrypt_sum(accel, &sum, vectors.len() as u32)
            })
        },
    )
}

/// Element-wise `Σ wᵢ·vᵢ` (all weights 1 when `weights` is `None`).
pub fn plain_sums(vectors: &[Vec<f64>], weights: Option<&[u64]>) -> Vec<f64> {
    let len = vectors.first().map_or(0, Vec::len);
    let mut sums = vec![0.0; len];
    for (k, v) in vectors.iter().enumerate() {
        let w = weights.map_or(1.0, |w| w[k] as f64);
        for (s, x) in sums.iter_mut().zip(v) {
            *s += w * x;
        }
    }
    sums
}

/// Whether every decoded sum is within `bound` of its plaintext sum. The
/// slack covers f64 rounding in the two summations, not quantization.
pub fn sums_within(decoded: &[f64], expected: &[f64], bound: f64) -> bool {
    decoded.len() == expected.len()
        && decoded
            .iter()
            .zip(expected)
            .all(|(d, e)| (d - e).abs() <= bound * (1.0 + 1e-9) + 1e-12 * e.abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_plan_parses_and_names_four_workloads() {
        let plan = Plan::load().unwrap();
        let names: Vec<&str> = plan.shapes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "homo_lr_2048",
                "hetero_nn_1024",
                "hetero_sbt_1024",
                "server_agg_1024"
            ]
        );
        assert!(plan.shape("server_agg_1024").unwrap().tree_arity >= 2);
        assert!(plan.shape("nope").is_none());
        assert!(Plan::parse("{}").is_err());
    }

    #[test]
    fn plain_sums_and_the_bound_check() {
        let v = vec![vec![0.5, -1.0], vec![0.25, 1.0]];
        assert_eq!(plain_sums(&v, None), vec![0.75, 0.0]);
        assert_eq!(plain_sums(&v, Some(&[2, 4])), vec![2.0, 2.0]);
        assert!(sums_within(&[0.75, 0.001], &[0.75, 0.0], 0.001));
        assert!(!sums_within(&[0.75, 0.0011], &[0.75, 0.0], 0.001));
        assert!(!sums_within(&[0.75], &[0.75, 0.0], 1.0));
    }

    /// The `server_agg_1024` oracle at a small key: the quantizer is
    /// provisioned for Σweights, so the weighted sum decodes within
    /// Σweights × max_error, flat and tree agree bit for bit, and a
    /// corrupted aggregate is caught.
    #[test]
    fn server_oracle_accepts_the_weighted_sum_and_rejects_a_wrong_one() {
        let plan = Plan::load().unwrap();
        let mut shape = plan.shape("server_agg_1024").unwrap().clone();
        shape.key_bits = 256;
        shape.parties = 6;
        shape.features = 12;
        shape.tree_arity = 2;
        shape.weight_min = 10;
        shape.weight_max = 40;
        let w = Workload::setup(&shape, &plan, 7).unwrap();
        let mut tracer = Tracer::new(false);

        let a = w.unit(&mut tracer, 0).unwrap();
        let b = w.unit(&mut tracer, 1).unwrap();
        assert!(a.consistent && b.consistent);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.cost.sim_s > 0.0 && a.cost.wire_bytes > 0);

        let verdict = w.verify(&mut tracer, &plan).unwrap();
        assert_eq!((verdict.checks, verdict.failed), (4, 0));
        assert!(verdict.train_loss.is_finite());

        // Weights the uploads were not aggregated with must not pass.
        let server = w.server.as_ref().unwrap();
        let total: u64 = w.weights.iter().sum();
        let mut wrong = w.weights.clone();
        wrong.swap(0, 1);
        wrong[2] += 1;
        wrong[3] -= 1;
        let agg = api::accel_aggregate_weighted(&server.sharded, &server.uploads, &wrong).unwrap();
        let sums = api::accel_decrypt_sum(&server.sharded, &agg, total as u32).unwrap();
        let expected = plain_sums(&w.vectors, Some(&w.weights));
        let bound = total as f64 * api::accel_quant_error(w.accel());
        assert!(!sums_within(&sums, &expected, bound));
    }
}
