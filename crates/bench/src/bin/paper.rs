//! **The paper's evaluation** (Sec. VI): every table and figure, each a
//! view of one experiment matrix.
//!
//! A cell of the matrix is one trained model: (dataset, model, key bits,
//! backend, the quantizer the accelerator uses, preset). The views are
//! first run against an empty matrix, which records the cells they read
//! and the most epochs any of them reads of each; every cell is then
//! trained once, by [`train`], to that many epochs; then the views run
//! again and render from the trained cells. A view that reads `E` epochs
//! of a cell trained to more reads the first `E` (fewer if training
//! converged sooner): only [`train`] reads `TrainConfig::max_epochs`,
//! which `flbooster_bench`'s tests pin. Fig. 6, Fig. 7 and Table IV train
//! nothing and are plain functions.
//!
//! Each view is written to `OUT_DIR/<name>.txt` (the names are
//! [`VIEWS`]) and echoed to stdout. `--quick` selects the trimmed tier
//! ([`QUICK`]), which `run_harness.sh --quick` writes outside `results/`.
//! Three views are modeled gates, each check a pure function of its rows:
//! once every view is written, the binary exits 1 naming each that failed.
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin paper -- [--quick] OUT_DIR
//! ```

use codec::QuantizerConfig;
use fl::backend::EncryptedVector;
use fl::engine::{run_round, EngineConfig};
use fl::metrics::{convergence_bias, EpochBreakdown, EpochResult, TrainReport};
use fl::train::{train, FlEnv, TrainConfig};
use fl::{Accelerator, AggregationTopology, BackendKind, Network};
use flbooster_bench::table::{pct, secs, speedup, Table};
use flbooster_bench::{
    backend, bench_dataset, harness_train_config, shared_keys, DatasetKind, ModelKind, Preset,
    PARTICIPANTS,
};
use flbooster_core::analysis;
use gpu_sim::resource::ResourceManager;
use gpu_sim::{Device, DeviceConfig, ItemOutcome};
use he::ghe::DEFAULT_CPU_SECONDS_PER_OP;
use he::paillier::Ciphertext;
use he::GpuHe;
use mpint::Natural;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use DatasetKind::{Rcv1, Synthetic};
use ModelKind::{HeteroNn, HeteroSbt, HomoLr};

/// Every file this binary writes, in the order the harness used to run
/// them, and the view that renders it. A view returns `None` when its
/// tier does not write it.
const VIEWS: [(&str, View); 14] = [
    ("fig1_fate_breakdown", View::Matrix(fig1)),
    ("table6_components", View::Matrix(table6)),
    ("fig6_sm_utilization", View::Alone(fig6)),
    ("fig7_compression", View::Alone(fig7)),
    ("table4_throughput", View::Alone(table4)),
    ("table3_epoch_time", View::Matrix(table3_epoch_time)),
    ("table3_sweep", View::Matrix(table3_sweep)),
    ("table5_ablation", View::Matrix(table5)),
    ("table7_bias", View::Matrix(table7)),
    ("fig8_convergence", View::Matrix(fig8)),
    ("ablation_quantization", View::Matrix(ablation_quantization)),
    ("calibrate_cost", View::Gate(calibrate_cost)),
    ("bench_aggregate", View::Gate(bench_aggregate)),
    ("bench_rounds", View::Gate(bench_rounds)),
];

/// The sweeps that differ between the two tiers.
struct Tier {
    /// Table V's datasets.
    ablation_datasets: &'static [DatasetKind],
    /// Table VII's epochs, models and datasets.
    bias_epochs: usize,
    bias_models: &'static [ModelKind],
    bias_datasets: &'static [DatasetKind],
    /// Fig. 8's epochs and models.
    convergence_epochs: usize,
    convergence_models: &'static [ModelKind],
    /// Whether Table III's 2048-bit point (`table3_sweep`) is written.
    key_sweep: bool,
    /// `bench_aggregate`'s party counts.
    tree_parties: &'static [usize],
    /// `bench_rounds`' client counts (all ≥ 64).
    round_clients: &'static [usize],
}

/// The full tier: what `results/` holds.
const FULL: Tier = Tier {
    ablation_datasets: &[Rcv1, Synthetic],
    bias_epochs: 2,
    bias_models: &[HomoLr, HeteroSbt],
    bias_datasets: &[Rcv1, Synthetic],
    convergence_epochs: 3,
    convergence_models: &[HomoLr, HeteroNn],
    key_sweep: true,
    tree_parties: &[1_000, 10_000, 100_000],
    round_clients: &[64, 256, 1024],
};

/// The trimmed tier of `--quick`.
const QUICK: Tier = Tier {
    ablation_datasets: &[Rcv1],
    bias_epochs: 1,
    bias_models: &[HomoLr],
    bias_datasets: &[Rcv1],
    convergence_epochs: 2,
    convergence_models: &[HomoLr],
    key_sweep: false,
    tree_parties: &[1_000, 4_000],
    round_clients: &[64, 128],
};

/// The key sizes the paper sweeps (Fig. 6, Fig. 7).
const PAPER_KEYS: [u32; 3] = [1024, 2048, 4096];

/// How a view gets its text.
enum View {
    /// Rendered from trained cells.
    Matrix(fn(&Tier, &mut Matrix) -> Option<String>),
    /// Computed without training.
    Alone(fn() -> String),
    /// A modeled gate: its text, and whether every check held.
    Gate(fn(&Tier) -> (String, bool)),
}

/// One trained model.
#[derive(Clone, Copy, PartialEq)]
struct Cell {
    dataset: DatasetKind,
    model: ModelKind,
    key_bits: u32,
    backend: BackendKind,
    quantizer: QuantizerConfig,
    preset: Preset,
}

/// A cell at the paper's default quantizer and the quick preset.
fn cell(dataset: DatasetKind, model: ModelKind, key_bits: u32, backend: BackendKind) -> Cell {
    Cell {
        dataset,
        model,
        key_bits,
        backend,
        quantizer: QuantizerConfig::paper_default(PARTICIPANTS),
        preset: Preset::Quick,
    }
}

/// The "without compression" reference of Table VII and the quantization
/// ablation: FATE's float encoding keeps the full 52-bit mantissa, so the
/// reference quantizes with `r = 52` (error at the f64 epsilon).
fn lossless() -> QuantizerConfig {
    QuantizerConfig {
        r_bits: 52,
        ..QuantizerConfig::paper_default(PARTICIPANTS)
    }
}

/// Every cell the views read, with its training report. Until
/// [`Matrix::train`] runs, a report holds placeholder epochs, as many as
/// the views have asked for.
#[derive(Default)]
struct Matrix {
    cells: Vec<(Cell, TrainReport)>,
    trained: bool,
}

impl Matrix {
    /// The first `epochs` epochs of `cell` (fewer if training converged
    /// sooner). Before training, records the demand.
    fn run(&mut self, cell: Cell, epochs: usize) -> TrainReport {
        let at = match self.cells.iter().position(|(c, _)| *c == cell) {
            Some(at) => at,
            None => {
                assert!(!self.trained, "a view read a cell it did not plan");
                let report = TrainReport {
                    model: String::new(),
                    dataset: String::new(),
                    backend: String::new(),
                    key_bits: cell.key_bits,
                    epochs: Vec::new(),
                    converged: false,
                };
                self.cells.push((cell, report));
                self.cells.len() - 1
            }
        };
        let report = &mut self.cells[at].1;
        if !self.trained && report.epochs.len() < epochs {
            let placeholder = EpochResult {
                breakdown: EpochBreakdown::default(),
                loss: 0.0,
            };
            report.epochs.resize(epochs, placeholder);
        }
        let mut prefix = report.clone();
        prefix.epochs.truncate(epochs);
        prefix
    }

    /// Epoch 0 of `cell`.
    fn first_epoch(&mut self, cell: Cell) -> EpochBreakdown {
        self.run(cell, 1).epochs[0].breakdown
    }

    /// Trains every recorded cell once, to the most epochs asked of it.
    fn train(&mut self) {
        let total = self.cells.len();
        for (i, (cell, report)) in self.cells.iter_mut().enumerate() {
            let cfg = TrainConfig {
                max_epochs: report.epochs.len(),
                ..harness_train_config()
            };
            let data = bench_dataset(cell.dataset, cell.preset);
            let accel = Accelerator::with_quantizer(
                cell.backend,
                shared_keys(cell.key_bits),
                PARTICIPANTS,
                cell.quantizer,
            )
            .expect("backend construction");
            let env = FlEnv::new(accel, cfg.seed);
            let mut model = cell
                .model
                .build(&data, PARTICIPANTS, &cfg)
                .expect("model build");
            *report = train(model.as_mut(), &env, &cfg).expect("training");
            eprintln!(
                "  cell {}/{total}: {} / {} @ {}, {}, {}-bit values, {} epochs",
                i + 1,
                cell.dataset.name(),
                cell.model.name(),
                cell.key_bits,
                cell.backend.name(),
                cell.quantizer.r_bits,
                cfg.max_epochs
            );
        }
        self.trained = true;
    }
}

/// **Figure 1**: FATE's epoch time split into HE operations,
/// communication and others, per model at 1024 bits. Paper: HE > 50 % and
/// communication > 40 % of every epoch.
fn fig1(_: &Tier, m: &mut Matrix) -> Option<String> {
    let mut out = String::from(
        "Figure 1 — FATE per-epoch time breakdown (RCV1 @ 1024-bit keys, Quick preset)\n\n",
    );
    let mut table = Table::new([
        "Model",
        "Epoch (sim s)",
        "Others",
        "HE ops",
        "Communication",
    ]);
    for model in ModelKind::all() {
        let b = m.first_epoch(cell(Rcv1, model, 1024, BackendKind::Fate));
        let (others, he, comm) = b.shares();
        table.row([
            model.name().to_string(),
            secs(b.total_seconds()),
            pct(others),
            pct(he),
            pct(comm),
        ]);
    }
    out += &table.render();
    out += "\nPaper reference: HE > 50% and communication > 40% of every epoch.\n";
    Some(out)
}

/// **Table VI**: component time shares of Homo LR at 1024 bits, per
/// dataset and system. Paper: FATE ≈ 0.1/52/48 %, HAFLO ≈ 0.2/0.6/99.2 %,
/// FLBooster 22–48 % others.
fn table6(_: &Tier, m: &mut Matrix) -> Option<String> {
    let mut out = String::from(
        "Table VI — component time shares, Homo LR @ 1024-bit keys (Quick preset)\n\n",
    );
    let mut table = Table::new([
        "Dataset",
        "Method",
        "Epoch (sim s)",
        "Others",
        "HE operations",
        "Communication",
    ]);
    for dataset in DatasetKind::all() {
        for backend in BackendKind::headline() {
            let b = m.first_epoch(cell(dataset, HomoLr, 1024, backend));
            let (others, he, comm) = b.shares();
            table.row([
                dataset.name().to_string(),
                backend.name().to_string(),
                secs(b.total_seconds()),
                pct(others),
                pct(he),
                pct(comm),
            ]);
        }
    }
    out += &table.render();
    out += "\nPaper reference: FATE ~0.1/52/48; HAFLO ~0.2/0.6/99.2; FLBooster shifts\n";
    out += "weight from HE+comm into Others (22-48%).\n";
    Some(out)
}

/// **Table III**: epoch time of FATE / HAFLO / FLBooster at `key_bits`.
/// Paper: FLBooster 14.3×–138× over HAFLO, growing with the key size.
fn table3(m: &mut Matrix, datasets: &[DatasetKind], models: &[ModelKind], key_bits: u32) -> String {
    let mut out = String::from(
        "Table III — average running time per epoch in simulated seconds (Quick preset)\n\n",
    );
    let mut table = Table::new([
        "Dataset",
        "Model",
        "Key",
        "FATE",
        "HAFLO",
        "FLBooster",
        "vs FATE",
        "vs HAFLO",
    ]);
    for &dataset in datasets {
        for &model in models {
            let t = BackendKind::headline().map(|b| {
                m.first_epoch(cell(dataset, model, key_bits, b))
                    .total_seconds()
            });
            table.row([
                dataset.name().to_string(),
                model.name().to_string(),
                key_bits.to_string(),
                secs(t[0]),
                secs(t[1]),
                secs(t[2]),
                speedup(t[0] / t[2]),
                speedup(t[1] / t[2]),
            ]);
            out += &format!(
                "  done {} / {} @ {key_bits}\n",
                dataset.name(),
                model.name()
            );
        }
    }
    out += &table.render();
    out += "\nPaper reference: FLBooster 14.3x-138x over HAFLO; ratios grow with key size;\n";
    out += "LR models accelerate more than SBT.\n";
    out
}

fn table3_epoch_time(_: &Tier, m: &mut Matrix) -> Option<String> {
    Some(table3(m, &DatasetKind::all(), &ModelKind::all(), 1024))
}

fn table3_sweep(tier: &Tier, m: &mut Matrix) -> Option<String> {
    tier.key_sweep.then(|| table3(m, &[Rcv1], &[HomoLr], 2048))
}

/// **Table V**: FLBooster against `w/o GHE` (CPU HE, compression kept)
/// and `w/o BC` (GPU HE, no compression). Paper: `w/o BC` is the bigger
/// loss, and both gaps widen with the key size.
fn table5(tier: &Tier, m: &mut Matrix) -> Option<String> {
    let mut out =
        String::from("Table V — module ablation, simulated seconds per epoch (Quick preset)\n\n");
    let mut table = Table::new([
        "Dataset",
        "Model",
        "Key",
        "FLBooster",
        "w/o GHE",
        "w/o BC",
        "GHE gain",
        "BC gain",
    ]);
    for &dataset in tier.ablation_datasets {
        for model in ModelKind::all() {
            let t = BackendKind::ablations()
                .map(|b| m.first_epoch(cell(dataset, model, 1024, b)).total_seconds());
            table.row([
                dataset.name().to_string(),
                model.name().to_string(),
                "1024".to_string(),
                secs(t[0]),
                secs(t[1]),
                secs(t[2]),
                speedup(t[1] / t[0]),
                speedup(t[2] / t[0]),
            ]);
            out += &format!("  done {} / {} @ 1024\n", dataset.name(), model.name());
        }
    }
    out += &table.render();
    out += "\nPaper reference: w/o BC costs 14.3x-126.7x; w/o GHE costs ~4-9x; both grow\n";
    out += "with key size.\n";
    Some(out)
}

/// **Table VII**: convergence bias (Eq. 15), `|L − L_FLBooster| / L`,
/// against the [`lossless`] FATE reference. Paper: well under 5 %, LR
/// lowest.
fn table7(tier: &Tier, m: &mut Matrix) -> Option<String> {
    let epochs = tier.bias_epochs;
    let mut out = format!(
        "Table VII — convergence bias (Eq. 15) @ 1024-bit keys, {epochs} epochs (Quick preset)\n\n"
    );
    let mut table = Table::new(["Model", "Dataset", "Ref loss", "FLBooster loss", "Bias"]);
    for &model in tier.bias_models {
        for &dataset in tier.bias_datasets {
            let reference = Cell {
                quantizer: lossless(),
                ..cell(dataset, model, 1024, BackendKind::Fate)
            };
            let reference = m.run(reference, epochs).final_loss();
            let flbooster = cell(dataset, model, 1024, BackendKind::FlBooster);
            let flbooster = m.run(flbooster, epochs).final_loss();
            table.row([
                model.name().to_string(),
                dataset.name().to_string(),
                format!("{reference:.6}"),
                format!("{flbooster:.6}"),
                pct(convergence_bias(reference, flbooster)),
            ]);
            out += &format!("  done {} / {}\n", model.name(), dataset.name());
        }
    }
    out += &table.render();
    out += "\nPaper reference: 0.2%-3.3% bias; LR models lowest, SBT highest.\n";
    Some(out)
}

/// **Figure 8**: loss against cumulative simulated time on Synthetic at
/// 1024 bits. Paper: one final loss per model, reached 1–2 orders of
/// magnitude sooner by FLBooster.
fn fig8(tier: &Tier, m: &mut Matrix) -> Option<String> {
    let epochs = tier.convergence_epochs;
    let mut out = format!(
        "Figure 8 — convergence on Synthetic @ 1024-bit keys (Quick preset, {epochs} epochs)\n\n"
    );
    for &model in tier.convergence_models {
        out += &format!("== {} ==\n", model.name());
        let mut table = Table::new(["Method", "Epoch", "Cumulative sim s", "Loss"]);
        let reports =
            BackendKind::headline().map(|b| (b, m.run(cell(Synthetic, model, 1024, b), epochs)));
        for (backend, report) in &reports {
            for (e, (t, loss)) in report.convergence_series().iter().enumerate() {
                table.row([
                    backend.name().to_string(),
                    (e + 1).to_string(),
                    secs(*t),
                    format!("{loss:.5}"),
                ]);
            }
        }
        out += &table.render();
        let [fate, haflo, flbooster] = reports.map(|(_, r)| r);
        let fate_t = fate.mean_epoch_seconds();
        out += &format!(
            "  time-to-loss speedups vs FATE: HAFLO {:.1}x, FLBooster {:.1}x; final losses {:.5}/{:.5}/{:.5}\n\n",
            fate_t / haflo.mean_epoch_seconds(),
            fate_t / flbooster.mean_epoch_seconds(),
            fate.final_loss(),
            haflo.final_loss(),
            flbooster.final_loss(),
        );
    }
    out += "Paper reference: same final loss per model; FLBooster 28.7x-144.3x faster than\n";
    out += "FATE and 14.3x-75.2x faster than HAFLO to convergence.\n";
    Some(out)
}

/// **Quantization-width ablation** (beyond the paper's tables): per slot
/// width, the compression ratio, the worst-case quantization error and
/// the bias of a 3-epoch Homo LR run against the [`lossless`] one. The
/// 32-bit row is the default FLBooster cell, the paper's recommendation
/// (Sec. V-B).
fn ablation_quantization(_: &Tier, m: &mut Matrix) -> Option<String> {
    let homo_lr = |quantizer| Cell {
        quantizer,
        ..cell(Synthetic, HomoLr, 1024, BackendKind::FlBooster)
    };
    let mut out = String::from("Quantization-width ablation @ 1024-bit keys (Quick preset)\n\n");
    let reference = m.run(homo_lr(lossless()), 3).final_loss();
    let mut table = Table::new([
        "Slot bits",
        "r bits",
        "Compression",
        "Max quant error",
        "Final loss",
        "Bias vs f64",
    ]);
    let guard = QuantizerConfig::paper_default(PARTICIPANTS).guard_bits();
    for slot in [8u32, 16, 24, 32, 48] {
        let r = slot - guard;
        let quantizer = QuantizerConfig {
            alpha: 1.0,
            r_bits: r,
            participants: PARTICIPANTS,
            clip: true,
        };
        let loss = m.run(homo_lr(quantizer), 3).final_loss();
        let ratio = analysis::compression_ratio(100_000, 1024, r, PARTICIPANTS);
        let err = 1.0 / ((1u64 << r) - 1) as f64;
        table.row([
            slot.to_string(),
            r.to_string(),
            format!("{ratio:.0}x"),
            format!("{err:.2e}"),
            format!("{loss:.6}"),
            pct(convergence_bias(reference, loss)),
        ]);
    }
    out += &table.render();
    out += "\nReading: 8-bit slots maximize compression but visibly bias the loss;\n";
    out += "at the paper's 32-bit slots the bias is negligible while compression\n";
    out += "remains two orders of magnitude — the paper's recommended operating point.\n";
    Some(out)
}

/// **Figure 6**: SM utilization of HAFLO's fixed 256-thread blocks
/// against FLBooster's resource manager, probed at saturation (an epoch's
/// HE operations, scaled to the paper's dataset sizes, in one launch).
/// Paper: FLBooster ahead everywhere; both fall as the key grows.
fn fig6() -> String {
    let mut out = String::from(
        "Figure 6 — SM utilization in HE operations at saturation (Default preset)\n\n",
    );
    let mut table = Table::new(["Model", "Key", "HAFLO", "FLBooster"]);
    let data = bench_dataset(Synthetic, Preset::Default);
    for model in ModelKind::all() {
        let per_round = match model {
            ModelKind::HomoLr | ModelKind::HeteroLr => data.num_features,
            ModelKind::HeteroSbt => 2 * data.len(),
            ModelKind::HeteroNn => 2 * 1024 * fl::models::HIDDEN,
        };
        let items = (per_round * 1000).clamp(100_000, 5_000_000);
        for key_bits in PAPER_KEYS {
            let [haflo, flbooster] = [true, false].map(|fixed| {
                let device = if fixed {
                    Device::with_manager(DeviceConfig::rtx3090(), ResourceManager::fixed(256))
                } else {
                    Device::new(DeviceConfig::rtx3090())
                };
                let spec = GpuHe::kernel_spec("he_epoch", key_bits, true);
                // Utilization depends on the launch geometry only, so the
                // bodies are unit probes.
                let probe: Vec<u32> = (0..1u32 << 20).take(items).collect();
                let (_, report) = device.launch(&spec, &probe, 0, 0, |i, _| ItemOutcome {
                    output: (),
                    thread_ops: 1,
                    divergent: i % 2 == 0,
                });
                pct(report.sm_utilization)
            });
            table.row([
                model.name().to_string(),
                key_bits.to_string(),
                haflo,
                flbooster,
            ]);
        }
    }
    out += &table.render();
    out += "\nPaper reference: FLBooster > HAFLO at every point; utilization falls as the\n";
    out += "key size (register demand per thread) grows.\n";
    out
}

/// **Figure 7**: FLBooster's compression ratio per model and key size,
/// measured (values over ciphertexts out of the backend) beside Eq. 11.
/// Paper: ~2 orders of magnitude, doubling with the key size.
fn fig7() -> String {
    let mut out = String::from("Figure 7 — batch-compression ratio vs key size (Quick preset)\n\n");
    let mut table = Table::new(["Model", "Key", "Measured", "Eq. 11 bound", "PSU (Eq. 12)"]);
    let data = bench_dataset(Synthetic, Preset::Quick);
    for model in ModelKind::all() {
        let n = match model {
            ModelKind::HomoLr | ModelKind::HeteroLr => data.num_features.max(512),
            ModelKind::HeteroSbt => 2 * data.len().max(256),
            ModelKind::HeteroNn => 2 * 64 * fl::models::HIDDEN,
        };
        let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin() * 0.7).collect();
        for key_bits in PAPER_KEYS {
            let acc = backend(BackendKind::FlBooster, key_bits, PARTICIPANTS);
            let enc = acc.encrypt(&values, 5).expect("encrypt");
            let measured = values.len() as f64 / enc.ciphertext_count() as f64;
            let r_bits = acc.codec().quantizer().config().r_bits;
            let theory = analysis::compression_ratio(n as u64, key_bits, r_bits, PARTICIPANTS);
            let psu =
                analysis::plaintext_space_utilization(n as u64, key_bits, r_bits, PARTICIPANTS);
            table.row([
                model.name().to_string(),
                key_bits.to_string(),
                format!("{measured:.1}x"),
                format!("{theory:.1}x"),
                format!("{psu:.3}"),
            ]);
        }
    }
    out += &table.render();
    out += "\nPaper reference: ~32x at 1024 bits, ~64x at 2048, ~128x at 4096, uniform\n";
    out += "across models (the ratio depends only on the key size).\n";
    out
}

/// **Table IV**: HE throughput per system at 1024 bits, as measured at
/// harness scale (a few hundred values, which cannot fill the device)
/// beside Eq. 10 at saturation. Paper @1024: FATE ~360/s, HAFLO ~59 k/s,
/// FLBooster ~0.4–0.5 M/s.
fn table4() -> String {
    let mut out = String::from(
        "Table IV — HE throughput in instances/simulated second (Quick preset)\n\
         Each cell: measured-at-harness-scale / modeled-at-saturation (Eq. 10)\n\n",
    );
    let mut table = Table::new(["Dataset", "Model", "Key", "FATE", "HAFLO", "FLBooster"]);
    for dataset in DatasetKind::all() {
        let data = bench_dataset(dataset, Preset::Quick);
        for model in ModelKind::all() {
            let n = match model {
                ModelKind::HomoLr => data.num_features,
                ModelKind::HeteroLr => data.num_features + 2 * 64,
                ModelKind::HeteroSbt => 2 * data.len(),
                ModelKind::HeteroNn => 2 * 64 * fl::models::HIDDEN,
            }
            .clamp(16, 256);
            let [fate, haflo, flbooster] = BackendKind::headline().map(|kind| {
                format!(
                    "{:.0} / {:.0}",
                    measured_throughput(kind, n),
                    saturated_throughput(kind, TABLE4_KEY_BITS)
                )
            });
            table.row([
                dataset.name().to_string(),
                model.name().to_string(),
                TABLE4_KEY_BITS.to_string(),
                fate,
                haflo,
                flbooster,
            ]);
        }
    }
    out += &table.render();
    out += "\nPaper reference @1024: FATE ~360/s, HAFLO ~59k/s, FLBooster ~400-530k/s;\n";
    out += "throughput falls ~6x per key-size doubling (modeled column).\n";
    out
}

/// Key size of Table IV and of the two anchors `calibrate_cost` re-fits.
const TABLE4_KEY_BITS: u32 = 1024;

/// Table IV's measured cell: `n` values encrypted, folded two ways and
/// decrypted once, in instances per simulated second.
fn measured_throughput(kind: BackendKind, n: usize) -> f64 {
    let acc = backend(kind, TABLE4_KEY_BITS, PARTICIPANTS);
    let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).sin() * 0.9).collect();
    let enc = acc.encrypt(&values, 7).expect("encrypt");
    let agg = acc.aggregate(&[enc.clone(), enc]).expect("aggregate");
    let _ = acc.decrypt_sum(&agg, 2).expect("decrypt");
    2.0 * n as f64 / acc.timing().he_seconds
}

/// Modeled operations per Table IV instance: one encrypt, one homomorphic
/// add and one decrypt.
fn ops_per_item(key_bits: u32) -> u64 {
    let keys = shared_keys(key_bits);
    keys.public.encrypt_op_estimate()
        + keys.public.add_op_estimate()
        + keys.private.decrypt_op_estimate()
}

/// Eq.-10-style saturated throughput: [`ops_per_item`] per instance,
/// `1e6` instances in flight.
fn saturated_throughput(kind: BackendKind, key_bits: u32) -> f64 {
    let ops_per_item = ops_per_item(key_bits);
    let values_per_ct = match kind {
        BackendKind::FlBooster | BackendKind::WithoutGhe => {
            (key_bits / 32).saturating_sub(1).max(1) as f64
        }
        _ => 1.0,
    };
    match kind {
        BackendKind::Fate | BackendKind::WithoutGhe => {
            values_per_ct / (ops_per_item as f64 * DEFAULT_CPU_SECONDS_PER_OP)
        }
        _ => {
            let device = match kind {
                BackendKind::Haflo => {
                    Device::with_manager(DeviceConfig::rtx3090(), ResourceManager::fixed(256))
                }
                _ => Device::new(DeviceConfig::rtx3090()),
            };
            let cfg = device.config();
            let spec = GpuHe::kernel_spec("saturated", key_bits, true);
            let items = 1_000_000usize;
            let plan = device.manager().plan(cfg, &spec, items);
            let concurrent = plan.concurrent_threads(cfg).max(1) as f64;
            let kernel_seconds =
                items as f64 * ops_per_item as f64 / concurrent * cfg.sec_per_thread_op;
            let ct_bytes = (2 * key_bits as u64).div_ceil(8);
            let transfer_seconds =
                (items as u64 * 2 * ct_bytes) as f64 / cfg.transfer_bytes_per_sec;
            items as f64 * values_per_ct / (kernel_seconds + transfer_seconds)
        }
    }
}

/// Maximum tolerated relative drift of a re-fitted cost constant.
const MAX_DRIFT: f64 = 0.10;
/// Paper Table IV @1024: FATE throughput anchor (instances/second).
const FATE_TARGET: f64 = 360.0;
/// Paper Table IV @1024: HAFLO throughput anchor (instances/second).
const HAFLO_TARGET: f64 = 59_000.0;
/// Values in the Table IV cell HAFLO's anchor reads (the 256-value clamp).
const HAFLO_VALUES: usize = 256;

/// **Cost-model calibration gate**: the two DESIGN §8 constants Table IV
/// anchors, re-fitted from Table IV's own numbers. β_cpu is solved from
/// the Eq.-10 serial path, `1 / (ops_per_item · β_cpu)`, landing FATE on
/// 360 inst/s; the GPU `sec_per_thread_op` is first-order-solved from the
/// measured HAFLO cell landing on 59 k/s (kernel time dominates transfer
/// at this shape, so the fit is `current · measured / target`). Fails
/// when either shipped constant drifts more than [`MAX_DRIFT`] from its
/// fit. That each `*_op_estimate` prices the kernel it names is
/// `crates/he/tests/golden_schedule.rs`'s to pin.
fn calibrate_cost(_: &Tier) -> (String, bool) {
    let beta = 1.0 / (FATE_TARGET * ops_per_item(TABLE4_KEY_BITS) as f64);
    let spto = DeviceConfig::rtx3090().sec_per_thread_op;
    let haflo = measured_throughput(BackendKind::Haflo, HAFLO_VALUES);
    let fate_anchor = format!("FATE target {FATE_TARGET}/s");
    let haflo_anchor = format!("HAFLO measured {haflo:.0}/s vs target {HAFLO_TARGET}/s");
    let fits = [
        refit("beta_cpu", DEFAULT_CPU_SECONDS_PER_OP, beta, &fate_anchor),
        refit(
            "sec_per_thread_op",
            spto,
            spto * haflo / HAFLO_TARGET,
            &haflo_anchor,
        ),
    ];
    let ok = fits.iter().all(|(_, ok)| *ok);
    let drift = MAX_DRIFT * 100.0;
    let verdict = if ok {
        format!("All calibration checks within {drift:.0}% drift.")
    } else {
        format!("DRIFT GATE FAILED: cost model out of calibration (> {drift:.0}% drift)")
    };
    let lines = fits.map(|(line, _)| line).concat();
    let heading = format!("== constant re-fits ({TABLE4_KEY_BITS}-bit anchors) ==");
    (format!("{heading}\n{lines}{verdict}\n"), ok)
}

/// One re-fit line, and whether `shipped` is within [`MAX_DRIFT`] of
/// `fitted`.
fn refit(name: &str, shipped: f64, fitted: f64, anchor: &str) -> (String, bool) {
    let drift = (shipped - fitted).abs() / fitted;
    let (ok, pct) = (drift <= MAX_DRIFT, drift * 100.0);
    let flag = if ok { "" } else { "  <-- FAILED" };
    let fit = format!("shipped {shipped:.3e} vs fitted {fitted:.3e}");
    (
        format!("  {name}: {fit} (drift {pct:.1}%, {anchor}){flag}\n"),
        ok,
    )
}

/// A table gate's text: heading, table, and its check's verdict.
fn gate_text(heading: String, table: &Table, (verdict, ok): (String, bool)) -> (String, bool) {
    (format!("{heading}\n\n{}\n{verdict}", table.render()), ok)
}

/// Key size of every `bench_aggregate` fold.
const TREE_KEY_BITS: u32 = 1024;
/// Edge-aggregator fan-in for the tree comparison.
const TREE_ARITY: usize = 16;
/// Distinct ciphertexts generated before tiling (bounds keygen-side
/// encryption work; aggregation cost does not depend on repetition).
const BASE_CTS: usize = 64;

/// One party count of `bench_aggregate`.
struct TreeRow {
    parties: usize,
    uplink_messages: u64,
    uplink_bytes: u64,
    uplink_sim_seconds: f64,
    flat_sim_he_seconds: f64,
    tree_sim_he_seconds: f64,
    identical: bool,
}

/// **Aggregation-topology gate**: a weighted fold through a flat server
/// against a [`TREE_ARITY`]-ary edge-aggregator tree, as full FLBooster
/// [`Accelerator`] rounds. Edge aggregators fold their fan-in on
/// simulated GPU devices (each slot charged the Bos–Coster chain it runs,
/// each launch its fix-up's `R`-power); partials ride up the tree with
/// per-hop wire charges from [`fl::NetworkConfig::message_seconds`]. Wall
/// clock for the same folds is flbench's `accel.aggregate_weighted_ms` /
/// `accel.aggregate_tree_ms`.
fn bench_aggregate(tier: &Tier) -> (String, bool) {
    let rows: Vec<TreeRow> = tier.tree_parties.iter().map(|&p| tree_row(p)).collect();
    let mut table = Table::new([
        "Parties",
        "Uplink msgs",
        "Uplink bytes",
        "Uplink sim s",
        "Flat HE sim s",
        "Tree HE sim s",
        "Identical",
    ]);
    for r in &rows {
        table.row([
            r.parties.to_string(),
            r.uplink_messages.to_string(),
            r.uplink_bytes.to_string(),
            format!("{:.4}", r.uplink_sim_seconds),
            format!("{:.4}", r.flat_sim_he_seconds),
            format!("{:.4}", r.tree_sim_he_seconds),
            r.identical.to_string(),
        ]);
    }
    let heading = format!(
        "Aggregation topology — {TREE_KEY_BITS}-bit keys, tree arity {TREE_ARITY}, parties {:?}",
        tier.tree_parties
    );
    gate_text(heading, &table, tree_gate(&rows))
}

/// `bench_aggregate`'s check: every tree result is the flat fold's.
fn tree_gate(rows: &[TreeRow]) -> (String, bool) {
    let mut out = String::new();
    for r in rows.iter().filter(|r| !r.identical) {
        let parties = r.parties;
        out += &format!("GATE FAILED: tree aggregate at {parties} parties diverged from flat\n");
    }
    let ok = out.is_empty();
    if ok {
        out += "gate ok: tree results bit-identical to flat\n";
    }
    (out, ok)
}

/// Flat and tree weighted folds of `parties` one-ciphertext uploads, tiled
/// from [`BASE_CTS`] distinct encryptions, under deterministic odd 32-bit
/// weights (quantized per-party sample counts).
fn tree_row(parties: usize) -> TreeRow {
    let keys = shared_keys(TREE_KEY_BITS);
    let mut rng = ChaCha8Rng::seed_from_u64(0xA6605 ^ parties as u64);
    let base: Vec<Ciphertext> = (0..BASE_CTS.min(parties))
        .map(|i| {
            let m = Natural::from(rng.next_u64());
            let r = keys.public.batch_blinding(0xA66, i);
            keys.public.encrypt_with_r(&m, &r).expect("encrypt")
        })
        .collect();
    let vectors: Vec<EncryptedVector> = (0..parties)
        .map(|i| EncryptedVector {
            cts: vec![base[i % base.len()].clone()],
            count: 1,
        })
        .collect();
    let ws: Vec<u64> = (0..parties as u64)
        .map(|k| (k.wrapping_mul(2_654_435_761) & 0xFFFF_FFFF) | 1)
        .collect();
    let topology = AggregationTopology::tree(TREE_ARITY);
    let [flat_acc, tree_acc] = [AggregationTopology::Flat, topology]
        .map(|t| backend(BackendKind::FlBooster, TREE_KEY_BITS, 4).with_topology(t));
    let flat = flat_acc.aggregate_weighted(&vectors, &ws).expect("flat");
    let tree = tree_acc.aggregate_weighted(&vectors, &ws).expect("tree");

    // Per-hop wire charges for the intermediate partial aggregates, each
    // priced at the root aggregate's size.
    let hop_seconds = tree_acc
        .network_profile()
        .message_seconds(tree.ciphertext_count(), tree.bytes());
    let hops = topology.uplink_messages(parties);
    let mut uplink_sim_seconds = 0.0;
    for _ in 0..hops {
        uplink_sim_seconds += hop_seconds;
    }
    TreeRow {
        parties,
        uplink_messages: hops,
        uplink_bytes: hops * tree.bytes(),
        uplink_sim_seconds,
        flat_sim_he_seconds: flat_acc.take_timing().he_seconds,
        tree_sim_he_seconds: tree_acc.take_timing().he_seconds,
        identical: tree == flat,
    }
}

/// Key size of every `bench_rounds` round.
const ROUND_KEY_BITS: u32 = 256;
/// Gradient components per client (packed to a couple of ciphertexts).
const VALUES_PER_CLIENT: usize = 8;
/// Local-compute flops per client per round.
const FLOPS_PER_CLIENT: u64 = 50_000;
/// NIC streams the pipelined configuration may overlap.
const DUPLEX_STREAMS: u32 = 4;
/// Modeled round-time reduction floor at 64+ clients.
const SPEEDUP_FLOOR: f64 = 1.5;
/// Compute heterogeneity profile tiled over the clients.
const MULTIPLIERS: [f64; 4] = [0.7, 1.0, 1.15, 1.3];

/// One client count of `bench_rounds`. The sequential round overlaps
/// nothing, so its elapsed seconds are also the work ("Work sim s").
struct RoundRow {
    clients: usize,
    sequential_seconds: f64,
    pipelined_seconds: f64,
    identical: bool,
}

/// **Round-engine gate**: one secure-aggregation round with real crypto
/// through [`run_round`], twice over the same parties and seeds:
/// `EngineConfig::sequential()` on a single-stream NIC, and
/// `EngineConfig::default()` on a [`DUPLEX_STREAMS`]-stream duplex NIC,
/// both with mild compute heterogeneity. Wall clock for the same rounds
/// is flbench's `round.engine_seq_ms` / `round.engine_pipelined_ms`.
fn bench_rounds(tier: &Tier) -> (String, bool) {
    let rows: Vec<RoundRow> = tier.round_clients.iter().map(|&c| round_row(c)).collect();
    let mut table = Table::new([
        "Clients",
        "Work sim s",
        "Sequential sim s",
        "Pipelined sim s",
        "Speedup",
        "Identical",
    ]);
    for r in &rows {
        table.row([
            r.clients.to_string(),
            format!("{:.4}", r.sequential_seconds),
            format!("{:.4}", r.sequential_seconds),
            format!("{:.4}", r.pipelined_seconds),
            format!("{:.2}x", r.sequential_seconds / r.pipelined_seconds),
            r.identical.to_string(),
        ]);
    }
    let heading = format!(
        "Round-engine pipelining — {ROUND_KEY_BITS}-bit keys, {VALUES_PER_CLIENT} values/client, \
         duplex {DUPLEX_STREAMS}, clients {:?}",
        tier.round_clients
    );
    gate_text(heading, &table, rounds_gate(&rows))
}

/// `bench_rounds`' two checks, at every client count: the pipelined
/// round's decrypted sums are the sequential round's, and its modeled
/// speedup (sequential over pipelined seconds) clears [`SPEEDUP_FLOOR`].
fn rounds_gate(rows: &[RoundRow]) -> (String, bool) {
    let mut out = String::new();
    for r in rows.iter().filter(|r| !r.identical) {
        let clients = r.clients;
        out +=
            &format!("GATE FAILED: pipelined sums diverged from sequential at {clients} clients\n");
    }
    let mut ok = out.is_empty();
    if ok {
        out += "gate ok: pipelined sums bit-identical to sequential at every client count\n";
    }
    for r in rows {
        let (x, clients) = (r.sequential_seconds / r.pipelined_seconds, r.clients);
        let fast = x >= SPEEDUP_FLOOR;
        let (verdict, cmp) = if fast {
            ("gate ok", ">=")
        } else {
            ("GATE FAILED", "< required")
        };
        out += &format!(
            "{verdict}: modeled speedup {x:.2}x at {clients} clients {cmp} {SPEEDUP_FLOOR}x\n"
        );
        ok &= fast;
    }
    if ok {
        out += "All round-engine gates passed.\n";
    }
    (out, ok)
}

/// The sequential and pipelined rounds over `clients` parties.
fn round_row(clients: usize) -> RoundRow {
    let grads: Vec<Vec<f64>> = (0..clients)
        .map(|k| {
            (0..VALUES_PER_CLIENT)
                .map(|i| ((k * VALUES_PER_CLIENT + i) as f64 * 0.173).sin() * 0.6)
                .collect()
        })
        .collect();
    let flops = vec![FLOPS_PER_CLIENT; clients];
    let parties = u32::try_from(clients).expect("the client sweep tops out at 1024");
    let round = |engine: EngineConfig, duplex: u32| {
        let accel = backend(BackendKind::FlBooster, ROUND_KEY_BITS, parties);
        let profile = accel.network_profile().with_duplex_streams(duplex);
        let env = FlEnv {
            network: Network::new(profile, 0x0E7),
            accel,
        };
        let engine = engine.with_compute_multipliers(MULTIPLIERS.to_vec());
        let (seed, mut b) = (0xB00 + clients as u64, EpochBreakdown::default());
        run_round(
            &env,
            &engine,
            &TrainConfig::default(),
            &grads,
            &flops,
            seed,
            &mut b,
        )
        .expect("round")
    };
    let seq = round(EngineConfig::sequential(), 1);
    let pipe = round(EngineConfig::default(), DUPLEX_STREAMS);
    RoundRow {
        clients,
        sequential_seconds: seq.round_seconds,
        pipelined_seconds: pipe.round_seconds,
        identical: pipe.sums == seq.sums,
    }
}

fn main() {
    let (flags, dirs): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let (true, [dir]) = (flags.iter().all(|f| f == "--quick"), dirs.as_slice()) else {
        eprintln!("usage: paper [--quick] OUT_DIR");
        std::process::exit(2);
    };
    let tier = if flags.is_empty() { &FULL } else { &QUICK };
    let mut matrix = Matrix::default();
    for (_, view) in &VIEWS {
        if let View::Matrix(render) = view {
            render(tier, &mut matrix);
        }
    }
    matrix.train();
    std::fs::create_dir_all(dir).expect("output directory");
    let mut failed = Vec::new();
    for (name, view) in &VIEWS {
        let text = match view {
            View::Matrix(render) => render(tier, &mut matrix),
            View::Alone(compute) => Some(compute()),
            View::Gate(check) => {
                let (text, ok) = check(tier);
                failed.extend((!ok).then_some(*name));
                Some(text)
            }
        };
        if let Some(text) = text {
            let path = std::path::Path::new(dir).join(format!("{name}.txt"));
            std::fs::write(&path, &text).expect("write view");
            println!("=== {} ===\n{text}", path.display());
        }
    }
    if !failed.is_empty() {
        eprintln!("paper: gates failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_row_at(parties: usize, identical: bool) -> TreeRow {
        TreeRow {
            parties,
            uplink_messages: 0,
            uplink_bytes: 0,
            uplink_sim_seconds: 0.0,
            flat_sim_he_seconds: 0.0,
            tree_sim_he_seconds: 0.0,
            identical,
        }
    }

    fn round_row_at(clients: usize, speedup: f64, identical: bool) -> RoundRow {
        RoundRow {
            clients,
            sequential_seconds: speedup,
            pipelined_seconds: 1.0,
            identical,
        }
    }

    #[test]
    fn a_tree_result_that_is_not_the_flat_one_fails_the_tree_gate() {
        let rows = [tree_row_at(1_000, true), tree_row_at(10_000, true)];
        assert_eq!(
            tree_gate(&rows),
            (
                "gate ok: tree results bit-identical to flat\n".to_string(),
                true
            )
        );
        let rows = [tree_row_at(1_000, true), tree_row_at(10_000, false)];
        assert_eq!(
            tree_gate(&rows),
            (
                "GATE FAILED: tree aggregate at 10000 parties diverged from flat\n".to_string(),
                false
            )
        );
    }

    #[test]
    fn a_slow_or_divergent_round_fails_the_rounds_gate() {
        let (text, ok) = rounds_gate(&[round_row_at(64, 1.5, true)]);
        assert!(ok, "{text}");
        assert!(text.ends_with("All round-engine gates passed.\n"));

        let (text, ok) = rounds_gate(&[round_row_at(64, 4.0, true), round_row_at(256, 1.49, true)]);
        assert!(!ok);
        assert!(text.contains("gate ok: modeled speedup 4.00x at 64 clients >= 1.5x\n"));
        assert!(
            text.contains("GATE FAILED: modeled speedup 1.49x at 256 clients < required 1.5x\n")
        );
        assert!(!text.contains("All round-engine gates passed."));

        let (text, ok) = rounds_gate(&[round_row_at(64, 4.0, true), round_row_at(256, 4.0, false)]);
        assert!(!ok);
        assert!(text
            .starts_with("GATE FAILED: pipelined sums diverged from sequential at 256 clients\n"));
        assert!(!text.contains("bit-identical"));
    }

    #[test]
    fn a_refit_past_the_drift_bound_fails() {
        assert!(refit("c", 1.099, 1.0, "anchor").1);
        assert!(refit("c", 0.901, 1.0, "anchor").1);
        for shipped in [1.101, 0.899] {
            let (line, ok) = refit("c", shipped, 1.0, "anchor");
            assert!(!ok);
            assert!(
                line.ends_with("(drift 10.1%, anchor)  <-- FAILED\n"),
                "{line}"
            );
        }
    }
}
