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
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin paper -- [--quick] OUT_DIR
//! ```

use codec::QuantizerConfig;
use fl::metrics::{convergence_bias, EpochBreakdown, EpochResult, TrainReport};
use fl::train::{train, FlEnv, TrainConfig};
use fl::{Accelerator, BackendKind};
use flbooster_bench::table::{pct, secs, speedup, Table};
use flbooster_bench::{
    backend, bench_dataset, harness_train_config, quick_tier, shared_keys, DatasetKind, ModelKind,
    Preset, PARTICIPANTS,
};
use flbooster_core::analysis;
use gpu_sim::resource::ResourceManager;
use gpu_sim::{Device, DeviceConfig, ItemOutcome};
use he::ghe::DEFAULT_CPU_SECONDS_PER_OP;
use he::GpuHe;
use DatasetKind::{Rcv1, Synthetic};
use ModelKind::{HeteroNn, HeteroSbt, HomoLr};

/// Every file this binary writes, in the order the harness used to run
/// them, and the view that renders it. A view returns `None` when its
/// tier does not write it.
const VIEWS: [(&str, View); 11] = [
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
};

/// The key sizes the paper sweeps (Fig. 6, Fig. 7).
const PAPER_KEYS: [u32; 3] = [1024, 2048, 4096];

/// How a view gets its text.
enum View {
    /// Rendered from trained cells.
    Matrix(fn(&Tier, &mut Matrix) -> Option<String>),
    /// Computed without training.
    Alone(fn() -> String),
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
            let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).sin() * 0.9).collect();
            let [fate, haflo, flbooster] = BackendKind::headline().map(|kind| {
                let acc = backend(kind, 1024, PARTICIPANTS);
                let enc = acc.encrypt(&values, 7).expect("encrypt");
                let agg = acc.aggregate(&[enc.clone(), enc]).expect("aggregate");
                let _ = acc.decrypt_sum(&agg, 2).expect("decrypt");
                let measured = 2.0 * n as f64 / acc.timing().he_seconds;
                format!("{measured:.0} / {:.0}", saturated_throughput(kind, 1024))
            });
            table.row([
                dataset.name().to_string(),
                model.name().to_string(),
                "1024".to_string(),
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

/// Eq.-10-style saturated throughput: one encrypt, one homomorphic add
/// and one decrypt per instance, `1e6` instances in flight.
fn saturated_throughput(kind: BackendKind, key_bits: u32) -> f64 {
    let keys = shared_keys(key_bits);
    let ops_per_item = keys.public.encrypt_op_estimate()
        + keys.public.add_op_estimate()
        + keys.private.decrypt_op_estimate();
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

fn main() {
    let (quick, args) = quick_tier(1, "paper [--quick] OUT_DIR");
    let dir = &args[0];
    let tier = if quick { &QUICK } else { &FULL };
    let mut matrix = Matrix::default();
    for (_, view) in &VIEWS {
        if let View::Matrix(render) = view {
            render(tier, &mut matrix);
        }
    }
    matrix.train();
    std::fs::create_dir_all(dir).expect("output directory");
    for (name, view) in &VIEWS {
        let text = match view {
            View::Matrix(render) => render(tier, &mut matrix),
            View::Alone(compute) => Some(compute()),
        };
        if let Some(text) = text {
            let path = std::path::Path::new(dir).join(format!("{name}.txt"));
            std::fs::write(&path, &text).expect("write view");
            println!("=== {} ===\n{text}", path.display());
        }
    }
}
