//! The metric tables: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` carries the same lists (a test holds
//! them together); README.md gives each metric's layer, meaning and the
//! end-to-end metric it should move.

use std::collections::BTreeMap;

use crate::api::Res;
use crate::json;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees. Reported by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("epoch_wall_ms", "ms"),
    lower("epoch_sim_s", "sim_s"),
    lower("epoch_wire_bytes", "bytes"),
    lower("train_loss", "loss"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers. Reported by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // mpint
    lower("mpint.mont_mul_ns", "ns"),
    lower("mpint.mont_sqr_ns", "ns"),
    lower("mpint.mod_pow_public_ms", "ms"),
    lower("mpint.mod_pow_ct_ms", "ms"),
    lower("mpint.multi_exp_ms", "ms"),
    lower("mpint.ns_per_limb_mult", "ns"),
    // he::paillier
    lower("he.obfuscator_ms", "ms"),
    lower("he.encrypt_ms", "ms"),
    lower("he.encrypt_pooled_us", "us"),
    lower("he.add_us", "us"),
    lower("he.weighted_sum_ms", "ms"),
    lower("he.scalar_mul_us", "us"),
    lower("he.decrypt_ms", "ms"),
    lower("he.decrypt_crt_ms", "ms"),
    lower("he.pool_prefill_ms_per_item", "ms"),
    higher("he.pool_hit_ratio", "ratio"),
    // he::ghe, gpu-sim, rayon shim
    lower("ghe.encrypt_batch_ms_per_item", "ms"),
    lower("ghe.decrypt_batch_ms_per_item", "ms"),
    lower("ghe.add_batch_us_per_item", "us"),
    lower("ghe.fold_groups_us_per_add", "us"),
    lower("gpusim.launch_us", "us"),
    higher("gpusim.sm_utilization", "ratio"),
    lower("pool.dispatch_us_per_task", "us"),
    higher("pool.speedup", "ratio"),
    // codec
    lower("codec.pack_ns_per_value", "ns"),
    lower("codec.unpack_ns_per_value", "ns"),
    higher("codec.slots_per_word", "count"),
    higher("codec.compression_ratio", "ratio"),
    // fl::backend
    lower("accel.encrypt_ms_per_word", "ms"),
    lower("accel.decrypt_ms_per_word", "ms"),
    lower("accel.aggregate_us_per_add", "us"),
    lower("accel.aggregate_weighted_ms", "ms"),
    lower("accel.aggregate_tree_ms", "ms"),
    lower("accel.self_share", "ratio"),
    // fl::net
    lower("net.messages", "count"),
    lower("net.ciphertexts", "count"),
    lower("net.comm_sim_s", "sim_s"),
    // fl::engine
    lower("round.engine_seq_ms", "ms"),
    lower("round.engine_pipelined_ms", "ms"),
    lower("round.replay_ms", "ms"),
    higher("engine.overlap_speedup", "ratio"),
    // epoch
    lower("phase.compute_sim_s", "sim_s"),
    lower("phase.encrypt_sim_s", "sim_s"),
    lower("phase.uplink_sim_s", "sim_s"),
    lower("phase.aggregate_sim_s", "sim_s"),
    lower("phase.downlink_sim_s", "sim_s"),
    lower("phase.decrypt_sim_s", "sim_s"),
    lower("epoch.he_values", "count"),
    lower("epoch.ciphertexts", "count"),
    lower("epoch.wall_ms_p50", "ms"),
    lower("epoch.wall_ms_p90", "ms"),
    higher("epoch.samples", "count"),
    higher("epoch.explained_share", "ratio"),
    higher("epoch.sim_over_wall", "ratio"),
    lower("trace.overhead_pct", "%"),
    lower("host.spin_ns", "ns"),
    lower("host.slowdown", "ratio"),
    higher("host.pool_threads", "count"),
    higher("host.nproc", "count"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The values for exactly the metrics in `defs`, in table order. A
    /// metric that was never measured, or is not a finite number, is an
    /// error: the run must not look complete.
    pub fn ordered(&self, defs: &'static [MetricDef]) -> Res<Vec<(&'static MetricDef, f64)>> {
        defs.iter()
            .map(|d| match self.values.get(d.name) {
                Some(v) if v.is_finite() => Ok((d, *v)),
                Some(v) => Err(format!("metric {} is not finite: {v}", d.name)),
                None => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn metrics_json(values: &[(&MetricDef, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::escape(d.name),
                json::number(*v),
                json::escape(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above list the same metrics, in the
    /// same order, with the same units and directions.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_binary_reports() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better),
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let plan = crate::workloads::Plan::load().unwrap();
        let shapes: Vec<&str> = plan.shapes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(workloads, shapes);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_report_with_a_missing_or_non_finite_metric_is_refused() {
        let mut r = Report::default();
        assert!(r.ordered(END_TO_END).is_err());
        for d in END_TO_END {
            r.set(d.name, 1.5);
        }
        let ordered = r.ordered(END_TO_END).unwrap();
        assert_eq!(ordered.len(), END_TO_END.len());
        let text = metrics_json(&ordered);
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("setup_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        r.set("train_loss", f64::NAN);
        assert!(r.ordered(END_TO_END).is_err());
    }
}
