//! The names, units and directions of every metric the benchmark reports,
//! and the [`Report`] a run fills in. `BENCHMARK.json` lists the same names;
//! a unit test keeps the two in step.

use std::collections::BTreeMap;

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "exec-cv",
    "exec-rnn",
    "serve-batch",
    "edge-http",
    "plan-load",
];

/// The eight programs of the paper's evaluation.
pub const PROGRAMS: [&str; 8] = [
    "yolov3",
    "ssd",
    "yolact",
    "fcos",
    "nasrnn",
    "lstm",
    "seq2seq",
    "attention",
];

/// The crates whose size is tracked.
pub const CRATES: [&str; 15] = [
    "alias",
    "backend",
    "bench",
    "core",
    "frontend",
    "fusion",
    "ir",
    "lint",
    "net",
    "obs",
    "pipelines",
    "serve",
    "store",
    "tensor",
    "workloads",
];

/// Passes of the TensorSSA pipeline owned by `tssa-core` (`dce` is summed
/// over its three runs).
pub const CORE_PASSES: [&str; 8] = [
    "tensorssa-convert",
    "purify-views",
    "constant-fold",
    "cse",
    "licm",
    "dce",
    "prune-loop-carries",
    "revert-unfused-accesses",
];

/// Passes owned by `tssa-fusion`.
pub const FUSION_PASSES: [&str; 2] = ["fuse-vertical", "parallelize-loops"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline by which the metric may
    /// worsen before `compare` calls it a regression.
    pub bound: f64,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics the driver reads (`BENCHMARK.json` `end_to_end`):
/// every workload reports each of them and none is ever 0.
///
/// The bounds are as wide as the contract allows because the host is shared:
/// with no steal time reported, back-to-back runs of unchanged code move
/// between regimes up to 20 % apart in wall and CPU time alike (README,
/// "Noise floor"). A bound inside that floor would reject unchanged code.
/// Ratios taken inside one process (`speedup_vs_eager`) do not drift and
/// keep a tenth.
pub fn end_to_end() -> Vec<Def> {
    use Better::{Higher, Lower};
    let bounded = |name, unit, better| Def {
        bound: 0.25,
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower),
        bounded("throughput_ops_s", "ops/s", Higher),
        bounded("latency_p50_us", "us", Lower),
        bounded("cpu_ms_per_op", "ms", Lower),
        bounded("peak_rss_mb", "MiB", Lower),
    ]
}

/// End-to-end metrics the suite prints and `compare` bounds, but that the
/// driver's contract cannot carry: `speedup_vs_eager` exists on the two
/// exec workloads only, and `failed_share` is 0 when all is well.
pub fn end_to_end_suite_only() -> Vec<Def> {
    vec![
        Def {
            bound: 0.10,
            ..def("speedup_vs_eager", "ratio", Better::Higher)
        },
        // Any increase is a breach.
        def("failed_share", "share", Better::Lower),
    ]
}

/// Whether end-to-end metric `name` is reported by `workload`.
pub fn applies(name: &str, workload: &str) -> bool {
    name != "speedup_vs_eager" || workload.starts_with("exec-")
}

/// The programs an exec workload runs.
pub fn exec_programs(workload: &str) -> &'static [&'static str] {
    match workload {
        "exec-cv" => &PROGRAMS[..4],
        "exec-rnn" => &PROGRAMS[4..],
        _ => &[],
    }
}

/// Whether per-layer metric `name` is measured by `workload`: a layer's
/// metrics are reported where the layer does the work.
pub fn layer_applies(name: &str, workload: &str) -> bool {
    let layer = name.split('.').next().unwrap_or(name);
    match layer {
        "frontend" | "alias" | "core" | "fusion" | "lint" | "pipelines" | "store" => {
            workload == "plan-load"
        }
        "backend" => match name
            .strip_prefix("backend.exec_p50_us.")
            .or_else(|| name.strip_prefix("backend.eager_p50_us."))
        {
            Some(program) => exec_programs(workload).contains(&program),
            None => workload.starts_with("exec-"),
        },
        "tensor" => workload.starts_with("exec-"),
        "serve" if name.starts_with("serve.load_") => workload == "plan-load",
        "serve" => workload == "serve-batch",
        "net" => workload == "edge-http",
        "obs" if name == "obs.profile_overhead_ratio" => workload == "serve-batch",
        _ => true,
    }
}

/// The per-layer metrics (`BENCHMARK.json` `per_layer`), in report order.
/// A workload in which a layer does no work reports that layer's metrics
/// as 0.
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut d = vec![
        def("frontend.compile_p50_us", "us", Lower),
        def("frontend.ir_nodes", "count", Lower),
        def("alias.build_p50_us", "us", Lower),
    ];
    for pass in CORE_PASSES {
        d.push(def(format!("core.pass_us.{pass}"), "us", Lower));
    }
    d.extend([
        def("core.mutations_removed", "count", Higher),
        def("core.ir_nodes_after", "count", Lower),
    ]);
    for pass in FUSION_PASSES {
        d.push(def(format!("fusion.pass_us.{pass}"), "us", Lower));
    }
    d.extend([
        def("fusion.groups", "count", Lower),
        def("fusion.parallel_loops", "count", Higher),
        def("lint.certify_shapes_p50_us", "us", Lower),
        def("pipelines.compile_p50_us", "us", Lower),
        def("pipelines.compile_deep_p50_us", "us", Lower),
        def("pipelines.compile_scaling_exponent", "ratio", Lower),
    ]);
    for p in PROGRAMS {
        d.push(def(format!("backend.exec_p50_us.{p}"), "us", Lower));
    }
    for p in PROGRAMS {
        d.push(def(format!("backend.eager_p50_us.{p}"), "us", Lower));
    }
    d.extend([
        def("backend.speedup_vs_eager", "ratio", Higher),
        def("backend.fused_self_share", "share", Lower),
        def("backend.assign_self_share", "share", Lower),
        def("backend.control_self_share", "share", Lower),
        def("backend.observed_coverage", "share", Higher),
        def("backend.ops_executed_per_op", "count", Lower),
        def("backend.kernel_launches_per_op", "count", Lower),
        def("backend.sim_us_per_op", "us", Lower),
        def("backend.allocs_per_op", "count", Lower),
        def("backend.alloc_bytes_per_op", "bytes", Lower),
        def("tensor.unary_ns_per_elem", "ns/elem", Lower),
        def("tensor.bcast_binary_ns_per_elem", "ns/elem", Lower),
        def("tensor.slice_copy_ns_per_elem", "ns/elem", Lower),
        def("tensor.matmul_ns_per_flop", "ns/flop", Lower),
        def("store.encode_p50_us", "us", Lower),
        def("store.decode_p50_us", "us", Lower),
        def("store.plan_bytes", "bytes", Lower),
        def("store.save_blocking_p50_us", "us", Lower),
        def("store.load_p50_us", "us", Lower),
        def("serve.load_cold_p50_us", "us", Lower),
        def("serve.load_disk_p50_us", "us", Lower),
        def("serve.load_hit_p50_us", "us", Lower),
        def("serve.load_overhead_p50_us", "us", Lower),
        def("serve.load_cold_coverage", "share", Higher),
        def("serve.submit_call_p50_us", "us", Lower),
        def("serve.queue_span_p50_us", "us", Lower),
        def("serve.batch_span_p50_us", "us", Lower),
        def("serve.exec_span_p50_us", "us", Lower),
        def("serve.overhead_p50_us", "us", Lower),
        def("serve.batch_occupancy_avg", "ratio", Higher),
        def("serve.batches_per_op", "ratio", Lower),
        def("serve.class_hits", "count", Higher),
        def("serve.cache_misses", "count", Lower),
        def("serve.shed_total", "count", Lower),
        def("serve.prometheus_render_p50_us", "us", Lower),
        def("net.parse_json_p50_us", "us", Lower),
        def("net.parse_binary_p50_us", "us", Lower),
        def("net.encode_response_json_p50_us", "us", Lower),
        def("net.encode_response_binary_p50_us", "us", Lower),
        def("net.http_read_request_p50_us", "us", Lower),
        def("net.http_write_response_p50_us", "us", Lower),
        def("net.rtt_json_p50_us", "us", Lower),
        def("net.rtt_binary_p50_us", "us", Lower),
        def("net.edge_overhead_p50_us", "us", Lower),
        def("net.unattributed_p50_us", "us", Lower),
        def("net.slow_rtt_share", "share", Lower),
        def("net.request_bytes_per_op", "bytes", Lower),
        def("net.response_bytes_per_op", "bytes", Lower),
        def("net.metrics_scrape_p50_us", "us", Lower),
        def("obs.trace_overhead_ratio", "ratio", Lower),
        def("obs.profile_overhead_ratio", "ratio", Lower),
        def("obs.span_record_ns", "ns", Lower),
        def("obs.spans_recorded", "count", Lower),
        def("obs.spans_dropped", "count", Lower),
        def("client.latency_tail_us", "us", Lower),
        def("client.tail_percentile", "pct", Higher),
        def("client.samples", "count", Higher),
        def("client.verify_checked", "count", Higher),
    ]);
    for c in CRATES {
        d.push(def(format!("size.loc.{c}"), "count", Lower));
    }
    d.extend([
        def("size.loc_total", "count", Lower),
        def("size.pub_items_total", "count", Lower),
    ]);
    d
}

/// The metrics one run of one workload measured, by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Record `name`. A metric is measured in one place: setting it twice is
    /// a bug in the harness. Non-finite readings are recorded as 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        let previous = self.values.insert(name.clone(), value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names recorded that `defs` does not define.
    pub fn undefined<'a>(&'a self, defs: &[Def]) -> Vec<&'a str> {
        self.values
            .keys()
            .filter(|k| !defs.iter().any(|d| d.name == **k))
            .map(String::as_str)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tssa_obs::json::{self, JsonValue};

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    fn check(listed: &JsonValue, defs: &[Def], bounded: bool) {
        let listed = listed.as_array().expect("array");
        assert_eq!(listed.len(), defs.len());
        for (entry, d) in listed.iter().zip(defs) {
            assert_eq!(field(entry, "name").as_str(), Some(d.name.as_str()));
            assert_eq!(field(entry, "unit").as_str(), Some(d.unit), "{}", d.name);
            assert_eq!(
                field(entry, "better").as_str(),
                Some(d.better.as_str()),
                "{}",
                d.name
            );
            if bounded {
                assert_eq!(field(entry, "bound").as_f64(), Some(d.bound), "{}", d.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = json::parse(&text).expect("BENCHMARK.json parses");
        check(field(&spec, "end_to_end"), &end_to_end(), true);
        check(field(&spec, "per_layer"), &per_layer(), false);
        let names: Vec<&str> = field(&spec, "workloads")
            .as_array()
            .expect("array")
            .iter()
            .map(|w| field(w, "name").as_str().expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn names_fit_the_contract() {
        let all: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        assert!(per_layer().len() <= 128);
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(
                all[..i].iter().all(|o| o.name != d.name),
                "{} twice",
                d.name
            );
        }
    }

    #[test]
    fn every_layer_metric_has_a_home() {
        for d in per_layer() {
            let homes = WORKLOADS
                .iter()
                .filter(|w| layer_applies(&d.name, w))
                .count();
            assert!(homes >= 1, "{} is measured nowhere", d.name);
        }
        assert!(layer_applies("backend.exec_p50_us.lstm", "exec-rnn"));
        assert!(!layer_applies("backend.exec_p50_us.lstm", "exec-cv"));
        assert!(!layer_applies("serve.load_cold_p50_us", "serve-batch"));
        assert!(layer_applies("size.loc_total", "edge-http"));
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn report_rejects_a_second_value() {
        let mut r = Report::default();
        r.set("a", 1.0);
        r.set("a", 2.0);
    }

    #[test]
    fn report_flags_undefined_names_and_zeroes_nan() {
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        r.set("nope", 1.0);
        assert_eq!(r.get("setup_s"), Some(0.0));
        assert_eq!(r.undefined(&end_to_end()), vec!["nope"]);
    }
}
