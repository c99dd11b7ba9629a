//! One run of one workload in one mode, in this process: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` invokes.
//!
//! Untraced (`--trace 0`): set up (several times, for a steady `setup_s`),
//! run the closed loop for `S` seconds with tracing off, report the
//! end-to-end metrics.
//!
//! Traced (`--trace 1`): run the loop untraced for a quarter of `S`, then
//! traced for half of it, and spend the rest on layer probes; report the
//! per-layer metrics and write the Chrome trace. The ratio of the two
//! phases' throughput is the tracing overhead.

use std::path::Path;
use std::time::Instant;

use tssa_obs::Tracer;

use crate::cells::Tally;
use crate::metrics::{self, Def, Report};
use crate::stats::{geomean, geomean_of_medians, median};
use crate::trace::{write_chrome_trace, RING_CAPACITY};
use crate::workloads::{self, Ctx, Phases, Samples, Workload};
use crate::{layers, procfs, Options};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Shares of `--seconds` the traced run gives its untraced and traced
/// phases; the rest is for probes.
const UNTRACED_SHARE: f64 = 0.25;
const TRACED_SHARE: f64 = 0.5;

fn setup(name: &str, ctx: &Ctx) -> Box<dyn Workload> {
    workloads::setup(name, ctx).expect("workload names are checked when parsed")
}

/// The context of an untraced set-up, or of a traced one recording into
/// `tracer`.
fn ctx(o: &Options, tracer: Option<Tracer>) -> Ctx {
    Ctx {
        seed: o.seed,
        traced: tracer.is_some(),
        tracer: tracer.unwrap_or_else(Tracer::disabled),
        scratch: o.out.join("tmp"),
    }
}

/// Geomean over cells of Eager p50 ÷ TensorSSA p50; `None` off `exec-*`.
fn speedup_vs_eager(samples: &Samples) -> Option<f64> {
    let ratios: Vec<f64> = samples
        .lat_us
        .iter()
        .zip(&samples.eager_us)
        .filter(|(tssa, eager)| !tssa.is_empty() && !eager.is_empty())
        .map(|(tssa, eager)| median(eager) / median(tssa))
        .collect();
    (!ratios.is_empty()).then(|| geomean(&ratios))
}

fn untraced(name: &str, o: &Options, report: &mut Report) -> Tally {
    let ctx = ctx(o, None);
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..if o.smoke { 1 } else { SETUP_REPEATS } {
        if let Some(previous) = workload.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        workload = Some(setup(name, &ctx));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let cpu_before = procfs::cpu_seconds();
    let samples = workload.run(o.seconds);
    let phase_cpu_s = procfs::cpu_seconds() - cpu_before;
    workload.shutdown();

    let completed = samples.completed() as f64;
    report.set("setup_s", median(&setup_s));
    report.set("throughput_ops_s", samples.throughput_ops_s());
    report.set("latency_p50_us", geomean_of_medians(&samples.lat_us));
    report.set(
        "cpu_ms_per_op",
        samples.op_cpu_s.unwrap_or(phase_cpu_s) * 1e3 / completed,
    );
    report.set("peak_rss_mb", procfs::peak_rss_mib());
    if let Some(speedup) = speedup_vs_eager(&samples) {
        report.set("speedup_vs_eager", speedup);
    }
    report.set(
        "failed_share",
        samples.tally.failed as f64 / samples.tally.attempted.max(1) as f64,
    );
    samples.tally
}

fn traced(name: &str, o: &Options, report: &mut Report) -> Result<Tally, String> {
    let mut plain = setup(name, &ctx(o, None));
    let before = plain.run(o.seconds * UNTRACED_SHARE);
    plain.shutdown();

    let (tracer, sink) = Tracer::ring(RING_CAPACITY);
    let mut workload = setup(name, &ctx(o, Some(tracer)));
    // Warm-up spans are not part of the trace.
    sink.drain();
    let during = workload.run(o.seconds * TRACED_SHARE);
    let mut spans = sink.snapshot();
    let unjoined = workload.join_spans(&mut spans);

    workload.layers(
        &Phases {
            untraced: &before,
            traced: &during,
            spans: &spans,
            probe_seconds: o.seconds * (1.0 - UNTRACED_SHARE - TRACED_SHARE),
        },
        report,
    );
    workload.shutdown();
    if let Some(speedup) = speedup_vs_eager(&before) {
        report.set("backend.speedup_vs_eager", speedup);
    }
    report.set(
        "obs.trace_overhead_ratio",
        before.throughput_ops_s() / during.throughput_ops_s(),
    );
    report.set("obs.span_record_ns", layers::span_record_ns());
    report.set("obs.spans_recorded", spans.len() as f64);
    report.set("obs.spans_dropped", sink.dropped() as f64);
    layers::client(&during, report);
    layers::size(Path::new("."), report);

    let path = o.out.join(format!("trace-{name}.json"));
    write_chrome_trace(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{name}: {} spans ({unjoined} service roots unjoined) -> {}",
        spans.len(),
        path.display()
    );
    let mut tally = before.tally;
    tally.merge(&during.tally);
    Ok(tally)
}

/// The last line of a run: the driver's result object, holding exactly the
/// metrics `defs` names (a layer that did no work in this workload reads 0).
fn result_json(defs: &[Def], report: &Report, tally: &Tally) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                report.get(&d.name).unwrap_or(0.0),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        // Set-up has already checked every warm-up response (and panics on a
        // mismatch), so a short phase that reached no 64th op is still checked.
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}

/// Run one workload in one mode and print its metrics, one
/// `workload metric unit value` line each, then the result object.
pub fn run(o: &Options) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".into());
    }
    let name = o.workload.as_deref().ok_or("run needs --workload")?;
    let mut report = Report::default();
    let (tally, contract, printed) = if o.traced {
        let tally = traced(name, o, &mut report)?;
        (tally, metrics::per_layer(), metrics::per_layer())
    } else {
        let tally = untraced(name, o, &mut report);
        let mut printed = metrics::end_to_end();
        printed.extend(metrics::end_to_end_suite_only());
        (tally, metrics::end_to_end(), printed)
    };
    let undefined = report.undefined(&printed);
    assert!(undefined.is_empty(), "undefined metrics: {undefined:?}");
    for d in &printed {
        let applies = if o.traced {
            metrics::layer_applies(&d.name, name)
        } else {
            metrics::applies(&d.name, name)
        };
        assert_eq!(
            report.get(&d.name).is_some(),
            applies,
            "{name}: {} measured where it does not apply, or the reverse",
            d.name
        );
    }
    for d in &printed {
        if let Some(value) = report.get(&d.name) {
            println!("{name} {} {} {value}", d.name, d.unit);
        }
    }
    // A run that printed its result has done its job: failed ops are the
    // reader's to judge, from `failed` and `correct`.
    println!("{}", result_json(&contract, &report, &tally));
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_a_geomean_of_per_cell_ratios() {
        let mut s = Samples::new(2);
        assert_eq!(speedup_vs_eager(&s), None);
        s.lat_us = vec![vec![10.0, 10.0, 12.0], vec![5.0]];
        s.eager_us = vec![vec![20.0, 20.0, 1.0], vec![20.0]];
        // cell a: 20/10 = 2, cell b: 20/5 = 4.
        assert!((speedup_vs_eager(&s).unwrap() - 8.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn result_object_holds_every_contract_metric() {
        let mut report = Report::default();
        report.set("setup_s", 0.5);
        let tally = Tally {
            attempted: 10,
            ..Tally::default()
        };
        let line = result_json(&metrics::end_to_end(), &report, &tally);
        let parsed = tssa_obs::json::parse(&line).expect("valid JSON");
        let m = parsed.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(0.5)
        );
        assert_eq!(
            m.get("peak_rss_mb").unwrap().get("unit").unwrap().as_str(),
            Some("MiB")
        );
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(10.0));
        assert!(line.starts_with("{\"correct\": true"));
    }
}
