//! `metrics_snapshot` — end-to-end observability snapshot, written to
//! `BENCH_obs.json` plus a flamegraph-style `trace.txt`.
//!
//! Requires the `obs` feature (the bin is skipped by plain builds). Trains a
//! fast Anole system, runs the online engine over held-out frames, then
//! exports the full metrics registry: counters/gauges for every OSP stage
//! (scene model, TCM, ASS, TDM), the trainer, the slot cache, the fault
//! machinery, and the engine's latency/fallback histograms, together with
//! the hierarchical span trace. The serving loop also drives a
//! [`SeriesRecorder`] window capture every `WINDOW_FRAMES` frames and feeds
//! an [`SloEngine`], so the artifact includes windowed rates/quantiles and
//! any burn-rate alerts, plus a flight-recorder overhead row backing the
//! "strictly passive" claim with a number: `OVERHEAD_PAIRS` alternating
//! off/on pairs of fresh, warmed engines over the same frames, timed after
//! the registry snapshot and the trace are taken, reported as each arm's
//! median wall-clock ns/frame and the median per-pair delta with its
//! quartiles.
//!
//! Usage:
//!
//! ```text
//! metrics_snapshot [--out PATH] [--trace PATH] [--frames N] [--prometheus]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use anole_bench::host::host_json;
use anole_core::omi::Telemetry;
use anole_core::{AnoleConfig, AnoleSystem};
use anole_data::{DatasetConfig, DrivingDataset};
use anole_device::DeviceKind;
use anole_json::{ToJson, Value};
use anole_obs::{SeriesRecorder, SloEngine, SloSpec};
use anole_tensor::Seed;

/// Serving frames per captured time-series window.
const WINDOW_FRAMES: usize = 20;

/// Ring capacity (windows) of the bench recorder.
const SERIES_WINDOWS: usize = 32;

/// Flight-recorder ring size for the overhead measurement.
const FLIGHT_FRAMES: usize = 64;

/// Off/on pairs timed for the flight-recorder overhead row.
const OVERHEAD_PAIRS: usize = 21;

/// Nearest-rank `q` quantile of `values`: the smallest sample with at least
/// `q` of the samples at or below it.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Wall-clock nanoseconds per frame for one engine pass over `frames`
/// held-out frames, with the per-session flight recorder armed or not.
fn ns_per_frame(
    system: &AnoleSystem,
    dataset: &DrivingDataset,
    frames: usize,
    recorder: bool,
) -> f64 {
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(4));
    if recorder {
        engine = engine.with_flight_recorder(FLIGHT_FRAMES);
    }
    engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
    let split = dataset.split();
    let start = Instant::now();
    for &r in split.test.iter().cycle().take(frames.max(1)) {
        engine.step(&dataset.frame(r).features).expect("step");
    }
    start.elapsed().as_nanos() as f64 / frames.max(1) as f64
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_obs.json");
    let mut trace_path = String::from("trace.txt");
    let mut frames = 200usize;
    let mut prometheus = false;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => match iter.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match iter.next() {
                Some(p) => trace_path = p,
                None => {
                    eprintln!("error: --trace needs a path");
                    return ExitCode::FAILURE;
                }
            },
            "--frames" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => frames = n,
                None => {
                    eprintln!("error: --frames needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--prometheus" => prometheus = true,
            "--help" | "-h" => {
                println!("metrics_snapshot [--out PATH] [--trace PATH] [--frames N] [--prometheus]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    // OSP: every training stage records its spans, counters, and
    // duration/rate gauges as a side effect.
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(2)).expect("training");

    // OMI: run the engine over held-out frames so the cache, fallback, and
    // latency metrics are live. Every WINDOW_FRAMES frames one time-series
    // window is captured from the registry and the SLO engine re-evaluated.
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(3));
    engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
    let split = dataset.split();
    let mut telemetry = Telemetry::new();
    let mut series = SeriesRecorder::new(SERIES_WINDOWS);
    let mut slo = SloEngine::new(vec![
        SloSpec::quantile("engine-step-latency", "omi.step.latency_ms", 0.99, 250.0)
            .with_slow_windows(8),
        SloSpec::error_ratio("engine-load-retries", "omi.load.retries", "omi.load.attempts", 0.25)
            .with_slow_windows(8),
    ]);
    for (i, &r) in split.test.iter().cycle().take(frames).enumerate() {
        let frame = dataset.frame(r);
        let outcome = engine.step(&frame.features).expect("step");
        telemetry.record(&outcome, Some(&frame.truth));
        if (i + 1) % WINDOW_FRAMES == 0 {
            anole_obs::capture_series(&mut series);
            slo.evaluate(&series);
        }
    }
    anole_obs::capture_series(&mut series);
    slo.evaluate(&series);

    let snapshot = anole_obs::snapshot();
    let metric_names = snapshot.metric_names();
    eprintln!(
        "[metrics_snapshot] {} distinct metrics, {} spans (dropped events: {})",
        metric_names.len(),
        snapshot.spans.len(),
        snapshot.dropped_span_events
    );
    // The exports are taken before the overhead pairs step more engines.
    let trace = anole_obs::render_trace();
    let exposition = prometheus.then(anole_obs::to_prometheus);

    // Flight-recorder overhead: the ring copy in `finish_step` is the whole
    // cost. Both arms of a pair serve identical frames through fresh warmed
    // engines, and the arm timed first alternates pair by pair, so a drift
    // in host speed lands on both arms alike.
    let mut off_ns = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut on_ns = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let on_first = pair % 2 == 1;
        for recorder in [on_first, !on_first] {
            let arm = if recorder { &mut on_ns } else { &mut off_ns };
            arm.push(ns_per_frame(&system, &dataset, frames, recorder));
        }
    }
    let deltas: Vec<f64> = on_ns
        .iter()
        .zip(&off_ns)
        .map(|(on, off)| on - off)
        .collect();
    let delta = [0.25, 0.5, 0.75].map(|q| quantile(&deltas, q));
    eprintln!(
        "[metrics_snapshot] flight recorder over {OVERHEAD_PAIRS} pairs: {:.0} ns/frame off, \
         {:.0} ns/frame on, per-pair delta {:+.0} ns (quartiles {:+.0} to {:+.0})",
        quantile(&off_ns, 0.5),
        quantile(&on_ns, 0.5),
        delta[1],
        delta[0],
        delta[2],
    );

    let timeseries = Value::object(vec![
        ("window_frames", WINDOW_FRAMES.to_json()),
        ("windows_retained", series.windows().to_json()),
        ("windows_total", series.total_windows().to_json()),
        ("metric_series", series.metric_names().len().to_json()),
        ("step_frames_delta", series.delta("omi.step.frames", SERIES_WINDOWS).to_json()),
        ("step_frames_per_window", series.rate("omi.step.frames", SERIES_WINDOWS).to_json()),
        (
            "step_latency_p50_ms",
            series.quantile_over("omi.step.latency_ms", SERIES_WINDOWS, 0.5).to_json(),
        ),
        (
            "step_latency_p99_ms",
            series.quantile_over("omi.step.latency_ms", SERIES_WINDOWS, 0.99).to_json(),
        ),
    ]);
    let slo = Value::object(vec![
        ("specs", slo.specs().to_json()),
        ("alerts", slo.alerts().to_json()),
        ("pages", slo.pages().to_json()),
        ("warns", slo.warns().to_json()),
    ]);
    let overhead = Value::object(vec![
        ("recorder_capacity", FLIGHT_FRAMES.to_json()),
        ("frames_timed", frames.to_json()),
        ("pairs", OVERHEAD_PAIRS.to_json()),
        ("off_ns_per_frame_median", quantile(&off_ns, 0.5).to_json()),
        ("on_ns_per_frame_median", quantile(&on_ns, 0.5).to_json()),
        ("delta_ns_per_frame_median", delta[1].to_json()),
        ("delta_ns_per_frame_p25", delta[0].to_json()),
        ("delta_ns_per_frame_p75", delta[2].to_json()),
    ]);
    let names = metric_names.iter().map(|n| Value::String(n.to_string())).collect();
    let report = Value::object(vec![
        ("schema", Value::String("anole-obs-snapshot/5".into())),
        ("host", host_json()),
        ("frames", frames.to_json()),
        ("metric_names", Value::Array(names)),
        ("engine_summary", telemetry.summary().to_json()),
        ("timeseries", timeseries),
        ("slo", slo),
        ("flight_recorder_overhead", overhead),
        // `MetricsSnapshot::to_json` is the text export; this is the tree.
        ("snapshot", ToJson::to_json(&snapshot)),
    ]);
    let pretty = anole_json::to_string_pretty(&report);
    if let Err(e) = std::fs::write(&out_path, pretty + "\n") {
        eprintln!("error: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[metrics_snapshot] wrote {out_path}");
    if let Err(e) = std::fs::write(&trace_path, trace) {
        eprintln!("error: writing {trace_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[metrics_snapshot] wrote {trace_path}");
    if let Some(exposition) = exposition {
        print!("{exposition}");
    }
    ExitCode::SUCCESS
}
