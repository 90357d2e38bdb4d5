//! `gateway_snapshot` — fleet-gateway throughput benchmark, written to
//! `BENCH_gateway.json`.
//!
//! Trains a fast Anole system, then drives the serving gateway at each
//! requested fleet scale (default 1k and 10k sessions), once clean and once
//! under the full four-kind gateway chaos plan. Each tier runs five times,
//! each on a fresh gateway; it reports the median, minimum and maximum wall
//! time, sessions/sec and frames/sec at the median, and the gateway's own
//! virtual-time step-latency quantiles (p50/p95/p99) and shedding/batching
//! counters. A repetition whose report differs from the first fails the run.
//!
//! Usage:
//!
//! ```text
//! gateway_snapshot [--out PATH] [--scales N,N,...] [--frames N] [--seed S] [--soak]
//! ```
//!
//! `--soak` appends a 100 000-session tier to the scale list; with the
//! ready-queue index the run loop stays O(live sessions) per window, so the
//! tier finishes in minutes instead of hours.

use std::process::ExitCode;
use std::time::Instant;

use anole_bench::host::host_json;
use anole_core::gateway::{Gateway, GatewayConfig, GatewayReport, SessionSpec};
use anole_core::omi::FaultPlan;
use anole_core::{AnoleConfig, AnoleSystem};
use anole_data::{DrivingDataset, Frame};
use anole_json::{ToJson, Value};
use anole_tensor::{split_seed, Seed};

/// Timed repetitions of each tier.
const REPS: usize = 5;

fn session_frames(dataset: &DrivingDataset, session: usize, n: usize) -> Vec<Frame> {
    let split = dataset.split();
    (0..n)
        .map(|k| dataset.frame(split.test[(session * 13 + k) % split.test.len()]).clone())
        .collect()
}

fn run_tier(
    system: &AnoleSystem,
    dataset: &DrivingDataset,
    sessions: usize,
    frames_each: usize,
    seed: u64,
    chaos: bool,
) -> (GatewayReport, f64) {
    let config = GatewayConfig {
        max_sessions: sessions,
        deadline_ms: 200.0,
        slow_factor: 6.0,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(system, config).expect("gateway config");
    if chaos {
        gateway = gateway.with_fault_plan(
            FaultPlan::new(Seed(seed))
                .with_queue_overflow_rate(0.02)
                .with_slow_consumer_rate(0.15)
                .with_session_stall_rate(0.05)
                .with_scheduler_hiccup_rate(0.3),
        );
    }
    for i in 0..sessions {
        gateway
            .admit(SessionSpec::new(
                session_frames(dataset, i, frames_each),
                split_seed(Seed(seed), 40_000 + i as u64),
            ))
            .expect("admit");
    }
    let start = Instant::now();
    let report = gateway.run();
    (report, start.elapsed().as_secs_f64())
}

/// One tier's row; `walls` holds the repetitions' wall times, sorted.
fn tier_row(
    report: &GatewayReport,
    sessions: usize,
    frames_each: usize,
    chaos: bool,
    walls: &[f64],
) -> Value {
    let wall_s = walls[walls.len() / 2];
    Value::object(vec![
        ("sessions", sessions.to_json()),
        ("frames_per_session", frames_each.to_json()),
        ("chaos", chaos.to_json()),
        ("wall_seconds", wall_s.to_json()),
        ("wall_seconds_min", walls[0].to_json()),
        ("wall_seconds_max", walls[walls.len() - 1].to_json()),
        ("sessions_per_sec", (sessions as f64 / wall_s.max(1e-9)).to_json()),
        ("frames_per_sec", (report.frames_processed as f64 / wall_s.max(1e-9)).to_json()),
        ("step_latency_p50_ms", report.step_latency_p50_ms.to_json()),
        ("step_latency_p95_ms", report.step_latency_p95_ms.to_json()),
        ("step_latency_p99_ms", report.step_latency_p99_ms.to_json()),
        ("windows", report.windows.to_json()),
        ("completed", report.completed.to_json()),
        ("shed_sessions", report.shed_sessions.to_json()),
        ("lost_sessions", report.lost_sessions().to_json()),
        ("frames_processed", report.frames_processed.to_json()),
        ("frames_shed", report.frames_shed.to_json()),
        ("frames_dropped", report.frames_dropped.to_json()),
        ("batched_calls", report.batched_calls.to_json()),
        ("batched_frames", report.batched_frames.to_json()),
        ("single_calls", report.single_calls.to_json()),
        ("backpressure_signals", report.backpressure_signals.to_json()),
        ("fleet_f1", report.fleet_f1().to_json()),
        ("sim_duration_ms", report.sim_duration_ms.to_json()),
    ])
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_gateway.json");
    let mut scales: Vec<usize> = vec![1000, 10_000];
    let mut frames_each = 5usize;
    let mut seed = 0u64;
    let mut soak = false;
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
            "--scales" => {
                let parsed: Option<Vec<usize>> = iter
                    .next()
                    .map(|v| v.split(',').map(|s| s.trim().parse().ok()).collect())
                    .unwrap_or(None);
                match parsed {
                    Some(s) if !s.is_empty() => scales = s,
                    _ => {
                        eprintln!("error: --scales needs a comma-separated list of numbers");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--frames" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => frames_each = n,
                None => {
                    eprintln!("error: --frames needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("error: --seed needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--soak" => soak = true,
            "--help" | "-h" => {
                println!(
                    "gateway_snapshot [--out PATH] [--scales N,N,...] [--frames N] [--seed S] [--soak]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if soak {
        scales.push(100_000);
    }

    let dataset = DrivingDataset::generate(&anole_data::DatasetConfig::small(), Seed(9401));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(9402)).expect("training");

    let mut tiers = Vec::new();
    for &sessions in &scales {
        for chaos in [false, true] {
            let (report, wall_s) =
                run_tier(&system, &dataset, sessions, frames_each, seed, chaos);
            let mut walls = vec![wall_s];
            for _ in 1..REPS {
                let (again, wall_s) =
                    run_tier(&system, &dataset, sessions, frames_each, seed, chaos);
                if again != report {
                    eprintln!("error: a repetition at scale {sessions} (chaos={chaos}) differs");
                    return ExitCode::FAILURE;
                }
                walls.push(wall_s);
            }
            walls.sort_by(f64::total_cmp);
            eprintln!(
                "[gateway_snapshot] {sessions} sessions (chaos={chaos}): {:.2} sessions/sec \
                 (median of {REPS}), p99 step {:.1} ms, {} shed, {} lost",
                sessions as f64 / walls[REPS / 2].max(1e-9),
                report.step_latency_p99_ms,
                report.frames_shed,
                report.lost_sessions(),
            );
            if report.lost_sessions() > 0 {
                eprintln!("error: gateway lost sessions at scale {sessions}");
                return ExitCode::FAILURE;
            }
            tiers.push(tier_row(&report, sessions, frames_each, chaos, &walls));
        }
    }

    let out = Value::object(vec![
        ("schema", Value::String("anole-gateway-bench/5".into())),
        ("host", host_json()),
        ("device", Value::String("JetsonTx2Nx".into())),
        ("seed", seed.to_json()),
        ("tiers", Value::Array(tiers)),
    ]);
    let pretty = anole_json::to_string_pretty(&out);
    if let Err(e) = std::fs::write(&out_path, pretty + "\n") {
        eprintln!("error: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[gateway_snapshot] wrote {out_path}");
    ExitCode::SUCCESS
}
