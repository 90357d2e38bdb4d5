//! `gateway_snapshot` — fleet-gateway throughput benchmark, written to
//! `BENCH_gateway.json`.
//!
//! Trains a fast Anole system, then drives the serving gateway at each
//! requested fleet scale (default 1k and 10k sessions), once clean and once
//! under the full four-kind gateway chaos plan. Each tier runs five times,
//! each on a fresh gateway; it reports the median, minimum and maximum wall
//! time, sessions/sec and frames/sec at the median, the gateway's own
//! virtual-time step-latency quantiles (p50/p95/p99) and shedding/batching
//! counters, and the peak live heap bytes per admitted session. A
//! repetition whose report or heap peak differs from the first fails the
//! run.
//!
//! The heap peak is counted by this binary's global allocator, from just
//! before the gateway is built until its run has returned its report. It
//! covers the gateway, every session and engine, and the report, but not
//! the sessions' frames, which are built before counting starts. Unlike the
//! wall-clock rows it is a pure function of the code and the seed, so it
//! resolves a change of one byte per session.
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Heap bytes the process holds, and their peak since [`HeapPeak::reset`].
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-delegating allocator that counts live heap bytes and their
/// peak, over every thread.
struct HeapPeak;

impl HeapPeak {
    fn grow(bytes: usize) {
        let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Restarts the peak at the current live bytes, and returns them.
    fn reset() -> usize {
        let live = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(live, Ordering::Relaxed);
        live
    }

    fn peak() -> usize {
        PEAK_BYTES.load(Ordering::Relaxed)
    }
}

// SAFETY: every method delegates verbatim to `System`; the bookkeeping
// around it is two relaxed atomic operations and allocates nothing.
unsafe impl GlobalAlloc for HeapPeak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            if new_size >= layout.size() {
                Self::grow(new_size - layout.size());
            } else {
                Self::shrink(layout.size() - new_size);
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::shrink(layout.size());
    }
}

#[global_allocator]
static ALLOC: HeapPeak = HeapPeak;

/// One repetition of a tier: its report, wall seconds, and peak live heap
/// bytes.
struct TierRun {
    report: GatewayReport,
    wall_s: f64,
    heap_peak_bytes: usize,
}

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
) -> TierRun {
    let mut specs: Vec<SessionSpec> = (0..sessions)
        .map(|i| {
            SessionSpec::new(
                session_frames(dataset, i, frames_each),
                split_seed(Seed(seed), 40_000 + i as u64),
            )
        })
        .collect();
    let heap_base = HeapPeak::reset();
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
    // Draining keeps the list's own buffer, counted in the base, live
    // until the peak is read.
    for spec in specs.drain(..) {
        gateway.admit(spec).expect("admit");
    }
    let start = Instant::now();
    let report = gateway.run();
    let wall_s = start.elapsed().as_secs_f64();
    TierRun {
        report,
        wall_s,
        heap_peak_bytes: HeapPeak::peak() - heap_base,
    }
}

/// One tier's row; `walls` holds the repetitions' wall times, sorted.
fn tier_row(
    run: &TierRun,
    sessions: usize,
    frames_each: usize,
    chaos: bool,
    walls: &[f64],
) -> Value {
    let report = &run.report;
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
        ("heap_peak_bytes", run.heap_peak_bytes.to_json()),
        ("heap_bytes_per_session", heap_bytes_per_session(run).to_json()),
    ])
}

/// Peak live heap bytes per admitted session.
fn heap_bytes_per_session(run: &TierRun) -> f64 {
    run.heap_peak_bytes as f64 / run.report.admitted.max(1) as f64
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
            let first = run_tier(&system, &dataset, sessions, frames_each, seed, chaos);
            let mut walls = vec![first.wall_s];
            for _ in 1..REPS {
                let again = run_tier(&system, &dataset, sessions, frames_each, seed, chaos);
                if again.report != first.report || again.heap_peak_bytes != first.heap_peak_bytes {
                    eprintln!("error: a repetition at scale {sessions} (chaos={chaos}) differs");
                    return ExitCode::FAILURE;
                }
                walls.push(again.wall_s);
            }
            walls.sort_by(f64::total_cmp);
            let report = &first.report;
            eprintln!(
                "[gateway_snapshot] {sessions} sessions (chaos={chaos}): {:.2} sessions/sec \
                 (median of {REPS}), p99 step {:.1} ms, {} shed, {} lost, {:.1} heap bytes/session",
                sessions as f64 / walls[REPS / 2].max(1e-9),
                report.step_latency_p99_ms,
                report.frames_shed,
                report.lost_sessions(),
                heap_bytes_per_session(&first),
            );
            if report.lost_sessions() > 0 {
                eprintln!("error: gateway lost sessions at scale {sessions}");
                return ExitCode::FAILURE;
            }
            tiers.push(tier_row(&first, sessions, frames_each, chaos, &walls));
        }
    }

    let out = Value::object(vec![
        ("schema", Value::String("anole-gateway-bench/6".into())),
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
