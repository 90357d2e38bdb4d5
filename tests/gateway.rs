//! Gateway property tests: structural invariants of the serving gateway
//! under arbitrary fault schedules and configurations.
//!
//! Three contracts, for any seeded fault plan and any (small) fleet shape:
//! queues never exceed their bound of four frames (backpressure, not
//! buffering, absorbs overload); every admitted session ends in a terminal
//! state with every frame accounted for (processed + shed + dropped =
//! total); and a session served beside others, its frames stacked into
//! each window's one batched decision forward, ends bit-identical to the
//! same session alone in its own gateway, where every window scores one
//! frame, so batching is purely a scheduling optimisation.
//!
//! `ANOLE_CHAOS_SEED` (default 0) perturbs every fault-plan seed so CI can
//! sweep the suite; the invariants hold for any value.

use std::ops::Range;
use std::sync::OnceLock;

use anole::core::gateway::{Gateway, GatewayConfig, GatewayReport, SessionReport, SessionSpec};
use anole::core::omi::FaultPlan;
use anole::core::{AnoleConfig, AnoleSystem};
use anole::data::{DatasetConfig, DrivingDataset, Frame};
use anole::tensor::{rng_from_seed, split_seed, Seed};

fn chaos_seed() -> u64 {
    std::env::var("ANOLE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Training dominates test time; every case shares one trained system.
fn world() -> &'static (DrivingDataset, AnoleSystem) {
    static WORLD: OnceLock<(DrivingDataset, AnoleSystem)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(9201));
        let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(9202)).unwrap();
        (dataset, system)
    })
}

/// `n` test-split frames, rotated by session index so sessions differ.
fn session_frames(dataset: &DrivingDataset, session: usize, n: usize) -> Vec<Frame> {
    let split = dataset.split();
    (0..n)
        .map(|k| dataset.frame(split.test[(session * 7 + k) % split.test.len()]).clone())
        .collect()
}

/// The gateway's per-session frame queue bound.
const QUEUE_CAPACITY: usize = 4;

/// Runs sessions `sessions` (each by its index: its frames and seed) in one
/// gateway.
fn run_fleet(
    config: GatewayConfig,
    plan: Option<FaultPlan>,
    sessions: Range<usize>,
    frames_each: usize,
    seed: u64,
) -> GatewayReport {
    let (dataset, system) = world();
    let mut gateway = Gateway::new(system, config).unwrap();
    if let Some(plan) = plan {
        gateway = gateway.with_fault_plan(plan);
    }
    for i in sessions {
        gateway
            .admit(SessionSpec::new(
                session_frames(dataset, i, frames_each),
                split_seed(Seed(seed), 40_000 + i as u64),
            ))
            .unwrap();
    }
    gateway.run()
}

/// Cases per property.
const CASES: usize = 12;

/// For ANY fault schedule and fleet shape: queues stay within their bound,
/// every session reaches a terminal state, and every frame of every session
/// is processed, shed, or dropped — none lost.
#[test]
fn queues_stay_bounded_and_every_frame_is_accounted_for() {
    let mut rng = rng_from_seed(Seed(0x6A_0001));
    for case in 0..CASES {
        let (overflow, slow) = (rng.f32_in(0.0..0.5), rng.f32_in(0.0..0.8));
        let (stall, hiccup) = (rng.f32_in(0.0..0.3), rng.f32_in(0.0..0.3));
        let plan_seed = rng.usize(0..500) as u64;
        let (sessions, frames_each) = (rng.usize(1..5), rng.usize(1..16));
        let at = format!("case {case} ({sessions} sessions x {frames_each} frames)");
        let config = GatewayConfig {
            max_sessions: sessions,
            deadline_ms: 120.0,
            slow_factor: 8.0,
            ..GatewayConfig::default()
        };
        let plan = FaultPlan::new(Seed(plan_seed.wrapping_add(chaos_seed())))
            .with_queue_overflow_rate(overflow)
            .with_slow_consumer_rate(slow)
            .with_session_stall_rate(stall)
            .with_scheduler_hiccup_rate(hiccup);
        let report = run_fleet(config, Some(plan), 0..sessions, frames_each, plan_seed);

        assert_eq!(report.admitted, sessions, "{at}");
        assert_eq!(report.rejected, 0, "{at}");
        assert_eq!(report.lost_sessions(), 0, "{at}: non-terminal sessions: {report:?}");
        assert!(
            report.peak_queue_depth <= QUEUE_CAPACITY,
            "{at}: peak queue depth {} exceeds capacity",
            report.peak_queue_depth
        );
        for s in &report.sessions {
            assert!(s.state.is_terminal(), "{at}");
            assert!(s.peak_queue_depth <= QUEUE_CAPACITY, "{at}");
            assert_eq!(
                s.processed + s.shed_frames + s.dropped_frames,
                s.frames_total,
                "{at}: session {} leaked frames: {s:?}",
                s.id
            );
        }
        assert_eq!(
            report.frames_processed + report.frames_shed + report.frames_dropped,
            report.sessions.iter().map(|s| s.frames_total).sum::<usize>(),
            "{at}"
        );
    }
}

/// Window-batched decision scoring is bit-identical to per-session scoring:
/// each session of a fleet run ends with the same report as the same
/// session alone in its own gateway, where every window scores its one
/// frame, frame for frame.
#[test]
fn batched_scoring_is_bit_identical_to_per_session() {
    let mut rng = rng_from_seed(Seed(0x6A_0002));
    for case in 0..CASES {
        let (sessions, frames_each) = (rng.usize(1..5), rng.usize(1..12));
        let seed = rng.usize(0..200) as u64;
        let at = format!("case {case} ({sessions} sessions x {frames_each} frames)");
        let lossless = GatewayConfig {
            max_sessions: sessions,
            deadline_ms: f64::INFINITY,
            shed_session_after: usize::MAX,
            ..GatewayConfig::default()
        };
        let batched = run_fleet(lossless, None, 0..sessions, frames_each, seed);
        // Every frame was scored once, stacked or alone.
        assert_eq!(
            batched.batched_frames + batched.single_calls,
            sessions * frames_each,
            "{at}"
        );
        assert!(sessions == 1 || batched.batched_calls > 0, "{at}");
        for i in 0..sessions {
            let single = run_fleet(lossless, None, i..i + 1, frames_each, seed);
            assert_eq!(single.batched_calls, 0, "{at}");
            assert_eq!(single.single_calls, frames_each, "{at}");
            let alone = SessionReport { id: i, ..single.sessions[0].clone() };
            assert_eq!(batched.sessions[i], alone, "{at}: session {i}");
        }
    }
}

/// The gateway is a deterministic simulation: the same configuration, fault
/// plan, and admission order reproduce the same report byte for byte.
#[test]
fn identical_runs_produce_identical_reports() {
    let config = GatewayConfig {
        max_sessions: 3,
        deadline_ms: 150.0,
        slow_factor: 10.0,
        ..GatewayConfig::default()
    };
    let plan = || {
        FaultPlan::new(Seed(chaos_seed().wrapping_add(77)))
            .with_slow_consumer_rate(0.5)
            .with_scheduler_hiccup_rate(0.1)
    };
    let a = run_fleet(config, Some(plan()), 0..3, 10, 7);
    let b = run_fleet(config, Some(plan()), 0..3, 10, 7);
    assert_eq!(a, b);
}
