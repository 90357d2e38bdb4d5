//! Byte-identity oracle: trains small systems, serves them through every
//! serving path, and prints one FNV-1a hash per case. A change that must
//! not move serving behaviour prints the same output before and after.
//!
//! ```text
//! cargo build --release --offline --example fingerprint
//! ANOLE_THREADS=1 ./target/release/examples/fingerprint --paper > t1.txt
//! ANOLE_THREADS=2 ./target/release/examples/fingerprint --paper > t2.txt
//! cargo build --release --offline --features obs --example fingerprint
//! ANOLE_THREADS=1 ./target/release/examples/fingerprint --paper > obs_t1.txt
//! ANOLE_THREADS=2 ./target/release/examples/fingerprint --paper > obs_t2.txt
//! diff t1.txt t2.txt
//! grep -v '^obs ' obs_t1.txt | diff t1.txt -
//! diff <(grep -v '^obs counter nn.workspace.created ' obs_t1.txt) \
//!      <(grep -v '^obs counter nn.workspace.created ' obs_t2.txt)
//! ```
//!
//! Hashes cover `Debug` text and the `to_bits()` of every float, never a
//! serialized form, so they stay put when the serialization code changes.
//! The cases:
//!
//! 1. an engine streaming 200 test frames, and a chaotic 32-session gateway
//!    over the same system;
//! 2. a shed-heavy gateway, run plain and instrumented (SLOs and flight
//!    recorders armed): the two hashes must be equal;
//! 3. an engine under a fault plan with a pinned fallback and a flight
//!    recorder;
//! 4. an int8 engine whose cache byte budget holds one model;
//! 5. an engine whose every load fails permanently, stepped until every
//!    fallback tier is exhausted, then stepped again with a pinned
//!    fallback armed;
//! 6. with `--paper`: paper scale (19 models), an engine, a 64-session
//!    gateway and an int8 engine.
//!
//! With `--features obs` the metric dump follows on lines prefixed `obs`
//! (wall-clock gauges left out). Every other line must equal the obs-off
//! output, at any `ANOLE_THREADS`. The `obs` lines are the same at every
//! thread count except `nn.workspace.created`, which counts one workspace
//! per repository worker.

use std::fmt::Debug;

use anole::core::gateway::{Gateway, GatewayConfig, GatewayReport, SessionSpec};
use anole::core::omi::{DriftDetector, FaultKind, FaultPlan, OnlineEngine, StepOutcome};
use anole::core::{AnoleConfig, AnoleError, AnoleSystem};
use anole::data::{DatasetConfig, DrivingDataset};
use anole::device::DeviceKind;
use anole::obs::SloSpec;
use anole::tensor::{split_seed, Seed};

/// FNV-1a over everything fed to it: dependency-free and platform-stable.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn debug(&mut self, value: &impl Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }

    fn f32(&mut self, x: f32) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// One step's result: the outcome's `Debug` text plus its floats' bits,
    /// or the error's `Debug` text.
    fn step(&mut self, step: &Result<StepOutcome, AnoleError>) {
        if let Ok(o) = step {
            self.f32(o.latency_ms);
            self.f32(o.suitability);
        }
        self.debug(step);
    }
}

fn hash_of(value: &impl Debug) -> u64 {
    let mut h = Fnv::new();
    h.debug(value);
    h.0
}

/// Hash of a gateway report without its instrumentation-only fields (alerts
/// and flight dumps), which exist only when SLOs or recorders are armed.
fn serving_hash(mut report: GatewayReport) -> u64 {
    report.slo_violations.clear();
    for s in &mut report.sessions {
        s.flight = None;
    }
    for q in &mut report.quarantined {
        q.flight = None;
    }
    hash_of(&report)
}

/// Steps `engine` over `n` test frames (cycling) and prints the hash of
/// every step result, of the models that served them and of the final
/// health report.
fn stream(name: &str, engine: &mut OnlineEngine<'_>, dataset: &DrivingDataset, n: usize) {
    let test = dataset.split().test;
    let mut h = Fnv::new();
    let mut used = Vec::new();
    for i in 0..n {
        let step = engine.step(&dataset.frame(test[i % test.len()]).features);
        h.step(&step);
        used.extend(
            step.iter()
                .filter(|o| o.models_executed > 0)
                .map(|o| o.used),
        );
    }
    h.debug(&used);
    println!(
        "{name} steps {:016x} health {:016x} cache {}",
        h.0,
        hash_of(&engine.health_report()),
        engine.cache_stats()
    );
}

/// `sessions` sessions of `frames` test frames each, spread over the split.
fn admit_fleet(
    gateway: &mut Gateway<'_>,
    dataset: &DrivingDataset,
    sessions: usize,
    frames: usize,
    seed: Seed,
    spec: impl Fn(usize, SessionSpec) -> SessionSpec,
) -> Result<(), AnoleError> {
    let test = dataset.split().test;
    for i in 0..sessions {
        let clip = (0..frames)
            .map(|k| dataset.frame(test[(i * frames + k) % test.len()]).clone())
            .collect();
        gateway.admit(spec(i, SessionSpec::new(clip, split_seed(seed, i as u64))))?;
    }
    Ok(())
}

fn print_gateway(name: &str, report: GatewayReport) {
    let counts = format!(
        "sessions={} processed={} shed={} windows={} quarantined={}",
        report.sessions.len(),
        report.frames_processed,
        report.frames_shed,
        report.windows,
        report.quarantined.len(),
    );
    println!("{name} {counts} hash {:016x}", serving_hash(report));
}

/// The byte budget that holds exactly the largest serving model.
fn one_model_budget(system: &mut AnoleSystem) {
    let largest = system.repository().models().iter().map(|m| m.serving_bytes()).max();
    let mut cache = system.config().cache;
    cache.byte_budget = largest;
    system.set_cache_config(cache);
}

/// Cases 1 and 3–5 over one small system.
fn engine_cases() -> Result<(), AnoleError> {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(1));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(2))?;
    println!("case1 system {:016x}", hash_of(&system));

    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(3));
    engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
    stream("case1 engine", &mut engine, &dataset, 200);

    let mut gateway = Gateway::new(
        &system,
        GatewayConfig {
            max_sessions: 32,
            deadline_ms: 150.0,
            slow_factor: 8.0,
            ..GatewayConfig::default()
        },
    )?
    .with_fault_plan(
        FaultPlan::new(Seed(4))
            .with_queue_overflow_rate(0.05)
            .with_slow_consumer_rate(0.3)
            .with_session_stall_rate(0.05)
            .with_scheduler_hiccup_rate(0.1),
    );
    admit_fleet(&mut gateway, &dataset, 32, 8, Seed(5), |i, spec| {
        if i % 2 == 0 {
            spec.with_drift_detector(DriftDetector::new(4, 0.05).with_hysteresis(2, 2))
        } else {
            spec
        }
    })?;
    print_gateway("case1 gateway", gateway.run());

    let plan = FaultPlan::new(Seed(6))
        .with_transient_load_rate(0.2)
        .with_permanent_load_rate(0.02)
        .with_sensor_dropout_rate(0.05)
        .with_decision_anomaly_rate(0.05)
        .at(60, FaultKind::MemoryPressure { capacity: 2 });
    let mut engine = system
        .online_engine(DeviceKind::JetsonTx2Nx, Seed(7))
        .with_fault_injector(plan.injector())
        .with_pinned_fallback(0)
        .with_flight_recorder(16);
    stream("case3 engine", &mut engine, &dataset, 200);
    let record = engine.flight_record().expect("recorder armed");
    let mut h = Fnv::new();
    for f in &record.frames {
        h.f32(f.latency_ms);
        h.f32(f.suitability);
    }
    h.debug(&record);
    println!("case3 flight {:016x}", h.0);

    let mut config = AnoleConfig::fast();
    config.quant.epsilon_f1 = 1.0;
    let mut int8 = AnoleSystem::train(&dataset, &config, Seed(2))?;
    let report = int8.quantize_models(&dataset)?;
    println!("case4 quantize {:016x}", hash_of(&report));
    one_model_budget(&mut int8);
    let mut engine = int8.online_engine(DeviceKind::JetsonTx2Nx, Seed(8));
    stream("case4 engine", &mut engine, &dataset, 200);

    let plan = FaultPlan::new(Seed(9)).with_permanent_load_rate(1.0);
    let mut engine = system
        .online_engine(DeviceKind::JetsonTx2Nx, Seed(10))
        .with_fault_injector(plan.injector());
    let test = dataset.split().test;
    let mut h = Fnv::new();
    let mut exhausted_at = None;
    for (i, &r) in test.iter().take(100).enumerate() {
        let step = engine.step(&dataset.frame(r).features);
        h.step(&step);
        if matches!(step, Err(AnoleError::FaultExhausted { .. })) {
            exhausted_at = Some(i);
            break;
        }
    }
    println!("case5 exhausted_at {exhausted_at:?} steps {:016x}", h.0);
    let mut engine = engine.with_pinned_fallback(0);
    stream("case5 pinned", &mut engine, &dataset, 20);
    Ok(())
}

/// Case 2: the same shed-heavy gateway, plain and instrumented.
fn gateway_case(instrumented: bool) -> Result<u64, AnoleError> {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(11));
    let system = AnoleSystem::train(&dataset, &AnoleConfig::fast(), Seed(12))?;
    let config = GatewayConfig {
        max_sessions: 32,
        deadline_ms: 120.0,
        slow_factor: 8.0,
        flight_recorder_frames: if instrumented { 8 } else { 0 },
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(&system, config)?.with_fault_plan(
        FaultPlan::new(Seed(13))
            .with_queue_overflow_rate(0.05)
            .with_slow_consumer_rate(0.4)
            .with_session_stall_rate(0.05)
            .with_scheduler_hiccup_rate(0.1),
    );
    if instrumented {
        gateway = gateway.with_slos(vec![
            SloSpec::error_ratio(
                "gateway-shed-ratio",
                "gateway.frames.shed",
                "gateway.frames.total",
                0.01,
            )
            .with_slow_windows(8),
            SloSpec::quantile("gateway-step-latency", "gateway.step.latency_ms", 0.99, 120.0)
                .with_slow_windows(8),
        ]);
    }
    admit_fleet(&mut gateway, &dataset, 24, 10, Seed(14), |i, mut spec| {
        spec.inject_panic = i == 5;
        spec
    })?;
    Ok(serving_hash(gateway.run()))
}

/// Case 6: paper scale.
fn paper_case() -> Result<(), AnoleError> {
    let dataset = DrivingDataset::generate(&DatasetConfig::default(), Seed(21));
    let mut system = AnoleSystem::train(&dataset, &AnoleConfig::default(), Seed(22))?;
    println!(
        "case6 models {} system {:016x}",
        system.repository().len(),
        hash_of(&system)
    );
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(23));
    stream("case6 engine", &mut engine, &dataset, 500);
    let config = GatewayConfig {
        max_sessions: 64,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(&system, config)?;
    admit_fleet(&mut gateway, &dataset, 64, 16, Seed(24), |_, spec| spec)?;
    print_gateway("case6 gateway", gateway.run());
    drop(gateway);
    let report = system.quantize_models(&dataset)?;
    println!("case6 quantize {:016x}", hash_of(&report));
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(25));
    stream("case6 int8", &mut engine, &dataset, 500);
    Ok(())
}

/// Counters, deterministic gauges, histogram counts and sums, and span
/// names with counts.
#[cfg(feature = "obs")]
fn print_obs() {
    let snap = anole::obs::snapshot();
    for c in &snap.counters {
        println!("obs counter {} {}", c.name, c.value);
    }
    for g in &snap.gauges {
        let wall_clock = g.name.ends_with("duration_ms") || g.name.ends_with("_per_sec");
        if !wall_clock {
            println!("obs gauge {} {:?}", g.name, g.value);
        }
    }
    for s in &snap.histograms {
        println!(
            "obs histogram {} {} {}",
            s.name,
            s.histogram.count(),
            s.histogram.sum_micros()
        );
    }
    let mut spans = std::collections::BTreeMap::<&str, usize>::new();
    for s in &snap.spans {
        *spans.entry(s.name.as_str()).or_default() += 1;
    }
    for (name, n) in spans {
        println!("obs span {name} {n}");
    }
}

fn main() -> Result<(), AnoleError> {
    engine_cases()?;
    let plain = gateway_case(false)?;
    let instrumented = gateway_case(true)?;
    println!("case2 plain {plain:016x} instrumented {instrumented:016x}");
    if std::env::args().any(|a| a == "--paper") {
        paper_case()?;
    }
    #[cfg(feature = "obs")]
    print_obs();
    assert_eq!(plain, instrumented, "instrumentation moved the serving hash");
    Ok(())
}
