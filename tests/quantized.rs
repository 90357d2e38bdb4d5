//! End-to-end tests of the quantized int8 serving path: the acceptance
//! sweep's F1-delta gate, serving-precision bookkeeping, and the cache
//! density win from byte-accounted int8 specialists.

use anole::core::eval::evaluate_refs;
use anole::core::{AnoleConfig, AnoleSystem, CacheConfig};
use anole::data::{DatasetConfig, DrivingDataset};
use anole::device::{DeviceKind, GpuMemoryModel};
use anole::nn::Precision;
use anole::tensor::Seed;

fn world(data_seed: u64, train_seed: u64, config: &AnoleConfig) -> (DrivingDataset, AnoleSystem) {
    let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(data_seed));
    let system = AnoleSystem::train(&dataset, config, Seed(train_seed))
        .expect("training succeeds on the small dataset");
    (dataset, system)
}

#[test]
fn acceptance_sweep_enforces_the_f1_delta_gate() {
    let config = AnoleConfig::fast();
    let (dataset, mut system) = world(401, 402, &config);
    let epsilon = system.config().quant.epsilon_f1;

    let report = system.quantize_models(&dataset).expect("sweep");
    for outcome in &report.accepted {
        assert!(
            outcome.f1_delta() <= epsilon,
            "accepted model {} lost {} F1, over the ε = {epsilon} gate",
            outcome.id,
            outcome.f1_delta()
        );
        assert_eq!(
            system.repository().model(outcome.id).serving_precision(),
            Precision::Int8
        );
    }
    for outcome in &report.rejected {
        assert!(
            outcome.f1_delta() > epsilon,
            "rejected model {} lost only {} F1",
            outcome.id,
            outcome.f1_delta()
        );
        assert_eq!(
            system.repository().model(outcome.id).serving_precision(),
            Precision::Fp32
        );
    }
    assert_eq!(
        report.accepted.len() + report.rejected.len(),
        system.repository().len()
    );
    assert!(report.worst_accepted_delta() <= epsilon);

    // The sweep re-gates from the fp32 weights, so running it again is a
    // no-op with an identical report.
    let again = system.quantize_models(&dataset).expect("re-sweep");
    assert_eq!(report, again);

    // The (possibly mixed-precision) system still serves online above the
    // same floor the fp32 end-to-end test clears.
    let split = dataset.split();
    let mut engine = system.online_engine(DeviceKind::JetsonTx2Nx, Seed(403));
    engine.warm(&(0..system.repository().len()).collect::<Vec<_>>());
    let result = evaluate_refs(&mut engine, &dataset, &split.test, 10).unwrap();
    assert!(result.overall_f1 > 0.3, "online F1 {}", result.overall_f1);
}

#[test]
fn quantized_specialists_pack_at_least_three_times_denser() {
    // ε = 1.0 forces the gate to accept every specialist (an F1 delta can
    // never exceed 1.0), isolating the capacity claim from gate outcomes.
    let mut config = AnoleConfig::fast();
    config.repository.target_models = 6;
    config.quant.epsilon_f1 = 1.0;
    let (dataset, mut system) = world(411, 412, &config);
    let fp32_twin = system.clone();
    let report = system.quantize_models(&dataset).expect("sweep");
    assert!(report.rejected.is_empty(), "ε = 1.0 must accept everything");

    let fp32_bytes = system.repository().model(0).net.weight_bytes();
    let i8_bytes = system.repository().model(0).serving_bytes();
    assert!(
        i8_bytes * 3 < fp32_bytes,
        "int8 serving bytes {i8_bytes} not ~4x below fp32 {fp32_bytes}"
    );

    // Device memory model: at the same byte budget, at least 3x more
    // quantized specialists fit.
    let mem = GpuMemoryModel::for_device(DeviceKind::JetsonTx2Nx);
    assert!(
        mem.max_cached_models_at(i8_bytes) >= 3 * mem.max_cached_models_at(fp32_bytes),
        "i8 fits {} vs fp32 {}",
        mem.max_cached_models_at(i8_bytes),
        mem.max_cached_models_at(fp32_bytes)
    );

    if system.repository().len() < 4 {
        return; // not enough specialists survived training to fill a cache
    }

    // Engine-level: a byte budget sized for exactly one fp32 model holds at
    // least three int8 specialists.
    let budget = fp32_bytes + fp32_bytes / 3;
    let cache = CacheConfig {
        capacity: 64,
        byte_budget: Some(budget),
        ..system.config().cache
    };
    let all: Vec<usize> = (0..system.repository().len()).collect();

    let mut i8_system = system.clone();
    i8_system.set_cache_config(cache);
    let mut i8_engine = i8_system.online_engine(DeviceKind::JetsonTx2Nx, Seed(413));
    i8_engine.warm(&all);

    let mut fp32_system = fp32_twin;
    fp32_system.set_cache_config(cache);
    let mut fp32_engine = fp32_system.online_engine(DeviceKind::JetsonTx2Nx, Seed(413));
    fp32_engine.warm(&all);

    let fp32_resident = fp32_engine.cache_stats().resident_bytes / fp32_bytes;
    assert_eq!(fp32_resident, 1, "budget was sized for exactly one fp32 model");
    assert!(
        i8_engine.quantized_resident() as u64 >= 3 * fp32_resident,
        "only {} quantized specialists resident",
        i8_engine.quantized_resident()
    );
    assert!(i8_engine.cache_stats().resident_bytes <= budget);
    assert!(fp32_engine.cache_stats().resident_bytes <= budget);
}
