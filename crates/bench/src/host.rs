//! The machine a snapshot ran on, recorded in every `BENCH_*.json`.

use anole_json::{ToJson, Value};
use anole_tensor::{Matrix, ParallelConfig};

/// The CPU model named in `/proc/cpuinfo`, where there is one.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The body `anole_tensor::math`'s slice kernels dispatch to on this host.
fn math_kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return "avx2+fma";
    }
    "scalar"
}

/// Cores the operating system offers this process.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The host as a JSON object: CPU model, cores, the worker threads an
/// automatic parallel config resolves to, and the extensions the f32 matrix
/// kernels and the transcendental kernels run on.
pub fn host_json() -> Value {
    Value::object(vec![
        ("cpu", cpu_model().unwrap_or_else(|| "unknown".into()).to_json()),
        ("cores", cores().to_json()),
        ("auto_threads", ParallelConfig::default().effective_threads().to_json()),
        ("f32_kernel", Value::String(Matrix::matmul_isa().into())),
        ("math_kernel", Value::String(math_kernel_isa().into())),
    ])
}
