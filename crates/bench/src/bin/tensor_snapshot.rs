//! `tensor_snapshot` — machine-readable timing snapshot of the compute
//! kernels, written to `BENCH_tensor.json`.
//!
//! It emits a small JSON file suitable for diffing across commits and
//! machines: wall times for the naive and register-blocked matmul kernels,
//! the transpose-fused variants, the product shapes that serving, OSP
//! training and the gateway's batched scoring run,
//! the fp32 and int8 forwards of the serving detector and decision net, the
//! `tanh`, `exp` and `ln` slice kernels against the plain `f32` loop, the
//! fused-vs-reference Adam steps, one workspace-reused training epoch,
//! a k-means fit, and the Algorithm 1 repository training loop, the one
//! thread fan-out, at threads = 1 vs auto.
//!
//! Usage:
//!
//! ```text
//! tensor_snapshot [--out PATH] [--reps N] [--skip-train]
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use anole_bench::host::host_json;
use anole_cluster::KMeans;
use anole_core::osp::{ModelRepository, SceneModel};
use anole_core::{AnoleConfig, SceneModelConfig};
use anole_data::{DatasetConfig, DrivingDataset};
use anole_json::{ToJson, Value};
use anole_nn::{Activation, Adam, Mlp, Predictor, TrainConfig, Trainer, Workspace};
use anole_tensor::{
    math, rng_from_seed, set_parallel_config, Matrix, ParallelConfig, QuantMatrix, Seed, ShapeError,
};

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One timed row of the snapshot.
struct Row {
    name: String,
    variant: &'static str,
    threads: usize,
    ms: f64,
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn main() -> ExitCode {
    let mut out_path = String::from("BENCH_tensor.json");
    let mut reps = 5usize;
    let mut skip_train = false;
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
            "--reps" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(n) => reps = n,
                None => {
                    eprintln!("error: --reps needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--skip-train" => skip_train = true,
            "--help" | "-h" => {
                println!("tensor_snapshot [--out PATH] [--reps N] [--skip-train]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut kernels: Vec<Row> = Vec::new();
    let mut record = |name: &str, variant: &'static str, threads: usize, ms: f64| {
        eprintln!("[tensor_snapshot] {name}/{variant} (threads={threads}): {ms:.6} ms");
        kernels.push(Row {
            name: name.to_string(),
            variant,
            threads,
            ms,
        });
    };

    // Matmul kernels.
    for n in [64usize, 256] {
        let mut rng = rng_from_seed(Seed(9_000 + n as u64));
        let a = Matrix::random_normal(n, n, 1.0, &mut rng);
        let b = Matrix::random_normal(n, n, 1.0, &mut rng);
        let name = format!("matmul_{n}");
        record(&name, "naive", 1, time_ms(reps, || {
            black_box(naive_matmul(&a, &b));
        }));
        record(&name, "serial", 1, time_ms(reps, || {
            black_box(a.matmul(&b).unwrap());
        }));
        if n == 256 {
            let bt = b.transpose();
            record("matmul_tn_256", "serial", 1, time_ms(reps, || {
                black_box(a.matmul_tn(&b).unwrap());
            }));
            record("matmul_nt_256", "serial", 1, time_ms(reps, || {
                black_box(a.matmul_nt(&bt).unwrap());
            }));
        }
    }

    // Products the serving path and OSP training run: the first layer of a
    // single-frame decision or detector forward and the decision head's
    // output layer; 64-row training mini-batches through a hidden layer, the
    // detector's output layer and the decision head, and a weight gradient
    // through `matmul_tn` (a 64×48 activation against a 64×16 gradient);
    // and the gateway's batched decision scoring of 2,000 frames. A small
    // call takes well under a microsecond, so each row times `iters` calls
    // into a warm output buffer and reports the time per call.
    let shapes: [(&str, usize, usize, usize, usize); 7] = [
        ("matmul", 1, 32, 64, 20_000),
        ("matmul", 1, 64, 19, 20_000),
        ("matmul", 64, 32, 64, 500),
        ("matmul", 64, 48, 16, 500),
        ("matmul", 64, 64, 19, 500),
        ("matmul_tn", 48, 64, 16, 500),
        ("matmul", 2_000, 32, 64, 20),
    ];
    type Product = fn(&Matrix, &Matrix, &mut Matrix) -> Result<(), ShapeError>;
    for (op, m, k, n, iters) in shapes {
        let mut rng = rng_from_seed(Seed(9_100 + (m * k * n) as u64));
        // `matmul_tn` reads its k×m left operand down the columns.
        let (product, a_rows, a_cols): (Product, _, _) = if op == "matmul_tn" {
            (Matrix::matmul_tn_into, k, m)
        } else {
            (Matrix::matmul_into, m, k)
        };
        let a = Matrix::random_normal(a_rows, a_cols, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 1.0, &mut rng);
        let mut out = Matrix::default();
        let ms = time_ms(reps, || {
            for _ in 0..iters {
                product(black_box(&a), black_box(&b), &mut out).unwrap();
            }
            black_box(&out);
        });
        record(&format!("{op}_{m}x{k}x{n}"), "serial", 1, ms / iters as f64);
    }

    // Per-row symmetric quantization of a 256×256 matrix.
    {
        let a = Matrix::random_normal(256, 256, 1.0, &mut rng_from_seed(Seed(9_356)));
        record("quantize_256", "per_row", 1, time_ms(reps.max(20), || {
            black_box(QuantMatrix::quantize(&a));
        }));
    }

    // One frame row through the two networks the engine serves per frame,
    // the 32→48→16 detector and the 32→64→32→64→19 decision net, at fp32
    // and at int8, into a warm workspace.
    {
        let detector = Mlp::builder(32).hidden(48, Activation::Relu).output(16).build(Seed(9_200));
        let decision = Mlp::builder(32)
            .hidden(64, Activation::Relu)
            .hidden(32, Activation::Relu)
            .hidden(64, Activation::Relu)
            .output(19)
            .build(Seed(9_201));
        let frame = Matrix::random_normal(1, 32, 1.0, &mut rng_from_seed(Seed(9_202)));
        let (iters, mut ws) = (20_000, Workspace::new());
        let nets = [
            ("forward_detector_32x48x16", &detector),
            ("forward_decision_32x64x32x64x19", &decision),
        ];
        for (name, net) in nets {
            let int8 = net.quantize();
            for model in [net as &dyn Predictor, &int8] {
                let ms = time_ms(reps, || {
                    for _ in 0..iters {
                        black_box(model.predict_sigmoid_batch(black_box(&frame), &mut ws).unwrap());
                    }
                });
                record(name, model.precision().label(), 1, ms / iters as f64);
            }
        }
    }

    // The transcendental slice kernels against the plain `f32` loop, which
    // calls libm per element, on 2,048 floats from each routine's domain in
    // training: pre-activations for tanh, the non-positive arguments of the
    // sigmoid and softmax for exp, and probabilities for ln.
    {
        let mut rng = rng_from_seed(Seed(9_400));
        let pre = Matrix::random_normal(1, 2_048, 2.0, &mut rng);
        let exp_in: Vec<f32> = pre.iter().map(|v| -4.0 * v.abs()).collect();
        let ln_in: Vec<f32> = (0..pre.len()).map(|_| rng.f32().max(1e-7)).collect();
        type Kernel = fn(&[f32], &mut [f32]);
        type Scalar = fn(f32) -> f32;
        let routines: [(&str, &[f32], Kernel, Scalar); 3] = [
            ("math_tanh_2048", pre.as_slice(), math::tanh_into, f32::tanh),
            ("math_exp_2048", &exp_in, math::exp_into, f32::exp),
            ("math_ln_2048", &ln_in, math::ln_into, f32::ln),
        ];
        let (iters, mut out) = (2_000, vec![0.0f32; pre.len()]);
        for (name, input, kernel, libm) in routines {
            let ms = time_ms(reps, || {
                for _ in 0..iters {
                    kernel(black_box(input), &mut out);
                }
                black_box(&out);
            });
            record(name, "kernel", 1, ms / iters as f64);
            let ms = time_ms(reps, || {
                for _ in 0..iters {
                    for (o, &v) in out.iter_mut().zip(black_box(input)) {
                        *o = libm(v);
                    }
                }
                black_box(&out);
            });
            record(name, "libm", 1, ms / iters as f64);
        }
    }

    // Fused vs reference Adam steps on a 256->512->256 model.
    {
        let mut rng = rng_from_seed(Seed(6_600));
        let mut model = Mlp::builder(256)
            .hidden(512, Activation::Relu)
            .output(256)
            .build(Seed(6));
        let grads: Vec<(Matrix, Matrix)> = model
            .layers()
            .iter()
            .map(|l| {
                let w = l.weights();
                (
                    Matrix::random_normal(w.rows(), w.cols(), 0.1, &mut rng),
                    Matrix::random_normal(1, l.bias().cols(), 0.1, &mut rng),
                )
            })
            .collect();
        let mut fused = Adam::new(0.01);
        record("optim_step_adam", "fused", 1, time_ms(reps.max(50), || {
            fused.step(&mut model, &grads).unwrap();
        }));
        let mut reference = Adam::new(0.01);
        record("optim_step_adam", "reference", 1, time_ms(reps.max(50), || {
            reference.step_reference(&mut model, &grads).unwrap();
        }));
    }

    // One epoch of the workspace-reusing trainer: 512 samples x 32 features,
    // 8 classes, batch 128, warm workspace. The warm-up call inside
    // `time_ms` performs all buffer allocation; the measured epochs run
    // allocation-free.
    {
        let mut rng = rng_from_seed(Seed(6_700));
        let tx = Matrix::random_normal(512, 32, 1.0, &mut rng);
        let tlabels: Vec<usize> = (0..512).map(|i| i % 8).collect();
        let tcfg = TrainConfig {
            epochs: 1,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut net = Mlp::builder(32)
            .hidden(64, Activation::Relu)
            .output(8)
            .build(Seed(7));
        let trainer = Trainer::new(tcfg);
        let mut ws = Workspace::new();
        record("train_epoch_512x32", "serial", 1, time_ms(reps, || {
            black_box(
                trainer
                    .fit_classifier_ws(&mut net, &tx, &tlabels, Seed(8), &mut ws)
                    .unwrap(),
            );
        }));
    }

    // A k-means fit: 4096 points in eight offset clusters.
    let mut rng = rng_from_seed(Seed(5_500));
    let mut pts = Matrix::random_normal(4096, 16, 1.0, &mut rng);
    for i in 0..pts.rows() {
        let offset = (i % 8) as f32 * 10.0;
        for v in pts.row_mut(i) {
            *v += offset;
        }
    }
    let km = KMeans::new(8).with_max_iterations(10);
    record("kmeans_4096x16_k8", "serial", 1, time_ms(reps, || {
        black_box(km.fit(&pts, Seed(1)).unwrap());
    }));

    // Algorithm 1 repository training loop (the TCM fan-out), at one thread
    // and at the automatic count (`ANOLE_THREADS`, else every core).
    if !skip_train {
        let dataset = DrivingDataset::generate(&DatasetConfig::small(), Seed(71));
        let split = dataset.split();
        let config = AnoleConfig::fast();
        let mut scfg = SceneModelConfig::default();
        scfg.train.epochs = 10;
        let scene =
            SceneModel::train(&dataset, &split.train, &scfg, Seed(72)).expect("scene model");
        let configs = [
            (ParallelConfig { threads: 1 }, "serial"),
            (ParallelConfig::default(), "parallel"),
        ];
        for (cfg, variant) in configs {
            set_parallel_config(cfg);
            record(
                "osp_repository_train_small",
                variant,
                cfg.effective_threads(),
                time_ms(reps, || {
                    black_box(
                        ModelRepository::train(
                            &dataset,
                            &scene,
                            &split.train,
                            &split.val,
                            &config,
                            Seed(73),
                        )
                        .expect("repository"),
                    );
                }),
            );
        }
    }
    set_parallel_config(ParallelConfig::default());

    let find = |name: &str, variant: &str| -> Option<f64> {
        kernels
            .iter()
            .find(|k| k.name == name && k.variant == variant)
            .map(|k| k.ms)
    };
    // `a_ms / b_ms`: how many times faster the `b` row is.
    let over = |a: Option<f64>, b: Option<f64>| -> Option<f64> {
        match (a, b) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    };
    let ratio = |name: &str, from: &str, to: &str| over(find(name, from), find(name, to));
    let speedups = [
        ("matmul_64_serial_vs_naive", ratio("matmul_64", "naive", "serial")),
        ("matmul_256_serial_vs_naive", ratio("matmul_256", "naive", "serial")),
        (
            "matmul_nt_256_over_matmul_256_serial",
            over(find("matmul_nt_256", "serial"), find("matmul_256", "serial")),
        ),
        (
            "int8_vs_fp32_detector",
            ratio("forward_detector_32x48x16", "i8", "fp32"),
        ),
        ("math_tanh_libm_vs_kernel", ratio("math_tanh_2048", "libm", "kernel")),
        ("math_exp_libm_vs_kernel", ratio("math_exp_2048", "libm", "kernel")),
        ("math_ln_libm_vs_kernel", ratio("math_ln_2048", "libm", "kernel")),
        ("optim_step_adam_reference_vs_fused", ratio("optim_step_adam", "reference", "fused")),
        (
            "osp_train_parallel_vs_serial",
            ratio("osp_repository_train_small", "serial", "parallel"),
        ),
    ];

    let kernels: Vec<Value> = kernels
        .iter()
        .map(|k| {
            Value::object(vec![
                ("name", k.name.to_json()),
                ("variant", Value::String(k.variant.into())),
                ("threads", k.threads.to_json()),
                ("ms", k.ms.to_json()),
            ])
        })
        .collect();
    let speedups = speedups
        .iter()
        .map(|(name, value)| (*name, value.to_json()))
        .collect();
    let json = Value::object(vec![
        ("schema", Value::String("anole-tensor-snapshot/1".into())),
        (
            "note",
            Value::String(
                "Each row is a best-of-N wall time after one warm-up, N >= reps. Rows named \
                 matmul_MxKxN, matmul_tn_MxKxN (an M×N output of depth K), forward_* and math_* \
                 time a loop of calls into a warm output and report ms per call."
                    .into(),
            ),
        ),
        ("host", host_json()),
        ("config", Value::object(vec![("reps", reps.to_json())])),
        ("kernels", Value::Array(kernels)),
        ("speedups", Value::object(speedups)),
    ]);
    let json = anole_json::to_string_pretty(&json) + "\n";
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[tensor_snapshot] wrote {out_path}");
    ExitCode::SUCCESS
}
