//! Criterion micro-benchmarks for the tensor kernels that dominate
//! training time (conv2d forward/backward on FLNet-shaped workloads,
//! matmul across SIMD arms, elementwise sweeps, pixel shuffle), plus a
//! machine-readable `BENCH_kernels.json` perf-trajectory dump.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

use rte_tensor::conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_with, conv2d_with, im2col, pixel_shuffle,
    Conv2dSpec,
};
use rte_tensor::linalg::{matmul, matmul_naive};
use rte_tensor::parallel::Parallelism;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::simd::{self, SimdBackend};
use rte_tensor::Tensor;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal())
}

/// The arms available on this machine, scalar first (the baseline).
fn arms() -> Vec<SimdBackend> {
    let mut arms = vec![SimdBackend::Scalar];
    if SimdBackend::detect() == SimdBackend::Avx2 {
        arms.push(SimdBackend::Avx2);
    }
    arms
}

/// FLNet's two convolutions at scaled capacity (9×9 "same" kernels on
/// 16×16 maps, batch 4): the input conv 6→16 and the output conv 16→1.
const FLNET_CONVS: [(&str, usize, usize); 2] = [("flnet_input", 6, 16), ("flnet_output", 16, 1)];

/// Input, weight, bias and output-gradient tensors of one FLNet conv.
fn flnet_conv_operands(c_in: usize, c_out: usize) -> (Tensor, Tensor, Tensor, Tensor) {
    let x = rand_tensor(&[4, c_in, 16, 16], 1);
    let w = rand_tensor(&[c_out, c_in, 9, 9], 2);
    let b = rand_tensor(&[c_out], 3);
    let dy = rand_tensor(&[4, c_out, 16, 16], 4);
    (x, w, b, dy)
}

fn bench_conv2d(c: &mut Criterion) {
    let spec = Conv2dSpec::same(9);
    for (name, c_in, c_out) in FLNET_CONVS {
        let (x, w, b, dy) = flnet_conv_operands(c_in, c_out);
        c.bench_function(&format!("conv2d_forward_{name}"), |bench| {
            bench.iter(|| conv2d(black_box(&x), black_box(&w), Some(&b), spec).unwrap())
        });
        c.bench_function(&format!("conv2d_backward_{name}"), |bench| {
            bench.iter(|| {
                conv2d_backward(black_box(&x), black_box(&w), black_box(&dy), spec).unwrap()
            })
        });
    }
}

/// The lowering `conv2d_with` replaced, rebuilt from the public
/// primitives for the before/after rows of `BENCH_kernels.json`: per
/// batch item, `im2col` into a full `c_in·kh·kw × oh·ow` matrix, then
/// the GEMM (forward), or `Wᵀ·dY` + `col2im` and `im2col` + the
/// `dY·colᵀ` GEMM (backward). Serial, on one explicit arm; the bias
/// terms, identical in both lowerings, are left out.
fn conv_via_im2col(arm: SimdBackend, x: &Tensor, w: &Tensor, dy: Option<&Tensor>) {
    let (n, c_in, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (c_out, k) = (w.dim(0), w.dim(2));
    let spec = Conv2dSpec::same(k);
    let (ckk, hw, img) = (c_in * k * k, h * wd, c_in * h * wd);
    let mut col = vec![0.0f32; ckk * hw];
    let mut out = vec![0.0f32; c_out * hw];
    let mut dx = vec![0.0f32; img];
    let mut dw = vec![0.0f32; c_out * ckk];
    for ni in 0..n {
        im2col(
            &x.data()[ni * img..(ni + 1) * img],
            c_in,
            h,
            wd,
            k,
            k,
            spec,
            &mut col,
        );
        let Some(dy) = dy else {
            simd::matmul_with(arm, w.data(), &col, c_out, ckk, hw, &mut out);
            continue;
        };
        let dy_n = &dy.data()[ni * c_out * hw..(ni + 1) * c_out * hw];
        simd::matmul_nt_acc_with(arm, dy_n, &col, c_out, hw, ckk, &mut dw);
        simd::matmul_tn_with(arm, w.data(), dy_n, ckk, c_out, hw, &mut col);
        col2im(&col, c_in, h, wd, k, k, spec, &mut dx);
    }
    black_box((&out, &dx, &dw));
}

fn bench_matmul(c: &mut Criterion) {
    // im2col-shaped product: (16 × 486) · (486 × 256).
    let a = rand_tensor(&[16 * 486], 4);
    let b = rand_tensor(&[486 * 256], 5);
    let mut out = vec![0.0f32; 16 * 256];
    c.bench_function("matmul_16x486x256", |bench| {
        bench.iter(|| {
            matmul(
                black_box(a.data()),
                black_box(b.data()),
                16,
                486,
                256,
                &mut out,
            );
            black_box(out[0])
        })
    });
}

fn bench_matmul_arms(c: &mut Criterion) {
    // The acceptance workload: a 128×729×576 im2col-shaped product
    // (≈ 107 MFLOP). Naive scalar i-k-j baseline, then each SIMD arm of
    // the GEMM family — outputs are bit-identical, only wall-clock
    // differs.
    let (m, k, n) = (128, 729, 576);
    let a = rand_tensor(&[m * k], 7);
    let b = rand_tensor(&[k * n], 8);
    let mut out = vec![0.0f32; m * n];
    c.bench_function("matmul_naive_128x729x576", |bench| {
        bench.iter(|| {
            matmul_naive(black_box(a.data()), black_box(b.data()), m, k, n, &mut out);
            black_box(out[0])
        })
    });
    for arm in arms() {
        c.bench_function(&format!("matmul_{arm}_128x729x576"), |bench| {
            bench.iter(|| {
                simd::matmul_with(
                    arm,
                    black_box(a.data()),
                    black_box(b.data()),
                    m,
                    k,
                    n,
                    &mut out,
                );
                black_box(out[0])
            })
        });
        c.bench_function(&format!("matmul_tn_{arm}_128x729x576"), |bench| {
            bench.iter(|| {
                simd::matmul_tn_with(
                    arm,
                    black_box(&a.data()[..k * m]),
                    black_box(b.data()),
                    m,
                    k,
                    n,
                    &mut out,
                );
                black_box(out[0])
            })
        });
        c.bench_function(&format!("matmul_nt_acc_{arm}_128x729x576"), |bench| {
            bench.iter(|| {
                simd::matmul_nt_acc_with(
                    arm,
                    black_box(a.data()),
                    black_box(&b.data()[..n * k]),
                    m,
                    k,
                    n,
                    &mut out,
                );
                black_box(out[0])
            })
        });
    }
}

fn bench_elementwise_arms(c: &mut Criterion) {
    // The hot elementwise sweeps at a paper-round-sized 1M elements.
    let len = 1 << 20;
    let x = rand_tensor(&[len], 9);
    let g = rand_tensor(&[len], 10);
    for arm in arms() {
        let mut y = x.data().to_vec();
        c.bench_function(&format!("axpy_{arm}_1m"), |bench| {
            bench.iter(|| {
                simd::axpy_with(arm, 0.37, black_box(g.data()), &mut y);
                black_box(y[0])
            })
        });
        c.bench_function(&format!("sigmoid_{arm}_1m"), |bench| {
            let mut buf = x.data().to_vec();
            bench.iter(|| {
                buf.copy_from_slice(x.data());
                simd::sigmoid_with(arm, black_box(&mut buf));
                black_box(buf[0])
            })
        });
        c.bench_function(&format!("relu_{arm}_1m"), |bench| {
            let mut buf = x.data().to_vec();
            bench.iter(|| {
                buf.copy_from_slice(x.data());
                simd::relu_with(arm, black_box(&mut buf));
                black_box(buf[0])
            })
        });
        c.bench_function(&format!("sum_{arm}_1m"), |bench| {
            bench.iter(|| black_box(simd::sum_with(arm, black_box(x.data()))))
        });
        c.bench_function(&format!("sgd_step_{arm}_1m"), |bench| {
            let mut value = x.data().to_vec();
            bench.iter(|| {
                simd::sgd_step_with(arm, &mut value, black_box(g.data()), 2e-4, 1e-5);
                black_box(value[0])
            })
        });
    }
}

fn bench_conv2d_parallel(c: &mut Criterion) {
    // Batch-parallel conv: a paper-shaped FLNet stage at batch 8, run with
    // 1 worker vs all cores. Identical outputs, different wall-clock.
    let x = rand_tensor(&[8, 6, 32, 32], 9);
    let w = rand_tensor(&[16, 6, 9, 9], 10);
    let b = rand_tensor(&[16], 11);
    let spec = Conv2dSpec::same(9);
    c.bench_function("conv2d_batch8_1thread", |bench| {
        bench.iter(|| {
            conv2d_with(
                black_box(&x),
                black_box(&w),
                Some(&b),
                spec,
                Parallelism::serial(),
            )
            .unwrap()
        })
    });
    c.bench_function("conv2d_batch8_all_cores", |bench| {
        bench.iter(|| {
            conv2d_with(
                black_box(&x),
                black_box(&w),
                Some(&b),
                spec,
                Parallelism::auto(),
            )
            .unwrap()
        })
    });
    let y = conv2d(&x, &w, Some(&b), spec).unwrap();
    c.bench_function("conv2d_backward_batch8_1thread", |bench| {
        bench.iter(|| {
            conv2d_backward_with(
                black_box(&x),
                black_box(&w),
                black_box(&y),
                spec,
                Parallelism::serial(),
            )
            .unwrap()
        })
    });
    c.bench_function("conv2d_backward_batch8_all_cores", |bench| {
        bench.iter(|| {
            conv2d_backward_with(
                black_box(&x),
                black_box(&w),
                black_box(&y),
                spec,
                Parallelism::auto(),
            )
            .unwrap()
        })
    });
}

fn bench_pixel_shuffle(c: &mut Criterion) {
    let x = rand_tensor(&[4, 32, 8, 8], 6);
    c.bench_function("pixel_shuffle_r2", |bench| {
        bench.iter(|| pixel_shuffle(black_box(&x), 2).unwrap())
    });
}

/// Best-of-batches ns/iter for `f`, measured with the same warmup →
/// calibrate → batch scheme as the criterion stand-in (kept local so the
/// JSON dump works identically under the real criterion crate).
fn measure_ns(mut f: impl FnMut()) -> f64 {
    const WARMUP: u32 = 3;
    const BUDGET: Duration = Duration::from_millis(400);
    for _ in 0..WARMUP {
        f();
    }
    let probe = Instant::now();
    f();
    let per_iter = probe.elapsed().as_secs_f64().max(1e-9);
    let batch = ((BUDGET.as_secs_f64() / 10.0 / per_iter) as u64).clamp(1, 1_000_000);
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0u32;
    while started.elapsed() < BUDGET && batches < 30 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t.elapsed().as_secs_f64() * 1e9 / batch as f64;
        if ns < best {
            best = ns;
        }
        batches += 1;
    }
    best
}

/// One record of the perf-trajectory dump.
struct JsonEntry {
    kernel: &'static str,
    shape: String,
    arm: &'static str,
    ns_per_iter: f64,
    speedup_vs_scalar: f64,
    /// For the conv rows: the same work through the materialized
    /// im2col lowering (`conv_via_im2col`) on the same arm.
    im2col_ns_per_iter: Option<f64>,
}

/// `nproc`, CPU model and SIMD flags of the measuring machine, as one
/// JSON object (Linux `/proc/cpuinfo`; fields are empty elsewhere).
fn machine_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let simd_flags: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| ["fma", "avx2", "avx512f"].contains(f))
        .collect();
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"simd_flags\": \"{}\"}}",
        field("model name"),
        simd_flags.join(" ")
    )
}

/// Measures the GEMM family, the hot elementwise sweeps and FLNet's two
/// convolutions (forward and backward, serial, in place and through the
/// im2col lowering they replaced) on every available arm, and writes
/// `BENCH_kernels.json` with the machine's fingerprint (override the
/// path with `RTE_BENCH_JSON`) so the perf trajectory is
/// machine-trackable from PR to PR.
///
/// Skipped when a bench filter is passed (`cargo bench --bench kernels
/// -- <name>`): a targeted run should neither pay the full sweep nor
/// overwrite the tracked trajectory with partial-context numbers.
fn emit_kernels_json(_c: &mut Criterion) {
    if std::env::args().skip(1).any(|a| !a.starts_with('-')) {
        println!("bench: filter given, skipping BENCH_kernels.json dump");
        return;
    }
    let (m, k, n) = (128, 729, 576);
    let a = rand_tensor(&[m * k], 7);
    let b = rand_tensor(&[k * n], 8);
    let len = 1 << 20;
    let x = rand_tensor(&[len], 9);
    let g = rand_tensor(&[len], 10);
    let mut entries: Vec<JsonEntry> = Vec::new();
    let gemm_shape = format!("{m}x{k}x{n}");
    let sweep_shape = format!("{len}");
    for arm in arms() {
        let mut out = vec![0.0f32; m * n];
        let cases: Vec<(&'static str, String, f64)> = vec![
            (
                "matmul",
                gemm_shape.clone(),
                measure_ns(|| {
                    simd::matmul_with(
                        arm,
                        black_box(a.data()),
                        black_box(b.data()),
                        m,
                        k,
                        n,
                        &mut out,
                    )
                }),
            ),
            (
                "matmul_tn",
                gemm_shape.clone(),
                measure_ns(|| {
                    simd::matmul_tn_with(
                        arm,
                        black_box(&a.data()[..k * m]),
                        black_box(b.data()),
                        m,
                        k,
                        n,
                        &mut out,
                    )
                }),
            ),
            (
                "matmul_nt_acc",
                gemm_shape.clone(),
                measure_ns(|| {
                    simd::matmul_nt_acc_with(
                        arm,
                        black_box(a.data()),
                        black_box(&b.data()[..n * k]),
                        m,
                        k,
                        n,
                        &mut out,
                    )
                }),
            ),
            ("axpy", sweep_shape.clone(), {
                let mut y = x.data().to_vec();
                measure_ns(|| simd::axpy_with(arm, 0.37, black_box(g.data()), &mut y))
            }),
            ("sigmoid", sweep_shape.clone(), {
                let mut buf = x.data().to_vec();
                measure_ns(|| {
                    buf.copy_from_slice(x.data());
                    simd::sigmoid_with(arm, black_box(&mut buf));
                })
            }),
            ("sum", sweep_shape.clone(), {
                measure_ns(|| {
                    black_box(simd::sum_with(arm, black_box(x.data())));
                })
            }),
        ];
        let mut cases: Vec<(&'static str, String, f64, Option<f64>)> = cases
            .into_iter()
            .map(|(kernel, shape, ns)| (kernel, shape, ns, None))
            .collect();
        let before = simd::global();
        simd::set_global(arm);
        let spec = Conv2dSpec::same(9);
        for (kernel, c_in, c_out) in [
            ("conv2d_fwd", 6, 16),
            ("conv2d_bwd", 6, 16),
            ("conv2d_fwd", 16, 1),
            ("conv2d_bwd", 16, 1),
        ] {
            let (x, w, b, dy) = flnet_conv_operands(c_in, c_out);
            let serial = Parallelism::serial();
            let (ns, im2col_ns) = if kernel == "conv2d_fwd" {
                (
                    measure_ns(|| {
                        black_box(conv2d_with(black_box(&x), &w, Some(&b), spec, serial).unwrap());
                    }),
                    measure_ns(|| conv_via_im2col(arm, black_box(&x), &w, None)),
                )
            } else {
                (
                    measure_ns(|| {
                        black_box(
                            conv2d_backward_with(black_box(&x), &w, &dy, spec, serial).unwrap(),
                        );
                    }),
                    measure_ns(|| conv_via_im2col(arm, black_box(&x), &w, Some(&dy))),
                )
            };
            let shape = format!("4x{c_in}x16x16->{c_out} k9");
            cases.push((kernel, shape, ns, Some(im2col_ns)));
        }
        simd::set_global(before);
        for (kernel, shape, ns, im2col_ns) in cases {
            let baseline = entries
                .iter()
                .find(|e| {
                    e.kernel == kernel && e.shape == shape && e.arm == SimdBackend::Scalar.name()
                })
                .map(|e| e.ns_per_iter)
                .unwrap_or(ns);
            entries.push(JsonEntry {
                kernel,
                shape,
                arm: arm.name(),
                ns_per_iter: ns,
                speedup_vs_scalar: baseline / ns,
                im2col_ns_per_iter: im2col_ns,
            });
        }
    }
    let mut json = format!("{{\n\"machine\": {},\n\"kernels\": [\n", machine_json());
    for (i, e) in entries.iter().enumerate() {
        let before = e
            .im2col_ns_per_iter
            .map(|b| {
                format!(
                    ", \"im2col_ns_per_iter\": {b:.1}, \"speedup_vs_im2col\": {:.3}",
                    b / e.ns_per_iter
                )
            })
            .unwrap_or_default();
        json.push_str(&format!(
            "  {{\"kernel\": \"{}\", \"shape\": \"{}\", \"arm\": \"{}\", \
             \"ns_per_iter\": {:.1}, \"speedup_vs_scalar\": {:.3}{before}}}{}\n",
            e.kernel,
            e.shape,
            e.arm,
            e.ns_per_iter,
            e.speedup_vs_scalar,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n}\n");
    // Default to the workspace root (cargo runs benches from the
    // package dir) so the tracked perf trajectory lives next to the
    // README; `RTE_BENCH_JSON` overrides.
    let path = rte_tensor::knobs::raw("RTE_BENCH_JSON").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json").to_string()
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench: wrote perf trajectory to {path}"),
        Err(e) => eprintln!("bench: could not write {path}: {e}"),
    }
    for e in &entries {
        let before = e
            .im2col_ns_per_iter
            .map(|b| format!("  {:>6.2}x vs im2col", b / e.ns_per_iter))
            .unwrap_or_default();
        println!(
            "bench: json {:<14} {:>20} arm {:<6} {:>12.1} ns/iter  {:>6.2}x vs scalar{before}",
            e.kernel, e.shape, e.arm, e.ns_per_iter, e.speedup_vs_scalar
        );
    }
}

criterion_group!(
    benches,
    bench_conv2d,
    bench_matmul,
    bench_matmul_arms,
    bench_elementwise_arms,
    bench_conv2d_parallel,
    bench_pixel_shuffle,
    emit_kernels_json
);
criterion_main!(benches);
