//! Component microbenchmarks: the substrate operations every experiment is
//! built from — sparse solves, stamping, convolution kernels, feature
//! extraction. These are the ablation knobs DESIGN.md calls out (solver
//! choice, preconditioner, conv cost).

use criterion::{criterion_group, BenchmarkId, Criterion};
use pdn_bench::{bench_grid, bench_vector};
use pdn_grid::design::DesignPreset;
use pdn_grid::stamp;
use pdn_nn::activation::Activation;
use pdn_nn::conv::{Conv2d, Padding};
use pdn_nn::deconv::ConvTranspose2d;
use pdn_nn::layer::Layer;
use pdn_nn::linalg::{self, reference, GemmScratch};
use pdn_nn::tensor::Tensor;
use pdn_sparse::cg::{self, CgOptions, IdentityPreconditioner};
use pdn_sparse::ichol::IncompleteCholesky;
use pdn_sparse::ordering::reverse_cuthill_mckee;
use pdn_sparse::supernodal::{FillOrdering, SupernodalCholesky, SymbolicCholesky};
use pdn_vectors::generator::{GeneratorConfig, VectorGenerator};
use pdn_vectors::vector::TestVector;

fn bench_sparse_solvers(c: &mut Criterion) {
    let grid = bench_grid(DesignPreset::D4);
    let mut coo = stamp::conductance_coo(&grid);
    for b in grid.bumps() {
        coo.push(b.node.index(), b.node.index(), 1.0 / b.resistance.0);
    }
    let a = coo.to_csr();
    let rhs: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 7) as f64 - 3.0) * 1e-3).collect();
    let opts = CgOptions { tolerance: 1e-8, max_iterations: 20_000 };

    let mut group = c.benchmark_group("components_sparse");
    group.sample_size(10);
    group.bench_function("ic0_factorization", |b| {
        b.iter(|| IncompleteCholesky::factor(&a).expect("spd"))
    });
    let ic0 = IncompleteCholesky::factor(&a).expect("spd");
    group.bench_function("cg_ic0", |b| b.iter(|| cg::solve(&a, &rhs, &ic0, &opts).expect("ok")));
    group.bench_function("cg_identity", |b| {
        b.iter(|| cg::solve(&a, &rhs, &IdentityPreconditioner, &opts).expect("ok"))
    });
    let x = vec![1.0; a.n_cols()];
    group.bench_function("spmv", |b| b.iter(|| a.mul_vec(&x)));
    // Multi-RHS SpMV: one matrix traversal serves four interleaved vectors.
    let k_rhs = 4;
    let xm = vec![1.0; a.n_cols() * k_rhs];
    let mut ym = vec![0.0; a.n_rows() * k_rhs];
    group.bench_function("spmv_multi4", |b| b.iter(|| a.mul_multi_into(&xm, k_rhs, &mut ym)));
    group.bench_function("ordering_rcm", |b| b.iter(|| reverse_cuthill_mckee(&a)));

    // The direct factor. The Tiny-scale matrix above is too small for
    // panels to pay off, so these entries use a Ci-scale grid (~21 k
    // nodes) — still fast enough for quick mode, big enough that the
    // factor is GEMM-bound. AMD is the ordering `analyze` picks on it:
    // the quotient-graph ordering plus its symbolic analysis (the pair
    // `analyze` runs per candidate), then the numeric factor it produces.
    let grid_ci = DesignPreset::D4.spec(pdn_grid::design::DesignScale::Ci).build(7).expect("ci");
    let mut coo_ci = stamp::conductance_coo(&grid_ci);
    for b in grid_ci.bumps() {
        coo_ci.push(b.node.index(), b.node.index(), 1.0 / b.resistance.0);
    }
    let a = coo_ci.to_csr();
    group.bench_function("cholesky_analyze_amd", |b| {
        b.iter(|| SymbolicCholesky::analyze_with(&a, FillOrdering::Amd).expect("spd"))
    });
    let sym_amd =
        std::sync::Arc::new(SymbolicCholesky::analyze_with(&a, FillOrdering::Amd).expect("spd"));
    group.bench_function("cholesky_factor_amd", |b| {
        b.iter(|| SupernodalCholesky::factor_with(sym_amd.clone(), &a).expect("spd"))
    });
    // Blocked multi-RHS solve vs K sequential single-vector solves against
    // the same factor (K = 16, the transient batch width that matters).
    let chol = SupernodalCholesky::factor_with(sym_amd, &a).expect("spd");
    let k_sweep = 16usize;
    let n = a.n_rows();
    let rhs16: Vec<f64> =
        (0..k_sweep * n).map(|i| (((i / n) * 17 + (i % n) * 31) % 101) as f64 * 1e-4).collect();
    group.bench_function("cholesky_solve_seq16", |b| {
        b.iter(|| {
            let mut xs = rhs16.clone();
            for x in xs.chunks_mut(n) {
                chol.solve_in_place(x);
            }
            xs
        })
    });
    group.bench_function("cholesky_solve_multi", |b| {
        b.iter(|| {
            let mut xs = rhs16.clone();
            chol.solve_sweep(&mut xs, k_sweep);
            xs
        })
    });
    group.finish();
}

fn bench_transient_solver_choice(c: &mut Criterion) {
    // The repeated-solve trade-off of paper §2: direct factorization vs
    // warm-started iterative CG over a full transient run.
    use pdn_sim::transient::{SolverKind, TransientSimulator};
    let grid = bench_grid(DesignPreset::D4);
    let vector = bench_vector(&grid, 60);
    let cg_sim = TransientSimulator::new(&grid).expect("cg");
    let direct_sim =
        TransientSimulator::with_solver(&grid, SolverKind::DirectCholesky).expect("direct");
    let mut group = c.benchmark_group("components_transient_solver");
    group.sample_size(10);
    group.bench_function("iterative_cg", |b| {
        b.iter(|| cg_sim.run_with(&vector, |_, _| {}).expect("run"))
    });
    group.bench_function("direct_cholesky", |b| {
        b.iter(|| direct_sim.run_with(&vector, |_, _| {}).expect("run"))
    });
    group.bench_function("direct_factorization_setup", |b| {
        b.iter(|| TransientSimulator::with_solver(&grid, SolverKind::DirectCholesky).expect("ok"))
    });
    // Batched multi-RHS marching vs one run per vector: the same four
    // transients, solved against the single shared factorization.
    let gen = VectorGenerator::new(&grid, GeneratorConfig { steps: 60, ..Default::default() });
    let vecs: Vec<TestVector> = (0..4).map(|s| gen.generate(s)).collect();
    let refs: Vec<&TestVector> = vecs.iter().collect();
    group.bench_function("transient_4x_sequential", |b| {
        b.iter(|| {
            for v in &vecs {
                cg_sim.run_with(v, |_, _| {}).expect("run");
            }
        })
    });
    group.bench_function("transient_4x_batched", |b| {
        b.iter(|| cg_sim.run_batch_with(&refs, |_, _, _| {}).expect("run"))
    });
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("components_gemm");
    group.sample_size(10);
    // First shape is the conv-forward GEMM at the acceptance point
    // (64×64 input, C=8, k=3): [8 × 72] · [72 × 4096].
    for (m, k, n) in [(8usize, 72usize, 4096usize), (64, 576, 1024), (128, 128, 128)] {
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.2 - 0.7).collect();
        let mut cbuf = vec![0.0f32; m * n];
        let mut scratch = GemmScratch::new();
        let id = format!("{m}x{k}x{n}");
        group.bench_function(BenchmarkId::new("gemm_naive", &id), |bch| {
            bch.iter(|| reference::gemm(m, k, n, &a, &b, &mut cbuf))
        });
        group.bench_function(BenchmarkId::new("gemm_blocked", &id), |bch| {
            bch.iter(|| linalg::gemm_with(m, k, n, &a, &b, &mut cbuf, &mut scratch))
        });
    }
    group.finish();
}

fn bench_stamping_and_features(c: &mut Criterion) {
    let grid = bench_grid(DesignPreset::D4);
    let vector = bench_vector(&grid, 60);
    let mut group = c.benchmark_group("components_features");
    group.bench_function("stamp_conductance", |b| b.iter(|| stamp::conductance_coo(&grid)));
    group.bench_function("tile_current_maps", |b| {
        b.iter(|| pdn_compress::spatial::tile_current_maps(&grid, &vector))
    });
    group.bench_function("distance_tensor", |b| {
        b.iter(|| pdn_features::distance::distance_tensor(&grid))
    });
    group.finish();
}

/// The seed's conv forward pass, reproduced verbatim as the "before" side
/// of the kernel comparison: replication padding + im2col into a freshly
/// allocated buffer + the naive triple-loop GEMM + bias.
fn seed_conv_forward(weight: &[f32], bias: &[f32], x: &Tensor, k: usize) -> Vec<f32> {
    let (c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let out_ch = bias.len();
    let p = k / 2;
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    let mut padded = vec![0.0f32; c * hp * wp];
    for ci in 0..c {
        let src = x.channel(ci);
        for hh in 0..hp {
            for ww in 0..wp {
                let sh = hh.saturating_sub(p).min(h - 1);
                let sw = ww.saturating_sub(p).min(w - 1);
                padded[(ci * hp + hh) * wp + ww] = src[sh * w + sw];
            }
        }
    }
    let rows = c * k * k;
    let cols_n = h * w;
    let mut cols = vec![0.0f32; rows * cols_n];
    for ci in 0..c {
        for kh in 0..k {
            for kw in 0..k {
                let row = (ci * k + kh) * k + kw;
                let dst = &mut cols[row * cols_n..(row + 1) * cols_n];
                for oh in 0..h {
                    let src_base = (ci * hp + oh + kh) * wp + kw;
                    for ow in 0..w {
                        dst[oh * w + ow] = padded[src_base + ow];
                    }
                }
            }
        }
    }
    let mut out = vec![0.0f32; out_ch * cols_n];
    reference::gemm(out_ch, rows, cols_n, weight, &cols, &mut out);
    for (o, b) in bias.iter().enumerate() {
        for v in &mut out[o * cols_n..(o + 1) * cols_n] {
            *v += b;
        }
    }
    out
}

fn bench_conv_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("components_conv");
    for size in [24usize, 48, 64] {
        let x = Tensor::filled(&[8, size, size], 0.5);
        let mut conv = Conv2d::new(8, 8, 3, 1, Padding::Replication, Activation::Identity, 1);
        group.bench_with_input(BenchmarkId::new("conv3x3_fwd", size), &x, |b, x| {
            b.iter(|| conv.forward(x).len())
        });
        if size == 64 {
            // Before/after at the acceptance shape: the pre-overhaul
            // forward path (fresh buffers + naive GEMM) on identical data.
            let weight = conv.weight_mut().value.as_slice().to_vec();
            let bias = conv.bias_mut().value.as_slice().to_vec();
            group.bench_with_input(BenchmarkId::new("conv3x3_fwd_naive", size), &x, |b, x| {
                b.iter(|| seed_conv_forward(&weight, &bias, x, 3))
            });
            // The same weights with ReLU in the bias epilogue, as every
            // hidden layer of the model runs.
            let relu = Activation::Relu;
            let mut fused = Conv2d::new(8, 8, 3, 1, Padding::Replication, relu, 1);
            group.bench_with_input(BenchmarkId::new("conv3x3_relu_fused", size), &x, |b, x| {
                b.iter(|| fused.forward(x).len())
            });
        }
        let y = conv.forward(&x).clone();
        group.bench_with_input(BenchmarkId::new("conv3x3_bwd", size), &y, |b, y| {
            b.iter(|| conv.backward(y))
        });
        let xe = Tensor::filled(&[8, size / 2, size / 2], 0.5);
        let mut deconv = ConvTranspose2d::new(8, 8, 4, 2, 1, Activation::Identity, 2);
        group.bench_with_input(BenchmarkId::new("deconv4x4_fwd", size), &xe, |b, x| {
            b.iter(|| deconv.forward(x).len())
        });
        let ye = deconv.forward(&xe).clone();
        group.bench_with_input(BenchmarkId::new("deconv4x4_bwd", size), &ye, |b, y| {
            b.iter(|| deconv.backward(y))
        });
    }
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The contract `pdn serve` leans on: with telemetry disabled, every
    // instrumentation call is one relaxed atomic load. A single call sits
    // far below the bench gate's noise floor, so each iteration loops
    // 100k calls. Skipped when a PDN_TELEMETRY run enabled the registry —
    // the enabled path is a different (and unguarded) measurement.
    if pdn_core::telemetry::enabled() {
        return;
    }
    let mut group = c.benchmark_group("components_telemetry");
    group.bench_function("disabled_counter_add_100k", |b| {
        b.iter(|| {
            for i in 0..100_000u64 {
                pdn_core::telemetry::counter_add(criterion::black_box("bench.disabled.probe"), i & 1);
            }
        })
    });
    group.bench_function("disabled_span_100k", |b| {
        b.iter(|| {
            for _ in 0..100_000u64 {
                let s = pdn_core::telemetry::span(criterion::black_box("bench.disabled.span"));
                criterion::black_box(&s);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sparse_solvers,
    bench_transient_solver_choice,
    bench_gemm_kernels,
    bench_stamping_and_features,
    bench_conv_kernels,
    bench_telemetry_overhead
);

// Hand-rolled `criterion_main!` so the bench harness doubles as a telemetry
// emitter: with `PDN_TELEMETRY` set, the same run that writes the
// `BENCH_*.json` medians also dumps the solver/stepper counters behind them.
fn main() {
    pdn_core::telemetry::init_from_env();
    let mut c = Criterion::default();
    benches(&mut c);
    c.finalize();
    if pdn_core::telemetry::enabled() {
        pdn_core::telemetry::write_summary_records();
        pdn_core::telemetry::flush();
        eprintln!("{}", pdn_core::telemetry::summary());
    }
}
