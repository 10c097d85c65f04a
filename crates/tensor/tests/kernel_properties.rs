//! Property-based tests of the tensor kernels: the algebraic identities
//! that make backpropagation correct must hold for arbitrary geometries,
//! not just the hand-picked unit-test shapes.

use proptest::prelude::*;

use rte_tensor::conv::{
    col2im, conv2d, conv2d_backward, conv2d_backward_with, conv2d_with, im2col, max_pool2d,
    max_pool2d_backward, Conv2dSpec,
};
use rte_tensor::linalg::matmul_naive;
use rte_tensor::parallel::Parallelism;
use rte_tensor::rng::Xoshiro256;
use rte_tensor::simd::{reduce8, LANES};
use rte_tensor::Tensor;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Xoshiro256::seed_from(seed);
    Tensor::from_fn(dims, |_| rng.normal())
}

fn inner(a: &Tensor, b: &Tensor) -> f64 {
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| x as f64 * y as f64)
        .sum()
}

/// Lane-ordered dot product (lane `i % 8`, [`reduce8`] tree): the
/// schedule of `matmul_nt_acc` and `simd::sum`, written out plainly.
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        lanes[i % LANES] += x * y;
    }
    reduce8(&lanes)
}

/// Forward and backward of a convolution through the materialized
/// column matrix: `im2col` + [`matmul_naive`] for `y`, `Wᵀ·dY` (ascending
/// over output channels) + `col2im` for `dx`, and per-item lane-ordered
/// dot products added into `dw`/`db` in batch order.
fn conv_reference(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    dy: &Tensor,
    spec: Conv2dSpec,
) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let (n, c_in, h, wd) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (c_out, _, kh, kw) = (w.dim(0), w.dim(1), w.dim(2), w.dim(3));
    let (oh, ow) = (spec.out_extent(h, kh), spec.out_extent(wd, kw));
    let (ckk, ohw, img) = (c_in * kh * kw, oh * ow, c_in * h * wd);
    let mut wt = vec![0.0f32; ckk * c_out];
    for co in 0..c_out {
        for t in 0..ckk {
            wt[t * c_out + co] = w.data()[co * ckk + t];
        }
    }
    let mut y = vec![0.0f32; n * c_out * ohw];
    let mut dx = vec![0.0f32; n * img];
    let mut dw = vec![0.0f32; c_out * ckk];
    let mut db = vec![0.0f32; c_out];
    let mut col = vec![0.0f32; ckk * ohw];
    let mut dcol = vec![0.0f32; ckk * ohw];
    for ni in 0..n {
        im2col(
            &x.data()[ni * img..(ni + 1) * img],
            c_in,
            h,
            wd,
            kh,
            kw,
            spec,
            &mut col,
        );
        let y_n = &mut y[ni * c_out * ohw..(ni + 1) * c_out * ohw];
        matmul_naive(w.data(), &col, c_out, ckk, ohw, y_n);
        for (co, plane) in y_n.chunks_mut(ohw).enumerate() {
            plane.iter_mut().for_each(|v| *v += b.data()[co]);
        }
        let dy_n = &dy.data()[ni * c_out * ohw..(ni + 1) * c_out * ohw];
        matmul_naive(&wt, dy_n, ckk, c_out, ohw, &mut dcol);
        col2im(
            &dcol,
            c_in,
            h,
            wd,
            kh,
            kw,
            spec,
            &mut dx[ni * img..(ni + 1) * img],
        );
        for co in 0..c_out {
            let g = &dy_n[co * ohw..(co + 1) * ohw];
            for t in 0..ckk {
                dw[co * ckk + t] += dot8(g, &col[t * ohw..(t + 1) * ohw]);
            }
            let ones = vec![1.0f32; ohw];
            db[co] += dot8(g, &ones);
        }
    }
    (y, dx, dw, db)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The proptest shapes stay below the per-item fan-out threshold, so at
/// two threads they run inline; this geometry (2.5 M multiplies per
/// item, 29-wide output rows that need gathers) takes the 2-worker path
/// and must still match the materialized reference bitwise.
#[test]
fn parallel_conv_matches_materialized_reference_bitwise() {
    let spec = Conv2dSpec {
        stride: 1,
        padding: 2,
        dilation: 1,
    };
    let x = rand_tensor(&[3, 8, 27, 29], 41);
    let w = rand_tensor(&[16, 8, 5, 5], 42);
    let b = rand_tensor(&[16], 43);
    let dy = rand_tensor(&[3, 16, 27, 29], 44);
    let (y_ref, dx_ref, dw_ref, db_ref) = conv_reference(&x, &w, &b, &dy, spec);
    for threads in [1usize, 2] {
        let par = Parallelism::new(threads);
        let y = conv2d_with(&x, &w, Some(&b), spec, par).unwrap();
        assert!(bits(y.data()) == bits(&y_ref), "y @ {threads} threads");
        let g = conv2d_backward_with(&x, &w, &dy, spec, par).unwrap();
        assert!(bits(g.dx.data()) == bits(&dx_ref), "dx @ {threads} threads");
        assert!(bits(g.dw.data()) == bits(&dw_ref), "dw @ {threads} threads");
        assert!(bits(g.db.data()) == bits(&db_ref), "db @ {threads} threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `conv2d_with` / `conv2d_backward_with` read the column matrix in
    /// place from a padded image; every output, input-gradient and
    /// weight-gradient element must still carry exactly the bits of the
    /// materialized im2col + `matmul_naive` / `col2im` reference, at one
    /// and at two threads — over random stride, dilation and padding,
    /// output widths off the 8-lane grid, a single output channel and an
    /// empty batch.
    #[test]
    fn conv_matches_materialized_reference_bitwise(
        seed in 0u64..10_000,
        n in 0usize..4,
        c_in in 1usize..4,
        c_out_pick in 0usize..4,
        h in 3usize..14,
        wd in 3usize..21,
        k in 1usize..5,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
    ) {
        let c_out = [1usize, 2, 5, 9][c_out_pick];
        let spec = Conv2dSpec { stride, padding, dilation };
        let eff = spec.effective_kernel(k);
        prop_assume!(h + 2 * padding >= eff && wd + 2 * padding >= eff);
        let x = rand_tensor(&[n, c_in, h, wd], seed);
        let w = rand_tensor(&[c_out, c_in, k, k], seed ^ 1);
        let b = rand_tensor(&[c_out], seed ^ 2);
        let (oh, ow) = (spec.out_extent(h, k), spec.out_extent(wd, k));
        let dy = rand_tensor(&[n, c_out, oh, ow], seed ^ 3);
        let (y_ref, dx_ref, dw_ref, db_ref) = conv_reference(&x, &w, &b, &dy, spec);
        for threads in [1usize, 2] {
            let par = Parallelism::new(threads);
            let y = conv2d_with(&x, &w, Some(&b), spec, par).unwrap();
            prop_assert!(bits(y.data()) == bits(&y_ref), "y @ {} threads", threads);
            let g = conv2d_backward_with(&x, &w, &dy, spec, par).unwrap();
            prop_assert!(bits(g.dx.data()) == bits(&dx_ref), "dx @ {} threads", threads);
            prop_assert!(bits(g.dw.data()) == bits(&dw_ref), "dw @ {} threads", threads);
            prop_assert!(bits(g.db.data()) == bits(&db_ref), "db @ {} threads", threads);
        }
    }

    /// The backward input gradient is the adjoint of the forward map:
    /// <conv(x), g> == <x, dx(g)> for any spec and geometry.
    #[test]
    fn conv_backward_is_adjoint(
        seed in 0u64..10_000,
        c_in in 1usize..4,
        c_out in 1usize..4,
        h in 5usize..12,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        dilation in 1usize..3,
    ) {
        let spec = Conv2dSpec { stride, padding, dilation };
        let eff = spec.effective_kernel(k);
        prop_assume!(h + 2 * padding >= eff);
        let x = rand_tensor(&[1, c_in, h, h], seed);
        let w = rand_tensor(&[c_out, c_in, k, k], seed ^ 1);
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = rand_tensor(y.shape().dims(), seed ^ 2);
        let grads = conv2d_backward(&x, &w, &g, spec).unwrap();
        let lhs = inner(&y, &g);
        let rhs = inner(&x, &grads.dx);
        prop_assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    /// Weight gradient adjointness: <conv_w(x), g> is linear in w, so
    /// <y, g> == <w, dw> for bias-free convolution.
    #[test]
    fn conv_weight_gradient_is_adjoint(
        seed in 0u64..10_000,
        c_in in 1usize..3,
        c_out in 1usize..3,
        h in 5usize..10,
        k in 1usize..4,
    ) {
        // `same` padding only exists for odd kernels (even k now panics).
        prop_assume!(k % 2 == 1);
        let spec = Conv2dSpec::same(k);
        let x = rand_tensor(&[2, c_in, h, h], seed);
        let w = rand_tensor(&[c_out, c_in, k, k], seed ^ 3);
        let y = conv2d(&x, &w, None, spec).unwrap();
        let g = rand_tensor(y.shape().dims(), seed ^ 4);
        let grads = conv2d_backward(&x, &w, &g, spec).unwrap();
        let lhs = inner(&y, &g);
        let rhs = inner(&w, &grads.dw);
        prop_assert!(
            (lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "weight adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    /// im2col and col2im are adjoint for arbitrary geometry.
    #[test]
    fn unfold_fold_adjoint(
        seed in 0u64..10_000,
        c in 1usize..4,
        h in 4usize..10,
        w in 4usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
    ) {
        let spec = Conv2dSpec { stride, padding, dilation: 1 };
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let oh = spec.out_extent(h, k);
        let ow = spec.out_extent(w, k);
        let x = rand_tensor(&[c, h, w], seed);
        let cvec = rand_tensor(&[c * k * k * oh * ow], seed ^ 5);
        let mut col = vec![0.0f32; c * k * k * oh * ow];
        im2col(x.data(), c, h, w, k, k, spec, &mut col);
        let mut img = vec![0.0f32; c * h * w];
        col2im(cvec.data(), c, h, w, k, k, spec, &mut img);
        let lhs: f64 = col.iter().zip(cvec.data()).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.data().iter().zip(img.iter()).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()));
    }

    /// Max pooling: every output is an element of its window, is >= all
    /// elements of the window, and the backward pass conserves gradient
    /// mass for non-overlapping windows.
    #[test]
    fn max_pool_properties(
        seed in 0u64..10_000,
        c in 1usize..4,
        h in 4usize..12,
    ) {
        let x = rand_tensor(&[1, c, h, h], seed);
        let out = max_pool2d(&x, 2, 2).unwrap();
        let oh = (h - 2) / 2 + 1;
        for ci in 0..c {
            for oi in 0..oh {
                for oj in 0..oh {
                    let m = out.y.at(&[0, ci, oi, oj]);
                    let mut found = false;
                    for di in 0..2 {
                        for dj in 0..2 {
                            let v = x.at(&[0, ci, oi * 2 + di, oj * 2 + dj]);
                            prop_assert!(m >= v);
                            if m == v {
                                found = true;
                            }
                        }
                    }
                    prop_assert!(found, "max must come from the window");
                }
            }
        }
        let dy = rand_tensor(out.y.shape().dims(), seed ^ 6);
        let dx = max_pool2d_backward(&[1, c, h, h], &out, &dy).unwrap();
        prop_assert!((dx.sum() - dy.sum()).abs() < 1e-3 * (1.0 + dy.sum().abs()));
    }

    /// Derived RNG streams do not collide for distinct labels.
    #[test]
    fn rng_streams_are_distinct(seed in 0u64..10_000, l1 in 0u64..1000, l2 in 0u64..1000) {
        prop_assume!(l1 != l2);
        let parent = Xoshiro256::seed_from(seed);
        let mut a = parent.derive(l1);
        let mut b = parent.derive(l2);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        prop_assert_ne!(xs, ys);
    }

    /// Tensor reshape round-trips preserve data for any compatible split.
    #[test]
    fn reshape_round_trip(len in 1usize..64, seed in 0u64..10_000) {
        let t = rand_tensor(&[len], seed);
        let reshaped = t.clone().reshape(&[1, len]).unwrap().reshape(&[len]).unwrap();
        prop_assert_eq!(t, reshaped);
    }
}
