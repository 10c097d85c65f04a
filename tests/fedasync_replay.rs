//! Determinism contract rule 8: buffered-async federated training on the
//! *seeded virtual clock* is a replay, not a race. One seed fixes the
//! whole arrival trace — stragglers, dropouts, rejoins, buffer fills —
//! so the staleness-weighted aggregates (and the rendered schedule
//! table) must be byte-identical across repeated runs, worker-thread
//! counts, and SIMD arms.

use std::sync::Mutex;

use decentralized_routability::fed::{
    render_async_history, run_fedasync, AsyncConfig, AsyncRoundRecord, Client, ClientSet,
    FedConfig, LocalExecutor, MethodOutcome, ModelFactory, Parallelism,
};
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::simd::{self, SimdBackend};
use decentralized_routability::tensor::Tensor;

/// Tests that mutate the process-global SIMD arm serialize on this lock
/// (same pattern as `tests/simd_determinism.rs`).
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

/// A small heterogeneous client: labels keyed to channel 0 with a
/// per-client threshold shift.
fn synthetic_client(id: usize, n_train: usize, n_test: usize, seed: u64) -> Client {
    let threshold = 0.45 + 0.1 * (id as f32 % 3.0) / 3.0;
    let make = |n: usize, salt: u64| -> ClientSet {
        let mut rng = Xoshiro256::seed_from(seed ^ salt);
        let mut x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
        let mut y = Tensor::zeros(&[n, 1, 8, 8]);
        for ni in 0..n {
            for i in 0..64 {
                let v = x.data()[ni * 128 + i];
                y.data_mut()[ni * 64 + i] = if v > threshold { 1.0 } else { 0.0 };
            }
            for i in 0..64 {
                x.data_mut()[ni * 128 + 64 + i] = rng.uniform();
            }
        }
        ClientSet::new(x, y).unwrap()
    };
    Client::new(id, make(n_train, 0xAAAA), make(n_test, 0xBBBB))
}

fn clients(n: usize) -> Vec<Client> {
    (0..n)
        .map(|k| synthetic_client(k + 1, 5, 3, 8600 + k as u64))
        .collect()
}

fn factory() -> ModelFactory {
    Box::new(|seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(FlNet::new(
            FlNetConfig {
                in_channels: 2,
                hidden: 4,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        ))
    })
}

fn fed_config(threads: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.local_steps = 2;
    config.batch_size = 2;
    config.seed = 8861;
    config.parallelism = Parallelism::new(threads);
    config
}

/// A schedule with everything the replay must pin: straggler spread
/// (latency up to 7 ticks), mid-training dropout, rejoins, and a buffer
/// smaller than the fleet so staleness actually accrues.
fn async_config(dropout: f64) -> AsyncConfig {
    let mut cfg = AsyncConfig::new(6, 2);
    cfg.max_latency = 7;
    cfg.dropout = dropout;
    cfg.rejoin_delay = 3;
    cfg.eval_every = 2;
    cfg.seed = 0xD15_7A7C;
    cfg
}

fn run_schedule(threads: usize, dropout: f64) -> (MethodOutcome, Vec<AsyncRoundRecord>, String) {
    let fleet = clients(4);
    let factory = factory();
    let config = fed_config(threads);
    let mut exec = LocalExecutor::new(&fleet, &factory, &config).unwrap();
    let (outcome, records) =
        run_fedasync(&fleet, &factory, &config, &async_config(dropout), &mut exec).unwrap();
    let rendered = render_async_history("replay", &records);
    (outcome, records, rendered)
}

/// `AsyncRoundRecord` carries a NaN sentinel in `average_auc` on
/// non-eval aggregations, so equality goes through `to_bits`.
fn assert_records_bitwise_equal(a: &[AsyncRoundRecord], b: &[AsyncRoundRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: aggregation count");
    for (ra, rb) in a.iter().zip(b.iter()) {
        assert_eq!(ra.aggregation, rb.aggregation, "{what}: aggregation index");
        assert_eq!(ra.tick, rb.tick, "{what}: agg {} tick", ra.aggregation);
        assert_eq!(
            ra.arrivals, rb.arrivals,
            "{what}: agg {} arrival trace",
            ra.aggregation
        );
        assert_eq!(
            ra.average_auc.to_bits(),
            rb.average_auc.to_bits(),
            "{what}: agg {} AUC bits",
            ra.aggregation
        );
        assert_eq!(
            ra.mean_train_loss.to_bits(),
            rb.mean_train_loss.to_bits(),
            "{what}: agg {} loss bits",
            ra.aggregation
        );
    }
}

/// The seeded trace — with stragglers, dropout, and rejoins in play —
/// must replay byte-for-byte: same arrival order, same ticks, same
/// staleness-weighted aggregates, same rendered table, across repeated
/// runs and every thread count × SIMD arm cell.
#[test]
fn seeded_async_schedule_replays_bitwise_across_threads_and_simd() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();

    simd::set_global(SimdBackend::Scalar);
    let (ref_outcome, ref_records, ref_rendered) = run_schedule(1, 0.25);
    assert_eq!(ref_records.len(), 6, "every aggregation must be recorded");
    assert!(
        ref_records
            .iter()
            .flat_map(|r| &r.arrivals)
            .any(|&(_, staleness)| staleness > 0),
        "the schedule must actually contain stale arrivals: {ref_rendered}"
    );

    for run in 0..2 {
        for threads in [1usize, 4] {
            for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
                simd::set_global(arm);
                let what = format!("run {run} / {threads} threads / {arm} arm");
                let (outcome, records, rendered) = run_schedule(threads, 0.25);
                assert_eq!(outcome, ref_outcome, "{what}: outcome drifted");
                assert_records_bitwise_equal(&ref_records, &records, &what);
                assert_eq!(
                    ref_rendered, rendered,
                    "{what}: rendered schedule bytes drifted"
                );
            }
        }
    }
    simd::set_global(before);
}

/// Dropout must be doing real work in that pinned trace: the same seed
/// with dropout disabled yields a *different* arrival trace (the dropped
/// dispatches and delayed rejoins are observable), while staying just as
/// reproducible.
#[test]
fn dropout_changes_the_trace_but_not_its_reproducibility() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let (_, with_dropout, _) = run_schedule(1, 0.25);
    let (_, without, _) = run_schedule(1, 0.0);
    let trace = |records: &[AsyncRoundRecord]| -> Vec<(u64, Vec<(usize, u64)>)> {
        records
            .iter()
            .map(|r| (r.tick, r.arrivals.clone()))
            .collect()
    };
    assert_ne!(
        trace(&with_dropout),
        trace(&without),
        "25% dropout must perturb the arrival schedule"
    );

    let (_, with_dropout_again, _) = run_schedule(1, 0.25);
    assert_records_bitwise_equal(&with_dropout, &with_dropout_again, "dropout replay");
    simd::set_global(before);
}
