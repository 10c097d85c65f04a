//! Checkpoint/resume guards: a coordinator killed mid-run and restarted
//! from its newest on-disk checkpoint must finish with **byte-identical**
//! output to the uninterrupted run — across thread counts and SIMD arms
//! (the checkpoint digest deliberately excludes parallelism), under
//! plain and secure aggregation alike, and through the real binary
//! (`--die-after` / `--resume`).

use std::sync::Mutex;

use decentralized_routability::fed::{
    config_digest, latest_checkpoint, local_links, read_checkpoint, run_rounds_resilient,
    write_checkpoint, Checkpoint, FaultPolicy, FedConfig, ModelFactory, Parallelism, ResumePoint,
    SecureConfig,
};
use decentralized_routability::fed::{Client, ClientSet};
use decentralized_routability::net::RetryPolicy;
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::nn::StateDict;
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::simd::{self, SimdBackend};
use decentralized_routability::tensor::Tensor;

/// Tests that mutate the process-global SIMD arm serialize on this lock
/// (same pattern as `tests/transport_determinism.rs`).
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

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
        .map(|k| synthetic_client(k + 1, 5, 3, 9300 + k as u64))
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

fn config(threads: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.rounds = 4;
    config.local_steps = 2;
    config.batch_size = 2;
    config.seed = 4207;
    config.parallelism = Parallelism::new(threads);
    config
}

fn policy(secure: Option<SecureConfig>) -> FaultPolicy {
    FaultPolicy {
        retry: RetryPolicy::immediate(2),
        min_quorum: 3,
        secure,
        ..FaultPolicy::default()
    }
}

/// Runs the resilient loop, writing a checkpoint to `dir` after every
/// round; aborts the run (simulating the kill) right after `die_after`.
fn run_checkpointed(
    config: &FedConfig,
    dir: &std::path::Path,
    die_after: Option<usize>,
) -> Option<decentralized_routability::fed::ResilientOutcome> {
    run_checkpointed_with(config, None, dir, die_after)
}

/// [`run_checkpointed`] under an explicit secure setting.
fn run_checkpointed_with(
    config: &FedConfig,
    secure: Option<SecureConfig>,
    dir: &std::path::Path,
    die_after: Option<usize>,
) -> Option<decentralized_routability::fed::ResilientOutcome> {
    let fleet = clients(3);
    let factory = factory();
    let digest = config_digest(config, &fleet);
    let mut links = local_links(&fleet, &factory, config, secure).unwrap();
    let mut hook = |round: usize, seq: u64, state: &StateDict| {
        write_checkpoint(
            dir,
            &Checkpoint {
                round: round as u64,
                seq,
                digest,
                state: state.clone(),
            },
        )?;
        if Some(round) == die_after {
            // The test's stand-in for `kill -9`: stop driving rounds.
            return Err(decentralized_routability::fed::FedError::Checkpoint {
                reason: "killed by test".into(),
            });
        }
        Ok(())
    };
    run_rounds_resilient(
        &fleet,
        &factory,
        config,
        &mut links,
        &policy(secure),
        None,
        Some(&mut hook),
    )
    .ok()
}

/// Resumes from the newest checkpoint in `dir` and runs to completion.
fn resume_from_disk(
    config: &FedConfig,
    dir: &std::path::Path,
) -> decentralized_routability::fed::ResilientOutcome {
    resume_from_disk_with(config, None, dir)
}

/// [`resume_from_disk`] under an explicit secure setting.
fn resume_from_disk_with(
    config: &FedConfig,
    secure: Option<SecureConfig>,
    dir: &std::path::Path,
) -> decentralized_routability::fed::ResilientOutcome {
    let fleet = clients(3);
    let factory = factory();
    let digest = config_digest(config, &fleet);
    let path = latest_checkpoint(dir)
        .unwrap()
        .expect("a checkpoint exists");
    let ckpt = read_checkpoint(&path, Some(digest)).unwrap();
    let mut links = local_links(&fleet, &factory, config, secure).unwrap();
    run_rounds_resilient(
        &fleet,
        &factory,
        config,
        &mut links,
        &policy(secure),
        Some(ResumePoint {
            round: ckpt.round as usize,
            seq: ckpt.seq,
            state: ckpt.state,
        }),
        None,
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rte-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full disk round trip: a run killed after round 2 whose successor
/// resumes from the newest checkpoint *file* finishes with the same
/// final-table bits as the uninterrupted run.
#[test]
fn killed_run_resumes_from_disk_bit_identically() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let config = config(1);
    let full = run_checkpointed(&config, &temp_dir("full"), None).expect("uninterrupted run");

    let dir = temp_dir("killed");
    assert!(
        run_checkpointed(&config, &dir, Some(2)).is_none(),
        "the kill hook must abort the run"
    );
    // Only rounds 1 and 2 made it to disk.
    let newest = latest_checkpoint(&dir).unwrap().unwrap();
    assert!(newest.to_string_lossy().contains("0000000002"));

    let resumed = resume_from_disk(&config, &dir);
    assert_eq!(resumed.completed_rounds, config.rounds);
    for (a, b) in resumed
        .outcome
        .per_client
        .iter()
        .zip(full.outcome.per_client.iter())
    {
        assert_eq!(a.auc.to_bits(), b.auc.to_bits(), "resumed AUC bits drifted");
    }
    assert_eq!(
        resumed.outcome.average_auc.to_bits(),
        full.outcome.average_auc.to_bits()
    );
    simd::set_global(before);
}

/// The same kill-and-resume under secure aggregation: the masked
/// aggregate is exact, so a secure run resumed from its round-2
/// checkpoint finishes on the uninterrupted secure run's bits.
#[test]
fn secure_killed_run_resumes_from_disk_bit_identically() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let config = config(1);
    let secure = Some(SecureConfig::default());
    let full = run_checkpointed_with(&config, secure, &temp_dir("sfull"), None)
        .expect("uninterrupted secure run");
    let dir = temp_dir("skilled");
    assert!(run_checkpointed_with(&config, secure, &dir, Some(2)).is_none());

    let resumed = resume_from_disk_with(&config, secure, &dir);
    assert_eq!(resumed.completed_rounds, config.rounds);
    assert_eq!(resumed.outcome.per_client, full.outcome.per_client);
    for (a, b) in resumed
        .outcome
        .per_client
        .iter()
        .zip(full.outcome.per_client.iter())
    {
        assert_eq!(a.auc.to_bits(), b.auc.to_bits(), "resumed AUC bits drifted");
    }
    assert_eq!(
        resumed.outcome.average_auc.to_bits(),
        full.outcome.average_auc.to_bits()
    );
    simd::set_global(before);
}

/// The digest excludes parallelism by design: a checkpoint written at 1
/// thread on the scalar arm resumes at 4 threads on the detected arm —
/// and still lands on the same bits (rules 2 + 3 compose with resume).
#[test]
fn resume_crosses_thread_counts_and_simd_arms() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();

    simd::set_global(SimdBackend::Scalar);
    let full = run_checkpointed(&config(1), &temp_dir("xfull"), None).expect("uninterrupted run");
    let dir = temp_dir("xkilled");
    assert!(run_checkpointed(&config(1), &dir, Some(2)).is_none());

    for threads in [1usize, 4] {
        for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
            simd::set_global(arm);
            let resumed = resume_from_disk(&config(threads), &dir);
            assert_eq!(
                resumed.outcome.average_auc.to_bits(),
                full.outcome.average_auc.to_bits(),
                "resume drifted at {threads} threads / {arm} arm"
            );
        }
    }
    simd::set_global(before);
}

/// A checkpoint from a *different* experiment must not resume: the
/// config digest check turns the mismatch into a typed error.
#[test]
fn checkpoint_from_another_config_is_rejected() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let dir = temp_dir("mismatch");
    assert!(run_checkpointed(&config(1), &dir, Some(2)).is_none());
    let path = latest_checkpoint(&dir).unwrap().unwrap();

    let mut other = config(1);
    other.seed ^= 1;
    let fleet = clients(3);
    let other_digest = config_digest(&other, &fleet);
    let err = read_checkpoint(&path, Some(other_digest)).unwrap_err();
    assert!(
        matches!(
            err,
            decentralized_routability::fed::CheckpointError::DigestMismatch { .. }
        ),
        "got {err:?}"
    );
    simd::set_global(before);
}

/// Kills the coordinator binary with `--die-after 2`, resumes it from
/// disk, and requires the uninterrupted run's table bytes.
fn binary_resumes_to_identical_table_bytes(tag: &str, extra_flags: &[&str]) {
    let base = [
        "--transport",
        "channel",
        "--clients",
        "3",
        "--quick",
        "--seed",
        "42",
        "--rounds",
        "4",
    ];
    let dir = temp_dir(tag);
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_rte-coordinator"))
            .args(base)
            .args(extra_flags)
            .args(extra)
            .output()
            .unwrap()
    };

    let full = run(&[]);
    assert!(full.status.success());

    let dir_flag = dir.to_str().unwrap();
    let killed = run(&["--checkpoint-dir", dir_flag, "--die-after", "2"]);
    assert_eq!(
        killed.status.code(),
        Some(17),
        "die-after must exit with its own code: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        killed.stdout.is_empty(),
        "a killed run must not print a table"
    );

    let resumed = run(&["--checkpoint-dir", dir_flag, "--resume"]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8(resumed.stdout).unwrap(),
        String::from_utf8(full.stdout).unwrap(),
        "resumed table must be byte-identical to the uninterrupted run"
    );
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("resume: round 2"),
        "the resumed run must report where it picked up"
    );
}

/// Release-gated end-to-end pin: the `rte-coordinator` binary killed by
/// `--die-after 2` (exit code 17) and restarted with `--resume` must
/// print byte-for-byte the table of an uninterrupted run. CI runs this
/// via `--release -- --include-ignored`.
#[test]
#[ignore = "release-only: three full coordinator runs (CI runs with --include-ignored)"]
fn killed_coordinator_binary_resumes_to_identical_table_bytes() {
    binary_resumes_to_identical_table_bytes("binary", &[]);
}

/// The same binary pin with `--secure`: checkpoints and resume cover
/// masked rounds too.
#[test]
#[ignore = "release-only: three full coordinator runs (CI runs with --include-ignored)"]
fn killed_secure_coordinator_binary_resumes_to_identical_table_bytes() {
    binary_resumes_to_identical_table_bytes("binary-secure", &["--secure"]);
}
