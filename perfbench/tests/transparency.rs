//! Transparency and counter tests on the tiny shapes: tracing must leave
//! every outcome unchanged, and the exact counters must repeat bitwise
//! across `RTE_THREADS` values.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 2] = ["table3", "wire-fleet"];

/// Counters that are a pure function of the workload shape and seed.
const EXACT: [&str; 11] = [
    "nn.train_samples",
    "nn.eval_samples",
    "eda.samples_generated",
    "eda.shard_bytes_written",
    "eda.read_calls",
    "eda.read_samples",
    "fed.slots",
    "net.frames_sent",
    "net.frames_recv",
    "net.bytes_sent",
    "net.bytes_recv",
];

struct Run {
    digest: String,
    metrics: BTreeMap<String, String>,
}

fn run(workload: &str, trace: bool, threads: &str) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("{workload}-{}-{threads}", u8::from(trace)));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .env("RTE_THREADS", threads)
        .current_dir(&dir)
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} threads={threads} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    let field = |prefix: &str| {
        stdout
            .lines()
            .filter_map(|l| l.strip_prefix(prefix))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    let metrics = field("metric ")
        .into_iter()
        .map(|l| {
            let mut parts = l.split(' ');
            let name = parts.next().expect("metric name").to_string();
            (name, parts.next().expect("metric value").to_string())
        })
        .collect();
    Run {
        digest: field("outcome_digest ").pop().expect("outcome_digest line"),
        metrics,
    }
}

#[test]
fn tracing_leaves_every_outcome_digest_unchanged() {
    for workload in WORKLOADS {
        let plain = run(workload, false, "2");
        let traced = run(workload, true, "2");
        assert_eq!(plain.digest, traced.digest, "{workload}");
    }
}

/// `nn.models_built` is exact but not thread-invariant: the library
/// builds one scratch model per worker thread. It must repeat at a fixed
/// thread count.
#[test]
fn exact_counters_repeat_across_thread_counts() {
    let mut differ = Vec::new();
    for workload in WORKLOADS {
        let one = run(workload, true, "1");
        let two = run(workload, true, "2");
        let again = run(workload, true, "2");
        assert_eq!(one.digest, two.digest, "{workload}");
        assert_eq!(
            two.metrics.get("nn.models_built"),
            again.metrics.get("nn.models_built"),
            "{workload}"
        );
        for name in EXACT {
            let (a, b) = (one.metrics.get(name), two.metrics.get(name));
            assert!(a.is_some(), "{workload} prints no {name}");
            if a != b {
                differ.push(format!("{workload} {name}: {a:?} vs {b:?}"));
            }
        }
    }
    assert!(differ.is_empty(), "{differ:#?}");
}
