//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table3|wire-fleet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload through the library's public entry points, checks
//! its outputs, and prints as the last line of standard output one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics from a traced run (`--trace 1`).
//! Earlier lines carry the machine fingerprint, the workload shape and
//! the `outcome_digest`. See `perfbench/README.md` for every metric.

mod decor;
mod procfs;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use trace::{now, Counts, Times};
use workloads::{Bench, BoxError, Kind, Pass};

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken less than `SETUP_SECONDS` in all. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;

/// Where the benchmark writes shards and traces, relative to the
/// directory it runs from.
const WORK_DIR: &str = ".bench_run";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: u64 = v.parse().map_err(|_| format!("bad seconds {v}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v}")),
                });
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <table3|wire-fleet> --seed N \
                 --seconds S --trace <0|1> [--tiny]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sums of the passes of one phase.
#[derive(Default)]
struct Phase {
    passes: u64,
    elapsed: f64,
    latencies: Vec<f64>,
    /// Training samples per second of each pass.
    rates: Vec<f64>,
    digests: Vec<u64>,
    finite: bool,
    slots: u64,
    retries: u64,
    missed: u64,
    rounds: u64,
    cpu_s: f64,
    ctx_switches: u64,
    counts: Counts,
}

impl Phase {
    fn add(&mut self, pass: Pass) {
        self.passes += 1;
        self.latencies.extend(pass.latencies);
        self.digests.push(pass.digest);
        self.finite &= pass.finite;
        self.slots += pass.slots;
        self.retries += pass.retries;
        self.missed += pass.missed;
        self.rounds += pass.rounds;
    }

    /// Upper quartile over passes. Interference from other tenants of a
    /// shared machine only ever slows a pass down; the upper quartile
    /// holds while slow periods cover up to three quarters of the run,
    /// where a median holds only up to half.
    fn throughput(&self) -> f64 {
        quantile(&self.rates, 0.75)
    }
}

/// Runs passes until `seconds` have elapsed (at least one).
fn measure(bench: &mut Bench, seconds: f64, traced: bool) -> Result<Phase, BoxError> {
    trace::reset_counters();
    trace::set_enabled(traced);
    let mut phase = Phase {
        finite: true,
        ..Phase::default()
    };
    let (cpu0, ctx0) = (procfs::cpu_seconds(), procfs::ctx_switches());
    let start = now();
    loop {
        let (t0, n0) = (now(), trace::counts().train_samples);
        let pass = bench.pass(traced)?;
        let (t1, n1) = (now(), trace::counts().train_samples);
        phase.rates.push((n1 - n0) as f64 / (t1 - t0));
        phase.add(pass);
        if now() - start >= seconds {
            break;
        }
    }
    phase.elapsed = now() - start;
    trace::set_enabled(false);
    phase.cpu_s = procfs::cpu_seconds() - cpu0;
    phase.ctx_switches = procfs::ctx_switches().saturating_sub(ctx0);
    phase.counts = trace::counts();
    Ok(phase)
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`. Below twenty samples that percentile would not
/// lie above the median, so the maximum is reported instead.
fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 20 {
        return (100.0, v[n - 1]);
    }
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

fn fingerprint() -> String {
    let (cpu, avx2, avx512f) = procfs::cpu_info();
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"avx2\": {avx2}, \"avx512f\": {avx512f}, \
         \"rte_threads\": {}, \"rte_simd\": \"{}\", \"rustc\": \"{}\"}}",
        procfs::nproc(),
        cpu.replace('"', "'"),
        rte_tensor::parallel::global().resolve(),
        rte_tensor::simd::global().name(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// One printed metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics. The request tail and the failed share are
/// printed beside them: on a shared machine the tail mostly measures
/// interference from outside the benchmark, and the failed share is 0 on
/// a healthy run, so neither has a steady relative spread.
fn end_to_end(setup: &[f64], phase: &Phase, rss_mb: f64) -> Vec<Metric> {
    let (pct, tail_value) = tail(&phase.latencies);
    println!(
        "request_tail_s {tail_value} s (p{pct:.1} of {} requests)",
        phase.latencies.len()
    );
    vec![
        metric("setup_s", "s", median(setup)),
        metric("train_samples_per_s", "samples/s", phase.throughput()),
        metric("request_p50_s", "s", median(&phase.latencies)),
        metric("peak_rss_mb", "MB", rss_mb),
    ]
}

fn per_layer(
    setup_times: &std::collections::BTreeMap<&'static str, Times>,
    bench: &Bench,
    spans: &std::collections::BTreeMap<&'static str, Times>,
    traced: &Phase,
    untraced: &Phase,
) -> Vec<Metric> {
    let passes = traced.passes as f64;
    let setups = bench.setups as f64;
    let total = |name: &str| spans.get(name).map_or(0.0, |t| t.total) / passes;
    let self_time = |name: &str| spans.get(name).map_or(0.0, |t| t.self_time) / passes;
    let setup_total = |name: &str| setup_times.get(name).map_or(0.0, |t| t.total) / setups;
    let c = traced.counts;
    let per_pass = |n: u64| n as f64 / passes;
    let rounds = traced.rounds as f64 / passes;
    let bytes_per_pass = per_pass(c.bytes_sent + c.bytes_recv);
    let request_self: f64 = ["fed.round"]
        .into_iter()
        .chain(workloads::method_spans())
        .map(self_time)
        .sum();
    let mut out = vec![
        metric("eda.generate_s", "s", setup_total("eda.generate")),
        metric(
            "eda.samples_generated",
            "count",
            bench.setup_counts.samples as f64,
        ),
        metric(
            "eda.shard_bytes_written",
            "bytes",
            bench.setup_counts.shard_bytes as f64,
        ),
        metric(
            "core.build_clients_s",
            "s",
            setup_total("core.build_clients"),
        ),
        metric("eda.read_calls", "count", per_pass(c.read_calls)),
        metric("eda.read_samples", "count", per_pass(c.read_samples)),
        metric("eda.read_s", "s", total("eda.read")),
        metric("nn.train_fwd_s", "s", total("nn.train_fwd")),
        metric("nn.train_bwd_s", "s", total("nn.train_bwd")),
        metric("nn.eval_fwd_s", "s", total("nn.eval_fwd")),
        metric("nn.train_samples", "count", per_pass(c.train_samples)),
        metric("nn.eval_samples", "count", per_pass(c.eval_samples)),
        metric("nn.state_s", "s", total("nn.state")),
        metric("nn.models_built", "count", per_pass(c.models_built)),
        metric("nn.build_s", "s", total("nn.build")),
    ];
    for span_name in workloads::method_spans() {
        out.push(metric(span_name, "s", total(span_name)));
    }
    out.extend([
        metric("fed.coord_self_s", "s", request_self),
        metric("fed.final_eval_s", "s", total("fed.final_eval")),
        metric("fed.slots", "count", traced.slots as f64 / passes),
        metric("fed.retries", "count", traced.retries as f64 / passes),
        metric("fed.missed_slots", "count", traced.missed as f64 / passes),
        metric("net.frames_sent", "count", per_pass(c.frames_sent)),
        metric("net.frames_recv", "count", per_pass(c.frames_recv)),
        metric("net.bytes_sent", "bytes", per_pass(c.bytes_sent)),
        metric("net.bytes_recv", "bytes", per_pass(c.bytes_recv)),
        metric(
            "net.bytes_per_round",
            "bytes",
            if rounds > 0.0 {
                bytes_per_pass / rounds
            } else {
                0.0
            },
        ),
        metric("net.send_self_s", "s", self_time("net.send")),
        metric("net.recv_s", "s", total("net.recv")),
        metric("proc.cpu_s", "s", traced.cpu_s / passes),
        metric(
            "proc.cpu_util",
            "ratio",
            traced.cpu_s / (traced.elapsed * procfs::nproc() as f64),
        ),
        metric(
            "proc.ctx_switches",
            "count",
            traced.ctx_switches as f64 / passes,
        ),
        metric(
            "trace.overhead_share",
            "ratio",
            1.0 - traced.throughput() / untraced.throughput(),
        ),
    ]);
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn run(args: &Args) -> Result<bool, BoxError> {
    let work_dir = PathBuf::from(WORK_DIR);
    let mut bench = Bench::new(args.kind, args.seed, args.tiny, &work_dir);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint());
    println!("shape {}", workloads::describe(args.kind, bench.config()));

    trace::set_enabled(args.trace);
    let mut setup = Vec::new();
    while setup.len() < MIN_SETUPS || setup.iter().sum::<f64>() < SETUP_SECONDS {
        bench.release();
        let start = now();
        bench.setup()?;
        setup.push(now() - start);
    }
    trace::set_enabled(false);
    let setup_spans = trace::summarize(&trace::take_spans());

    let phase_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // One untimed pass first, so lazy set-up and caches settle before
    // timing; its digest joins the checks. Peak memory is read after it:
    // set-up plus one pass is a fixed amount of work, while allocator
    // growth over later passes depends on how many fit in the run.
    let warmup = bench.pass(false)?;
    let rss_mb = procfs::peak_rss_mb();
    let untraced = measure(&mut bench, phase_seconds, false)?;
    let traced = if args.trace {
        Some(measure(&mut bench, phase_seconds, true)?)
    } else {
        None
    };
    let spans = trace::take_spans();

    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let phases: Vec<&Phase> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let digest = warmup.digest;
    checks.push((
        "digest_repeats",
        phases
            .iter()
            .all(|p| p.digests.iter().all(|&d| d == digest)),
    ));
    checks.push((
        "aucs_finite",
        warmup.finite && phases.iter().all(|p| p.finite),
    ));
    checks.extend(bench.checks()?);
    let correct = checks.iter().all(|&(_, ok)| ok);

    let attempted: u64 = phases.iter().map(|p| p.slots).sum();
    let mismatched: u64 = phases
        .iter()
        .map(|p| {
            let per_pass = p.slots / p.passes;
            p.digests.iter().filter(|&&d| d != digest).count() as u64 * per_pass
        })
        .sum();
    let failed = phases.iter().map(|p| p.retries + p.missed).sum::<u64>() + mismatched;

    println!("outcome_digest {digest:016x}");
    println!("failed_share {failed}/{attempted}");
    for (name, ok) in &checks {
        println!("check {name} {}", if *ok { "ok" } else { "FAILED" });
    }
    let metrics = match &traced {
        None => end_to_end(&setup, &untraced, rss_mb),
        Some(traced) => {
            let summary = trace::summarize(&spans);
            let path = Path::new(WORK_DIR).join(format!(
                "trace-{}-seed{}.tsv",
                args.kind.name(),
                args.seed
            ));
            trace::write_spans(&path, &spans)?;
            println!("trace {} spans written to {}", spans.len(), path.display());
            per_layer(&setup_spans, &bench, &summary, traced, &untraced)
        }
    };
    let passes: u64 = phases.iter().map(|p| p.passes).sum();
    println!("passes {passes}");
    for m in &metrics {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
