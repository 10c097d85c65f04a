//! The two workloads: their shapes, set-up, one measured pass each, and
//! the output checks.
//!
//! Every workload is single-process, opens no sockets, and uses the
//! library's own thread budget (`RTE_THREADS`, default all cores). A
//! pass is one fixed unit of work whose outcome is a pure function of
//! the seed, so every pass of a run must give the same digest.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rte_core::{
    build_clients, build_streaming_clients, model_factory, transport_config_with_rounds,
    ExperimentConfig,
};
use rte_eda::corpus::{generate_corpus_for_specs_with, ClientSpec, CorpusConfig};
use rte_eda::shard::{CorpusReader, CorpusWriter};
use rte_fed::stream::RecordSource;
use rte_fed::{
    local_links, methods, run_rounds_resilient, Client, ClientSet, FaultPolicy, FedError, Method,
    MethodOutcome, ModelFactory, ResilientOutcome, RoundEvent, StreamingClientSet,
};
use rte_nn::models::ModelKind;
use rte_nn::StateDict;

use crate::decor::{traced_factory, TracedLink, TracedShard};
use crate::trace::{self, now, span};

/// Errors end the run without a result.
pub type BoxError = Box<dyn std::error::Error>;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Table 3 in process: nine Table 2 clients and all eight
    /// methods, streaming from raw shards written into a fresh directory.
    /// Compute-bound, and the storage path.
    Table3,
    /// FedProx over the channel backend's `LocalLink`s through the
    /// resilient coordinator loop, corpus in memory. The coordination path.
    WireFleet,
}

impl Kind {
    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Table3 => "table3",
            Kind::WireFleet => "wire-fleet",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        [Kind::Table3, Kind::WireFleet]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// The request-span name of a method, which is also its per-layer
/// metric name.
fn method_span(m: Method) -> &'static str {
    match m {
        Method::LocalOnly => "fed.method_s.local",
        Method::Centralized => "fed.method_s.central",
        Method::FedProx => "fed.method_s.fedprox",
        Method::FedProxLg => "fed.method_s.fedprox-lg",
        Method::Ifca => "fed.method_s.ifca",
        Method::FedProxFinetune => "fed.method_s.finetune",
        Method::AssignedClustering => "fed.method_s.assigned",
        Method::AlphaSync => "fed.method_s.alpha-sync",
    }
}

/// The request-span name of every method, in table row order.
pub fn method_spans() -> impl Iterator<Item = &'static str> {
    Method::ALL.into_iter().map(method_span)
}

/// Applies the seed the way the bench binaries' `--seed` does.
fn seeded(mut config: ExperimentConfig, seed: u64) -> ExperimentConfig {
    config.corpus.seed = seed;
    config.fed.seed = seed ^ 0xFED5;
    config
}

/// The experiment each workload runs. `tiny` is the shape the
/// benchmark's own tests use.
pub fn config(kind: Kind, seed: u64, tiny: bool) -> ExperimentConfig {
    match kind {
        Kind::Table3 => {
            // `table3_flnet --quick --corpus-dir <fresh dir>`.
            let mut c = if tiny {
                ExperimentConfig::tiny()
            } else {
                let mut c = ExperimentConfig::scaled();
                c.corpus.placement_scale = 0.0;
                c.fed.rounds = 2;
                c.fed.local_steps = 4;
                c.fed.finetune_steps = 8;
                c
            };
            c.methods = Method::ALL.to_vec();
            seeded(c, seed)
        }
        Kind::WireFleet => {
            let (clients, rounds, steps) = if tiny { (3, 2, 1) } else { (32, 10, 2) };
            let mut c = transport_config_with_rounds(clients, seed, true, Some(rounds));
            c.fed.local_steps = steps;
            c
        }
    }
}

/// The client specs a workload trains. A synthesized universe takes its
/// shape (per-client families, design and placement counts) from the
/// default corpus seed, so every run seed trains and evaluates the same
/// number of samples; the run seed draws only the designs and
/// placements themselves.
fn fleet_specs(config: &ExperimentConfig) -> Result<Vec<ClientSpec>, BoxError> {
    let mut shape = config.clone();
    shape.corpus.seed = CorpusConfig::scaled().seed;
    Ok(shape.client_specs()?)
}

/// One-line shape of a config, printed with every result.
pub fn describe(kind: Kind, c: &ExperimentConfig) -> String {
    let clients = c.population.map_or(9, |u| u.clients);
    format!(
        "clients={} methods={} rounds={} local_steps={} batch={} data_scale={} model=FLNet/{:?} corpus={}",
        clients,
        c.methods.len(),
        c.fed.rounds,
        c.fed.local_steps,
        c.fed.batch_size,
        c.corpus.placement_scale,
        c.model_scale,
        if kind == Kind::Table3 {
            "raw-v1-shards"
        } else {
            "memory"
        }
    )
}

/// What one set-up produced (identical for every set-up of a run).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCounts {
    /// Samples the corpus generator produced, train and test.
    pub samples: u64,
    /// Bytes of shard files written (0 for in-memory corpora).
    pub shard_bytes: u64,
}

/// What one measured pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// FNV-1a digest of the outcome.
    pub digest: u64,
    /// Every AUC is finite.
    pub finite: bool,
    /// Latency of each request (method run, round or streamed run).
    pub latencies: Vec<f64>,
    /// Attempted client-round slots (method runs on `table3`).
    pub slots: u64,
    /// Retried slots.
    pub retries: u64,
    /// Slots that missed their round.
    pub missed: u64,
    /// Coordinator rounds run.
    pub rounds: u64,
}

/// A workload with its clients built.
pub struct Bench {
    kind: Kind,
    config: ExperimentConfig,
    factory: ModelFactory,
    clients: Vec<Client>,
    work_dir: PathBuf,
    shard_dirs: Vec<PathBuf>,
    requests: u64,
    /// The last wire-fleet outcome, for the in-process comparison.
    last_wired: Option<MethodOutcome>,
    /// Whether the transport decorator's frame and byte counts have
    /// agreed with the links' own `WireStats` (`None` before a traced
    /// wire pass).
    wire_counts_agree: Option<bool>,
    /// Counts of the last set-up.
    pub setup_counts: SetupCounts,
    /// Set-ups run so far.
    pub setups: usize,
}

impl Bench {
    /// A workload whose scratch files go under `work_dir`.
    pub fn new(kind: Kind, seed: u64, tiny: bool, work_dir: &Path) -> Self {
        let config = config(kind, seed, tiny);
        Bench {
            kind,
            factory: traced_factory(model_factory(ModelKind::FlNet, config.model_scale)),
            config,
            clients: Vec::new(),
            work_dir: work_dir.to_path_buf(),
            shard_dirs: Vec::new(),
            requests: 0,
            last_wired: None,
            wire_counts_agree: None,
            setup_counts: SetupCounts::default(),
            setups: 0,
        }
    }

    /// The experiment this workload runs.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Drops the clients and shard directories of earlier set-ups.
    pub fn release(&mut self) {
        self.clients.clear();
        for dir in self.shard_dirs.drain(..) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Generates the corpus and builds the clients. `table3` writes its
    /// shards into a directory that did not exist before, so generation
    /// can never be skipped by a stale directory.
    pub fn setup(&mut self) -> Result<(), BoxError> {
        let index = self.setups;
        self.setups += 1;
        let specs = fleet_specs(&self.config)?;
        match self.kind {
            Kind::WireFleet => {
                let corpus = {
                    let _span = span("eda.generate");
                    generate_corpus_for_specs_with(
                        &specs,
                        &self.config.corpus,
                        self.config.corpus_parallelism,
                    )?
                };
                self.setup_counts = SetupCounts {
                    samples: (corpus.total_train() + corpus.total_test()) as u64,
                    shard_bytes: 0,
                };
                let _span = span("core.build_clients");
                self.clients = build_clients(&corpus)?;
            }
            Kind::Table3 => {
                let dir = self
                    .work_dir
                    .join(format!("table3-{}-{index}", std::process::id()));
                if dir.exists() {
                    std::fs::remove_dir_all(&dir)?;
                }
                self.shard_dirs.push(dir.clone());
                let shards = {
                    let _span = span("eda.generate");
                    CorpusWriter::new(&dir)
                        .with_chunk(self.config.stream_chunk)
                        .with_parallelism(self.config.corpus_parallelism)
                        .write_specs(&specs, &self.config.corpus)?
                };
                let mut counts = SetupCounts::default();
                for s in &shards {
                    counts.samples += s.samples;
                    counts.shard_bytes += std::fs::metadata(&s.path)?.len();
                }
                self.setup_counts = counts;
                let _span = span("core.build_clients");
                self.clients = build_streaming_clients(&self.config.clone().with_corpus_dir(dir))?;
            }
        }
        Ok(())
    }

    /// One measured pass.
    pub fn pass(&mut self, traced: bool) -> Result<Pass, BoxError> {
        match self.kind {
            Kind::Table3 => self.table3_pass(traced),
            Kind::WireFleet => self.wire_pass(traced),
        }
    }

    /// Opens the shards written at set-up through the `--corpus-dir`
    /// path, then runs every method on them. Every pass opens its
    /// clients afresh, so no chunk cache survives from an earlier pass
    /// and every pass reads the same records.
    fn table3_pass(&mut self, traced: bool) -> Result<Pass, BoxError> {
        let dir = self.shard_dirs.last().ok_or("no shard directory")?.clone();
        let clients = {
            let _span = span("core.open_clients");
            if traced {
                traced_stream_clients(&dir, self.config.stream_chunk)?
            } else {
                build_streaming_clients(&self.config.clone().with_corpus_dir(dir))?
            }
        };
        let mut digest = Digest::new();
        let mut pass = Pass::default();
        for &m in &self.config.methods {
            self.requests += 1;
            let start = now();
            let outcome = {
                let _request = trace::request(method_span(m), self.requests);
                methods::run_method(m, &clients, &self.factory, &self.config.fed)?
            };
            pass.latencies.push(now() - start);
            digest.outcome(&outcome);
            pass.slots += 1;
        }
        Ok(pass.finish(digest))
    }

    fn wire_pass(&mut self, traced: bool) -> Result<Pass, BoxError> {
        let (clients, factory, fed) = (&self.clients, &self.factory, &self.config.fed);
        let rounds = fed.rounds;
        let mut requests = self.requests;
        let mut marks = Vec::with_capacity(rounds + 1);
        let mut final_state: Option<StateDict> = None;
        let policy = FaultPolicy::default();
        let mut counts_agree = None;
        let run: ResilientOutcome = {
            requests += 1;
            let mut root = trace::request("fed.round", requests);
            marks.push(now());
            let mut hook = |round: usize, _seq: u64, state: &StateDict| -> Result<(), FedError> {
                marks.push(now());
                drop(root.take());
                requests += 1;
                root = if round == rounds {
                    final_state = Some(state.clone());
                    trace::request("fed.final_eval", requests)
                } else {
                    trace::request("fed.round", requests)
                };
                Ok(())
            };
            let mut links = local_links(clients, factory, fed, None)?;
            if traced {
                let before = trace::counts();
                let mut wrapped: Vec<_> =
                    links.into_iter().map(|l| TracedLink { inner: l }).collect();
                let run = run_rounds_resilient(
                    clients,
                    factory,
                    fed,
                    &mut wrapped,
                    &policy,
                    None,
                    Some(&mut hook),
                )?;
                let after = trace::counts();
                let stats = wrapped.iter().fold([0; 4], |acc, l| {
                    let s = &l.inner.stats;
                    [
                        acc[0] + s.frames_sent,
                        acc[1] + s.frames_received,
                        acc[2] + s.bytes_sent,
                        acc[3] + s.bytes_received,
                    ]
                });
                let counted = [
                    after.frames_sent - before.frames_sent,
                    after.frames_recv - before.frames_recv,
                    after.bytes_sent - before.bytes_sent,
                    after.bytes_recv - before.bytes_recv,
                ];
                counts_agree = Some(stats == counted);
                run
            } else {
                run_rounds_resilient(
                    clients,
                    factory,
                    fed,
                    &mut links,
                    &policy,
                    None,
                    Some(&mut hook),
                )?
            }
        };
        self.requests = requests;
        let mut pass = Pass {
            latencies: marks.windows(2).map(|w| w[1] - w[0]).collect(),
            rounds: run.completed_rounds as u64,
            slots: (rounds * clients.len()) as u64,
            retries: run.retries,
            ..Pass::default()
        };
        pass.missed = run
            .events
            .iter()
            .filter(|e| matches!(e, RoundEvent::Missed { .. }))
            .count() as u64;
        let mut digest = Digest::new();
        digest.outcome(&run.outcome);
        let state = final_state.ok_or("the round hook never saw the final round")?;
        for (name, tensor) in &state {
            digest.bytes(name.as_bytes());
            for v in tensor.data() {
                digest.bytes(&v.to_bits().to_le_bytes());
            }
        }
        self.last_wired = Some(run.outcome);
        if let Some(agree) = counts_agree {
            self.wire_counts_agree = Some(self.wire_counts_agree.unwrap_or(true) && agree);
        }
        Ok(pass.finish(digest))
    }

    /// Checks outside the timed phase. `wire-fleet`: the wired outcome
    /// equals the in-process `run_method(FedProx)` on the same config
    /// (determinism rule 7).
    pub fn checks(&mut self) -> Result<Vec<(&'static str, bool)>, BoxError> {
        if self.kind != Kind::WireFleet {
            return Ok(Vec::new());
        }
        let wired = self.last_wired.as_ref().ok_or("no wired outcome")?;
        let reference = methods::run_method(
            Method::FedProx,
            &self.clients,
            &self.factory,
            &self.config.fed,
        )?;
        let mut checks = vec![("wired_equals_in_process", *wired == reference)];
        if let Some(agree) = self.wire_counts_agree {
            checks.push(("wire_counts_match_link_stats", agree));
        }
        Ok(checks)
    }
}

/// The `--corpus-dir` clients over `dir`, with every shard behind the
/// counting [`TracedShard`] source and the default path's chunk size.
fn traced_stream_clients(dir: &Path, chunk: usize) -> Result<Vec<Client>, BoxError> {
    let set = |reader| -> Result<ClientSet, FedError> {
        let source: Arc<dyn RecordSource> = Arc::new(TracedShard::new(reader));
        Ok(ClientSet::streaming(StreamingClientSet::new(
            source, chunk,
        )?))
    };
    Ok(CorpusReader::open(dir)?
        .into_clients()
        .into_iter()
        .map(|c| Ok(Client::new(c.client_index, set(c.train)?, set(c.test)?)))
        .collect::<Result<_, FedError>>()?)
}

impl Drop for Bench {
    fn drop(&mut self) {
        self.release();
    }
}

impl Pass {
    fn finish(mut self, digest: Digest) -> Pass {
        self.finite = digest.finite;
        self.digest = digest.state;
        self
    }
}

/// FNV-1a over the bits of an outcome.
struct Digest {
    state: u64,
    finite: bool,
}

impl Digest {
    fn new() -> Self {
        Digest {
            state: 0xcbf2_9ce4_8422_2325,
            finite: true,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Per-client AUC bits, then every field of every per-client report
    /// (average precision, confusion counts, score histogram): all are
    /// functions of the trained model's scores. `run_method` does not
    /// return the trained state, so this is the closest fingerprint of it.
    fn outcome(&mut self, outcome: &MethodOutcome) {
        for auc in &outcome.per_client_auc {
            self.finite &= auc.is_finite();
            self.bytes(&auc.to_bits().to_le_bytes());
        }
        self.bytes(format!("{:?}", outcome.per_client).as_bytes());
    }
}
