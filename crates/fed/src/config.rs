//! Federated training configuration and method selection.

use rte_tensor::parallel::Parallelism;

use crate::FedError;

/// The training method column of the paper's Tables 3-5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Train one model per client on its own data only (`b_1 … b_K`).
    LocalOnly,
    /// Pool all clients' data on one machine (the privacy-free upper
    /// bound).
    Centralized,
    /// FedProx (§4.1) — the proposed generalized-model method.
    FedProx,
    /// FedProx-LG (§4.3): aggregate only the global part, keep the output
    /// layer local.
    FedProxLg,
    /// Iterative Federated Clustering Algorithm (§4.3).
    Ifca,
    /// FedProx followed by per-client local fine-tuning (§4.3).
    FedProxFinetune,
    /// Clustered FedProx with pre-assigned clusters (§4.3).
    AssignedClustering,
    /// FedProx with α-portion personalized aggregation (§4.3).
    AlphaSync,
}

impl Method {
    /// All methods in the row order of the paper's tables.
    pub const ALL: [Method; 8] = [
        Method::LocalOnly,
        Method::Centralized,
        Method::FedProx,
        Method::FedProxLg,
        Method::Ifca,
        Method::FedProxFinetune,
        Method::AssignedClustering,
        Method::AlphaSync,
    ];

    /// Row label as the paper's tables print it.
    pub fn label(&self) -> &'static str {
        match self {
            Method::LocalOnly => "Local Average (b1 to b9)",
            Method::Centralized => "Training Centrally on All Data",
            Method::FedProx => "FedProx",
            Method::FedProxLg => "FedProx-LG",
            Method::Ifca => "IFCA",
            Method::FedProxFinetune => "FedProx + Fine-tuning",
            Method::AssignedClustering => "Assigned Clustering",
            Method::AlphaSync => "FedProx + α-Portion Sync",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Server-side aggregation rule applied when a method combines client
/// updates — the defense axis of the `table6_robustness` grid.
///
/// All three rules are fixed-order deterministic reductions performed on
/// the coordinator thread (determinism-contract rule 6): the robust
/// rules sort each coordinate's values with a NaN-last total order, so a
/// hostile minority cannot panic the server or poison the aggregate with
/// non-finite values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// Example-count weighted mean `Σ_k (n_k/n) w_k` — the paper's
    /// Fig. 1 rule and the default. No Byzantine robustness: a single
    /// corrupted update contaminates every coordinate.
    WeightedMean,
    /// Coordinate-wise median (ignores client weights). Tolerates up to
    /// `⌈K/2⌉ − 1` arbitrary updates per coordinate.
    Median,
    /// Coordinate-wise trimmed mean (ignores client weights): drop the
    /// `⌊trim_ratio · K⌋` smallest and largest values per coordinate,
    /// average the rest.
    TrimmedMean {
        /// Fraction trimmed from *each* end, in `[0, 0.5)`.
        trim_ratio: f32,
    },
}

impl Aggregation {
    /// Short column label used by the robustness grid renderers.
    pub fn label(&self) -> &'static str {
        match self {
            Aggregation::WeightedMean => "mean",
            Aggregation::Median => "median",
            Aggregation::TrimmedMean { .. } => "trimmed",
        }
    }

    /// Validates the rule's own parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for a trim ratio outside
    /// `[0, 0.5)` (trimming half or more from both ends leaves nothing).
    pub fn validate(&self) -> Result<(), FedError> {
        if let Aggregation::TrimmedMean { trim_ratio } = self {
            if !(0.0..0.5).contains(trim_ratio) {
                return Err(FedError::InvalidConfig {
                    reason: format!("trim_ratio {trim_ratio} outside [0, 0.5)"),
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Aggregation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Largest local step count a round may ask of a client: 100× the
/// paper's `S`. [`FedConfig::validate_core`] enforces it on the
/// coordinator, and a client rejects a decoded deploy above it, so a
/// hostile or corrupt deploy cannot pin a client for `u64::MAX` steps.
pub const MAX_LOCAL_STEPS: usize = 10_000;

/// Hyper-parameters of the federated experiments (paper §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct FedConfig {
    /// Number of communication rounds `R` (paper: 50).
    pub rounds: usize,
    /// Local update steps per round `S` (paper: 100).
    pub local_steps: usize,
    /// Fine-tuning steps `S'` (paper: 5000).
    pub finetune_steps: usize,
    /// Minibatch size for local updates.
    pub batch_size: usize,
    /// Learning rate (paper: 2e-4).
    pub lr: f32,
    /// L2 regularization strength (paper: 1e-5).
    pub weight_decay: f32,
    /// FedProx proximal strength μ (paper: 1e-4).
    pub mu: f32,
    /// α-portion sync mixing weight (paper: 0.5).
    pub alpha: f32,
    /// Number of IFCA clusters `C` (paper: 4).
    pub clusters: usize,
    /// Pre-assigned clusters for assigned clustering, as lists of 0-based
    /// client positions (paper: {1-3}, {4-6}, {7-8}, {9}).
    pub assigned_clusters: Vec<Vec<usize>>,
    /// Evaluate the global model every this many rounds and record it in
    /// the outcome history (0 = final evaluation only).
    pub eval_every: usize,
    /// Fraction of clients participating per round, in `(0, 1]`. The
    /// paper uses full participation (1.0); real FL deployments sample a
    /// subset each round. At least one client always participates.
    pub participation: f32,
    /// Server-side aggregation rule used wherever a method combines
    /// client updates (the global FedProx average, FedProx-LG's global
    /// part, IFCA/assigned per-cluster averages, α-portion sync's
    /// rest-of-fleet average). [`Aggregation::WeightedMean`] reproduces
    /// the paper; the robust rules defend against Byzantine clients.
    pub aggregation: Aggregation,
    /// Hostile-client scenario injected into the harness (`None` = the
    /// paper's clean federation). See [`crate::scenario::ScenarioConfig`].
    pub scenario: Option<crate::scenario::ScenarioConfig>,
    /// Worker-thread budget for training a round's participants in
    /// parallel (each client is an independent work unit, exactly as in
    /// the real decentralized deployment). Outcomes are **bit-identical
    /// for every setting** — aggregation always happens on the
    /// coordinator thread in fixed client order — so this knob only
    /// trades wall-clock for threads. The constructors read the
    /// `RTE_THREADS` environment variable (unset = all cores).
    pub parallelism: Parallelism,
    /// Master seed for batch sampling and model initialization.
    pub seed: u64,
}

impl FedConfig {
    /// The paper's hyper-parameters (slow on CPU: 50 rounds × 100 steps).
    pub fn paper() -> Self {
        FedConfig {
            rounds: 50,
            local_steps: 100,
            finetune_steps: 5000,
            batch_size: 8,
            lr: 2e-4,
            weight_decay: 1e-5,
            mu: 1e-4,
            alpha: 0.5,
            clusters: 4,
            assigned_clusters: Self::paper_assignment(),
            eval_every: 0,
            participation: 1.0,
            aggregation: Aggregation::WeightedMean,
            scenario: None,
            parallelism: Parallelism::from_env(),
            seed: 0xF3D5_EED5,
        }
    }

    /// CPU-scale settings preserving the paper's structure (fewer rounds
    /// and steps, higher learning rate to compensate for the shorter
    /// schedule).
    pub fn scaled() -> Self {
        FedConfig {
            rounds: 10,
            local_steps: 20,
            finetune_steps: 150,
            batch_size: 4,
            lr: 2e-3,
            weight_decay: 1e-5,
            mu: 1e-4,
            alpha: 0.5,
            clusters: 4,
            assigned_clusters: Self::paper_assignment(),
            eval_every: 0,
            participation: 1.0,
            aggregation: Aggregation::WeightedMean,
            scenario: None,
            parallelism: Parallelism::from_env(),
            seed: 0xF3D5_EED5,
        }
    }

    /// Minimal settings for unit tests.
    pub fn tiny() -> Self {
        FedConfig {
            rounds: 2,
            local_steps: 3,
            finetune_steps: 5,
            batch_size: 2,
            lr: 5e-3,
            weight_decay: 0.0,
            mu: 1e-4,
            alpha: 0.5,
            clusters: 2,
            assigned_clusters: vec![vec![0], vec![1]],
            eval_every: 0,
            participation: 1.0,
            aggregation: Aggregation::WeightedMean,
            scenario: None,
            parallelism: Parallelism::from_env(),
            seed: 7,
        }
    }

    /// The paper's fixed cluster assignment: clients 1-3 (ITC'99),
    /// 4-6 (ISCAS'89), 7-8 (IWLS'05), 9 (ISPD'15), as 0-based positions.
    pub fn paper_assignment() -> Vec<Vec<usize>> {
        vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7], vec![8]]
    }

    /// Validates the method-independent hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] for zero rounds/steps/batch,
    /// `local_steps` above [`MAX_LOCAL_STEPS`], or out-of-range α/μ.
    pub fn validate_core(&self) -> Result<(), FedError> {
        if self.rounds == 0 || self.local_steps == 0 || self.batch_size == 0 {
            return Err(FedError::InvalidConfig {
                reason: "rounds, local_steps and batch_size must be positive".into(),
            });
        }
        if self.local_steps > MAX_LOCAL_STEPS {
            return Err(FedError::InvalidConfig {
                reason: format!(
                    "local_steps {} exceeds MAX_LOCAL_STEPS {MAX_LOCAL_STEPS}",
                    self.local_steps
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(FedError::InvalidConfig {
                reason: format!("alpha {} outside [0, 1]", self.alpha),
            });
        }
        if self.mu < 0.0 {
            return Err(FedError::InvalidConfig {
                reason: format!("negative mu {}", self.mu),
            });
        }
        if !(0.0..=1.0).contains(&self.participation) || self.participation <= 0.0 {
            return Err(FedError::InvalidConfig {
                reason: format!("participation {} outside (0, 1]", self.participation),
            });
        }
        self.aggregation.validate()?;
        Ok(())
    }

    /// Validates the IFCA cluster count against a client count.
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] when `clusters` is zero or
    /// exceeds `n_clients`.
    pub fn validate_clusters(&self, n_clients: usize) -> Result<(), FedError> {
        if self.clusters == 0 || self.clusters > n_clients {
            return Err(FedError::InvalidConfig {
                reason: format!("clusters {} vs {n_clients} clients", self.clusters),
            });
        }
        Ok(())
    }

    /// Validates that `assigned_clusters` is a partition of
    /// `0..n_clients` (required by assigned clustering).
    ///
    /// # Errors
    ///
    /// Returns [`FedError::InvalidConfig`] otherwise.
    pub fn validate_assignment(&self, n_clients: usize) -> Result<(), FedError> {
        let mut seen = vec![false; n_clients];
        for group in &self.assigned_clusters {
            for &k in group {
                if k >= n_clients || seen[k] {
                    return Err(FedError::InvalidConfig {
                        reason: format!("assigned clusters are not a partition of 0..{n_clients}"),
                    });
                }
                seen[k] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(FedError::InvalidConfig {
                reason: "assigned clusters miss some clients".into(),
            });
        }
        Ok(())
    }

    /// Validates everything at once for a given client count.
    ///
    /// # Errors
    ///
    /// See [`FedConfig::validate_core`], [`FedConfig::validate_clusters`]
    /// and [`FedConfig::validate_assignment`].
    pub fn validate(&self, n_clients: usize) -> Result<(), FedError> {
        self.validate_core()?;
        self.validate_clusters(n_clients)?;
        self.validate_assignment(n_clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_section_5_1() {
        let c = FedConfig::paper();
        assert_eq!(c.rounds, 50);
        assert_eq!(c.local_steps, 100);
        assert_eq!(c.finetune_steps, 5000);
        assert_eq!(c.lr, 2e-4);
        assert_eq!(c.weight_decay, 1e-5);
        assert_eq!(c.mu, 1e-4);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.clusters, 4);
        assert_eq!(c.assigned_clusters.len(), 4);
        assert!(MAX_LOCAL_STEPS >= c.local_steps);
    }

    #[test]
    fn paper_assignment_partitions_nine_clients() {
        let c = FedConfig::paper();
        assert!(c.validate(9).is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = FedConfig::tiny();
        c.rounds = 0;
        assert!(c.validate(2).is_err());

        let mut c = FedConfig::tiny();
        c.alpha = 2.0;
        assert!(c.validate(2).is_err());

        let mut c = FedConfig::tiny();
        c.local_steps = MAX_LOCAL_STEPS + 1;
        assert!(c.validate(2).is_err(), "above the client step cap");

        let mut c = FedConfig::tiny();
        c.assigned_clusters = vec![vec![0, 0], vec![1]];
        assert!(c.validate(2).is_err());

        let mut c = FedConfig::tiny();
        c.assigned_clusters = vec![vec![0]];
        assert!(c.validate(2).is_err(), "missing client 1");

        let mut c = FedConfig::tiny();
        c.clusters = 5;
        assert!(c.validate(2).is_err());
    }

    #[test]
    fn method_labels_match_tables() {
        assert_eq!(Method::ALL.len(), 8);
        assert_eq!(Method::FedProx.to_string(), "FedProx");
        assert!(Method::LocalOnly.label().contains("b1 to b9"));
        assert!(Method::AlphaSync.label().contains("α-Portion"));
    }
}
