//! # verifas-bench — the experiment harness
//!
//! Shared machinery for the binaries that regenerate every table and
//! figure of the paper's evaluation (Section 4).  Each binary prints the
//! same rows/columns as the corresponding table.
//!
//! All binaries accept `--quick` to run on smaller workload sets with a
//! shorter per-run budget (useful in CI), and `--seed <n>` to change the
//! generator seed.

use std::time::Instant;
use verifas_core::{
    BaselineVerifier, Engine as VerifasEngine, SearchLimits, VerificationOutcome, VerifierOptions,
};
use verifas_ltl::LtlFoProperty;
use verifas_model::HasSpec;
use verifas_workloads::{generate_properties, generate_set, real_workflows, SyntheticParams};

/// Which engine/configuration a run uses (the three rows of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The baseline verifier (stand-in for the Spin-based "Spin-Opt").
    SpinLike,
    /// VERIFAS with artifact relations ignored.
    VerifasNoSet,
    /// Full VERIFAS.
    Verifas,
}

impl Engine {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Engine::SpinLike => "Spin-Opt (baseline stand-in)",
            Engine::VerifasNoSet => "VERIFAS-NoSet",
            Engine::Verifas => "VERIFAS",
        }
    }
}

/// One verification measurement.
#[derive(Debug, Clone, Copy)]
pub struct RunMeasurement {
    /// Elapsed wall-clock milliseconds.
    pub millis: f64,
    /// `true` when the run failed (resource limit hit before an answer).
    pub failed: bool,
    /// The verdict (meaningful only when `failed` is false).
    pub outcome: VerificationOutcome,
    /// States created by the main search.
    pub states: usize,
}

/// Harness configuration.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Per-run resource limits (plays the role of the paper's 10-minute /
    /// 8 GB budget, scaled down).
    pub limits: SearchLimits,
    /// Number of synthetic specifications.
    pub synthetic_count: usize,
    /// Synthetic generator parameters.
    pub synthetic_params: SyntheticParams,
    /// Seed for workload and property generation.
    pub seed: u64,
}

impl HarnessConfig {
    /// The default configuration: the full real set (32 workflows), a
    /// synthetic set of 120 and a 5-second / 50k-state budget per run.
    pub fn standard() -> Self {
        HarnessConfig {
            limits: SearchLimits {
                max_states: 50_000,
                max_millis: 5_000,
            },
            synthetic_count: 120,
            synthetic_params: SyntheticParams::default(),
            seed: 2017,
        }
    }

    /// A reduced configuration for `--quick` runs.
    pub fn quick() -> Self {
        HarnessConfig {
            limits: SearchLimits {
                max_states: 5_000,
                max_millis: 1_000,
            },
            synthetic_count: 12,
            synthetic_params: SyntheticParams::small(),
            seed: 2017,
        }
    }

    /// Parse `--quick` / `--seed n` from the command line.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut config = if args.iter().any(|a| a == "--quick") {
            HarnessConfig::quick()
        } else {
            HarnessConfig::standard()
        };
        if let Some(pos) = args.iter().position(|a| a == "--seed") {
            if let Some(seed) = args.get(pos + 1).and_then(|s| s.parse().ok()) {
                config.seed = seed;
            }
        }
        config
    }
}

/// The two workload sets of the evaluation.
pub struct Workloads {
    /// The real-style set.
    pub real: Vec<HasSpec>,
    /// The synthetic set.
    pub synthetic: Vec<HasSpec>,
}

/// Build both workload sets.
pub fn build_workloads(config: &HarnessConfig) -> Workloads {
    Workloads {
        real: real_workflows(),
        synthetic: generate_set(config.synthetic_params, config.synthetic_count, config.seed),
    }
}

/// The twelve benchmark properties of a specification.
pub fn properties_for(spec: &HasSpec, config: &HarnessConfig) -> Vec<LtlFoProperty> {
    generate_properties(spec, config.seed)
}

/// Run one (engine, specification, property) verification and measure it.
///
/// The timed region covers the verification itself (including the
/// per-property preprocessing); loading the spec into the engine — a deep
/// clone plus validation the borrowing baseline arm never pays — happens
/// before the clock starts, so the Table-2/3 comparisons stay apples to
/// apples.
pub fn run_one(
    engine: Engine,
    spec: &HasSpec,
    property: &LtlFoProperty,
    limits: SearchLimits,
    options_override: Option<VerifierOptions>,
) -> RunMeasurement {
    let (outcome, states, start) = match engine {
        Engine::SpinLike => {
            let start = Instant::now();
            match BaselineVerifier::new(spec, property, limits) {
                Ok(v) => {
                    let r = v.verify();
                    (r.outcome, r.stats.states_created, start)
                }
                Err(_) => (VerificationOutcome::Inconclusive, 0, start),
            }
        }
        Engine::VerifasNoSet | Engine::Verifas => {
            let mut options = options_override.unwrap_or_default();
            options.limits = limits;
            options.handle_artifact_relations = engine == Engine::Verifas
                && options_override.is_none_or(|o| o.handle_artifact_relations);
            let loaded = VerifasEngine::load_with_options(spec.clone(), options);
            let start = Instant::now();
            match loaded.and_then(|e| e.check(property)) {
                Ok(r) => (r.outcome, r.stats.states_created, start),
                Err(_) => (VerificationOutcome::Inconclusive, 0, start),
            }
        }
    };
    RunMeasurement {
        millis: start.elapsed().as_secs_f64() * 1_000.0,
        failed: outcome == VerificationOutcome::Inconclusive,
        outcome,
        states,
    }
}

/// Aggregate of a set of measurements: average time over non-failed runs
/// and the number of failures (Table 2 reports both).
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    /// Average elapsed milliseconds over successful runs.
    pub avg_millis: f64,
    /// Number of failed runs.
    pub failures: usize,
    /// Total number of runs.
    pub runs: usize,
}

/// Aggregate measurements.
pub fn aggregate(measurements: &[RunMeasurement]) -> Aggregate {
    let failures = measurements.iter().filter(|m| m.failed).count();
    let ok: Vec<f64> = measurements
        .iter()
        .filter(|m| !m.failed)
        .map(|m| m.millis)
        .collect();
    Aggregate {
        avg_millis: if ok.is_empty() {
            0.0
        } else {
            ok.iter().sum::<f64>() / ok.len() as f64
        },
        failures,
        runs: measurements.len(),
    }
}

/// Mean and 5%-trimmed mean of a list of speedups (Table 3).
pub fn mean_and_trimmed(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let trim = (sorted.len() as f64 * 0.05).floor() as usize;
    let trimmed: &[f64] = &sorted[trim..sorted.len() - trim.min(sorted.len().saturating_sub(trim))];
    let trimmed_mean = if trimmed.is_empty() {
        mean
    } else {
        trimmed.iter().sum::<f64>() / trimmed.len() as f64
    };
    (mean, trimmed_mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use verifas_workloads::order_fulfillment;

    #[test]
    fn harness_runs_a_single_measurement() {
        let config = HarnessConfig::quick();
        let spec = order_fulfillment();
        let properties = properties_for(&spec, &config);
        assert_eq!(properties.len(), 12);
        let m = run_one(Engine::Verifas, &spec, &properties[0], config.limits, None);
        assert!(m.millis >= 0.0);
    }

    #[test]
    fn aggregate_and_trimmed_mean() {
        let ms = vec![
            RunMeasurement {
                millis: 10.0,
                failed: false,
                outcome: VerificationOutcome::Satisfied,
                states: 1,
            },
            RunMeasurement {
                millis: 30.0,
                failed: false,
                outcome: VerificationOutcome::Violated,
                states: 1,
            },
            RunMeasurement {
                millis: 0.0,
                failed: true,
                outcome: VerificationOutcome::Inconclusive,
                states: 1,
            },
        ];
        let agg = aggregate(&ms);
        assert_eq!(agg.failures, 1);
        assert_eq!(agg.runs, 3);
        assert!((agg.avg_millis - 20.0).abs() < 1e-9);
        let (mean, trimmed) = mean_and_trimmed(&[1.0, 2.0, 3.0, 1000.0]);
        assert!(mean > trimmed || (mean - trimmed).abs() < 1e-9);
    }
}
