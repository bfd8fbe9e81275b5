//! Fault campaigns: sweep flip rate × site over real traffic and measure
//! what corruption does to verdicts — with the self-checking runtime off
//! (how wrong does a silently-corrupt model get?) and on (does every
//! corruption get caught before a wrong verdict escapes?).
//!
//! Each cell corrupts a fresh clone of one fitted model with a seeded
//! injector and replays the same batch mix the clean model judged, so the
//! whole campaign is deterministic from its seed. The headline numbers per
//! cell:
//!
//! * `unchecked_agreement` — fraction of verdicts from the corrupted,
//!   check-free model that agree with the clean model. This is the paper's
//!   reliability argument in reverse: it decays toward chance as the flip
//!   rate climbs, and nothing in an unchecked deployment would notice.
//! * `checked_detected` / `checked_silent_wrong` — with self-checks armed,
//!   how many judgements were refused with a health violation versus how
//!   many *wrong* verdicts still slipped through. The acceptance bar is
//!   `checked_silent_wrong == 0` at every swept rate ≥ 1e-4.

use crate::{FaultInjector, FaultKind, FaultSite};
use dquag_core::{CoreError, DquagConfig, DquagValidator};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use dquag_gnn::ModelConfig;
use dquag_tabular::DataFrame;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Shape of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: training data, traffic, and every injector derive from
    /// it.
    pub seed: u64,
    /// Rows in the clean training set.
    pub train_rows: usize,
    /// Rows per traffic batch.
    pub batch_rows: usize,
    /// Batches per trial (cycled over the ordinary-error catalog).
    pub n_batches: usize,
    /// Per-weight flip probabilities to sweep.
    pub flip_rates: Vec<f64>,
    /// Bit sites to sweep.
    pub sites: Vec<FaultSite>,
    /// Independent corruption trials per cell.
    pub trials: usize,
    /// Training epochs for the one fitted model.
    pub epochs: usize,
}

impl CampaignConfig {
    /// Smoke-test scale: seconds, not minutes. Used under
    /// `DQUAG_BENCH_FAST=1` and in tests.
    pub fn quick() -> Self {
        Self {
            seed: 41,
            train_rows: 400,
            batch_rows: 60,
            n_batches: 4,
            flip_rates: vec![1e-4, 1e-3, 1e-2],
            sites: FaultSite::ALL.to_vec(),
            trials: 2,
            epochs: 5,
        }
    }

    /// Full benchmark scale.
    pub fn full() -> Self {
        Self {
            seed: 41,
            train_rows: 1_200,
            batch_rows: 150,
            n_batches: 8,
            flip_rates: vec![1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
            sites: FaultSite::ALL.to_vec(),
            trials: 4,
            epochs: 10,
        }
    }
}

/// Measurements for one (site, flip-rate) cell, summed over its trials.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignCell {
    /// Bit-site label (`"sign"`, `"exponent"`, `"mantissa"`).
    pub site: String,
    /// Per-weight flip probability.
    pub flip_rate: f64,
    /// Weights actually flipped, summed over trials.
    pub flipped_weights: usize,
    /// Batches judged per arm (trials × batches).
    pub judgements: usize,
    /// Fraction of unchecked-arm verdicts agreeing with the clean model.
    pub unchecked_agreement: f64,
    /// Checked-arm judgements refused with a health violation.
    pub checked_detected: usize,
    /// Checked-arm verdicts that came through *and* agreed with the clean
    /// model (possible when no weight happened to flip).
    pub checked_agree: usize,
    /// Checked-arm verdicts that came through but were wrong — the number
    /// that must be zero for the self-checking runtime to be trusted.
    pub checked_silent_wrong: usize,
}

/// The whole sweep, ready to serialise into `BENCH_faults.json`.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Master seed the run derives from.
    pub seed: u64,
    /// Rows in the clean training set.
    pub train_rows: usize,
    /// Rows per traffic batch.
    pub batch_rows: usize,
    /// Batches per trial.
    pub n_batches: usize,
    /// Trials per cell.
    pub trials: usize,
    /// Scalar weights in the fitted model (the flip-rate denominator).
    pub model_weights: usize,
    /// One row per (site, rate) cell.
    pub cells: Vec<CampaignCell>,
}

impl CampaignReport {
    /// Silent wrong verdicts across every cell with checks armed.
    pub fn total_silent_wrong(&self) -> usize {
        self.cells.iter().map(|c| c.checked_silent_wrong).sum()
    }

    /// Pretty JSON for the benchmark artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }
}

/// Traffic cycling over the ordinary-error catalog: clean, missing values,
/// numeric anomalies, string typos, clean, …
fn traffic(config: &CampaignConfig) -> Vec<DataFrame> {
    let catalog = [
        None,
        Some(OrdinaryError::MissingValues),
        Some(OrdinaryError::NumericAnomalies),
        Some(OrdinaryError::StringTypos),
    ];
    (0..config.n_batches)
        .map(|i| {
            let seed = config.seed + 1_000 + i as u64;
            let mut batch = DatasetKind::CreditCard.generate_clean(config.batch_rows, seed);
            if let Some(error) = catalog[i % catalog.len()] {
                let mut rng = StdRng::seed_from_u64(config.seed * 31 + i as u64);
                inject_ordinary(&mut batch, error, &[0, 1, 2], 0.25, &mut rng);
            }
            batch
        })
        .collect()
}

/// Run the sweep. One model is trained once; every cell corrupts clones of
/// it and replays the same traffic.
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let clean = DatasetKind::CreditCard.generate_clean(config.train_rows, config.seed);
    let dquag_config = DquagConfig {
        epochs: config.epochs,
        batch_size: 64,
        model: ModelConfig {
            hidden_dim: 24,
            n_layers: 4,
            ..ModelConfig::default()
        },
        ..DquagConfig::default()
    };
    let trained = DquagValidator::train(&clean, &[], &dquag_config).expect("campaign model trains");
    let model_weights = {
        let mut probe = trained.clone();
        let mut n = 0;
        probe.corrupt_params_with(|params| n = params.n_weights());
        n
    };
    let batches = traffic(config);
    // Reference judgement per batch: the dataset verdict plus the exact
    // flagged-instance set. Agreement compares both — a corrupted model
    // that flags the same overall verdict but fingers different rows is
    // still wrong.
    let reference: Vec<(bool, Vec<usize>)> = batches
        .iter()
        .map(|b| {
            let report = trained.validate(b).expect("clean model judges every batch");
            (report.dataset_is_dirty, report.flagged_instances)
        })
        .collect();

    let mut cells = Vec::new();
    for (site_ix, site) in config.sites.iter().enumerate() {
        for (rate_ix, &rate) in config.flip_rates.iter().enumerate() {
            let fault = FaultKind::BitFlipRate { site: *site, rate };
            let mut flipped_weights = 0;
            let mut judgements = 0;
            let mut unchecked_agree = 0;
            let mut checked_detected = 0;
            let mut checked_agree = 0;
            let mut checked_silent_wrong = 0;
            for trial in 0..config.trials {
                // Both arms replay the *identical* corruption: two injectors
                // from the same derived seed flip the same bits.
                let cell_seed = config.seed
                    ^ (site_ix as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (rate_ix as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                    ^ (trial as u64 + 1).wrapping_mul(0x1656_67B1_9E37_79F9);

                // Unchecked arm: self-checks disabled, so no session arms the
                // kernel guard — the corrupted model judges traffic with
                // nothing watching.
                let mut sick = trained.clone().with_self_check_period(0);
                let mut injector = FaultInjector::new(cell_seed);
                sick.corrupt_params_with(|params| {
                    flipped_weights += injector.corrupt_store(params, &fault);
                });
                for (batch, (ref_dirty, ref_flags)) in batches.iter().zip(&reference) {
                    judgements += 1;
                    if let Ok(report) = sick.validate(batch) {
                        if report.dataset_is_dirty == *ref_dirty
                            && report.flagged_instances == *ref_flags
                        {
                            unchecked_agree += 1;
                        }
                    }
                    // An error also counts as disagreement: the unchecked
                    // model failed to produce the reference verdict.
                }

                // Checked arm: default self-check period, same corruption.
                let mut checked = trained.clone();
                let mut injector = FaultInjector::new(cell_seed);
                checked.corrupt_params_with(|params| {
                    injector.corrupt_store(params, &fault);
                });
                for (batch, (ref_dirty, ref_flags)) in batches.iter().zip(&reference) {
                    match checked.validate(batch) {
                        Err(CoreError::Health(_)) => checked_detected += 1,
                        Err(_) => checked_detected += 1,
                        Ok(report)
                            if report.dataset_is_dirty == *ref_dirty
                                && report.flagged_instances == *ref_flags =>
                        {
                            checked_agree += 1
                        }
                        Ok(_) => checked_silent_wrong += 1,
                    }
                }
            }
            cells.push(CampaignCell {
                site: site.label().to_string(),
                flip_rate: rate,
                flipped_weights,
                judgements,
                unchecked_agreement: if judgements == 0 {
                    1.0
                } else {
                    unchecked_agree as f64 / judgements as f64
                },
                checked_detected,
                checked_agree,
                checked_silent_wrong,
            });
        }
    }
    CampaignReport {
        seed: config.seed,
        train_rows: config.train_rows,
        batch_rows: config.batch_rows,
        n_batches: config.n_batches,
        trials: config.trials,
        model_weights,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_detects_every_real_corruption() {
        let mut config = CampaignConfig::quick();
        config.n_batches = 3;
        config.trials = 1;
        config.epochs = 4;
        config.train_rows = 250;
        let report = run_campaign(&config);
        assert_eq!(
            report.cells.len(),
            config.sites.len() * config.flip_rates.len()
        );
        assert!(report.model_weights > 0);
        // The acceptance bar: with self-checks armed, no silently-wrong
        // verdict at any swept rate.
        assert_eq!(report.total_silent_wrong(), 0, "{}", report.to_json());
        // And at the loudest cell some corruption really happened, so the
        // campaign is not vacuously green.
        let loud = report
            .cells
            .iter()
            .filter(|c| c.flip_rate >= 1e-2)
            .map(|c| c.flipped_weights)
            .sum::<usize>();
        assert!(loud > 0, "the 1e-2 cells must flip some weights");
        let json = report.to_json();
        assert!(json.contains("\"cells\""));
    }
}
