//! Using DQuaG as a data-quality gate in front of an ML pipeline.
//!
//! The scenario the paper's introduction motivates: a model is retrained on
//! data batches arriving daily; before a batch is admitted into the training
//! set it must pass validation. This example streams a week of credit-card-application
//! batches — some clean, some corrupted — through one fitted validator,
//! admits the clean ones, repairs-and-admits the mildly corrupted ones, and
//! quarantines the rest.
//!
//! ```bash
//! cargo run --release --example ml_pipeline_gate
//! ```

use dquag::core::DquagConfig;
use dquag::datagen::{inject_hidden, inject_ordinary, DatasetKind, HiddenError, OrdinaryError};
use dquag::gnn::ModelConfig;
use dquag::tabular::DataFrame;
use dquag::validate::{build_spec, Verdict};

enum GateDecision {
    Admit,
    RepairAndAdmit,
    Quarantine,
}

fn decide(error_rate: f64, threshold: f64) -> GateDecision {
    if error_rate <= threshold {
        GateDecision::Admit
    } else if error_rate <= 3.0 * threshold {
        GateDecision::RepairAndAdmit
    } else {
        GateDecision::Quarantine
    }
}

fn main() {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(4_000, 31);
    let config = DquagConfig {
        model: ModelConfig {
            hidden_dim: 24,
            ..ModelConfig::default()
        },
        epochs: 15,
        ..DquagConfig::default()
    }
    .validated()
    .expect("configuration in range");
    let gate_threshold = config.dataset_error_rate_threshold();

    // One fitted validator judges the whole week; its verdicts double as the
    // gate's audit log.
    let mut validator = build_spec(&config.validator, &config).expect("dquag is built in");
    validator.fit(&clean).expect("training");
    let mut audit_log: Vec<Verdict> = Vec::new();

    // Seven "daily" batches with different quality problems.
    let mut rng = dquag::datagen::rng(33);
    let columns = kind.default_ordinary_error_columns();
    let mut week: Vec<(String, DataFrame)> = Vec::new();
    for day in 0..7 {
        let mut batch = kind.generate_clean(500, 100 + day);
        let label = match day {
            1 => {
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::MissingValues,
                    &columns,
                    0.05,
                    &mut rng,
                );
                "5% missing values"
            }
            3 => {
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::NumericAnomalies,
                    &columns,
                    0.3,
                    &mut rng,
                );
                inject_ordinary(
                    &mut batch,
                    OrdinaryError::StringTypos,
                    &columns,
                    0.3,
                    &mut rng,
                );
                "heavily corrupted export"
            }
            5 => {
                inject_hidden(
                    &mut batch,
                    HiddenError::CreditEmploymentBeforeBirth,
                    0.2,
                    &mut rng,
                );
                "applicants employed before their birth"
            }
            _ => "clean",
        };
        week.push((format!("day {day} ({label})"), batch));
    }

    let mut training_pool = clean.clone();
    for (label, batch) in &week {
        let verdict = validator.validate(batch).expect("same schema");
        match decide(verdict.error_rate(), gate_threshold) {
            GateDecision::Admit => {
                training_pool.append(batch).expect("same schema");
                println!(
                    "{label:<42} ADMIT          ({:.1}% flagged)",
                    verdict.error_rate() * 100.0
                );
            }
            GateDecision::RepairAndAdmit => {
                let repaired = validator
                    .repair(batch, &verdict)
                    .expect("repair succeeds")
                    .expect("DQuaG supports repair");
                training_pool.append(&repaired).expect("same schema");
                println!(
                    "{label:<42} REPAIR + ADMIT ({:.1}% flagged, {} cells repaired)",
                    verdict.error_rate() * 100.0,
                    verdict.cell_flags.as_ref().map_or(0, Vec::len)
                );
            }
            GateDecision::Quarantine => {
                println!(
                    "{label:<42} QUARANTINE     ({:.1}% flagged)",
                    verdict.error_rate() * 100.0
                );
            }
        }
        audit_log.push(verdict);
    }
    let dirty = audit_log.iter().filter(|verdict| verdict.is_dirty).count();
    let mean_error_rate =
        audit_log.iter().map(Verdict::error_rate).sum::<f64>() / audit_log.len() as f64;
    println!(
        "\nweek summary — {} batches, {dirty} dirty, mean error rate {:.1}%",
        audit_log.len(),
        100.0 * mean_error_rate
    );
    println!(
        "training pool grew from {} to {} rows",
        clean.n_rows(),
        training_pool.n_rows()
    );
}
