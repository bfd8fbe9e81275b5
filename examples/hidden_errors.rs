//! Hidden-error detection: the motivating scenario of the paper.
//!
//! Rule-based validators catch out-of-range ages and unknown categories, but
//! struggle with *logically impossible combinations* — a credit-card
//! applicant whose employment started before their birth, or an elite
//! education/occupation pair with an implausibly low income. The second
//! conflict keeps every value inside its clean per-column range, so the
//! expert-tuned Deequ suite passes it while DQuaG flags both. Because every
//! system now sits behind the unified `Validator` trait, this example runs
//! the strongest rule-based baseline and DQuaG through the *same* loop and
//! only the verdicts differ.
//!
//! ```bash
//! cargo run --release --example hidden_errors
//! ```

use dquag::core::DquagConfig;
use dquag::datagen::{inject_hidden, DatasetKind, HiddenError};
use dquag::validate::{build_spec, ValidatorSpec};

fn main() {
    let clean = DatasetKind::CreditCard.generate_clean(4_000, 21);

    // Two batches, each corrupted with one of the paper's hidden conflicts.
    let mut rng = dquag::datagen::rng(22);
    let mut conflict1 = DatasetKind::CreditCard.generate_clean(600, 23);
    inject_hidden(
        &mut conflict1,
        HiddenError::CreditEmploymentBeforeBirth,
        0.2,
        &mut rng,
    );
    let mut conflict2 = DatasetKind::CreditCard.generate_clean(600, 24);
    inject_hidden(
        &mut conflict2,
        HiddenError::CreditIncomeEducationMismatch,
        0.2,
        &mut rng,
    );

    let config = DquagConfig::builder()
        .epochs(15)
        .hidden_dim(24)
        .validation_threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .build()
        .expect("configuration in range");

    // Expert-tuned Deequ (the strongest rule-based comparison) and DQuaG,
    // built from their registry keys and fitted the same way.
    let mut validators = Vec::new();
    for key in ["deequ-expert", "dquag"] {
        let mut validator =
            build_spec(&ValidatorSpec::backend(key), &config).expect("paper backends build");
        validator.fit(&clean).expect("fit succeeds");
        validators.push(validator);
    }

    for (name, batch) in [
        ("Conflicts-1 (employment before birth)", &conflict1),
        ("Conflicts-2 (elite education, tiny income)", &conflict2),
    ] {
        println!("{name}");
        for validator in &validators {
            let verdict = validator.validate(batch).expect("same schema");
            let outcome = match (verdict.is_dirty, validator.capabilities().cell_flags) {
                (true, _) => "flagged".to_string(),
                (false, false) => "PASSED (conflict missed)".to_string(),
                (false, true) => "passed".to_string(),
            };
            println!(
                "  {:<13}: {outcome} (score {:.4})",
                verdict.validator, verdict.score
            );
            // Graded detail: DQuaG names the features it blames.
            if let (Some(flagged), Some(cells)) = (&verdict.flagged_instances, &verdict.cell_flags)
            {
                if let Some(&row) = flagged.first() {
                    let blamed: Vec<&str> = cells
                        .iter()
                        .filter(|c| c.row == row)
                        .map(|c| clean.schema().fields()[c.column].name.as_str())
                        .collect();
                    println!("                 first flagged instance #{row}, suspicious features: {blamed:?}");
                }
            }
        }
        println!();
    }
}
