//! Composite validators: ensembles with voting and gated cheap→expensive
//! escalation.
//!
//! Both combinators implement [`Validator`] *compositionally*: `fit` fits
//! every member, `validate` delegates and combines, `capabilities` derives
//! from the members', and `replicate` succeeds iff every member replicates —
//! so the streaming engine's sharding works unchanged above any spec tree.

use crate::verdict::Capabilities;
use crate::{FitReport, Result, ValidateError, Validator, Verdict};
use dquag_core::spec::{EscalateWhen, Voting};
use dquag_tabular::DataFrame;

/// Several member validators put to a vote.
///
/// Every member judges every batch; the [`Voting`] policy turns the member
/// verdicts into one decision. The ensemble's score is the (weighted)
/// fraction of dirty votes, so it lives on `[0, 1]` regardless of the
/// members' native scales.
pub struct EnsembleValidator {
    members: Vec<Box<dyn Validator>>,
    weights: Vec<f64>,
    voting: Voting,
    name: String,
}

impl EnsembleValidator {
    /// An ensemble over `members` under the given voting policy.
    ///
    /// Fails with [`ValidateError::InvalidConfig`] on an empty member list
    /// or a weight vector that does not match the members.
    pub fn new(members: Vec<Box<dyn Validator>>, voting: Voting) -> Result<Self> {
        if members.is_empty() {
            return Err(ValidateError::InvalidConfig(
                "an ensemble needs at least one member".to_string(),
            ));
        }
        let weights = match &voting {
            Voting::Weighted(weights) => {
                if weights.len() != members.len() {
                    return Err(ValidateError::InvalidConfig(format!(
                        "ensemble has {} members but {} weights",
                        members.len(),
                        weights.len()
                    )));
                }
                if weights.iter().any(|w| !w.is_finite() || *w < 0.0)
                    || weights.iter().sum::<f64>() <= 0.0
                {
                    return Err(ValidateError::InvalidConfig(
                        "ensemble weights must be finite, non-negative and not all zero"
                            .to_string(),
                    ));
                }
                weights.clone()
            }
            Voting::Majority | Voting::Any => vec![1.0; members.len()],
        };
        let label = match &voting {
            Voting::Majority => "majority",
            Voting::Any => "any",
            Voting::Weighted(_) => "weighted",
        };
        let name = format!(
            "{label}({})",
            members
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        Ok(Self {
            members,
            weights,
            voting,
            name,
        })
    }

    /// The member validators, in voting order.
    pub fn members(&self) -> impl Iterator<Item = &dyn Validator> {
        self.members.iter().map(|m| &**m)
    }
}

impl Validator for EnsembleValidator {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        // The combined verdict is dataset-level: member-specific instance
        // detail does not survive the vote.
        Capabilities {
            instance_errors: false,
            cell_flags: false,
            repair: false,
            trains_model: self.members.iter().any(|m| m.capabilities().trains_model),
        }
    }

    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
        let mut notes = Vec::with_capacity(self.members.len());
        let mut n_parameters: Option<usize> = None;
        for member in &mut self.members {
            let report = member.fit(clean)?;
            if let Some(params) = report.n_parameters {
                n_parameters = Some(n_parameters.unwrap_or(0) + params);
            }
            notes.push(format!("fitted member `{}`", report.validator));
        }
        Ok(FitReport {
            validator: self.name.clone(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: None,
            n_parameters,
            notes,
        })
    }

    fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
        let verdicts: Vec<Verdict> = self
            .members
            .iter()
            .map(|m| m.validate(batch))
            .collect::<Result<_>>()?;
        let total: f64 = self.weights.iter().sum();
        let dirty_weight: f64 = verdicts
            .iter()
            .zip(&self.weights)
            .filter(|(v, _)| v.is_dirty)
            .map(|(_, w)| w)
            .sum();
        let score = dirty_weight / total;
        let is_dirty = match &self.voting {
            Voting::Any => verdicts.iter().any(|v| v.is_dirty),
            Voting::Majority | Voting::Weighted(_) => dirty_weight * 2.0 > total,
        };

        let mut violations = Vec::new();
        if is_dirty {
            violations.push(format!(
                "{:.0}% of the voting weight judged the batch dirty",
                100.0 * score
            ));
            for verdict in &verdicts {
                violations.push(format!(
                    "member `{}` voted {} (score {:.4})",
                    verdict.validator,
                    if verdict.is_dirty { "dirty" } else { "clean" },
                    verdict.score
                ));
            }
        }

        Ok(Verdict::dataset_level(
            self.name.clone(),
            is_dirty,
            score,
            batch.n_rows(),
            violations,
        ))
    }

    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<dquag_telemetry::Telemetry>) {
        // Recurse so any observing node (a drift detector, the DQuaG
        // backend) reports no matter how deep in the spec tree it sits.
        for member in &mut self.members {
            member.attach_telemetry(telemetry);
        }
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        // An ensemble replicates iff every member does; one Arc-shared
        // member would make the "independent replica" promise a lie.
        let members: Option<Vec<Box<dyn Validator>>> =
            self.members.iter().map(|m| m.replicate()).collect();
        Some(Box::new(EnsembleValidator {
            members: members?,
            weights: self.weights.clone(),
            voting: self.voting.clone(),
            name: self.name.clone(),
        }))
    }

    fn health_check(&self) -> Result<()> {
        // One corrupt member corrupts the vote, so the first violation
        // fails the whole ensemble.
        for member in &self.members {
            member.health_check()?;
        }
        Ok(())
    }

    fn persisted_state(&self) -> Option<crate::PersistedValidatorState> {
        // Persistable iff every member is; a part-persisted ensemble would
        // silently change its verdicts after a reload.
        let members: Option<Vec<_>> = self.members.iter().map(|m| m.persisted_state()).collect();
        Some(crate::PersistedValidatorState::Ensemble(
            crate::EnsembleState {
                members: members?,
                voting: self.voting.clone(),
            },
        ))
    }
}

/// A cheap validator screening every batch, escalating suspicious ones to an
/// expensive judge.
///
/// The paper's deployment story in miniature: a statistical screen (drift
/// detector, Deequ) runs on everything, and only batches it escalates pay
/// for the GNN. Both members are fitted up front, so escalation is a pure
/// `validate`-time decision.
pub struct GatedValidator {
    cheap: Box<dyn Validator>,
    expensive: Box<dyn Validator>,
    escalate_when: EscalateWhen,
    name: String,
}

impl GatedValidator {
    /// A gated pair under the given escalation rule.
    pub fn new(
        cheap: Box<dyn Validator>,
        expensive: Box<dyn Validator>,
        escalate_when: EscalateWhen,
    ) -> Result<Self> {
        if let EscalateWhen::ScoreAtLeast(score) = escalate_when {
            if !score.is_finite() {
                return Err(ValidateError::InvalidConfig(format!(
                    "gated escalation score must be finite, got {score}"
                )));
            }
        }
        let name = format!("gated({} -> {})", cheap.name(), expensive.name());
        Ok(Self {
            cheap,
            expensive,
            escalate_when,
            name,
        })
    }
}

impl Validator for GatedValidator {
    fn name(&self) -> &str {
        &self.name
    }

    fn capabilities(&self) -> Capabilities {
        // Escalated verdicts carry whatever the expensive member produces;
        // the flags promise what the composite *can* emit.
        let expensive = self.expensive.capabilities();
        let cheap = self.cheap.capabilities();
        Capabilities {
            instance_errors: expensive.instance_errors,
            cell_flags: expensive.cell_flags,
            repair: expensive.repair,
            trains_model: cheap.trains_model || expensive.trains_model,
        }
    }

    fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
        let cheap = self.cheap.fit(clean)?;
        let expensive = self.expensive.fit(clean)?;
        Ok(FitReport {
            validator: self.name.clone(),
            n_rows: clean.n_rows(),
            n_columns: clean.n_cols(),
            threshold: expensive.threshold,
            n_parameters: match (cheap.n_parameters, expensive.n_parameters) {
                (None, None) => None,
                (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
            },
            notes: vec![
                format!("screen `{}` fitted", cheap.validator),
                format!("judge `{}` fitted", expensive.validator),
            ],
        })
    }

    fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
        let screen = self.cheap.validate(batch)?;
        let escalate = match self.escalate_when {
            EscalateWhen::Dirty => screen.is_dirty,
            EscalateWhen::ScoreAtLeast(score) => screen.score >= score,
        };
        let mut verdict = if escalate {
            let mut judged = self.expensive.validate(batch)?;
            judged.violations.insert(
                0,
                format!(
                    "escalated by screen `{}` (score {:.4}); judged by `{}`",
                    screen.validator, screen.score, judged.validator
                ),
            );
            judged
        } else {
            screen
        };
        // Both paths answer as the composite, so a verdict stream over a
        // gated validator is uniformly labelled.
        verdict.validator = self.name.clone();
        Ok(verdict)
    }

    fn repair(&self, batch: &DataFrame, verdict: &Verdict) -> Result<Option<DataFrame>> {
        // Only escalated verdicts carry the expensive member's instance
        // detail; a screen-level verdict has nothing to repair from, so the
        // answer is the trait's graceful "cannot repair this one", not the
        // judge's missing-detail error.
        if verdict.instance_errors.is_none() {
            return Ok(None);
        }
        self.expensive.repair(batch, verdict)
    }

    fn attach_telemetry(&mut self, telemetry: &std::sync::Arc<dquag_telemetry::Telemetry>) {
        self.cheap.attach_telemetry(telemetry);
        self.expensive.attach_telemetry(telemetry);
    }

    fn replicate(&self) -> Option<Box<dyn Validator>> {
        Some(Box::new(GatedValidator {
            cheap: self.cheap.replicate()?,
            expensive: self.expensive.replicate()?,
            escalate_when: self.escalate_when.clone(),
            name: self.name.clone(),
        }))
    }

    fn health_check(&self) -> Result<()> {
        self.cheap.health_check()?;
        self.expensive.health_check()
    }

    fn persisted_state(&self) -> Option<crate::PersistedValidatorState> {
        Some(crate::PersistedValidatorState::Gated(crate::GatedState {
            cheap: Box::new(self.cheap.persisted_state()?),
            expensive: Box::new(self.expensive.persisted_state()?),
            escalate_when: self.escalate_when.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub whose verdict is fixed at construction.
    struct Fixed {
        name: &'static str,
        dirty: bool,
        score: f64,
        fitted: bool,
        replicable: bool,
    }

    impl Fixed {
        fn new(name: &'static str, dirty: bool, score: f64) -> Box<Self> {
            Box::new(Self {
                name,
                dirty,
                score,
                fitted: false,
                replicable: true,
            })
        }

        fn unreplicable(name: &'static str, dirty: bool) -> Box<Self> {
            Box::new(Self {
                name,
                dirty,
                score: if dirty { 1.0 } else { 0.0 },
                fitted: false,
                replicable: false,
            })
        }
    }

    impl Validator for Fixed {
        fn name(&self) -> &str {
            self.name
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities::dataset_level()
        }

        fn fit(&mut self, clean: &DataFrame) -> Result<FitReport> {
            self.fitted = true;
            Ok(FitReport {
                validator: self.name.to_string(),
                n_rows: clean.n_rows(),
                n_columns: clean.n_cols(),
                threshold: None,
                n_parameters: None,
                notes: vec![],
            })
        }

        fn validate(&self, batch: &DataFrame) -> Result<Verdict> {
            if !self.fitted {
                return Err(ValidateError::NotFitted(self.name.to_string()));
            }
            Ok(Verdict::dataset_level(
                self.name,
                self.dirty,
                self.score,
                batch.n_rows(),
                if self.dirty {
                    vec!["stub violation".to_string()]
                } else {
                    vec![]
                },
            ))
        }

        fn replicate(&self) -> Option<Box<dyn Validator>> {
            (self.fitted && self.replicable).then(|| {
                Box::new(Fixed {
                    name: self.name,
                    dirty: self.dirty,
                    score: self.score,
                    fitted: true,
                    replicable: true,
                }) as Box<dyn Validator>
            })
        }
    }

    fn tiny_frame() -> DataFrame {
        use dquag_tabular::{Field, Schema, Value};
        let schema = Schema::new(vec![Field::numeric("x", "")]);
        let mut df = DataFrame::new(schema);
        for i in 0..4 {
            df.push_row(vec![Value::Number(i as f64)]).unwrap();
        }
        df
    }

    fn fitted_ensemble(members: Vec<Box<dyn Validator>>, voting: Voting) -> EnsembleValidator {
        let mut ensemble = EnsembleValidator::new(members, voting).unwrap();
        ensemble.fit(&tiny_frame()).unwrap();
        ensemble
    }

    #[test]
    fn majority_needs_a_strict_majority() {
        let batch = tiny_frame();
        let split = fitted_ensemble(
            vec![
                Fixed::new("a", true, 1.0),
                Fixed::new("b", false, 0.0),
                Fixed::new("c", false, 0.0),
            ],
            Voting::Majority,
        );
        let verdict = split.validate(&batch).unwrap();
        assert!(!verdict.is_dirty);
        assert!((verdict.score - 1.0 / 3.0).abs() < 1e-12);
        assert!(verdict.violations.is_empty());

        let majority = fitted_ensemble(
            vec![
                Fixed::new("a", true, 1.0),
                Fixed::new("b", true, 0.9),
                Fixed::new("c", false, 0.0),
            ],
            Voting::Majority,
        );
        let verdict = majority.validate(&batch).unwrap();
        assert!(verdict.is_dirty);
        assert_eq!(verdict.validator, "majority(a, b, c)");
        // Dirty verdicts grade every member's vote.
        assert_eq!(verdict.violations.len(), 4);
    }

    #[test]
    fn any_fires_on_a_single_dirty_vote() {
        let batch = tiny_frame();
        let ensemble = fitted_ensemble(
            vec![
                Fixed::new("a", false, 0.0),
                Fixed::new("b", false, 0.0),
                Fixed::new("c", true, 0.3),
            ],
            Voting::Any,
        );
        let verdict = ensemble.validate(&batch).unwrap();
        assert!(verdict.is_dirty);
        assert!((verdict.score - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_votes_count_by_weight() {
        let batch = tiny_frame();
        // The dirty member holds 3 of 4 weight units.
        let ensemble = fitted_ensemble(
            vec![
                Fixed::new("heavy", true, 1.0),
                Fixed::new("light", false, 0.0),
            ],
            Voting::Weighted(vec![3.0, 1.0]),
        );
        let verdict = ensemble.validate(&batch).unwrap();
        assert!(verdict.is_dirty);
        assert!((verdict.score - 0.75).abs() < 1e-12);

        // Flipped weights: the dirty vote is outweighed.
        let ensemble = fitted_ensemble(
            vec![
                Fixed::new("heavy", true, 1.0),
                Fixed::new("light", false, 0.0),
            ],
            Voting::Weighted(vec![1.0, 3.0]),
        );
        assert!(!ensemble.validate(&batch).unwrap().is_dirty);
    }

    #[test]
    fn ensemble_construction_rejects_bad_shapes() {
        assert!(EnsembleValidator::new(vec![], Voting::Majority).is_err());
        assert!(EnsembleValidator::new(
            vec![Fixed::new("a", false, 0.0)],
            Voting::Weighted(vec![1.0, 2.0])
        )
        .is_err());
        assert!(EnsembleValidator::new(
            vec![Fixed::new("a", false, 0.0)],
            Voting::Weighted(vec![0.0])
        )
        .is_err());
    }

    #[test]
    fn ensemble_replicates_iff_every_member_does() {
        let batch = tiny_frame();
        let all = fitted_ensemble(
            vec![Fixed::new("a", true, 1.0), Fixed::new("b", true, 1.0)],
            Voting::Majority,
        );
        let replica = all.replicate().expect("all members replicate");
        assert_eq!(replica.name(), all.name());
        assert_eq!(
            replica.validate(&batch).unwrap(),
            all.validate(&batch).unwrap()
        );

        let partial = fitted_ensemble(
            vec![Fixed::new("a", true, 1.0), Fixed::unreplicable("b", true)],
            Voting::Majority,
        );
        assert!(partial.replicate().is_none());
    }

    #[test]
    fn gated_escalates_on_dirty_and_relabels() {
        let batch = tiny_frame();
        let mut gated = GatedValidator::new(
            Fixed::new("screen", true, 0.8),
            Fixed::new("judge", false, 0.1),
            EscalateWhen::Dirty,
        )
        .unwrap();
        gated.fit(&batch).unwrap();
        let verdict = gated.validate(&batch).unwrap();
        // The screen escalated; the judge's clean verdict wins.
        assert!(!verdict.is_dirty);
        assert_eq!(verdict.validator, "gated(screen -> judge)");
        assert!(verdict.violations[0].contains("escalated by screen"));
        assert!((verdict.score - 0.1).abs() < 1e-12);
    }

    #[test]
    fn gated_without_escalation_returns_the_screen_verdict() {
        let batch = tiny_frame();
        let mut gated = GatedValidator::new(
            Fixed::new("screen", false, 0.2),
            Fixed::new("judge", true, 0.9),
            EscalateWhen::ScoreAtLeast(0.5),
        )
        .unwrap();
        gated.fit(&batch).unwrap();
        let verdict = gated.validate(&batch).unwrap();
        assert!(!verdict.is_dirty);
        assert!((verdict.score - 0.2).abs() < 1e-12);
        assert_eq!(verdict.validator, "gated(screen -> judge)");
    }

    #[test]
    fn gated_score_threshold_escalates_below_the_dirty_line() {
        let batch = tiny_frame();
        let mut gated = GatedValidator::new(
            Fixed::new("screen", false, 0.6),
            Fixed::new("judge", true, 0.9),
            EscalateWhen::ScoreAtLeast(0.5),
        )
        .unwrap();
        gated.fit(&batch).unwrap();
        // The screen said clean, but its score crossed the escalation line.
        let verdict = gated.validate(&batch).unwrap();
        assert!(verdict.is_dirty);
        assert!((verdict.score - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gated_repair_declines_screen_level_verdicts_gracefully() {
        let batch = tiny_frame();
        let mut gated = GatedValidator::new(
            Fixed::new("screen", true, 0.8),
            Fixed::new("judge", true, 0.9),
            // Never escalates, so verdicts always come from the screen and
            // carry no instance detail.
            EscalateWhen::ScoreAtLeast(2.0),
        )
        .unwrap();
        gated.fit(&batch).unwrap();
        let verdict = gated.validate(&batch).unwrap();
        assert!(verdict.is_dirty && verdict.instance_errors.is_none());
        // "Cannot repair this one" is Ok(None), not the judge's
        // missing-detail error.
        assert!(gated.repair(&batch, &verdict).unwrap().is_none());
    }

    #[test]
    fn gated_replicates_iff_both_members_do() {
        let batch = tiny_frame();
        let mut gated = GatedValidator::new(
            Fixed::new("screen", true, 1.0),
            Fixed::new("judge", true, 1.0),
            EscalateWhen::Dirty,
        )
        .unwrap();
        gated.fit(&batch).unwrap();
        let replica = gated.replicate().expect("both members replicate");
        assert_eq!(
            replica.validate(&batch).unwrap(),
            gated.validate(&batch).unwrap()
        );

        let mut partial = GatedValidator::new(
            Fixed::new("screen", true, 1.0),
            Fixed::unreplicable("judge", true),
            EscalateWhen::Dirty,
        )
        .unwrap();
        partial.fit(&batch).unwrap();
        assert!(partial.replicate().is_none());
    }
}
