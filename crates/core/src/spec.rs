//! Declarative, composable validator specifications.
//!
//! A [`ValidatorSpec`] is a small *spec tree* describing which validator a
//! deployment runs — not an instance of one. Leaves name a registered backend
//! ([`BackendSpec`]); interior nodes compose: an [`EnsembleSpec`] puts
//! members to a vote, a [`DriftSpec`] runs KS/PSI distribution tests against
//! the fitted reference, and a [`GatedSpec`] escalates from a cheap check to
//! an expensive one.
//!
//! The tree lives here in `dquag-core` — rather than in `dquag-validate`,
//! which *builds* validators from it — so it can embed in [`DquagConfig`]
//! and in the `dquag-sources` checkpoint without a dependency cycle: a spec
//! is configuration, pure serde-serialisable data that round-trips through
//! `serde_json` and fully describes the validator to reconstruct on another
//! machine or after a restart.
//!
//! ```
//! use dquag_core::spec::{DriftSpec, ValidatorSpec, Voting};
//!
//! let spec = ValidatorSpec::ensemble(
//!     vec![
//!         ValidatorSpec::backend("dquag"),
//!         ValidatorSpec::backend("deequ-auto"),
//!         ValidatorSpec::Drift(DriftSpec::default()),
//!     ],
//!     Voting::Majority,
//! );
//! spec.validated().unwrap();
//! let json = serde_json::to_string(&spec).unwrap();
//! let back: ValidatorSpec = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, spec);
//! ```
//!
//! [`DquagConfig`]: crate::DquagConfig

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A declarative description of a validator: a backend leaf or a composition
/// of other specs.
///
/// The wire shape is externally tagged JSON, e.g.
/// `{"Backend": {"name": "dquag", "options": {}}}` or
/// `{"Ensemble": {"members": [...], "voting": "Majority"}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValidatorSpec {
    /// A registered backend, looked up by name in the validator registry.
    Backend(BackendSpec),
    /// Several member validators put to a vote.
    Ensemble(EnsembleSpec),
    /// The KS/PSI drift detector over per-column distributions.
    Drift(DriftSpec),
    /// A cheap validator that escalates suspicious batches to an expensive
    /// one.
    Gated(GatedSpec),
}

/// A backend leaf: a registry name plus the backend's options.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    /// Registry name, matched case-insensitively and ignoring punctuation
    /// (`"deequ-auto"`, `"Deequ auto"` and `"DEEQU_AUTO"` all resolve the
    /// same).
    pub name: String,
    /// String-valued options the backend's builder interprets — the
    /// `persisted-dquag` backend reads its model `path` here. Unknown keys
    /// are rejected at build time, not silently dropped. DQuaG's
    /// hyper-parameters are not options: they come from the
    /// [`DquagConfig`](crate::DquagConfig) the spec is built with.
    pub options: BTreeMap<String, String>,
}

// Hand-written serde impls instead of derives: specs ride in checkpoints
// and configs written by older builds, so deserialisation treats a missing
// (or null) `options` key as empty and accepts the retired `params` key
// only when it is empty — the derive would reject the first and ignore a
// non-empty `params`, building another validator than the file declares.
impl Serialize for BackendSpec {
    fn to_value(&self) -> serde::Value {
        let mut map = BTreeMap::new();
        map.insert("name".to_string(), self.name.to_value());
        map.insert("options".to_string(), self.options.to_value());
        serde::Value::Object(map)
    }
}

impl Deserialize for BackendSpec {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let obj = v.as_object().ok_or_else(|| {
            serde::DeError::custom(format!(
                "expected object for BackendSpec, found {}",
                v.kind()
            ))
        })?;
        let name = String::from_value(obj.get("name").unwrap_or(&serde::Value::Null))
            .map_err(|e| serde::DeError::custom(format!("field `name` of BackendSpec: {e}")))?;
        match obj.get("params") {
            None | Some(serde::Value::Null) => {}
            Some(serde::Value::Object(params)) if params.is_empty() => {}
            Some(serde::Value::Object(params)) => {
                let keys: Vec<String> = params.keys().map(|key| format!("`{key}`")).collect();
                return Err(serde::DeError::custom(format!(
                    "field `params` of BackendSpec is retired, but backend `{name}` sets {}; \
                     DQuaG's hyper-parameters live in DquagConfig",
                    keys.join(", ")
                )));
            }
            Some(other) => {
                return Err(serde::DeError::custom(format!(
                    "field `params` of BackendSpec: expected an empty object, found {}",
                    other.kind()
                )))
            }
        }
        let options = match obj.get("options") {
            None | Some(serde::Value::Null) => BTreeMap::new(),
            Some(value) => BTreeMap::<String, String>::from_value(value).map_err(|e| {
                serde::DeError::custom(format!("field `options` of BackendSpec: {e}"))
            })?,
        };
        Ok(BackendSpec { name, options })
    }
}

/// Remove the retired `params` object from every backend leaf of a spec
/// tree in wire form, so it decodes whatever overrides the leaves carried.
///
/// Only for a spec that describes a validator already built, such as the
/// config inside a fitted model's state: the overrides were applied to the
/// config's fields when the model was fitted. A spec about to be built keeps
/// the refusal, which names the keys.
pub(crate) fn drop_retired_params(spec: &mut serde::Value) {
    match spec {
        serde::Value::Object(map) => {
            if let Some(serde::Value::Object(leaf)) = map.get_mut("Backend") {
                leaf.remove("params");
            }
            map.values_mut().for_each(drop_retired_params);
        }
        serde::Value::Array(items) => items.iter_mut().for_each(drop_retired_params),
        _ => {}
    }
}

/// How an ensemble turns member verdicts into one decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Voting {
    /// Dirty when a strict majority of members vote dirty.
    Majority,
    /// Dirty when any member votes dirty.
    Any,
    /// Dirty when members holding a strict majority of the given weights
    /// vote dirty. One weight per member, in member order.
    Weighted(Vec<f64>),
}

/// An ensemble node: members plus a voting policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSpec {
    /// The member spec trees, voted in order.
    pub members: Vec<ValidatorSpec>,
    /// How member verdicts combine into the ensemble decision.
    pub voting: Voting,
}

/// A statistical drift test the drift detector can run per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftTest {
    /// Two-sample Kolmogorov–Smirnov statistic over numeric columns
    /// (sup-distance between empirical CDFs).
    Ks,
    /// Population stability index over quantile bins (numeric columns, with
    /// missing values as their own bucket) or categories (categorical
    /// columns).
    Psi,
}

/// The drift-detector node: which tests run and the per-column limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSpec {
    /// Which statistics are computed and thresholded.
    pub tests: Vec<DriftTest>,
    /// A column drifts when its KS statistic exceeds this (conventional
    /// operating point: 0.15).
    pub ks_threshold: f64,
    /// A column drifts when its PSI exceeds this (0.25 is the conventional
    /// "significant shift" limit).
    pub psi_threshold: f64,
    /// Quantile bins per numeric column for the PSI histogram.
    pub bins: usize,
}

impl Default for DriftSpec {
    fn default() -> Self {
        Self {
            tests: vec![DriftTest::Ks, DriftTest::Psi],
            ks_threshold: 0.15,
            psi_threshold: 0.25,
            bins: 10,
        }
    }
}

/// When a gated validator escalates from the cheap member to the expensive
/// one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EscalateWhen {
    /// Escalate whenever the cheap member judges the batch dirty.
    Dirty,
    /// Escalate whenever the cheap member's anomaly score reaches this value
    /// (useful for escalating *below* the cheap member's own dirty line).
    ScoreAtLeast(f64),
}

/// A gated node: a cheap screen in front of an expensive judge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatedSpec {
    /// Runs on every batch.
    pub cheap: Box<ValidatorSpec>,
    /// Runs only on batches the cheap member escalates.
    pub expensive: Box<ValidatorSpec>,
    /// The escalation rule.
    pub escalate_when: EscalateWhen,
}

impl ValidatorSpec {
    /// A backend leaf with no options.
    pub fn backend(name: impl Into<String>) -> Self {
        ValidatorSpec::Backend(BackendSpec {
            name: name.into(),
            options: BTreeMap::new(),
        })
    }

    /// A backend leaf with string-valued options (e.g. the `persisted-dquag`
    /// backend's model `path`).
    pub fn backend_with_options(
        name: impl Into<String>,
        options: impl IntoIterator<Item = (String, String)>,
    ) -> Self {
        ValidatorSpec::Backend(BackendSpec {
            name: name.into(),
            options: options.into_iter().collect(),
        })
    }

    /// An ensemble over `members` under the given voting policy.
    pub fn ensemble(members: Vec<ValidatorSpec>, voting: Voting) -> Self {
        ValidatorSpec::Ensemble(EnsembleSpec { members, voting })
    }

    /// The drift detector with default tests and thresholds.
    pub fn drift() -> Self {
        ValidatorSpec::Drift(DriftSpec::default())
    }

    /// A gated pair: `cheap` screens every batch, `expensive` judges the
    /// escalated ones.
    pub fn gated(cheap: ValidatorSpec, expensive: ValidatorSpec, when: EscalateWhen) -> Self {
        ValidatorSpec::Gated(GatedSpec {
            cheap: Box::new(cheap),
            expensive: Box::new(expensive),
            escalate_when: when,
        })
    }

    /// Check every node's structural invariants, returning the offending one
    /// on error. The registry re-runs this before building, so hand-edited
    /// JSON fails with a message instead of a mis-built validator.
    pub fn validated(&self) -> crate::Result<()> {
        fn fail(msg: String) -> crate::Result<()> {
            Err(crate::CoreError::InvalidConfig(msg))
        }
        match self {
            ValidatorSpec::Backend(b) => {
                if b.name.trim().is_empty() {
                    return fail("spec backend name must be non-empty".to_string());
                }
                for key in b.options.keys() {
                    if key.trim().is_empty() {
                        return fail(format!(
                            "spec option keys of backend `{}` must be non-empty",
                            b.name
                        ));
                    }
                }
                Ok(())
            }
            ValidatorSpec::Ensemble(e) => {
                if e.members.is_empty() {
                    return fail("spec ensemble must have at least one member".to_string());
                }
                if let Voting::Weighted(weights) = &e.voting {
                    if weights.len() != e.members.len() {
                        return fail(format!(
                            "spec ensemble has {} members but {} weights",
                            e.members.len(),
                            weights.len()
                        ));
                    }
                    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                        return fail(
                            "spec ensemble weights must be finite and non-negative".to_string(),
                        );
                    }
                    if weights.iter().sum::<f64>() <= 0.0 {
                        return fail("spec ensemble weights must not all be zero".to_string());
                    }
                }
                e.members.iter().try_for_each(ValidatorSpec::validated)
            }
            ValidatorSpec::Drift(d) => {
                if d.tests.is_empty() {
                    return fail("spec drift node must enable at least one test".to_string());
                }
                if !(d.ks_threshold.is_finite() && d.ks_threshold > 0.0) {
                    return fail(format!(
                        "spec drift ks_threshold must be positive and finite, got {}",
                        d.ks_threshold
                    ));
                }
                if !(d.psi_threshold.is_finite() && d.psi_threshold > 0.0) {
                    return fail(format!(
                        "spec drift psi_threshold must be positive and finite, got {}",
                        d.psi_threshold
                    ));
                }
                if d.bins < 2 {
                    return fail(format!(
                        "spec drift bins must be at least 2, got {}",
                        d.bins
                    ));
                }
                Ok(())
            }
            ValidatorSpec::Gated(g) => {
                if let EscalateWhen::ScoreAtLeast(score) = g.escalate_when {
                    if !score.is_finite() {
                        return fail(format!(
                            "spec gated escalation score must be finite, got {score}"
                        ));
                    }
                }
                g.cheap.validated()?;
                g.expensive.validated()
            }
        }
    }
}

/// Normalise a backend name for registry lookup: ASCII-lowercase with all
/// punctuation stripped, so `"Deequ auto"`, `"deequ-auto"` and `"DEEQU_AUTO"`
/// collide on `"deequauto"`.
pub fn normalize_backend_name(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase()
}

/// Compact single-line rendering: `majority(dquag, deequ-auto, drift[ks+psi])`.
impl fmt::Display for ValidatorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidatorSpec::Backend(b) => f.write_str(&b.name),
            ValidatorSpec::Ensemble(e) => {
                let label = match &e.voting {
                    Voting::Majority => "majority",
                    Voting::Any => "any",
                    Voting::Weighted(_) => "weighted",
                };
                write!(f, "{label}(")?;
                for (i, member) in e.members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{member}")?;
                }
                f.write_str(")")
            }
            ValidatorSpec::Drift(d) => {
                let tests: Vec<&str> = d
                    .tests
                    .iter()
                    .map(|t| match t {
                        DriftTest::Ks => "ks",
                        DriftTest::Psi => "psi",
                    })
                    .collect();
                write!(f, "drift[{}]", tests.join("+"))
            }
            // "gated", not "gate": the Gate baseline is a registered backend
            // name, and the built composite labels itself "gated(…)" too.
            ValidatorSpec::Gated(g) => write!(f, "gated({} -> {})", g.cheap, g.expensive),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> ValidatorSpec {
        ValidatorSpec::gated(
            ValidatorSpec::drift(),
            ValidatorSpec::ensemble(
                vec![
                    ValidatorSpec::backend("dquag"),
                    ValidatorSpec::backend("gate"),
                ],
                Voting::Weighted(vec![2.0, 1.0]),
            ),
            EscalateWhen::ScoreAtLeast(0.5),
        )
    }

    #[test]
    fn backend_options_round_trip_and_legacy_wire_still_parses() {
        let spec = ValidatorSpec::backend_with_options(
            "persisted-dquag",
            [("path".to_string(), "/tmp/model.json".to_string())],
        );
        spec.validated().unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ValidatorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        // Older wire forms keep parsing: specs ride in checkpoints and
        // configs written by older builds, which carry an empty `params`
        // object and may lack `options`.
        for legacy in [
            r#"{"Backend": {"name": "dquag", "params": {}}}"#,
            r#"{"Backend": {"name": "dquag", "params": null, "options": {}}}"#,
            r#"{"Backend": {"name": "dquag"}}"#,
        ] {
            let parsed: ValidatorSpec = serde_json::from_str(legacy).unwrap();
            assert_eq!(parsed, ValidatorSpec::backend("dquag"), "{legacy}");
        }

        // A non-empty `params` is refused, naming its keys: dropping
        // `epochs: 5` silently would build another validator than the file
        // declares.
        let overridden = r#"{"Backend": {"name": "dquag", "params": {"epochs": 5, "seed": 1}}}"#;
        let err = serde_json::from_str::<ValidatorSpec>(overridden)
            .unwrap_err()
            .to_string();
        assert!(err.contains("`epochs`, `seed`"), "{err}");
        assert!(err.contains("DquagConfig"), "{err}");

        // Empty option keys are rejected by validation.
        let bad = ValidatorSpec::backend_with_options(
            "persisted-dquag",
            [(" ".to_string(), String::new())],
        );
        assert!(bad.validated().is_err());
    }

    #[test]
    fn spec_trees_round_trip_through_json() {
        let spec = sample_tree();
        let json = serde_json::to_string(&spec).unwrap();
        let back: ValidatorSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);

        // The wire shape is externally tagged and hand-writable.
        let literal = r#"{"Ensemble": {"members": [
            {"Backend": {"name": "adqv", "params": {}}},
            {"Drift": {"tests": ["Ks"], "ks_threshold": 0.2, "psi_threshold": 0.3, "bins": 8}}
        ], "voting": "Any"}}"#;
        let parsed: ValidatorSpec = serde_json::from_str(literal).unwrap();
        assert_eq!(
            parsed,
            ValidatorSpec::ensemble(
                vec![
                    ValidatorSpec::backend("adqv"),
                    ValidatorSpec::Drift(DriftSpec {
                        tests: vec![DriftTest::Ks],
                        ks_threshold: 0.2,
                        psi_threshold: 0.3,
                        bins: 8,
                    }),
                ],
                Voting::Any,
            )
        );
    }

    #[test]
    fn tree_introspection() {
        let spec = sample_tree();
        assert_eq!(
            spec.to_string(),
            "gated(drift[ks+psi] -> weighted(dquag, gate))"
        );
    }

    #[test]
    fn validation_accepts_the_sample_and_defaults() {
        assert!(sample_tree().validated().is_ok());
        assert!(ValidatorSpec::drift().validated().is_ok());
        assert!(ValidatorSpec::backend("dquag").validated().is_ok());
    }

    #[test]
    fn validation_rejects_structural_problems() {
        let cases: Vec<(ValidatorSpec, &str)> = vec![
            (ValidatorSpec::backend("  "), "non-empty"),
            (
                ValidatorSpec::ensemble(vec![], Voting::Majority),
                "at least one member",
            ),
            (
                ValidatorSpec::ensemble(
                    vec![ValidatorSpec::backend("adqv")],
                    Voting::Weighted(vec![1.0, 1.0]),
                ),
                "weights",
            ),
            (
                ValidatorSpec::ensemble(
                    vec![ValidatorSpec::backend("adqv")],
                    Voting::Weighted(vec![0.0]),
                ),
                "zero",
            ),
            (
                ValidatorSpec::Drift(DriftSpec {
                    tests: vec![],
                    ..DriftSpec::default()
                }),
                "at least one test",
            ),
            (
                ValidatorSpec::Drift(DriftSpec {
                    ks_threshold: 0.0,
                    ..DriftSpec::default()
                }),
                "ks_threshold",
            ),
            (
                ValidatorSpec::Drift(DriftSpec {
                    psi_threshold: -1.0,
                    ..DriftSpec::default()
                }),
                "psi_threshold",
            ),
            (
                ValidatorSpec::Drift(DriftSpec {
                    bins: 1,
                    ..DriftSpec::default()
                }),
                "bins",
            ),
            (
                ValidatorSpec::gated(
                    ValidatorSpec::drift(),
                    ValidatorSpec::backend("dquag"),
                    EscalateWhen::ScoreAtLeast(f64::INFINITY),
                ),
                "escalation score",
            ),
            (
                // Problems deep in the tree surface too.
                ValidatorSpec::ensemble(
                    vec![ValidatorSpec::ensemble(vec![], Voting::Any)],
                    Voting::Majority,
                ),
                "at least one member",
            ),
        ];
        for (spec, needle) in cases {
            match spec.validated() {
                Err(crate::CoreError::InvalidConfig(msg)) => assert!(
                    msg.contains(needle),
                    "error for {spec:?} should mention `{needle}`, got `{msg}`"
                ),
                other => panic!("{spec:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn name_normalisation_collides_spellings() {
        for spelling in ["Deequ auto", "deequ-auto", "DEEQU_AUTO", "deequauto"] {
            assert_eq!(normalize_backend_name(spelling), "deequauto");
        }
    }
}
