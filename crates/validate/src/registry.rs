//! The open backend registry: named builders and spec-tree construction.
//!
//! A [`ValidatorRegistry`] maps backend names to builder closures and turns
//! declarative [`ValidatorSpec`] trees into boxed [`Validator`]s:
//! `Backend` leaves resolve through the name table, `Ensemble`/`Gated`
//! nodes become [`crate::EnsembleValidator`]/[`crate::GatedValidator`]
//! compositions, and `Drift` nodes become [`crate::DriftValidator`]s. The
//! seven paper backends come pre-registered
//! ([`ValidatorRegistry::with_defaults`]); downstream code adds its own
//! backends with [`ValidatorRegistry::register`] — no enum to extend, no
//! fork of this crate.
//!
//! ```no_run
//! use dquag_validate::ValidatorRegistry;
//! use dquag_core::DquagConfig;
//!
//! let spec: dquag_core::ValidatorSpec = serde_json::from_str(
//!     r#"{"Ensemble": {"members": [
//!         {"Backend": {"name": "dquag"}},
//!         {"Drift": {"tests": ["Ks", "Psi"],
//!                    "ks_threshold": 0.15, "psi_threshold": 0.25, "bins": 10}}
//!     ], "voting": "Any"}}"#,
//! ).unwrap();
//! let validator = ValidatorRegistry::with_defaults()
//!     .build(&spec, &DquagConfig::default())
//!     .unwrap();
//! ```

use crate::backends::{BaselineBackend, DquagBackend};
use crate::combinators::{EnsembleValidator, GatedValidator};
use crate::drift::DriftValidator;
use crate::{Result, ValidateError, Validator};
use dquag_baselines::BaselineKind;
use dquag_core::spec::{normalize_backend_name, BackendSpec, ValidatorSpec};
use dquag_core::DquagConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A builder closure turning a backend leaf plus the deployment
/// configuration into an unfitted validator.
pub type BackendBuilder =
    dyn Fn(&BackendSpec, &DquagConfig) -> Result<Box<dyn Validator>> + Send + Sync;

/// One registered backend: the display name plus its builder.
struct Entry {
    /// Canonical display name, as [`ValidatorRegistry::names`] reports it.
    name: String,
    build: Arc<BackendBuilder>,
}

/// An open mapping from backend names to builder closures.
///
/// Lookup is case-insensitive and punctuation-blind
/// ([`dquag_core::spec::normalize_backend_name`]), so `"Deequ auto"`,
/// `"deequ-auto"` and `"DEEQU_AUTO"` all resolve the same entry.
/// Re-registering a name replaces its builder, which is how downstream code
/// overrides a built-in.
pub struct ValidatorRegistry {
    entries: BTreeMap<String, Entry>,
}

impl ValidatorRegistry {
    /// An empty registry (no backends; combinator and drift nodes still
    /// build).
    pub fn new() -> Self {
        Self {
            entries: BTreeMap::new(),
        }
    }

    /// A registry with the seven paper backends (`dquag`, `deequ-auto`,
    /// `deequ-expert`, `tfdv-auto`, `tfdv-expert`, `adqv`, `gate`)
    /// pre-registered. None of them takes options: `dquag` adopts the
    /// deployment's [`DquagConfig`] and the baselines configure themselves.
    pub fn with_defaults() -> Self {
        let mut registry = Self::new();
        registry.register("dquag", |spec, config| {
            reject_options(spec)?;
            Ok(Box::new(DquagBackend::new(config.clone())))
        });
        for kind in BaselineKind::ALL {
            registry.register(kind.key(), move |spec, _config| {
                reject_options(spec)?;
                Ok(Box::new(BaselineBackend::new(kind)))
            });
        }
        registry
    }

    /// Register (or replace) a backend under `name`.
    ///
    /// The builder receives the backend leaf — name plus options — and the
    /// deployment [`DquagConfig`]; it returns an *unfitted* validator.
    /// Builders should reject unknown options instead of ignoring them.
    pub fn register<F>(&mut self, name: impl Into<String>, build: F) -> &mut Self
    where
        F: Fn(&BackendSpec, &DquagConfig) -> Result<Box<dyn Validator>> + Send + Sync + 'static,
    {
        let name = name.into();
        self.entries.insert(
            normalize_backend_name(&name),
            Entry {
                name,
                build: Arc::new(build),
            },
        );
        self
    }

    /// Canonical names of every registered backend, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.values().map(|e| e.name.as_str()).collect()
    }

    /// True when `name` resolves to a registered backend.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(&normalize_backend_name(name))
    }

    /// Build an unfitted validator from a spec tree.
    ///
    /// The tree is structurally validated first, then built bottom-up:
    /// unknown backend names fail with a [`ValidateError::InvalidConfig`]
    /// listing every registered name.
    pub fn build(&self, spec: &ValidatorSpec, config: &DquagConfig) -> Result<Box<dyn Validator>> {
        spec.validated()
            .map_err(|e| ValidateError::InvalidConfig(e.to_string()))?;
        self.build_node(spec, config)
    }

    fn build_node(&self, spec: &ValidatorSpec, config: &DquagConfig) -> Result<Box<dyn Validator>> {
        match spec {
            ValidatorSpec::Backend(backend) => {
                let entry = self
                    .entries
                    .get(&normalize_backend_name(&backend.name))
                    .ok_or_else(|| self.unknown_backend(&backend.name))?;
                (entry.build)(backend, config)
            }
            ValidatorSpec::Ensemble(ensemble) => {
                let members: Vec<Box<dyn Validator>> = ensemble
                    .members
                    .iter()
                    .map(|member| self.build_node(member, config))
                    .collect::<Result<_>>()?;
                Ok(Box::new(EnsembleValidator::new(
                    members,
                    ensemble.voting.clone(),
                )?))
            }
            ValidatorSpec::Drift(drift) => Ok(Box::new(DriftValidator::new(drift.clone()))),
            ValidatorSpec::Gated(gated) => Ok(Box::new(GatedValidator::new(
                self.build_node(&gated.cheap, config)?,
                self.build_node(&gated.expensive, config)?,
                gated.escalate_when.clone(),
            )?)),
        }
    }

    fn unknown_backend(&self, name: &str) -> ValidateError {
        ValidateError::InvalidConfig(format!(
            "unknown validator backend `{name}`; registered backends: {}",
            self.names().join(", ")
        ))
    }
}

impl Default for ValidatorRegistry {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl fmt::Debug for ValidatorRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ValidatorRegistry")
            .field("backends", &self.names())
            .finish()
    }
}

/// The process-wide default registry (the seven paper backends), used by
/// [`build_spec`].
///
/// The default registry is immutable by design — process-global mutable
/// state would make two deployments in one process fight over names. Code
/// that registers custom backends owns a [`ValidatorRegistry`] value
/// instead.
pub fn default_registry() -> &'static ValidatorRegistry {
    static DEFAULT: OnceLock<ValidatorRegistry> = OnceLock::new();
    DEFAULT.get_or_init(ValidatorRegistry::with_defaults)
}

/// Build an unfitted validator from a spec tree using the default registry.
pub fn build_spec(spec: &ValidatorSpec, config: &DquagConfig) -> Result<Box<dyn Validator>> {
    default_registry().build(spec, config)
}

/// The paper backends take no options; an option is a typo or meant for
/// another backend (a model `path` belongs to `persisted-dquag`), never a
/// knob to ignore.
fn reject_options(spec: &BackendSpec) -> Result<()> {
    if let Some(key) = spec.options.keys().next() {
        return Err(ValidateError::InvalidConfig(format!(
            "backend `{}` accepts no options, got `{key}`",
            spec.name
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_order() {
        let config = DquagConfig::fast();
        // The paper's table order: the baselines, then DQuaG.
        let keys = BaselineKind::ALL
            .iter()
            .map(BaselineKind::key)
            .chain(["dquag"]);
        let labels: Vec<String> = keys
            .map(|key| {
                build_spec(&ValidatorSpec::backend(key), &config)
                    .unwrap()
                    .name()
                    .to_string()
            })
            .collect();
        assert_eq!(
            labels,
            vec![
                "Deequ auto",
                "Deequ expert",
                "TFDV auto",
                "TFDV expert",
                "ADQV",
                "Gate",
                "DQuaG"
            ]
        );
    }

    #[test]
    fn every_kind_builds_its_backend() {
        let config = DquagConfig::fast();
        for kind in BaselineKind::ALL {
            let validator = build_spec(&ValidatorSpec::backend(kind.key()), &config).unwrap();
            assert_eq!(validator.name(), kind.label());
            let caps = validator.capabilities();
            assert!(!caps.cell_flags && !caps.repair, "{kind:?}");
        }
        let dquag = build_spec(&ValidatorSpec::backend("dquag"), &config).unwrap();
        assert_eq!(dquag.name(), "DQuaG");
        let caps = dquag.capabilities();
        assert!(caps.cell_flags && caps.repair);
    }

    #[test]
    fn default_registry_knows_the_paper_backends_plus_drift() {
        let registry = default_registry();
        assert_eq!(
            registry.names(),
            vec![
                "adqv",
                "deequ-auto",
                "deequ-expert",
                "dquag",
                "gate",
                "tfdv-auto",
                "tfdv-expert"
            ]
        );
        // Lookup is case- and punctuation-insensitive.
        assert!(registry.contains("Deequ auto"));
        assert!(registry.contains("DEEQU_AUTO"));
        assert!(!registry.contains("nope"));

        // Drift is declared by its own node, not by a backend leaf.
        let config = DquagConfig::fast();
        let drift = registry.build(&ValidatorSpec::drift(), &config).unwrap();
        assert_eq!(drift.name(), "KS/PSI drift");
        let leaf: ValidatorSpec =
            serde_json::from_str(r#"{"Backend": {"name": "drift"}}"#).unwrap();
        match registry.build(&leaf, &config).map(|_| ()) {
            Err(ValidateError::InvalidConfig(msg)) => {
                assert!(
                    msg.contains("unknown validator backend `drift`"),
                    "got `{msg}`"
                )
            }
            other => panic!("a `drift` leaf must be an unknown backend, got {other:?}"),
        }
    }

    #[test]
    fn unknown_backends_fail_with_the_name_list() {
        let config = DquagConfig::fast();
        match default_registry()
            .build(&ValidatorSpec::backend("nope"), &config)
            .map(|_| ())
        {
            Err(ValidateError::InvalidConfig(msg)) => {
                assert!(msg.contains("`nope`"), "got `{msg}`");
                assert!(msg.contains("dquag"), "got `{msg}`");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn custom_backends_register_and_build() {
        struct Custom;
        impl Validator for Custom {
            fn name(&self) -> &str {
                "Custom"
            }
            fn capabilities(&self) -> crate::Capabilities {
                crate::Capabilities::dataset_level()
            }
            fn fit(&mut self, _clean: &dquag_tabular::DataFrame) -> Result<crate::FitReport> {
                unimplemented!("registration test never fits")
            }
            fn validate(&self, _batch: &dquag_tabular::DataFrame) -> Result<crate::Verdict> {
                unimplemented!("registration test never validates")
            }
        }

        let mut registry = ValidatorRegistry::with_defaults();
        registry.register("custom", |_spec, _config| Ok(Box::new(Custom)));
        let config = DquagConfig::fast();
        let built = registry
            .build(&ValidatorSpec::backend("CUSTOM"), &config)
            .expect("custom backend resolves case-insensitively");
        assert_eq!(built.name(), "Custom");

        // Composition reaches custom backends too.
        let spec = ValidatorSpec::ensemble(
            vec![ValidatorSpec::backend("custom"), ValidatorSpec::drift()],
            dquag_core::spec::Voting::Any,
        );
        let ensemble = registry.build(&spec, &config).expect("ensemble builds");
        assert_eq!(ensemble.name(), "any(Custom, KS/PSI drift)");
    }

    #[test]
    fn paper_backends_refuse_unknown_options() {
        // An option meant for another backend (a model `path` belongs to
        // `persisted-dquag`) must not be ignored: `dquag` would silently
        // train from scratch.
        let config = DquagConfig::fast();
        let keys = ["dquag"]
            .into_iter()
            .chain(BaselineKind::ALL.iter().map(BaselineKind::key));
        for key in keys {
            let spec = ValidatorSpec::backend_with_options(
                key,
                [("path".to_string(), "model.json".to_string())],
            );
            match default_registry().build(&spec, &config).map(|_| ()) {
                Err(ValidateError::InvalidConfig(msg)) => assert!(
                    msg.contains(&format!("backend `{key}` accepts no options, got `path`")),
                    "got `{msg}`"
                ),
                other => panic!("`{key}` must refuse the option, got {other:?}"),
            }
        }
    }

    #[test]
    fn build_validator_stays_infallible_on_hand_assembled_configs() {
        // The `dquag` leaf takes the caller's configuration without
        // validating it, even an out-of-range hand-assembled one: problems
        // surface at `fit`, not at construction.
        let mut config = DquagConfig::fast();
        config.epochs = 0;
        let validator = build_spec(&ValidatorSpec::backend("dquag"), &config)
            .expect("the leaf adopts the config as-is");
        assert_eq!(validator.name(), "DQuaG");
    }
}
