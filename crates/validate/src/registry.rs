//! The open backend registry: named builders and spec-tree construction.
//!
//! A [`ValidatorRegistry`] maps backend names to builder closures and turns
//! declarative [`ValidatorSpec`] trees into boxed [`Validator`]s:
//! `Backend` leaves resolve through the name table, `Ensemble`/`Gated`
//! nodes become [`crate::EnsembleValidator`]/[`crate::GatedValidator`]
//! compositions, and `Drift` nodes become [`crate::DriftValidator`]s. The
//! seven paper backends plus `drift` come pre-registered
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
//!         {"Backend": {"name": "dquag", "params": {}}},
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
use dquag_core::spec::{normalize_backend_name, BackendSpec, DriftSpec, ValidatorSpec};
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
    /// `deequ-expert`, `tfdv-auto`, `tfdv-expert`, `adqv`, `gate`) plus the
    /// `drift` detector pre-registered.
    pub fn with_defaults() -> Self {
        let mut registry = Self::new();
        registry.register("dquag", build_dquag);
        for kind in BaselineKind::ALL {
            registry.register(kind.key(), move |spec, _config| {
                reject_params(spec)?;
                Ok(Box::new(BaselineBackend::new(kind)))
            });
        }
        registry.register("drift", build_drift_leaf);
        registry
    }

    /// Register (or replace) a backend under `name`.
    ///
    /// The builder receives the backend leaf — name plus numeric params —
    /// and the deployment [`DquagConfig`]; it returns an *unfitted*
    /// validator. Builders should reject unknown params instead of ignoring
    /// them.
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

/// The process-wide default registry (the paper backends plus `drift`),
/// used by [`build_spec`].
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

/// The `dquag` backend builder: numeric params override the corresponding
/// configuration fields, and the amended configuration is range-checked.
///
/// A leaf with *no* params adopts the caller's configuration as-is, without
/// re-validating it: a hand-assembled configuration surfaces its problems
/// at `fit`, not at construction.
fn build_dquag(spec: &BackendSpec, config: &DquagConfig) -> Result<Box<dyn Validator>> {
    if spec.params.is_empty() {
        return Ok(Box::new(DquagBackend::new(config.clone())));
    }
    let mut config = config.clone();
    for (key, &value) in &spec.params {
        match key.as_str() {
            "epochs" => config.epochs = param_usize(key, value)?,
            "batch_size" => config.batch_size = param_usize(key, value)?,
            "hidden_dim" => config.model.hidden_dim = param_usize(key, value)?,
            "n_layers" => config.model.n_layers = param_usize(key, value)?,
            "learning_rate" => config.learning_rate = value as f32,
            "threshold_percentile" => config.threshold_percentile = value,
            "dataset_flag_factor" => config.dataset_flag_factor = value,
            "feature_sigma" => config.feature_sigma = value as f32,
            "inference_batch_size" => config.inference_batch_size = param_usize(key, value)?,
            "seed" => config.seed = param_usize(key, value)? as u64,
            other => {
                return Err(ValidateError::InvalidConfig(format!(
                    "backend `dquag` does not understand param `{other}` (supported: \
                     epochs, batch_size, hidden_dim, n_layers, learning_rate, \
                     threshold_percentile, dataset_flag_factor, feature_sigma, \
                     inference_batch_size, seed)"
                )))
            }
        }
    }
    let config = config
        .validated()
        .map_err(|e| ValidateError::InvalidConfig(e.to_string()))?;
    Ok(Box::new(DquagBackend::new(config)))
}

/// The `drift` backend leaf: thresholds and binning as numeric params, both
/// tests enabled (use a `Drift` spec node to pick a single test).
fn build_drift_leaf(spec: &BackendSpec, _config: &DquagConfig) -> Result<Box<dyn Validator>> {
    let mut drift = DriftSpec::default();
    for (key, &value) in &spec.params {
        match key.as_str() {
            "ks_threshold" => drift.ks_threshold = value,
            "psi_threshold" => drift.psi_threshold = value,
            "bins" => drift.bins = param_usize(key, value)?,
            other => {
                return Err(ValidateError::InvalidConfig(format!(
                    "backend `drift` does not understand param `{other}` (supported: \
                     ks_threshold, psi_threshold, bins)"
                )))
            }
        }
    }
    ValidatorSpec::Drift(drift.clone())
        .validated()
        .map_err(|e| ValidateError::InvalidConfig(e.to_string()))?;
    Ok(Box::new(DriftValidator::new(drift)))
}

/// Baselines are self-configuring; a param is a typo, not a knob.
fn reject_params(spec: &BackendSpec) -> Result<()> {
    if let Some(key) = spec.params.keys().next() {
        return Err(ValidateError::InvalidConfig(format!(
            "backend `{}` accepts no params, got `{key}`",
            spec.name
        )));
    }
    Ok(())
}

/// A non-negative integer-valued param, rejected otherwise.
fn param_usize(key: &str, value: f64) -> Result<usize> {
    if value.fract() != 0.0 || value < 0.0 || value > usize::MAX as f64 {
        return Err(ValidateError::InvalidConfig(format!(
            "param `{key}` must be a non-negative integer, got {value}"
        )));
    }
    Ok(value as usize)
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
                "drift",
                "gate",
                "tfdv-auto",
                "tfdv-expert"
            ]
        );
        // Lookup is case- and punctuation-insensitive.
        assert!(registry.contains("Deequ auto"));
        assert!(registry.contains("DEEQU_AUTO"));
        assert!(!registry.contains("nope"));
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
    fn dquag_params_override_the_config() {
        let config = DquagConfig::fast();
        let spec = ValidatorSpec::backend_with(
            "dquag",
            [("epochs".to_string(), 3.0), ("hidden_dim".to_string(), 8.0)],
        );
        // Builds fine; the override is visible through the backend's config.
        let built = default_registry().build(&spec, &config).unwrap();
        assert_eq!(built.name(), "DQuaG");

        // Out-of-range and unknown params are rejected, not ignored.
        let bad = ValidatorSpec::backend_with("dquag", [("epochs".to_string(), 0.0)]);
        assert!(default_registry().build(&bad, &config).is_err());
        let unknown = ValidatorSpec::backend_with("dquag", [("epoches".to_string(), 3.0)]);
        match default_registry().build(&unknown, &config).map(|_| ()) {
            Err(ValidateError::InvalidConfig(msg)) => {
                assert!(msg.contains("epoches"), "got `{msg}`")
            }
            other => panic!("unknown param must fail, got {other:?}"),
        }

        // Baselines accept no params at all.
        let baseline = ValidatorSpec::backend_with("gate", [("level".to_string(), 2.0)]);
        assert!(default_registry().build(&baseline, &config).is_err());
    }

    #[test]
    fn build_validator_stays_infallible_on_hand_assembled_configs() {
        // A param-free `dquag` leaf takes the caller's configuration without
        // validating it, even an out-of-range hand-assembled one: problems
        // surface at `fit`, not at construction.
        let mut config = DquagConfig::fast();
        config.epochs = 0;
        let validator = build_spec(&ValidatorSpec::backend("dquag"), &config)
            .expect("a param-free leaf adopts the config as-is");
        assert_eq!(validator.name(), "DQuaG");
    }

    #[test]
    fn drift_leaf_params_configure_the_detector() {
        let config = DquagConfig::fast();
        let spec = ValidatorSpec::backend_with(
            "drift",
            [("ks_threshold".to_string(), 0.3), ("bins".to_string(), 6.0)],
        );
        let built = default_registry().build(&spec, &config).unwrap();
        assert_eq!(built.name(), "KS/PSI drift");

        let bad = ValidatorSpec::backend_with("drift", [("bins".to_string(), 1.0)]);
        assert!(default_registry().build(&bad, &config).is_err());
    }
}
