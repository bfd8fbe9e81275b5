//! The `persisted-dquag` registry backend: restart from disk, no refit.
//!
//! `Backend("persisted-dquag", options = {path: "/var/lib/dquag/model.json"})`
//! rebuilds a fitted, scoring-ready validator straight from a model file —
//! the restart story for deployments whose specs live in configuration. The
//! name says `dquag` because that is the headline use (skipping GNN
//! retraining on boot), but the file may hold any persisted state tree:
//! drift detectors, ensembles and gated pairs restore the same way.
//!
//! The builder lives here rather than in `dquag-validate` so the validate
//! crate keeps zero knowledge of the on-disk format; compose it into a
//! registry with [`register_persistence`] or start from
//! [`registry_with_persistence`].

use crate::error::PersistError;
use crate::store::load_validator;
use dquag_core::spec::BackendSpec;
use dquag_core::DquagConfig;
use dquag_validate::{ValidateError, Validator, ValidatorRegistry};
use std::path::Path;

/// Registry name of the restore-from-disk backend.
pub const PERSISTED_DQUAG: &str = "persisted-dquag";

/// Register the [`PERSISTED_DQUAG`] backend on an existing registry.
pub fn register_persistence(registry: &mut ValidatorRegistry) -> &mut ValidatorRegistry {
    registry.register(PERSISTED_DQUAG, build_persisted);
    registry
}

/// The default registry (the seven paper backends) with
/// [`PERSISTED_DQUAG`] registered on top.
pub fn registry_with_persistence() -> ValidatorRegistry {
    let mut registry = ValidatorRegistry::with_defaults();
    register_persistence(&mut registry);
    registry
}

/// Builder: `options["path"]` names the model file; the validator comes back
/// fitted (its `fit` has already happened, in a previous process).
fn build_persisted(
    spec: &BackendSpec,
    _config: &DquagConfig,
) -> dquag_validate::Result<Box<dyn Validator>> {
    for key in spec.options.keys() {
        if key != "path" {
            return Err(ValidateError::InvalidConfig(format!(
                "backend `{PERSISTED_DQUAG}` does not understand option `{key}` \
                 (supported: path)"
            )));
        }
    }
    let path = spec.options.get("path").ok_or_else(|| {
        ValidateError::InvalidConfig(format!(
            "backend `{PERSISTED_DQUAG}` needs an options entry `path` naming the model file"
        ))
    })?;
    load_validator(Path::new(path)).map_err(|e| match e {
        PersistError::Rebuild(inner) => inner,
        other => ValidateError::InvalidConfig(other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::save_validator;
    use dquag_core::spec::{DriftSpec, ValidatorSpec};
    use dquag_tabular::{DataFrame, Field, Schema, Value};
    use dquag_validate::DriftValidator;

    #[test]
    fn persisted_backend_restores_a_fitted_validator_from_spec() {
        let dir =
            std::env::temp_dir().join(format!("dquag-persist-registry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");

        let schema = Schema::new(vec![Field::numeric("amount", "")]);
        let mut clean = DataFrame::new(schema.clone());
        for i in 0..50 {
            clean.push_row(vec![Value::Number(i as f64)]).unwrap();
        }
        let mut detector = DriftValidator::new(DriftSpec::default());
        detector.fit(&clean).unwrap();
        save_validator(&path, &detector).unwrap();

        let registry = registry_with_persistence();
        // The defaults are still there, plus the restore backend.
        assert!(registry.contains("dquag"));
        assert!(registry.contains(PERSISTED_DQUAG));

        let spec = ValidatorSpec::backend_with_options(
            PERSISTED_DQUAG,
            [("path".to_string(), path.display().to_string())],
        );
        let config = DquagConfig::fast();
        let restored = registry.build(&spec, &config).expect("restores from disk");

        // Fitted and scoring-ready — no fit call anywhere in this test path.
        let mut drifted = DataFrame::new(schema);
        for i in 0..10 {
            drifted
                .push_row(vec![Value::Number(9_000.0 + i as f64)])
                .unwrap();
        }
        assert_eq!(
            restored.validate(&drifted).unwrap(),
            detector.validate(&drifted).unwrap()
        );

        // Missing path option is a configuration error, not a crash.
        let bare = ValidatorSpec::backend(PERSISTED_DQUAG);
        match registry.build(&bare, &config).map(|_| ()) {
            Err(ValidateError::InvalidConfig(msg)) => {
                assert!(msg.contains("path"), "got `{msg}`")
            }
            other => panic!("missing path must be InvalidConfig, got {other:?}"),
        }

        // Unknown options are rejected, not ignored.
        let typo = ValidatorSpec::backend_with_options(
            PERSISTED_DQUAG,
            [("pathh".to_string(), "x".to_string())],
        );
        assert!(registry.build(&typo, &config).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}
