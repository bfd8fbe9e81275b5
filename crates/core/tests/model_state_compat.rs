//! Models saved by earlier releases must keep loading. Their `config` may
//! still carry fields `DquagConfig` has since dropped; those keys are listed
//! in `fixtures/retired_config_keys.json` with the values earlier releases
//! wrote, a nested key by its dotted path (`source.serving.keep_alive`).
//! A spec leaf's retired `params` appears with overrides set: a state keeps
//! loading whatever they were, since its config fields already hold them.
//! The data layer's two retired gauge options appear set too: they only
//! chose which gauge series a bundle exported. A state carrying these keys
//! must deserialize, restore, and score exactly like the validator that
//! exported it.

use dquag_core::{DquagConfig, DquagModelState, DquagValidator};
use dquag_datagen::{inject_ordinary, DatasetKind, OrdinaryError};
use serde_json::Value;
use std::collections::BTreeMap;

const RETIRED_CONFIG_KEYS: &str = include_str!("fixtures/retired_config_keys.json");

#[test]
fn state_with_retired_config_keys_loads_and_scores_identically() {
    let kind = DatasetKind::CreditCard;
    let clean = kind.generate_clean(400, 7);
    let original =
        DquagValidator::train(&clean, &[], &DquagConfig::fast()).expect("training succeeds");

    // Write the state the way an earlier release did: today's fields plus
    // the retired keys.
    let retired: BTreeMap<String, Value> =
        serde_json::from_str(RETIRED_CONFIG_KEYS).expect("fixture parses");
    assert!(!retired.is_empty(), "the fixture lists retired keys");
    let mut state = serde_json::to_value(&original.export_state());
    let Value::Object(root) = &mut state else {
        panic!("a model state serialises to an object");
    };
    let Some(Value::Object(config)) = root.get_mut("config") else {
        panic!("a model state carries its config object");
    };
    for (path, value) in retired {
        let mut keys: Vec<&str> = path.split('.').collect();
        let key = keys.pop().expect("split yields a key");
        let mut object = &mut *config;
        for parent in keys {
            let Some(Value::Object(child)) = object.get_mut(parent) else {
                panic!("`{path}`: the config has no `{parent}` object");
            };
            object = child;
        }
        assert!(
            object.insert(key.to_string(), value).is_none(),
            "`{path}` is still a DquagConfig field; drop it from the fixture"
        );
    }
    let json = serde_json::to_string(&state).expect("state serialises");

    let legacy: DquagModelState = serde_json::from_str(&json).expect("legacy state deserialises");
    assert_eq!(legacy, original.export_state());
    let restored = DquagValidator::from_state(legacy).expect("legacy state restores");

    let mut rng = dquag_datagen::rng(41);
    let mut batch = dquag_datagen::sample_fraction(&clean, 0.3, &mut rng);
    let columns = kind.default_ordinary_error_columns();
    inject_ordinary(
        &mut batch,
        OrdinaryError::NumericAnomalies,
        &columns,
        0.2,
        &mut rng,
    );
    let expected = original.validate(&batch).expect("original validates");
    assert!(!expected.flagged_instances.is_empty());
    assert_eq!(
        restored.validate(&batch).expect("restored validates"),
        expected
    );
}
