//! `#[serde(skip)]` derive support: skipped fields are omitted when
//! serializing and refilled from `Default::default()` when deserializing.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a test fails by panicking"
)]

use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct WithSkip {
    kept: u32,
    #[serde(skip)]
    scratch: f64,
    name: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Tagged {
    Unit,
    Named {
        kept: u32,
        #[serde(skip)]
        scratch: f64,
    },
}

#[test]
fn struct_skip_field_is_omitted_and_defaulted() {
    let v = WithSkip {
        kept: 7,
        scratch: 3.5,
        name: "x".into(),
    };
    let value = v.serialize_value();
    let map = value.as_map().unwrap();
    assert_eq!(map.len(), 2, "skipped field must not be serialized");
    assert!(map.iter().all(|(k, _)| k != "scratch"));

    let back = WithSkip::deserialize_value(&value).unwrap();
    assert_eq!(
        back,
        WithSkip {
            scratch: 0.0,
            ..v.clone()
        }
    );
}

#[test]
fn enum_named_variant_skip_field_is_omitted_and_defaulted() {
    let v = Tagged::Named {
        kept: 3,
        scratch: 9.0,
    };
    let value = v.serialize_value();
    let (tag, payload) = &value.as_map().unwrap()[0];
    assert_eq!(tag, "Named");
    assert_eq!(payload.as_map().unwrap().len(), 1);

    let back = Tagged::deserialize_value(&value).unwrap();
    assert_eq!(
        back,
        Tagged::Named {
            kept: 3,
            scratch: 0.0
        }
    );
    assert_eq!(
        Tagged::deserialize_value(&Tagged::Unit.serialize_value()).unwrap(),
        Tagged::Unit
    );
}
