//! [`Serialize`]/[`Deserialize`] implementations for std types.

use crate::{DeError, Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            #[allow(
                clippy::cast_lossless,
                clippy::cast_possible_wrap,
                reason = "the macro covers every int type; i128 holds each of them"
            )]
            fn serialize_value(&self) -> Value {
                // u64 values above i64::MAX need the U64 variant; everything
                // else fits I64.
                let wide = *self as i128;
                if let Ok(v) = i64::try_from(wide) {
                    Value::I64(v)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }

        impl<'de> Deserialize<'de> for $t {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::float_cmp,
                reason = "only an integral float below 2^63 is cast, and its range is checked after"
            )]
            fn deserialize_value(value: &Value) -> Result<Self, DeError> {
                let wide: i128 = match value {
                    Value::I64(v) => i128::from(*v),
                    Value::U64(v) => i128::from(*v),
                    // Accept integral floats: JSON does not distinguish.
                    Value::F64(f) if f.fract() == 0.0 && f.abs() < 9.3e18 => *f as i128,
                    other => return Err(DeError::expected(stringify!($t), other)),
                };
                <$t>::try_from(wide).map_err(|_| {
                    DeError::custom(format!(
                        concat!("integer {} out of range for ", stringify!($t)),
                        wide
                    ))
                })
            }
        }
    )+};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),+) => {$(
        impl Serialize for $t {
            #[allow(clippy::cast_lossless, reason = "the macro covers f32 and f64 alike")]
            fn serialize_value(&self) -> Value {
                Value::F64(*self as f64)
            }
        }

        impl<'de> Deserialize<'de> for $t {
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_precision_loss,
                reason = "JSON numbers are f64; an f32 field takes the nearest value"
            )]
            fn deserialize_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::F64(f) => Ok(*f as $t),
                    Value::I64(v) => Ok(*v as $t),
                    Value::U64(v) => Ok(*v as $t),
                    // serde_json writes non-finite floats as null.
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::expected("number", other)),
                }
            }
        }
    )+};
}

impl_serde_float!(f32, f64);

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let s = value
            .as_str()
            .ok_or_else(|| DeError::expected("char", value))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom("expected single-character string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(v) => v.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_seq()
            .ok_or_else(|| DeError::expected("array", value))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<'de, T: Deserialize<'de>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::deserialize_value(value)?;
        <[T; N]>::try_from(items)
            .map_err(|v| DeError::custom(format!("expected {N} elements, found {}", v.len())))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.serialize_value()),+])
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize_value(value: &Value) -> Result<Self, DeError> {
                let items = value
                    .as_seq()
                    .ok_or_else(|| DeError::expected("array", value))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(DeError::custom(format!(
                        "expected {expected}-tuple, found {} elements",
                        items.len()
                    )));
                }
                Ok(($($name::deserialize_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<'de, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<String, V> {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_map()
            .ok_or_else(|| DeError::expected("object", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize_value(v)?)))
            .collect()
    }
}

impl<V: Serialize, S: BuildHasher> Serialize for HashMap<String, V, S> {
    fn serialize_value(&self) -> Value {
        // Sort keys so hash-map ordering never leaks into serialized output.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.serialize_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<'de, V: Deserialize<'de>, S: BuildHasher + Default> Deserialize<'de>
    for HashMap<String, V, S>
{
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        value
            .as_map()
            .ok_or_else(|| DeError::expected("object", value))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

impl Serialize for () {
    fn serialize_value(&self) -> Value {
        Value::Null
    }
}
