//! Minimal, self-contained stand-in for the `serde` crate.
//!
//! The build environment for this repository has no access to crates.io,
//! so this shim provides the small slice of serde's surface the workspace
//! actually uses: `Serialize`/`Deserialize` traits driven by a JSON-like
//! [`Value`] data model, plus derive macros (re-exported from
//! `serde_derive`) supporting named structs, tuple structs, enums
//! (externally tagged and `#[serde(untagged)]`), and the attributes
//! `#[serde(default)]`, `#[serde(default = "path")]`, `#[serde(skip)]`,
//! and `#[serde(skip_serializing_if = "path")]`.
//!
//! Unlike real serde there is no streaming serializer: serialization goes
//! through the in-memory [`Value`] tree, which is plenty for scenario
//! files and experiment reports.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::BTreeMap;
use std::fmt;

/// A JSON number, kept in its widest lossless representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Unsigned integer.
    U64(u64),
    /// Signed (negative) integer.
    I64(i64),
    /// Floating point.
    F64(f64),
}

impl Number {
    /// Lossy conversion to `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// Exact conversion to `u64` when representable.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::U64(v) => Some(v),
            Number::I64(v) => u64::try_from(v).ok(),
            Number::F64(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            Number::F64(_) => None,
        }
    }

    /// Exact conversion to `i64` when representable.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::U64(v) => i64::try_from(v).ok(),
            Number::I64(v) => Some(v),
            Number::F64(v) if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 => {
                Some(v as i64)
            }
            Number::F64(_) => None,
        }
    }
}

/// Object representation: sorted keys make serialization deterministic.
pub type Map = BTreeMap<String, Value>;

/// An in-memory JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Map),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be turned into a [`Value`].
pub trait Serialize {
    /// Build the value tree.
    fn serialize(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuild from a value tree.
    fn deserialize(v: &Value) -> Result<Self, Error>;

    /// The value to use when a struct field is absent entirely.
    ///
    /// `None` means "absence is an error" (unless the field carries a
    /// `#[serde(default)]`); `Option<T>` overrides this to yield
    /// `Some(None)`, matching serde's implicit-optional semantics.
    fn deserialize_missing() -> Option<Self> {
        None
    }
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Number(Number::U64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| {
                            Error::custom(format!(
                                "number {n:?} does not fit in {}",
                                stringify!($t)
                            ))
                        }),
                    other => Err(Error::custom(format!(
                        "expected {}, found {}",
                        stringify!($t),
                        other.type_name()
                    ))),
                }
            }
        }
    )*};
}
ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                let v = *self as i64;
                if v >= 0 {
                    Value::Number(Number::U64(v as u64))
                } else {
                    Value::Number(Number::I64(v))
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|x| <$t>::try_from(x).ok())
                        .ok_or_else(|| {
                            Error::custom(format!(
                                "number {n:?} does not fit in {}",
                                stringify!($t)
                            ))
                        }),
                    other => Err(Error::custom(format!(
                        "expected {}, found {}",
                        stringify!($t),
                        other.type_name()
                    ))),
                }
            }
        }
    )*};
}
ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize(&self) -> Value {
        Value::Number(Number::F64(*self))
    }
}
impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::custom(format!("expected f64, found {}", v.type_name())))
    }
}

impl Serialize for f32 {
    fn serialize(&self) -> Value {
        Value::Number(Number::F64(f64::from(*self)))
    }
}
impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        f64::deserialize(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, found {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }
}
impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::custom(format!("expected string, found {}", v.type_name())))
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(x) => x.serialize(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
    fn deserialize_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom(format!("expected array, found {}", v.type_name())))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Deserialize> Deserialize for std::collections::VecDeque<T> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom(format!("expected array, found {}", v.type_name())))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::deserialize(v)?;
        <[T; N]>::try_from(items)
            .map_err(|items| Error::custom(format!("expected {N} elements, found {}", items.len())))
    }
}

macro_rules! ser_de_tuple {
    ($(($($t:ident : $idx:tt),+) with $n:expr;)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(v: &Value) -> Result<Self, Error> {
                let a = v.as_array().ok_or_else(|| {
                    Error::custom(format!("expected {}-tuple array, found {}", $n, v.type_name()))
                })?;
                if a.len() != $n {
                    return Err(Error::custom(format!(
                        "expected array of length {}, found {}",
                        $n,
                        a.len()
                    )));
                }
                Ok(($($t::deserialize(&a[$idx])?,)+))
            }
        }
    )*};
}
ser_de_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

/// Map keys must render to / parse from JSON object keys (strings).
pub trait JsonKey: Sized + Ord {
    /// Render the key.
    fn to_key(&self) -> String;
    /// Parse the key back.
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_owned())
    }
}

macro_rules! json_key_num {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse()
                    .map_err(|_| Error::custom(format!("bad {} map key: {s:?}", stringify!($t))))
            }
        }
    )*};
}
json_key_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: JsonKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.serialize()))
                .collect(),
        )
    }
}
impl<K: JsonKey, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom(format!("expected object, found {}", v.type_name())))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize(v)?)))
            .collect()
    }
}

impl<K: JsonKey + std::hash::Hash, V: Serialize> Serialize for std::collections::HashMap<K, V> {
    fn serialize(&self) -> Value {
        let mut sorted: Vec<(&K, &V)> = self.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            sorted
                .into_iter()
                .map(|(k, v)| (k.to_key(), v.serialize()))
                .collect(),
        )
    }
}
impl<K: JsonKey + std::hash::Hash, V: Deserialize> Deserialize for std::collections::HashMap<K, V> {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom(format!("expected object, found {}", v.type_name())))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::deserialize(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------------
// Helpers used by the derive macro expansions
// ---------------------------------------------------------------------------

/// Support routines referenced by `serde_derive` output. Not public API.
pub mod helpers {
    use super::{Deserialize, Error, Map, Value};

    /// The object map or a typed error.
    pub fn as_object<'v>(v: &'v Value, ty: &str) -> Result<&'v Map, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom(format!("{ty}: expected object")))
    }

    /// A required field: absent is an error unless the target type opts
    /// into implicit-missing (`Option<T>`).
    pub fn req_field<T: Deserialize>(m: &Map, field: &str, ty: &str) -> Result<T, Error> {
        match m.get(field) {
            Some(v) => T::deserialize(v).map_err(|e| Error::custom(format!("{ty}.{field}: {e}"))),
            None => T::deserialize_missing()
                .ok_or_else(|| Error::custom(format!("{ty}: missing field `{field}`"))),
        }
    }

    /// An optional field: `Ok(None)` when absent, parse error when present
    /// but malformed.
    pub fn opt_field<T: Deserialize>(m: &Map, field: &str, ty: &str) -> Result<Option<T>, Error> {
        match m.get(field) {
            Some(v) => T::deserialize(v)
                .map(Some)
                .map_err(|e| Error::custom(format!("{ty}.{field}: {e}"))),
            None => Ok(None),
        }
    }

    /// The single `tag: payload` entry of an externally-tagged enum value.
    pub fn single_entry<'v>(v: &'v Value, ty: &str) -> Result<(&'v str, &'v Value), Error> {
        let m = as_object(v, ty)?;
        if m.len() != 1 {
            return Err(Error::custom(format!(
                "{ty}: expected single-key variant object, found {} keys",
                m.len()
            )));
        }
        let (k, v) = m.iter().next().expect("len checked");
        Ok((k.as_str(), v))
    }

    /// Error for an unrecognized enum tag.
    pub fn unknown_variant(ty: &str, tag: &str) -> Error {
        Error::custom(format!("{ty}: unknown variant `{tag}`"))
    }

    /// The fixed-length payload array of a tuple variant / tuple struct.
    pub fn tuple_payload<'v>(v: &'v Value, len: usize, ty: &str) -> Result<&'v [Value], Error> {
        let a = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("{ty}: expected array payload")))?;
        if a.len() != len {
            return Err(Error::custom(format!(
                "{ty}: expected array of length {len}, found {}",
                a.len()
            )));
        }
        Ok(a)
    }
}
