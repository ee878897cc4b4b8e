//! Offline stand-in for `serde_json` (the container has no registry).
//!
//! `chariots-simnet`'s Chrome-trace exporter names `serde_json::Value`
//! and calls `to_value` outside its tests. The stand-in `serde` cannot
//! serialize, so [`to_value`] always returns an error; the [`Value`]
//! tree itself is real. The benchmark never calls the exporter.

use std::collections::BTreeMap;
use std::fmt;

pub type Map<K, V> = BTreeMap<K, V>;

#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Value>),
    Object(Map<String, Value>),
}

impl Value {
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

#[derive(Debug)]
pub struct Error(&'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}
impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Always fails: the stand-in `serde` has no serializer to drive.
pub fn to_value<T: serde::Serialize>(_value: T) -> Result<Value> {
    Err(Error("serde_json stand-in cannot serialize"))
}
