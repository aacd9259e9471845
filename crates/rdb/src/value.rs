//! Typed cell values.

use std::fmt;

/// The type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnType {
    /// 64-bit signed integer (also used for keys).
    Int,
    /// UTF-8 text.
    Text,
    /// Nullable marker is carried by the value, not the type.
    Float,
}

/// A single cell value in a tuple.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Absent value.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// UTF-8 text.
    Text(String),
    /// 64-bit float.
    Float(f64),
}

impl Value {
    /// Whether this value inhabits `ty` (or is `Null`).
    pub fn matches(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Int)
                | (Value::Text(_), ColumnType::Text)
                | (Value::Float(_), ColumnType::Float)
        )
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The text payload, if any.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Whether the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Text(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Float(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_matching() {
        assert!(Value::Int(1).matches(ColumnType::Int));
        assert!(!Value::Int(1).matches(ColumnType::Text));
        assert!(Value::Null.matches(ColumnType::Int));
        assert!(Value::Text("x".into()).matches(ColumnType::Text));
        assert!(Value::Float(0.5).matches(ColumnType::Float));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Text("t".into()).as_text(), Some("t"));
        assert_eq!(Value::Null.as_int(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from("a"), Value::Text("a".into()));
        assert_eq!(format!("{}", Value::Int(5)), "5");
        assert_eq!(format!("{}", Value::Null), "NULL");
    }
}
