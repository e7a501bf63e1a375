//! Offline stand-in for `serde`. Instead of the visitor-based
//! serializer architecture, `Serialize` lowers values into a small
//! JSON-like [`Value`] tree; `serde_json` (the sibling shim) renders
//! that tree. `Deserialize` is a marker trait — nothing in this
//! workspace deserializes, but the derives must compile.
//!
//! The derive macros are re-exported from `serde_derive` under the same
//! names as the traits, matching serde's `derive` feature layout.

// Let the derive-generated `::serde::...` paths resolve when deriving
// inside this crate itself (e.g. in the tests below).
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

/// Intermediate representation produced by [`Serialize::to_value`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Marker: the workspace derives it but never drives a deserializer.
pub trait Deserialize {}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

/// Collects `(key, value)` pairs into an object, keys in iteration
/// order (`serde_json::Value` collects the same way).
impl<K: Into<String>> FromIterator<(K, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(entries: I) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_lower_to_expected_variants() {
        assert_eq!(3u32.to_value(), Value::U64(3));
        assert_eq!((-3i32).to_value(), Value::I64(-3));
        assert_eq!(true.to_value(), Value::Bool(true));
        assert_eq!("x".to_value(), Value::Str("x".into()));
        assert_eq!(
            vec![1u8, 2].to_value(),
            Value::Array(vec![Value::U64(1), Value::U64(2)])
        );
        assert_eq!(Option::<u8>::None.to_value(), Value::Null);
        assert_eq!(
            Value::from_iter([("b", 1u8.to_value()), ("a", Value::Null)]),
            Value::Object(vec![("b".into(), Value::U64(1)), ("a".into(), Value::Null)])
        );
    }

    #[test]
    fn derive_struct_and_enum_round_trip() {
        #[derive(Serialize, Deserialize)]
        struct Point {
            x: u32,
            y: f64,
        }

        #[derive(Serialize, Deserialize)]
        enum Kind {
            Alpha,
            Beta,
        }

        #[derive(Serialize, Deserialize)]
        struct Generic<T> {
            items: Vec<T>,
            label: &'static str,
        }

        let p = Point { x: 1, y: 2.5 };
        assert_eq!(
            p.to_value(),
            Value::Object(vec![
                ("x".into(), Value::U64(1)),
                ("y".into(), Value::F64(2.5)),
            ])
        );
        assert_eq!(Kind::Alpha.to_value(), Value::Str("Alpha".into()));
        assert_eq!(Kind::Beta.to_value(), Value::Str("Beta".into()));
        let g = Generic {
            items: vec![1u32, 2],
            label: "g",
        };
        assert_eq!(
            g.to_value(),
            Value::Object(vec![
                (
                    "items".into(),
                    Value::Array(vec![Value::U64(1), Value::U64(2)])
                ),
                ("label".into(), Value::Str("g".into())),
            ])
        );
    }
}
