//! Compile-time attributes attached to operations.

use std::fmt;

use crate::affine::AffineMap;
use crate::types::Type;

/// A compile-time constant attached to an operation under a string key.
#[derive(Debug, Clone, PartialEq)]
pub enum Attribute {
    /// A unit attribute (presence-only flag).
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// A type attribute.
    TypeAttr(Type),
    /// An array of integers (e.g. tile sizes, workgroup shapes, permutations).
    IntArray(Vec<i64>),
    /// An array of strings (e.g. `cnm.physical_dims = ["dpu", "thread"]`).
    StrArray(Vec<String>),
    /// An affine map (e.g. scatter/gather maps).
    Map(AffineMap),
    /// A dense constant of 64-bit integers with a shape (splat or full).
    DenseInt {
        /// Shape of the constant.
        shape: Vec<i64>,
        /// Row-major values; a single element means a splat.
        values: Vec<i64>,
    },
}

impl Attribute {
    /// Returns the integer payload if this is an [`Attribute::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attribute::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload if this is an [`Attribute::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attribute::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is an [`Attribute::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attribute::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string payload if this is an [`Attribute::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attribute::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the integer-array payload if this is an [`Attribute::IntArray`].
    pub fn as_int_array(&self) -> Option<&[i64]> {
        match self {
            Attribute::IntArray(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the string-array payload if this is an [`Attribute::StrArray`].
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Attribute::StrArray(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the affine-map payload if this is an [`Attribute::Map`].
    pub fn as_map(&self) -> Option<&AffineMap> {
        match self {
            Attribute::Map(v) => Some(v),
            _ => None,
        }
    }

    /// Returns the type payload if this is an [`Attribute::TypeAttr`].
    pub fn as_type(&self) -> Option<&Type> {
        match self {
            Attribute::TypeAttr(v) => Some(v),
            _ => None,
        }
    }
}

impl From<i64> for Attribute {
    fn from(value: i64) -> Self {
        Attribute::Int(value)
    }
}

impl From<bool> for Attribute {
    fn from(value: bool) -> Self {
        Attribute::Bool(value)
    }
}

impl From<f64> for Attribute {
    fn from(value: f64) -> Self {
        Attribute::Float(value)
    }
}

impl From<&str> for Attribute {
    fn from(value: &str) -> Self {
        Attribute::Str(value.to_string())
    }
}

impl From<String> for Attribute {
    fn from(value: String) -> Self {
        Attribute::Str(value)
    }
}

impl From<Vec<i64>> for Attribute {
    fn from(value: Vec<i64>) -> Self {
        Attribute::IntArray(value)
    }
}

impl From<AffineMap> for Attribute {
    fn from(value: AffineMap) -> Self {
        Attribute::Map(value)
    }
}

impl From<Type> for Attribute {
    fn from(value: Type) -> Self {
        Attribute::TypeAttr(value)
    }
}

/// The attributes of one operation or function: `(key, value)` pairs in one
/// list kept sorted by key.
///
/// Keys are `&'static str` — every attribute key in the tree is a literal or
/// a dialect `const` — so the map owns no key and an op with no attributes
/// owns no heap memory for them. Iteration is in ascending byte order of the
/// keys, the order of a `BTreeMap<String, _>`: the printer writes attributes
/// in iteration order, so printed IR depends on this.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrMap {
    entries: Vec<(&'static str, Attribute)>,
}

impl AttrMap {
    /// Creates an empty map (no allocation).
    pub const fn new() -> Self {
        AttrMap {
            entries: Vec::new(),
        }
    }

    /// Sets `key` to `value`; returns the value it replaces, if any.
    pub fn insert(&mut self, key: &'static str, value: Attribute) -> Option<Attribute> {
        match self.entries.binary_search_by(|(k, _)| (*k).cmp(key)) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Looks up an attribute by key.
    ///
    /// A scan, not a search: an op has a handful of attributes, and string
    /// equality rejects a key of another length without reading it; the same
    /// `'static` string (the usual case: a dialect `const` on both sides) is
    /// accepted by address.
    pub fn get(&self, key: &str) -> Option<&Attribute> {
        self.entries
            .iter()
            .find(|(k, _)| std::ptr::eq(*k, key) || *k == key)
            .map(|(_, v)| v)
    }

    /// Whether an attribute with this key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The attributes in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Attribute)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no attribute.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attribute::Unit => write!(f, "unit"),
            Attribute::Bool(b) => write!(f, "{b}"),
            Attribute::Int(v) => write!(f, "{v}"),
            Attribute::Float(v) => write!(f, "{v:e}"),
            Attribute::Str(s) => write!(f, "\"{s}\""),
            Attribute::TypeAttr(t) => write!(f, "{t}"),
            Attribute::IntArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Attribute::StrArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "\"{x}\"")?;
                }
                write!(f, "]")
            }
            Attribute::Map(m) => write!(f, "{m}"),
            Attribute::DenseInt { shape, values } => {
                if values.len() == 1 {
                    write!(f, "dense<{}> : ", values[0])?;
                } else {
                    write!(f, "dense<[..{} values..]> : ", values.len())?;
                }
                write!(f, "tensor<")?;
                for d in shape {
                    write!(f, "{d}x")?;
                }
                write!(f, "i64>")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScalarType;

    #[test]
    fn accessors_return_expected_payloads() {
        assert_eq!(Attribute::Int(5).as_int(), Some(5));
        assert_eq!(Attribute::Int(5).as_bool(), None);
        assert_eq!(Attribute::Bool(true).as_bool(), Some(true));
        assert_eq!(Attribute::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Attribute::Str("x".into()).as_str(), Some("x"));
        assert_eq!(
            Attribute::IntArray(vec![1, 2]).as_int_array(),
            Some(&[1_i64, 2][..])
        );
        let t = Type::tensor(&[2], ScalarType::I32);
        assert_eq!(Attribute::TypeAttr(t.clone()).as_type(), Some(&t));
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Attribute::from(3_i64), Attribute::Int(3));
        assert_eq!(Attribute::from(true), Attribute::Bool(true));
        assert_eq!(Attribute::from("dpu"), Attribute::Str("dpu".into()));
        assert_eq!(
            Attribute::from(vec![16_i64, 16]),
            Attribute::IntArray(vec![16, 16])
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Attribute::Int(7).to_string(), "7");
        assert_eq!(Attribute::Str("dpu".into()).to_string(), "\"dpu\"");
        assert_eq!(Attribute::IntArray(vec![8, 2]).to_string(), "[8, 2]");
        assert_eq!(
            Attribute::StrArray(vec!["dpu".into(), "thread".into()]).to_string(),
            "[\"dpu\", \"thread\"]"
        );
        let d = Attribute::DenseInt {
            shape: vec![16, 16],
            values: vec![0],
        };
        assert_eq!(d.to_string(), "dense<0> : tensor<16x16xi64>");
    }

    /// The printer writes attributes in iteration order, so the order must be
    /// the one `BTreeMap<String, _>` gave: byte order of the keys, whatever
    /// order they were inserted in.
    #[test]
    fn attr_map_iterates_in_btreemap_order() {
        let keys = [
            "tile",
            "cnm.wram_tile",
            "cim.tile_size",
            "Z",
            "cnm.op_kind",
            "cim.kernel",
            "a",
            "cnm",
            "fuse.len",
            "cim.min_writes",
            "value",
            "",
        ];
        let mut map = AttrMap::new();
        let mut reference = std::collections::BTreeMap::<String, Attribute>::new();
        for (i, key) in keys.into_iter().enumerate() {
            assert_eq!(map.insert(key, Attribute::Int(i as i64)), None);
            reference.insert(key.to_string(), Attribute::Int(i as i64));
        }
        assert_eq!(map.len(), keys.len());
        let got: Vec<(&str, &Attribute)> = map.iter().collect();
        let want: Vec<(&str, &Attribute)> =
            reference.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn attr_map_insert_replaces_and_lookups_miss_cleanly() {
        let mut map = AttrMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get("k"), None);
        assert!(!map.contains_key("k"));
        assert_eq!(map.insert("k", Attribute::Int(1)), None);
        assert_eq!(map.insert("k", Attribute::Int(2)), Some(Attribute::Int(1)));
        assert_eq!(map.len(), 1);
        assert_eq!(map.get("k"), Some(&Attribute::Int(2)));
        // Absent keys on either side of a present one.
        assert_eq!(map.get("j"), None);
        assert_eq!(map.get("l"), None);
        assert!(!map.contains_key("kk"));
        assert!(map.contains_key("k"));
        // Equality is by content, not by insertion history.
        let mut other = AttrMap::new();
        other.insert("a", Attribute::Unit);
        assert_ne!(map, other);
        let mut other = AttrMap::new();
        other.insert("k", Attribute::Int(2));
        assert_eq!(map, other);
    }
}
