//! The typed row model every compiled scenario flows through.
//!
//! A scenario stage does not know the Rust type of its rows — it sees
//! [`Row`]s of [`Value`]s plus a column-name schema tracked by the
//! compiler. `Value` therefore has to satisfy every bound the dataflow
//! engine places on row and key types at once: `Clone + Send + Sync`
//! for partition evaluation, `Hash + Eq` so a value can key a shuffle,
//! [`ByteSized`] so the optimizer's cost model and the spill budget see
//! its volume, and [`SpillRow`] so byte-budgeted stores can park spec
//! rows on disk in the same deterministic encoding every typed row uses.
//!
//! Floats are the one delicate case: `f64` is neither `Eq` nor `Hash`.
//! `Value::Float` compares and hashes **by bit pattern** (`to_bits`), the
//! same convention [`row_route_key`](peachy_serve::row_route_key) uses
//! for sharded routing — exact, deterministic, and `NaN`-safe, at the
//! price of `-0.0 != 0.0`. Spec pipelines that key by floats inherit
//! that convention knowingly.

use std::fmt;
use std::hash::{Hash, Hasher};

use peachy_dataflow::{ByteSized, SpillReader, SpillRow};

/// One cell of a scenario row.
#[derive(Debug, Clone)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer (counts, years, labels).
    Int(i64),
    /// 64-bit float; equality and hashing are bitwise.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Nested list (the result of a `group` stage).
    List(Vec<Value>),
}

/// A scenario row: one `Value` per column of the stage's schema.
pub type Row = Vec<Value>;

impl Value {
    /// Short tag for error messages ("int", "float", …).
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::List(_) => "list",
        }
    }

    /// Numeric view, promoting `Int` to `f64`; `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Total order used by sink `sort` keys: numbers before strings,
    /// floats via [`f64::total_cmp`], so sorting is deterministic for
    /// every value mix (documented in the grammar reference).
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.total_cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            // Cross-type: order by type rank so the comparator stays total.
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::List(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            (List(a), List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Bool(b) => {
                state.write_u8(0);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(1);
                i.hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::List(l) => {
                state.write_u8(4);
                l.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl ByteSized for Value {
    fn approx_bytes(&self) -> usize {
        1 + match self {
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Str(s) => s.len(),
            Value::List(l) => l.iter().map(|v| v.approx_bytes()).sum(),
        }
    }
}

impl SpillRow for Value {
    fn spill_encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Bool(b) => {
                out.push(0);
                b.spill_encode(out);
            }
            Value::Int(i) => {
                out.push(1);
                i.spill_encode(out);
            }
            Value::Float(f) => {
                out.push(2);
                f.spill_encode(out);
            }
            Value::Str(s) => {
                out.push(3);
                s.spill_encode(out);
            }
            Value::List(l) => {
                out.push(4);
                l.spill_encode(out);
            }
        }
    }

    fn spill_decode(r: &mut SpillReader<'_>) -> Self {
        match r.read_array::<1>()[0] {
            0 => Value::Bool(bool::spill_decode(r)),
            1 => Value::Int(i64::spill_decode(r)),
            2 => Value::Float(f64::spill_decode(r)),
            3 => Value::Str(String::spill_decode(r)),
            4 => Value::List(Vec::<Value>::spill_decode(r)),
            tag => panic!("spilled Value: unknown tag {tag}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        v.spill_encode(&mut buf);
        let mut r = SpillReader::new(&buf);
        let back = Value::spill_decode(&mut r);
        assert_eq!(r.remaining(), 0, "decoder consumed everything");
        back
    }

    #[test]
    fn spill_roundtrips_every_variant() {
        let values = vec![
            Value::Bool(true),
            Value::Int(-42),
            Value::Float(1.5),
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Str("peach".into()),
            Value::List(vec![Value::Int(1), Value::Str("x".into())]),
        ];
        for v in &values {
            assert_eq!(&roundtrip(v), v);
        }
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_ne!(Value::Int(1), Value::Float(1.0));
    }

    #[test]
    fn total_cmp_orders_mixed_numbers() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).total_cmp(&Value::Float(1.5)), Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(1)), Greater);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Str("b".into())),
            Less
        );
    }

    #[test]
    fn hash_distinguishes_int_and_float_bits() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_ne!(h(&Value::Int(1)), h(&Value::Float(1.0)));
        assert_eq!(h(&Value::Float(1.0)), h(&Value::Float(1.0)));
    }
}
