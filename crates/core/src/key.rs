//! Hashable composite keys for group-by and join hash tables.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use smoke_storage::{Column, Relation, Value};

use crate::error::{EngineError, Result};

/// One component of a hash key. Floats are stored by their bit pattern so the
/// key is `Eq + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyPart {
    /// Integer component.
    Int(i64),
    /// Float component (bit pattern).
    FloatBits(u64),
    /// String component.
    Str(String),
}

impl KeyPart {
    fn from_value(v: &Value) -> KeyPart {
        match v {
            Value::Int(x) => KeyPart::Int(*x),
            Value::Float(x) => KeyPart::FloatBits(x.to_bits()),
            Value::Str(s) => KeyPart::Str(s.clone()),
        }
    }

    /// Converts the key part back to a [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            KeyPart::Int(x) => Value::Int(*x),
            KeyPart::FloatBits(b) => Value::Float(f64::from_bits(*b)),
            KeyPart::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// A hashable key over one or more columns.
///
/// Single-column integer keys (by far the most common case in the paper's
/// microbenchmarks: group-by `z`, join on `id`/`z`) avoid any allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HashKey {
    /// Single integer column key.
    Int(i64),
    /// Single string column key.
    Str(String),
    /// Composite or non-integer key.
    Composite(Vec<KeyPart>),
}

impl HashKey {
    /// The key's components as values (used to emit group-by output columns).
    pub fn to_values(&self) -> Vec<Value> {
        match self {
            HashKey::Int(x) => vec![Value::Int(*x)],
            HashKey::Str(s) => vec![Value::Str(s.clone())],
            HashKey::Composite(parts) => parts.iter().map(KeyPart::to_value).collect(),
        }
    }

    /// A 64-bit hash of the key (used by the external-store baseline to build
    /// byte keys).
    pub fn hash64(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Extracts hash keys for a set of key columns of a relation, resolved once
/// per operator.
#[derive(Debug)]
pub struct KeyExtractor<'a> {
    columns: Vec<&'a Column>,
}

impl<'a> KeyExtractor<'a> {
    /// Resolves the named key columns against `relation`.
    pub fn new(relation: &'a Relation, key_columns: &[String]) -> Result<Self> {
        let mut columns = Vec::with_capacity(key_columns.len());
        for name in key_columns {
            let idx = relation
                .column_index(name)
                .map_err(|_| EngineError::UnknownColumn(name.clone()))?;
            columns.push(relation.column(idx));
        }
        Ok(KeyExtractor { columns })
    }

    /// Number of key columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The resolved key columns, in key order (consumed by the vectorized
    /// typed key-extraction kernels in [`smoke_storage::kernels`]).
    pub fn columns(&self) -> &[&'a Column] {
        &self.columns
    }

    /// Builds the key for the row at `rid`.
    #[inline]
    pub fn key(&self, rid: usize) -> HashKey {
        if self.columns.len() == 1 {
            match self.columns[0] {
                Column::Int(v) => return HashKey::Int(v[rid]),
                Column::Str(v) => return HashKey::Str(v[rid].clone()),
                Column::Float(v) => {
                    return HashKey::Composite(vec![KeyPart::FloatBits(v[rid].to_bits())])
                }
            }
        }
        HashKey::Composite(
            self.columns
                .iter()
                .map(|c| KeyPart::from_value(&c.value(rid)))
                .collect(),
        )
    }
}

/// One chunk's key columns in their typed shape: a plain `i64` slice,
/// `(i64, i64)` pairs, a borrowed `&str` column, or the generic [`HashKey`]
/// extractor for every other shape. A view lives as long as its chunk; the
/// [`KeyTable`] it probes owns its keys and outlives every chunk.
pub(crate) enum KeyView<'c> {
    Int(&'c [i64]),
    Pair(Vec<(i64, i64)>),
    Str(&'c [String]),
    Generic(KeyExtractor<'c>),
}

impl<'c> KeyView<'c> {
    /// Views the columns `keys` of `chunk`.
    pub(crate) fn new(chunk: &'c Relation, keys: &[String]) -> Result<KeyView<'c>> {
        use smoke_storage::kernels as sk;
        let extractor = KeyExtractor::new(chunk, keys)?;
        let columns = extractor.columns();
        Ok(if let Some(k) = sk::int_keys(columns) {
            KeyView::Int(k)
        } else if let Some(k) = sk::int_key_pairs(columns) {
            KeyView::Pair(k)
        } else if let Some(k) = sk::str_keys(columns) {
            KeyView::Str(k)
        } else {
            KeyView::Generic(extractor)
        })
    }

    /// The key of `row` as the [`HashKey`] [`KeyExtractor::key`] builds
    /// (needed once per distinct key: for output values and hints).
    pub(crate) fn key(&self, row: usize) -> HashKey {
        match self {
            KeyView::Int(k) => HashKey::Int(k[row]),
            KeyView::Pair(k) => {
                HashKey::Composite(vec![KeyPart::Int(k[row].0), KeyPart::Int(k[row].1)])
            }
            KeyView::Str(k) => HashKey::Str(k[row].clone()),
            KeyView::Generic(extractor) => extractor.key(row),
        }
    }
}

/// Slot value of a [`KeyTable::Dense`] table for "no id assigned yet".
const NO_ID: u32 = u32::MAX;

/// A map from keys to dense ids (group ids, build-table entries) that owns
/// its keys, so it persists across the chunks of a scan and is probed
/// through each chunk's [`KeyView`]: an `i64`, an `(i64, i64)` pair, a
/// string looked up by `&str` (boxed: a 16-byte key keeps buckets as small
/// as a borrowed `&str` key's), or a generic [`HashKey`].
///
/// A single integer key whose whole domain is known before the scan — the
/// view covers every row the table will see — gets a dense id array
/// instead: one array index per row instead of a hash.
pub(crate) enum KeyTable {
    Dense { min: i64, ids: Vec<u32> },
    Int(HashMap<i64, u32>),
    Pair(HashMap<(i64, i64), u32>),
    Str(HashMap<Box<str>, u32>),
    Generic(HashMap<HashKey, u32>),
}

impl KeyTable {
    /// An empty table shaped like `keys`. `whole_input` says that `keys`
    /// views every row the table will ever be filled from.
    pub(crate) fn new(keys: &KeyView, whole_input: bool) -> KeyTable {
        match keys {
            KeyView::Int(k) => {
                if let (true, Some((min, max))) =
                    (whole_input, smoke_storage::kernels::int_min_max(k))
                {
                    let width = max as i128 - min as i128 + 1;
                    // The dense table pays 4 bytes per domain slot; cap it at
                    // a small multiple of the input so sparse domains hash.
                    if width <= 4 * k.len().max(256) as i128 {
                        return KeyTable::Dense {
                            min,
                            ids: vec![NO_ID; width as usize],
                        };
                    }
                }
                KeyTable::Int(HashMap::new())
            }
            KeyView::Pair(_) => KeyTable::Pair(HashMap::new()),
            KeyView::Str(_) => KeyTable::Str(HashMap::new()),
            KeyView::Generic(_) => KeyTable::Generic(HashMap::new()),
        }
    }

    /// The id of `row`'s key, if it has one. Always inlined: the call sits
    /// in every operator's per-row loop, where an outlined call measurably
    /// slows the hash-join probe.
    #[inline(always)]
    pub(crate) fn get(&self, keys: &KeyView, row: usize) -> Option<u32> {
        match (self, keys) {
            (KeyTable::Dense { min, ids }, KeyView::Int(k)) => dense_get(*min, ids, k[row]),
            (KeyTable::Int(m), KeyView::Int(k)) => m.get(&k[row]).copied(),
            (KeyTable::Pair(m), KeyView::Pair(k)) => m.get(&k[row]).copied(),
            (KeyTable::Str(m), KeyView::Str(k)) => m.get(k[row].as_str()).copied(),
            (KeyTable::Generic(m), KeyView::Generic(extractor)) => {
                m.get(&extractor.key(row)).copied()
            }
            // A view's shape follows its key columns' types, so keys viewed
            // in different shapes (a join whose sides key on different
            // types) never compare equal as `HashKey`s either.
            _ => None,
        }
    }

    /// Assigns `id` to `row`'s key, which has none yet.
    pub(crate) fn insert(&mut self, keys: &KeyView, row: usize, id: u32) {
        match (self, keys) {
            (KeyTable::Dense { min, ids }, KeyView::Int(k)) => ids[(k[row] - *min) as usize] = id,
            (KeyTable::Int(m), KeyView::Int(k)) => {
                m.insert(k[row], id);
            }
            (KeyTable::Pair(m), KeyView::Pair(k)) => {
                m.insert(k[row], id);
            }
            (KeyTable::Str(m), KeyView::Str(k)) => {
                m.insert(k[row].as_str().into(), id);
            }
            (KeyTable::Generic(m), KeyView::Generic(extractor)) => {
                m.insert(extractor.key(row), id);
            }
            // Every chunk of one input has the schema's key types, so the
            // views a table is filled through share the shape it was built
            // from.
            _ => unreachable!("a key table is filled through a view of another shape"),
        }
    }
}

/// Dense-table lookup. A key outside the domain wraps to an index past the
/// end, so it reads as absent.
#[inline]
fn dense_get(min: i64, ids: &[u32], key: i64) -> Option<u32> {
    let slot = usize::try_from(key.wrapping_sub(min) as u64).ok()?;
    match ids.get(slot) {
        Some(&NO_ID) | None => None,
        Some(&id) => Some(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoke_storage::DataType;

    fn rel() -> Relation {
        Relation::builder("t")
            .column("z", DataType::Int)
            .column("name", DataType::Str)
            .column("v", DataType::Float)
            .row(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Float(0.5),
            ])
            .row(vec![
                Value::Int(2),
                Value::Str("b".into()),
                Value::Float(0.5),
            ])
            .row(vec![
                Value::Int(1),
                Value::Str("a".into()),
                Value::Float(1.5),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn single_int_key_fast_path() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["z".to_string()]).unwrap();
        assert_eq!(ex.key(0), HashKey::Int(1));
        assert_eq!(ex.key(1), HashKey::Int(2));
        assert_eq!(ex.key(0), ex.key(2));
        assert_eq!(ex.arity(), 1);
    }

    #[test]
    fn composite_keys_distinguish_rows() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["name".to_string(), "v".to_string()]).unwrap();
        assert_eq!(ex.key(0), ex.key(0));
        assert_ne!(ex.key(0), ex.key(2)); // same name, different v
        assert_ne!(ex.key(0), ex.key(1));
    }

    #[test]
    fn key_round_trips_to_values() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["z".to_string(), "name".to_string()]).unwrap();
        assert_eq!(
            ex.key(1).to_values(),
            vec![Value::Int(2), Value::Str("b".into())]
        );
        let single = KeyExtractor::new(&r, &["name".to_string()]).unwrap();
        assert_eq!(single.key(0).to_values(), vec![Value::Str("a".into())]);
    }

    #[test]
    fn float_keys_use_bit_patterns() {
        let r = rel();
        let ex = KeyExtractor::new(&r, &["v".to_string()]).unwrap();
        assert_eq!(ex.key(0), ex.key(1));
        assert_ne!(ex.key(0), ex.key(2));
    }

    #[test]
    fn unknown_key_column_errors() {
        let r = rel();
        assert!(KeyExtractor::new(&r, &["missing".to_string()]).is_err());
    }

    #[test]
    fn hash64_is_stable() {
        let k = HashKey::Int(42);
        assert_eq!(k.hash64(), HashKey::Int(42).hash64());
        assert_ne!(k.hash64(), HashKey::Int(43).hash64());
    }
}
