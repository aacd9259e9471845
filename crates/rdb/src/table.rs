//! Row storage: one arena of encoded rows per table, plus a primary-key
//! index for foreign-key validation and joins.

use crate::codec::{decode_cell, decode_row, encode_row};
use crate::error::RdbError;
use crate::schema::{ColumnId, TableSchema};
use crate::value::Value;
use comm_graph::weight::index_to_u32;
use std::collections::HashMap;

/// Index of a row within its table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RowId(pub u32);

/// A table: schema + encoded row arena + primary-key index.
pub struct Table {
    schema: TableSchema,
    arena: Vec<u8>,
    /// `offsets[i]..offsets[i+1]` is row `i`'s byte range.
    offsets: Vec<u32>,
    pk_index: HashMap<i64, RowId>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            arena: Vec::new(),
            offsets: vec![0],
            pk_index: HashMap::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a row after validating arity, types, and primary-key
    /// uniqueness. Foreign keys are validated by
    /// [`Database::insert`](crate::Database::insert).
    pub fn insert_unchecked_fk(&mut self, values: &[Value]) -> Result<RowId, RdbError> {
        if values.len() != self.schema.arity() {
            return Err(RdbError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (i, (v, c)) in values.iter().zip(&self.schema.columns).enumerate() {
            if !v.matches(c.ty) {
                return Err(RdbError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: c.name.clone(),
                    index: i,
                });
            }
        }
        let row = RowId(index_to_u32(self.len()));
        let key = match self.schema.primary_key {
            Some(pk) => {
                let key =
                    values[pk.0 as usize]
                        .as_int()
                        .ok_or_else(|| RdbError::NullPrimaryKey {
                            table: self.schema.name.clone(),
                        })?;
                if self.pk_index.contains_key(&key) {
                    return Err(RdbError::DuplicateKey {
                        table: self.schema.name.clone(),
                        key,
                    });
                }
                Some(key)
            }
            None => None,
        };
        // encode_row validates before writing, so a failure here leaves the
        // arena untouched; the index entry is added only once the row is in.
        encode_row(values, &mut self.arena)?;
        self.offsets.push(index_to_u32(self.arena.len()));
        if let Some(key) = key {
            self.pk_index.insert(key, row);
        }
        Ok(row)
    }

    fn row_bytes(&self, row: RowId) -> &[u8] {
        let lo = self.offsets[row.0 as usize] as usize;
        let hi = self.offsets[row.0 as usize + 1] as usize;
        &self.arena[lo..hi]
    }

    /// Decodes a full row, surfacing arena corruption as an error.
    pub fn try_row(&self, row: RowId) -> Result<Vec<Value>, RdbError> {
        decode_row(self.row_bytes(row), self.schema.arity())
    }

    /// Decodes one cell of a row, surfacing arena corruption as an error.
    pub fn try_cell(&self, row: RowId, column: ColumnId) -> Result<Value, RdbError> {
        decode_cell(self.row_bytes(row), column.0 as usize)
    }

    /// Decodes a full row.
    #[expect(
        clippy::expect_used,
        reason = "the arena is written only by encode_row, whose output always decodes"
    )]
    pub fn row(&self, row: RowId) -> Vec<Value> {
        self.try_row(row)
            .expect("table arena holds a malformed row")
    }

    /// Decodes one cell of a row.
    #[expect(
        clippy::expect_used,
        reason = "the arena is written only by encode_row, whose output always decodes"
    )]
    pub fn cell(&self, row: RowId, column: ColumnId) -> Value {
        self.try_cell(row, column)
            .expect("table arena holds a malformed cell")
    }

    /// Looks a row up by primary key.
    pub fn by_primary_key(&self, key: i64) -> Option<RowId> {
        self.pk_index.get(&key).copied()
    }

    /// Iterates all row ids.
    pub fn rows(&self) -> impl Iterator<Item = RowId> {
        (0..index_to_u32(self.len())).map(RowId)
    }

    /// Bytes used by the row arena (for size reporting).
    pub fn byte_size(&self) -> usize {
        self.arena.len() + self.offsets.len() * 4 + self.pk_index.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColumnType;

    fn authors() -> Table {
        Table::new(
            TableSchema::new(
                "Author",
                vec![
                    ColumnDef::new("Aid", ColumnType::Int),
                    ColumnDef::full_text("Name"),
                ],
            )
            .with_primary_key("Aid"),
        )
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = authors();
        let r = t
            .insert_unchecked_fk(&[Value::Int(1), Value::from("Kate Green")])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.row(r), vec![Value::Int(1), Value::from("Kate Green")]);
        assert_eq!(t.cell(r, ColumnId(1)), Value::from("Kate Green"));
    }

    #[test]
    fn pk_lookup() {
        let mut t = authors();
        t.insert_unchecked_fk(&[Value::Int(10), Value::from("A")])
            .unwrap();
        let r = t
            .insert_unchecked_fk(&[Value::Int(20), Value::from("B")])
            .unwrap();
        assert_eq!(t.by_primary_key(20), Some(r));
        assert_eq!(t.by_primary_key(30), None);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = authors();
        t.insert_unchecked_fk(&[Value::Int(1), Value::from("A")])
            .unwrap();
        let err = t
            .insert_unchecked_fk(&[Value::Int(1), Value::from("B")])
            .unwrap_err();
        assert!(matches!(err, RdbError::DuplicateKey { key: 1, .. }));
    }

    #[test]
    fn arity_checked() {
        let mut t = authors();
        let err = t.insert_unchecked_fk(&[Value::Int(1)]).unwrap_err();
        assert!(matches!(
            err,
            RdbError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn type_checked() {
        let mut t = authors();
        let err = t
            .insert_unchecked_fk(&[Value::from("oops"), Value::from("A")])
            .unwrap_err();
        assert!(matches!(err, RdbError::TypeMismatch { index: 0, .. }));
    }

    #[test]
    fn null_pk_rejected() {
        let mut t = authors();
        let err = t
            .insert_unchecked_fk(&[Value::Null, Value::from("A")])
            .unwrap_err();
        assert!(matches!(err, RdbError::NullPrimaryKey { .. }));
    }

    #[test]
    fn many_rows_roundtrip() {
        let mut t = authors();
        for i in 0..500 {
            t.insert_unchecked_fk(&[Value::Int(i), Value::Text(format!("author {i}"))])
                .unwrap();
        }
        assert_eq!(t.len(), 500);
        assert_eq!(
            t.cell(RowId(123), ColumnId(1)),
            Value::Text("author 123".into())
        );
        assert!(t.byte_size() > 0);
    }
}
