//! Table schemas, primary keys, and foreign-key references.
//!
//! Foreign keys are what turn a relational database into the paper's
//! database graph `G_D`: every tuple is a node and every foreign-key
//! reference contributes an edge between the referencing and the referenced
//! tuple.

use crate::value::ColumnType;
use comm_graph::weight::index_to_u32;

/// Index of a table within a database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TableId(pub u32);

/// Index of a column within a table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ColumnId(pub u32);

/// One column of a table.
#[derive(Clone, Debug)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Value type.
    pub ty: ColumnType,
    /// Whether this column participates in the full-text index (the
    /// paper locates keyword nodes "using the full text index").
    pub full_text: bool,
}

impl ColumnDef {
    /// A plain column.
    pub fn new(name: &str, ty: ColumnType) -> ColumnDef {
        ColumnDef {
            name: name.to_owned(),
            ty,
            full_text: false,
        }
    }

    /// A text column included in the full-text index.
    pub fn full_text(name: &str) -> ColumnDef {
        ColumnDef {
            name: name.to_owned(),
            ty: ColumnType::Text,
            full_text: true,
        }
    }
}

/// A foreign-key constraint: `column` of this table references the primary
/// key of `target` table.
#[derive(Clone, Debug)]
pub struct ForeignKey {
    /// Referencing column in this table.
    pub column: ColumnId,
    /// Referenced table (its primary key).
    pub target: TableId,
}

/// The schema of one table.
#[derive(Clone, Debug)]
pub struct TableSchema {
    /// Table name (unique within the database).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// The primary-key column, if the table has one. Must be `Int`.
    pub primary_key: Option<ColumnId>,
    /// Foreign keys declared on this table.
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    /// Creates a schema with the given name and columns.
    pub fn new(name: &str, columns: Vec<ColumnDef>) -> TableSchema {
        TableSchema {
            name: name.to_owned(),
            columns,
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    /// Declares `column` as the integer primary key.
    pub fn with_primary_key(mut self, column: &str) -> TableSchema {
        #[expect(
            clippy::panic,
            reason = "schema construction is programmer-facing; a typo'd column is a build bug"
        )]
        let id = self
            .column_id(column)
            .unwrap_or_else(|| panic!("no column named {column}"));
        assert_eq!(
            self.columns[id.0 as usize].ty,
            ColumnType::Int,
            "primary keys must be Int columns"
        );
        self.primary_key = Some(id);
        self
    }

    /// Declares a foreign key from `column` to table `target`.
    pub fn with_foreign_key(mut self, column: &str, target: TableId) -> TableSchema {
        #[expect(
            clippy::panic,
            reason = "schema construction is programmer-facing; a typo'd column is a build bug"
        )]
        let id = self
            .column_id(column)
            .unwrap_or_else(|| panic!("no column named {column}"));
        assert_eq!(
            self.columns[id.0 as usize].ty,
            ColumnType::Int,
            "foreign keys must be Int columns"
        );
        self.foreign_keys.push(ForeignKey { column: id, target });
        self
    }

    /// Looks a column up by name.
    pub fn column_id(&self, name: &str) -> Option<ColumnId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(|i| ColumnId(index_to_u32(i)))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Ids of the full-text columns.
    pub fn full_text_columns(&self) -> impl Iterator<Item = ColumnId> + '_ {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.full_text)
            .map(|(i, _)| ColumnId(index_to_u32(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_schema() -> TableSchema {
        TableSchema::new(
            "Paper",
            vec![
                ColumnDef::new("Pid", ColumnType::Int),
                ColumnDef::full_text("Title"),
            ],
        )
        .with_primary_key("Pid")
    }

    #[test]
    fn column_lookup() {
        let s = paper_schema();
        assert_eq!(s.column_id("Pid"), Some(ColumnId(0)));
        assert_eq!(s.column_id("Title"), Some(ColumnId(1)));
        assert_eq!(s.column_id("Nope"), None);
        assert_eq!(s.arity(), 2);
    }

    #[test]
    fn primary_key_recorded() {
        let s = paper_schema();
        assert_eq!(s.primary_key, Some(ColumnId(0)));
    }

    #[test]
    fn full_text_columns() {
        let s = paper_schema();
        let ft: Vec<_> = s.full_text_columns().collect();
        assert_eq!(ft, vec![ColumnId(1)]);
    }

    #[test]
    fn foreign_keys() {
        let s = TableSchema::new(
            "Write",
            vec![
                ColumnDef::new("Aid", ColumnType::Int),
                ColumnDef::new("Pid", ColumnType::Int),
            ],
        )
        .with_foreign_key("Aid", TableId(0))
        .with_foreign_key("Pid", TableId(1));
        assert_eq!(s.foreign_keys.len(), 2);
        assert_eq!(s.foreign_keys[0].column, ColumnId(0));
        assert_eq!(s.foreign_keys[1].target, TableId(1));
    }

    #[test]
    #[should_panic(expected = "must be Int")]
    fn text_primary_key_rejected() {
        let _ = TableSchema::new("T", vec![ColumnDef::full_text("name")]).with_primary_key("name");
    }
}
