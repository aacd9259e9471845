//! Property tests for the relational layer: codec roundtrips, constraint
//! enforcement, tokenizer/index agreement, and graph materialization
//! invariants. Each property runs over [`CASES`] seeded random inputs.

use comm_graph::SplitMix64;
use comm_rdb::{
    tokenize, ColumnDef, ColumnId, ColumnType, Database, DatabaseGraph, EdgeMode, FullTextIndex,
    TableSchema, Value, WeightScheme,
};
use std::ops::RangeInclusive;

const CASES: u64 = 192;

/// Between 1 and `max_count - 1` texts over `classes`.
fn texts(
    rng: &mut SplitMix64,
    classes: &[RangeInclusive<char>],
    max_len: usize,
    max_count: usize,
) -> Vec<String> {
    (0..1 + rng.index(max_count - 1))
        .map(|_| rng.string(classes, max_len))
        .collect()
}

/// `[a-zA-Z0-9 àßç]`
const ACCENTED_ALNUM: [RangeInclusive<char>; 7] = [
    'a'..='z',
    'A'..='Z',
    '0'..='9',
    ' '..=' ',
    'à'..='à',
    'ß'..='ß',
    'ç'..='ç',
];

fn arbitrary_value(rng: &mut SplitMix64) -> Value {
    match rng.index(4) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Text(rng.string(&ACCENTED_ALNUM, 40)),
        _ => Value::Float((rng.unit_f64() * 2.0 - 1.0) * 1e12),
    }
}

/// Rows written through a table come back bit-identical, cell by cell.
#[test]
fn row_storage_roundtrip() {
    SplitMix64::for_each_case(CASES, |rng| {
        let texts = texts(rng, &['a'..='z', '가'..='힣', ' '..=' '], 30, 30);
        let mut db = Database::new();
        let t = db.create_table(
            TableSchema::new(
                "T",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::full_text("body"),
                ],
            )
            .with_primary_key("id"),
        );
        for (i, text) in texts.iter().enumerate() {
            db.insert(t, &[Value::Int(i as i64), Value::Text(text.clone())])
                .unwrap();
        }
        let table = db.table(t);
        for (i, text) in texts.iter().enumerate() {
            let row = table.by_primary_key(i as i64).expect("pk exists");
            assert_eq!(table.cell(row, ColumnId(1)), Value::Text(text.clone()));
            assert_eq!(
                table.row(row),
                vec![Value::Int(i as i64), Value::Text(text.clone())]
            );
        }
    });
}

/// Arbitrary typed rows survive storage when types line up.
#[test]
fn heterogeneous_rows_roundtrip() {
    SplitMix64::for_each_case(CASES, |rng| {
        let rows: Vec<(i64, Value, Value)> = (0..1 + rng.index(24))
            .map(|_| {
                (
                    rng.next_u64() as i64,
                    arbitrary_value(rng),
                    arbitrary_value(rng),
                )
            })
            .collect();
        let mut db = Database::new();
        let t = db.create_table(TableSchema::new(
            "U",
            vec![
                ColumnDef::new("k", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Text),
                ColumnDef::new("b", ColumnType::Float),
            ],
        ));
        let mut inserted = Vec::new();
        for (k, a, b) in rows {
            // Coerce to the column types (Null always allowed).
            let a = match a {
                Value::Text(s) => Value::Text(s),
                _ => Value::Null,
            };
            let b = match b {
                Value::Float(f) => Value::Float(f),
                _ => Value::Null,
            };
            let vals = vec![Value::Int(k), a, b];
            db.insert(t, &vals).unwrap();
            inserted.push(vals);
        }
        let table = db.table(t);
        for (row, vals) in table.rows().zip(&inserted) {
            assert_eq!(&table.row(row), vals);
        }
    });
}

/// The full-text index finds exactly the rows whose tokenization
/// contains the keyword.
#[test]
fn full_text_index_is_exact() {
    SplitMix64::for_each_case(CASES, |rng| {
        let titles = texts(rng, &['a'..='c', ' '..=' '], 12, 25);
        let mut db = Database::new();
        let t = db.create_table(
            TableSchema::new(
                "D",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::full_text("s"),
                ],
            )
            .with_primary_key("id"),
        );
        for (i, title) in titles.iter().enumerate() {
            db.insert(t, &[Value::Int(i as i64), Value::Text(title.clone())])
                .unwrap();
        }
        let idx = FullTextIndex::build(&db);
        for probe in ["a", "ab", "abc", "b", "c"] {
            let hits: Vec<usize> = idx.lookup(probe).iter().map(|r| r.row.0 as usize).collect();
            let expect: Vec<usize> = titles
                .iter()
                .enumerate()
                .filter(|(_, s)| tokenize(s).any(|tok| tok == probe))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(hits, expect, "probe {}", probe);
        }
    });
}

/// Materialization invariants: node per tuple, bi-directed edge pairs,
/// weights follow the scheme, and provenance is a bijection.
#[test]
fn materialization_invariants() {
    SplitMix64::for_each_case(CASES, |rng| {
        let links: Vec<(i64, i64)> = (0..rng.index(60))
            .map(|_| (rng.index(15) as i64, rng.index(15) as i64))
            .collect();
        let mut db = Database::new();
        let people = db.create_table(
            TableSchema::new(
                "P",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::full_text("name"),
                ],
            )
            .with_primary_key("id"),
        );
        for i in 0..15 {
            db.insert(people, &[Value::Int(i), Value::Text(format!("p{i}"))])
                .unwrap();
        }
        let follows = db.create_table(
            TableSchema::new(
                "F",
                vec![
                    ColumnDef::new("src", ColumnType::Int),
                    ColumnDef::new("dst", ColumnType::Int),
                ],
            )
            .with_foreign_key("src", people)
            .with_foreign_key("dst", people),
        );
        for &(a, b) in &links {
            db.insert(follows, &[Value::Int(a), Value::Int(b)]).unwrap();
        }
        let dg = DatabaseGraph::materialize(&db, WeightScheme::LogInDegree, EdgeMode::BiDirected);
        assert_eq!(dg.graph.node_count(), db.tuple_count());
        assert_eq!(dg.graph.edge_count(), 4 * links.len());
        for (_, v, w) in dg.graph.edges() {
            let expect = (1.0 + dg.graph.in_degree(v) as f64).log2();
            assert!((w.get() - expect).abs() < 1e-12);
        }
        for node in dg.graph.nodes() {
            assert_eq!(dg.node_of(dg.tuple_of(node)), Some(node));
        }
    });
}
