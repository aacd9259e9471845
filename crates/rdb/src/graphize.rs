//! Materializing a relational database as the database graph `G_D`.
//!
//! Following Sec. II and Sec. VII of the paper: every tuple becomes a node;
//! every foreign-key reference `(u → v)` becomes a pair of directed edges
//! (the paper's graphs are *bi-directed*: DBLP's 5,076,826 references yield
//! 10,153,652 directed edges), and each directed edge `(u, v)` is weighted
//! `w_e((u, v)) = log2(1 + N_in(v))` where `N_in(v)` is the in-degree of the
//! target node.

use crate::database::{Database, TupleRef};
use crate::text::FullTextIndex;
use comm_graph::weight::index_to_u32;
use comm_graph::{Graph, GraphBuilder, GraphInvariantError, NodeId, Weight};
use std::collections::HashMap;
use std::fmt;

/// How to weight the directed edges of the materialized graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightScheme {
    /// The paper's `w_e((u,v)) = log2(1 + N_in(v))`.
    LogInDegree,
    /// Every edge has the same weight (useful for unit tests).
    Uniform(f64),
}

/// Whether each reference contributes one or two directed edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeMode {
    /// `(u, v)` and `(v, u)` — the setting of all the paper's experiments.
    BiDirected,
    /// Only the referencing → referenced direction.
    ForwardOnly,
}

/// Why a materialized [`DatabaseGraph`] failed certification.
#[derive(Clone, Debug, PartialEq)]
pub enum WeightCertificationError {
    /// The graph itself violates a CSR invariant.
    InvalidGraph(GraphInvariantError),
    /// An edge's weight disagrees with the declared [`WeightScheme`].
    WrongEdgeWeight {
        /// Edge source.
        from: NodeId,
        /// Edge target.
        to: NodeId,
        /// The stored weight.
        got: f64,
        /// The weight the scheme prescribes.
        expected: f64,
    },
    /// The provenance table does not cover the graph's nodes one-to-one.
    ProvenanceLengthMismatch {
        /// Graph node count.
        nodes: usize,
        /// Provenance entries.
        tuples: usize,
    },
    /// A keyword's posting list is not sorted and deduplicated.
    UnsortedKeywordPostings {
        /// The offending keyword.
        keyword: String,
    },
}

impl fmt::Display for WeightCertificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightCertificationError::InvalidGraph(e) => write!(f, "invalid database graph: {e}"),
            WeightCertificationError::WrongEdgeWeight {
                from,
                to,
                got,
                expected,
            } => write!(
                f,
                "edge {from}->{to} weighs {got}, the weight scheme prescribes {expected}"
            ),
            WeightCertificationError::ProvenanceLengthMismatch { nodes, tuples } => {
                write!(f, "{nodes} graph nodes but {tuples} provenance entries")
            }
            WeightCertificationError::UnsortedKeywordPostings { keyword } => {
                write!(f, "posting list of {keyword:?} is not sorted/deduplicated")
            }
        }
    }
}

impl std::error::Error for WeightCertificationError {}

impl From<GraphInvariantError> for WeightCertificationError {
    fn from(e: GraphInvariantError) -> WeightCertificationError {
        WeightCertificationError::InvalidGraph(e)
    }
}

/// The materialized database graph: topology plus tuple provenance plus a
/// node-level keyword lookup.
pub struct DatabaseGraph {
    /// The weighted directed graph `G_D`.
    pub graph: Graph,
    /// `provenance[node.index()]` is the tuple behind each node.
    pub provenance: Vec<TupleRef>,
    node_of: HashMap<TupleRef, NodeId>,
    keyword_nodes: HashMap<String, Vec<NodeId>>,
}

impl DatabaseGraph {
    /// Materializes `db` with the given weighting and edge mode, and lifts
    /// the full-text index to node ids.
    pub fn materialize(db: &Database, scheme: WeightScheme, mode: EdgeMode) -> DatabaseGraph {
        // 1. Assign node ids in (table, row) order.
        let mut provenance = Vec::with_capacity(db.tuple_count());
        let mut node_of = HashMap::with_capacity(db.tuple_count());
        for table_id in db.tables() {
            for row in db.table(table_id).rows() {
                let tref = TupleRef {
                    table: table_id,
                    row,
                };
                node_of.insert(tref, NodeId(index_to_u32(provenance.len())));
                provenance.push(tref);
            }
        }
        let n = provenance.len();

        // 2. Collect reference pairs (unweighted directed edges).
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for table_id in db.tables() {
            let table = db.table(table_id);
            let fk_count = table.schema().foreign_keys.len();
            for row in table.rows() {
                let from = node_of[&TupleRef {
                    table: table_id,
                    row,
                }];
                for fk_idx in 0..fk_count {
                    if let Some(target) = db.resolve_fk(
                        TupleRef {
                            table: table_id,
                            row,
                        },
                        fk_idx,
                    ) {
                        let to = node_of[&target];
                        pairs.push((from, to));
                        if mode == EdgeMode::BiDirected {
                            pairs.push((to, from));
                        }
                    }
                }
            }
        }

        // 3. Weight by final in-degree.
        let mut in_degree = vec![0u32; n];
        for &(_, v) in &pairs {
            in_degree[v.index()] += 1;
        }
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in &pairs {
            let w = match scheme {
                WeightScheme::LogInDegree => {
                    Weight::new((1.0 + f64::from(in_degree[v.index()])).log2())
                }
                WeightScheme::Uniform(w) => Weight::new(w),
            };
            builder.add_edge(u, v, w);
        }
        let graph = builder.build();

        // 4. Lift the full-text index to node ids.
        let text = FullTextIndex::build(db);
        let mut keyword_nodes: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (kw, postings) in text.iter() {
            let mut nodes: Vec<NodeId> = postings.iter().map(|t| node_of[t]).collect();
            nodes.sort_unstable();
            keyword_nodes.insert(kw.to_owned(), nodes);
        }

        let materialized = DatabaseGraph {
            graph,
            provenance,
            node_of,
            keyword_nodes,
        };
        #[cfg(any(debug_assertions, feature = "verify"))]
        materialized.assert_certified(scheme);
        materialized
    }

    /// Certifies the materialized graph against its construction contract:
    /// CSR invariants hold, every edge weight matches `scheme` (recomputed
    /// from the graph's own in-degrees for [`WeightScheme::LogInDegree`],
    /// and rounded to the unit as [`Weight::new`] rounds it),
    /// provenance covers the nodes one-to-one, and every keyword posting
    /// list is sorted and deduplicated.
    pub fn validate_weights(&self, scheme: WeightScheme) -> Result<(), WeightCertificationError> {
        self.graph.validate()?;
        if self.provenance.len() != self.graph.node_count() {
            return Err(WeightCertificationError::ProvenanceLengthMismatch {
                nodes: self.graph.node_count(),
                tuples: self.provenance.len(),
            });
        }
        for (u, v, w) in self.graph.edges() {
            let expected = match scheme {
                WeightScheme::LogInDegree => (1.0 + self.graph.in_degree(v) as f64).log2(),
                WeightScheme::Uniform(w) => w,
            };
            if Weight::try_new(expected) != Some(w) {
                return Err(WeightCertificationError::WrongEdgeWeight {
                    from: u,
                    to: v,
                    got: w.get(),
                    expected,
                });
            }
        }
        for (keyword, nodes) in self.keywords() {
            if nodes.windows(2).any(|p| p[0] >= p[1]) {
                return Err(WeightCertificationError::UnsortedKeywordPostings {
                    keyword: keyword.to_owned(),
                });
            }
        }
        Ok(())
    }

    #[cfg(any(debug_assertions, feature = "verify"))]
    #[expect(
        clippy::panic,
        reason = "materialize() just built this graph; a certification failure is a graphize bug"
    )]
    fn assert_certified(&self, scheme: WeightScheme) {
        if let Err(e) = self.validate_weights(scheme) {
            panic!("materialized database graph failed certification: {e}");
        }
    }

    /// The node of a tuple.
    pub fn node_of(&self, tuple: TupleRef) -> Option<NodeId> {
        self.node_of.get(&tuple).copied()
    }

    /// The tuple behind a node.
    pub fn tuple_of(&self, node: NodeId) -> TupleRef {
        self.provenance[node.index()]
    }

    /// The nodes containing `keyword` — the paper's `V_i`.
    pub fn keyword_nodes(&self, keyword: &str) -> &[NodeId] {
        self.keyword_nodes
            .get(&keyword.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates all `(keyword, nodes)` pairs.
    pub fn keywords(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.keyword_nodes
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Keyword frequency over nodes (Tables II–V's KWF).
    pub fn keyword_frequency(&self, keyword: &str) -> f64 {
        if self.graph.node_count() == 0 {
            0.0
        } else {
            self.keyword_nodes(keyword).len() as f64 / self.graph.node_count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::{ColumnType, Value};
    use comm_graph::Direction;

    /// Fig. 1(a)'s tiny co-authorship database: 3 authors, 2 papers,
    /// 5 write references + 1 citation.
    fn coauthor_db() -> Database {
        let mut db = Database::new();
        let author = db.create_table(
            TableSchema::new(
                "Author",
                vec![
                    ColumnDef::new("Aid", ColumnType::Int),
                    ColumnDef::full_text("Name"),
                ],
            )
            .with_primary_key("Aid"),
        );
        let paper = db.create_table(
            TableSchema::new(
                "Paper",
                vec![
                    ColumnDef::new("Pid", ColumnType::Int),
                    ColumnDef::full_text("Title"),
                ],
            )
            .with_primary_key("Pid"),
        );
        let write = db.create_table(
            TableSchema::new(
                "Write",
                vec![
                    ColumnDef::new("Aid", ColumnType::Int),
                    ColumnDef::new("Pid", ColumnType::Int),
                ],
            )
            .with_foreign_key("Aid", author)
            .with_foreign_key("Pid", paper),
        );
        let cite = db.create_table(
            TableSchema::new(
                "Cite",
                vec![
                    ColumnDef::new("Pid1", ColumnType::Int),
                    ColumnDef::new("Pid2", ColumnType::Int),
                ],
            )
            .with_foreign_key("Pid1", paper)
            .with_foreign_key("Pid2", paper),
        );
        for (aid, name) in [(1, "John Smith"), (2, "Jim Smith"), (3, "Kate Green")] {
            db.insert(author, &[Value::Int(aid), Value::from(name)])
                .unwrap();
        }
        for (pid, title) in [(1, "paper1"), (2, "paper2")] {
            db.insert(paper, &[Value::Int(pid), Value::from(title)])
                .unwrap();
        }
        for (aid, pid) in [(1, 1), (3, 1), (3, 2), (1, 2), (2, 2)] {
            db.insert(write, &[Value::Int(aid), Value::Int(pid)])
                .unwrap();
        }
        db.insert(cite, &[Value::Int(1), Value::Int(2)]).unwrap();
        db
    }

    #[test]
    fn node_per_tuple() {
        let db = coauthor_db();
        let g = DatabaseGraph::materialize(&db, WeightScheme::Uniform(1.0), EdgeMode::BiDirected);
        assert_eq!(g.graph.node_count(), db.tuple_count());
        assert_eq!(g.graph.node_count(), 3 + 2 + 5 + 1);
    }

    #[test]
    fn bidirected_edge_count() {
        let db = coauthor_db();
        let g = DatabaseGraph::materialize(&db, WeightScheme::Uniform(1.0), EdgeMode::BiDirected);
        // 5 writes × 2 fks + 1 cite × 2 fks = 12 references → 24 directed edges.
        assert_eq!(g.graph.edge_count(), 24);
        let f = DatabaseGraph::materialize(&db, WeightScheme::Uniform(1.0), EdgeMode::ForwardOnly);
        assert_eq!(f.graph.edge_count(), 12);
    }

    #[test]
    fn keyword_lookup_via_nodes() {
        let db = coauthor_db();
        let g = DatabaseGraph::materialize(&db, WeightScheme::Uniform(1.0), EdgeMode::BiDirected);
        assert_eq!(g.keyword_nodes("smith").len(), 2);
        assert_eq!(g.keyword_nodes("kate").len(), 1);
        assert_eq!(g.keyword_nodes("paper1").len(), 1);
        assert_eq!(g.keyword_nodes("nothing").len(), 0);
        assert!(g.keyword_frequency("smith") > 0.0);
    }

    #[test]
    fn provenance_roundtrip() {
        let db = coauthor_db();
        let g = DatabaseGraph::materialize(&db, WeightScheme::Uniform(1.0), EdgeMode::BiDirected);
        for node in g.graph.nodes() {
            let t = g.tuple_of(node);
            assert_eq!(g.node_of(t), Some(node));
        }
    }

    #[test]
    fn materialized_graph_certifies() {
        let db = coauthor_db();
        for scheme in [WeightScheme::LogInDegree, WeightScheme::Uniform(2.5)] {
            let g = DatabaseGraph::materialize(&db, scheme, EdgeMode::BiDirected);
            g.validate_weights(scheme).unwrap();
        }
    }

    #[test]
    fn wrong_scheme_is_detected() {
        let db = coauthor_db();
        let g = DatabaseGraph::materialize(&db, WeightScheme::Uniform(1.0), EdgeMode::BiDirected);
        assert!(matches!(
            g.validate_weights(WeightScheme::Uniform(2.0)),
            Err(WeightCertificationError::WrongEdgeWeight { .. })
        ));
        assert!(matches!(
            g.validate_weights(WeightScheme::LogInDegree),
            Err(WeightCertificationError::WrongEdgeWeight { .. })
        ));
    }

    #[test]
    fn log_indegree_weights() {
        let db = coauthor_db();
        let g = DatabaseGraph::materialize(&db, WeightScheme::LogInDegree, EdgeMode::BiDirected);
        // Every edge weight equals log2(1 + in_degree(target)).
        for (_, v, w) in g.graph.edges() {
            let expect = (1.0 + g.graph.in_degree(v) as f64).log2();
            assert_eq!(w, Weight::new(expect));
        }
        // Authors connected to papers through Write tuples within 2 hops.
        let kate = g.keyword_nodes("kate")[0];
        let reach = comm_graph::shortest_distances(&g.graph, Direction::Forward, kate);
        let finite = reach.iter().filter(|d| d.is_finite()).count();
        assert!(finite > 1, "kate reaches more than herself");
    }
}
