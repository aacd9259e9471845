//! Unified error type for the query APIs.
//!
//! Every query entry point validates the whole [`QuerySpec`] up front and
//! returns a [`QueryError`] for malformed input, so a service embedding
//! this crate can reject bad requests without a catch-unwind boundary.
//!
//! [`QuerySpec`]: crate::QuerySpec

use comm_graph::{Graph, InterruptReason, NodeId};
use std::fmt;

/// Why a query was rejected (or, for non-enumerating operations such as
/// projection, why it was cut short).
#[derive(Clone, Debug, PartialEq)]
pub enum QueryError {
    /// The query has zero keywords (`l == 0`).
    NoKeywords,
    /// The query has more keywords than the engine's per-node `u8`
    /// dimension counters support (`l > MAX_KEYWORDS`).
    ///
    /// [`MAX_KEYWORDS`]: crate::MAX_KEYWORDS
    TooManyKeywords {
        /// The number of keywords requested.
        l: usize,
        /// The supported maximum ([`crate::MAX_KEYWORDS`]).
        max: usize,
    },
    /// `rmax` is NaN, negative, or non-finite.
    InvalidRadius(f64),
    /// A keyword node set references a node outside the graph.
    NodeOutOfRange {
        /// The keyword dimension (0-based) containing the bad node.
        dim: usize,
        /// The offending node id.
        node: NodeId,
        /// The graph's node count.
        node_count: usize,
    },
    /// The requested `rmax` exceeds the radius the projection index was
    /// built for — projecting would silently drop communities.
    RadiusExceedsIndex {
        /// The requested query radius.
        rmax: f64,
        /// The radius the index supports.
        index_radius: f64,
    },
    /// A query keyword is absent from the projection index.
    UnknownKeyword(String),
    /// The run guard tripped inside an operation with no meaningful
    /// partial result (projection, single-community materialization).
    /// Enumerators report interruption via `Outcome::Interrupted` instead.
    Interrupted(InterruptReason),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::NoKeywords => write!(f, "query has no keywords (l = 0)"),
            QueryError::TooManyKeywords { l, max } => {
                write!(
                    f,
                    "query has {l} keywords; the engine supports at most {max}"
                )
            }
            QueryError::InvalidRadius(r) => {
                write!(f, "query radius must be finite and non-negative, got {r}")
            }
            QueryError::NodeOutOfRange {
                dim,
                node,
                node_count,
            } => write!(
                f,
                "keyword {dim} references node {node} outside the graph (node count {node_count})"
            ),
            QueryError::RadiusExceedsIndex { rmax, index_radius } => write!(
                f,
                "query Rmax {rmax} exceeds the index radius {index_radius}"
            ),
            QueryError::UnknownKeyword(kw) => write!(f, "keyword {kw:?} is not indexed"),
            QueryError::Interrupted(reason) => write!(f, "query interrupted: {reason}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<InterruptReason> for QueryError {
    fn from(reason: InterruptReason) -> QueryError {
        QueryError::Interrupted(reason)
    }
}

/// Validates a radius for query use: finite and non-negative.
pub(crate) fn validate_radius(rmax: f64) -> Result<(), QueryError> {
    if rmax.is_finite() && rmax >= 0.0 {
        Ok(())
    } else {
        Err(QueryError::InvalidRadius(rmax))
    }
}

/// Validates keyword node sets against a graph's node range.
pub(crate) fn validate_nodes(
    keyword_nodes: &[Vec<NodeId>],
    graph: &Graph,
) -> Result<(), QueryError> {
    let node_count = graph.node_count();
    for (dim, set) in keyword_nodes.iter().enumerate() {
        if let Some(&node) = set.iter().find(|v| v.index() >= node_count) {
            return Err(QueryError::NodeOutOfRange {
                dim,
                node,
                node_count,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_graph::GraphBuilder;

    #[test]
    fn every_variant_displays_its_context() {
        let cases: Vec<(QueryError, &str)> = vec![
            (QueryError::NoKeywords, "no keywords"),
            (
                QueryError::TooManyKeywords { l: 300, max: 255 },
                "at most 255",
            ),
            (QueryError::InvalidRadius(-1.5), "-1.5"),
            (
                QueryError::NodeOutOfRange {
                    dim: 2,
                    node: NodeId(9),
                    node_count: 4,
                },
                "keyword 2",
            ),
            (
                QueryError::RadiusExceedsIndex {
                    rmax: 8.0,
                    index_radius: 5.0,
                },
                "exceeds the index radius 5",
            ),
            (QueryError::UnknownKeyword("zzz".into()), "\"zzz\""),
            (
                QueryError::Interrupted(InterruptReason::Cancelled),
                "interrupted",
            ),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{err:?} displayed as {text:?}");
        }
    }

    #[test]
    fn interrupt_reasons_convert() {
        let err: QueryError = InterruptReason::DeadlineExceeded.into();
        assert_eq!(
            err,
            QueryError::Interrupted(InterruptReason::DeadlineExceeded)
        );
    }

    #[test]
    fn radius_validation() {
        assert!(validate_radius(0.0).is_ok());
        assert!(validate_radius(7.25).is_ok());
        assert_eq!(
            validate_radius(f64::NEG_INFINITY),
            Err(QueryError::InvalidRadius(f64::NEG_INFINITY))
        );
        assert!(matches!(
            validate_radius(f64::NAN),
            Err(QueryError::InvalidRadius(r)) if r.is_nan()
        ));
    }

    #[test]
    fn node_validation_pinpoints_dimension() {
        let g = GraphBuilder::new(3).build();
        assert!(validate_nodes(&[vec![NodeId(0), NodeId(2)]], &g).is_ok());
        let err = validate_nodes(&[vec![NodeId(1)], vec![NodeId(0), NodeId(3)]], &g).unwrap_err();
        assert_eq!(
            err,
            QueryError::NodeOutOfRange {
                dim: 1,
                node: NodeId(3),
                node_count: 3,
            }
        );
    }
}
