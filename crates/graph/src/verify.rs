//! Deep structural validation of the CSR graph.
//!
//! [`Graph::validate`] re-derives every representation invariant the rest of
//! the workspace silently relies on — well-formed offset arrays, sorted
//! adjacency runs, finite weights, and exact transpose
//! agreement between the forward and reverse CSR halves. It runs in
//! `O(m log m)` and is wired into [`GraphBuilder::build`](crate::GraphBuilder::build)
//! under `debug_assertions` or the `verify` feature, so corrupt graphs fail
//! loudly at construction instead of producing subtly wrong communities.

use crate::csr::{Csr, Direction, Graph, NodeId};
use crate::weight::{try_index_to_u32, Weight};
use std::fmt;

/// A violated structural invariant, with enough context to locate it.
///
/// Each variant corresponds to one independent invariant class so tests can
/// assert that a specific corruption produces a specific diagnosis.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphInvariantError {
    /// The node count does not fit the `u32` node-id space.
    NodeCountOverflow {
        /// The stored node count.
        n: usize,
    },
    /// An offsets array has the wrong length, a nonzero first entry, a
    /// final entry disagreeing with the edge arrays, or a decreasing step.
    MalformedOffsets {
        /// Which adjacency half is malformed.
        dir: Direction,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// `targets` and `weights` disagree with each other or with the stored
    /// edge count `m`.
    EdgeArrayMismatch {
        /// Which adjacency half is malformed.
        dir: Direction,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// An adjacency entry points outside `0..n`.
    TargetOutOfRange {
        /// Which adjacency half holds the bad entry.
        dir: Direction,
        /// The node whose run holds the bad entry.
        node: NodeId,
        /// The out-of-range target.
        target: NodeId,
        /// The node count it must stay below.
        n: usize,
    },
    /// An adjacency run is not sorted by `(target, weight)`.
    UnsortedAdjacency {
        /// Which adjacency half holds the unsorted run.
        dir: Direction,
        /// The node whose run is out of order.
        node: NodeId,
    },
    /// An edge weight is non-finite (infinite weights are reserved for the
    /// "unreachable" distance marker and must never appear on an edge).
    InvalidWeight {
        /// Which adjacency half holds the bad weight.
        dir: Direction,
        /// The node whose run holds the bad weight.
        node: NodeId,
        /// The offending raw weight value.
        value: f64,
    },
    /// The forward and reverse halves do not describe the same edge
    /// multiset (the reverse CSR must be exactly the transpose).
    TransposeMismatch {
        /// Human-readable description of the first disagreement.
        detail: String,
    },
}

impl fmt::Display for GraphInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphInvariantError::NodeCountOverflow { n } => {
                write!(f, "node count {n} exceeds the u32 node-id space")
            }
            GraphInvariantError::MalformedOffsets { dir, detail } => {
                write!(f, "{dir:?} offsets malformed: {detail}")
            }
            GraphInvariantError::EdgeArrayMismatch { dir, detail } => {
                write!(f, "{dir:?} edge arrays inconsistent: {detail}")
            }
            GraphInvariantError::TargetOutOfRange {
                dir,
                node,
                target,
                n,
            } => {
                write!(
                    f,
                    "{dir:?} adjacency of {node} holds target {target} outside 0..{n}"
                )
            }
            GraphInvariantError::UnsortedAdjacency { dir, node } => {
                write!(
                    f,
                    "{dir:?} adjacency of {node} is not sorted by (target, weight)"
                )
            }
            GraphInvariantError::InvalidWeight { dir, node, value } => {
                write!(
                    f,
                    "{dir:?} adjacency of {node} holds invalid weight {value}"
                )
            }
            GraphInvariantError::TransposeMismatch { detail } => {
                write!(f, "forward/reverse adjacency disagree: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphInvariantError {}

/// Validates one CSR half in isolation (offsets shape, array lengths,
/// target ranges, per-run ordering, weight finiteness). `pub(crate)` so
/// the container loader can run the same linear checks on mapped arrays
/// without paying the full transpose comparison.
pub(crate) fn validate_csr(
    csr: &Csr,
    dir: Direction,
    n: usize,
    m: usize,
) -> Result<(), GraphInvariantError> {
    let bad_offsets = |detail: String| GraphInvariantError::MalformedOffsets { dir, detail };
    if csr.offsets.len() != n + 1 {
        return Err(bad_offsets(format!(
            "length {} but need n + 1 = {}",
            csr.offsets.len(),
            n + 1
        )));
    }
    if csr.offsets[0] != 0 {
        return Err(bad_offsets(format!(
            "first offset is {}, not 0",
            csr.offsets[0]
        )));
    }
    if let Some(i) = (0..n).find(|&i| csr.offsets[i] > csr.offsets[i + 1]) {
        return Err(bad_offsets(format!(
            "offsets decrease at node v{i}: {} > {}",
            csr.offsets[i],
            csr.offsets[i + 1]
        )));
    }
    let total = csr.offsets[n] as usize;
    if total != csr.targets.len() || csr.targets.len() != csr.weights.len() || total != m {
        return Err(GraphInvariantError::EdgeArrayMismatch {
            dir,
            detail: format!(
                "final offset {total}, {} targets, {} weights, edge count {m}",
                csr.targets.len(),
                csr.weights.len()
            ),
        });
    }
    for u in 0..n {
        let lo = csr.offsets[u] as usize;
        let hi = csr.offsets[u + 1] as usize;
        let node = NodeId(try_index_to_u32(u).unwrap_or(u32::MAX));
        let run: &[NodeId] = &csr.targets[lo..hi];
        let weights: &[Weight] = &csr.weights[lo..hi];
        for (&t, &w) in run.iter().zip(weights) {
            if t.index() >= n {
                return Err(GraphInvariantError::TargetOutOfRange {
                    dir,
                    node,
                    target: t,
                    n,
                });
            }
            if !w.is_finite() {
                return Err(GraphInvariantError::InvalidWeight {
                    dir,
                    node,
                    value: w.get(),
                });
            }
        }
        let sorted = run
            .iter()
            .zip(weights)
            .zip(run.iter().zip(weights).skip(1))
            .all(|((t0, w0), (t1, w1))| (t0, w0) <= (t1, w1));
        if !sorted {
            return Err(GraphInvariantError::UnsortedAdjacency { dir, node });
        }
    }
    Ok(())
}

/// Flattens a CSR half into canonical `(u, v, weight)` triples, with
/// the reverse half's edges flipped back to forward orientation so the two
/// halves become directly comparable.
fn edge_multiset(csr: &Csr, n: usize, flip: bool) -> Vec<(u32, u32, Weight)> {
    let mut out = Vec::with_capacity(csr.targets.len());
    for u in 0..n {
        let lo = csr.offsets[u] as usize;
        let hi = csr.offsets[u + 1] as usize;
        let uid = try_index_to_u32(u).unwrap_or(u32::MAX);
        for (&t, &w) in csr.targets[lo..hi].iter().zip(&csr.weights[lo..hi]) {
            let (a, b) = if flip { (t.0, uid) } else { (uid, t.0) };
            out.push((a, b, w));
        }
    }
    out.sort_unstable();
    out
}

impl Graph {
    /// Checks every structural invariant of the CSR representation.
    ///
    /// Verified, in order:
    /// 1. the node count fits the `u32` id space;
    /// 2. both offset arrays have length `n + 1`, start at 0, are
    ///    monotone, and end at the edge count;
    /// 3. `targets`/`weights` lengths agree with the offsets and with `m`;
    /// 4. every target lies in `0..n`;
    /// 5. every weight is finite;
    /// 6. every adjacency run is sorted by `(target, weight)` (parallel
    ///    edges are legal and kept);
    /// 7. the reverse half is *exactly* the transpose of the forward half
    ///    (same edge multiset, weights compared exactly).
    ///
    /// Runs in `O(m log m)`; returns the first violation found.
    pub fn validate(&self) -> Result<(), GraphInvariantError> {
        if try_index_to_u32(self.n).is_none() {
            return Err(GraphInvariantError::NodeCountOverflow { n: self.n });
        }
        validate_csr(&self.halves.fwd, Direction::Forward, self.n, self.m)?;
        validate_csr(&self.halves.rev, Direction::Reverse, self.n, self.m)?;
        let fwd = edge_multiset(&self.halves.fwd, self.n, false);
        let rev = edge_multiset(&self.halves.rev, self.n, true);
        if let Some((a, b)) = fwd.iter().zip(&rev).find(|(a, b)| a != b) {
            let (fu, fv, fw) = *a;
            let (ru, rv, rw) = *b;
            return Err(GraphInvariantError::TransposeMismatch {
                detail: format!(
                    "forward has (v{fu}, v{fv}, w={fw}) where reverse implies (v{ru}, v{rv}, w={rw})"
                ),
            });
        }
        Ok(())
    }

    /// Panicking wrapper around [`Graph::validate`], used as the build-time
    /// hook in debug and `verify` builds.
    #[expect(
        clippy::panic,
        reason = "the verify hook's whole job is to abort on corruption"
    )]
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("graph invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use std::sync::Arc;

    fn sample() -> Graph {
        graph_from_edges(
            4,
            &[
                (0, 1, 1.0),
                (1, 3, 2.0),
                (0, 2, 4.0),
                (2, 3, 8.0),
                (0, 1, 0.5),
            ],
        )
    }

    #[test]
    fn well_formed_graph_validates() {
        sample().validate().unwrap();
        graph_from_edges(0, &[]).validate().unwrap();
    }

    #[test]
    fn corrupted_offsets_are_diagnosed() {
        let mut g = sample();
        Arc::make_mut(&mut g.halves).fwd.offsets.to_mut()[0] = 1;
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::MalformedOffsets {
                dir: Direction::Forward,
                ..
            })
        ));

        let mut g = sample();
        Arc::make_mut(&mut g.halves).rev.offsets.to_mut().pop();
        let err = g.validate().unwrap_err();
        assert!(matches!(
            err,
            GraphInvariantError::MalformedOffsets {
                dir: Direction::Reverse,
                ..
            }
        ));
        assert!(err.to_string().contains("n + 1"));

        // A decreasing offset pair.
        let mut g = sample();
        let bumped = g.halves.fwd.offsets[2] + 1;
        Arc::make_mut(&mut g.halves).fwd.offsets.to_mut()[1] = bumped;
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("decrease"));
    }

    #[test]
    fn edge_array_mismatch_is_diagnosed() {
        let mut g = sample();
        Arc::make_mut(&mut g.halves).fwd.weights.to_mut().pop();
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::EdgeArrayMismatch {
                dir: Direction::Forward,
                ..
            })
        ));

        // Stored m disagreeing with the arrays.
        let mut g = sample();
        g.m += 1;
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::EdgeArrayMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_target_is_diagnosed() {
        let mut g = sample();
        Arc::make_mut(&mut g.halves).fwd.targets.to_mut()[0] = NodeId(99);
        assert_eq!(
            g.validate(),
            Err(GraphInvariantError::TargetOutOfRange {
                dir: Direction::Forward,
                node: NodeId(0),
                target: NodeId(99),
                n: 4,
            })
        );
    }

    #[test]
    fn unsorted_adjacency_is_diagnosed() {
        let mut g = sample();
        // Node 0's forward run is [(1, 0.5), (1, 1.0), (2, 4.0)]; swapping
        // the first two breaks (target, weight) order without changing the
        // transpose multiset.
        Arc::make_mut(&mut g.halves).fwd.weights.to_mut().swap(0, 1);
        assert_eq!(
            g.validate(),
            Err(GraphInvariantError::UnsortedAdjacency {
                dir: Direction::Forward,
                node: NodeId(0),
            })
        );
    }

    #[test]
    fn infinite_weight_is_diagnosed() {
        let mut g = sample();
        let last = g.halves.rev.weights.len() - 1;
        Arc::make_mut(&mut g.halves).rev.weights.to_mut()[last] = Weight::INFINITY;
        // Caught per-half before the transpose comparison runs.
        assert!(matches!(
            g.validate(),
            Err(GraphInvariantError::InvalidWeight {
                dir: Direction::Reverse,
                ..
            })
        ));
    }

    #[test]
    fn transpose_mismatch_is_diagnosed() {
        // Swap two targets in the same run so per-half checks still pass
        // (run stays sorted) but the reverse half no longer transposes.
        let mut g = graph_from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (3, 1, 1.0)]);
        Arc::make_mut(&mut g.halves).fwd.targets.to_mut()[1] = NodeId(3);
        Arc::make_mut(&mut g.halves).fwd.targets.to_mut().sort();
        let err = g.validate().unwrap_err();
        assert!(matches!(err, GraphInvariantError::TransposeMismatch { .. }));
        assert!(err.to_string().contains("disagree"));
    }

    #[test]
    fn parallel_edges_are_legal() {
        let g = graph_from_edges(2, &[(0, 1, 3.0), (0, 1, 3.0), (0, 1, 5.0)]);
        g.validate().unwrap();
    }

    #[test]
    fn assert_valid_passes_on_good_graph() {
        sample().assert_valid();
    }

    #[test]
    #[should_panic(expected = "graph invariant violated")]
    fn assert_valid_panics_on_corruption() {
        let mut g = sample();
        Arc::make_mut(&mut g.halves).fwd.targets.to_mut()[0] = NodeId(99);
        g.assert_valid();
    }
}
