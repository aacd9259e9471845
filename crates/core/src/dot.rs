//! GraphViz DOT export for query answers.
//!
//! The paper's user story is exploratory ("browsing the resulting trees",
//! Sec. I); a community's whole point is that its *structure* carries the
//! answer. [`community_to_dot`] renders a community with its roles
//! distinguished — doubled circles for centers, filled boxes for knodes,
//! plain nodes for path nodes — and [`tree_to_dot`] renders a tree answer,
//! so results can be piped straight into `dot -Tsvg`.

use crate::trees::TreeAnswer;
use crate::types::Community;
use comm_graph::NodeId;
use std::fmt::Write as _;

// xtask-allow-file: guard_coverage — DOT rendering walks an already-materialized answer, not the graph

fn escape(label: &str) -> String {
    label.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a community as a DOT digraph. `label` maps original node ids to
/// display names (fall back to `v{id}` with `|n| format!("{n}")`).
pub fn community_to_dot<F: Fn(NodeId) -> String>(community: &Community, label: F) -> String {
    let mut out = String::from("digraph community {\n");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(
        out,
        "  label=\"core {:?}, cost {}\"; labelloc=top;",
        community.core, community.cost
    );
    for &u in community.nodes() {
        let name = escape(&label(u));
        let is_center = community.centers.binary_search(&u).is_ok();
        let is_knode = community.knodes.binary_search(&u).is_ok();
        let shape = match (is_center, is_knode) {
            (true, true) => "shape=box, peripheries=2, style=filled, fillcolor=lightgoldenrod",
            (true, false) => "shape=ellipse, peripheries=2, style=filled, fillcolor=lightblue",
            (false, true) => "shape=box, style=filled, fillcolor=lightgoldenrod",
            (false, false) => "shape=ellipse",
        };
        let _ = writeln!(out, "  n{} [label=\"{}\", {}];", u.0, name, shape);
    }
    let sub = &community.subgraph;
    for (lu, lv, w) in sub.graph.edges() {
        let (u, v) = (sub.to_original(lu), sub.to_original(lv));
        let _ = writeln!(out, "  n{} -> n{} [label=\"{}\"];", u.0, v.0, w);
    }
    out.push_str("}\n");
    out
}

/// Renders a tree answer as a DOT digraph (root doubled, knodes boxed).
pub fn tree_to_dot<F: Fn(NodeId) -> String>(tree: &TreeAnswer, label: F) -> String {
    let mut out = String::from("digraph tree {\n");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(
        out,
        "  label=\"root v{}, weight {}\"; labelloc=top;",
        tree.root.0, tree.weight
    );
    let knodes = tree.core.distinct_nodes();
    for u in tree.nodes() {
        let name = escape(&label(u));
        let mut attrs = String::from("shape=ellipse");
        if knodes.binary_search(&u).is_ok() {
            attrs = "shape=box, style=filled, fillcolor=lightgoldenrod".into();
        }
        if u == tree.root {
            attrs.push_str(", peripheries=2");
        }
        let _ = writeln!(out, "  n{} [label=\"{}\", {}];", u.0, name, attrs);
    }
    for &(u, v, w) in &tree.edges {
        let _ = writeln!(out, "  n{} -> n{} [label=\"{}\"];", u.0, v.0, w);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::collect_top_k;
    use crate::trees::topk_trees;
    use crate::QuerySpec;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
    use comm_graph::{RunGuard, Weight};

    fn r5() -> Community {
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        collect_top_k(&g, &spec, 3).remove(2) // rank 3 = R5
    }

    #[test]
    fn community_dot_structure() {
        let dot = community_to_dot(&r5(), |n| format!("{n}"));
        assert!(dot.starts_with("digraph community {"));
        assert!(dot.trim_end().ends_with('}'));
        // Centers v11, v12 doubled; knodes boxed; pnode v10 plain.
        assert!(dot.contains("n11 [label=\"v11\", shape=box, peripheries=2"));
        assert!(dot.contains("n12 [label=\"v12\", shape=ellipse, peripheries=2"));
        assert!(dot.contains("n8 [label=\"v8\", shape=box, style=filled"));
        assert!(dot.contains("n10 [label=\"v10\", shape=ellipse];"));
        // Edges of the induced subgraph (v11 -> v10 weight 2).
        assert!(dot.contains("n11 -> n10 [label=\"2\"];"));
    }

    #[test]
    fn tree_dot_structure() {
        let g = fig4_graph();
        let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
        let tree = topk_trees(&g, &spec, 1, &RunGuard::unlimited())
            .unwrap()
            .remove(0);
        let dot = tree_to_dot(&tree, |n| format!("{n}"));
        assert!(dot.starts_with("digraph tree {"));
        assert!(dot.contains("root v7"));
        // Root v7 has double periphery.
        assert!(dot.contains("n7 [label=\"v7\", shape=ellipse, peripheries=2];"));
        // Knodes boxed.
        assert!(dot.contains("n4 [label=\"v4\", shape=box"));
    }

    #[test]
    fn labels_are_escaped() {
        let dot = community_to_dot(&r5(), |n| format!("say \"{n}\" \\ done"));
        assert!(dot.contains("say \\\"v11\\\" \\\\ done"));
    }
}
