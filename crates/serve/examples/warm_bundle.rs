//! Saves the synthetic torus engine's graph + vocabulary as a CGPH v3
//! container, so the CI warm-start lane can restart the daemon against it
//! (`comm-explore serve --graph PATH`) without rebuilding anything:
//!
//! ```text
//! cargo run --release -p comm-serve --example warm_bundle -- [SIDE] OUT.cgph
//! ```

use comm_graph::container::save_container;
use comm_graph::NodeId;
use comm_serve::{synthetic_engine, EngineConfig, KEYWORDS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (side, out) = match args.as_slice() {
        [side, out] => (
            side.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("SIDE: '{side}' is not a number");
                std::process::exit(2);
            }),
            out.as_str(),
        ),
        [out] => (16, out.as_str()),
        _ => {
            eprintln!("usage: warm_bundle [SIDE] OUT.cgph");
            std::process::exit(2);
        }
    };

    let engine = synthetic_engine(side, EngineConfig::default()).unwrap_or_else(|e| {
        eprintln!("engine build failed: {e}");
        std::process::exit(1);
    });
    let keywords: Vec<(&str, &[NodeId])> = KEYWORDS
        .iter()
        .filter_map(|&kw| engine.keyword_nodes(kw).map(|nodes| (kw, nodes)))
        .collect();
    if let Err(e) = save_container(out, engine.graph(), keywords, None) {
        eprintln!("could not save {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "saved {out}: n={} m={} keywords={}",
        engine.graph().node_count(),
        engine.graph().edge_count(),
        KEYWORDS.len()
    );
}
