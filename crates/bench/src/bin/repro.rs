//! Regenerates the paper's evaluation: `repro [--quick] [experiment ...]`.
//!
//! Experiments: `table1 index fig9 fig10 fig11 fig12 ablations` or `all`
//! (default). Markdown goes to stdout and to `results/<experiment>.md`;
//! JSON rows to `results/<experiment>.json`.

use comm_bench::experiments::{
    ablation_density, ablation_lawler, ablation_projection, comm_all_figure, comm_k_figure,
    index_stats, interactive_figure, table1, Caps,
};
use comm_bench::{Prepared, Scale, Table};
use std::io::Write;
use std::time::Instant;

fn emit(tables: &[Table]) {
    std::fs::create_dir_all("results").ok();
    for t in tables {
        println!("{}", t.to_markdown());
        let md = std::fs::File::create(format!("results/{}.md", t.id))
            .and_then(|mut f| f.write_all(t.to_markdown().as_bytes()));
        let json = std::fs::write(format!("results/{}.json", t.id), t.to_json());
        if let Err(e) = md.and(json) {
            eprintln!("warning: could not write results for {}: {e}", t.id);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let paper = args.iter().any(|a| a == "--paper");
    let scale = if paper {
        Scale::Paper
    } else if quick {
        Scale::Quick
    } else {
        Scale::Full
    };
    let caps = Caps::for_scale(scale);
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |name: &str| wanted.is_empty() || wanted.contains(&"all") || wanted.contains(&name);

    let t_start = Instant::now();
    println!("# Reproduction run ({scale:?} scale)\n");

    if want("table1") {
        emit(&[table1()]);
    }

    // Paper scale is DBLP-only (see EXPERIMENTS.md on IMDB keyword
    // saturation at full MovieLens size).
    let needs_imdb = !paper
        && ["index", "fig9", "fig10", "fig12", "ablations"]
            .iter()
            .any(|e| want(e));
    let needs_dblp = ["index", "fig11", "fig12", "ablations", "fig10-dblp"]
        .iter()
        .any(|e| want(e));

    let imdb = needs_imdb.then(|| {
        let t0 = Instant::now();
        let p = Prepared::imdb(scale);
        eprintln!(
            "[setup] imdb: n={} m={} generated+indexed in {:?}",
            p.dataset.graph.graph.node_count(),
            p.dataset.graph.graph.edge_count(),
            t0.elapsed()
        );
        p
    });
    let dblp = needs_dblp.then(|| {
        let t0 = Instant::now();
        let p = Prepared::dblp(scale);
        eprintln!(
            "[setup] dblp: n={} m={} generated+indexed in {:?}",
            p.dataset.graph.graph.node_count(),
            p.dataset.graph.graph.edge_count(),
            t0.elapsed()
        );
        p
    });

    if want("index") {
        if let Some(p) = &imdb {
            emit(&[index_stats(p)]);
        }
        if let Some(p) = &dblp {
            emit(&[index_stats(p)]);
        }
    }
    if want("fig9") {
        if let Some(p) = &imdb {
            emit(&comm_all_figure(p, caps, "fig9"));
        }
    }
    if want("fig10") {
        if let Some(p) = &imdb {
            emit(&comm_k_figure(p, caps, "fig10"));
        }
    }
    if want("fig11") {
        if let Some(p) = &dblp {
            emit(&comm_all_figure(p, caps, "fig11"));
            // The paper reports DBLP top-k "shows similar trends" in text;
            // regenerate it as an extra table.
            emit(&comm_k_figure(p, caps, "fig11-topk"));
        }
    }
    if want("fig12") {
        if let Some(p) = &imdb {
            emit(&[interactive_figure(p, caps)]);
        }
        if let Some(p) = &dblp {
            emit(&[interactive_figure(p, caps)]);
        }
    }
    if want("ablations") {
        if !paper {
            emit(&[ablation_density(scale, caps)]);
        }
        if let Some(p) = &imdb {
            emit(&[ablation_projection(p), ablation_lawler(p, caps)]);
        }
        if let Some(p) = &dblp {
            emit(&[ablation_projection(p), ablation_lawler(p, caps)]);
        }
    }
    eprintln!("[done] total {:?}", t_start.elapsed());
}
