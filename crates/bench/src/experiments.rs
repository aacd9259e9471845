//! The experiment drivers: one function per table/figure of Sec. VII,
//! each returning printable [`Table`]s.
//!
//! Metric conventions follow the paper: COMM-all experiments report
//! *average delay* (total CPU time / communities found) and peak memory;
//! COMM-k experiments report the *total time* to produce the top-k.
//!
//! One deliberate deviation, applied identically to every algorithm: on
//! the synthetic datasets the total number of communities of a cell can be
//! combinatorially huge (the real datasets have the same property — see
//! EXPERIMENTS.md), so COMM-all runs are truncated at a fixed community
//! cap. The truncation is part of the metric ("time to the first N
//! communities"), not a per-algorithm concession.

use crate::setup::{imdb_config, Prepared, Scale};
use crate::table::{fmt_bytes, fmt_ms, Table};
use comm_core::{
    bu_all_guarded, bu_topk_guarded, td_all_guarded, td_topk_guarded, BaselineRun, CommAll, CommK,
    Community, Outcome, QuerySpec, RunGuard,
};
use comm_datasets::generate_imdb;
use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
use comm_graph::Weight;
use std::time::{Duration, Instant};

/// Run budgets, scaled by [`Scale`].
#[derive(Clone, Copy, Debug)]
pub struct Caps {
    /// COMM-all truncation: every algorithm stops after this many
    /// communities.
    pub all_cap: usize,
    /// Wall-clock deadline for BUk/TDk cells (they cannot truncate and
    /// must enumerate every candidate before ranking, so a cell would
    /// otherwise be unbounded; past the deadline the `RunGuard` trips and
    /// the cell is reported DNF with the interrupt reason).
    pub cell_deadline: Duration,
}

impl Caps {
    /// The budget profile for a scale.
    pub fn for_scale(scale: Scale) -> Caps {
        match scale {
            Scale::Full => Caps {
                all_cap: 1500,
                cell_deadline: Duration::from_secs(20),
            },
            Scale::Quick => Caps {
                all_cap: 120,
                cell_deadline: Duration::from_secs(2),
            },
            Scale::Paper => Caps {
                all_cap: 2000,
                cell_deadline: Duration::from_secs(90),
            },
        }
    }

    /// A fresh per-cell guard carrying the deadline.
    fn guard(&self) -> RunGuard {
        RunGuard::new().with_deadline(self.cell_deadline)
    }
}

/// Unwraps a guarded baseline run; an interrupted cell keeps its partial
/// stats (`stats.interrupted` records why) for DNF reporting.
fn deadline_run(out: Result<Outcome<BaselineRun>, comm_core::QueryError>) -> BaselineRun {
    match out.expect("bench query specs are valid") {
        Outcome::Complete(run) => run,
        Outcome::Interrupted { partial, .. } => partial,
    }
}

/// COMM-k's top-`k` on a benchmark cell.
fn collect_top_k(g: &comm_graph::Graph, spec: &QuerySpec, k: usize) -> Vec<Community> {
    CommK::try_new(g, spec)
        .expect("bench query specs are valid")
        .take(k)
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// One COMM-all sweep axis: `(label, cells)` with `(kwf, l, rmax)` cells.
type AllSweep = (&'static str, Vec<(f64, usize, f64)>);
/// One COMM-k sweep axis with `(kwf, l, rmax, k)` cells.
type TopkSweep = (&'static str, Vec<(f64, usize, f64, usize)>);

/// One COMM-all measurement: (communities, avg delay ms, peak bytes).
struct AllCell {
    found: usize,
    delay_ms: f64,
    mem: usize,
}

fn run_pd_all(g: &comm_graph::Graph, spec: &QuerySpec, cap: usize) -> AllCell {
    let t0 = Instant::now();
    let mut it = CommAll::try_new(g, spec).expect("bench query specs are valid");
    let mut found = 0;
    while found < cap && it.next().is_some() {
        found += 1;
    }
    let elapsed = ms(t0.elapsed());
    AllCell {
        found,
        delay_ms: if found == 0 {
            f64::NAN
        } else {
            elapsed / found as f64
        },
        mem: it.peak_memory_bytes(),
    }
}

fn baseline_cell(run: BaselineRun, elapsed: Duration) -> AllCell {
    let found = run.communities.len();
    AllCell {
        found,
        delay_ms: if found == 0 {
            f64::NAN
        } else {
            ms(elapsed) / found as f64
        },
        mem: run.stats.peak_bytes,
    }
}

/// Figs. 9 (IMDB) / 11 (DBLP): COMM-all average delay and peak memory vs
/// KWF, l, and Rmax, for PDall / BUall / TDall.
pub fn comm_all_figure(p: &Prepared, caps: Caps, fig: &str) -> Vec<Table> {
    let (dkwf, dl, drmax, _) = p.grid.defaults;
    let sweeps: [AllSweep; 3] = [
        (
            "KWF",
            p.grid.kwf.iter().map(|&kwf| (kwf, dl, drmax)).collect(),
        ),
        ("l", p.grid.l.iter().map(|&l| (dkwf, l, drmax)).collect()),
        ("Rmax", p.grid.rmax.iter().map(|&r| (dkwf, dl, r)).collect()),
    ];
    let mut tables = Vec::new();
    for (si, (axis, cells)) in sweeps.into_iter().enumerate() {
        let panel = (b'a' + (si * 2) as u8) as char;
        let panel2 = (b'a' + (si * 2) as u8 + 1) as char;
        let mut t = Table::new(
            &format!("{fig}{panel}{panel2}"),
            &format!(
                "{} COMM-all vs {axis}: average delay ({fig}{panel}) and peak memory ({fig}{panel2})",
                p.name.to_uppercase()
            ),
            &[
                axis, "found", "PDall delay", "BUall delay", "TDall delay", "PDall mem",
                "BUall mem", "TDall mem",
            ],
        );
        for (kwf, l, rmax) in cells {
            let pq = p.project(kwf, l, rmax);
            let g = &pq.projected.graph;
            let pd = run_pd_all(g, &pq.spec, caps.all_cap);
            let t0 = Instant::now();
            let bu = deadline_run(bu_all_guarded(
                g,
                &pq.spec,
                Some(caps.all_cap),
                RunGuard::unlimited(),
            ));
            let bu = baseline_cell(bu, t0.elapsed());
            let t0 = Instant::now();
            let td = deadline_run(td_all_guarded(
                g,
                &pq.spec,
                Some(caps.all_cap),
                RunGuard::unlimited(),
            ));
            let td = baseline_cell(td, t0.elapsed());
            let axis_value = match axis {
                "KWF" => format!("{kwf:.4}"),
                "l" => l.to_string(),
                _ => format!("{rmax}"),
            };
            t.push_row(vec![
                axis_value,
                pd.found.to_string(),
                fmt_ms(pd.delay_ms),
                fmt_ms(bu.delay_ms),
                fmt_ms(td.delay_ms),
                fmt_bytes(pd.mem),
                fmt_bytes(bu.mem),
                fmt_bytes(td.mem),
            ]);
        }
        let cap = caps.all_cap.to_string();
        if t.rows.iter().any(|row| row[1] == cap) {
            t.note(format!(
                "all three algorithms truncated identically at the first {cap} communities"
            ));
        }
        tables.push(t);
    }
    tables
}

/// One COMM-k measurement with DNF handling.
fn topk_row(p: &Prepared, caps: Caps, kwf: f64, l: usize, rmax: f64, k: usize) -> Vec<String> {
    let pq = p.project(kwf, l, rmax);
    let g = &pq.projected.graph;
    let t0 = Instant::now();
    let pd = collect_top_k(g, &pq.spec, k);
    let t_pd = t0.elapsed();
    let t0 = Instant::now();
    let bu = deadline_run(bu_topk_guarded(g, &pq.spec, k, None, caps.guard()));
    let t_bu = t0.elapsed();
    let t0 = Instant::now();
    let td = deadline_run(td_topk_guarded(g, &pq.spec, k, None, caps.guard()));
    let t_td = t0.elapsed();
    let fmt_baseline = |run: &BaselineRun, t: Duration| {
        if run.stats.completed {
            fmt_ms(ms(t))
        } else {
            let why = run
                .stats
                .interrupted
                .map_or_else(|| "budget".to_owned(), |r| r.to_string());
            format!(
                "DNF ({why}; {} cand. in {})",
                run.stats.candidates,
                fmt_ms(ms(t))
            )
        }
    };
    vec![
        pd.len().to_string(),
        fmt_ms(ms(t_pd)),
        fmt_baseline(&bu, t_bu),
        fmt_baseline(&td, t_td),
    ]
}

/// Fig. 10: COMM-k total time vs KWF / l / Rmax / k (IMDB; the same
/// function serves the DBLP top-k trends the paper describes in text).
pub fn comm_k_figure(p: &Prepared, caps: Caps, fig: &str) -> Vec<Table> {
    let (dkwf, dl, drmax, dk) = p.grid.defaults;
    let axes: [TopkSweep; 4] = [
        (
            "KWF",
            p.grid.kwf.iter().map(|&x| (x, dl, drmax, dk)).collect(),
        ),
        (
            "l",
            p.grid.l.iter().map(|&x| (dkwf, x, drmax, dk)).collect(),
        ),
        (
            "Rmax",
            p.grid.rmax.iter().map(|&x| (dkwf, dl, x, dk)).collect(),
        ),
        (
            "k",
            p.grid.k.iter().map(|&x| (dkwf, dl, drmax, x)).collect(),
        ),
    ];
    let mut tables = Vec::new();
    for (si, (axis, cells)) in axes.into_iter().enumerate() {
        let panel = (b'a' + si as u8) as char;
        let mut t = Table::new(
            &format!("{fig}{panel}"),
            &format!("{} COMM-k total time vs {axis}", p.name.to_uppercase()),
            &[axis, "emitted", "PDk", "BUk", "TDk"],
        );
        for (kwf, l, rmax, k) in cells {
            let axis_value = match axis {
                "KWF" => format!("{kwf:.4}"),
                "l" => l.to_string(),
                "Rmax" => format!("{rmax}"),
                _ => k.to_string(),
            };
            let mut row = vec![axis_value];
            row.extend(topk_row(p, caps, kwf, l, rmax, k));
            t.push_row(row);
        }
        t.note(format!(
            "BUk/TDk must enumerate every candidate before ranking; cells exceeding the {:?} per-cell deadline are DNF",
            caps.cell_deadline
        ));
        tables.push(t);
    }
    // Default-point memory comparison (the paper quotes 80.47 KB TDk,
    // 111.2 KB BUk, 91.16 KB PDk at the IMDB defaults).
    let pq = p.project(dkwf, dl, drmax);
    let g = &pq.projected.graph;
    let mut it = CommK::try_new(g, &pq.spec).expect("bench query specs are valid");
    let mut emitted = 0;
    while emitted < dk && it.next().is_some() {
        emitted += 1;
    }
    let bu = deadline_run(bu_topk_guarded(g, &pq.spec, dk, None, caps.guard()));
    let td = deadline_run(td_topk_guarded(g, &pq.spec, dk, None, caps.guard()));
    let mut t = Table::new(
        &format!("{fig}-mem"),
        &format!(
            "{} COMM-k peak memory at defaults (kwf={dkwf}, l={dl}, Rmax={drmax}, k={dk})",
            p.name.to_uppercase()
        ),
        &["PDk", "BUk", "TDk"],
    );
    t.push_row(vec![
        fmt_bytes(it.peak_memory_bytes()),
        fmt_bytes(bu.stats.peak_bytes),
        fmt_bytes(td.stats.peak_bytes),
    ]);
    tables.push(t);
    tables
}

/// Fig. 12: the interactive top-k test. A user asks for top-k, then wants
/// 50 more: PDk resumes its enumeration; BUk/TDk must recompute
/// top-(k+50) from scratch.
pub fn interactive_figure(p: &Prepared, caps: Caps) -> Table {
    let (dkwf, dl, drmax, _) = p.grid.defaults;
    let pq = p.project(dkwf, dl, drmax);
    let g = &pq.projected.graph;
    let mut t = Table::new(
        &format!("fig12-{}", p.name),
        &format!(
            "{} interactive top-k: time to produce the NEXT 50 after top-k",
            p.name.to_uppercase()
        ),
        &[
            "k",
            "PDk (+50 resumed)",
            "BUk (recompute k+50)",
            "TDk (recompute k+50)",
        ],
    );
    for &k in p.grid.k {
        // PDk: consume k, then time the 50-community continuation only.
        let mut it = CommK::try_new(g, &pq.spec).expect("bench query specs are valid");
        let mut got = 0;
        while got < k && it.next().is_some() {
            got += 1;
        }
        let t0 = Instant::now();
        let mut extra = 0;
        while extra < 50 && it.next().is_some() {
            extra += 1;
        }
        let t_pd = t0.elapsed();
        // BUk/TDk: the paper's point — they re-run the whole query.
        let t0 = Instant::now();
        let bu = deadline_run(bu_topk_guarded(g, &pq.spec, k + 50, None, caps.guard()));
        let t_bu = t0.elapsed();
        let t0 = Instant::now();
        let td = deadline_run(td_topk_guarded(g, &pq.spec, k + 50, None, caps.guard()));
        let t_td = t0.elapsed();
        let fmt_b = |run: &BaselineRun, d: Duration| {
            if run.stats.completed {
                fmt_ms(ms(d))
            } else {
                match run.stats.interrupted {
                    Some(r) => format!("DNF ({r})"),
                    None => "DNF".to_owned(),
                }
            }
        };
        t.push_row(vec![
            k.to_string(),
            fmt_ms(ms(t_pd)),
            fmt_b(&bu, t_bu),
            fmt_b(&td, t_td),
        ]);
    }
    t.note("PDk continues its existing enumerator; BUk/TDk pruned at k and must re-run");
    t
}

/// Sec. VII index statistics: build time, index size vs raw data, and
/// projected-graph size ratios over the whole query grid.
pub fn index_stats(p: &Prepared) -> Table {
    let (dkwf, dl, drmax, _) = p.grid.defaults;
    let mut ratios: Vec<f64> = Vec::new();
    let mut proj_time = Duration::ZERO;
    let mut cells = 0usize;
    let mut grid_cells: Vec<(f64, usize, f64)> = Vec::new();
    for &kwf in p.grid.kwf {
        for &l in p.grid.l {
            grid_cells.push((kwf, l, drmax));
        }
    }
    for &rmax in p.grid.rmax {
        grid_cells.push((dkwf, dl, rmax));
    }
    for (kwf, l, rmax) in grid_cells {
        let t0 = Instant::now();
        let pq = p.project(kwf, l, rmax);
        proj_time += t0.elapsed();
        ratios.push(p.index.projection_ratio(&pq));
        cells += 1;
    }
    let max_ratio = ratios.iter().copied().fold(0.0f64, f64::max);
    let avg_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let mut t = Table::new(
        &format!("index-{}", p.name),
        &format!("{} indexing and graph projection", p.name.to_uppercase()),
        &[
            "tuples",
            "nodes",
            "edges",
            "raw size",
            "index size",
            "index build",
            "max proj",
            "avg proj",
            "avg projection time",
        ],
    );
    t.push_row(vec![
        p.dataset.db.tuple_count().to_string(),
        p.dataset.graph.graph.node_count().to_string(),
        p.dataset.graph.graph.edge_count().to_string(),
        fmt_bytes(p.dataset.db.byte_size()),
        fmt_bytes(p.index.byte_size()),
        fmt_ms(ms(p.index_build)),
        format!("{:.3}%", 100.0 * max_ratio),
        format!("{:.3}%", 100.0 * avg_ratio),
        fmt_ms(ms(proj_time) / cells as f64),
    ]);
    t.note(format!(
        "ratios over {cells} grid cells; paper reports max/avg 1.2%/0.4% (DBLP) and 1.8%/0.5% (IMDB) at full scale"
    ));
    t.note(format!(
        "index size = V_w lists + distance runs (12 B per node within R, per keyword) + one forward row copy of G_D[U] (|U| = {}, {} edges); the paper's invertedE stores 16-B edge tuples per keyword instead",
        p.index.reach_node_count(),
        p.index.row_edge_count()
    ));
    t
}

/// Table I: the paper's running-example ranking, regenerated with COMM-k.
pub fn table1() -> Table {
    let g = fig4_graph();
    let spec = QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX));
    let mut t = Table::new(
        "table1",
        "Fig. 4 example, 3-keyword query {a,b,c}, Rmax=8 — ranking (paper Table I)",
        &["rank", "knodes (a,b,c)", "cost", "centers"],
    );
    for (rank, c) in CommK::try_new(&g, &spec)
        .expect("bench query specs are valid")
        .enumerate()
    {
        t.push_row(vec![
            (rank + 1).to_string(),
            format!("{:?}", c.core),
            format!("{}", c.cost),
            format!("{:?}", c.centers),
        ]);
    }
    t
}

/// Ablation: rating density vs the duplication burden (the mechanism
/// behind Fig. 9's PDall advantage on the paper's dense full-scale IMDB).
/// Sweeps the mean ratings/user, reporting the BU candidate count, the
/// duplicate factor, and the PDk/BUk total times at the default query.
pub fn ablation_density(scale: Scale, caps: Caps) -> Table {
    let mut t = Table::new(
        "ablation-density",
        "IMDB rating density vs duplication burden (defaults query, top-150)",
        &[
            "avg ratings/user",
            "graph n",
            "proj n",
            "BUk candidates",
            "dup factor",
            "PDk(150)",
            "BUk(150)",
            "BUk/PDk",
        ],
    );
    let sweep: &[f64] = match scale {
        Scale::Full | Scale::Paper => &[15.0, 25.0, 35.0, 45.0, 55.0],
        Scale::Quick => &[10.0, 20.0],
    };
    for &avg in sweep {
        let mut cfg = imdb_config(scale);
        cfg.avg_ratings_per_user = avg;
        let ds = generate_imdb(&cfg);
        let groups = comm_datasets::workload::IMDB_KEYWORD_GROUPS;
        let grid = &comm_datasets::workload::IMDB_GRID;
        let (dkwf, dl, drmax, dk) = grid.defaults;
        let kws = comm_datasets::workload::query_keywords(groups, dkwf, dl);
        let entries: Vec<(&str, &[comm_graph::NodeId])> = kws
            .iter()
            .map(|&kw| (kw, ds.graph.keyword_nodes(kw)))
            .collect();
        let guard = RunGuard::unlimited();
        let idx = comm_core::ProjectionIndex::build_guarded(
            &ds.graph.graph,
            entries,
            Weight::new(drmax),
            &guard,
            &comm_graph::EnginePool::new(),
        )
        .expect("an unlimited guard never trips");
        let Ok(pq) = idx.try_project(&kws, Weight::new(drmax), &guard) else {
            continue;
        };
        let g = &pq.projected.graph;
        let t0 = Instant::now();
        let pd = collect_top_k(g, &pq.spec, dk);
        let t_pd = t0.elapsed();
        let t0 = Instant::now();
        let bu = deadline_run(bu_topk_guarded(g, &pq.spec, dk, None, caps.guard()));
        let t_bu = t0.elapsed();
        let distinct = bu.stats.candidates - bu.stats.duplicates;
        let dup = if distinct == 0 {
            f64::NAN
        } else {
            bu.stats.candidates as f64 / distinct as f64
        };
        let ratio = if pd.is_empty() || !bu.stats.completed {
            "n/a".to_owned()
        } else {
            format!("{:.1}×", t_bu.as_secs_f64() / t_pd.as_secs_f64().max(1e-9))
        };
        t.push_row(vec![
            format!("{avg}"),
            ds.graph.graph.node_count().to_string(),
            g.node_count().to_string(),
            bu.stats.candidates.to_string(),
            format!("{dup:.1}"),
            fmt_ms(ms(t_pd)),
            if bu.stats.completed {
                fmt_ms(ms(t_bu))
            } else {
                "DNF".to_owned()
            },
            ratio,
        ]);
    }
    t.note("denser rating graphs inflate the candidate/duplicate burden that BUk pays and PDk sidesteps");
    t
}

/// Ablation: the paper's `O(c(l))` improvement over the straightforward
/// `O(l·c(l))` Lawler adaptation (Sec. III-A) — identical outputs, counted
/// in `Neighbor()` sweeps and wall-clock, across the l sweep.
pub fn ablation_lawler(p: &Prepared, caps: Caps) -> Table {
    use comm_core::LawlerK;
    let (dkwf, _, drmax, dk) = p.grid.defaults;
    let k = dk.min(100);
    let mut t = Table::new(
        &format!("ablation-lawler-{}", p.name),
        &format!(
            "{} top-{k}: COMM-k (O(c(l))) vs naive Lawler (O(l·c(l)))",
            p.name.to_uppercase()
        ),
        &[
            "l",
            "emitted",
            "PDk time",
            "Lawler time",
            "PDk sweeps",
            "Lawler sweeps",
            "sweep ratio",
        ],
    );
    let _ = caps;
    for &l in p.grid.l {
        let pq = p.project(dkwf, l, drmax);
        let g = &pq.projected.graph;
        let t0 = Instant::now();
        let mut ours = CommK::try_new(g, &pq.spec).expect("bench query specs are valid");
        let mut got = 0;
        while got < k && ours.next().is_some() {
            got += 1;
        }
        let t_pd = t0.elapsed();
        let t0 = Instant::now();
        let mut lawler = LawlerK::try_new(g, &pq.spec).expect("bench query specs are valid");
        let mut got_l = 0;
        while got_l < k && lawler.next().is_some() {
            got_l += 1;
        }
        let t_lw = t0.elapsed();
        assert_eq!(got, got_l, "engines must emit the same count");
        let ratio = if ours.neighbor_sweeps() == 0 {
            f64::NAN
        } else {
            lawler.neighbor_sweeps() as f64 / ours.neighbor_sweeps() as f64
        };
        t.push_row(vec![
            l.to_string(),
            got.to_string(),
            fmt_ms(ms(t_pd)),
            fmt_ms(ms(t_lw)),
            ours.neighbor_sweeps().to_string(),
            lawler.neighbor_sweeps().to_string(),
            format!("{ratio:.2}×"),
        ]);
    }
    t.note("identical enumerations (asserted); the ratio isolates the paper's sweep-sharing idea");
    t
}

/// Ablation: the value of graph projection (Sec. VI) — PDk on the
/// projected graph vs directly on the full database graph.
pub fn ablation_projection(p: &Prepared) -> Table {
    let (dkwf, dl, drmax, dk) = p.grid.defaults;
    let mut t = Table::new(
        &format!("ablation-projection-{}", p.name),
        &format!(
            "{} PDk(top-{dk}) with and without graph projection",
            p.name.to_uppercase()
        ),
        &[
            "graph",
            "nodes",
            "edges",
            "projection time",
            "PDk time",
            "total",
        ],
    );
    let kws = p.keywords(dkwf, dl);
    let t0 = Instant::now();
    let pq = p.project(dkwf, dl, drmax);
    let t_proj = t0.elapsed();
    let g = &pq.projected.graph;
    let t0 = Instant::now();
    let projected = collect_top_k(g, &pq.spec, dk);
    let t_pd = t0.elapsed();
    t.push_row(vec![
        "projected".into(),
        g.node_count().to_string(),
        g.edge_count().to_string(),
        fmt_ms(ms(t_proj)),
        fmt_ms(ms(t_pd)),
        fmt_ms(ms(t_proj + t_pd)),
    ]);
    let full_spec = QuerySpec::new(
        kws.iter()
            .map(|&kw| p.dataset.graph.keyword_nodes(kw).to_vec())
            .collect(),
        Weight::new(drmax),
    );
    let t0 = Instant::now();
    let full = collect_top_k(&p.dataset.graph.graph, &full_spec, dk);
    let t_full = t0.elapsed();
    t.push_row(vec![
        "full G_D".into(),
        p.dataset.graph.graph.node_count().to_string(),
        p.dataset.graph.graph.edge_count().to_string(),
        "—".into(),
        fmt_ms(ms(t_full)),
        fmt_ms(ms(t_full)),
    ]);
    assert_eq!(
        projected.iter().map(|c| c.cost).collect::<Vec<_>>(),
        full.iter().map(|c| c.cost).collect::<Vec<_>>(),
        "projection must not change the result"
    );
    t.note("cost sequences verified identical between projected and full runs");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper() {
        let t = table1();
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][2], "7");
        assert_eq!(t.rows[4][2], "15");
        assert!(t.rows[0][1].contains("v4"));
    }

    #[test]
    fn quick_comm_all_figure_runs() {
        let p = Prepared::imdb(Scale::Quick);
        let caps = Caps::for_scale(Scale::Quick);
        let tables = comm_all_figure(&p, caps, "fig9");
        assert_eq!(tables.len(), 3);
        // KWF sweep has 5 rows, l sweep 5, rmax sweep 5.
        assert!(tables.iter().all(|t| t.rows.len() == 5));
        // The truncation note stands under a table only if a cell reached
        // the cap: every IMDB table has one, no DBLP table does.
        let truncated = |t: &Table| t.notes.iter().any(|n| n.contains("truncated"));
        assert!(tables.iter().all(truncated));
        let dblp = comm_all_figure(&Prepared::dblp(Scale::Quick), caps, "fig11");
        assert!(!dblp.iter().any(truncated), "{:?}", dblp[0].rows);
    }

    /// Fig. 11(d): PDall's peak memory falls as `l` grows. The table
    /// reports logical bytes, so the comparison is deterministic.
    #[test]
    fn pdall_memory_shrinks_as_l_grows_on_dblp() {
        let p = Prepared::dblp(Scale::Quick);
        let tables = comm_all_figure(&p, Caps::for_scale(Scale::Quick), "fig11");
        let t = tables.iter().find(|t| t.header[0] == "l").unwrap();
        let mem = t.header.iter().position(|h| h == "PDall mem").unwrap();
        let bytes = |l: &str| {
            let row = t.rows.iter().find(|r| r[0] == l).expect("l is on the grid");
            let (value, unit) = row[mem].split_once(' ').unwrap();
            let scale = match unit {
                "B" => 1.0,
                "KB" => 1024.0,
                _ => 1024.0 * 1024.0,
            };
            value.parse::<f64>().unwrap() * scale
        };
        assert!(bytes("6") < bytes("2"), "{:?}", t.rows);
    }

    #[test]
    fn quick_interactive_and_index() {
        let p = Prepared::dblp(Scale::Quick);
        let caps = Caps::for_scale(Scale::Quick);
        let t = interactive_figure(&p, caps);
        assert_eq!(t.rows.len(), p.grid.k.len());
        let idx = index_stats(&p);
        assert_eq!(idx.rows.len(), 1);
    }

    /// Sec. III-A's claim: sharing the `l` dimensions' sweeps saves
    /// `Neighbor()` sweeps at every `l`, and saves more as `l` grows.
    #[test]
    fn lawler_sweeps_more_than_pdk_and_more_so_as_l_grows() {
        for p in [Prepared::imdb(Scale::Quick), Prepared::dblp(Scale::Quick)] {
            let t = ablation_lawler(&p, Caps::for_scale(Scale::Quick));
            let col = |name: &str| t.header.iter().position(|h| h == name).unwrap();
            let (pd, lawler) = (col("PDk sweeps"), col("Lawler sweeps"));
            let sweeps = |row: &[String], c: usize| row[c].parse::<f64>().unwrap();
            let ratio = |l: &str| {
                let row = t.rows.iter().find(|r| r[0] == l).expect("l is on the grid");
                sweeps(row, lawler) / sweeps(row, pd)
            };
            for row in &t.rows {
                assert!(sweeps(row, lawler) > sweeps(row, pd), "{}: {row:?}", p.name);
            }
            let (at2, at6) = (ratio("2"), ratio("6"));
            assert!(
                at6 > at2,
                "{}: ratio {at2:.2} at l = 2, {at6:.2} at l = 6",
                p.name
            );
        }
    }

    #[test]
    fn quick_projection_ablation() {
        let p = Prepared::dblp(Scale::Quick);
        let t = ablation_projection(&p);
        assert_eq!(t.rows.len(), 2);
    }
}
