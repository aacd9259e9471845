//! Deterministic fault-injection sweep for the execution governor.
//!
//! Every guarded algorithm is first run under a counting (but unlimited)
//! guard to learn its total number of guard checks `C` and its complete
//! output; it is then re-run with `with_trip_after(N)` for every `N` in
//! `0..C`, asserting that interruption at *every* trip point is
//! panic-free, reports `InterruptReason::Injected`, and leaves an exact
//! prefix of the complete output. `N = C` must reproduce the complete
//! run. Cancel-flag and pre-expired-deadline paths get their own tests.

use comm_core::{
    bu_all_guarded, bu_topk_guarded, comm_all_guarded, comm_k_guarded, get_community_guarded,
    td_all_guarded, td_topk_guarded, CommAll, CommK, Community, CostFn, InterruptReason, LawlerK,
    Outcome, ProjectionIndex, QueryError, QuerySpec, RunGuard,
};
use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};
use comm_graph::{DijkstraEngine, EnginePool, Graph, Parallelism, Weight};

fn fig4() -> (Graph, QuerySpec) {
    (
        fig4_graph(),
        QuerySpec::new(fig4_keyword_nodes(), Weight::new(FIG4_RMAX)),
    )
}

fn fingerprints(cs: &[Community]) -> Vec<String> {
    cs.iter()
        .map(|c| format!("{:?}@{}", c.core, c.cost))
        .collect()
}

fn outcome_fp(out: Outcome<Vec<Community>>) -> (Vec<String>, Option<InterruptReason>) {
    match out {
        Outcome::Complete(v) => (fingerprints(&v), None),
        Outcome::Interrupted { reason, partial } => (fingerprints(&partial), Some(reason)),
    }
}

/// Sweeps every trip point of `run`: the driver receives a guard and
/// returns its (ordered) output fingerprint plus the interrupt reason.
fn sweep(name: &str, run: impl Fn(RunGuard) -> (Vec<String>, Option<InterruptReason>)) {
    let counter = RunGuard::new();
    let (full, reason) = run(counter.clone());
    assert_eq!(reason, None, "{name}: the unlimited run must complete");
    let checks = counter.checks();
    assert!(checks > 0, "{name}: the guard must be consulted");
    // Keep the quadratic sweep bounded for check-heavy algorithms while
    // still covering every early trip point and the tail.
    let stride = (checks / 2000).max(1);
    let points = (0..checks).filter(|n| *n < 128 || n % stride == 0 || *n > checks - 8);
    for n in points {
        let (partial, reason) = run(RunGuard::new().with_trip_after(n));
        assert_eq!(
            reason,
            Some(InterruptReason::Injected),
            "{name}: trip_after({n}) of {checks} checks must interrupt"
        );
        assert!(
            partial.len() <= full.len(),
            "{name}: trip_after({n}) emitted more than the full run"
        );
        assert_eq!(
            partial[..],
            full[..partial.len()],
            "{name}: trip_after({n}) output must be an exact prefix"
        );
    }
    let (out, reason) = run(RunGuard::new().with_trip_after(checks));
    assert_eq!(
        reason, None,
        "{name}: trip_after(total checks) must complete"
    );
    assert_eq!(out, full, "{name}: an untripped guarded run must match");
}

/// Drains one of the three enumerators and reports why it stopped.
fn drain<I: Iterator<Item = Community>>(
    mut it: I,
    interrupted: impl Fn(&I) -> Option<InterruptReason>,
) -> (Vec<String>, Option<InterruptReason>) {
    let out: Vec<Community> = it.by_ref().collect();
    (fingerprints(&out), interrupted(&it))
}

#[test]
fn comm_all_survives_every_trip_point() {
    let (g, spec) = fig4();
    sweep("comm_all", |guard| {
        let it = CommAll::try_new(&g, &spec).unwrap().with_guard(guard);
        drain(it, CommAll::interrupted)
    });
}

#[test]
fn comm_k_survives_every_trip_point() {
    let (g, spec) = fig4();
    sweep("comm_k", |guard| {
        let it = CommK::try_new(&g, &spec).unwrap().with_guard(guard);
        drain(it, CommK::interrupted)
    });
}

#[test]
fn lawler_k_survives_every_trip_point() {
    let (g, spec) = fig4();
    sweep("lawler_k", |guard| {
        let it = LawlerK::try_new(&g, &spec).unwrap().with_guard(guard);
        drain(it, LawlerK::interrupted)
    });
}

#[test]
fn lawler_k_respects_byte_budget() {
    // One byte is less than the neighbor table alone: the first memory
    // high-water mark must stop the run before anything is emitted.
    let (g, spec) = fig4();
    let it = LawlerK::try_new(&g, &spec)
        .unwrap()
        .with_guard(RunGuard::new().with_byte_budget(1));
    let (emitted, reason) = drain(it, LawlerK::interrupted);
    assert_eq!(reason, Some(InterruptReason::MemoryBudgetExhausted));
    assert!(
        emitted.is_empty(),
        "emitted {emitted:?} past the byte budget"
    );
}

#[test]
fn baselines_survive_every_trip_point() {
    let (g, spec) = fig4();
    sweep("bu_all", |guard| {
        outcome_fp(
            bu_all_guarded(&g, &spec, None, guard)
                .unwrap()
                .map(|r| r.communities),
        )
    });
    sweep("td_all", |guard| {
        outcome_fp(
            td_all_guarded(&g, &spec, None, guard)
                .unwrap()
                .map(|r| r.communities),
        )
    });
    sweep("bu_topk", |guard| {
        outcome_fp(
            bu_topk_guarded(&g, &spec, 4, None, guard)
                .unwrap()
                .map(|r| r.communities),
        )
    });
    sweep("td_topk", |guard| {
        outcome_fp(
            td_topk_guarded(&g, &spec, 4, None, guard)
                .unwrap()
                .map(|r| r.communities),
        )
    });
}

#[test]
fn get_community_survives_every_trip_point() {
    let (g, spec) = fig4();
    let core = CommAll::try_new(&g, &spec)
        .unwrap()
        .next()
        .expect("fig4 has communities")
        .core;
    sweep("get_community", |guard| {
        let mut engine = DijkstraEngine::new(g.node_count());
        match get_community_guarded(
            &g,
            &mut engine,
            &core,
            spec.rmax,
            CostFn::SumDistances,
            &guard,
        ) {
            Ok(Some(c)) => (vec![format!("{:?}@{}", c.core, c.cost)], None),
            Ok(None) => (Vec::new(), None),
            Err(r) => (Vec::new(), Some(r)),
        }
    });
}

#[test]
fn projection_survives_every_trip_point() {
    let g = fig4_graph();
    let kw = fig4_keyword_nodes();
    let rmax = Weight::new(FIG4_RMAX);
    let labels = ["a", "b", "c"];
    sweep("projection", |guard| {
        let entries = labels.iter().zip(&kw).map(|(&s, ns)| (s, ns.as_slice()));
        let built = ProjectionIndex::build_par_guarded(
            &g,
            entries,
            rmax,
            &guard,
            &EnginePool::new(),
            Parallelism::serial(),
        );
        match built {
            Err(r) => (Vec::new(), Some(r)),
            Ok(idx) => match idx.try_project(&labels, rmax, &guard) {
                Ok(pq) => (
                    vec![format!("projected:{}", pq.projected.graph.node_count())],
                    None,
                ),
                Err(QueryError::Interrupted(r)) => (Vec::new(), Some(r)),
                Err(e) => panic!("projection failed for a non-guard reason: {e}"),
            },
        }
    });
}

#[test]
fn preset_cancel_flag_interrupts_before_any_output() {
    let (g, spec) = fig4();
    let guard = RunGuard::new();
    guard.cancel();
    match comm_all_guarded(&g, &spec, guard).unwrap() {
        Outcome::Interrupted { reason, partial } => {
            assert_eq!(reason, InterruptReason::Cancelled);
            assert!(partial.is_empty(), "a pre-cancelled run must emit nothing");
        }
        Outcome::Complete(_) => panic!("a pre-cancelled run must not complete"),
    }
}

#[test]
fn expired_deadline_interrupts_with_deadline_reason() {
    let (g, spec) = fig4();
    let guard = RunGuard::new().with_deadline(std::time::Duration::ZERO);
    match comm_k_guarded(&g, &spec, 8, guard).unwrap() {
        Outcome::Interrupted { reason, .. } => {
            assert_eq!(reason, InterruptReason::DeadlineExceeded);
        }
        Outcome::Complete(_) => panic!("an expired deadline must interrupt"),
    }
}

#[test]
fn settled_and_candidate_budgets_report_their_reasons() {
    let (g, spec) = fig4();
    let out = comm_all_guarded(&g, &spec, RunGuard::new().with_settled_budget(0)).unwrap();
    assert_eq!(out.reason(), Some(InterruptReason::SettledBudgetExhausted));
    let full = CommAll::try_new(&g, &spec).unwrap().count();
    for k in 0..full as u64 {
        let out = comm_all_guarded(&g, &spec, RunGuard::new().with_candidate_budget(k)).unwrap();
        assert_eq!(
            out.reason(),
            Some(InterruptReason::CandidateBudgetExhausted)
        );
        assert_eq!(
            out.value().len(),
            k as usize,
            "an inclusive candidate budget of {k} must emit exactly {k} communities"
        );
    }
}
