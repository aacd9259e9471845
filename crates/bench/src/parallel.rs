//! Concurrent batch-query driver behind `comm-explore batch`.
//!
//! [`BatchRunner`] executes a workload of top-k community queries across a
//! [`Parallelism`] thread pool. Every in-flight query shares one cancel
//! flag (tripping it interrupts the whole batch) and optionally carries a
//! per-query deadline; per-query latencies are collected into percentile
//! statistics plus an aggregate queries/sec figure.

use comm_core::{comm_k_guarded, Outcome, Parallelism, QuerySpec, RunGuard};
use comm_graph::{Graph, NodeId};
use comm_serve::{json, LatencySummary};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query of a batch workload.
#[derive(Clone, Debug)]
pub struct BatchQuery {
    /// Display label (e.g. the keyword list).
    pub label: String,
    /// `V_i` per keyword, in graph node ids.
    pub keyword_nodes: Vec<Vec<NodeId>>,
    /// The radius `Rmax`.
    pub rmax: f64,
    /// How many top communities to produce.
    pub k: usize,
}

/// What happened to one query of the batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// Ran to completion.
    Complete {
        /// Communities produced (≤ k).
        communities: usize,
    },
    /// The shared flag, deadline, or a budget tripped mid-run.
    Interrupted {
        /// The interrupt reason, stringified.
        reason: String,
        /// Communities emitted before the trip.
        partial: usize,
    },
    /// The spec failed validation.
    Invalid {
        /// The validation error, stringified.
        error: String,
    },
}

/// Per-query result: label, latency, and outcome.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The query's label.
    pub label: String,
    /// Wall-clock latency in microseconds.
    pub latency_us: f64,
    /// Completion status.
    pub status: QueryStatus,
}

impl QueryResult {
    /// One flat JSON object: label, latency, a `status` tag and the
    /// status's own fields.
    fn to_json(&self) -> String {
        let mut fields = vec![
            ("label", json::string(&self.label)),
            ("latency_us", json::number(self.latency_us)),
        ];
        match &self.status {
            QueryStatus::Complete { communities } => {
                fields.push(("status", json::string("complete")));
                fields.push(("communities", communities.to_string()));
            }
            QueryStatus::Interrupted { reason, partial } => {
                fields.push(("status", json::string("interrupted")));
                fields.push(("reason", json::string(reason)));
                fields.push(("partial", partial.to_string()));
            }
            QueryStatus::Invalid { error } => {
                fields.push(("status", json::string("invalid")));
                fields.push(("error", json::string(error)));
            }
        }
        json::object(fields)
    }
}

/// The aggregate outcome of one batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Worker threads used.
    pub threads: usize,
    /// Total queries submitted.
    pub queries: usize,
    /// Queries that ran to completion.
    pub completed: usize,
    /// Queries interrupted by the shared flag, a deadline, or a budget.
    pub interrupted: usize,
    /// Queries rejected at validation.
    pub invalid: usize,
    /// Wall-clock time for the whole batch, milliseconds.
    pub wall_ms: f64,
    /// Aggregate throughput: queries / wall-clock seconds.
    pub qps: f64,
    /// Latency percentiles across all queries, milliseconds.
    pub latency_ms: LatencySummary,
    /// Per-query results, in submission order.
    pub results: Vec<QueryResult>,
}

impl BatchReport {
    /// Renders the report as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        json::object([
            ("threads", self.threads.to_string()),
            ("queries", self.queries.to_string()),
            ("completed", self.completed.to_string()),
            ("interrupted", self.interrupted.to_string()),
            ("invalid", self.invalid.to_string()),
            ("wall_ms", json::number(self.wall_ms)),
            ("qps", json::number(self.qps)),
            ("latency_ms", self.latency_ms.to_json()),
            (
                "results",
                json::array(self.results.iter().map(QueryResult::to_json)),
            ),
        ])
    }
}

/// Executes query workloads across a thread pool, with per-query deadlines
/// and one shared cancel flag for the whole batch.
pub struct BatchRunner {
    parallelism: Parallelism,
    deadline: Option<Duration>,
    cancel: Arc<AtomicBool>,
}

impl BatchRunner {
    /// A runner executing on `parallelism`'s workers.
    pub fn new(parallelism: Parallelism) -> BatchRunner {
        BatchRunner {
            parallelism,
            deadline: None,
            cancel: RunGuard::new().cancel_flag(),
        }
    }

    /// Adds a per-query wall-clock deadline (each query gets its own
    /// clock, started when the query is picked up by a worker).
    pub fn with_deadline(mut self, deadline: Duration) -> BatchRunner {
        self.deadline = Some(deadline);
        self
    }

    /// The batch-wide cancel flag. Storing `true` (from any thread)
    /// interrupts every in-flight and not-yet-started query.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Trips the batch-wide cancel flag.
    pub fn cancel(&self) {
        self.cancel
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.parallelism.threads()
    }

    /// Runs the whole workload, one `CommK` top-k enumeration per query,
    /// each under its own [`RunGuard`] (shared cancel flag + optional
    /// per-query deadline). Results come back in submission order.
    pub fn run(&self, graph: &Graph, queries: &[BatchQuery]) -> BatchReport {
        let t0 = Instant::now();
        let tasks: Vec<_> = queries
            .iter()
            .map(|q| {
                move || -> QueryResult {
                    let mut guard = RunGuard::new().with_cancel_flag(self.cancel_flag());
                    if let Some(d) = self.deadline {
                        guard = guard.with_deadline(d);
                    }
                    let started = Instant::now();
                    let spec = match QuerySpec::try_new(q.keyword_nodes.clone(), q.rmax) {
                        Ok(spec) => spec,
                        Err(e) => {
                            return QueryResult {
                                label: q.label.clone(),
                                latency_us: started.elapsed().as_secs_f64() * 1e6,
                                status: QueryStatus::Invalid {
                                    error: e.to_string(),
                                },
                            }
                        }
                    };
                    let status = match comm_k_guarded(graph, &spec, q.k, guard) {
                        Ok(Outcome::Complete(cs)) => QueryStatus::Complete {
                            communities: cs.len(),
                        },
                        Ok(Outcome::Interrupted { partial, reason }) => QueryStatus::Interrupted {
                            reason: reason.to_string(),
                            partial: partial.len(),
                        },
                        Err(e) => QueryStatus::Invalid {
                            error: e.to_string(),
                        },
                    };
                    QueryResult {
                        label: q.label.clone(),
                        latency_us: started.elapsed().as_secs_f64() * 1e6,
                        status,
                    }
                }
            })
            .collect();
        let results = self.parallelism.map(tasks);
        let wall = t0.elapsed();
        let completed = results
            .iter()
            .filter(|r| matches!(r.status, QueryStatus::Complete { .. }))
            .count();
        let interrupted = results
            .iter()
            .filter(|r| matches!(r.status, QueryStatus::Interrupted { .. }))
            .count();
        let invalid = results.len() - completed - interrupted;
        BatchReport {
            threads: self.parallelism.threads(),
            queries: results.len(),
            completed,
            interrupted,
            invalid,
            wall_ms: wall.as_secs_f64() * 1000.0,
            qps: if wall.as_secs_f64() > 0.0 {
                results.len() as f64 / wall.as_secs_f64()
            } else {
                0.0
            },
            latency_ms: LatencySummary::from_latencies(
                results.iter().map(|r| r.latency_us / 1e3).collect(),
            ),
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use comm_datasets::paper_example::{fig4_graph, fig4_keyword_nodes, FIG4_RMAX};

    fn paper_batch(copies: usize) -> Vec<BatchQuery> {
        (0..copies)
            .map(|i| BatchQuery {
                label: format!("paper-{i}"),
                keyword_nodes: fig4_keyword_nodes(),
                rmax: FIG4_RMAX,
                k: 5,
            })
            .collect()
    }

    #[test]
    fn batch_results_are_deterministic_across_thread_counts() {
        let g = fig4_graph();
        let queries = paper_batch(6);
        let serial = BatchRunner::new(Parallelism::serial()).run(&g, &queries);
        assert_eq!(serial.completed, 6);
        assert_eq!(serial.interrupted, 0);
        assert_eq!(serial.invalid, 0);
        for threads in [2usize, 4] {
            let par = BatchRunner::new(Parallelism::new(threads)).run(&g, &queries);
            assert_eq!(par.threads, threads);
            assert_eq!(par.completed, serial.completed);
            // Same labels in the same submission order, same payloads.
            for (a, b) in serial.results.iter().zip(&par.results) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.status, b.status);
            }
        }
    }

    #[test]
    fn pre_tripped_flag_interrupts_every_query() {
        let g = fig4_graph();
        let queries = paper_batch(5);
        let runner = BatchRunner::new(Parallelism::new(4));
        runner.cancel();
        let report = runner.run(&g, &queries);
        assert_eq!(report.completed, 0);
        assert_eq!(report.interrupted, 5);
        for r in &report.results {
            assert!(
                matches!(&r.status, QueryStatus::Interrupted { reason, .. } if reason.contains("cancel")),
                "expected cancellation, got {:?}",
                r.status
            );
        }
    }

    #[test]
    fn cancel_flag_accessor_shares_the_batch_flag() {
        // Tripping the flag obtained from `cancel_flag()` (the handle a
        // controller thread would hold) interrupts the whole batch, same
        // as `cancel()`.
        let g = fig4_graph();
        let runner = BatchRunner::new(Parallelism::new(2));
        let flag = runner.cancel_flag();
        flag.store(true, std::sync::atomic::Ordering::Release);
        let report = runner.run(&g, &paper_batch(4));
        assert_eq!(report.completed, 0);
        assert_eq!(report.interrupted, 4);
    }

    #[test]
    fn invalid_query_is_reported_not_panicked() {
        let g = fig4_graph();
        let queries = vec![BatchQuery {
            label: "bad".into(),
            keyword_nodes: vec![],
            rmax: FIG4_RMAX,
            k: 3,
        }];
        let report = BatchRunner::new(Parallelism::new(2)).run(&g, &queries);
        assert_eq!(report.invalid, 1);
        assert_eq!(report.completed + report.interrupted, 0);
    }

    #[test]
    fn deadline_is_threaded_into_guards() {
        let g = fig4_graph();
        let queries = paper_batch(2);
        // A generous deadline: everything completes.
        let report = BatchRunner::new(Parallelism::new(2))
            .with_deadline(Duration::from_secs(30))
            .run(&g, &queries);
        assert_eq!(report.completed, 2);
        assert!(report.wall_ms >= 0.0);
        assert!(report.qps > 0.0);
    }

    #[test]
    fn report_json_carries_every_status_shape() {
        let g = fig4_graph();
        let mut queries = paper_batch(1);
        queries.push(BatchQuery {
            label: "bad \"quoted\"".into(),
            keyword_nodes: vec![],
            rmax: FIG4_RMAX,
            k: 3,
        });
        let json = BatchRunner::new(Parallelism::serial())
            .run(&g, &queries)
            .to_json();
        for key in [
            "\"threads\": 1",
            "\"queries\": 2",
            "\"latency_ms\": {",
            "\"p90\":",
            "\"status\": \"complete\"",
            "\"communities\": 5",
            "\"label\": \"bad \\\"quoted\\\"\"",
            "\"status\": \"invalid\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
