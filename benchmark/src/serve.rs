//! `serve_mixed`: a live `comm_serve` daemon over loopback TCP, driven
//! closed-loop by two `Client` connections (callers of this daemon each
//! wait for their reply) with a fixed 80 / 15 / 5 mix of answer-cache
//! hits, index-cache hits and never-seen keyword sets.

use crate::gen::{self, keyword, BibConfig, Rng, KEYWORDS_PER_GROUP, KWFS};
use crate::harness::{hit_rate, ms_since, peak_rss_mb, set_up, HostSpeed, Report, RoundArgs};
use crate::pipeline::{Certifier, Query, ULP_SLACK};
use crate::trace::Tracer;
use comm_graph::{graph_from_edges, save_container, Outcome, RunGuard};
use comm_serve::cache::Vocabulary;
use comm_serve::server::counter;
use comm_serve::{
    decode_response, encode_response, spawn, summarize, AdmissionConfig, AdmissionGate, Client,
    ClientConfig, CommunitySummary, EngineConfig, Priority, QueryEngine, Response, ServerConfig,
    ServerHandle,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

const NAME: &str = "serve_mixed";
const CONNECTIONS: usize = 2;
const HOT_KEYS: usize = 6;
const HOT_RMAX: f64 = 6.0;
const HOT_K: u32 = 150;

/// What a request is expected to hit.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Class {
    /// A hot `(set, 6.0, 150)` key: answer-cache hit.
    Hit,
    /// A hot set with a never-used `(Rmax, k)`: index hit, answer miss.
    Params,
    /// A never-seen keyword set: both caches miss, and the new index
    /// pushes on the hot ones in the cap-8 LRU.
    Cold,
}

/// Twenty requests, 16 / 3 / 1: the 80 / 15 / 5 mix holds in every window.
const PATTERN: [Class; 20] = {
    use Class::*;
    [
        Hit, Hit, Hit, Params, Hit, Hit, Hit, Hit, Hit, Cold, Hit, Params, Hit, Hit, Hit, Hit, Hit,
        Params, Hit, Hit,
    ]
};

/// The hot keyword sets: two or three keywords of one topic, from the
/// denser KWF groups, so their answers are full-size replies.
fn hot_sets(seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed).fork(8);
    let mut topics: Vec<usize> = (0..KEYWORDS_PER_GROUP).collect();
    for i in (1..topics.len()).rev() {
        topics.swap(i, rng.below(i + 1));
    }
    (0..HOT_KEYS)
        .map(|i| {
            let l = 2 + i % 2;
            (0..l)
                .map(|s| keyword(KWFS.len() - 1 - s, topics[i]))
                .collect()
        })
        .collect()
}

/// The request mix both connections draw from. The counters are shared so
/// that the hot sets' indexes are touched in one global round-robin: five
/// other hot sets and about two cold ones separate two touches of a set,
/// which the cap-8 LRU just holds, whichever connection runs ahead.
struct Mix {
    hot: Vec<Vec<String>>,
    params: AtomicUsize,
    cold: AtomicUsize,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix {
            hot: hot_sets(seed),
            params: AtomicUsize::new(0),
            cold: AtomicUsize::new(0),
        }
    }

    fn hot_query(&self, i: usize) -> Query {
        Query {
            keywords: self.hot[i % HOT_KEYS].clone(),
            rmax: HOT_RMAX,
            k: HOT_K,
        }
    }

    /// The `issued`-th request of a connection whose random stream is `rng`.
    fn next(&self, rng: &mut Rng, issued: usize) -> (Class, Query) {
        let class = PATTERN[issued % PATTERN.len()];
        let q = match class {
            Class::Hit => self.hot_query(rng.below(HOT_KEYS)),
            Class::Params => {
                // A (Rmax, k) no request used before, so never in the cache.
                let c = self.params.fetch_add(1, Ordering::Relaxed);
                Query {
                    keywords: self.hot[c % HOT_KEYS].clone(),
                    rmax: 5.0 + 0.0005 * (c % 4000) as f64,
                    k: 100 + (c % 101) as u32,
                }
            }
            Class::Cold => {
                // Random topics per keyword, unlike the single-topic hot
                // sets. Two connections drawing the same set is possible
                // (12^l sets per shape) and only turns a miss into a hit.
                let c = self.cold.fetch_add(1, Ordering::Relaxed);
                let (l, first_group) = (2 + c % 4, c / 4);
                let mut set: Vec<String> = Vec::with_capacity(l);
                while set.len() < l {
                    let kw = keyword(
                        (first_group + set.len()) % KWFS.len(),
                        rng.below(KEYWORDS_PER_GROUP),
                    );
                    if !set.contains(&kw) {
                        set.push(kw);
                    }
                }
                Query {
                    keywords: set,
                    rmax: HOT_RMAX,
                    k: HOT_K,
                }
            }
        };
        (class, q)
    }
}

struct Bench {
    engine: Arc<QueryEngine>,
    server: ServerHandle,
    /// A second engine over the same container, for in-process answers.
    mirror: QueryEngine,
    vocab: Vocabulary,
    csr_build_ms: f64,
    save_ms: f64,
    load_ms: f64,
}

fn container_path() -> PathBuf {
    std::fs::create_dir_all(crate::OUT_DIR).expect("create benchmark/out");
    PathBuf::from(crate::OUT_DIR).join(format!("serve-{}.cgph", std::process::id()))
}

fn client(addr: SocketAddr) -> Client {
    Client::new(addr, ClientConfig::default())
}

fn query(client: &mut Client, q: &Query) -> Result<Vec<CommunitySummary>, String> {
    match client.query(&q.refs(), q.rmax, q.k, Priority::Normal) {
        Ok(Response::Complete { communities, .. }) => Ok(communities),
        Ok(other) => Err(format!("{:?}: reply was {other:?}", q.keywords)),
        Err(e) => Err(format!("{:?}: {e}", q.keywords)),
    }
}

/// Generate the quarter-size graph, save it as a container, warm-start
/// the engine from the mapped file, start the daemon and warm the hot keys.
fn setup(seed: u64) -> Bench {
    let ds = gen::bib(BibConfig::QUARTER, seed);
    let start = Instant::now();
    let graph = graph_from_edges(ds.nodes, &ds.edges);
    let csr_build_ms = ms_since(start);
    let path = container_path();
    let start = Instant::now();
    save_container(
        &path,
        &graph,
        ds.vocab.iter().map(|(k, v)| (k.as_str(), v.as_slice())),
        None,
    )
    .expect("save the container under benchmark/out");
    let save_ms = ms_since(start);
    drop(graph);
    let start = Instant::now();
    let engine =
        QueryEngine::from_container(&path, EngineConfig::default()).expect("load the container");
    let load_ms = ms_since(start);
    let engine = Arc::new(engine);
    let server = spawn(Arc::clone(&engine), ServerConfig::default()).expect("bind a loopback port");
    let mix = Mix::new(seed);
    let mut warm = client(server.addr());
    for i in 0..HOT_KEYS {
        query(&mut warm, &mix.hot_query(i)).expect("hot keys are answerable");
    }
    drop(warm);
    let mirror =
        QueryEngine::from_container(&path, EngineConfig::default()).expect("load the container");
    // The mappings keep the file's pages; the name can go.
    let _ = std::fs::remove_file(&path);
    Bench {
        engine,
        server,
        mirror,
        vocab: ds.vocab,
        csr_build_ms,
        save_ms,
        load_ms,
    }
}

impl Bench {
    /// Stops the daemon. Every `Client` must be gone first: shutdown joins
    /// the connection handlers, and a handler only notices the flag
    /// between frames, at `io_timeout` granularity.
    fn stop(self) {
        self.server.shutdown();
    }
}

/// What one connection measured.
#[derive(Default)]
struct Lane {
    /// `(class, latency ms)` of every completed request.
    done: Vec<(Class, f64)>,
    /// Time spent inside requests, completed or failed. The rest of the
    /// phase went to the harness: drawing requests, keeping replies, and
    /// the host-speed passes between requests (about a tenth of it).
    busy_ms: f64,
    failures: Vec<String>,
    /// A few replies kept to compare with in-process answers.
    kept: Vec<(Query, Vec<CommunitySummary>)>,
}

/// Replies kept per connection for the bit-for-bit comparison.
const KEEP: usize = 16;

/// Whether a reply's costs are ranked, to the slack `Certifier` allows.
fn ranked(reply: &[CommunitySummary]) -> bool {
    let cost = |c: &CommunitySummary| f64::from_bits(c.cost_bits);
    reply
        .windows(2)
        .all(|p| cost(&p[1]) >= cost(&p[0]) * (1.0 - ULP_SLACK))
}

/// One connection's closed loop; returns what it measured and its probe.
fn drive(
    addr: SocketAddr,
    mix: &Mix,
    mut rng: Rng,
    mut host: HostSpeed,
    seconds: f64,
) -> (Lane, HostSpeed) {
    let mut lane = Lane::default();
    let mut client = client(addr);
    let phase = Instant::now();
    let mut issued = 0;
    while phase.elapsed().as_secs_f64() < seconds {
        let (class, q) = mix.next(&mut rng, issued);
        issued += 1;
        let start = Instant::now();
        let reply = query(&mut client, &q);
        let ms = ms_since(start);
        lane.busy_ms += ms;
        match reply {
            Ok(reply) if ranked(&reply) && reply.len() <= q.k as usize => {
                lane.done.push((class, ms));
                if lane.kept.len() < KEEP {
                    lane.kept.push((q, reply));
                } else {
                    let slot = rng.below(lane.done.len());
                    if slot < KEEP {
                        lane.kept[slot] = (q, reply);
                    }
                }
            }
            Ok(_) => lane
                .failures
                .push(format!("{:?}: ranking broken", q.keywords)),
            Err(e) => lane.failures.push(e),
        }
        host.tick();
    }
    (lane, host)
}

/// Recomputes each kept reply in-process and compares bit for bit.
fn check_replies(bench: &Bench, lanes: &[Lane], certifier: &mut Certifier, report: &mut Report) {
    for (q, reply) in lanes.iter().flat_map(|l| &l.kept) {
        match bench
            .mirror
            .answer(&q.keywords, q.rmax, q.k, &RunGuard::unlimited())
        {
            Ok(Outcome::Complete(answer)) => {
                certifier.observe(q, &answer);
                let expected: Vec<CommunitySummary> = answer.iter().map(summarize).collect();
                if expected != *reply {
                    report.fail(format!(
                        "{:?}: wire reply differs from summarize()",
                        q.keywords
                    ));
                }
            }
            other => report.fail(format!("{:?}: in-process answer: {other:?}", q.keywords)),
        }
    }
}

/// The layers of a served answer-cache hit, each timed on its own from
/// outside in tight loops (a loop that pauses between requests pays the
/// handler thread's wake-up instead): the served hit bare and inside a
/// span, a ping, and in-process the cache hit, summarize, encode, decode.
fn trace_layers(bench: &Bench, seed: u64, report: &mut Report) {
    const ROUNDS: usize = 500;
    let mix = Mix::new(seed);
    let mut tr = Tracer::new(true);
    let mut conn = client(bench.server.addr());
    // Bare hit, hit inside a span and ping take turns in one loop: served
    // latency moves by tens of percent with where the scheduler puts the
    // client and the handler, and so all three see the same placement.
    let mut plain_ms = 0.0;
    for round in 0..ROUNDS {
        let start = Instant::now();
        query(&mut conn, &mix.hot_query(round)).expect("hot keys are answerable");
        plain_ms += ms_since(start) / ROUNDS as f64;
        tr.set_op(round);
        tr.span("op", |tr| {
            tr.span("serve.client.query", |_| {
                query(&mut conn, &mix.hot_query(round))
            })
            .expect("hot keys are answerable")
        });
        tr.span("serve.wire.ping", |_| conn.ping())
            .expect("the daemon is up");
    }
    drop(conn);

    // The mirror engine holds the hot answers like the daemon's does.
    let unlimited = RunGuard::unlimited();
    for i in 0..HOT_KEYS {
        let q = mix.hot_query(i);
        bench
            .mirror
            .answer(&q.keywords, q.rmax, q.k, &unlimited)
            .expect("hot keys are answerable");
    }
    let mut reply_bytes = 0usize;
    for round in 0..ROUNDS {
        tr.set_op(round);
        let q = mix.hot_query(round);
        tr.span("replay", |tr| {
            let answer = tr
                .span("serve.engine.answer_hit", |_| {
                    bench
                        .mirror
                        .answer(&q.keywords, q.rmax, q.k, &RunGuard::new())
                })
                .expect("hot keys are answerable")
                .into_value();
            let communities: Vec<CommunitySummary> = tr.span("serve.engine.summarize", |_| {
                answer.iter().map(summarize).collect()
            });
            let resp = Response::Complete {
                id: round as u64,
                communities,
            };
            let bytes = tr
                .span("serve.protocol.encode", |_| encode_response(&resp))
                .expect("a reply this size encodes");
            reply_bytes += bytes.len();
            let back = tr
                .span("serve.protocol.decode", |_| decode_response(&bytes))
                .expect("what was encoded decodes");
            std::hint::black_box(back);
        });
    }

    let gate = AdmissionGate::new(AdmissionConfig::default(), Arc::new(AtomicBool::new(false)));
    const ADMITS: u32 = 100_000;
    let start = Instant::now();
    for _ in 0..ADMITS {
        drop(std::hint::black_box(gate.admit()));
    }
    report.set(
        "serve.admission.admit_ns",
        start.elapsed().as_nanos() as f64 / f64::from(ADMITS),
    );

    let layers = tr.layers();
    let mean_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_ms());
    let served = mean_ms("serve.client.query");
    let hit = mean_ms("serve.engine.answer_hit");
    let ping = mean_ms("serve.wire.ping");
    report.set("serve.engine.answer_hit_ms", hit);
    report.set(
        "serve.engine.summarize_ms",
        mean_ms("serve.engine.summarize"),
    );
    report.set("serve.protocol.encode_ms", mean_ms("serve.protocol.encode"));
    report.set("serve.protocol.decode_ms", mean_ms("serve.protocol.decode"));
    report.set("serve.protocol.reply_bytes", (reply_bytes / ROUNDS) as f64);
    report.set("serve.wire.ping_ms", ping);
    report.set("serve.server.overhead_ms", served - hit - ping);
    // The share of a served hit that the layers visible from outside
    // account for; the rest is inside the daemon.
    report.set("trace.coverage", (mean_ms("replay") + ping) / served);
    report.set("trace.overhead", served / plain_ms);
    crate::write_out(&format!("trace-{NAME}.json"), &tr.to_json(NAME).render());
}

pub fn run(args: &RoundArgs) -> Report {
    let mut report = Report::new();
    // One host-speed probe per connection and one for this thread.
    let (bench, mut hosts) = set_up(
        args,
        &mut report,
        1 + CONNECTIONS,
        || setup(args.seed),
        |b| b.engine.graph().byte_size(),
        Bench::stop,
    );
    let mut host = hosts.pop().expect("one probe per thread");
    let (ih0, im0, ah0, am0) = bench.engine.cache_stats();

    let addr = bench.server.addr();
    let mix = Mix::new(args.seed);
    let driven: Vec<(Lane, HostSpeed)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .zip(hosts)
            .map(|(c, host)| {
                let rng = Rng::new(args.seed).fork(20 + c as u64);
                let mix = &mix;
                s.spawn(move || drive(addr, mix, rng, host, args.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    report.peak_rss_mb = peak_rss_mb() - (1 + CONNECTIONS) as f64 * host.buffer_mb();
    let mut lanes = Vec::with_capacity(CONNECTIONS);
    for (lane, lane_host) in driven {
        host.merge(lane_host);
        lanes.push(lane);
    }
    report.set_host(&host);
    // A connection is inside a request or inside the harness, never idle:
    // the rate is answers over the time a connection spent in requests, as
    // on the in-process workloads, and so leaves the harness's share out.
    report.timed_s = lanes.iter().map(|l| l.busy_ms).sum::<f64>() / 1e3 / CONNECTIONS as f64;
    for lane in &lanes {
        report.attempted += (lane.done.len() + lane.failures.len()) as u64;
        report.query_ms.extend(lane.done.iter().map(|&(_, ms)| ms));
        for f in &lane.failures {
            report.fail(f.clone());
        }
    }

    if args.trace {
        let (ih, im, ah, am) = bench.engine.cache_stats();
        report.set("serve.engine.index_hit_rate", hit_rate(ih - ih0, im - im0));
        report.set("serve.engine.answer_hit_rate", hit_rate(ah - ah0, am - am0));
        let counters = bench.server.counters();
        report.set(
            "serve.admission.admitted",
            counter(&counters, "admitted") as f64,
        );
        report.set("serve.admission.shed", counter(&counters, "shed") as f64);
        report.set("graph.csr.build_ms", bench.csr_build_ms);
        report.set("graph.container.save_ms", bench.save_ms);
        report.set("graph.container.load_ms", bench.load_ms);
        trace_layers(&bench, args.seed, &mut report);
    }

    let mut certifier = Certifier::new(args.seed);
    check_replies(&bench, &lanes, &mut certifier, &mut report);
    certifier.certify(bench.mirror.graph(), &bench.vocab, &mut report);
    for class in [Class::Hit, Class::Params, Class::Cold] {
        let name = match class {
            Class::Hit => "hit_ms",
            Class::Params => "params_ms",
            Class::Cold => "cold_ms",
        };
        let ms = lanes
            .iter()
            .flat_map(|l| &l.done)
            .filter(|(c, _)| *c == class)
            .map(|&(_, ms)| ms)
            .collect();
        report.samples.insert(name, ms);
    }
    bench.stop();
    report
}
