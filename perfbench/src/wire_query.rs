//! `wire_query`: induced queries over a loopback `MISP 1` server (1 shard,
//! one rayon thread) on a mapped resident graph, from one connection that
//! keeps [`DEPTH`] requests in flight. The request list is sent round after
//! round; replies are checked against in-process reference answers between
//! rounds, outside the timed phase.

use crate::inputs::{self, QuerySpec};
use crate::layers::{self, Answers};
use crate::phase::{Phase, Sliced};
use crate::replay::InducedReplay;
use crate::stats::Latencies;
use crate::tally::{Failure, Tally};
use crate::trace::Tracer;
use crate::window::Window;
use crate::{os, Args, Metrics, Run};
use hypergraph::ActiveHypergraph;
use hypergraph_mis::batch::BatchRunner;
use hypergraph_mis::net::frame::{decode_frame, DEFAULT_MAX_PAYLOAD};
use hypergraph_mis::net::{codec, Client, NetConfig, Server};
use hypergraph_mis::serve::{GraphId, ResidentRegistry, ServeConfig, SolveOutcome, SolveRequest};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests one connection keeps in flight.
const DEPTH: usize = 4;
/// Checked rounds before the timed phase.
const WARMUP_ROUNDS: usize = 2;

fn net_config() -> NetConfig {
    NetConfig {
        serve: ServeConfig {
            shards: 1,
            queue_depth: 64,
            threads_per_shard: Some(1),
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

struct Live {
    registry: Arc<ResidentRegistry>,
    id: GraphId,
    server: Server,
    client: Client,
}

/// One answered request of a round.
struct Answer {
    index: usize,
    correlation: u64,
    sent: Instant,
    done: Instant,
    outcome: SolveOutcome,
}

/// `open_mapped` + `Server::bind` + connect + first reply, with the instant
/// each step ended.
fn setup(snapshot: &Path, first: &QuerySpec) -> (Live, [Instant; 5], Result<SolveOutcome, String>) {
    let t0 = Instant::now();
    let mut registry = ResidentRegistry::new();
    let id = registry
        .open_mapped(snapshot)
        .expect("open the HGCSR snapshot");
    let t1 = Instant::now();
    let registry = Arc::new(registry);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&registry), &net_config()).expect("bind loopback");
    let t2 = Instant::now();
    let mut client = Client::connect(server.local_addr()).expect("connect to loopback");
    let t3 = Instant::now();
    let reply = client
        .submit(&first.request(id))
        .and_then(|_| client.recv())
        .map(|r| r.outcome)
        .map_err(|e| e.to_string());
    let t4 = Instant::now();
    let live = Live {
        registry,
        id,
        server,
        client,
    };
    (live, [t0, t1, t2, t3, t4], reply)
}

fn check(outcome: Result<&SolveOutcome, &str>, expected: u64) -> Result<(), (Failure, String)> {
    match outcome {
        Err(e) => Err((Failure::Transport, e.to_string())),
        Ok(o) => match &o.error {
            Some(e) => Err((Failure::ErrorOutcome, e.to_string())),
            None if inputs::digest(o) != expected => Err((
                Failure::WrongAnswer,
                "fingerprint differs from the in-process answer".into(),
            )),
            None => Ok(()),
        },
    }
}

/// Sends every request once through a [`DEPTH`]-deep window; answers come
/// back in completion order.
fn round(client: &mut Client, requests: &[SolveRequest]) -> Result<Vec<Answer>, String> {
    let mut window = Window::new(DEPTH);
    let mut answers = Vec::with_capacity(requests.len());
    let mut next = 0;
    while next < requests.len() || window.in_flight() > 0 {
        while next < requests.len() && window.has_room() {
            let sent = Instant::now();
            let correlation = client.submit(&requests[next]).map_err(|e| e.to_string())?;
            window.sent(correlation, next, sent);
            next += 1;
        }
        let reply = client.recv().map_err(|e| e.to_string())?;
        let done = Instant::now();
        let (index, sent) = window
            .answered(reply.correlation)
            .ok_or_else(|| format!("unmatched reply {}", reply.correlation))?;
        answers.push(Answer {
            index,
            correlation: reply.correlation,
            sent,
            done,
            outcome: reply.outcome,
        });
    }
    Ok(answers)
}

/// Span and size records of the traced phase.
struct Traced<'a> {
    tracer: &'a mut Tracer,
    runner: BatchRunner,
    replay: InducedReplay,
    answers: Answers,
    next_request: u64,
    request_bytes: Vec<f64>,
    outcome_bytes: Vec<f64>,
}

impl Traced<'_> {
    /// Replays each answered request's layers in process under its own
    /// request id; the live wire latency is the root span.
    fn replay_round(&mut self, live: &Live, requests: &[SolveRequest], answers: &[Answer]) {
        let snapshot = live.registry.latest(live.id);
        let engine: &ActiveHypergraph = snapshot.engine();
        for a in answers {
            let (rid, req, t) = (self.next_request, &requests[a.index], &mut *self.tracer);
            self.next_request += 1;
            let root = t.record("wire.request", None, rid, a.sent, a.done);
            let (bytes, _) = t.time("net.encode_request", Some(root), rid, || {
                codec::encode_request_frame(a.correlation, req)
            });
            t.time("net.decode_request", Some(root), rid, || {
                let (f, _) = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD).expect("own frame");
                codec::decode_request_payload(f.payload).expect("own request")
            });
            let runner = &mut self.runner;
            let (_, exec) = t.time("serve.execute", Some(root), rid, || {
                runner.solve(&live.registry, req)
            });
            self.replay.run(engine, req, exec, rid, t);
            let (out, _) = t.time("net.encode_outcome", Some(root), rid, || {
                codec::encode_outcome_frame(a.correlation, &a.outcome)
            });
            t.time("net.decode_outcome", Some(root), rid, || {
                let (f, _) = decode_frame(&out, DEFAULT_MAX_PAYLOAD).expect("own frame");
                codec::decode_outcome_payload(f.payload).expect("own outcome")
            });
            self.request_bytes.push(bytes.len() as f64);
            self.outcome_bytes.push(out.len() as f64);
            self.answers.record(&a.outcome);
        }
    }
}

/// Runs rounds until `seconds` of them are timed; checks every answer
/// between rounds, and replays their layers when `traced` is given.
fn measure(
    live: &mut Live,
    requests: &[SolveRequest],
    reference: &[u64],
    seconds: f64,
    tally: &mut Tally,
    mut traced: Option<&mut Traced>,
) -> (Latencies, Phase) {
    let mut phase = Phase::new(seconds);
    let mut latencies = Vec::new();
    while phase.running() {
        phase.start();
        let answers = round(&mut live.client, requests);
        phase.stop(answers.as_ref().map_or(0, |a| a.len() as u64));
        match answers {
            Ok(answers) => {
                for a in &answers {
                    latencies.push((a.done - a.sent).as_secs_f64() * 1e3);
                    tally.record(check(Ok(&a.outcome), reference[a.index]));
                }
                if let Some(t) = traced.as_deref_mut() {
                    t.replay_round(live, requests, &answers);
                }
            }
            Err(e) => {
                for _ in requests {
                    tally.record(Err((Failure::Transport, e.clone())));
                }
                break;
            }
        }
    }
    (Latencies::new(latencies), phase)
}

/// One cold set-up in this process, for [`crate::probe_setup`].
pub fn probe_setup(args: &Args, dir: &Path) -> (f64, Result<(), (Failure, String)>) {
    let specs = inputs::wire_queries(args.seed);
    let reference =
        inputs::read_reference(&dir.join(inputs::WIRE_REFERENCE)).expect("read reference");
    let (live, t, first) = setup(&dir.join(inputs::WIRE_SNAPSHOT), &specs[0]);
    let result = check(first.as_ref().map_err(|e| e.as_str()), reference[0]);
    drop(live.client);
    live.server.shutdown();
    ((t[4] - t[0]).as_secs_f64(), result)
}

pub fn run(args: &Args) -> Run {
    let dir = crate::prepare_inputs(args);
    let specs = inputs::wire_queries(args.seed);
    let reference =
        inputs::read_reference(&dir.join(inputs::WIRE_REFERENCE)).expect("read reference");
    let snapshot = dir.join(inputs::WIRE_SNAPSHOT);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut report = vec![format!(
        "wire_query: 3-uniform n={} m={} mapped; {} induced requests (Pareto 32..=1024, \
         BL/SBL/greedy/KUW/perm 5:2:1:1:1, 4 tenants, 60% hot); 1 shard; window {DEPTH}",
        inputs::WIRE_N,
        inputs::WIRE_M,
        inputs::WIRE_REQUESTS
    )];
    let mut tracer = Tracer::new();

    os::reset_peak_rss();
    let (mut live, t, first) = setup(&snapshot, &specs[0]);
    tally.record(check(first.as_ref().map_err(|e| e.as_str()), reference[0]));
    if args.trace {
        let root = tracer.record("setup", None, 0, t[0], t[4]);
        let reg = tracer.record("serve.register", Some(root), 0, t[0], t[1]);
        tracer.record("net.bind", Some(root), 0, t[1], t[2]);
        tracer.record("net.connect", Some(root), 0, t[2], t[3]);
        tracer.record("serve.first_answer", Some(root), 0, t[3], t[4]);
        let (graph, _) = tracer.time("hypergraph.open_mapped", Some(reg), 0, || {
            hypergraph::io::open_mapped(&snapshot).expect("reopen the snapshot")
        });
        tracer.time("hypergraph.engine_build", Some(reg), 0, || {
            ActiveHypergraph::from_hypergraph(&graph)
        });
    }
    let requests: Vec<SolveRequest> = specs.iter().map(|q| q.request(live.id)).collect();

    for _ in 0..WARMUP_ROUNDS {
        measure(
            &mut live,
            &requests,
            &reference,
            f64::MIN_POSITIVE,
            &mut tally,
            None,
        );
    }
    let (seconds, traced_seconds) = args.phase_seconds();
    let mut setups = Vec::new();
    let run = Sliced::measure(seconds, |s| {
        let slice = measure(&mut live, &requests, &reference, s, &mut tally, None);
        if !args.trace {
            setups.push(crate::probe_setup(args, &dir, &mut tally));
        }
        slice
    });
    if args.trace {
        let mut traced = Traced {
            tracer: &mut tracer,
            runner: BatchRunner::new(),
            replay: InducedReplay::new(),
            answers: Answers::default(),
            next_request: 1,
            request_bytes: Vec::new(),
            outcome_bytes: Vec::new(),
        };
        let (tlat, _) = measure(
            &mut live,
            &requests,
            &reference,
            traced_seconds,
            &mut tally,
            Some(&mut traced),
        );
        let Traced {
            replay,
            answers,
            request_bytes,
            outcome_bytes,
            ..
        } = traced;
        m.median("net.request_bytes", &request_bytes);
        m.median("net.outcome_bytes", &outcome_bytes);
        m.median("hypergraph.sub_vertices", &replay.sub_vertices);
        m.median("hypergraph.sub_edges", &replay.sub_edges);
        let root = "wire.request";
        report.extend(layers::finish(&mut m, &tracer, &answers, &run, &tlat, root));
    } else {
        crate::set_e2e(&mut m, &run, &setups, &mut report);
    }

    drop(live.client);
    let stats = live.server.shutdown();
    let protocol_errors: u64 = stats.connections.iter().map(|c| c.protocol_errors).sum();
    m.set("net.delivered", stats.delivered as f64, 1);
    m.set("net.protocol_errors", protocol_errors as f64, 1);
    // Every checked request but the probes' went to this server.
    let sent = tally.attempted() - setups.len() as u64;
    report.push(format!(
        "server: delivered {} of {sent} sent, protocol errors {protocol_errors}",
        stats.delivered
    ));
    if args.trace {
        let spans = inputs::out_dir().join(format!("spans-wire_query-{}.tsv", args.seed));
        tracer.write_tsv(&spans).expect("write spans");
        report.push(format!("spans: {}", spans.display()));
    }
    std::fs::remove_dir_all(&dir).expect("remove run inputs");
    Run {
        tally,
        metrics: m,
        report,
    }
}
