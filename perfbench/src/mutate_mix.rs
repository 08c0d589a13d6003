//! `mutate_mix`: writes beside reads on one resident graph. The registry
//! (retention `keep_last(4)`) is restored from a WAL holding a short edit
//! history; each cycle then applies one 16-edit batch and runs 16 BL
//! induced reads pinned to the latest epoch through `BatchRunner::solve`.
//! Writes are checked by the epoch returned and the edit-log length, reads
//! with `verify_mis` on the induced instance, all between the timed
//! intervals.

use crate::inputs::{self, EditSchedule, QuerySpec};
use crate::layers::{self, Answers};
use crate::phase::{Phase, Sliced};
use crate::replay::InducedReplay;
use crate::stats::Latencies;
use crate::tally::{Failure, Tally};
use crate::trace::Tracer;
use crate::{os, Args, Metrics, Run};
use hypergraph::builder::hypergraph_from_edges;
use hypergraph::{apply_edits, ActiveHypergraph, Hypergraph};
use hypergraph_mis::batch::BatchRunner;
use hypergraph_mis::serve::{
    Epoch, GraphId, ResidentRegistry, RetentionPolicy, SolveOutcome, SolveRequest,
};
use mis_core::verify_mis;
use std::path::Path;
use std::time::Instant;

/// Reads after each write.
const READS_PER_WRITE: usize = 16;
/// Checked cycles before the timed phase.
const WARMUP_CYCLES: usize = 8;

/// Checks that `set` is a maximal independent set of the sub-hypergraph of
/// `graph` induced by the ascending `query` (the edges wholly inside it),
/// built here from the graph's incidence lists.
fn verify_induced(graph: &Hypergraph, query: &[u32], set: &[u32]) -> Result<(), String> {
    let local = |v: u32| query.binary_search(&v).ok().map(|p| p as u32);
    let mut edges = Vec::new();
    for &v in query {
        for &e in graph.incident_edges(v) {
            let edge = graph.edge(e);
            // Edges are stored sorted: take each once, at its first vertex.
            if edge[0] == v {
                if let Some(l) = edge.iter().map(|&u| local(u)).collect::<Option<Vec<u32>>>() {
                    edges.push(l);
                }
            }
        }
    }
    let sub = hypergraph_from_edges(query.len(), edges);
    let set: Vec<u32> = set
        .iter()
        .map(|&v| local(v).ok_or(format!("vertex {v} is outside the query")))
        .collect::<Result<_, _>>()?;
    verify_mis(&sub, &set).map_err(|e| format!("{e:?}"))
}

fn check_read(
    graph: &Hypergraph,
    epoch: Epoch,
    query: &QuerySpec,
    out: &SolveOutcome,
) -> Result<(), (Failure, String)> {
    if let Some(e) = &out.error {
        return Err((Failure::ErrorOutcome, e.to_string()));
    }
    if out.epoch != Some(epoch) {
        return Err((
            Failure::WrongAnswer,
            format!("answered at {:?}, latest is {epoch:?}", out.epoch),
        ));
    }
    verify_induced(graph, &query.vertices, &out.independent_set)
        .map_err(|e| (Failure::WrongAnswer, e))
}

/// The registry under test and where its history stands.
struct Live {
    registry: ResidentRegistry,
    id: GraphId,
    runner: BatchRunner,
    /// Index of the next edit batch.
    batch: u64,
    /// Reads issued so far (picks the next query).
    reads: usize,
}

/// Latency records of one measured stretch.
#[derive(Default)]
struct Stretch {
    reads_ms: Vec<f64>,
    writes_ms: Vec<f64>,
}

/// Span and count records of the traced phase.
struct Traced<'a> {
    tracer: &'a mut Tracer,
    replay: InducedReplay,
    answers: Answers,
    next_request: u64,
}

/// Runs write+read cycles until `seconds` of them are timed.
fn measure(
    live: &mut Live,
    schedule: &EditSchedule,
    queries: &[QuerySpec],
    requests: &[SolveRequest],
    seconds: f64,
    tally: &mut Tally,
    mut traced: Option<&mut Traced>,
) -> (Stretch, Phase) {
    let mut phase = Phase::new(seconds);
    let mut rec = Stretch::default();
    while phase.running() {
        let batch = schedule.batch(live.batch);
        live.batch += 1;
        let before = live.registry.latest(live.id);
        let log_before = live.registry.edit_log(live.id).len();
        phase.start();
        let t0 = Instant::now();
        let applied = live.registry.apply(live.id, &batch);
        let t1 = Instant::now();
        phase.stop(1);
        rec.writes_ms.push((t1 - t0).as_secs_f64() * 1e3);
        let log_after = live.registry.edit_log(live.id).len();
        let expected = Epoch(before.epoch().0 + 1);
        tally.record(match applied {
            Err(e) => Err((Failure::ErrorOutcome, e.to_string())),
            Ok(epoch) if epoch != expected || log_after != log_before + batch.len() => Err((
                Failure::WrongAnswer,
                format!(
                    "apply gave {epoch:?} and log {log_after}, expected {expected:?} and {}",
                    log_before + batch.len()
                ),
            )),
            Ok(_) => Ok(()),
        });
        if let Some(t) = traced.as_deref_mut() {
            let rid = t.next_request;
            t.next_request += 1;
            let root = t.tracer.record("serve.apply", None, rid, t0, t1);
            let (graph, _) = t
                .tracer
                .time("hypergraph.apply_edits", Some(root), rid, || {
                    apply_edits(before.graph(), &batch).expect("replayed batch applies")
                });
            t.tracer
                .time("hypergraph.engine_build", Some(root), rid, || {
                    ActiveHypergraph::from_hypergraph(&graph)
                });
        }
        drop(before);

        let mut outs = Vec::with_capacity(READS_PER_WRITE);
        phase.start();
        for _ in 0..READS_PER_WRITE {
            let q = live.reads % requests.len();
            live.reads += 1;
            let t0 = Instant::now();
            let out = live.runner.solve(&live.registry, &requests[q]);
            outs.push((q, t0, Instant::now(), out));
        }
        phase.stop(READS_PER_WRITE as u64);
        let snapshot = live.registry.latest(live.id);
        for (q, t0, t1, out) in &outs {
            rec.reads_ms.push((*t1 - *t0).as_secs_f64() * 1e3);
            tally.record(check_read(
                snapshot.graph(),
                snapshot.epoch(),
                &queries[*q],
                out,
            ));
            if let Some(t) = traced.as_deref_mut() {
                let rid = t.next_request;
                t.next_request += 1;
                let root = t.tracer.record("serve.execute", None, rid, *t0, *t1);
                t.replay
                    .run(snapshot.engine(), &requests[*q], root, rid, t.tracer);
                t.answers.record(out);
            }
        }
    }
    (rec, phase)
}

/// `restore` + first read, with the instant each step ended.
fn setup(wal: &Path, first: &QuerySpec) -> (Live, [Instant; 3], SolveOutcome) {
    let t0 = Instant::now();
    let mut registry =
        ResidentRegistry::with_retention(RetentionPolicy::keep_last(inputs::MIX_KEEP_LAST));
    let id = registry.restore(wal).expect("restore the WAL");
    let t1 = Instant::now();
    let mut runner = BatchRunner::new();
    let out = runner.solve(&registry, &first.request(id));
    let t2 = Instant::now();
    let live = Live {
        registry,
        id,
        runner,
        batch: inputs::MIX_HISTORY,
        reads: 1,
    };
    (live, [t0, t1, t2], out)
}

/// The first read answers at the last epoch of the WAL history.
fn check_first(
    live: &Live,
    query: &QuerySpec,
    out: &SolveOutcome,
) -> Result<(), (Failure, String)> {
    let snapshot = live.registry.latest(live.id);
    check_read(snapshot.graph(), Epoch(inputs::MIX_HISTORY), query, out)
}

/// One cold set-up in this process, for [`crate::probe_setup`].
pub fn probe_setup(args: &Args, dir: &Path) -> (f64, Result<(), (Failure, String)>) {
    let query = &inputs::mix_queries(args.seed)[0];
    let (live, t, first) = setup(&dir.join(inputs::MIX_WAL), query);
    (
        (t[2] - t[0]).as_secs_f64(),
        check_first(&live, query, &first),
    )
}

pub fn run(args: &Args) -> Run {
    let dir = crate::prepare_inputs(args);
    let wal = dir.join(inputs::MIX_WAL);
    let schedule = EditSchedule::read(&dir.join(inputs::MIX_POOL_FILE)).expect("read edit pool");
    let queries = inputs::mix_queries(args.seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut report = vec![format!(
        "mutate_mix: 3-uniform n={} m={} restored from a {}-batch WAL, keep_last({}); \
         each cycle 1 write of {} edits + {READS_PER_WRITE} BL induced reads (Pareto 32..=1024)",
        inputs::MIX_N,
        inputs::MIX_M,
        inputs::MIX_HISTORY,
        inputs::MIX_KEEP_LAST,
        2 * inputs::MIX_HALF_BATCH
    )];
    let mut tracer = Tracer::new();

    os::reset_peak_rss();
    let (mut live, t, first) = setup(&wal, &queries[0]);
    tally.record(check_first(&live, &queries[0], &first));
    if args.trace {
        let root = tracer.record("setup", None, 0, t[0], t[2]);
        let restore = tracer.record("serve.restore", Some(root), 0, t[0], t[1]);
        tracer.record("serve.first_answer", Some(root), 0, t[1], t[2]);
        tracer.time("hypergraph.read_wal", Some(restore), 0, || {
            hypergraph::io::read_wal(&wal).expect("re-read the WAL")
        });
    }
    let requests: Vec<SolveRequest> = queries.iter().map(|q| q.request(live.id)).collect();

    for _ in 0..WARMUP_CYCLES {
        measure(
            &mut live,
            &schedule,
            &queries,
            &requests,
            f64::MIN_POSITIVE,
            &mut tally,
            None,
        );
    }
    let warm_allocs = live.runner.workspace().fresh_allocations();
    let (seconds, traced_seconds) = args.phase_seconds();
    let (mut writes_ms, mut setups) = (Vec::new(), Vec::new());
    let run = Sliced::measure(seconds, |s| {
        let (rec, phase) = measure(
            &mut live, &schedule, &queries, &requests, s, &mut tally, None,
        );
        writes_ms.extend(rec.writes_ms);
        if !args.trace {
            setups.push(crate::probe_setup(args, &dir, &mut tally));
        }
        (Latencies::new(rec.reads_ms), phase)
    });
    m.set(
        "pram.workspace.warm_fresh_allocations",
        (live.runner.workspace().fresh_allocations() - warm_allocs) as f64,
        1,
    );
    let writes = Latencies::new(writes_ms);
    report.push(format!(
        "write_p50_ms {:.6} ms ({} writes), write_p90_ms {:.6} ms",
        writes.nearest(0.5),
        writes.len(),
        writes.nearest(0.9)
    ));
    if args.trace {
        let mut traced = Traced {
            tracer: &mut tracer,
            replay: InducedReplay::new(),
            answers: Answers::default(),
            next_request: 1,
        };
        let (trec, _) = measure(
            &mut live,
            &schedule,
            &queries,
            &requests,
            traced_seconds,
            &mut tally,
            Some(&mut traced),
        );
        let Traced {
            replay, answers, ..
        } = traced;
        m.median("hypergraph.sub_vertices", &replay.sub_vertices);
        m.median("hypergraph.sub_edges", &replay.sub_edges);
        let snapshots = live.registry.retained_snapshots(live.id);
        m.set("serve.retained_snapshots", snapshots as f64, 1);
        m.set(
            "serve.evictions",
            live.registry.evictions(live.id) as f64,
            1,
        );
        let tlat = Latencies::new(trec.reads_ms);
        let root = "serve.execute";
        report.extend(layers::finish(&mut m, &tracer, &answers, &run, &tlat, root));
        let twrites = Latencies::new(trec.writes_ms);
        let overhead = layers::overhead(writes.nearest(0.5), twrites.nearest(0.5));
        report.push(format!("writes: {overhead}"));
        let spans = inputs::out_dir().join(format!("spans-mutate_mix-{}.tsv", args.seed));
        tracer.write_tsv(&spans).expect("write spans");
        report.push(format!("spans: {}", spans.display()));
    } else {
        crate::set_e2e(&mut m, &run, &setups, &mut report);
    }
    std::fs::remove_dir_all(&dir).expect("remove run inputs");
    Run {
        tally,
        metrics: m,
        report,
    }
}
