//! `sbl_full`: back-to-back full SBL solves of a paper-regime instance
//! through `BatchRunner::solve`, in process, cycling over a fixed list of
//! solve seeds. Each answer is checked with `verify_mis` after its solve,
//! outside the timed phase.

use crate::inputs;
use crate::layers::{self, Answers};
use crate::phase::{Phase, Sliced};
use crate::stats::Latencies;
use crate::tally::{Failure, Tally};
use crate::trace::Tracer;
use crate::{os, Args, Metrics, Run};
use hypergraph::{ActiveHypergraph, Hypergraph};
use hypergraph_mis::batch::BatchRunner;
use hypergraph_mis::serve::{Algorithm, GraphId, ResidentRegistry, SolveOutcome, SolveRequest};
use mis_core::{verify_mis, SblConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// Checked solves before the timed phase.
const WARMUP_SOLVES: usize = 16;

fn request(id: GraphId, seed: u64) -> SolveRequest {
    SolveRequest::for_graph(id)
        .algorithm(Algorithm::Sbl(SblConfig::default()))
        .seed(seed)
        .build()
}

fn check(graph: &Hypergraph, out: &SolveOutcome) -> Result<(), (Failure, String)> {
    if let Some(e) = &out.error {
        return Err((Failure::ErrorOutcome, e.to_string()));
    }
    verify_mis(graph, &out.independent_set).map_err(|e| (Failure::WrongAnswer, format!("{e:?}")))
}

/// Solves until `seconds` of them are timed, checking each answer after
/// its solve; with `traced`, each solve is a root span and `sbl_mis_in` on
/// the same graph and seed is replayed as its child.
#[allow(clippy::too_many_arguments)]
fn measure(
    registry: &ResidentRegistry,
    graph: &Hypergraph,
    runner: &mut BatchRunner,
    requests: &[SolveRequest],
    next: &mut usize,
    seconds: f64,
    tally: &mut Tally,
    mut traced: Option<(&mut Answers, &mut Tracer)>,
) -> (Latencies, Phase) {
    let mut phase = Phase::new(seconds);
    let mut latencies = Vec::new();
    while phase.running() {
        let req = &requests[*next % requests.len()];
        *next += 1;
        phase.start();
        let t0 = Instant::now();
        let out = runner.solve(registry, req);
        let t1 = Instant::now();
        phase.stop(1);
        latencies.push((t1 - t0).as_secs_f64() * 1e3);
        tally.record(check(graph, &out));
        if let Some((answers, tracer)) = traced.as_mut() {
            let rid = *next as u64;
            let root = tracer.record("serve.execute", None, rid, t0, t1);
            let mut rng = ChaCha8Rng::seed_from_u64(req.seed());
            tracer.time("mis_core.sbl", Some(root), rid, || {
                runner.sbl(graph, &mut rng, &SblConfig::default())
            });
            answers.record(&out);
        }
    }
    (Latencies::new(latencies), phase)
}

/// `io::read_file` + `register` + first solve, with the instant each step
/// ended.
fn setup(
    text: &Path,
    seed: u64,
) -> (
    ResidentRegistry,
    GraphId,
    BatchRunner,
    [Instant; 4],
    SolveOutcome,
) {
    let t0 = Instant::now();
    let graph = hypergraph::io::read_file(text).expect("read the text instance");
    let t1 = Instant::now();
    let mut registry = ResidentRegistry::new();
    let id = registry.register(graph);
    let t2 = Instant::now();
    let mut runner = BatchRunner::new();
    let first = runner.solve(&registry, &request(id, seed));
    let t3 = Instant::now();
    (registry, id, runner, [t0, t1, t2, t3], first)
}

/// One cold set-up in this process, for [`crate::probe_setup`].
pub fn probe_setup(args: &Args, dir: &Path) -> (f64, Result<(), (Failure, String)>) {
    let (registry, id, _, t, first) =
        setup(&dir.join(inputs::SBL_TEXT), inputs::sbl_seeds(args.seed)[0]);
    (
        (t[3] - t[0]).as_secs_f64(),
        check(registry.latest(id).graph(), &first),
    )
}

pub fn run(args: &Args) -> Run {
    let dir = crate::prepare_inputs(args);
    let text = dir.join(inputs::SBL_TEXT);
    let seeds = inputs::sbl_seeds(args.seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let mut report = vec![format!(
        "sbl_full: paper_regime n={} m={} edges up to {}; SBL over {} cycled seeds; \
         pram pool of {} threads",
        inputs::SBL_N,
        inputs::SBL_M,
        inputs::SBL_MAX_EDGE,
        inputs::SBL_SEEDS,
        pram::pool::available_parallelism()
    )];
    let mut tracer = Tracer::new();

    os::reset_peak_rss();
    let (registry, id, mut runner, t, first) = setup(&text, seeds[0]);
    let snapshot = registry.latest(id);
    tally.record(check(snapshot.graph(), &first));
    if args.trace {
        let root = tracer.record("setup", None, 0, t[0], t[3]);
        tracer.record("hypergraph.read_file", Some(root), 0, t[0], t[1]);
        let reg = tracer.record("serve.register", Some(root), 0, t[1], t[2]);
        tracer.record("serve.first_answer", Some(root), 0, t[2], t[3]);
        tracer.time("hypergraph.engine_build", Some(reg), 0, || {
            ActiveHypergraph::from_hypergraph(snapshot.graph())
        });
    }
    let graph = snapshot.graph();
    let requests: Vec<SolveRequest> = seeds.iter().map(|&s| request(id, s)).collect();
    let mut next = 1;

    for _ in 0..WARMUP_SOLVES {
        measure(
            &registry,
            graph,
            &mut runner,
            &requests,
            &mut next,
            f64::MIN_POSITIVE,
            &mut tally,
            None,
        );
    }
    let warm_allocs = runner.workspace().fresh_allocations();
    let (seconds, traced_seconds) = args.phase_seconds();
    let mut setups = Vec::new();
    let run = Sliced::measure(seconds, |s| {
        let slice = measure(
            &registry,
            graph,
            &mut runner,
            &requests,
            &mut next,
            s,
            &mut tally,
            None,
        );
        if !args.trace {
            setups.push(crate::probe_setup(args, &dir, &mut tally));
        }
        slice
    });
    m.set(
        "pram.workspace.warm_fresh_allocations",
        (runner.workspace().fresh_allocations() - warm_allocs) as f64,
        1,
    );
    if args.trace {
        let mut answers = Answers::default();
        let (tlat, _) = measure(
            &registry,
            graph,
            &mut runner,
            &requests,
            &mut next,
            traced_seconds,
            &mut tally,
            Some((&mut answers, &mut tracer)),
        );
        let root = "serve.execute";
        report.extend(layers::finish(&mut m, &tracer, &answers, &run, &tlat, root));
        let spans = inputs::out_dir().join(format!("spans-sbl_full-{}.tsv", args.seed));
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
