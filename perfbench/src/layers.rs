//! Per-layer metrics of a traced run, from the spans and the answers every
//! workload records the same way, and the traced report.

use crate::phase::Sliced;
use crate::stats::{self, Latencies};
use crate::trace::Tracer;
use crate::Metrics;
use hypergraph_mis::serve::{SolveOutcome, SolveTrace};

/// Span-derived metrics: the median duration, or self time, of the named
/// spans, in milliseconds times the scale. Span names are shared by every
/// workload; a workload without such spans leaves the metric at 0.
const FROM_SPANS: &[(&str, &[&str], f64, bool)] = &[
    ("net.encode_request_us", &["net.encode_request"], 1e3, false),
    ("net.decode_request_us", &["net.decode_request"], 1e3, false),
    ("net.encode_outcome_us", &["net.encode_outcome"], 1e3, false),
    ("net.decode_outcome_us", &["net.decode_outcome"], 1e3, false),
    ("net.frontend_ms", &["wire.request"], 1.0, true),
    ("serve.execute_us", &["serve.execute"], 1e3, false),
    ("batch.overhead_us", &["serve.execute"], 1e3, true),
    ("serve.apply_ms", &["serve.apply"], 1.0, false),
    ("serve.apply_other_ms", &["serve.apply"], 1.0, true),
    ("serve.register_ms", &["serve.register"], 1.0, false),
    ("serve.restore_ms", &["serve.restore"], 1.0, false),
    ("serve.first_answer_ms", &["serve.first_answer"], 1.0, false),
    (
        "hypergraph.open_mapped_ms",
        &["hypergraph.open_mapped"],
        1.0,
        false,
    ),
    (
        "hypergraph.read_file_ms",
        &["hypergraph.read_file"],
        1.0,
        false,
    ),
    (
        "hypergraph.read_wal_ms",
        &["hypergraph.read_wal"],
        1.0,
        false,
    ),
    (
        "hypergraph.engine_build_ms",
        &["hypergraph.engine_build"],
        1.0,
        false,
    ),
    ("hypergraph.induce_us", &["hypergraph.induce"], 1e3, false),
    ("hypergraph.compact_us", &["hypergraph.compact"], 1e3, false),
    (
        "hypergraph.apply_edits_ms",
        &["hypergraph.apply_edits"],
        1.0,
        false,
    ),
    (
        "mis_core.solve_us",
        &["mis_core.solve", "mis_core.sbl"],
        1e3,
        false,
    ),
    ("mis_core.sbl_ms", &["mis_core.sbl"], 1.0, false),
];

/// Cost-model totals and SBL trace counts of the traced answers.
#[derive(Debug, Default)]
pub struct Answers {
    work: Vec<f64>,
    depth: Vec<f64>,
    /// `(rounds, BL stages, tail vertices, dimension failures)` per SBL
    /// answer, in the order their `mis_core.sbl` replays were recorded.
    sbl: Vec<[f64; 4]>,
}

impl Answers {
    pub fn record(&mut self, out: &SolveOutcome) {
        self.work.push(out.work as f64);
        self.depth.push(out.depth as f64);
        if let SolveTrace::Sbl(t) = &out.trace {
            self.sbl.push([
                t.n_rounds() as f64,
                t.total_bl_stages() as f64,
                t.tail_vertices as f64,
                t.total_dimension_failures() as f64,
            ]);
        }
    }

    /// The resample ratio is dimension failures over all sampling attempts;
    /// `sbl_ms` are the replayed `sbl_mis_in` times of the SBL answers.
    fn set(&self, m: &mut Metrics, sbl_ms: &[f64]) {
        m.median("pram.cost.work", &self.work);
        m.median("pram.cost.depth", &self.depth);
        let column = |i: usize| self.sbl.iter().map(|s| s[i]).collect::<Vec<f64>>();
        let (rounds, failures) = (column(0), column(3));
        m.median("mis_core.sbl.rounds", &rounds);
        m.median("mis_core.sbl.bl_stages", &column(1));
        m.median("mis_core.sbl.tail_vertices", &column(2));
        let attempts: f64 = rounds.iter().chain(&failures).sum();
        if attempts > 0.0 {
            let wasted = failures.iter().sum::<f64>() / attempts;
            m.set("mis_core.sbl.resample_ratio", wasted, self.sbl.len());
        }
        let per_round: Vec<f64> = sbl_ms
            .iter()
            .zip(&rounds)
            .map(|(ms, r)| ms / r.max(1.0))
            .collect();
        m.median("mis_core.sbl.ms_per_round", &per_round);
    }
}

/// Fills the per-layer metrics every workload shares and returns the
/// traced report: span metrics, answer counts, OS counters over the
/// untraced phase, host configuration, and the tracing overhead on `root`
/// spans (the operation `p50_ms` times).
pub fn finish(
    m: &mut Metrics,
    tracer: &Tracer,
    answers: &Answers,
    untraced: &Sliced,
    traced: &Latencies,
    root: &str,
) -> Vec<String> {
    for &(name, spans, scale, self_time) in FROM_SPANS {
        let values: Vec<f64> = spans
            .iter()
            .flat_map(|s| {
                if self_time {
                    tracer.self_ms(s)
                } else {
                    tracer.durations_ms(s)
                }
            })
            .map(|v| v * scale)
            .collect();
        m.median(name, &values);
    }
    answers.set(m, &tracer.durations_ms("mis_core.sbl"));
    let (cpu, faults, ctx) = untraced.per_op();
    let ops = untraced.ops() as usize;
    m.set("os.cpu_ms_per_op", cpu, ops);
    m.set("os.minor_faults_per_op", faults, ops);
    m.set("os.ctx_switches_per_op", ctx, ops);
    let threads = pram::pool::available_parallelism();
    m.set("pram.threads", threads as f64, 1);
    let blocks = rand_chacha::simd::backend().lanes();
    m.set("simd.keystream_blocks", blocks as f64, 1);
    m.set(
        "simd.sweep_bytes",
        pram::simd::active().u8_lanes() as f64,
        1,
    );
    let (p50, traced_p50) = (untraced.percentile(0.5), traced.nearest(0.5));
    m.set("trace.p50_ms", traced_p50, traced.len());
    m.set("trace.untraced_p50_ms", p50, untraced.samples());
    m.set("trace.overhead_ms", traced_p50 - p50, traced.len());

    let mut out = vec![format!(
        "{:<28} {:>8} {:>14} {:>14}",
        "span", "count", "self p50 ms", "total p50 ms"
    )];
    for name in tracer.names() {
        let selfs = tracer.self_ms(name);
        out.push(format!(
            "{name:<28} {:>8} {:>14.4} {:>14.4}",
            selfs.len(),
            stats::median(&selfs),
            stats::median(&tracer.durations_ms(name)),
        ));
    }
    out.push(format!(
        "unattributed ({root} self time): {:.4} ms p50",
        stats::median(&tracer.self_ms(root))
    ));
    let p99 = traced
        .at(0.99)
        .map_or(format!("n/a ({} samples < 1000)", traced.len()), |v| {
            format!("{v:.4} ms")
        });
    out.push(format!("{}; traced p99 {p99}", overhead(p50, traced_p50)));
    out
}

/// The untraced and traced medians side by side, and their difference.
pub fn overhead(untraced_p50: f64, traced_p50: f64) -> String {
    format!(
        "p50 untraced {untraced_p50:.4} ms, traced {traced_p50:.4} ms, \
         tracing overhead {:+.4} ms",
        traced_p50 - untraced_p50
    )
}
