//! `perfbench` — the repository benchmark: closed-loop workloads driven
//! through the public API of the workspace, timed and checked from outside.
//!
//! ```text
//! perfbench --workload <wire_query|sbl_full|mutate_mix> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures half the time untraced and a quarter traced, and
//! reports the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads and what each metric means.

mod inputs;
mod layers;
mod mutate_mix;
mod os;
mod phase;
mod replay;
mod sbl_full;
mod stats;
mod tally;
mod trace;
mod window;
mod wire_query;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tally::{Failure, Tally};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const E2E: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_rps", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a layer
/// the workload does not exercise reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("net.encode_request_us", "us"),
    ("net.decode_request_us", "us"),
    ("net.encode_outcome_us", "us"),
    ("net.decode_outcome_us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.outcome_bytes", "bytes"),
    ("net.frontend_ms", "ms"),
    ("net.delivered", "count"),
    ("net.protocol_errors", "count"),
    ("serve.execute_us", "us"),
    ("serve.apply_ms", "ms"),
    ("serve.apply_other_ms", "ms"),
    ("serve.retained_snapshots", "count"),
    ("serve.evictions", "count"),
    ("serve.register_ms", "ms"),
    ("serve.restore_ms", "ms"),
    ("serve.first_answer_ms", "ms"),
    ("hypergraph.open_mapped_ms", "ms"),
    ("hypergraph.read_file_ms", "ms"),
    ("hypergraph.read_wal_ms", "ms"),
    ("hypergraph.engine_build_ms", "ms"),
    ("hypergraph.induce_us", "us"),
    ("hypergraph.compact_us", "us"),
    ("hypergraph.sub_vertices", "count"),
    ("hypergraph.sub_edges", "count"),
    ("hypergraph.apply_edits_ms", "ms"),
    ("mis_core.solve_us", "us"),
    ("mis_core.sbl_ms", "ms"),
    ("mis_core.sbl.ms_per_round", "ms"),
    ("mis_core.sbl.rounds", "count"),
    ("mis_core.sbl.bl_stages", "count"),
    ("mis_core.sbl.tail_vertices", "count"),
    ("mis_core.sbl.resample_ratio", "ratio"),
    ("batch.overhead_us", "us"),
    ("pram.cost.work", "count"),
    ("pram.cost.depth", "count"),
    ("pram.workspace.warm_fresh_allocations", "count"),
    ("pram.threads", "count"),
    ("simd.keystream_blocks", "blocks"),
    ("simd.sweep_bytes", "bytes"),
    ("os.cpu_ms_per_op", "ms"),
    ("os.minor_faults_per_op", "count"),
    ("os.ctx_switches_per_op", "count"),
    ("trace.p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

const WORKLOADS: &[&str] = &["wire_query", "sbl_full", "mutate_mix"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Seconds of timed phase (see [`Args::phase_seconds`]).
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Timed seconds of the untraced phase and of the traced one: all of
    /// `--seconds` and none, or with `--trace 1` a half and a quarter, since
    /// each traced operation is replayed afterwards and so runs twice.
    pub fn phase_seconds(&self) -> (f64, f64) {
        if self.trace {
            (self.seconds / 2.0, self.seconds / 4.0)
        } else {
            (self.seconds, 0.0)
        }
    }
}

/// Metric values by name, with their sample counts.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            E2E.iter().chain(LAYERS).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    /// Median of `values` under `name`, unless there are none.
    pub fn median(&mut self, name: &'static str, values: &[f64]) {
        if !values.is_empty() {
            self.set(name, stats::median(values), values.len());
        }
    }

    fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.0.get(name).copied()
    }
}

/// What a workload hands back: its tally, its metrics and report lines.
pub struct Run {
    pub tally: Tally,
    pub metrics: Metrics,
    pub report: Vec<String>,
}

/// Fills the end-to-end metrics shared by every workload.
pub fn set_e2e(m: &mut Metrics, run: &phase::Sliced, setups_s: &[f64], report: &mut Vec<String>) {
    for (name, q) in [("p50_ms", 0.5), ("p90_ms", 0.9)] {
        m.set(name, run.percentile(q), run.samples());
        if !run.reportable(q) {
            report.push(format!(
                "warning: a slice holds fewer samples than {name} needs"
            ));
        }
    }
    m.set("throughput_rps", run.throughput(), run.ops() as usize);
    m.median("setup_s", setups_s);
    m.set("peak_rss_mb", os::peak_rss_mib(), 1);
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// What this process does: measure, or serve a measuring process as a
/// child that writes the inputs or times one cold set-up.
enum Mode {
    Measure,
    Prepare(PathBuf),
    ProbeSetup(PathBuf),
}

/// Parses the command line; `--prepare DIR` and `--probe-setup DIR` are
/// the internal child modes.
fn parse_args() -> (Args, Mode) {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut mode = Mode::Measure;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--prepare" => mode = Mode::Prepare(PathBuf::from(value)),
            "--probe-setup" => mode = Mode::ProbeSetup(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage("--workload must name a workload");
    }
    (args, mode)
}

/// Runs this executable as a child in `mode_flag` on `dir`, waits for it,
/// and returns its standard output.
fn child(args: &Args, mode_flag: &str, dir: &Path) -> String {
    let out = std::process::Command::new(std::env::current_exe().expect("own executable"))
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .arg(mode_flag)
        .arg(dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a child process");
    assert!(
        out.status.success(),
        "{mode_flag} child failed: {}",
        out.status
    );
    String::from_utf8(out.stdout).expect("child output is text")
}

/// Writes the run's inputs from a child process (see [`inputs`]) and
/// returns the directory holding them.
pub fn prepare_inputs(args: &Args) -> PathBuf {
    let dir = inputs::out_dir().join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    child(args, "--prepare", &dir);
    dir
}

/// Times one cold set-up in a fresh child process, so that it leaves no
/// memory behind in this one, and records its first answer's check. Runs
/// after every slice of the timed phase, so the set-ups sample the same
/// stretch of host load as the slices.
pub fn probe_setup(args: &Args, dir: &Path, tally: &mut Tally) -> f64 {
    let line = child(args, "--probe-setup", dir);
    let mut fields = line.trim().splitn(3, ' ');
    let secs: f64 = fields
        .next()
        .and_then(|s| s.parse().ok())
        .expect("set-up seconds");
    tally.record(match fields.next() {
        Some("ok") => Ok(()),
        kind => Err((
            kind.and_then(Failure::from_name).expect("set-up result"),
            fields.next().unwrap_or_default().to_string(),
        )),
    });
    secs
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let (args, mode) = parse_args();
    match mode {
        Mode::Measure => {}
        Mode::Prepare(dir) => {
            inputs::prepare(&args.workload, args.seed, &dir).expect("write workload inputs");
            return;
        }
        Mode::ProbeSetup(dir) => {
            let (secs, result) = match args.workload.as_str() {
                "wire_query" => wire_query::probe_setup(&args, &dir),
                "sbl_full" => sbl_full::probe_setup(&args, &dir),
                "mutate_mix" => mutate_mix::probe_setup(&args, &dir),
                _ => unreachable!("checked by parse_args"),
            };
            match result {
                Ok(()) => println!("{secs} ok"),
                Err((kind, detail)) => println!("{secs} {} {detail}", kind.name()),
            }
            return;
        }
    }
    eprintln!(
        "perfbench: {} seed {} for {} s{}; nproc {}, keystream {}, sweeps {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { " (traced)" } else { "" },
        pram::pool::available_parallelism(),
        rand_chacha::simd::active_path(),
        pram::simd::active_path(),
    );
    let run = match args.workload.as_str() {
        "wire_query" => wire_query::run(&args),
        "sbl_full" => sbl_full::run(&args),
        "mutate_mix" => mutate_mix::run(&args),
        _ => unreachable!("checked by parse_args"),
    };

    for line in &run.report {
        println!("{line}");
    }
    let declared = if args.trace { LAYERS } else { E2E };
    println!(
        "{:<40} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let (value, samples) = run.metrics.get(name).unwrap_or_else(|| {
            assert!(args.trace, "end-to-end metric {name} not measured");
            (0.0, 0)
        });
        println!("{name:<40} {value:>16.6} {unit:<6} {samples:>9}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "ops attempted {}, failed {} ({})",
        run.tally.attempted(),
        run.tally.failed(),
        run.tally.breakdown()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.failed() == 0 && run.tally.attempted() > 0,
        run.tally.attempted(),
        run.tally.failed(),
        fields.join(", ")
    );
}
