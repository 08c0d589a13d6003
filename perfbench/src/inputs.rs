//! Workload inputs. Every graph, request list and edit batch is a pure
//! function of the `--seed` argument; the program under test only ever sees
//! the generated files and requests.
//!
//! The heavy part (graph generation, the HGCSR/text/WAL files, and the
//! reference answers of `wire_query`) runs in a child process started with
//! `--prepare`, so none of its memory shows in the measured process's peak
//! RSS.

use hypergraph::edit::GraphEdit;
use hypergraph::{generate, Hypergraph};
use hypergraph_mis::batch::BatchRunner;
use hypergraph_mis::serve::{
    Algorithm, GraphId, ResidentRegistry, RetentionPolicy, SolveOutcome, SolveRequest, TenantId,
};
use mis_core::{BlConfig, SblConfig};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// `wire_query`: vertices of the 3-uniform resident graph. At 4x this size
/// the induced path's O(id space) work saturates the single shard worker,
/// so throughput follows that memory-bound path and, with it, the memory
/// contention of other tenants (ten-run spreads of 19-25% on a shared
/// 2-vCPU VM); at this size the front end sets the figures, as the workload
/// intends.
pub const WIRE_N: usize = 65_536;
/// `wire_query`: edges (m = 2n).
pub const WIRE_M: usize = 2 * WIRE_N;
/// `wire_query`: distinct requests, replayed round after round.
pub const WIRE_REQUESTS: usize = 1024;
/// `sbl_full`: vertices of the paper-regime instance.
pub const SBL_N: usize = 65_536;
/// `sbl_full`: edge count (the paper-regime generator's floor).
pub const SBL_M: usize = 8192;
/// `sbl_full`: largest edge.
pub const SBL_MAX_EDGE: usize = 16;
/// `sbl_full`: distinct solve seeds, cycled.
pub const SBL_SEEDS: usize = 64;
/// `mutate_mix`: vertices of the 3-uniform resident graph.
pub const MIX_N: usize = 65_536;
/// `mutate_mix`: edges (m = 2n).
pub const MIX_M: usize = 2 * MIX_N;
/// `mutate_mix`: snapshots kept by the registry's retention policy.
pub const MIX_KEEP_LAST: u64 = 4;
/// `mutate_mix`: edit batches in the WAL the registry is restored from.
pub const MIX_HISTORY: u64 = 8;
/// `mutate_mix`: edges removed (and re-added) per batch.
pub const MIX_HALF_BATCH: usize = 8;
/// `mutate_mix`: edges the batches cycle through.
pub const MIX_POOL: usize = 4096;
/// `mutate_mix`: distinct read queries, cycled.
pub const MIX_QUERIES: usize = 256;
/// Induced-query sizes: bounded Pareto on `QUERY_MIN..=QUERY_MAX`.
const QUERY_MIN: usize = 32;
const QUERY_MAX: usize = 1024;
const QUERY_ALPHA: f64 = 1.1;
/// `wire_query` tenants; tenant 0 is hot.
const TENANTS: u64 = 4;
const HOT_SHARE: f64 = 0.6;

/// Where runs keep their generated files and span dumps.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// An independent generator stream per input kind.
fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `count` induced-query sizes from the Pareto tail clamped at
/// `QUERY_MAX`: the quantiles at the midpoints of `count` equal strata, so
/// every seed gets the same sizes and only their order and vertices vary.
fn pareto_sizes(count: usize) -> Vec<usize> {
    (0..count)
        .map(|i| {
            let u = (i as f64 + 0.5) / count as f64;
            let size = QUERY_MIN as f64 * (1.0 - u).powf(-1.0 / QUERY_ALPHA);
            (size.min(QUERY_MAX as f64) as usize).clamp(QUERY_MIN, QUERY_MAX)
        })
        .collect()
}

fn shuffle<T>(rng: &mut ChaCha8Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `k` distinct vertices of `0..n`, ascending.
fn random_query(rng: &mut ChaCha8Rng, n: usize, k: usize) -> Vec<u32> {
    let mut set = BTreeSet::new();
    while set.len() < k {
        set.insert(rng.gen_range(0..n as u32));
    }
    set.into_iter().collect()
}

/// One induced query, independent of the registry it will be sent to.
#[derive(Debug)]
pub struct QuerySpec {
    pub tenant: u64,
    pub algorithm: Algorithm,
    pub seed: u64,
    pub vertices: Arc<Vec<u32>>,
}

impl QuerySpec {
    /// The request against resident graph `id`, pinned to the latest epoch.
    pub fn request(&self, id: GraphId) -> SolveRequest {
        SolveRequest::induced(id, Arc::clone(&self.vertices))
            .algorithm(self.algorithm.clone())
            .seed(self.seed)
            .tenant(TenantId(self.tenant))
            .build()
    }
}

/// `wire_query`'s request list: Pareto sizes, 4 tenants with a 60% hot
/// one, and BL 50% / SBL 20% / greedy 10% / KUW 10% / permutation 10%.
/// The shares are exact and each algorithm gets the full spread of sizes,
/// so seeds differ only in request order, vertices and solve seeds.
pub fn wire_queries(seed: u64) -> Vec<QuerySpec> {
    let tenth = WIRE_REQUESTS / 10;
    let mix = [
        (
            WIRE_REQUESTS - 5 * tenth,
            Algorithm::Bl(BlConfig::default()),
        ),
        (2 * tenth, Algorithm::Sbl(SblConfig::default())),
        (tenth, Algorithm::Greedy),
        (tenth, Algorithm::Kuw),
        (tenth, Algorithm::Permutation),
    ];
    let mut slots: Vec<(Algorithm, usize)> = mix
        .iter()
        .flat_map(|(count, a)| pareto_sizes(*count).into_iter().map(|s| (a.clone(), s)))
        .collect();
    let hot = (WIRE_REQUESTS as f64 * HOT_SHARE) as usize;
    let mut tenants: Vec<u64> = (0..WIRE_REQUESTS)
        .map(|i| match i.checked_sub(hot) {
            None => 0,
            Some(cold) => 1 + cold as u64 % (TENANTS - 1),
        })
        .collect();
    let mut rng = rng(seed, 0x7769_7265);
    shuffle(&mut rng, &mut slots);
    shuffle(&mut rng, &mut tenants);
    slots
        .into_iter()
        .zip(tenants)
        .map(|((algorithm, size), tenant)| QuerySpec {
            tenant,
            algorithm,
            seed: rng.next_u64(),
            vertices: Arc::new(random_query(&mut rng, WIRE_N, size)),
        })
        .collect()
}

/// `mutate_mix`'s read list: BL induced queries with Pareto sizes.
pub fn mix_queries(seed: u64) -> Vec<QuerySpec> {
    let mut rng = rng(seed, 0x6D69_7871);
    let mut sizes = pareto_sizes(MIX_QUERIES);
    shuffle(&mut rng, &mut sizes);
    sizes
        .into_iter()
        .map(|size| QuerySpec {
            tenant: 0,
            algorithm: Algorithm::Bl(BlConfig::default()),
            seed: rng.next_u64(),
            vertices: Arc::new(random_query(&mut rng, MIX_N, size)),
        })
        .collect()
}

/// `sbl_full`'s solve seeds, cycled.
pub fn sbl_seeds(seed: u64) -> Vec<u64> {
    let mut rng = rng(seed, 0x7362_6c73);
    (0..SBL_SEEDS).map(|_| rng.next_u64()).collect()
}

fn wire_graph(seed: u64) -> Hypergraph {
    generate::d_uniform(&mut rng(seed, 1), WIRE_N, WIRE_M, 3)
}

fn sbl_graph(seed: u64) -> Hypergraph {
    generate::paper_regime(&mut rng(seed, 2), SBL_N, SBL_M, SBL_MAX_EDGE)
}

fn mix_graph(seed: u64) -> Hypergraph {
    generate::d_uniform(&mut rng(seed, 3), MIX_N, MIX_M, 3)
}

/// `mutate_mix`'s edit batches. Batch `k` removes block `k mod B` of a pool
/// of distinct base-graph edges and re-adds block `k - 1`, which batch
/// `k - 1` removed; batch 0 only removes. Every batch is therefore valid,
/// and from batch 1 on the graph keeps `m - 8` edges.
#[derive(Debug)]
pub struct EditSchedule {
    pool: Vec<Vec<u32>>,
}

impl EditSchedule {
    fn blocks(&self) -> u64 {
        (self.pool.len() / MIX_HALF_BATCH) as u64
    }

    fn block(&self, k: u64) -> &[Vec<u32>] {
        let b = (k % self.blocks()) as usize * MIX_HALF_BATCH;
        &self.pool[b..b + MIX_HALF_BATCH]
    }

    /// Batch `k` (0-based across the WAL history and the live run).
    pub fn batch(&self, k: u64) -> Vec<GraphEdit> {
        let mut edits: Vec<GraphEdit> = self
            .block(k)
            .iter()
            .map(|e| GraphEdit::RemoveEdge(e.clone()))
            .collect();
        if k > 0 {
            edits.extend(
                self.block(k - 1)
                    .iter()
                    .map(|e| GraphEdit::AddEdge(e.clone())),
            );
        }
        edits
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let text: String = self
            .pool
            .iter()
            .map(|e| {
                let vs: Vec<String> = e.iter().map(u32::to_string).collect();
                vs.join(" ") + "\n"
            })
            .collect();
        std::fs::write(path, text)
    }

    /// Reads the pool written by `--prepare`.
    pub fn read(path: &Path) -> std::io::Result<EditSchedule> {
        let text = std::fs::read_to_string(path)?;
        let pool = text
            .lines()
            .map(|l| {
                l.split(' ')
                    .map(|v| v.parse().expect("pool vertex id"))
                    .collect()
            })
            .collect();
        Ok(EditSchedule { pool })
    }
}

fn edit_schedule(seed: u64, base: &Hypergraph, size: usize) -> EditSchedule {
    let mut rng = rng(seed, 0x706f_6f6c);
    let mut picked = BTreeSet::new();
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let e = rng.gen_range(0..base.n_edges() as u32);
        if picked.insert(e) {
            pool.push(base.edge(e).to_vec());
        }
    }
    EditSchedule { pool }
}

/// FNV-1a over the outcome's deterministic payload (its `Debug` form):
/// equal digests across processes mean equal fingerprints.
pub fn digest(outcome: &SolveOutcome) -> u64 {
    let text = format!("{:?}", outcome.fingerprint());
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// File names inside a run directory.
pub const WIRE_SNAPSHOT: &str = "graph.hgcsr";
pub const WIRE_REFERENCE: &str = "reference.txt";
pub const SBL_TEXT: &str = "graph.txt";
pub const MIX_WAL: &str = "history.wal";
pub const MIX_POOL_FILE: &str = "pool.txt";

/// Writes one workload's input files into `dir` (the `--prepare` step).
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    match workload {
        "wire_query" => {
            let graph = wire_graph(seed);
            hypergraph::io::write_csr(&graph, dir.join(WIRE_SNAPSHOT))?;
            // Reference answers from an owned in-process copy.
            let mut registry = ResidentRegistry::new();
            let id = registry.register(graph);
            let mut runner = BatchRunner::new();
            let digests: String = wire_queries(seed)
                .iter()
                .map(|q| {
                    format!(
                        "{:016x}\n",
                        digest(&runner.solve(&registry, &q.request(id)))
                    )
                })
                .collect();
            std::fs::write(dir.join(WIRE_REFERENCE), digests)
        }
        "sbl_full" => hypergraph::io::write_file(&sbl_graph(seed), dir.join(SBL_TEXT)),
        "mutate_mix" => {
            let graph = mix_graph(seed);
            let schedule = edit_schedule(seed, &graph, MIX_POOL);
            schedule.write(&dir.join(MIX_POOL_FILE))?;
            let mut registry =
                ResidentRegistry::with_retention(RetentionPolicy::keep_last(MIX_KEEP_LAST));
            let id = registry.register(graph);
            for k in 0..MIX_HISTORY {
                registry
                    .apply(id, &schedule.batch(k))
                    .expect("history batches are valid by construction");
            }
            registry.persist(id, dir.join(MIX_WAL))
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Reads the reference digests written by `--prepare`.
pub fn read_reference(path: &Path) -> std::io::Result<Vec<u64>> {
    Ok(std::fs::read_to_string(path)?
        .lines()
        .map(|l| u64::from_str_radix(l, 16).expect("reference digest"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = wire_queries(3);
        let b = wire_queries(3);
        let c = wire_queries(4);
        assert_eq!(a.len(), WIRE_REQUESTS);
        assert!(a.iter().zip(&b).all(|(x, y)| x.vertices == y.vertices
            && x.seed == y.seed
            && x.algorithm == y.algorithm
            && x.tenant == y.tenant));
        assert!(a.iter().zip(&c).any(|(x, y)| x.vertices != y.vertices));
        assert_eq!(sbl_seeds(9), sbl_seeds(9));
        // Seeds only reorder the same (size, algorithm) pairs and tenants.
        let profile = |qs: &[QuerySpec]| {
            let mut p: Vec<(usize, &str)> = qs
                .iter()
                .map(|q| (q.vertices.len(), q.algorithm.name()))
                .collect();
            p.sort_unstable();
            p
        };
        assert_eq!(profile(&a), profile(&c));
        let hot = |qs: &[QuerySpec]| qs.iter().filter(|q| q.tenant == 0).count();
        assert_eq!(hot(&a), (WIRE_REQUESTS as f64 * HOT_SHARE) as usize);
        assert_eq!(hot(&a), hot(&c));
        for q in a.iter().chain(&mix_queries(3)) {
            assert!((QUERY_MIN..=QUERY_MAX).contains(&q.vertices.len()));
            assert!(q.vertices.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn edit_batches_stay_valid_through_a_full_pool_cycle() {
        let graph = generate::d_uniform(&mut rng(5, 3), 512, 1024, 3);
        let schedule = edit_schedule(5, &graph, 64);
        let mut g = graph.clone();
        // Two full passes over the pool's blocks, as a long run would make.
        for k in 0..2 * schedule.blocks() + 3 {
            let batch = schedule.batch(k);
            assert_eq!(batch.len(), if k == 0 { 8 } else { 16 });
            g = hypergraph::edit::apply_edits(&g, &batch).expect("valid batch");
            assert_eq!(g.n_edges(), graph.n_edges() - MIX_HALF_BATCH);
        }
    }
}
