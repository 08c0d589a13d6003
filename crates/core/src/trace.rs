//! Instrumentation records produced by the algorithm runs.
//!
//! Every algorithm in this crate returns, next to the independent set itself,
//! a trace describing what happened round by round / stage by stage. The
//! experiment harness consumes these traces to regenerate the paper's
//! quantitative claims (round counts, failure events, degree migration,
//! potential-function decay) without re-instrumenting the algorithms.

/// Per-stage record of a Beame–Luby run (one iteration of the while loop of
/// Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct BlStageStats {
    /// Stage index, starting at 0.
    pub stage: usize,
    /// Alive vertices at the start of the stage, before the vertices in no
    /// live edge are taken.
    pub n_alive: usize,
    /// Edges at the start of the stage.
    pub m: usize,
    /// Dimension at the start of the stage.
    pub dimension: usize,
    /// Maximum normalized degree `Δ(H)` at the start of the stage.
    pub delta: f64,
    /// Marking probability `p = 1/(2^{d+1}Δ)` used in the stage.
    pub p: f64,
    /// Vertices marked by a coin in the stage; the vertices in no live edge,
    /// which the stage takes without one, are not counted.
    pub marked: usize,
    /// Vertices unmarked because they sat in a fully marked edge.
    pub unmarked: usize,
    /// Vertices added to the independent set in the stage: the accepted
    /// marked vertices plus the vertices in no live edge, so the stages'
    /// sum is the size of the set unless the `max_stages` fallback ran.
    pub added: usize,
    /// Dominated edges removed during cleanup.
    pub dominated_removed: usize,
    /// Singleton edges removed during cleanup (their vertex turns red).
    pub singletons_removed: usize,
    /// Per-dimension maximum normalized degrees `Δ_i(H)` at the start of the
    /// stage (index = dimension `i`; empty when potential tracking is off).
    pub deltas_by_dimension: Vec<f64>,
}

/// Full trace of a Beame–Luby run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlTrace {
    /// One record per stage, in order.
    pub stages: Vec<BlStageStats>,
}

impl BlTrace {
    /// Number of stages the run took.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total vertices added across all stages.
    pub fn total_added(&self) -> usize {
        self.stages.iter().map(|s| s.added).sum()
    }

    /// Largest per-stage observed increase of `Δ_j` between consecutive
    /// stages, for each dimension `j` (index by dimension). Only meaningful
    /// when potential tracking was enabled; dimensions never observed yield 0.
    pub fn max_delta_increase_by_dimension(&self) -> Vec<f64> {
        let max_dim = self
            .stages
            .iter()
            .map(|s| s.deltas_by_dimension.len())
            .max()
            .unwrap_or(0);
        let mut out = vec![0.0f64; max_dim];
        for w in self.stages.windows(2) {
            let (a, b) = (&w[0].deltas_by_dimension, &w[1].deltas_by_dimension);
            for (j, slot) in out.iter_mut().enumerate() {
                let before = a.get(j).copied().unwrap_or(0.0);
                let after = b.get(j).copied().unwrap_or(0.0);
                if after > before {
                    *slot = slot.max(after - before);
                }
            }
        }
        out
    }
}

/// What SBL used to finish off the small residual hypergraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TailAlgorithm {
    /// The sequential greedy sweep ("time linear in the number of vertices").
    Greedy,
    /// The Karp–Upfal–Wigderson style parallel search.
    Kuw,
    /// No tail was needed (the while loop consumed every vertex, or BL was
    /// invoked directly because the input dimension was already small).
    #[default]
    None,
}

/// Per-round record of an SBL run (one iteration of the while loop of
/// Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct SblRoundStats {
    /// Round index, starting at 0.
    pub round: usize,
    /// Alive (undecided) vertices at the start of the round.
    pub n_alive: usize,
    /// Active edges at the start of the round.
    pub m: usize,
    /// Sampling probability used.
    pub p: f64,
    /// Vertices sampled into `V'`.
    pub sampled: usize,
    /// Dimension of the sampled sub-hypergraph `H'`.
    pub sample_dimension: usize,
    /// Number of resamples forced by the dimension check (`FAIL` events).
    pub dimension_failures: usize,
    /// Edges of `H'` (fully sampled edges).
    pub sample_edges: usize,
    /// Vertices added to the independent set (blue) this round.
    pub added: usize,
    /// Vertices decided out (red) this round.
    pub rejected: usize,
    /// Edges of `H` discarded because they touched a red vertex.
    pub edges_discarded: usize,
    /// Stages the BL subroutine took this round.
    pub bl_stages: usize,
}

/// Full trace of an SBL run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SblTrace {
    /// One record per outer round.
    pub rounds: Vec<SblRoundStats>,
    /// Which algorithm finished the residual instance.
    pub tail: TailAlgorithm,
    /// Vertices handled by the tail algorithm.
    pub tail_vertices: usize,
    /// `true` when the input dimension was already within the cap and SBL
    /// delegated to a single BL call (the `else` branch of Algorithm 1).
    pub direct_bl: bool,
}

impl SblTrace {
    /// Number of outer rounds.
    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total dimension-check failures across all rounds (event B in the
    /// analysis).
    pub fn total_dimension_failures(&self) -> usize {
        self.rounds.iter().map(|r| r.dimension_failures).sum()
    }

    /// Total BL stages across all rounds — the quantity the paper's running
    /// time is really made of.
    pub fn total_bl_stages(&self) -> usize {
        self.rounds.iter().map(|r| r.bl_stages).sum()
    }

    /// The per-round fraction of alive vertices that got sampled (and hence
    /// decided); compared against `p/2` by experiment E4.
    pub fn per_round_decided_fraction(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| {
                if r.n_alive == 0 {
                    0.0
                } else {
                    (r.added + r.rejected) as f64 / r.n_alive as f64
                }
            })
            .collect()
    }
}

/// Per-round record of the KUW-style baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct KuwRoundStats {
    /// Round index.
    pub round: usize,
    /// Alive vertices at the start of the round.
    pub n_alive: usize,
    /// Active edges at the start of the round.
    pub m: usize,
    /// Candidate subsets tested this round.
    pub candidates_tested: usize,
    /// Size of the independent batch committed this round.
    pub batch_added: usize,
    /// Vertices excluded this round (singleton edges).
    pub excluded: usize,
}

/// Full trace of a KUW-style run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KuwTrace {
    /// One record per round.
    pub rounds: Vec<KuwRoundStats>,
}

impl KuwTrace {
    /// Number of rounds the run took.
    pub fn n_rounds(&self) -> usize {
        self.rounds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(stage: usize, added: usize, deltas: Vec<f64>) -> BlStageStats {
        BlStageStats {
            stage,
            n_alive: 100,
            m: 50,
            dimension: 3,
            delta: 4.0,
            p: 0.01,
            marked: 10,
            unmarked: 2,
            added,
            dominated_removed: 1,
            singletons_removed: 0,
            deltas_by_dimension: deltas,
        }
    }

    #[test]
    fn bl_trace_aggregates() {
        let t = BlTrace {
            stages: vec![
                stage(0, 5, vec![0.0, 0.0, 3.0, 4.0]),
                stage(1, 7, vec![0.0, 0.0, 5.0, 3.0]),
                stage(2, 1, vec![0.0, 0.0, 4.0, 9.0]),
            ],
        };
        assert_eq!(t.n_stages(), 3);
        assert_eq!(t.total_added(), 13);
        let inc = t.max_delta_increase_by_dimension();
        assert_eq!(inc.len(), 4);
        assert_eq!(inc[2], 2.0); // 3 -> 5
        assert_eq!(inc[3], 6.0); // 3 -> 9
        assert_eq!(inc[0], 0.0);
    }

    #[test]
    fn sbl_trace_aggregates() {
        let t = SblTrace {
            rounds: vec![
                SblRoundStats {
                    round: 0,
                    n_alive: 100,
                    m: 40,
                    p: 0.2,
                    sampled: 20,
                    sample_dimension: 2,
                    dimension_failures: 1,
                    sample_edges: 3,
                    added: 15,
                    rejected: 5,
                    edges_discarded: 10,
                    bl_stages: 4,
                },
                SblRoundStats {
                    round: 1,
                    n_alive: 80,
                    m: 30,
                    p: 0.2,
                    sampled: 16,
                    sample_dimension: 3,
                    dimension_failures: 0,
                    sample_edges: 2,
                    added: 10,
                    rejected: 6,
                    edges_discarded: 8,
                    bl_stages: 3,
                },
            ],
            tail: TailAlgorithm::Greedy,
            tail_vertices: 12,
            direct_bl: false,
        };
        assert_eq!(t.n_rounds(), 2);
        assert_eq!(t.total_dimension_failures(), 1);
        assert_eq!(t.total_bl_stages(), 7);
        let fr = t.per_round_decided_fraction();
        assert!((fr[0] - 0.2).abs() < 1e-12);
        assert!((fr[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_traces() {
        assert_eq!(BlTrace::default().n_stages(), 0);
        assert_eq!(
            BlTrace::default().max_delta_increase_by_dimension().len(),
            0
        );
        assert_eq!(SblTrace::default().n_rounds(), 0);
        assert_eq!(SblTrace::default().tail, TailAlgorithm::None);
        assert_eq!(KuwTrace::default().n_rounds(), 0);
    }
}
