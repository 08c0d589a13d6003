//! In-process replays of the layers under one induced request, for the
//! traced run. `BatchRunner::solve` of an induced request marks the query,
//! derives the sub-engine through the resident engine's incidence, compacts
//! it for SBL and permutation, and runs the algorithm; these replays make
//! the same public calls with the same seed, each inside its own span.

use crate::trace::{SpanId, Tracer};
use hypergraph::ActiveHypergraph;
use hypergraph_mis::serve::{Algorithm, SolveRequest, Target};
use mis_core::prelude::*;
use pram::CostTracker;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Scratch kept warm across replays, like a serving shard's workspace.
pub struct InducedReplay {
    marked: Vec<bool>,
    sub: ActiveHypergraph,
    ws: Workspace,
    /// Vertices of each derived sub-engine.
    pub sub_vertices: Vec<f64>,
    /// Live edges of each derived sub-engine.
    pub sub_edges: Vec<f64>,
}

impl InducedReplay {
    pub fn new() -> Self {
        InducedReplay {
            marked: Vec::new(),
            sub: ActiveHypergraph::from_parts(Vec::new(), Vec::new()),
            ws: Workspace::new(),
            sub_vertices: Vec::new(),
            sub_edges: Vec::new(),
        }
    }

    /// Replays the induce/compact/solve layers of induced request `req`
    /// (id `request`) on `engine`, the snapshot it was answered on, as
    /// children of `parent`.
    pub fn run(
        &mut self,
        engine: &ActiveHypergraph,
        req: &SolveRequest,
        parent: SpanId,
        request: u64,
        tracer: &mut Tracer,
    ) {
        let Target::Induced { vertices, .. } = req.target() else {
            panic!("only induced requests have these layers");
        };
        self.marked.resize(engine.id_space(), false);
        for &v in vertices.iter() {
            self.marked[v as usize] = true;
        }
        let (marked, sub) = (&self.marked, &mut self.sub);
        tracer.time("hypergraph.induce", Some(parent), request, || {
            engine.induced_by_into(marked, vertices, sub)
        });
        for &v in vertices.iter() {
            self.marked[v as usize] = false;
        }
        self.sub_vertices.push(self.sub.n_alive() as f64);
        self.sub_edges.push(self.sub.n_edges() as f64);

        let mut rng = ChaCha8Rng::seed_from_u64(req.seed());
        let mut cost = CostTracker::new();
        let (sub, ws) = (&mut self.sub, &mut self.ws);
        let solve = Some(parent);
        match req.algorithm() {
            Algorithm::Bl(cfg) => {
                tracer.time("mis_core.solve", solve, request, || {
                    mis_core::bl::bl_on_active_in(sub, &mut rng, cfg, &mut cost, ws)
                });
            }
            Algorithm::Kuw => {
                tracer.time("mis_core.solve", solve, request, || {
                    mis_core::kuw::kuw_on_active_in(sub, &mut rng, &mut cost, ws)
                });
            }
            Algorithm::Greedy => {
                tracer.time("mis_core.solve", solve, request, || {
                    greedy_on_active_in(&*sub, &mut cost, ws)
                });
            }
            Algorithm::Sbl(cfg) => {
                let ((hc, _), _) =
                    tracer.time("hypergraph.compact", solve, request, || sub.compact());
                tracer.time("mis_core.sbl", solve, request, || {
                    sbl_mis_in(&hc, &mut rng, cfg, ws)
                });
            }
            Algorithm::Permutation => {
                let ((hc, _), _) =
                    tracer.time("hypergraph.compact", solve, request, || sub.compact());
                tracer.time("mis_core.solve", solve, request, || {
                    permutation_mis_in(&hc, &mut rng, ws)
                });
            }
            Algorithm::Linear => unreachable!("no workload sends Linear requests"),
        }
    }
}
