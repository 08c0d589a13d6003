//! Differential suite for the flat [`ActiveHypergraph`] engine: random edit
//! scripts of decide/trim/discard operations are replayed against both the
//! flat engine and the pre-flat reference engine
//! ([`ReferenceActiveHypergraph`]), and every observable — alive vertices,
//! live edges, degrees, dimension, operation return values — must match after
//! every step, for every generator family.
//!
//! Requires the `reference-engine` feature (on by default).

#![cfg(feature = "reference-engine")]

use hypergraph::degree::{max_vertex_degree, DegreeTable};
use hypergraph::prelude::*;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One step of an edit script, in the vocabulary of the round-based
/// algorithms.
#[derive(Debug, Clone)]
enum Op {
    /// Decide a vertex set blue: kill it and trim it out of every edge.
    DecideBlue(Vec<u32>),
    /// Decide a vertex set red: kill it and discard every edge touching it.
    DecideRed(Vec<u32>),
    /// Drop edges strictly containing another live edge.
    RemoveDominated,
    /// Drop singleton edges together with their vertex.
    RemoveSingletons,
    /// Kill the alive vertices in no live edge (BL's coinless step).
    KillIsolated,
    /// Query the independence oracle (no mutation).
    Oracle(Vec<u32>),
    /// Restrict both engines to the sub-hypergraph induced by a mark set.
    Induce(Vec<u32>),
}

fn flags(id_space: usize, vs: &[u32]) -> Vec<bool> {
    let mut f = vec![false; id_space];
    for &v in vs {
        f[v as usize] = true;
    }
    f
}

/// Asserts every observable of the two engines matches.
fn assert_same_state(flat: &ActiveHypergraph, reference: &ReferenceActiveHypergraph, ctx: &str) {
    assert_eq!(
        flat.n_alive(),
        ActiveEngine::n_alive(reference),
        "{ctx}: n_alive"
    );
    assert_eq!(
        flat.alive_vertices(),
        ActiveEngine::alive_vertices(reference),
        "{ctx}: alive vertices"
    );
    assert_eq!(
        flat.live_edges_owned(),
        ActiveEngine::live_edges_owned(reference),
        "{ctx}: live edges"
    );
    assert_eq!(
        HypergraphView::dimension(flat),
        HypergraphView::dimension(reference),
        "{ctx}: dimension"
    );
    assert_eq!(
        flat.total_live_size(),
        ActiveEngine::total_live_size(reference),
        "{ctx}: total live size"
    );
    assert_eq!(
        max_vertex_degree(flat),
        max_vertex_degree(reference),
        "{ctx}: max vertex degree"
    );
    flat.debug_validate();
    reference.debug_validate();
    // Normalized degrees (the quantity BL's marking probability is computed
    // from) must agree whenever the dimension admits the subset enumeration.
    if HypergraphView::dimension(flat) <= 12 {
        let df = DegreeTable::build(flat).delta();
        let dr = DegreeTable::build(reference).delta();
        assert!(
            (df - dr).abs() < 1e-12,
            "{ctx}: delta mismatch {df} vs {dr}"
        );
    }
    // Compaction must agree as well (same relabelling, same edges).
    let (hf, mf) = ActiveEngine::compact(flat);
    let (hr, mr) = ActiveEngine::compact(reference);
    assert_eq!(mf, mr, "{ctx}: compact mapping");
    assert_eq!(hf, hr, "{ctx}: compacted hypergraph");
}

/// Replays `ops` against both engines, checking state equality after every
/// step. Ops reference arbitrary vertex ids; they are filtered to the id
/// space on the fly.
///
/// The flat engine's invariants are additionally re-validated immediately
/// after every mutating call (debug builds), *before* any state comparison,
/// so invariant breakage localizes to the op that caused it instead of
/// surfacing as a downstream observable mismatch.
///
/// `Induce` ops run through [`ActiveHypergraph::induced_by_into`] on a
/// *reused* spare engine (swapped with the active one), so the dirty-reuse
/// path — the one the SBL round loop exercises — is differentially tested
/// against the reference engine's plain `induced_by` after every kind of
/// preceding mutation.
fn replay(h: &Hypergraph, ops: &[Op]) {
    let mut flat = ActiveHypergraph::from_hypergraph(h);
    let mut spare = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
    let mut reference = ReferenceActiveHypergraph::from_hypergraph(h);
    assert_same_state(&flat, &reference, "initial");
    let id_space = h.n_vertices();

    #[cfg(debug_assertions)]
    let validate = |flat: &ActiveHypergraph, ctx: &str| {
        let _ = ctx;
        flat.debug_validate();
    };
    #[cfg(not(debug_assertions))]
    let validate = |_flat: &ActiveHypergraph, _ctx: &str| {};

    for (i, op) in ops.iter().enumerate() {
        let ctx = format!("op {i} = {op:?}");
        match op {
            Op::DecideBlue(vs) => {
                let vs: Vec<u32> = vs
                    .iter()
                    .copied()
                    .filter(|&v| (v as usize) < id_space)
                    .collect();
                let f = flags(id_space, &vs);
                // (No validation between the kill and the shrink: edges
                // legitimately still mention the killed vertices there.)
                flat.kill_vertices(&vs);
                ActiveEngine::kill_vertices(&mut reference, &vs);
                assert_eq!(
                    flat.shrink_edges_by(&f, &vs),
                    ActiveEngine::shrink_edges_by(&mut reference, &f, &vs),
                    "{ctx}: emptied count"
                );
                validate(&flat, &ctx);
            }
            Op::DecideRed(vs) => {
                let vs: Vec<u32> = vs
                    .iter()
                    .copied()
                    .filter(|&v| (v as usize) < id_space)
                    .collect();
                let f = flags(id_space, &vs);
                assert_eq!(
                    flat.discard_edges_touching(&f, &vs),
                    ActiveEngine::discard_edges_touching(&mut reference, &f, &vs),
                    "{ctx}: discard count"
                );
                validate(&flat, &ctx);
                flat.kill_vertices(&vs);
                validate(&flat, &ctx);
                ActiveEngine::kill_vertices(&mut reference, &vs);
            }
            Op::RemoveDominated => {
                assert_eq!(
                    flat.remove_dominated_edges(),
                    ActiveEngine::remove_dominated_edges(&mut reference),
                    "{ctx}: dominated count"
                );
                validate(&flat, &ctx);
            }
            Op::RemoveSingletons => {
                assert_eq!(
                    flat.remove_singleton_edges(),
                    ActiveEngine::remove_singleton_edges(&mut reference),
                    "{ctx}: killed vertices"
                );
                validate(&flat, &ctx);
            }
            Op::KillIsolated => {
                assert_eq!(
                    kill_isolated(&mut flat),
                    kill_isolated(&mut reference),
                    "{ctx}: killed isolated vertices"
                );
                validate(&flat, &ctx);
            }
            Op::Oracle(vs) => {
                let vs: Vec<u32> = vs
                    .iter()
                    .copied()
                    .filter(|&v| (v as usize) < id_space)
                    .collect();
                assert_eq!(
                    flat.contains_live_edge_within(&vs),
                    ActiveEngine::contains_live_edge_within(&mut reference, &vs),
                    "{ctx}: oracle answer"
                );
            }
            Op::Induce(vs) => {
                let vs: Vec<u32> = vs
                    .iter()
                    .copied()
                    .filter(|&v| (v as usize) < id_space)
                    .collect();
                let f = flags(id_space, &vs);
                // The allocating and the in-place derivations must agree
                // with each other as well as with the reference.
                let fresh = flat.induced_by(&f);
                flat.induced_by_into(&f, &vs, &mut spare);
                assert_eq!(
                    fresh.live_edges_owned(),
                    spare.live_edges_owned(),
                    "{ctx}: induced_by vs induced_by_into edges"
                );
                assert_eq!(
                    fresh.alive_vertices(),
                    spare.alive_vertices(),
                    "{ctx}: induced_by vs induced_by_into alive set"
                );
                std::mem::swap(&mut flat, &mut spare);
                validate(&flat, &ctx);
                reference = ActiveEngine::induced_by(&reference, &f);
            }
        }
        assert_same_state(&flat, &reference, &ctx);
    }
}

/// Runs [`ActiveEngine::kill_isolated_vertices`] into a list that already
/// holds a sentinel (the call appends), checking that the returned count is
/// what it appended, and returns the appended vertices.
fn kill_isolated<E: ActiveEngine>(engine: &mut E) -> Vec<u32> {
    let mut out = vec![u32::MAX];
    let n = engine.kill_isolated_vertices(&mut out);
    assert_eq!(out.len(), n + 1, "count returned vs vertices appended");
    assert_eq!(out.remove(0), u32::MAX, "the call kept what out held");
    assert!(out.iter().all(|&v| !engine.is_alive(v)), "killed");
    out
}

/// A random edit script in the shape the algorithms actually produce: blue
/// batches are trimmed, red batches are discarded, cleanup ops interleave.
fn random_script<R: Rng>(rng: &mut R, id_space: usize, len: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(len);
    let all: Vec<u32> = (0..id_space as u32).collect();
    let subset = |rng: &mut R, max: usize| -> Vec<u32> {
        let k = rng.gen_range(0..=max.min(id_space));
        let mut pool = all.clone();
        pool.shuffle(rng);
        pool.truncate(k);
        pool.sort_unstable();
        pool
    };
    for _ in 0..len {
        let op = match rng.gen_range(0..7u32) {
            0 => Op::DecideBlue(subset(rng, 4)),
            1 => Op::DecideRed(subset(rng, 4)),
            2 => Op::RemoveDominated,
            3 => Op::RemoveSingletons,
            4 => Op::Oracle(subset(rng, 8)),
            5 => Op::KillIsolated,
            _ => Op::Induce(subset(rng, id_space)),
        };
        ops.push(op);
    }
    ops
}

/// Every generator family × random edit scripts.
#[test]
fn edit_scripts_across_generator_families() {
    for seed in 0..4u64 {
        let mut gen_rng = ChaCha8Rng::seed_from_u64(0xD1FF + seed);
        let families: Vec<(&str, Hypergraph)> = vec![
            ("d_uniform", generate::d_uniform(&mut gen_rng, 40, 80, 3)),
            (
                "mixed_dimension",
                generate::mixed_dimension(&mut gen_rng, 40, 70, &[2, 3, 4, 5]),
            ),
            ("linear", generate::linear(&mut gen_rng, 40, 30, 3)),
            (
                "paper_regime",
                generate::paper_regime(&mut gen_rng, 60, 20, 10),
            ),
            (
                "planted",
                generate::planted_independent(&mut gen_rng, 40, 80, 3, 12),
            ),
            ("sunflower", generate::special::sunflower(6, 4, 2)),
            (
                "giant_edge_with_stars",
                generate::special::giant_edge_with_stars(12, 8),
            ),
            ("all_singletons", generate::special::all_singletons(9)),
            ("complete_graph", generate::special::complete_graph(9)),
            (
                "edgeless",
                hypergraph::builder::hypergraph_from_edges::<Vec<u32>>(7, vec![]),
            ),
        ];
        for (family, h) in families {
            let mut rng = ChaCha8Rng::seed_from_u64(0x5C81 + seed);
            let ops = random_script(&mut rng, h.n_vertices(), 12);
            replay(&h, &ops);
            let _ = family;
        }
    }
}

/// Singleton cascades and duplicate live sets: hand-picked worst cases for
/// the frontier/status bookkeeping.
#[test]
fn handpicked_scripts() {
    // Duplicate live sets after trimming.
    let h = hypergraph::builder::hypergraph_from_edges(
        6,
        vec![vec![0, 1, 2], vec![0, 1, 3], vec![2, 3], vec![4, 5]],
    );
    replay(
        &h,
        &[
            Op::DecideBlue(vec![2, 3]),
            Op::RemoveDominated,
            Op::RemoveSingletons,
            Op::Oracle(vec![0, 1]),
        ],
    );

    // A singleton sweep that discards almost everything.
    let h = hypergraph::builder::hypergraph_from_edges(
        5,
        vec![vec![0], vec![0, 1], vec![0, 1, 2], vec![3, 4]],
    );
    replay(
        &h,
        &[
            Op::RemoveSingletons,
            Op::RemoveDominated,
            Op::DecideRed(vec![3]),
        ],
    );

    // Induce twice, then keep editing the nested sub-instance.
    let h = generate::special::sunflower(5, 4, 1);
    replay(
        &h,
        &[
            Op::Induce((0..12).collect()),
            Op::DecideBlue(vec![0]),
            Op::Induce((0..8).collect()),
            Op::RemoveSingletons,
            Op::RemoveDominated,
        ],
    );

    // Vertices that start isolated, and ones a red decision isolates; then
    // a sweep with nothing left to take, and one on an edgeless engine.
    let h = hypergraph::builder::hypergraph_from_edges(
        9,
        vec![vec![1, 2, 3], vec![3, 4], vec![4, 6, 7]],
    );
    replay(
        &h,
        &[
            Op::KillIsolated,
            Op::DecideRed(vec![3]),
            Op::KillIsolated,
            Op::KillIsolated,
            Op::DecideRed(vec![7]),
            Op::KillIsolated,
        ],
    );
}

/// `induced_by_into` (compact incidence, buffer reuse) and `reset_induced`
/// (the same, read straight from the `Hypergraph`) vs `induced_by`
/// (allocating full scan) vs the reference engine, across every generator
/// family — including the *behaviour* of the derived sub-engines under a
/// follow-up edit script, which is what exercises the compact incidence
/// index the subs carry.
#[test]
fn induced_by_into_agrees_across_generator_families() {
    let mut spare = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
    let mut reset_spare = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
    for seed in 0..4u64 {
        let mut gen_rng = ChaCha8Rng::seed_from_u64(0x1D0C + seed);
        let families: Vec<Hypergraph> = vec![
            generate::d_uniform(&mut gen_rng, 40, 80, 3),
            generate::mixed_dimension(&mut gen_rng, 40, 70, &[2, 3, 4, 5]),
            generate::linear(&mut gen_rng, 40, 30, 3),
            generate::paper_regime(&mut gen_rng, 60, 20, 10),
            generate::planted_independent(&mut gen_rng, 40, 80, 3, 12),
            generate::special::sunflower(6, 4, 2),
            generate::special::giant_edge_with_stars(12, 8),
            generate::special::all_singletons(9),
            generate::special::complete_graph(9),
            hypergraph::builder::hypergraph_from_edges::<Vec<u32>>(7, vec![]),
        ];
        for h in families {
            let flat = ActiveHypergraph::from_hypergraph(&h);
            let reference = ReferenceActiveHypergraph::from_hypergraph(&h);
            let mut rng = ChaCha8Rng::seed_from_u64(0xF00D + seed);
            // Three mark densities: sparse (incidence-directed), dense
            // (falls back to the scan), empty.
            for density in [0.15f64, 0.9, 0.0] {
                let mut vs = Vec::new();
                for v in 0..h.n_vertices() as u32 {
                    if rng.gen_bool(density) {
                        vs.push(v);
                    }
                }
                let f = flags(h.n_vertices(), &vs);
                let scan_sub = flat.induced_by(&f);
                flat.induced_by_into(&f, &vs, &mut spare);
                reset_spare.reset_induced(&h, &vs);
                let ref_sub = ActiveEngine::induced_by(&reference, &f);
                assert_same_state(&spare, &ref_sub, "induced (into vs reference)");
                assert_same_state(&reset_spare, &ref_sub, "induced (reset vs reference)");
                assert_same_state(&scan_sub, &ref_sub, "induced (scan vs reference)");
                // Drive all four subs through the same follow-up script;
                // the compact-incidence subs must keep agreeing.
                let mut a = scan_sub;
                let empty = || ActiveHypergraph::from_parts(Vec::new(), Vec::new());
                let mut b = std::mem::replace(&mut spare, empty());
                let mut c = std::mem::replace(&mut reset_spare, empty());
                let mut r = ref_sub;
                let ops = random_script(&mut rng, h.n_vertices(), 6);
                for (i, op) in ops.iter().enumerate() {
                    let ctx = format!("sub op {i} = {op:?}");
                    let (mut r2, mut r3) = (r.clone(), r.clone());
                    apply_op(&mut a, &mut r, op, h.n_vertices());
                    apply_op(&mut b, &mut r2, op, h.n_vertices());
                    apply_op(&mut c, &mut r3, op, h.n_vertices());
                    assert_same_state(&a, &r, &ctx);
                    assert_same_state(&b, &r, &ctx);
                    assert_same_state(&c, &r, &ctx);
                }
                spare = b;
                reset_spare = c;
            }
        }
    }
}

/// Applies one (non-induce) op to a flat + reference engine pair without
/// asserting; used by the three-way induced-sub comparison.
fn apply_op(
    flat: &mut ActiveHypergraph,
    reference: &mut ReferenceActiveHypergraph,
    op: &Op,
    id_space: usize,
) {
    match op {
        Op::DecideBlue(vs) => {
            let vs: Vec<u32> = vs
                .iter()
                .copied()
                .filter(|&v| (v as usize) < id_space)
                .collect();
            let f = flags(id_space, &vs);
            flat.kill_vertices(&vs);
            ActiveEngine::kill_vertices(reference, &vs);
            assert_eq!(
                flat.shrink_edges_by(&f, &vs),
                ActiveEngine::shrink_edges_by(reference, &f, &vs)
            );
        }
        Op::DecideRed(vs) => {
            let vs: Vec<u32> = vs
                .iter()
                .copied()
                .filter(|&v| (v as usize) < id_space)
                .collect();
            let f = flags(id_space, &vs);
            assert_eq!(
                flat.discard_edges_touching(&f, &vs),
                ActiveEngine::discard_edges_touching(reference, &f, &vs)
            );
            flat.kill_vertices(&vs);
            ActiveEngine::kill_vertices(reference, &vs);
        }
        Op::RemoveDominated => {
            assert_eq!(
                flat.remove_dominated_edges(),
                ActiveEngine::remove_dominated_edges(reference)
            );
        }
        Op::RemoveSingletons => {
            assert_eq!(
                flat.remove_singleton_edges(),
                ActiveEngine::remove_singleton_edges(reference)
            );
        }
        Op::KillIsolated => {
            assert_eq!(kill_isolated(flat), kill_isolated(reference));
        }
        Op::Oracle(vs) => {
            let vs: Vec<u32> = vs
                .iter()
                .copied()
                .filter(|&v| (v as usize) < id_space)
                .collect();
            assert_eq!(
                flat.contains_live_edge_within(&vs),
                ActiveEngine::contains_live_edge_within(reference, &vs)
            );
        }
        Op::Induce(vs) => {
            let vs: Vec<u32> = vs
                .iter()
                .copied()
                .filter(|&v| (v as usize) < id_space)
                .collect();
            let f = flags(id_space, &vs);
            *flat = flat.induced_by(&f);
            *reference = ActiveEngine::induced_by(reference, &f);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary hypergraphs × arbitrary scripts: the engines agree on every
    /// observable after every operation.
    #[test]
    fn arbitrary_scripts_agree(
        edges in prop::collection::vec(
            prop::collection::btree_set(0u32..20, 1..=5usize),
            0..30,
        ),
        script_seed in any::<u64>(),
        script_len in 1usize..16,
    ) {
        let edges: Vec<Vec<u32>> = edges.into_iter().map(|s| s.into_iter().collect()).collect();
        let h = hypergraph::builder::hypergraph_from_edges(20, edges);
        let mut rng = ChaCha8Rng::seed_from_u64(script_seed);
        let ops = random_script(&mut rng, h.n_vertices(), script_len);
        replay(&h, &ops);
    }

    /// `induced_by_into` and `reset_induced` into dirty reused engines match
    /// `induced_by` and the reference for arbitrary hypergraphs and
    /// arbitrary mark sets.
    #[test]
    fn induced_by_into_matches_on_arbitrary_instances(
        edges in prop::collection::vec(
            prop::collection::btree_set(0u32..24, 1..=5usize),
            0..40,
        ),
        marks in prop::collection::btree_set(0u32..24, 0..=24usize),
        dirty_marks in prop::collection::btree_set(0u32..24, 0..=12usize),
        shuffle_seed in any::<u64>(),
    ) {
        let edges: Vec<Vec<u32>> = edges.into_iter().map(|s| s.into_iter().collect()).collect();
        let h = hypergraph::builder::hypergraph_from_edges(24, edges);
        let flat = ActiveHypergraph::from_hypergraph(&h);
        let reference = ReferenceActiveHypergraph::from_hypergraph(&h);
        // Dirty the reused engine with an unrelated derivation first.
        let dirty: Vec<u32> = dirty_marks.into_iter().collect();
        let mut out = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
        flat.induced_by_into(&flags(24, &dirty), &dirty, &mut out);
        // Now derive the instance under test into the same engine.
        let vs: Vec<u32> = marks.into_iter().collect();
        let f = flags(24, &vs);
        flat.induced_by_into(&f, &vs, &mut out);
        let scan = flat.induced_by(&f);
        let ref_sub = ActiveEngine::induced_by(&reference, &f);
        assert_same_state(&out, &ref_sub, "into vs reference");
        assert_same_state(&scan, &ref_sub, "scan vs reference");
        // A full engine with killed vertices, reset in place to the same
        // sub-instance from an unsorted vertex list.
        let mut reset = ActiveHypergraph::from_hypergraph(&h);
        reset.kill_vertices(&dirty);
        let mut shuffled = vs.clone();
        shuffled.shuffle(&mut ChaCha8Rng::seed_from_u64(shuffle_seed));
        reset.reset_induced(&h, &shuffled);
        assert_same_state(&reset, &ref_sub, "reset vs reference");
    }
}
