//! [`ActiveHypergraph`]: the mutable working copy consumed round by round by
//! the iterative MIS algorithms, as a **flat, epoch-stamped engine**.
//!
//! The Beame–Luby algorithm (Algorithm 2 in the paper) and the SBL algorithm
//! (Algorithm 1) both maintain a hypergraph that shrinks over time:
//!
//! * vertices are *decided* (colored blue = in the independent set, or red =
//!   excluded) and leave the vertex set;
//! * edges lose their blue vertices ("trimming", line 14 of Algorithm 2 /
//!   line 19 of Algorithm 1);
//! * edges that contain another edge as a subset are discarded ("dominated"
//!   edges, lines 16–20 of Algorithm 2);
//! * singleton edges `{v}` are discarded together with their vertex, which can
//!   never join the independent set (lines 21–24 of Algorithm 2);
//! * in SBL, edges containing a red vertex are discarded outright (lines
//!   13–17 of Algorithm 1) because they can never become fully blue.
//!
//! # Layout
//!
//! The paper models every one of these updates as `O(1)`-per-element PRAM
//! work, so the engine stores everything in flat arrays instead of per-edge
//! set structures:
//!
//! * a per-vertex `u8` status array plus a compacted, ascending list of the
//!   alive vertices (`alive_slice`), maintained incrementally on kills;
//! * a CSR edge arena (`edge_offsets` / `edge_vertices`) whose per-edge
//!   segments are compacted in place when blue vertices are trimmed, plus a
//!   per-edge live-vertex counter — the live members of edge `e` are always
//!   the sorted prefix `edge_vertices[offsets[e] .. offsets[e] + live_len[e]]`;
//! * a per-edge `u8` status recording *why* an edge left the instance
//!   (discarded through a red vertex, dominated, emptied, singleton);
//! * a compacted live-edge frontier (ascending edge ids), re-compacted in
//!   place (stable, allocation-free) after every batch update;
//! * a per-vertex epoch-stamp array: transient vertex sets (the killed set of
//!   a singleton sweep, the membership set of an independence query) are
//!   represented as `stamp[v] == current_epoch`, so clearing a set is a single
//!   counter bump instead of an `O(n)` wipe or a fresh allocation.
//!
//! Edge trimming and the domination/discard scans run through the
//! rayon-backed [`pram`] primitives (`par_map_segments_into`,
//! `par_map_into`), which fall back to sequential loops below the cutoff and
//! are order-preserving above it, so results are identical across thread
//! counts. The status-array maintenance loops — frontier/alive-list
//! compaction, live-size totals and the invariant counts — additionally run
//! as wide byte sweeps through [`pram::simd`] (SSE2/AVX2 with scalar
//! fallbacks and a `force-scalar` escape hatch) whenever the live fraction
//! is high enough for a dense scan to beat the sparse walk; every backend
//! computes identical results, which the scalar-vs-SIMD parity suites pin. Cost accounting stays in the *algorithm* layer (the `mis-core`
//! crate charges the same work–depth script the pseudocode implies), which
//! keeps `CostTracker` totals independent of the engine.
//!
//! # Lifecycle
//!
//! Engines are built once and then *recycled*: [`ActiveHypergraph::reset_from`]
//! re-initializes an engine to a new instance in place,
//! [`ActiveHypergraph::induced_by_into`] derives a sampled sub-instance into
//! an existing engine, and [`ActiveHypergraph::reset_induced`] derives one
//! straight from a [`Hypergraph`] — both with a **compact incidence index**
//! over the kept edges, so the sub keeps the incidence-directed trim/discard
//! fast path with no `O(id_space)` pass. Per-operation scratch lives in an
//! internal `EngineScratch` cache. See the [`ActiveEngine`] docs for the full
//! construct/reset/induce contract.
//!
//! # The [`ActiveEngine`] trait and the reference engine
//!
//! All algorithms in `mis-core` are generic over [`ActiveEngine`], the
//! abstract update interface. Two implementations exist:
//!
//! * [`ActiveHypergraph`] — the flat engine described above (the default);
//! * [`reference::ReferenceActiveHypergraph`] — the original
//!   `Vec<Vec<VertexId>>`/`BTreeSet`-backed implementation, preserved
//!   verbatim behind the `reference-engine` feature (on by default) as the
//!   semantic oracle. The differential suites replay identical edit scripts
//!   and whole algorithm runs against both engines and require identical live
//!   edges, degrees, colorings and cost totals.
//!
//! Vertex ids are *global* (those of the original hypergraph); nothing is
//! ever relabelled, which is what lets SBL stitch the per-round colorings
//! together.

use crate::graph::{EdgeId, Hypergraph, VertexId};
use crate::view::HypergraphView;
use pram::primitives::{par_map, par_map_into, par_map_segments_into, par_tabulate};

const V_ALIVE: u8 = 0;
const V_DEAD: u8 = 1;

/// Edge is still part of the instance.
pub const EDGE_LIVE: u8 = 0;
/// Edge was discarded because it touched a decided-red vertex.
pub const EDGE_DISCARDED: u8 = 1;
/// Edge was removed because it strictly contains another live edge.
pub const EDGE_DOMINATED: u8 = 2;
/// Edge lost all of its vertices to trimming (only possible if the caller
/// violated independence; the algorithms assert this never happens).
pub const EDGE_EMPTIED: u8 = 3;
/// Edge was a singleton `{v}` and was removed together with `v`.
pub const EDGE_SINGLETON: u8 = 4;

/// The abstract update interface of the round-based MIS algorithms: every
/// mutation the SBL/BL/KUW pseudocode performs on its working hypergraph.
///
/// Implementations must be *observationally identical*: given the same
/// sequence of calls they must report the same alive vertices (ascending),
/// the same live edges (same relative order, same sorted member lists) and
/// the same return values. The differential suites
/// (`crates/hypergraph/tests/active_diff.rs` and the facade property tests)
/// enforce this between [`ActiveHypergraph`] and the reference engine.
///
/// # Engine lifecycle: construct vs reset vs induce
///
/// An engine value has three ways of coming to hold an instance, forming the
/// lifecycle the zero-reallocation run pipeline is built on:
///
/// * **Construct** — [`from_hypergraph`](Self::from_hypergraph) builds a
///   fresh engine, allocating every internal buffer. This is the cold path;
///   a server answering a stream of solves pays it once.
/// * **Reset** — [`reset_from`](Self::reset_from) re-initializes an
///   *existing* engine to a (possibly different) hypergraph **in place**,
///   reusing its buffers. Observationally it is identical to constructing a
///   fresh engine from the same hypergraph; only the allocation behaviour
///   differs. The facade's `BatchRunner` parks engines in a
///   [`pram::Workspace`] between solves and resets them on the next one.
/// * **Induce** — [`induced_by`](Self::induced_by) derives a sub-instance
///   engine, allocating it; [`induced_by_into`](Self::induced_by_into)
///   derives the same sub-instance into an existing engine, reusing its
///   buffers (SBL re-induces into one engine slot every sampling round).
///   Both must yield observationally identical sub-engines over the *same
///   global id space* as the parent.
///
/// **Who owns scratch:** transient per-call scratch (epoch stamps, frontier
/// compaction buffers) is owned by the engine itself and is invisible to
/// callers; per-*run* scratch (flag vectors, index lists) is owned by the
/// caller's [`pram::Workspace`] and handed to the algorithm entry points
/// (`mis-core`'s `*_in` functions); per-*stream* state (whole engines) is
/// parked in the workspace's typed slots by the facade. No scratch may ever
/// influence results: a warmed-up engine/workspace and a cold one must make
/// byte-identical decisions, which the pinned-seed batch determinism suite
/// enforces.
///
/// # Concurrency (the serving seam)
///
/// Engines are plain owned data — [`ActiveHypergraph`] (and the reference
/// engine) are `Send + Sync`, which the compile-time assertions in this
/// module pin. What the sharded serving layer shares across its N shard
/// workers is the resident [`Hypergraph`] itself, read-only: each worker
/// derives a query's sub-instance from the graph's CSR into its own
/// shard-local engine ([`ActiveHypergraph::reset_induced`]), and every
/// `&mut self` operation (trim, discard, reset) happens on those
/// shard-local engines. The induce paths read their parent through `&self`
/// only ([`induced_by`](Self::induced_by) /
/// [`induced_by_into`](Self::induced_by_into) never touch hidden shared or
/// interior-mutable state), so an engine may equally be shared read-only as
/// a parent; implementations of this trait must keep that property: no
/// interior mutability behind the `&self` methods used for induction.
pub trait ActiveEngine: HypergraphView + Clone {
    /// Creates an active copy of a full hypergraph: every vertex alive, every
    /// edge present.
    fn from_hypergraph(h: &Hypergraph) -> Self;

    /// Re-initializes this engine to an active copy of `h` **in place**,
    /// reusing internal buffers where possible. Observationally identical to
    /// `*self = Self::from_hypergraph(h)`, which is also the default
    /// implementation.
    fn reset_from(&mut self, h: &Hypergraph) {
        *self = Self::from_hypergraph(h);
    }

    /// Number of alive (undecided) vertices.
    fn n_alive(&self) -> usize {
        self.n_active_vertices()
    }

    /// Number of live edges.
    fn n_live_edges(&self) -> usize {
        self.n_active_edges()
    }

    /// Returns `true` if vertex `v` is alive.
    fn is_alive(&self, v: VertexId) -> bool {
        self.is_active(v)
    }

    /// The alive vertices in increasing order.
    fn alive_vertices(&self) -> Vec<VertexId> {
        self.active_vertices()
    }

    /// Writes the alive vertices (increasing order) into `out`, replacing its
    /// contents. The borrowed variant the hot loops use: engines that keep a
    /// compacted alive list serve this with a single memcpy and no
    /// allocation once `out` has warmed up.
    fn alive_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend(self.alive_vertices());
    }

    /// Total size of the live edges, `Σ_e |e|` over live members.
    fn total_live_size(&self) -> usize;

    /// Marks the given vertices dead (decided). Edges are not touched;
    /// combine with [`shrink_edges_by`](Self::shrink_edges_by) or
    /// [`discard_edges_touching`](Self::discard_edges_touching) according to
    /// the algorithm's semantics.
    fn kill_vertices(&mut self, vs: &[VertexId]);

    /// Removes the vertices of `set` from every edge (the "trim" step: these
    /// vertices joined the independent set, so the rest of each edge must
    /// still avoid becoming fully blue). `vs` must list exactly the vertices
    /// flagged in `set` (duplicate-free; implementations may use either
    /// representation). Edges that become empty are dropped — an empty edge
    /// can only arise if the caller violated independence, so this also
    /// returns how many edges emptied (0 in correct executions; tests assert
    /// on it).
    fn shrink_edges_by(&mut self, set: &[bool], vs: &[VertexId]) -> usize;

    /// Discards every edge that contains at least one vertex from `set`
    /// (SBL: edges touching a red vertex can never become fully blue).
    /// `vs` must list exactly the vertices flagged in `set`.
    /// Returns the number of edges discarded.
    fn discard_edges_touching(&mut self, set: &[bool], vs: &[VertexId]) -> usize;

    /// Removes every edge that strictly contains another live edge
    /// ("dominated" edges). Exact duplicates keep both representatives.
    /// Returns the number of edges removed.
    fn remove_dominated_edges(&mut self) -> usize;

    /// Removes singleton edges `{v}` and kills their vertex `v` (such a
    /// vertex can never join the independent set), discarding every other
    /// edge through `v`. Returns the killed vertices, ascending.
    fn remove_singleton_edges(&mut self) -> Vec<VertexId>;

    /// The sub-hypergraph induced by the marked vertices, keeping only edges
    /// *fully contained* in the mark set (the `H' = (V', E')` of SBL line 7).
    /// The returned engine shares the global id space.
    fn induced_by(&self, marked: &[bool]) -> Self;

    /// Derives the same sub-hypergraph as [`induced_by`](Self::induced_by)
    /// into an existing engine, reusing `out`'s buffers. `vs` must list
    /// exactly the vertices flagged in `marked` (any order, duplicate-free;
    /// the same convention as [`shrink_edges_by`](Self::shrink_edges_by)),
    /// which lets implementations find the kept edges through the *parent's*
    /// incidence index instead of scanning every live edge.
    ///
    /// `out` may hold any previous state (a consumed sub-instance from an
    /// earlier round, an engine over a different id space); afterwards it is
    /// observationally identical to `self.induced_by(marked)`. The default
    /// implementation simply overwrites `out`; [`ActiveHypergraph`]
    /// overrides it to derive the kept edges incidence-directed and to equip
    /// the sub-instance with a compact incidence index of its own, so the
    /// incidence-directed trim/discard fast path stays available.
    fn induced_by_into(&self, marked: &[bool], vs: &[VertexId], out: &mut Self) {
        let _ = vs;
        *out = self.induced_by(marked);
    }

    /// Independence oracle: `true` iff some live edge lies entirely inside
    /// `set`. Takes `&mut self` so implementations may use epoch-stamped
    /// scratch instead of allocating a membership array per query.
    fn contains_live_edge_within(&mut self, set: &[VertexId]) -> bool;

    /// The live edges as owned sorted vertex lists, in frontier order
    /// (used by tests and the differential oracle).
    fn live_edges_owned(&self) -> Vec<Vec<VertexId>>;

    /// Converts the active view into a compact immutable [`Hypergraph`] with
    /// vertices relabelled to `0..n_alive`, returning the hypergraph and the
    /// mapping `new -> old` id.
    fn compact(&self) -> (Hypergraph, Vec<VertexId>);

    /// Checks internal invariants (debug builds); used by tests.
    fn validate(&self);
}

/// A mutable hypergraph view over a fixed vertex id space, stored as flat
/// epoch-stamped arrays.
///
/// See the [module documentation](self) for the layout and the role it plays
/// in the algorithms.
#[derive(Debug, Clone)]
pub struct ActiveHypergraph {
    /// Size of the vertex id space (ids of the original hypergraph).
    id_space: usize,
    /// `status[v]` — `V_ALIVE` while vertex `v` is undecided.
    status: Vec<u8>,
    /// Compacted list of alive vertices, always ascending.
    alive_list: Vec<VertexId>,
    /// CSR offsets into `edge_vertices`; fixed at construction.
    edge_offsets: Vec<u32>,
    /// Per-edge sorted vertex runs; live members are compacted to the front
    /// of each segment.
    edge_vertices: Vec<VertexId>,
    /// `live_len[e]` — number of live members of edge `e`.
    live_len: Vec<u32>,
    /// `edge_status[e]` — `EDGE_LIVE` or the reason the edge left.
    edge_status: Vec<u8>,
    /// Compacted frontier of live edge ids, always ascending.
    live_edges: Vec<EdgeId>,
    /// Epoch stamps for transient vertex sets: `stamp[v] == epoch` means "in
    /// the current set".
    stamp: Vec<u32>,
    /// Current epoch of `stamp`.
    epoch: u32,
    /// Vertex→edge incidence of the edge arena *as of construction/induce
    /// time*. Edges only ever lose members, so an edge containing `v` now
    /// was always incident to `v` — which makes the construction-time
    /// incidence a sound over-approximation and enables the
    /// incidence-directed trim/discard fast path.
    incidence: IncidenceIndex,
    /// Reusable per-operation scratch; never observable (see
    /// [`EngineScratch`]).
    scratch: EngineScratch,
}

/// Vertex→edge incidence index of an [`ActiveHypergraph`].
#[derive(Debug, Clone, Default)]
#[cfg_attr(test, derive(PartialEq))]
enum IncidenceIndex {
    /// No index: every update uses the scan paths (engines built from raw
    /// parts or by the allocating [`ActiveHypergraph::induced_by`]).
    #[default]
    None,
    /// Indexed directly by vertex id (offsets of length `id_space + 1`),
    /// inherited from the source [`Hypergraph`] for engines built by
    /// [`ActiveHypergraph::from_hypergraph`] / `reset_from`.
    Full {
        /// CSR offsets into `incident`, indexed by vertex id.
        offsets: Vec<u32>,
        /// Concatenated per-vertex lists of incident edge ids.
        incident: Vec<EdgeId>,
    },
    /// Compact index over only the vertices that occur in the instance's
    /// edges (`keys`, ascending; rank lookup by binary search), derived by
    /// [`ActiveHypergraph::induced_by_into`] for sampled sub-instances so
    /// they keep the incidence fast path without an `O(id_space)` table.
    Compact {
        /// The vertices with at least one incident edge, ascending.
        keys: Vec<VertexId>,
        /// CSR offsets into `incident`, of length `keys.len() + 1`.
        offsets: Vec<u32>,
        /// Concatenated per-key lists of incident edge ids.
        incident: Vec<EdgeId>,
    },
}

impl IncidenceIndex {
    /// The edges incident to `v` at index-build time (empty if `v` is
    /// unknown to the index), or `None` if no index exists at all.
    #[inline]
    fn incident(&self, v: VertexId) -> Option<&[EdgeId]> {
        match self {
            IncidenceIndex::None => None,
            IncidenceIndex::Full { offsets, incident } => {
                let lo = offsets[v as usize] as usize;
                let hi = offsets[v as usize + 1] as usize;
                Some(&incident[lo..hi])
            }
            IncidenceIndex::Compact {
                keys,
                offsets,
                incident,
            } => match keys.binary_search(&v) {
                Ok(r) => Some(&incident[offsets[r] as usize..offsets[r + 1] as usize]),
                Err(_) => Some(&[]),
            },
        }
    }

    /// Tears the index down into its (cleared-on-reuse) buffers so a rebuild
    /// can reuse the allocations. Missing buffers come back empty.
    fn take_buffers(&mut self) -> (Vec<VertexId>, Vec<u32>, Vec<EdgeId>) {
        match std::mem::take(self) {
            IncidenceIndex::None => (Vec::new(), Vec::new(), Vec::new()),
            IncidenceIndex::Full { offsets, incident } => (Vec::new(), offsets, incident),
            IncidenceIndex::Compact {
                keys,
                offsets,
                incident,
            } => (keys, offsets, incident),
        }
    }
}

/// Reusable scratch buffers for the engine's own update operations (frontier
/// hit flags, per-segment trim lengths, the pair-sort arena of the dominated
/// sweep and of the compact-incidence build). Purely an allocation cache:
/// every user overwrites what it reads, so scratch contents never influence
/// results — which is why `Clone` hands the copy empty scratch.
#[derive(Debug, Default)]
struct EngineScratch {
    /// Per-frontier-position hit flags (discard scans).
    hit: Vec<bool>,
    /// Per-frontier-position trimmed lengths (segment trim).
    lens: Vec<u32>,
    /// `(vertex << 32) | position` pairs (dominated sweep, incidence build).
    pairs: Vec<u64>,
    /// Per-frontier-position dominated flags.
    dead: Vec<bool>,
    /// Vertex id scratch (induce mark-set sorting).
    verts: Vec<VertexId>,
}

impl Clone for EngineScratch {
    fn clone(&self) -> Self {
        EngineScratch::default()
    }
}

impl ActiveHypergraph {
    /// `alive_list` must be exactly the ascending ids with `status == V_ALIVE`.
    fn from_edge_lists<'a, I>(
        id_space: usize,
        status: Vec<u8>,
        alive_list: Vec<VertexId>,
        edges: I,
    ) -> Self
    where
        I: Iterator<Item = &'a [VertexId]>,
    {
        let mut edge_offsets = vec![0u32];
        let mut edge_vertices = Vec::new();
        let mut live_len = Vec::new();
        for e in edges {
            edge_vertices.extend_from_slice(e);
            edge_offsets.push(edge_vertices.len() as u32);
            live_len.push(e.len() as u32);
        }
        let m = live_len.len();
        ActiveHypergraph {
            id_space,
            status,
            alive_list,
            edge_offsets,
            edge_vertices,
            live_len,
            edge_status: vec![EDGE_LIVE; m],
            live_edges: (0..m as EdgeId).collect(),
            stamp: vec![0; id_space],
            epoch: 0,
            incidence: IncidenceIndex::None,
            scratch: EngineScratch::default(),
        }
    }

    /// Creates an active copy of a full hypergraph: every vertex alive, every
    /// edge present. Inherits the hypergraph's incidence index, enabling the
    /// incidence-directed trim/discard fast path.
    pub fn from_hypergraph(h: &Hypergraph) -> Self {
        let mut ah =
            Self::from_edge_lists(0, Vec::new(), Vec::new(), std::iter::empty::<&[VertexId]>());
        ah.reset_from(h);
        ah
    }

    /// Re-initializes this engine to an active copy of `h` **in place**,
    /// reusing every internal buffer (status, alive list, edge arena, epoch
    /// stamps, incidence index). Observationally identical to
    /// [`from_hypergraph`](Self::from_hypergraph) — only the allocation
    /// behaviour differs: after a warm-up solve of a same-shaped instance,
    /// resetting performs no allocation at all.
    pub fn reset_from(&mut self, h: &Hypergraph) {
        let n = h.n_vertices();
        let m = h.n_edges();
        self.id_space = n;
        self.status.clear();
        self.status.resize(n, V_ALIVE);
        self.alive_list.clear();
        self.alive_list.extend(0..n as u32);
        let (edge_offsets, edge_vertices) = h.edge_csr();
        self.edge_offsets.clear();
        self.edge_offsets.extend_from_slice(edge_offsets);
        self.edge_vertices.clear();
        self.edge_vertices.extend_from_slice(edge_vertices);
        self.live_len.clear();
        self.live_len
            .extend(edge_offsets.windows(2).map(|w| w[1] - w[0]));
        self.edge_status.clear();
        self.edge_status.resize(m, EDGE_LIVE);
        self.live_edges.clear();
        self.live_edges.extend(0..m as EdgeId);
        // Stale stamps are all <= the current epoch and every reader bumps
        // the epoch before stamping, so only *new* entries need zeroing.
        self.stamp.resize(n, 0);
        let (_keys, mut offsets, mut incident) = self.incidence.take_buffers();
        let (inc_offsets, inc_edges) = h.incidence_csr();
        offsets.clear();
        offsets.extend_from_slice(inc_offsets);
        incident.clear();
        incident.extend_from_slice(inc_edges);
        self.incidence = IncidenceIndex::Full { offsets, incident };
    }

    /// Creates an active hypergraph from raw parts.
    ///
    /// `alive` selects the active vertices out of the id space `0..alive.len()`;
    /// `edges` must be sorted, duplicate-free and only mention alive vertices.
    ///
    /// # Panics
    /// Panics (in debug builds) if an edge mentions a dead or out-of-range
    /// vertex or is not sorted.
    pub fn from_parts(alive: Vec<bool>, edges: Vec<Vec<VertexId>>) -> Self {
        let status: Vec<u8> = alive
            .iter()
            .map(|&a| if a { V_ALIVE } else { V_DEAD })
            .collect();
        let alive_list = (0..alive.len() as u32)
            .filter(|&v| alive[v as usize])
            .collect();
        let ah = Self::from_edge_lists(
            alive.len(),
            status,
            alive_list,
            edges.iter().map(|e| e.as_slice()),
        );
        ah.debug_validate();
        ah
    }

    /// Size of the vertex id space (ids of the original hypergraph); every
    /// vertex id handled by this view is `< id_space()`.
    #[inline]
    pub fn id_space(&self) -> usize {
        self.id_space
    }

    /// Number of alive vertices.
    #[inline]
    pub fn n_alive(&self) -> usize {
        self.alive_list.len()
    }

    /// Number of live edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.live_edges.len()
    }

    /// Returns `true` if vertex `v` is alive.
    #[inline]
    pub fn is_alive(&self, v: VertexId) -> bool {
        self.status[v as usize] == V_ALIVE
    }

    /// The alive vertices in increasing order, as a borrowed slice (no
    /// allocation; the list is maintained incrementally).
    #[inline]
    pub fn alive_slice(&self) -> &[VertexId] {
        &self.alive_list
    }

    /// The alive vertices in increasing order.
    pub fn alive_vertices(&self) -> Vec<VertexId> {
        self.alive_list.clone()
    }

    /// The live edge ids (ascending), indexing into the original edge arena.
    #[inline]
    pub fn live_edge_ids(&self) -> &[EdgeId] {
        &self.live_edges
    }

    /// The sorted live members of edge `e`.
    #[inline]
    pub fn live_edge(&self, e: EdgeId) -> &[VertexId] {
        let lo = self.edge_offsets[e as usize] as usize;
        &self.edge_vertices[lo..lo + self.live_len[e as usize] as usize]
    }

    /// Why edge `e` left the instance (`EDGE_LIVE` if it has not).
    #[inline]
    pub fn edge_status(&self, e: EdgeId) -> u8 {
        self.edge_status[e as usize]
    }

    /// The live edges as owned sorted vertex lists, in frontier order.
    pub fn live_edges_owned(&self) -> Vec<Vec<VertexId>> {
        self.live_edges
            .iter()
            .map(|&e| self.live_edge(e).to_vec())
            .collect()
    }

    /// Total size of the live edges, `Σ_e |e|` over live members.
    ///
    /// When most edges are still live, this runs as a wide masked sum over
    /// the dense status/length arrays (dead edges keep stale `live_len`
    /// values, so the sum must filter by status); once the frontier has
    /// shrunk well below the edge count, the sparse gather over the
    /// frontier is cheaper. Both compute the identical total.
    pub fn total_live_size(&self) -> usize {
        if self.edge_status.len() <= self.live_edges.len().saturating_mul(4) {
            pram::simd::sum_u32_where_u8_eq(&self.live_len, &self.edge_status, EDGE_LIVE)
        } else {
            self.live_edges
                .iter()
                .map(|&e| self.live_len[e as usize] as usize)
                .sum()
        }
    }

    /// Maximum cardinality among live edges (0 if edgeless).
    pub fn dimension(&self) -> usize {
        self.live_edges
            .iter()
            .map(|&e| self.live_len[e as usize] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Bumps the stamp epoch, wiping the previous transient set in `O(1)`.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Rebuilds the live-edge frontier from the per-edge status array,
    /// preserving ascending order: an in-place stable compaction with no
    /// steady-state allocation (the PRAM cost of the step is charged at the
    /// algorithm layer, like every other engine update).
    ///
    /// The frontier invariant (`live_edges` is exactly the ascending
    /// `EDGE_LIVE` positions, pinned by [`debug_validate`](Self::debug_validate))
    /// makes the dense wide sweep over the status array an exact
    /// replacement for the sparse `retain`; the sweep is used while the
    /// frontier is still a sizeable fraction of the edge count, the sparse
    /// walk once it has shrunk. The threshold depends only on instance
    /// state, so the choice — and of course the result — is deterministic.
    fn rebuild_frontier(&mut self) {
        if self.edge_status.len() <= self.live_edges.len().saturating_mul(4) {
            pram::simd::positions_eq_u8(&self.edge_status, EDGE_LIVE, &mut self.live_edges);
        } else {
            let status = &self.edge_status;
            self.live_edges.retain(|&e| status[e as usize] == EDGE_LIVE);
        }
    }

    /// Marks the given vertices dead (decided) and compacts the alive list.
    pub fn kill_vertices(&mut self, vs: &[VertexId]) {
        let mut changed = false;
        for &v in vs {
            let slot = &mut self.status[v as usize];
            if *slot == V_ALIVE {
                *slot = V_DEAD;
                changed = true;
            }
        }
        if changed {
            // Same dense-vs-sparse split as `rebuild_frontier`: the alive
            // list is exactly the ascending `V_ALIVE` positions, so the wide
            // status sweep and the sparse `retain` are interchangeable.
            if self.status.len() <= self.alive_list.len().saturating_mul(4) {
                pram::simd::positions_eq_u8(&self.status, V_ALIVE, &mut self.alive_list);
            } else {
                let status = &self.status;
                self.alive_list.retain(|&v| status[v as usize] == V_ALIVE);
            }
        }
    }

    /// Total number of construction-time incident edges of `vs`, if an
    /// incidence index is available — the cost of the incidence-directed
    /// update path.
    fn incidence_work(&self, vs: &[VertexId]) -> Option<usize> {
        if matches!(self.incidence, IncidenceIndex::None) {
            return None;
        }
        Some(
            vs.iter()
                .map(|&v| self.incidence.incident(v).map_or(0, |inc| inc.len()))
                .sum(),
        )
    }

    /// Removes the vertices of `set` from every live edge. `vs` must list
    /// exactly the set vertices (any order, duplicate-free). Returns the
    /// number of edges that became empty; those edges are dropped.
    ///
    /// Two implementations with identical results: when the trim set's total
    /// incident degree is small compared to the instance (the common case in
    /// the SBL/BL rounds), each trimmed vertex walks its original incidence
    /// list and splices itself out of the affected segments; otherwise every
    /// live segment is compacted in place through the parallel
    /// [`par_map_segments`](pram::primitives::par_map_segments) primitive.
    pub fn shrink_edges_by(&mut self, set: &[bool], vs: &[VertexId]) -> usize {
        if let Some(work) = self.incidence_work(vs) {
            if work.saturating_mul(4) < self.total_live_size() {
                return self.shrink_by_incidence(vs);
            }
        }
        self.shrink_by_segments(set)
    }

    /// Incidence-directed trim: `O(Σ_v deg(v) · log|e|)` in the
    /// construction-time degrees of the trimmed vertices.
    fn shrink_by_incidence(&mut self, vs: &[VertexId]) -> usize {
        let mut emptied = 0usize;
        for &v in vs {
            let incident = self.incidence.incident(v).expect("checked by caller");
            for &e in incident {
                if self.edge_status[e as usize] != EDGE_LIVE {
                    continue;
                }
                let seg_lo = self.edge_offsets[e as usize] as usize;
                let len = self.live_len[e as usize] as usize;
                let seg = &mut self.edge_vertices[seg_lo..seg_lo + len];
                if let Ok(pos) = seg.binary_search(&v) {
                    seg.copy_within(pos + 1.., pos);
                    self.live_len[e as usize] = (len - 1) as u32;
                    if len == 1 {
                        self.edge_status[e as usize] = EDGE_EMPTIED;
                        emptied += 1;
                    }
                }
            }
        }
        if emptied > 0 {
            self.rebuild_frontier();
        }
        emptied
    }

    /// Full-scan trim: every live segment is compacted in place (in parallel
    /// above the pram cutoff).
    fn shrink_by_segments(&mut self, set: &[bool]) -> usize {
        // Carve the live-edge segments out of the arena as disjoint mutable
        // slices (frontier order is ascending, so a split_at_mut sweep works).
        let mut segments: Vec<&mut [VertexId]> = Vec::with_capacity(self.live_edges.len());
        let mut rest: &mut [VertexId] = &mut self.edge_vertices;
        let mut pos = 0usize;
        for &e in &self.live_edges {
            let lo = self.edge_offsets[e as usize] as usize;
            let len = self.live_len[e as usize] as usize;
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(lo - pos);
            let (seg, tail) = tail.split_at_mut(len);
            segments.push(seg);
            rest = tail;
            pos = lo + len;
        }
        let mut new_lens = std::mem::take(&mut self.scratch.lens);
        par_map_segments_into(
            segments,
            |seg| {
                let mut w = 0usize;
                for i in 0..seg.len() {
                    let v = seg[i];
                    if !set[v as usize] {
                        seg[w] = v;
                        w += 1;
                    }
                }
                w as u32
            },
            None,
            &mut new_lens,
        );
        let mut emptied = 0usize;
        for (k, &e) in self.live_edges.iter().enumerate() {
            self.live_len[e as usize] = new_lens[k];
            if new_lens[k] == 0 {
                self.edge_status[e as usize] = EDGE_EMPTIED;
                emptied += 1;
            }
        }
        self.scratch.lens = new_lens;
        if emptied > 0 {
            self.rebuild_frontier();
        }
        emptied
    }

    /// Discards every live edge containing at least one vertex from `set`.
    /// `vs` must list exactly the set vertices (any order, duplicate-free).
    /// Returns the number of edges discarded.
    ///
    /// Like [`shrink_edges_by`](Self::shrink_edges_by), this picks between an
    /// incidence-directed walk of the touched vertices' edges and a parallel
    /// scan of all live edges; the results are identical.
    pub fn discard_edges_touching(&mut self, set: &[bool], vs: &[VertexId]) -> usize {
        if let Some(work) = self.incidence_work(vs) {
            if work.saturating_mul(4) < self.total_live_size() {
                return self.discard_by_incidence(vs);
            }
        }
        self.discard_by_scan(set)
    }

    /// Incidence-directed discard: only the construction-time incident edges
    /// of the touched vertices are inspected. Membership is re-checked
    /// against the *live* members, since a vertex may have been trimmed out
    /// of an edge earlier (such an edge must survive).
    fn discard_by_incidence(&mut self, vs: &[VertexId]) -> usize {
        let mut removed = 0usize;
        for &v in vs {
            let incident = self.incidence.incident(v).expect("checked by caller");
            for &e in incident {
                if self.edge_status[e as usize] != EDGE_LIVE {
                    continue;
                }
                let seg_lo = self.edge_offsets[e as usize] as usize;
                let len = self.live_len[e as usize] as usize;
                if self.edge_vertices[seg_lo..seg_lo + len]
                    .binary_search(&v)
                    .is_ok()
                {
                    self.edge_status[e as usize] = EDGE_DISCARDED;
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            self.rebuild_frontier();
        }
        removed
    }

    /// Full-scan discard over every live edge (in parallel above the pram
    /// cutoff).
    fn discard_by_scan(&mut self, set: &[bool]) -> usize {
        let mut hit = std::mem::take(&mut self.scratch.hit);
        let offsets = &self.edge_offsets;
        let verts = &self.edge_vertices;
        let live_len = &self.live_len;
        par_map_into(
            &self.live_edges,
            |&e| {
                let lo = offsets[e as usize] as usize;
                verts[lo..lo + live_len[e as usize] as usize]
                    .iter()
                    .any(|&v| set[v as usize])
            },
            None,
            &mut hit,
        );
        let removed = self.apply_edge_hits(&hit, EDGE_DISCARDED);
        self.scratch.hit = hit;
        removed
    }

    /// Discards every live edge with a member stamped at `cur`, tagging it
    /// with `reason`. Returns the number of edges discarded.
    fn discard_edges_stamped(&mut self, cur: u32, reason: u8) -> usize {
        let mut hit = std::mem::take(&mut self.scratch.hit);
        let offsets = &self.edge_offsets;
        let verts = &self.edge_vertices;
        let live_len = &self.live_len;
        let stamp = &self.stamp;
        par_map_into(
            &self.live_edges,
            |&e| {
                let lo = offsets[e as usize] as usize;
                verts[lo..lo + live_len[e as usize] as usize]
                    .iter()
                    .any(|&v| stamp[v as usize] == cur)
            },
            None,
            &mut hit,
        );
        let removed = self.apply_edge_hits(&hit, reason);
        self.scratch.hit = hit;
        removed
    }

    /// Tags every frontier edge whose `hit` flag is set with `reason` and
    /// rebuilds the frontier; returns how many edges were tagged.
    fn apply_edge_hits(&mut self, hit: &[bool], reason: u8) -> usize {
        let mut removed = 0usize;
        for (k, &e) in self.live_edges.iter().enumerate() {
            if hit[k] {
                self.edge_status[e as usize] = reason;
                removed += 1;
            }
        }
        if removed > 0 {
            self.rebuild_frontier();
        }
        removed
    }

    /// Removes every live edge that strictly contains another live edge.
    /// Exact duplicates (equal live member sets) keep both representatives.
    /// Returns the number of edges removed.
    ///
    /// Every edge probes the edges incident to its least-frequent member for
    /// strict supersets; the probes are independent, so they run through
    /// [`par_tabulate`]. The removed set is order-independent (an edge is
    /// removed iff *some* live edge is strictly contained in it), which is
    /// what makes the parallel formulation exact.
    pub fn remove_dominated_edges(&mut self) -> usize {
        let m = self.live_edges.len();
        if m <= 1 {
            return 0;
        }
        // Incidence via (vertex, frontier-position) pair sort: `O(T log T)`
        // in the total live size `T`, with no dependence on the id space —
        // crucial for SBL's sampled sub-instances, which inherit the global
        // id space but hold only a handful of vertices. Pairs are packed as
        // `(v << 32) | k` so the u64 sort order equals the tuple order and
        // the arena is reusable scratch.
        let mut pairs = std::mem::take(&mut self.scratch.pairs);
        pairs.clear();
        pairs.reserve(self.total_live_size());
        for (k, &e) in self.live_edges.iter().enumerate() {
            for &v in self.live_edge(e) {
                pairs.push(((v as u64) << 32) | k as u64);
            }
        }
        pairs.sort_unstable();
        // incidence(v) = the contiguous run of pairs with high half v.
        let pairs_ref = &pairs;
        let run_of = |v: VertexId| -> &[u64] {
            let lo = pairs_ref.partition_point(|&p| (p >> 32) < v as u64);
            let hi = pairs_ref.partition_point(|&p| (p >> 32) <= v as u64);
            &pairs_ref[lo..hi]
        };

        let live_edges = &self.live_edges;
        let offsets = &self.edge_offsets;
        let verts = &self.edge_vertices;
        let live_len = &self.live_len;
        let slice_of = |k: usize| -> &[VertexId] {
            let e = live_edges[k] as usize;
            let lo = offsets[e] as usize;
            &verts[lo..lo + live_len[e] as usize]
        };
        let hits: Vec<Vec<u32>> = par_tabulate(
            m,
            |k| {
                let e = slice_of(k);
                // Any *other* live edge that contains every member of e is
                // dominated. Candidates must be incident to the
                // least-frequent member of e.
                let pivot = e
                    .iter()
                    .copied()
                    .min_by_key(|&v| run_of(v).len())
                    .expect("live edges are non-empty");
                let mut out = Vec::new();
                for &pair in run_of(pivot) {
                    let cand = (pair & u32::MAX as u64) as u32;
                    if cand as usize == k {
                        continue;
                    }
                    let ce = slice_of(cand as usize);
                    // Equal-size edges cannot *strictly* contain e.
                    if ce.len() <= e.len() {
                        continue;
                    }
                    if e.iter().all(|&v| ce.binary_search(&v).is_ok()) {
                        out.push(cand);
                    }
                }
                out
            },
            None,
        );
        let mut dead = std::mem::take(&mut self.scratch.dead);
        dead.clear();
        dead.resize(m, false);
        let mut removed = 0usize;
        for hs in &hits {
            for &c in hs {
                if !dead[c as usize] {
                    dead[c as usize] = true;
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            for (k, &e) in self.live_edges.iter().enumerate() {
                if dead[k] {
                    self.edge_status[e as usize] = EDGE_DOMINATED;
                }
            }
            self.rebuild_frontier();
        }
        self.scratch.dead = dead;
        self.scratch.pairs = pairs;
        removed
    }

    /// Removes singleton edges `{v}` and kills their vertex `v` (such a
    /// vertex can never join the independent set). Every other edge through a
    /// killed vertex can never become fully blue any more and is discarded as
    /// well. Returns the killed vertices, ascending.
    pub fn remove_singleton_edges(&mut self) -> Vec<VertexId> {
        let cur = self.next_epoch();
        let mut killed: Vec<VertexId> = Vec::new();
        let mut any = false;
        for &e in &self.live_edges {
            if self.live_len[e as usize] == 1 {
                any = true;
                self.edge_status[e as usize] = EDGE_SINGLETON;
                let v = self.edge_vertices[self.edge_offsets[e as usize] as usize];
                if self.stamp[v as usize] != cur {
                    self.stamp[v as usize] = cur;
                    killed.push(v);
                }
            }
        }
        if !any {
            return Vec::new();
        }
        killed.sort_unstable();
        self.rebuild_frontier();
        let use_incidence = self
            .incidence_work(&killed)
            .is_some_and(|w| w.saturating_mul(4) < self.total_live_size());
        if use_incidence {
            self.discard_by_incidence(&killed);
        } else {
            self.discard_edges_stamped(cur, EDGE_DISCARDED);
        }
        self.kill_vertices(&killed);
        killed
    }

    /// Derives the sub-hypergraph induced by the marked vertices into an
    /// existing engine, reusing `out`'s buffers, and equips it with a
    /// **compact incidence index** derived from the kept edges — so the
    /// sub-instance keeps the incidence-directed trim/discard fast path
    /// without ever touching an `O(id_space)` table. `vs` must list exactly
    /// the marked vertices (any order, duplicate-free).
    ///
    /// When the parent carries an incidence index and the mark set's total
    /// incident degree is small compared to the instance (the common case
    /// for SBL's samples), the kept edges are found by walking the marked
    /// vertices' incidence lists instead of scanning every live edge: an
    /// edge fully inside the mark set is incident to its smallest live
    /// member, and edges only ever lose members, so the parent's
    /// construction-time incidence still lists it there. The walk keeps an
    /// edge only at that member, so each kept edge is found once; its id
    /// joins a list sorted ascending, which *is* frontier order (the
    /// live-edge frontier is maintained ascending), so both derivations keep
    /// edges in the identical order.
    ///
    /// `out` may hold arbitrary previous state (a consumed sub-instance from
    /// an earlier round, an engine over a different id space). The walk's
    /// budget is a quarter of the edge arena's length, read in `O(1)`: the
    /// arena holds every edge the engine was built with, so it bounds the
    /// live size from above. The cost is
    /// `O(|vs| + min(A, Σ_v deg(v)) + k log k + T_sub · log T_sub)`, or
    /// `O(|vs| + T + T_sub · log T_sub)` when the walk would pass its budget
    /// and the live edges are scanned instead, where `A` is the arena's
    /// length, `T` the parent's total live size, `Σ_v deg(v)` counts one
    /// edge read per walked incidence entry (plus a member check per kept
    /// edge), `k` is the number of kept edges and `T_sub` the sub-instance's
    /// total size — crucially *not* `O(id_space)`: the previous state is
    /// unwound through `out`'s alive list, and epoch stamps survive reuse by
    /// construction. The walk and the scan keep the identical edges, so the
    /// budget decides the cost only, never the result.
    ///
    /// Observationally `out` ends up identical to `self.induced_by(marked)`
    /// (the differential suites pin this); only the allocation behaviour and
    /// the availability of the incidence fast path differ.
    pub fn induced_by_into(&self, marked: &[bool], vs: &[VertexId], out: &mut ActiveHypergraph) {
        debug_assert!(
            vs.iter().all(|&v| marked[v as usize]),
            "vs must list exactly the marked vertices"
        );
        debug_assert_eq!(
            vs.len(),
            marked.iter().filter(|&&m| m).count(),
            "vs must list exactly the marked vertices"
        );
        out.begin_induced(self.id_space, vs, |v| self.status[v as usize] == V_ALIVE);
        let walked = !matches!(self.incidence, IncidenceIndex::None)
            && out.keep_incident_edges(
                vs,
                self.edge_vertices.len() / 4,
                |v| self.incidence.incident(v).expect("checked above"),
                |e| self.edge_status[e as usize] == EDGE_LIVE,
                |e| self.live_edge(e),
            );
        if !walked {
            out.keep_edges_inside(self.live_edges.iter().map(|&e| self.live_edge(e)));
        }
        out.finish_induced();
    }

    /// Resets this engine **in place** to the sub-hypergraph of `h` induced
    /// by `vs` (in range, duplicate-free, any order): observationally
    /// identical to `ActiveHypergraph::from_hypergraph(h).induced_by(marked)`
    /// with `marked` flagging exactly `vs`, but no parent engine is built —
    /// the kept edges come from `h`'s own incidence lists, or from one scan
    /// of its edges once the walk would pass a quarter of `Σ_e |e|` (the
    /// [`induced_by_into`](Self::induced_by_into) rule, with the total read
    /// in `O(1)`). The walk reads each edge incident to `vs` once and keeps
    /// it at its smallest member if all its members are in `vs`, so only
    /// the kept edge ids are sorted. Once this engine has warmed up on a
    /// same-shaped query, a call allocates nothing.
    pub fn reset_induced(&mut self, h: &Hypergraph, vs: &[VertexId]) {
        self.begin_induced(h.n_vertices(), vs, |_| true);
        let walked = self.keep_incident_edges(
            vs,
            h.total_edge_size() / 4,
            |v| h.incident_edges(v),
            |_| true,
            |e| h.edge(e),
        );
        if !walked {
            self.keep_edges_inside(h.edges());
        }
        self.finish_induced();
    }

    /// The first half of an induce: unwinds the previous state through the
    /// alive list (`O(previous sub size)`, not `O(id_space)`), makes the
    /// alive set the vertices of `vs` that pass `alive`, ascending, and
    /// empties the edge arena.
    fn begin_induced(
        &mut self,
        id_space: usize,
        vs: &[VertexId],
        alive: impl Fn(VertexId) -> bool,
    ) {
        for &v in &self.alive_list {
            self.status[v as usize] = V_DEAD;
        }
        self.alive_list.clear();
        self.id_space = id_space;
        self.status.resize(id_space, V_DEAD);
        // Stale stamps are <= the epoch and readers bump before stamping.
        self.stamp.resize(id_space, 0);
        let mut sorted = std::mem::take(&mut self.scratch.verts);
        let ascending = if vs.windows(2).all(|w| w[0] < w[1]) {
            vs
        } else {
            sorted.clear();
            sorted.extend_from_slice(vs);
            sorted.sort_unstable();
            &sorted
        };
        for &v in ascending {
            if alive(v) {
                self.status[v as usize] = V_ALIVE;
                self.alive_list.push(v);
            }
        }
        self.scratch.verts = sorted;
        self.edge_offsets.clear();
        self.edge_offsets.push(0);
        self.edge_vertices.clear();
        self.live_len.clear();
    }

    /// Keeps the live edges incident to `vs` that lie inside the alive set,
    /// ascending. Returns `false`, keeping nothing, once the walked
    /// incidence passes `budget`.
    ///
    /// Each live incident edge is decided where the walk meets it: edge `e`
    /// is kept at `v` only if `v` is `e`'s smallest live member and every
    /// live member is alive here. An inside edge has all its members in
    /// `vs` (duplicate-free), so the walk keeps it exactly once, at its
    /// smallest member, and no candidate list needs deduplicating. The cost
    /// is one edge read per incident entry plus a sort of the kept ids
    /// only; ascending edge ids are frontier order (and `h`'s edge order).
    fn keep_incident_edges<'g>(
        &mut self,
        vs: &[VertexId],
        budget: usize,
        incident: impl Fn(VertexId) -> &'g [EdgeId],
        is_live: impl Fn(EdgeId) -> bool,
        live_edge: impl Fn(EdgeId) -> &'g [VertexId],
    ) -> bool {
        let mut kept = std::mem::take(&mut self.scratch.pairs);
        kept.clear();
        let mut walked = 0usize;
        for &v in vs {
            let incident = incident(v);
            walked += incident.len();
            if walked > budget {
                self.scratch.pairs = kept;
                return false;
            }
            for &e in incident {
                if !is_live(e) {
                    continue;
                }
                let seg = live_edge(e);
                if seg.first() == Some(&v)
                    && seg.iter().all(|&u| self.status[u as usize] == V_ALIVE)
                {
                    kept.push(e as u64);
                }
            }
        }
        kept.sort_unstable();
        for &e in &kept {
            self.push_edge(live_edge(e as EdgeId));
        }
        self.scratch.pairs = kept;
        true
    }

    /// Appends the given edges that lie inside the alive set to the arena.
    fn keep_edges_inside<'g>(&mut self, edges: impl Iterator<Item = &'g [VertexId]>) {
        for seg in edges {
            if seg.iter().all(|&v| self.status[v as usize] == V_ALIVE) {
                self.push_edge(seg);
            }
        }
    }

    /// Appends one edge to the arena, all its members live.
    fn push_edge(&mut self, seg: &[VertexId]) {
        self.edge_vertices.extend_from_slice(seg);
        self.edge_offsets.push(self.edge_vertices.len() as u32);
        self.live_len.push(seg.len() as u32);
    }

    /// The second half of an induce: every kept edge live, plus a compact
    /// incidence index over them — a (vertex, edge) pair sort,
    /// `O(T_sub log T_sub)`, no dependence on the id space.
    fn finish_induced(&mut self) {
        let m = self.live_len.len();
        self.edge_status.clear();
        self.edge_status.resize(m, EDGE_LIVE);
        self.live_edges.clear();
        self.live_edges.extend(0..m as EdgeId);

        let mut pairs = std::mem::take(&mut self.scratch.pairs);
        pairs.clear();
        pairs.reserve(self.edge_vertices.len());
        for e in 0..m {
            let lo = self.edge_offsets[e] as usize;
            let hi = self.edge_offsets[e + 1] as usize;
            for &v in &self.edge_vertices[lo..hi] {
                pairs.push(((v as u64) << 32) | e as u64);
            }
        }
        pairs.sort_unstable();
        let (mut keys, mut inc_offsets, mut incident) = self.incidence.take_buffers();
        keys.clear();
        inc_offsets.clear();
        incident.clear();
        for &pair in &pairs {
            let v = (pair >> 32) as VertexId;
            let e = (pair & u32::MAX as u64) as EdgeId;
            if keys.last() != Some(&v) {
                keys.push(v);
                inc_offsets.push(incident.len() as u32);
            }
            incident.push(e);
        }
        inc_offsets.push(incident.len() as u32);
        self.incidence = IncidenceIndex::Compact {
            keys,
            offsets: inc_offsets,
            incident,
        };
        self.scratch.pairs = pairs;
        self.debug_validate();
    }

    /// The sub-hypergraph induced by the marked vertices, keeping only edges
    /// *fully contained* in the mark set (the `H' = (V', E')` of SBL line 7).
    ///
    /// The returned engine shares the global id space. This is the
    /// allocating variant (and carries no incidence index); the run pipeline
    /// uses [`induced_by_into`](Self::induced_by_into), and the differential
    /// suites compare the two state-for-state.
    pub fn induced_by(&self, marked: &[bool]) -> ActiveHypergraph {
        let mut status = vec![V_DEAD; self.id_space];
        let mut alive_list = Vec::new();
        for &v in &self.alive_list {
            if marked[v as usize] {
                status[v as usize] = V_ALIVE;
                alive_list.push(v);
            }
        }
        let status_ref = &status;
        let offsets = &self.edge_offsets;
        let verts = &self.edge_vertices;
        let live_len = &self.live_len;
        let keep: Vec<bool> = par_map(
            &self.live_edges,
            |&e| {
                let lo = offsets[e as usize] as usize;
                verts[lo..lo + live_len[e as usize] as usize]
                    .iter()
                    .all(|&v| status_ref[v as usize] == V_ALIVE)
            },
            None,
        );
        let edges = self
            .live_edges
            .iter()
            .enumerate()
            .filter(|&(k, _)| keep[k])
            .map(|(_, &e)| self.live_edge(e));
        Self::from_edge_lists(self.id_space, status, alive_list, edges)
    }

    /// Independence oracle over the live edges: `true` iff some live edge
    /// lies entirely inside `set`. Uses the epoch-stamp scratch, so repeated
    /// queries allocate nothing.
    pub fn contains_live_edge_within(&mut self, set: &[VertexId]) -> bool {
        let cur = self.next_epoch();
        for &v in set {
            self.stamp[v as usize] = cur;
        }
        self.live_edges.iter().any(|&e| {
            let lo = self.edge_offsets[e as usize] as usize;
            self.edge_vertices[lo..lo + self.live_len[e as usize] as usize]
                .iter()
                .all(|&v| self.stamp[v as usize] == cur)
        })
    }

    /// Converts the active view into a compact immutable [`Hypergraph`] with
    /// vertices relabelled to `0..n_alive`, returning the hypergraph and the
    /// mapping `new -> old` id.
    pub fn compact(&self) -> (Hypergraph, Vec<VertexId>) {
        let new_to_old = self.alive_list.clone();
        let mut old_to_new = vec![u32::MAX; self.id_space];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as u32;
        }
        let edges: Vec<Vec<VertexId>> = self
            .live_edges
            .iter()
            .map(|&e| {
                self.live_edge(e)
                    .iter()
                    .map(|&v| old_to_new[v as usize])
                    .collect()
            })
            .collect();
        (
            Hypergraph::from_sorted_edges(new_to_old.len() as u32, edges),
            new_to_old,
        )
    }

    /// Checks internal invariants; used by tests and debug assertions.
    ///
    /// # Panics
    /// Panics (in debug builds) if a live edge is unsorted, mentions a dead
    /// vertex, is empty, or the alive list / frontier is out of sync.
    pub fn debug_validate(&self) {
        debug_assert!(
            self.alive_list.windows(2).all(|w| w[0] < w[1]),
            "alive list not ascending"
        );
        debug_assert_eq!(
            self.alive_list.len(),
            pram::simd::count_eq_u8(&self.status, V_ALIVE),
            "alive list out of sync with status"
        );
        debug_assert!(
            self.live_edges.windows(2).all(|w| w[0] < w[1]),
            "frontier not ascending"
        );
        debug_assert_eq!(
            self.live_edges.len(),
            pram::simd::count_eq_u8(&self.edge_status, EDGE_LIVE),
            "frontier out of sync with edge status"
        );
        for &e in &self.live_edges {
            let edge = self.live_edge(e);
            debug_assert!(!edge.is_empty(), "empty live edge");
            debug_assert!(
                edge.windows(2).all(|w| w[0] < w[1]),
                "edge not sorted/deduplicated: {edge:?}"
            );
            for &v in edge {
                debug_assert!((v as usize) < self.id_space, "vertex out of range");
                debug_assert!(
                    self.status[v as usize] == V_ALIVE,
                    "edge mentions dead vertex {v}"
                );
            }
        }
    }
}

impl HypergraphView for ActiveHypergraph {
    fn id_space(&self) -> usize {
        self.id_space
    }

    fn n_active_vertices(&self) -> usize {
        self.alive_list.len()
    }

    fn n_active_edges(&self) -> usize {
        self.live_edges.len()
    }

    fn is_active(&self, v: VertexId) -> bool {
        self.status[v as usize] == V_ALIVE
    }

    fn active_vertices(&self) -> Vec<VertexId> {
        self.alive_list.clone()
    }

    fn edge_slices(&self) -> Box<dyn Iterator<Item = &[VertexId]> + '_> {
        Box::new(self.live_edges.iter().map(move |&e| self.live_edge(e)))
    }

    fn dimension(&self) -> usize {
        ActiveHypergraph::dimension(self)
    }
}

impl ActiveEngine for ActiveHypergraph {
    fn from_hypergraph(h: &Hypergraph) -> Self {
        ActiveHypergraph::from_hypergraph(h)
    }

    fn reset_from(&mut self, h: &Hypergraph) {
        ActiveHypergraph::reset_from(self, h)
    }

    fn alive_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        out.extend_from_slice(self.alive_slice());
    }

    fn total_live_size(&self) -> usize {
        ActiveHypergraph::total_live_size(self)
    }

    fn kill_vertices(&mut self, vs: &[VertexId]) {
        ActiveHypergraph::kill_vertices(self, vs)
    }

    fn shrink_edges_by(&mut self, set: &[bool], vs: &[VertexId]) -> usize {
        ActiveHypergraph::shrink_edges_by(self, set, vs)
    }

    fn discard_edges_touching(&mut self, set: &[bool], vs: &[VertexId]) -> usize {
        ActiveHypergraph::discard_edges_touching(self, set, vs)
    }

    fn remove_dominated_edges(&mut self) -> usize {
        ActiveHypergraph::remove_dominated_edges(self)
    }

    fn remove_singleton_edges(&mut self) -> Vec<VertexId> {
        ActiveHypergraph::remove_singleton_edges(self)
    }

    fn induced_by(&self, marked: &[bool]) -> Self {
        ActiveHypergraph::induced_by(self, marked)
    }

    fn induced_by_into(&self, marked: &[bool], vs: &[VertexId], out: &mut Self) {
        ActiveHypergraph::induced_by_into(self, marked, vs, out)
    }

    fn contains_live_edge_within(&mut self, set: &[VertexId]) -> bool {
        ActiveHypergraph::contains_live_edge_within(self, set)
    }

    fn live_edges_owned(&self) -> Vec<Vec<VertexId>> {
        ActiveHypergraph::live_edges_owned(self)
    }

    fn compact(&self) -> (Hypergraph, Vec<VertexId>) {
        ActiveHypergraph::compact(self)
    }

    fn validate(&self) {
        self.debug_validate()
    }
}

#[cfg(feature = "reference-engine")]
pub mod reference {
    //! The original `Vec<Vec<VertexId>>`-backed `ActiveHypergraph`, preserved
    //! as the semantic oracle for the flat engine.
    //!
    //! This is the pre-flat implementation, kept byte-for-byte where possible
    //! (only the construction and trait plumbing changed). It is compiled
    //! behind the `reference-engine` feature (on by default) and used by:
    //!
    //! * `crates/hypergraph/tests/active_diff.rs` — random edit scripts
    //!   replayed against both engines;
    //! * the facade's `tests/mis_properties.rs` — whole algorithm runs
    //!   compared decision-for-decision;
    //! * the `bench` crate's `BENCH_activeset.json` regression guard.
    //!
    //! Do not optimise this module: its value is that it stays simple and
    //! obviously correct.

    use std::collections::BTreeSet;

    use super::ActiveEngine;
    use crate::graph::{Hypergraph, VertexId};
    use crate::view::HypergraphView;

    /// A mutable hypergraph view over a fixed vertex id space, backed by
    /// per-edge `Vec`s (the pre-flat representation).
    #[derive(Debug, Clone)]
    pub struct ReferenceActiveHypergraph {
        /// Size of the vertex id space (ids of the original hypergraph).
        id_space: usize,
        /// `alive[v]` — vertex `v` is still undecided.
        alive: Vec<bool>,
        /// Number of `true` entries in `alive`.
        n_alive: usize,
        /// Current edges: sorted vertex lists over alive vertices.
        edges: Vec<Vec<VertexId>>,
    }

    impl ReferenceActiveHypergraph {
        /// Creates an active copy of a full hypergraph.
        pub fn from_hypergraph(h: &Hypergraph) -> Self {
            ReferenceActiveHypergraph {
                id_space: h.n_vertices(),
                alive: vec![true; h.n_vertices()],
                n_alive: h.n_vertices(),
                edges: h.edges_owned(),
            }
        }

        /// Number of alive vertices.
        pub fn n_alive(&self) -> usize {
            self.n_alive
        }

        /// Read-only access to the current edges.
        pub fn edges(&self) -> &[Vec<VertexId>] {
            &self.edges
        }

        /// The alive vertices in increasing order.
        pub fn alive_vertices(&self) -> Vec<VertexId> {
            (0..self.id_space as u32)
                .filter(|&v| self.alive[v as usize])
                .collect()
        }

        fn kill_vertices_impl(&mut self, vs: &[VertexId]) {
            for &v in vs {
                let slot = &mut self.alive[v as usize];
                if *slot {
                    *slot = false;
                    self.n_alive -= 1;
                }
            }
        }

        fn shrink_edges_by_impl(&mut self, set: &[bool]) -> usize {
            let mut emptied = 0;
            for e in &mut self.edges {
                e.retain(|&v| !set[v as usize]);
                if e.is_empty() {
                    emptied += 1;
                }
            }
            if emptied > 0 {
                self.edges.retain(|e| !e.is_empty());
            }
            emptied
        }

        fn discard_edges_touching_impl(&mut self, set: &[bool]) -> usize {
            let before = self.edges.len();
            self.edges.retain(|e| !e.iter().any(|&v| set[v as usize]));
            before - self.edges.len()
        }

        fn remove_dominated_edges_impl(&mut self) -> usize {
            let m = self.edges.len();
            if m <= 1 {
                return 0;
            }
            let mut incidence: Vec<Vec<u32>> = vec![Vec::new(); self.id_space];
            for (i, e) in self.edges.iter().enumerate() {
                for &v in e {
                    incidence[v as usize].push(i as u32);
                }
            }
            let mut order: Vec<u32> = (0..m as u32).collect();
            order.sort_by_key(|&i| (self.edges[i as usize].len(), i));

            let mut dead = vec![false; m];
            for &i in &order {
                if dead[i as usize] {
                    continue;
                }
                let e = &self.edges[i as usize];
                let pivot = e
                    .iter()
                    .copied()
                    .min_by_key(|&v| incidence[v as usize].len())
                    .expect("edges are non-empty");
                for &cand in &incidence[pivot as usize] {
                    if cand == i || dead[cand as usize] {
                        continue;
                    }
                    let ce = &self.edges[cand as usize];
                    if ce.len() <= e.len() {
                        continue;
                    }
                    if e.iter().all(|&v| ce.binary_search(&v).is_ok()) {
                        dead[cand as usize] = true;
                    }
                }
            }
            let removed = dead.iter().filter(|&&d| d).count();
            if removed > 0 {
                let mut idx = 0;
                self.edges.retain(|_| {
                    let keep = !dead[idx];
                    idx += 1;
                    keep
                });
            }
            removed
        }

        fn remove_singleton_edges_impl(&mut self) -> Vec<VertexId> {
            let mut killed = BTreeSet::new();
            for e in &self.edges {
                if e.len() == 1 {
                    killed.insert(e[0]);
                }
            }
            if killed.is_empty() {
                return Vec::new();
            }
            self.edges.retain(|e| e.len() != 1);
            let mut flag = vec![false; self.id_space];
            for &v in &killed {
                flag[v as usize] = true;
            }
            self.discard_edges_touching_impl(&flag);
            let killed: Vec<VertexId> = killed.into_iter().collect();
            self.kill_vertices_impl(&killed);
            killed
        }

        fn induced_by_impl(&self, marked: &[bool]) -> Self {
            let mut alive = vec![false; self.id_space];
            let mut n_alive = 0;
            for v in 0..self.id_space {
                if self.alive[v] && marked[v] {
                    alive[v] = true;
                    n_alive += 1;
                }
            }
            let edges: Vec<Vec<VertexId>> = self
                .edges
                .iter()
                .filter(|e| e.iter().all(|&v| alive[v as usize]))
                .cloned()
                .collect();
            ReferenceActiveHypergraph {
                id_space: self.id_space,
                alive,
                n_alive,
                edges,
            }
        }

        /// Checks internal invariants.
        pub fn debug_validate(&self) {
            debug_assert_eq!(
                self.n_alive,
                self.alive.iter().filter(|&&a| a).count(),
                "n_alive out of sync"
            );
            for e in &self.edges {
                debug_assert!(!e.is_empty(), "empty edge");
                debug_assert!(
                    e.windows(2).all(|w| w[0] < w[1]),
                    "edge not sorted/deduplicated: {e:?}"
                );
                for &v in e {
                    debug_assert!((v as usize) < self.id_space, "vertex out of range");
                    debug_assert!(self.alive[v as usize], "edge mentions dead vertex {v}");
                }
            }
        }
    }

    impl HypergraphView for ReferenceActiveHypergraph {
        fn id_space(&self) -> usize {
            self.id_space
        }

        fn n_active_vertices(&self) -> usize {
            self.n_alive
        }

        fn n_active_edges(&self) -> usize {
            self.edges.len()
        }

        fn is_active(&self, v: VertexId) -> bool {
            self.alive[v as usize]
        }

        fn active_vertices(&self) -> Vec<VertexId> {
            self.alive_vertices()
        }

        fn edge_slices(&self) -> Box<dyn Iterator<Item = &[VertexId]> + '_> {
            Box::new(self.edges.iter().map(|e| e.as_slice()))
        }
    }

    impl ActiveEngine for ReferenceActiveHypergraph {
        fn from_hypergraph(h: &Hypergraph) -> Self {
            ReferenceActiveHypergraph::from_hypergraph(h)
        }

        fn total_live_size(&self) -> usize {
            self.edges.iter().map(|e| e.len()).sum()
        }

        fn kill_vertices(&mut self, vs: &[VertexId]) {
            self.kill_vertices_impl(vs)
        }

        fn shrink_edges_by(&mut self, set: &[bool], _vs: &[VertexId]) -> usize {
            self.shrink_edges_by_impl(set)
        }

        fn discard_edges_touching(&mut self, set: &[bool], _vs: &[VertexId]) -> usize {
            self.discard_edges_touching_impl(set)
        }

        fn remove_dominated_edges(&mut self) -> usize {
            self.remove_dominated_edges_impl()
        }

        fn remove_singleton_edges(&mut self) -> Vec<VertexId> {
            self.remove_singleton_edges_impl()
        }

        fn induced_by(&self, marked: &[bool]) -> Self {
            self.induced_by_impl(marked)
        }

        fn contains_live_edge_within(&mut self, set: &[VertexId]) -> bool {
            let mut member = vec![false; self.id_space];
            for &v in set {
                member[v as usize] = true;
            }
            self.edges
                .iter()
                .any(|e| e.iter().all(|&v| member[v as usize]))
        }

        fn live_edges_owned(&self) -> Vec<Vec<VertexId>> {
            self.edges.clone()
        }

        fn compact(&self) -> (Hypergraph, Vec<VertexId>) {
            let mut new_to_old = Vec::with_capacity(self.n_alive);
            let mut old_to_new = vec![u32::MAX; self.id_space];
            for (v, slot) in old_to_new.iter_mut().enumerate() {
                if self.alive[v] {
                    *slot = new_to_old.len() as u32;
                    new_to_old.push(v as u32);
                }
            }
            let edges: Vec<Vec<VertexId>> = self
                .edges
                .iter()
                .map(|e| e.iter().map(|&v| old_to_new[v as usize]).collect())
                .collect();
            (
                Hypergraph::from_sorted_edges(new_to_old.len() as u32, edges),
                new_to_old,
            )
        }

        fn validate(&self) {
            self.debug_validate()
        }
    }
}

/// Compile-time audit of the Send/Sync bounds the sharded serving layer
/// relies on: resident graphs are shared read-only across shard worker
/// threads (`Sync`) and shard-local engines move into long-lived workers
/// (`Send`). If a future change introduces `Rc`/`RefCell`/raw-pointer state,
/// this stops compiling instead of the serve layer subtly breaking.
#[allow(dead_code)]
fn assert_engines_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Hypergraph>();
    assert_send_sync::<ActiveHypergraph>();
    #[cfg(feature = "reference-engine")]
    assert_send_sync::<reference::ReferenceActiveHypergraph>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_edges;

    fn toy() -> ActiveHypergraph {
        let h = hypergraph_from_edges(
            6,
            vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 1, 2, 3]],
        );
        ActiveHypergraph::from_hypergraph(&h)
    }

    #[test]
    fn from_hypergraph_copies_everything() {
        let ah = toy();
        assert_eq!(ah.n_alive(), 6);
        assert_eq!(ah.n_edges(), 4);
        assert_eq!(ah.dimension(), 4);
        assert_eq!(ah.total_live_size(), 12);
        ah.debug_validate();
    }

    #[test]
    fn kill_and_shrink() {
        let mut ah = toy();
        // Vertex 2 joins the IS: trim it out of every edge.
        let mut set = vec![false; 6];
        set[2] = true;
        ah.kill_vertices(&[2]);
        let emptied = ah.shrink_edges_by(&set, &[2]);
        assert_eq!(emptied, 0);
        assert_eq!(ah.n_alive(), 5);
        assert_eq!(ah.alive_slice(), &[0, 1, 3, 4, 5]);
        let edges = ah.live_edges_owned();
        assert!(edges.iter().all(|e| !e.contains(&2)));
        // Edge {2,3} became {3}; {0,1,2} became {0,1}; {0,1,2,3} became {0,1,3}.
        assert!(edges.contains(&vec![3]));
        assert!(edges.contains(&vec![0, 1]));
        assert!(edges.contains(&vec![0, 1, 3]));
    }

    #[test]
    fn shrink_reports_emptied_edges() {
        let h = hypergraph_from_edges(3, vec![vec![0, 1]]);
        let mut ah = ActiveHypergraph::from_hypergraph(&h);
        let set = vec![true, true, false];
        ah.kill_vertices(&[0, 1]);
        let emptied = ah.shrink_edges_by(&set, &[0, 1]);
        assert_eq!(emptied, 1);
        assert_eq!(ah.n_edges(), 0);
        assert_eq!(ah.edge_status(0), EDGE_EMPTIED);
        ah.debug_validate();
    }

    #[test]
    fn discard_edges_touching_red() {
        let mut ah = toy();
        let mut red = vec![false; 6];
        red[4] = true;
        let removed = ah.discard_edges_touching(&red, &[4]);
        assert_eq!(removed, 1); // only {3,4,5}
        assert_eq!(ah.n_edges(), 3);
        assert_eq!(ah.edge_status(2), EDGE_DISCARDED);
    }

    #[test]
    fn dominated_edges_are_removed() {
        let mut ah = toy();
        let removed = ah.remove_dominated_edges();
        // {0,1,2,3} strictly contains {0,1,2} and {2,3}.
        assert_eq!(removed, 1);
        assert_eq!(ah.n_edges(), 3);
        assert!(!ah.live_edges_owned().contains(&vec![0, 1, 2, 3]));
        assert_eq!(ah.edge_status(3), EDGE_DOMINATED);
    }

    #[test]
    fn dominated_chain() {
        let h = hypergraph_from_edges(5, vec![vec![0], vec![0, 1], vec![0, 1, 2], vec![3, 4]]);
        let mut ah = ActiveHypergraph::from_hypergraph(&h);
        let removed = ah.remove_dominated_edges();
        assert_eq!(removed, 2);
        assert_eq!(ah.n_edges(), 2);
        let edges = ah.live_edges_owned();
        assert!(edges.contains(&vec![0]));
        assert!(edges.contains(&vec![3, 4]));
    }

    #[test]
    fn equal_live_sets_are_both_kept() {
        // {0,1,2} and {0,1,3} both trim to {0,1}: neither strictly contains
        // the other, so the dominated sweep keeps both (matching the
        // reference engine's behaviour for post-trim duplicates).
        let h = hypergraph_from_edges(4, vec![vec![0, 1, 2], vec![0, 1, 3]]);
        let mut ah = ActiveHypergraph::from_hypergraph(&h);
        let mut set = vec![false; 4];
        set[2] = true;
        set[3] = true;
        ah.kill_vertices(&[2, 3]);
        ah.shrink_edges_by(&set, &[2, 3]);
        assert_eq!(ah.remove_dominated_edges(), 0);
        assert_eq!(ah.n_edges(), 2);
    }

    #[test]
    fn singleton_removal_kills_vertex_and_satisfied_edges() {
        let h = hypergraph_from_edges(4, vec![vec![1], vec![1, 2], vec![2, 3]]);
        let mut ah = ActiveHypergraph::from_hypergraph(&h);
        let killed = ah.remove_singleton_edges();
        assert_eq!(killed, vec![1]);
        assert!(!ah.is_alive(1));
        // {1} gone, {1,2} discarded (contains the now-red vertex 1), {2,3} stays.
        assert_eq!(ah.n_edges(), 1);
        assert_eq!(ah.live_edges_owned(), vec![vec![2, 3]]);
        ah.debug_validate();
    }

    #[test]
    fn induced_subhypergraph_keeps_only_contained_edges() {
        let ah = toy();
        let mut marked = vec![false; 6];
        for v in [0, 1, 2] {
            marked[v] = true;
        }
        let sub = ah.induced_by(&marked);
        assert_eq!(sub.n_alive(), 3);
        assert_eq!(sub.n_edges(), 1); // only {0,1,2}
        assert_eq!(sub.live_edges_owned(), vec![vec![0, 1, 2]]);
        sub.debug_validate();
    }

    #[test]
    fn compact_relabels_densely() {
        let mut ah = toy();
        ah.kill_vertices(&[0, 2]);
        let mut set = vec![false; 6];
        set[0] = true;
        set[2] = true;
        ah.discard_edges_touching(&set, &[0, 2]);
        let (h, new_to_old) = ah.compact();
        assert_eq!(h.n_vertices(), 4);
        assert_eq!(new_to_old, vec![1, 3, 4, 5]);
        // Remaining edge {3,4,5} maps to {1,2,3} in new ids.
        assert_eq!(h.n_edges(), 1);
        assert_eq!(h.edge(0), &[1, 2, 3]);
    }

    #[test]
    fn view_impl_matches_direct_accessors() {
        let ah = toy();
        let v: &dyn HypergraphView = &ah;
        assert_eq!(v.n_active_vertices(), ah.n_alive());
        assert_eq!(v.n_active_edges(), ah.n_edges());
        assert_eq!(v.dimension(), 4);
        assert!(v.is_independent_in_view(&[0, 1, 3]));
        assert!(!v.is_independent_in_view(&[2, 3]));
    }

    #[test]
    fn contains_live_edge_within_matches_view_oracle() {
        let mut ah = toy();
        for set in [vec![0u32, 1, 3], vec![2, 3], vec![3, 4, 5], vec![]] {
            let expected = !ah.is_independent_in_view(&set);
            assert_eq!(ah.contains_live_edge_within(&set), expected, "{set:?}");
        }
    }

    #[test]
    fn epoch_stamps_do_not_leak_between_queries() {
        let mut ah = toy();
        // First query stamps {0,1,2}; second query with a disjoint set must
        // not see those stamps.
        assert!(ah.contains_live_edge_within(&[0, 1, 2]));
        assert!(!ah.contains_live_edge_within(&[3, 4]));
        assert!(ah.contains_live_edge_within(&[3, 4, 5]));
    }

    #[test]
    fn from_parts_round_trips() {
        let ah = ActiveHypergraph::from_parts(
            vec![true, false, true, true],
            vec![vec![0, 2], vec![2, 3]],
        );
        assert_eq!(ah.n_alive(), 3);
        assert_eq!(ah.n_edges(), 2);
        assert_eq!(ah.alive_slice(), &[0, 2, 3]);
    }

    #[test]
    fn reset_from_matches_fresh_construction() {
        let h1 = hypergraph_from_edges(
            6,
            vec![vec![0, 1, 2], vec![2, 3], vec![3, 4, 5], vec![0, 1, 2, 3]],
        );
        let h2 = hypergraph_from_edges(4, vec![vec![0, 3], vec![1, 2, 3]]);
        // Dirty the engine thoroughly on h1, then reset to h2 and compare
        // against a fresh engine — including behaviour, not just state.
        let mut recycled = ActiveHypergraph::from_hypergraph(&h1);
        recycled.remove_dominated_edges();
        recycled.kill_vertices(&[0, 2]);
        let mut set = vec![false; 6];
        set[0] = true;
        set[2] = true;
        recycled.discard_edges_touching(&set, &[0, 2]);
        assert!(recycled.contains_live_edge_within(&[3, 4, 5]));

        recycled.reset_from(&h2);
        let fresh = ActiveHypergraph::from_hypergraph(&h2);
        assert_eq!(recycled.n_alive(), fresh.n_alive());
        assert_eq!(recycled.alive_vertices(), fresh.alive_vertices());
        assert_eq!(recycled.live_edges_owned(), fresh.live_edges_owned());
        assert_eq!(recycled.id_space(), fresh.id_space());
        recycled.debug_validate();
        // Epoch-stamped queries must not leak pre-reset state.
        assert!(recycled.contains_live_edge_within(&[0, 3]));
        assert!(!recycled.contains_live_edge_within(&[0, 1, 2]));
        // And the incidence fast path must be live again after reset.
        let mut a = recycled.clone();
        let mut b = fresh.clone();
        let mut blue = vec![false; 4];
        blue[3] = true;
        a.kill_vertices(&[3]);
        b.kill_vertices(&[3]);
        assert_eq!(
            a.shrink_edges_by(&blue, &[3]),
            b.shrink_edges_by(&blue, &[3])
        );
        assert_eq!(a.live_edges_owned(), b.live_edges_owned());
    }

    #[test]
    fn induced_by_into_matches_induced_by_on_dirty_reuse() {
        let h = hypergraph_from_edges(
            8,
            vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![0, 1, 2, 3],
                vec![5, 6, 7],
            ],
        );
        let parent = ActiveHypergraph::from_hypergraph(&h);
        // Reused target engine, deliberately dirty and over a different id
        // space.
        let mut out = ActiveHypergraph::from_parts(vec![true, true, false], vec![vec![0, 1]]);
        for mark_set in [vec![0u32, 1, 2, 3], vec![2, 3, 4, 5], vec![], vec![5, 6, 7]] {
            let mut marked = vec![false; 8];
            for &v in &mark_set {
                marked[v as usize] = true;
            }
            let expected = parent.induced_by(&marked);
            parent.induced_by_into(&marked, &mark_set, &mut out);
            assert_eq!(out.n_alive(), expected.n_alive(), "{mark_set:?}");
            assert_eq!(out.alive_vertices(), expected.alive_vertices());
            assert_eq!(out.live_edges_owned(), expected.live_edges_owned());
            assert_eq!(out.id_space(), expected.id_space());
            out.debug_validate();
        }
        // The compact incidence must direct updates to the same results as
        // the expected (index-free) sub-engine.
        let mut marked = vec![false; 8];
        for v in [0, 1, 2, 3] {
            marked[v] = true;
        }
        let mut expected = parent.induced_by(&marked);
        parent.induced_by_into(&marked, &[0, 1, 2, 3], &mut out);
        let killed_a = out.remove_singleton_edges();
        let killed_b = expected.remove_singleton_edges();
        assert_eq!(killed_a, killed_b);
        let mut blue = vec![false; 8];
        blue[1] = true;
        out.kill_vertices(&[1]);
        expected.kill_vertices(&[1]);
        assert_eq!(
            out.shrink_edges_by(&blue, &[1]),
            expected.shrink_edges_by(&blue, &[1])
        );
        assert_eq!(out.live_edges_owned(), expected.live_edges_owned());
    }

    #[test]
    fn induced_by_into_of_edgeless_mark_set() {
        let ah = toy();
        let mut out = ActiveHypergraph::from_parts(vec![true; 2], vec![vec![0, 1]]);
        let marked = vec![false; 6];
        ah.induced_by_into(&marked, &[], &mut out);
        assert_eq!(out.n_alive(), 0);
        assert_eq!(out.n_edges(), 0);
        out.debug_validate();
    }

    /// The induce walk that `keep_incident_edges` replaced, kept as its
    /// oracle: every live incident edge of `vs` is pushed, the whole list
    /// sorted and deduplicated, and each candidate re-checked by
    /// `keep_edges_inside`.
    impl ActiveHypergraph {
        fn keep_incident_edges_by_sort<'g>(
            &mut self,
            vs: &[VertexId],
            budget: usize,
            incident: impl Fn(VertexId) -> &'g [EdgeId],
            is_live: impl Fn(EdgeId) -> bool,
            live_edge: impl Fn(EdgeId) -> &'g [VertexId],
        ) -> bool {
            let mut cand = Vec::new();
            let mut walked = 0usize;
            for &v in vs {
                let incident = incident(v);
                walked += incident.len();
                if walked > budget {
                    return false;
                }
                cand.extend(incident.iter().filter(|&&e| is_live(e)));
            }
            cand.sort_unstable();
            cand.dedup();
            self.keep_edges_inside(cand.iter().map(|&e| live_edge(e)));
            true
        }

        /// [`reset_induced`](Self::reset_induced) over the oracle walk.
        fn reset_induced_by_sort(&mut self, h: &Hypergraph, vs: &[VertexId]) {
            self.begin_induced(h.n_vertices(), vs, |_| true);
            let walked = self.keep_incident_edges_by_sort(
                vs,
                h.total_edge_size() / 4,
                |v| h.incident_edges(v),
                |_| true,
                |e| h.edge(e),
            );
            if !walked {
                self.keep_edges_inside(h.edges());
            }
            self.finish_induced();
        }

        /// [`induced_by_into`](Self::induced_by_into) over the oracle walk.
        fn induced_by_into_by_sort(&self, vs: &[VertexId], out: &mut ActiveHypergraph) {
            out.begin_induced(self.id_space, vs, |v| self.status[v as usize] == V_ALIVE);
            let walked = !matches!(self.incidence, IncidenceIndex::None)
                && out.keep_incident_edges_by_sort(
                    vs,
                    self.total_live_size() / 4,
                    |v| self.incidence.incident(v).expect("checked above"),
                    |e| self.edge_status[e as usize] == EDGE_LIVE,
                    |e| self.live_edge(e),
                );
            if !walked {
                out.keep_edges_inside(self.live_edges.iter().map(|&e| self.live_edge(e)));
            }
            out.finish_induced();
        }
    }

    /// Everything an induce writes (arena, live lengths, alive set,
    /// frontier, compact incidence), leaving out scratch and epoch stamps.
    #[allow(clippy::type_complexity)]
    fn induced_state(
        e: &ActiveHypergraph,
    ) -> (
        usize,
        &[u8],
        &[VertexId],
        &[u32],
        &[VertexId],
        &[u32],
        &[u8],
        &[EdgeId],
        &IncidenceIndex,
    ) {
        (
            e.id_space,
            &e.status,
            &e.alive_list,
            &e.edge_offsets,
            &e.edge_vertices,
            &e.live_len,
            &e.edge_status,
            &e.live_edges,
            &e.incidence,
        )
    }

    /// A random graph for the walk oracle: up to 60 edges of 1–20 members
    /// over at most 48 vertices (singletons included), a few edges
    /// duplicated as `compact` can leave them, optionally a hub in 512–575
    /// more edges of 2–20 members, and up to 8 grown isolated vertices.
    fn walk_oracle_graph(rng: &mut rand_chacha::ChaCha8Rng) -> Hypergraph {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let hub = rng.gen_bool(0.3);
        let n = if hub {
            rng.gen_range(64u32..=160)
        } else {
            rng.gen_range(1u32..=48)
        };
        let pool: Vec<VertexId> = (0..n).collect();
        let random_edge = |rng: &mut rand_chacha::ChaCha8Rng, size: usize| {
            let mut e = pool.clone();
            e.shuffle(rng);
            e.truncate(size);
            e.sort_unstable();
            e
        };
        let mut edges: Vec<Vec<VertexId>> = Vec::new();
        for _ in 0..rng.gen_range(0..=60) {
            let size = if rng.gen_bool(0.15) {
                1
            } else {
                rng.gen_range(1..=20usize.min(n as usize))
            };
            edges.push(random_edge(rng, size));
        }
        for _ in 0..rng.gen_range(0..=4) {
            if !edges.is_empty() {
                let e = edges[rng.gen_range(0..edges.len())].clone();
                edges.insert(rng.gen_range(0..=edges.len()), e);
            }
        }
        if hub {
            let hub = rng.gen_range(0..n);
            for _ in 0..rng.gen_range(512..576) {
                let size = rng.gen_range(1..=19);
                let mut e = random_edge(rng, size + 1);
                e.retain(|&v| v != hub);
                e.truncate(size);
                e.push(hub);
                e.sort_unstable();
                edges.push(e);
            }
        }
        Hypergraph::from_sorted_edges(n + rng.gen_range(0u32..=8), edges)
    }

    /// Queries against an id space of `n`: empty, ascending, unsorted, one
    /// around the vertex of highest degree and its edges (the hub), one of
    /// a random edge's members, and the whole id space.
    fn walk_oracle_queries(
        rng: &mut rand_chacha::ChaCha8Rng,
        h: &Hypergraph,
    ) -> Vec<Vec<VertexId>> {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let n = h.n_vertices() as u32;
        let mut ids: Vec<VertexId> = (0..n).collect();
        let mut queries = vec![Vec::new()];
        for _ in 0..4 {
            ids.shuffle(rng);
            let mut q = ids[..rng.gen_range(0..=12.min(ids.len()))].to_vec();
            if rng.gen_bool(0.5) {
                q.sort_unstable();
            }
            queries.push(q);
        }
        let hub = (0..n).max_by_key(|&v| h.degree(v)).unwrap_or(0);
        if n > 0 && h.n_edges() > 0 {
            let mut q = vec![hub];
            for _ in 0..3 {
                let e = h.incident_edges(hub).choose(rng).copied();
                q.extend(e.map_or(&[][..], |e| h.edge(e)));
            }
            let e = h.edge(rng.gen_range(0..h.n_edges() as EdgeId));
            q.extend_from_slice(e);
            q.sort_unstable();
            q.dedup();
            q.shuffle(rng);
            queries.push(q);
            let e = h.edge(rng.gen_range(0..h.n_edges() as EdgeId));
            queries.push(e.to_vec());
        }
        queries.push((0..n).collect());
        queries
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The walk that keeps each inside edge at its smallest member
        /// writes the same sub-engine as the sort-and-dedup walk it
        /// replaced — arena, live lengths, frontier and compact incidence —
        /// through `reset_induced` on a reused engine, and through
        /// `induced_by_into` from a dirty full-incidence parent (trimmed
        /// members, discarded edges) and from a dirty compact-incidence
        /// sub-engine.
        #[test]
        fn induce_walk_matches_the_sorting_oracle(seed in any::<u64>()) {
            use rand::SeedableRng;
            let rng = &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let h = walk_oracle_graph(rng);
            let queries = walk_oracle_queries(rng, &h);
            let n = h.n_vertices();

            let dirty = || ActiveHypergraph::from_parts(vec![true, true, false], vec![vec![0, 1]]);
            let (mut walk, mut oracle) = (dirty(), dirty());
            for q in &queries {
                walk.reset_induced(&h, q);
                oracle.reset_induced_by_sort(&h, q);
                prop_assert_eq!(induced_state(&walk), induced_state(&oracle));
            }

            let flags = |vs: &[VertexId]| {
                let mut f = vec![false; n];
                for &v in vs {
                    f[v as usize] = true;
                }
                f
            };

            // A parent with trimmed members and discarded edges.
            let mut parent = ActiveHypergraph::from_hypergraph(&h);
            let blues: Vec<VertexId> = queries[1].iter().copied().take(4).collect();
            parent.kill_vertices(&blues);
            parent.shrink_edges_by(&flags(&blues), &blues);
            let reds: Vec<VertexId> = queries[2]
                .iter()
                .copied()
                .filter(|v| !blues.contains(v))
                .take(2)
                .collect();
            parent.kill_vertices(&reds);
            parent.discard_edges_touching(&flags(&reds), &reds);

            for q in &queries {
                parent.induced_by_into(&flags(q), q, &mut walk);
                parent.induced_by_into_by_sort(q, &mut oracle);
                prop_assert_eq!(induced_state(&walk), induced_state(&oracle));
            }

            // A compact-incidence parent: the whole-set induce, trimmed.
            let whole = queries.last().expect("the whole id space");
            let mut sub = ActiveHypergraph::from_parts(Vec::new(), Vec::new());
            parent.induced_by_into(&flags(whole), whole, &mut sub);
            let trim: Vec<VertexId> = sub.alive_slice().iter().copied().step_by(5).collect();
            sub.kill_vertices(&trim);
            sub.shrink_edges_by(&flags(&trim), &trim);
            for q in &queries {
                sub.induced_by_into(&flags(q), q, &mut walk);
                sub.induced_by_into_by_sort(q, &mut oracle);
                prop_assert_eq!(induced_state(&walk), induced_state(&oracle));
            }
        }
    }

    #[cfg(feature = "reference-engine")]
    #[test]
    fn flat_and_reference_agree_on_a_small_script() {
        use super::reference::ReferenceActiveHypergraph;
        let h = hypergraph_from_edges(
            8,
            vec![
                vec![0, 1, 2],
                vec![2, 3],
                vec![3, 4, 5],
                vec![0, 1, 2, 3],
                vec![6],
                vec![5, 6, 7],
            ],
        );
        let mut flat = ActiveHypergraph::from_hypergraph(&h);
        let mut reference = ReferenceActiveHypergraph::from_hypergraph(&h);

        let same = |f: &ActiveHypergraph, r: &ReferenceActiveHypergraph| {
            assert_eq!(f.n_alive(), ActiveEngine::n_alive(r));
            assert_eq!(f.alive_vertices(), ActiveEngine::alive_vertices(r));
            assert_eq!(f.live_edges_owned(), ActiveEngine::live_edges_owned(r));
            assert_eq!(HypergraphView::dimension(f), HypergraphView::dimension(r));
        };

        assert_eq!(
            flat.remove_singleton_edges(),
            ActiveEngine::remove_singleton_edges(&mut reference)
        );
        same(&flat, &reference);

        assert_eq!(
            flat.remove_dominated_edges(),
            ActiveEngine::remove_dominated_edges(&mut reference)
        );
        same(&flat, &reference);

        let mut blue = vec![false; 8];
        blue[2] = true;
        flat.kill_vertices(&[2]);
        ActiveEngine::kill_vertices(&mut reference, &[2]);
        assert_eq!(
            flat.shrink_edges_by(&blue, &[2]),
            ActiveEngine::shrink_edges_by(&mut reference, &blue, &[2])
        );
        same(&flat, &reference);

        let mut red = vec![false; 8];
        red[4] = true;
        flat.kill_vertices(&[4]);
        ActiveEngine::kill_vertices(&mut reference, &[4]);
        assert_eq!(
            flat.discard_edges_touching(&red, &[4]),
            ActiveEngine::discard_edges_touching(&mut reference, &red, &[4])
        );
        same(&flat, &reference);

        let mut marked = vec![false; 8];
        for v in [0, 1, 3, 5] {
            marked[v] = true;
        }
        let fs = flat.induced_by(&marked);
        let rs = ActiveEngine::induced_by(&reference, &marked);
        same(&fs, &rs);
    }
}
