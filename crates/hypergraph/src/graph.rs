//! The immutable [`Hypergraph`] arena and its accessors.
//!
//! A [`Hypergraph`] stores every edge as a sorted slice of vertex ids inside a
//! single flat `Vec` (CSR layout), plus the reverse vertex→edge incidence
//! index in the same layout. This keeps the per-round scans of the parallel
//! algorithms cache-friendly and allocation-free.

use pram::mmap::U32Span;
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a vertex: a dense index in `0..n`.
pub type VertexId = u32;

/// Identifier of an edge: a dense index in `0..m`.
pub type EdgeId = u32;

/// Backing storage for one CSR array: an owned heap vector (the result of
/// building or parsing) or a validated window of a shared read-only file
/// mapping (the result of [`crate::io::open_mapped`]).
///
/// Every accessor routes through [`as_slice`](Self::as_slice), so the two
/// tiers are behaviourally identical — a mapped [`Hypergraph`] answers every
/// query byte-for-byte like its owned twin, and engine construction (which
/// consumes the CSR through plain slices) runs directly on the mapping with
/// no copy. Cloning a mapped array bumps the mapping's `Arc`; cloning an
/// owned array copies, exactly as before the tier existed.
#[derive(Clone)]
pub(crate) enum CsrStorage {
    /// Heap-owned words.
    Owned(Vec<u32>),
    /// A bounds- and alignment-validated window of a shared mapping.
    Mapped(U32Span),
}

impl CsrStorage {
    /// The words, wherever they live.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            CsrStorage::Owned(v) => v,
            CsrStorage::Mapped(s) => s.as_slice(),
        }
    }

    /// Whether the words live in a file mapping.
    #[inline]
    fn is_mapped(&self) -> bool {
        matches!(self, CsrStorage::Mapped(_))
    }
}

impl From<Vec<u32>> for CsrStorage {
    fn from(v: Vec<u32>) -> Self {
        CsrStorage::Owned(v)
    }
}

/// An immutable hypergraph `H = (V, E)` with `V = {0, …, n-1}` and edges
/// stored as sorted vertex lists.
///
/// Construct one with [`HypergraphBuilder`](crate::builder::HypergraphBuilder)
/// or one of the [`generate`](crate::generate) functions.
///
/// # Example
/// ```
/// use hypergraph::HypergraphBuilder;
///
/// let mut b = HypergraphBuilder::new(5);
/// b.add_edge([0, 1, 2]);
/// b.add_edge([2, 3]);
/// let h = b.build();
/// assert_eq!(h.n_vertices(), 5);
/// assert_eq!(h.n_edges(), 2);
/// assert_eq!(h.dimension(), 3);
/// assert_eq!(h.edge(0), &[0, 1, 2]);
/// assert_eq!(h.incident_edges(2), &[0, 1]);
/// ```
#[derive(Clone)]
pub struct Hypergraph {
    n: u32,
    /// CSR offsets into `edge_vertices`; length `m + 1`.
    edge_offsets: CsrStorage,
    /// Concatenated, per-edge-sorted vertex lists.
    edge_vertices: CsrStorage,
    /// CSR offsets into `incident`; length `n + 1`.
    inc_offsets: CsrStorage,
    /// Concatenated, per-vertex-sorted lists of incident edge ids.
    incident: CsrStorage,
    /// Maximum edge cardinality (0 for an edgeless hypergraph).
    dim: u32,
}

impl PartialEq for Hypergraph {
    /// Content equality across storage tiers: a mapped graph equals its
    /// owned twin whenever the four CSR arrays hold the same words.
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.dim == other.dim
            && self.edge_offsets.as_slice() == other.edge_offsets.as_slice()
            && self.edge_vertices.as_slice() == other.edge_vertices.as_slice()
            && self.inc_offsets.as_slice() == other.inc_offsets.as_slice()
            && self.incident.as_slice() == other.incident.as_slice()
    }
}

impl Eq for Hypergraph {}

impl Hypergraph {
    /// Builds the arena from a vertex count and a list of edges.
    ///
    /// Every edge must be sorted, duplicate-free, non-empty and reference only
    /// vertices `< n`. The builder enforces these invariants; this constructor
    /// asserts them in debug builds. The list is consumed while it is
    /// flattened, so each edge's `Vec` is freed as soon as it is copied.
    pub(crate) fn from_sorted_edges(n: u32, edges: Vec<Vec<VertexId>>) -> Self {
        let total: usize = edges.iter().map(|e| e.len()).sum();
        let mut edge_offsets = Vec::with_capacity(edges.len() + 1);
        let mut edge_vertices = Vec::with_capacity(total);
        edge_offsets.push(0u32);
        for e in edges {
            edge_vertices.extend_from_slice(&e);
            edge_offsets.push(edge_vertices.len() as u32);
        }
        Self::from_edge_csr(n, edge_offsets, edge_vertices)
    }

    /// Builds the arena from an edge CSR: `offsets` (length `m + 1`,
    /// starting at 0) delimiting each edge's run of `vertices`. Derives
    /// `dim` and the vertex -> edge incidence index, the latter with one
    /// counting sort, so each vertex's incident edges come out ascending.
    /// ([`apply_edits`](crate::edit::apply_edits) lays out the same index
    /// by patching the base graph's instead.)
    ///
    /// Every edge must be sorted, duplicate-free, non-empty and reference only
    /// vertices `< n`; asserted in debug builds.
    pub(crate) fn from_edge_csr(n: u32, offsets: Vec<u32>, vertices: Vec<VertexId>) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        debug_assert_eq!(
            offsets.last().map(|&o| o as usize),
            Some(vertices.len()),
            "offsets must span the vertex array"
        );
        if cfg!(debug_assertions) {
            for w in offsets.windows(2) {
                let e = &vertices[w[0] as usize..w[1] as usize];
                assert!(!e.is_empty(), "edges must be non-empty");
                assert!(
                    e.windows(2).all(|w| w[0] < w[1]),
                    "edges must be sorted and duplicate-free"
                );
                assert!(e.iter().all(|&v| v < n), "edge vertex out of range");
            }
        }
        let dim = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);

        // Build the vertex -> edge incidence index with a counting pass.
        let mut counts = vec![0u32; n as usize + 1];
        for &v in &vertices {
            counts[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            counts[i + 1] += counts[i];
        }
        let inc_offsets = counts.clone();
        let mut cursor = counts;
        let mut incident = vec![0u32; vertices.len()];
        for (eid, w) in offsets.windows(2).enumerate() {
            for &v in &vertices[w[0] as usize..w[1] as usize] {
                let slot = cursor[v as usize];
                incident[slot as usize] = eid as EdgeId;
                cursor[v as usize] += 1;
            }
        }

        Hypergraph {
            n,
            edge_offsets: offsets.into(),
            edge_vertices: vertices.into(),
            inc_offsets: inc_offsets.into(),
            incident: incident.into(),
            dim,
        }
    }

    /// Builds the arena directly from already-validated CSR parts.
    ///
    /// `pub(crate)`: the binary snapshot reader in [`crate::io`] fully
    /// validates structure (monotonic bounded offsets, sorted
    /// duplicate-free non-empty edges, a consistent incidence index and an
    /// exact `dim`) before any array reaches this constructor — mapped or
    /// owned alike; [`apply_edits`](crate::edit::apply_edits) derives every
    /// part from a valid base graph, laid out as [`Self::from_edge_csr`]
    /// would.
    pub(crate) fn from_validated_csr(
        n: u32,
        dim: u32,
        edge_offsets: CsrStorage,
        edge_vertices: CsrStorage,
        inc_offsets: CsrStorage,
        incident: CsrStorage,
    ) -> Self {
        debug_assert_eq!(edge_vertices.as_slice().len(), incident.as_slice().len());
        debug_assert_eq!(inc_offsets.as_slice().len(), n as usize + 1);
        debug_assert!(!edge_offsets.as_slice().is_empty());
        Hypergraph {
            n,
            edge_offsets,
            edge_vertices,
            inc_offsets,
            incident,
            dim,
        }
    }

    /// Whether the base CSR arrays live in a read-only file mapping (the
    /// out-of-core tier of [`crate::io::open_mapped`]) rather than on the
    /// heap. Observability only — the two tiers answer identically.
    pub fn is_mapped(&self) -> bool {
        self.edge_offsets.is_mapped()
    }

    /// The storage tier of the base CSR arrays: `"mapped"` for graphs opened
    /// from an on-disk snapshot via [`crate::io::open_mapped`], `"owned"`
    /// for everything built or parsed on the heap.
    pub fn storage_kind(&self) -> &'static str {
        if self.is_mapped() {
            "mapped"
        } else {
            "owned"
        }
    }

    /// Bytes of the four CSR arrays backing this arena. For owned graphs
    /// this is heap footprint; for mapped graphs it is the size of the
    /// mapped window (which the OS may page in and out on demand).
    pub fn bytes_resident(&self) -> usize {
        4 * (self.edge_offsets.as_slice().len()
            + self.edge_vertices.as_slice().len()
            + self.inc_offsets.as_slice().len()
            + self.incident.as_slice().len())
    }

    /// Number of vertices `n = |V|`.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n as usize
    }

    /// Number of edges `m = |E|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edge_offsets.as_slice().len() - 1
    }

    /// Dimension: the maximum edge cardinality (0 if there are no edges).
    #[inline]
    pub fn dimension(&self) -> usize {
        self.dim as usize
    }

    /// The sorted vertex list of edge `e`.
    ///
    /// # Panics
    /// Panics if `e >= self.n_edges()`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &[VertexId] {
        let offsets = self.edge_offsets.as_slice();
        let lo = offsets[e as usize] as usize;
        let hi = offsets[e as usize + 1] as usize;
        &self.edge_vertices.as_slice()[lo..hi]
    }

    /// Cardinality of edge `e`.
    #[inline]
    pub fn edge_len(&self, e: EdgeId) -> usize {
        let offsets = self.edge_offsets.as_slice();
        (offsets[e as usize + 1] - offsets[e as usize]) as usize
    }

    /// Iterator over all edges as sorted vertex slices, in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = &[VertexId]> + '_ {
        (0..self.n_edges() as EdgeId).map(move |e| self.edge(e))
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.n
    }

    /// The raw incidence CSR (offsets of length `n + 1`, concatenated edge
    /// ids), used by the active engine to seed its incidence-directed
    /// trimming path.
    #[inline]
    pub(crate) fn incidence_csr(&self) -> (&[u32], &[EdgeId]) {
        (self.inc_offsets.as_slice(), self.incident.as_slice())
    }

    /// The raw edge CSR (offsets of length `m + 1`, concatenated sorted
    /// vertex lists), used by the active engine's in-place `reset_from` to
    /// restore its arena with two straight memcpys.
    #[inline]
    pub(crate) fn edge_csr(&self) -> (&[u32], &[VertexId]) {
        (self.edge_offsets.as_slice(), self.edge_vertices.as_slice())
    }

    /// The sorted list of edges incident to vertex `v`.
    ///
    /// # Panics
    /// Panics if `v >= self.n_vertices()`.
    #[inline]
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        let offsets = self.inc_offsets.as_slice();
        let lo = offsets[v as usize] as usize;
        let hi = offsets[v as usize + 1] as usize;
        &self.incident.as_slice()[lo..hi]
    }

    /// Degree of vertex `v`: the number of edges containing it.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.incident_edges(v).len()
    }

    /// Returns `true` if the (sorted or unsorted) vertex set `set` contains
    /// some edge of the hypergraph entirely, i.e. it is *not* independent.
    ///
    /// Runs in `O(Σ_e |e|)` over edges touching the set, using the incidence
    /// index to avoid scanning unrelated edges.
    pub fn contains_edge_within(&self, set: &[VertexId]) -> bool {
        if self.n_edges() == 0 {
            return false;
        }
        let mut member = vec![false; self.n as usize];
        for &v in set {
            member[v as usize] = true;
        }
        // Only edges incident to some vertex of `set` can be inside it.
        let mut seen = vec![false; self.n_edges()];
        for &v in set {
            for &e in self.incident_edges(v) {
                if !seen[e as usize] {
                    seen[e as usize] = true;
                    if self.edge(e).iter().all(|&u| member[u as usize]) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Returns `true` if `set` is an independent set: no edge is fully
    /// contained in it.
    pub fn is_independent(&self, set: &[VertexId]) -> bool {
        !self.contains_edge_within(set)
    }

    /// Returns `true` if `set` is a *maximal* independent set.
    ///
    /// Maximality is checked by attempting to add every vertex not in the set:
    /// the set is maximal iff every such addition creates a fully-contained
    /// edge.
    pub fn is_maximal_independent(&self, set: &[VertexId]) -> bool {
        if !self.is_independent(set) {
            return false;
        }
        let mut member = vec![false; self.n as usize];
        for &v in set {
            member[v as usize] = true;
        }
        for v in 0..self.n {
            if member[v as usize] {
                continue;
            }
            // Would adding v keep the set independent? It does unless some
            // edge through v has all other vertices in the set.
            let violates = self
                .incident_edges(v)
                .iter()
                .any(|&e| self.edge(e).iter().all(|&u| u == v || member[u as usize]));
            if !violates {
                return false;
            }
        }
        true
    }

    /// Returns the edge id of an exact edge equal to `query` (sorted), if any.
    ///
    /// Intended for tests and small-scale tooling; linear in the degree of the
    /// first vertex of the query.
    pub fn find_edge(&self, query: &[VertexId]) -> Option<EdgeId> {
        let first = *query.first()?;
        if first >= self.n {
            return None;
        }
        self.incident_edges(first)
            .iter()
            .copied()
            .find(|&e| self.edge(e) == query)
    }

    /// Total storage footprint of the edge lists, i.e. `Σ_e |e|`.
    pub fn total_edge_size(&self) -> usize {
        self.edge_vertices.as_slice().len()
    }

    /// Collects the edges into owned `Vec`s (mainly for conversion into an
    /// [`ActiveHypergraph`](crate::active::ActiveHypergraph) or for tests).
    pub fn edges_owned(&self) -> Vec<Vec<VertexId>> {
        self.edges().map(|e| e.to_vec()).collect()
    }

    /// The set of distinct edge cardinalities present, in increasing order.
    pub fn edge_sizes(&self) -> Vec<usize> {
        let sizes: BTreeSet<usize> = self.edges().map(|e| e.len()).collect();
        sizes.into_iter().collect()
    }
}

impl fmt::Debug for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Storage tier deliberately omitted: `Debug` output feeds bench
        // fingerprints, which must not distinguish mapped from owned.
        f.debug_struct("Hypergraph")
            .field("n", &self.n)
            .field("m", &self.n_edges())
            .field("dim", &self.dim)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HypergraphBuilder;

    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_edge([0, 1, 2]);
        b.add_edge([2, 3]);
        b.add_edge([3, 4, 5]);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let h = toy();
        assert_eq!(h.n_vertices(), 6);
        assert_eq!(h.n_edges(), 3);
        assert_eq!(h.dimension(), 3);
        assert_eq!(h.total_edge_size(), 8);
        assert_eq!(h.edge_sizes(), vec![2, 3]);
    }

    #[test]
    fn edges_and_incidence_are_consistent() {
        let h = toy();
        assert_eq!(h.edge(0), &[0, 1, 2]);
        assert_eq!(h.edge(1), &[2, 3]);
        assert_eq!(h.edge(2), &[3, 4, 5]);
        assert_eq!(h.incident_edges(0), &[0]);
        assert_eq!(h.incident_edges(2), &[0, 1]);
        assert_eq!(h.incident_edges(3), &[1, 2]);
        assert_eq!(h.degree(3), 2);
        assert_eq!(h.degree(5), 1);
    }

    #[test]
    fn independence_checks() {
        let h = toy();
        assert!(h.is_independent(&[0, 1, 3]));
        assert!(!h.is_independent(&[0, 1, 2]));
        assert!(!h.is_independent(&[2, 3]));
        assert!(h.is_independent(&[]));
        // {0,1,3,5} is independent and maximal: adding 2 completes {2,3}? no,
        // adding 2 completes edge {0,1,2}; adding 4 completes {3,4,5}? needs 5
        // and 3 -> yes.
        assert!(h.is_maximal_independent(&[0, 1, 3, 5]));
        // {0,1,3} is independent but not maximal (5 can be added).
        assert!(!h.is_maximal_independent(&[0, 1, 3]));
        // Non-independent sets are never maximal independent.
        assert!(!h.is_maximal_independent(&[0, 1, 2]));
    }

    #[test]
    fn empty_and_edgeless() {
        let h = HypergraphBuilder::new(0).build();
        assert_eq!(h.n_vertices(), 0);
        assert_eq!(h.n_edges(), 0);
        assert_eq!(h.dimension(), 0);
        assert!(h.is_independent(&[]));
        assert!(h.is_maximal_independent(&[]));

        let h = HypergraphBuilder::new(4).build();
        // With no edges the only maximal independent set is all of V.
        assert!(h.is_independent(&[0, 1, 2, 3]));
        assert!(h.is_maximal_independent(&[0, 1, 2, 3]));
        assert!(!h.is_maximal_independent(&[0, 1]));
    }

    #[test]
    fn find_edge_works() {
        let h = toy();
        assert_eq!(h.find_edge(&[2, 3]), Some(1));
        assert_eq!(h.find_edge(&[0, 1, 2]), Some(0));
        assert_eq!(h.find_edge(&[1, 2]), None);
        assert_eq!(h.find_edge(&[]), None);
        assert_eq!(h.find_edge(&[99]), None);
    }

    #[test]
    fn singleton_edge_forces_vertex_out() {
        let mut b = HypergraphBuilder::new(3);
        b.add_edge([1]);
        let h = b.build();
        assert!(!h.is_independent(&[1]));
        assert!(h.is_maximal_independent(&[0, 2]));
    }
}
