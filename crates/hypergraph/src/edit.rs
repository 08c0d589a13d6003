//! Graph-level edit scripts: the mutation vocabulary behind the serving
//! layer's epoch-versioned resident registry.
//!
//! A [`GraphEdit`] describes one structural change to a [`Hypergraph`] —
//! add an edge, remove an edge, or extend the vertex id space — and
//! [`apply_edits`] replays a script of them against an existing graph,
//! producing a fresh immutable [`Hypergraph`]. The semantics are chosen so
//! that edit logs are **exactly replayable**:
//!
//! * Edges are normalized exactly like [`HypergraphBuilder::add_edge`]
//!   (sorted, vertex repetitions collapsed), so `AddEdge([2, 1])` and
//!   `AddEdge([1, 2, 2])` denote the same edit.
//! * Application is **strict**: adding an edge that is already present,
//!   removing one that is not, normalizing to an empty edge, or referencing
//!   an out-of-range vertex is an [`EditError`], never a silent no-op. A
//!   script either applies in full or reports the first offending edit, so
//!   two replays of the same log can never diverge on "how the ambiguity was
//!   resolved".
//! * Application **composes**: for any split of a script `s` into `a ++ b`,
//!   `apply_edits(&apply_edits(h, a)?, b)` equals `apply_edits(h, s)` —
//!   edge insertion order is preserved across intermediate rebuilds. This is
//!   what lets the registry replay any log *prefix* from any intermediate
//!   snapshot and land on the identical graph (pinned by `tests/registry.rs`
//!   in the facade crate and by the unit tests below).
//!
//! Application works on the base graph's CSR arrays, so its cost is one
//! pass over them plus one incidence lookup per edit, with no per-edge
//! allocation: each edited edge is looked up through the incidence list of
//! its lowest-degree vertex, removed base edge ids and appended edges are
//! recorded in side tables sized by the script, and the new edge CSR is
//! written in one pass (runs of surviving edges copied with shifted
//! offsets, then the appended edges). The incidence index is patched from
//! the old one in one more pass: every run of vertices the script did not
//! touch is copied with its offsets shifted by one constant and its edge
//! ids renumbered, and only the vertices of removed or appended edges get
//! their lists rewritten.
//!
//! An [`EditLog`] keeps a resident graph's applied edits in one flat
//! vector of words, so logging an edit allocates nothing of its own.
//!
//! [`HypergraphBuilder::add_edge`]: crate::builder::HypergraphBuilder::add_edge

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::iter::once;
use std::ops::{Bound, RangeBounds};

use crate::graph::{EdgeId, Hypergraph, VertexId};

/// One structural change to a [`Hypergraph`] — the unit the serving layer's
/// resident edit logs are made of. See the [module docs](self) for the
/// replay semantics.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GraphEdit {
    /// Add an edge over the listed vertices (any order, repetitions
    /// collapse). Errors if the normalized edge is empty, references a
    /// vertex outside the current id space, or is already present.
    AddEdge(Vec<VertexId>),
    /// Remove the edge over the listed vertices (normalized the same way).
    /// Errors if no such edge exists.
    RemoveEdge(Vec<VertexId>),
    /// Extend the vertex id space by this many fresh, initially isolated
    /// vertices (they join edges through later `AddEdge`s).
    GrowVertices(u32),
}

impl GraphEdit {
    /// Appends this edit's one-line WAL encoding to `out` (including the
    /// trailing newline) — the record body format of
    /// [`crate::io::write_wal`]:
    ///
    /// ```text
    /// add 0 4 7        <- AddEdge([0, 4, 7])
    /// remove 2 3       <- RemoveEdge([2, 3])
    /// grow 64          <- GrowVertices(64)
    /// ```
    ///
    /// The vertex list is written exactly as stored (un-normalized), so
    /// [`decode_line`](Self::decode_line) round-trips the edit *variant*
    /// byte-for-byte; normalization still happens at [`apply_edits`] time,
    /// identically on both sides of a persist/restore cycle.
    pub fn encode_line(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            GraphEdit::AddEdge(vs) => {
                out.push_str("add");
                for v in vs {
                    let _ = write!(out, " {v}");
                }
            }
            GraphEdit::RemoveEdge(vs) => {
                out.push_str("remove");
                for v in vs {
                    let _ = write!(out, " {v}");
                }
            }
            GraphEdit::GrowVertices(extra) => {
                let _ = write!(out, "grow {extra}");
            }
        }
        out.push('\n');
    }

    /// Parses one [`encode_line`](Self::encode_line) line (without the
    /// newline). Returns `None` for anything outside the grammar — unknown
    /// verbs, signed or non-decimal numbers, ids beyond `u32` — never
    /// panics. Empty vertex lists are accepted (they are representable as
    /// edits and rejected by [`apply_edits`] like any other invalid edit).
    pub fn decode_line(line: &str) -> Option<GraphEdit> {
        let parse_u32 = |t: &str| -> Option<u32> {
            // Strict digits only, matching the text-format parser: no signs,
            // no leading `+`, no stray characters.
            if t.is_empty() || !t.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            t.parse().ok()
        };
        let mut it = line.split_whitespace();
        match it.next()? {
            "add" => it
                .map(parse_u32)
                .collect::<Option<_>>()
                .map(GraphEdit::AddEdge),
            "remove" => it
                .map(parse_u32)
                .collect::<Option<_>>()
                .map(GraphEdit::RemoveEdge),
            "grow" => {
                let extra = parse_u32(it.next()?)?;
                if it.next().is_some() {
                    return None;
                }
                Some(GraphEdit::GrowVertices(extra))
            }
            _ => None,
        }
    }
}

/// An append-only log of [`GraphEdit`]s, stored flat in one vector of
/// words: per edit, a header word (the payload's length times four plus
/// the kind), then the payload. An add or remove keeps its vertex list
/// exactly as given (un-normalized), like [`GraphEdit::encode_line`] writes
/// it, so [`decode`](Self::decode) returns the very edits that were
/// logged; a grow keeps its count. Every 64th edit's header position is
/// marked, so decoding a range skips at most 63 headers to reach it.
///
/// # Example
/// ```
/// use hypergraph::edit::{EditLog, GraphEdit};
///
/// let batch = [GraphEdit::GrowVertices(2), GraphEdit::AddEdge(vec![5, 4, 4])];
/// let mut log = EditLog::default();
/// log.extend(&batch);
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.decode(..), batch);
/// assert_eq!(log.decode(1..), batch[1..]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditLog {
    /// Each edit's header word followed by its payload.
    words: Vec<u32>,
    /// `marks[k]` is where edit `k * MARK_EVERY`'s header sits in `words`.
    marks: Vec<usize>,
    /// Number of edits logged.
    len: usize,
}

const MARK_EVERY: usize = 64;
const ADD: u32 = 0;
const REMOVE: u32 = 1;
const GROW: u32 = 2;

impl EditLog {
    /// Number of edits logged.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no edit is logged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The logged edits at positions `range`, in log order.
    ///
    /// # Panics
    /// Panics if `range` reaches past [`len`](Self::len).
    pub fn decode(&self, range: impl RangeBounds<usize>) -> Vec<GraphEdit> {
        let first = match range.start_bound() {
            Bound::Included(&i) => i,
            Bound::Excluded(&i) => i + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&i) => i + 1,
            Bound::Excluded(&i) => i,
            Bound::Unbounded => self.len,
        };
        assert!(
            first <= end && end <= self.len,
            "edits {first}..{end} are not in a log of {}",
            self.len
        );
        let payload_len = |at: usize| (self.words[at] / 4) as usize;
        let mark = first / MARK_EVERY;
        let mut at = self.marks.get(mark).copied().unwrap_or(self.words.len());
        for _ in mark * MARK_EVERY..first {
            at += 1 + payload_len(at);
        }
        (first..end)
            .map(|_| {
                let kind = self.words[at] % 4;
                let payload = &self.words[at + 1..at + 1 + payload_len(at)];
                at += 1 + payload.len();
                match kind {
                    ADD => GraphEdit::AddEdge(payload.to_vec()),
                    REMOVE => GraphEdit::RemoveEdge(payload.to_vec()),
                    _ => GraphEdit::GrowVertices(payload[0]),
                }
            })
            .collect()
    }
}

impl<'a> Extend<&'a GraphEdit> for EditLog {
    fn extend<I: IntoIterator<Item = &'a GraphEdit>>(&mut self, edits: I) {
        for edit in edits {
            if self.len.is_multiple_of(MARK_EVERY) {
                self.marks.push(self.words.len());
            }
            let (kind, payload) = match edit {
                GraphEdit::AddEdge(vs) => (ADD, vs.as_slice()),
                GraphEdit::RemoveEdge(vs) => (REMOVE, vs.as_slice()),
                GraphEdit::GrowVertices(extra) => (GROW, std::slice::from_ref(extra)),
            };
            // Only a vertex list of 4 GiB or more overflows the header.
            let header = u32::try_from(payload.len())
                .ok()
                .and_then(|len| len.checked_mul(4))
                .expect("an edit lists fewer than 2^30 vertices");
            self.words.push(header + kind);
            self.words.extend_from_slice(payload);
            self.len += 1;
        }
    }
}

/// Why an edit script could not be applied. The graph is never partially
/// modified: [`apply_edits`] validates as it goes and returns the input
/// graph's state untouched on the first offending edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// An edge referenced a vertex at or beyond the current id space.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The vertex count at the point the edit was applied.
        n: u32,
    },
    /// An `AddEdge`/`RemoveEdge` normalized to the empty edge (a hypergraph
    /// with an empty edge has no independent set at all — see
    /// [`HypergraphBuilder::add_edge`](crate::builder::HypergraphBuilder::add_edge)).
    EmptyEdge,
    /// `AddEdge` of an edge that is already present (payload: the
    /// normalized edge).
    DuplicateEdge(Vec<VertexId>),
    /// `RemoveEdge` of an edge that is not present (payload: the normalized
    /// edge).
    NoSuchEdge(Vec<VertexId>),
    /// `GrowVertices` would take the vertex id space beyond `u32`.
    IdSpaceOverflow {
        /// The vertex count at the point the edit was applied.
        n: u32,
        /// The requested number of fresh vertices.
        extra: u32,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::VertexOutOfRange { vertex, n } => {
                write!(f, "edit references vertex {vertex} outside id space 0..{n}")
            }
            EditError::EmptyEdge => write!(f, "edit normalizes to an empty edge"),
            EditError::DuplicateEdge(e) => write!(f, "edge {e:?} is already present"),
            EditError::NoSuchEdge(e) => write!(f, "no edge {e:?} to remove"),
            EditError::IdSpaceOverflow { n, extra } => write!(
                f,
                "growing {n} vertices by {extra} exceeds the u32 vertex id space"
            ),
        }
    }
}

impl std::error::Error for EditError {}

/// Normalizes an edge exactly like the builder does (sorted, repetitions
/// collapsed) and validates it against the current id space.
fn normalize(vertices: &[VertexId], n: u32) -> Result<Vec<VertexId>, EditError> {
    let set: BTreeSet<VertexId> = vertices.iter().copied().collect();
    if set.is_empty() {
        return Err(EditError::EmptyEdge);
    }
    if let Some(&v) = set.last() {
        if v >= n {
            return Err(EditError::VertexOutOfRange { vertex: v, n });
        }
    }
    Ok(set.into_iter().collect())
}

/// Replays an edit script against `h`, producing a fresh [`Hypergraph`].
///
/// Surviving edges keep their relative order and added edges append, so
/// application composes across intermediate rebuilds (see the
/// [module docs](self)); `h` itself is never modified. A base that holds
/// duplicate edges (which
/// [`ActiveHypergraph::compact`](crate::active::ActiveHypergraph::compact)
/// can produce) is handled like a list: `RemoveEdge(e)` drops the first
/// remaining copy, and `e` then counts as absent until it is re-added, even
/// if another copy remains.
///
/// Costs one pass over `h`'s edge CSR and one over its incidence index,
/// plus one incidence lookup per edit (through the edge's lowest-degree
/// vertex) and O(log k) bookkeeping per edit of a k-edit script, with no
/// per-edge allocation.
///
/// # Errors
/// Returns the first [`EditError`] in script order; on error nothing is
/// applied.
///
/// # Example
/// ```
/// use hypergraph::builder::hypergraph_from_edges;
/// use hypergraph::edit::{apply_edits, GraphEdit};
///
/// let h = hypergraph_from_edges(4, vec![vec![0, 1], vec![1, 2, 3]]);
/// let h2 = apply_edits(
///     &h,
///     &[
///         GraphEdit::RemoveEdge(vec![1, 0]), // normalized: removes {0, 1}
///         GraphEdit::GrowVertices(2),
///         GraphEdit::AddEdge(vec![4, 5]),
///     ],
/// )
/// .unwrap();
/// assert_eq!(h2.n_vertices(), 6);
/// assert_eq!(h2.n_edges(), 2);
/// assert_eq!(h2.edge(0), &[1, 2, 3]);
/// assert_eq!(h2.edge(1), &[4, 5]);
/// ```
pub fn apply_edits(h: &Hypergraph, edits: &[GraphEdit]) -> Result<Hypergraph, EditError> {
    let mut n = h.n_vertices() as u32;
    // Every edge the script has touched; an untouched edge is present iff
    // the base holds a copy of it.
    let mut touched: BTreeMap<Vec<VertexId>, Touched> = BTreeMap::new();
    let mut removed: BTreeSet<EdgeId> = BTreeSet::new();
    // Appended edges in script order; `None` marks one a later edit removed.
    let mut added: Vec<Option<Vec<VertexId>>> = Vec::new();
    for edit in edits {
        match edit {
            GraphEdit::AddEdge(vs) => {
                let e = normalize(vs, n)?;
                let present = match touched.get(&e) {
                    Some(t) => t.present,
                    None => live_base_copy(h, &e, &removed).is_some(),
                };
                if present {
                    return Err(EditError::DuplicateEdge(e));
                }
                added.push(Some(e.clone()));
                let t = touched.entry(e).or_default();
                t.present = true;
                t.appended.push_back(added.len() - 1);
            }
            GraphEdit::RemoveEdge(vs) => {
                let e = normalize(vs, n)?;
                // Surviving base edges precede the appended ones, so the
                // first remaining copy is a base copy whenever one is left.
                let base_copy = live_base_copy(h, &e, &removed);
                if !touched.get(&e).map_or(base_copy.is_some(), |t| t.present) {
                    return Err(EditError::NoSuchEdge(e));
                }
                let t = touched.entry(e).or_default();
                t.present = false;
                match base_copy {
                    Some(id) => {
                        removed.insert(id);
                    }
                    None => {
                        let slot = t
                            .appended
                            .pop_front()
                            .expect("a present edge with no base copy was appended");
                        added[slot] = None;
                    }
                }
            }
            GraphEdit::GrowVertices(extra) => {
                n = n
                    .checked_add(*extra)
                    .ok_or(EditError::IdSpaceOverflow { n, extra: *extra })?;
            }
        }
    }

    let (eo, ev) = h.edge_csr();
    let added: Vec<Vec<VertexId>> = added.into_iter().flatten().collect();
    let removed_len: usize = removed.iter().map(|&id| h.edge_len(id)).sum();
    let added_len: usize = added.iter().map(Vec::len).sum();
    let mut offsets = Vec::with_capacity(h.n_edges() - removed.len() + added.len() + 1);
    let mut vertices = Vec::with_capacity(ev.len() - removed_len + added_len);
    offsets.push(0u32);
    // Copy each run of surviving base edges `start..end`, shifting its
    // offsets down by the vertices removed before it.
    let mut start = 0usize;
    for end in removed
        .iter()
        .map(|&id| id as usize)
        .chain(once(h.n_edges()))
    {
        let (lo, hi) = (eo[start], eo[end]);
        let shift = lo - vertices.len() as u32;
        offsets.extend(eo[start + 1..=end].iter().map(|&o| o - shift));
        vertices.extend_from_slice(&ev[lo as usize..hi as usize]);
        start = end + 1;
    }
    for e in &added {
        vertices.extend_from_slice(e);
        offsets.push(vertices.len() as u32);
    }
    let dim = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
    let (inc_offsets, incident) = patch_incidence(h, n, &removed, &added, vertices.len());
    Ok(Hypergraph::from_validated_csr(
        n,
        dim,
        offsets.into(),
        vertices.into(),
        inc_offsets.into(),
        incident.into(),
    ))
}

/// What a script has done so far to one normalized edge.
#[derive(Default)]
struct Touched {
    /// Whether the edge counts as present.
    present: bool,
    /// Where the edge's live appended copies sit in `apply_edits`' table of
    /// appended edges, earliest first: a remove that finds no base copy
    /// tombstones the front one.
    appended: VecDeque<usize>,
}

/// The incidence index of the graph that drops the `removed` base edges of
/// `h`, appends `added` and has `n` vertices and `total` incidences,
/// patched from `h`'s index in one pass: lists come out ascending, exactly
/// as a counting sort over the new edge CSR would lay them out.
///
/// A surviving edge's new id is its old id minus the removed ids below it,
/// and the `j`-th appended edge's id follows the survivors. Only the
/// vertices of removed or appended edges are rewritten (removed ids
/// filtered out, appended ids added at the end); every run of other
/// vertices is copied with its ids renumbered and its offsets shifted by
/// one constant, and grown vertices outside appended edges get empty lists.
fn patch_incidence(
    h: &Hypergraph,
    n: u32,
    removed: &BTreeSet<EdgeId>,
    added: &[Vec<VertexId>],
    total: usize,
) -> (Vec<u32>, Vec<EdgeId>) {
    const GONE: EdgeId = EdgeId::MAX;
    let (io, inc) = h.incidence_csr();
    let (m, old_n, n) = (h.n_edges(), h.n_vertices(), n as usize);

    // Old edge id -> new id, `GONE` for a removed one.
    let mut renumber: Vec<EdgeId> = Vec::with_capacity(m);
    for (below, end) in removed
        .iter()
        .map(|&id| id as usize)
        .chain(once(m))
        .enumerate()
    {
        let start = renumber.len() as EdgeId;
        renumber.extend((start..end as EdgeId).map(|id| id - below as EdgeId));
        if end < m {
            renumber.push(GONE);
        }
    }
    let survivors = (m - removed.len()) as EdgeId;
    // (vertex, new id) of every appended edge, ascending: each vertex's
    // appended ids in order.
    let mut appended: Vec<(VertexId, EdgeId)> = (survivors..)
        .zip(added)
        .flat_map(|(id, e)| e.iter().map(move |&v| (v, id)))
        .collect();
    appended.sort_unstable();
    let mut rewritten: Vec<VertexId> = removed
        .iter()
        .flat_map(|&id| h.edge(id).iter().copied())
        .chain(appended.iter().map(|&(v, _)| v))
        .collect();
    rewritten.sort_unstable();
    rewritten.dedup();

    let mut offsets = Vec::with_capacity(n + 1);
    let mut incident = Vec::with_capacity(total);
    offsets.push(0u32);
    let mut appended = appended.into_iter().peekable();
    // Vertices below `next` are written: `offsets.len() == next + 1`.
    let mut next = 0;
    for v in rewritten.iter().map(|&v| v as usize).chain(once(n)) {
        let run_end = v.min(old_n);
        if next < run_end {
            let (lo, hi) = (io[next], io[run_end]);
            let at = incident.len() as u32;
            offsets.extend(io[next + 1..=run_end].iter().map(|&o| o - lo + at));
            incident.extend(
                inc[lo as usize..hi as usize]
                    .iter()
                    .map(|&id| renumber[id as usize]),
            );
        }
        // Grown vertices before `v` that no appended edge reaches.
        offsets.resize(v + 1, incident.len() as u32);
        if v == n {
            break;
        }
        if v < old_n {
            let list = &inc[io[v] as usize..io[v + 1] as usize];
            incident.extend(
                list.iter()
                    .map(|&id| renumber[id as usize])
                    .filter(|&id| id != GONE),
            );
        }
        while let Some((_, id)) = appended.next_if(|&(u, _)| u as usize == v) {
            incident.push(id);
        }
        offsets.push(incident.len() as u32);
        next = v + 1;
    }
    (offsets, incident)
}

/// The lowest-id base edge equal to the normalized edge `e` that the script
/// has not removed, found through the incidence list of `e`'s lowest-degree
/// vertex (incidence lists are ascending, so the first match is the lowest).
fn live_base_copy(h: &Hypergraph, e: &[VertexId], removed: &BTreeSet<EdgeId>) -> Option<EdgeId> {
    if *e.last()? as usize >= h.n_vertices() {
        return None; // a grown vertex: no base edge reaches it
    }
    let pivot = e.iter().copied().min_by_key(|&v| h.degree(v))?;
    h.incident_edges(pivot)
        .iter()
        .copied()
        .find(|&id| h.edge(id) == e && !removed.contains(&id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::hypergraph_from_edges;
    use crate::io::{csr_from_bytes, csr_to_bytes};
    use proptest::prelude::*;

    fn base() -> Hypergraph {
        hypergraph_from_edges(5, vec![vec![0, 1], vec![1, 2, 3], vec![2, 4]])
    }

    /// The `BTreeSet` implementation `apply_edits` replaced, kept verbatim
    /// as the differential oracle — except that growing past `u32` returns
    /// [`EditError::IdSpaceOverflow`] where it used to panic.
    fn apply_edits_reference(h: &Hypergraph, edits: &[GraphEdit]) -> Result<Hypergraph, EditError> {
        let mut n = h.n_vertices() as u32;
        let mut edges = h.edges_owned();
        let mut present: BTreeSet<Vec<VertexId>> = edges.iter().cloned().collect();
        for edit in edits {
            match edit {
                GraphEdit::AddEdge(vs) => {
                    let e = normalize(vs, n)?;
                    if !present.insert(e.clone()) {
                        return Err(EditError::DuplicateEdge(e));
                    }
                    edges.push(e);
                }
                GraphEdit::RemoveEdge(vs) => {
                    let e = normalize(vs, n)?;
                    if !present.remove(&e) {
                        return Err(EditError::NoSuchEdge(e));
                    }
                    let i = edges
                        .iter()
                        .position(|x| *x == e)
                        .expect("membership set and edge list agree");
                    edges.remove(i);
                }
                GraphEdit::GrowVertices(extra) => {
                    n = n
                        .checked_add(*extra)
                        .ok_or(EditError::IdSpaceOverflow { n, extra: *extra })?;
                }
            }
        }
        Ok(Hypergraph::from_sorted_edges(n, edges))
    }

    /// A base graph that may hold duplicate edges: `from_sorted_edges`
    /// keeps every normalized edge, as `ActiveHypergraph::compact` does.
    fn base_with_duplicates(n: u32, raw: &[Vec<u32>]) -> Hypergraph {
        let edges = raw
            .iter()
            .map(|e| {
                let set: BTreeSet<VertexId> = e.iter().map(|&v| v % n).collect();
                set.into_iter().collect()
            })
            .collect();
        Hypergraph::from_sorted_edges(n, edges)
    }

    /// Turns `(kind, vertices, pick)` specs into a script. It tracks `n` and
    /// the present edge set, so most edits are valid: toggles (add if
    /// absent, remove if present) of arbitrary vertex sets, of base edges
    /// and of the last added edge, remove-then-re-add pairs and grows. About
    /// one spec in ten yields an edit that may fail — raw vertex lists
    /// (empty or out of range), a duplicate add, a missing remove, or a grow
    /// past `u32` — so scripts end early on every error kind.
    fn script_from(h: &Hypergraph, specs: &[(u8, Vec<u32>, usize)]) -> Vec<GraphEdit> {
        let mut n = h.n_vertices() as u32;
        let mut present: BTreeSet<Vec<VertexId>> = h.edges_owned().into_iter().collect();
        let mut script = Vec::new();
        let mut last_added: Option<Vec<VertexId>> = None;
        let mut toggle = |e: Vec<VertexId>, script: &mut Vec<GraphEdit>| {
            if present.remove(&e) {
                script.push(GraphEdit::RemoveEdge(e));
            } else {
                present.insert(e.clone());
                script.push(GraphEdit::AddEdge(e));
            }
        };
        for (kind, raw, pick) in specs {
            let mut set: BTreeSet<VertexId> = raw.iter().map(|&v| v % n).collect();
            if set.is_empty() {
                set.insert(*pick as u32 % n);
            }
            let in_range: Vec<VertexId> = set.into_iter().collect();
            let base_edge =
                (h.n_edges() > 0).then(|| h.edge((pick % h.n_edges()) as EdgeId).to_vec());
            match kind {
                0 => script.push(GraphEdit::AddEdge(raw.clone())),
                1 => script.push(GraphEdit::RemoveEdge(raw.clone())),
                2 => script.push(GraphEdit::AddEdge(base_edge.unwrap_or(in_range))),
                3 if pick % 4 == 0 => script.push(GraphEdit::GrowVertices(u32::MAX)),
                3 => script.push(GraphEdit::RemoveEdge(in_range)),
                4..=13 => toggle(in_range, &mut script),
                14..=27 => match base_edge {
                    Some(e) if kind % 2 == 0 => {
                        toggle(e.clone(), &mut script);
                        toggle(e, &mut script); // remove-then-re-add or the reverse
                    }
                    Some(e) => toggle(e, &mut script),
                    None => toggle(in_range, &mut script),
                },
                28..=31 => {
                    let e = last_added.take().unwrap_or(in_range);
                    toggle(e, &mut script);
                }
                32..=35 => {
                    let extra = (*pick % 3) as u32;
                    n += extra;
                    script.push(GraphEdit::GrowVertices(extra));
                }
                _ => {
                    let mut e = in_range;
                    if !e.contains(&(n - 1)) {
                        e.push(n - 1); // the newest vertex, grown or not
                    }
                    toggle(e.clone(), &mut script);
                    last_added = Some(e);
                }
            }
            if let Some(GraphEdit::RemoveEdge(e)) = script.last_mut() {
                if let (1, Some(&first)) = (pick % 2, e.first()) {
                    e.reverse(); // un-normalized on purpose
                    e.push(first);
                }
            }
        }
        script
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `apply_edits` on the CSR arrays answers every script exactly like
        /// the `BTreeSet` oracle — the same graph, arrays and `dim`
        /// included, or the same first error — and every graph it returns
        /// carries the canonical counting-sort incidence (the `HGCSR`
        /// validator accepts nothing else).
        #[test]
        fn csr_apply_matches_the_btreeset_oracle(
            n in 1u32..7,
            raw_edges in prop::collection::vec(prop::collection::vec(0u32..7, 1..4), 0..12),
            specs in prop::collection::vec(
                (0u8..40, prop::collection::vec(0u32..10, 0..4), 0usize..64),
                0..32,
            ),
        ) {
            let h = base_with_duplicates(n, &raw_edges);
            let script = script_from(&h, &specs);
            let got = apply_edits(&h, &script);
            prop_assert_eq!(&got, &apply_edits_reference(&h, &script));
            if let Ok(g) = &got {
                prop_assert_eq!(&csr_from_bytes(&csr_to_bytes(g)).unwrap(), g);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// The same oracle on bases of 64–2048 vertices with up to 2n edges
        /// (a few of them duplicated), edited by 1–16 always-valid specs:
        /// most vertices then sit in untouched runs of the patched
        /// incidence, and grown vertices fall between rewritten ones.
        #[test]
        fn csr_apply_matches_the_btreeset_oracle_on_large_bases(
            (n, raw_edges) in (64u32..=2048).prop_flat_map(|n| (
                prop::strategy::Just(n),
                prop::collection::vec(prop::collection::vec(0..n, 1..4), 0..=2 * n as usize),
            )),
            copies in prop::collection::vec((any::<usize>(), any::<usize>()), 0..8),
            specs in prop::collection::vec(
                (4u8..40, prop::collection::vec(any::<u32>(), 0..4), any::<usize>()),
                1..=16,
            ),
        ) {
            let mut raw_edges = raw_edges;
            for (from, to) in copies {
                if let Some(e) = raw_edges.get(from % raw_edges.len().max(1)).cloned() {
                    raw_edges.insert(to % raw_edges.len(), e);
                }
            }
            let h = base_with_duplicates(n, &raw_edges);
            let script = script_from(&h, &specs);
            let got = apply_edits(&h, &script);
            prop_assert_eq!(&got, &apply_edits_reference(&h, &script));
            let g = got.unwrap();
            prop_assert_eq!(&csr_from_bytes(&csr_to_bytes(&g)).unwrap(), &g);
        }
    }

    /// Removing an appended edge tombstones its slot instead of shifting
    /// the ones after it: a script of 4096 adds interleaved with removes of
    /// appended edges, oldest and newest, answers like the oracle. Its
    /// prefix leaves two live appended copies of a doubled base edge, and
    /// the next remove must take the earlier one.
    #[test]
    fn interleaved_adds_and_removes_of_appended_edges_match_the_oracle() {
        const K: u32 = 4096;
        let h = base_with_duplicates(4, &[vec![0, 1], vec![2, 3], vec![0, 1]]);
        let doubled = || vec![0, 1];
        let mut script = vec![
            GraphEdit::RemoveEdge(doubled()), // base copy 0
            GraphEdit::AddEdge(doubled()),    // appended copy A
            GraphEdit::RemoveEdge(doubled()), // base copy 2
            GraphEdit::AddEdge(doubled()),    // appended copy B
            GraphEdit::RemoveEdge(doubled()), // A, not B
            GraphEdit::GrowVertices(K),
        ];
        let edge = |i: u32| vec![i % 4, 4 + i];
        for i in 0..K {
            script.push(GraphEdit::AddEdge(edge(i)));
            if i % 2 == 1 {
                script.push(GraphEdit::RemoveEdge(edge(i / 2)));
            }
        }
        for i in (K / 2..K).rev().step_by(3) {
            script.push(GraphEdit::RemoveEdge(edge(i)));
        }
        let got = apply_edits(&h, &script).unwrap();
        assert!(got == apply_edits_reference(&h, &script).unwrap());
        assert_eq!(
            got.edge(1),
            &[0, 1],
            "copy B survives, right after {{2, 3}}"
        );
        assert_eq!(
            got.n_edges(),
            2 + (K as usize - K as usize / 2) - (K as usize / 2).div_ceil(3)
        );
    }

    /// The flat log hands back every range of edits exactly as logged,
    /// un-normalized and empty vertex lists included, across its marks.
    #[test]
    fn edit_log_decodes_every_range_as_logged() {
        let edits: Vec<GraphEdit> = (0..3 * MARK_EVERY as u32 + 5)
            .map(|i| match i % 4 {
                0 => GraphEdit::AddEdge((0..i % 7).rev().chain([i % 3]).collect()),
                1 => GraphEdit::GrowVertices(i),
                2 => GraphEdit::RemoveEdge((0..i % 5).collect()), // empty when i % 5 == 0
                _ => GraphEdit::AddEdge(vec![i, 1, i]),
            })
            .collect();
        let mut log = EditLog::default();
        assert!(log.is_empty());
        log.extend(&edits[..7]);
        log.extend(&edits[7..]);
        assert_eq!(log.len(), edits.len());
        for a in 0..=edits.len() {
            for b in [a, a + 1, a + MARK_EVERY + 1, edits.len()] {
                let b = b.min(edits.len());
                assert_eq!(log.decode(a..b), edits[a..b], "range {a}..{b}");
            }
        }
        let mut twin = EditLog::default();
        twin.extend(&edits[..100]);
        assert_ne!(twin, log);
        twin.extend(&edits[100..]);
        assert_eq!(twin, log);
    }

    #[test]
    fn add_remove_grow_round_trip() {
        let h = apply_edits(
            &base(),
            &[
                GraphEdit::AddEdge(vec![3, 4]),
                GraphEdit::RemoveEdge(vec![1, 0]),
                GraphEdit::GrowVertices(3),
                GraphEdit::AddEdge(vec![5, 6, 7]),
            ],
        )
        .unwrap();
        assert_eq!(h.n_vertices(), 8);
        assert_eq!(h.n_edges(), 4);
        // Survivors keep their order; additions append.
        assert_eq!(h.edge(0), &[1, 2, 3]);
        assert_eq!(h.edge(1), &[2, 4]);
        assert_eq!(h.edge(2), &[3, 4]);
        assert_eq!(h.edge(3), &[5, 6, 7]);
    }

    #[test]
    fn application_composes_across_splits() {
        let script = vec![
            GraphEdit::AddEdge(vec![0, 4]),
            GraphEdit::RemoveEdge(vec![2, 4]),
            GraphEdit::GrowVertices(1),
            GraphEdit::AddEdge(vec![5, 0]),
            GraphEdit::RemoveEdge(vec![0, 1]),
            GraphEdit::AddEdge(vec![1, 4]),
        ];
        let all = apply_edits(&base(), &script).unwrap();
        for split in 0..=script.len() {
            let (a, b) = script.split_at(split);
            let mid = apply_edits(&base(), a).unwrap();
            let two_step = apply_edits(&mid, b).unwrap();
            assert!(two_step == all, "split at {split} diverged");
        }
    }

    #[test]
    fn strict_errors_and_no_partial_application() {
        let h = base();
        let err = apply_edits(
            &h,
            &[
                GraphEdit::AddEdge(vec![0, 2]), // fine
                GraphEdit::AddEdge(vec![1, 0]), // duplicate of {0, 1}
            ],
        )
        .unwrap_err();
        assert_eq!(err, EditError::DuplicateEdge(vec![0, 1]));
        // `h` is untouched by the failed script (apply never mutates input).
        assert_eq!(h.n_edges(), 3);

        assert_eq!(
            apply_edits(&h, &[GraphEdit::RemoveEdge(vec![0, 3])]).unwrap_err(),
            EditError::NoSuchEdge(vec![0, 3])
        );
        assert_eq!(
            apply_edits(&h, &[GraphEdit::AddEdge(vec![9])]).unwrap_err(),
            EditError::VertexOutOfRange { vertex: 9, n: 5 }
        );
        assert_eq!(
            apply_edits(&h, &[GraphEdit::AddEdge(vec![])]).unwrap_err(),
            EditError::EmptyEdge
        );
        assert_eq!(
            apply_edits(
                &h,
                &[
                    GraphEdit::GrowVertices(u32::MAX - 5),
                    GraphEdit::GrowVertices(1),
                ]
            )
            .unwrap_err(),
            EditError::IdSpaceOverflow {
                n: u32::MAX,
                extra: 1
            }
        );
    }

    #[test]
    fn normalization_matches_builder_semantics() {
        // {2, 1, 1} and {1, 2} are the same edge to both add and remove.
        let h = apply_edits(&base(), &[GraphEdit::AddEdge(vec![3, 3, 0])]).unwrap();
        assert_eq!(h.edge(3), &[0, 3]);
        let h2 = apply_edits(&h, &[GraphEdit::RemoveEdge(vec![0, 0, 3])]).unwrap();
        assert!(h2 == base());
    }

    #[test]
    fn empty_script_is_identity() {
        assert!(apply_edits(&base(), &[]).unwrap() == base());
    }

    #[test]
    fn line_codec_round_trips_every_variant() {
        let edits = [
            GraphEdit::AddEdge(vec![0, 4, 7]),
            GraphEdit::AddEdge(vec![3, 1, 1]), // un-normalized survives as-is
            GraphEdit::RemoveEdge(vec![2, 3]),
            GraphEdit::GrowVertices(64),
            GraphEdit::AddEdge(vec![]), // representable though unapplicable
        ];
        for edit in &edits {
            let mut line = String::new();
            edit.encode_line(&mut line);
            assert!(line.ends_with('\n'));
            assert_eq!(
                GraphEdit::decode_line(line.trim_end()).as_ref(),
                Some(edit),
                "{line:?} did not round-trip"
            );
        }
    }

    #[test]
    fn decode_line_rejects_out_of_grammar_input() {
        for line in [
            "",
            "shrink 3",
            "grow",
            "grow 1 2",
            "grow -1",
            "grow +1",
            "grow 4294967296",
            "add 1 zebra",
            "remove 0x10",
            "ADD 1 2",
        ] {
            assert_eq!(GraphEdit::decode_line(line), None, "{line:?} parsed");
        }
    }

    #[test]
    fn grown_vertices_start_isolated() {
        let h = apply_edits(&base(), &[GraphEdit::GrowVertices(2)]).unwrap();
        assert_eq!(h.n_vertices(), 7);
        assert_eq!(h.n_edges(), 3);
        assert!(h.incident_edges(5).is_empty());
        assert!(h.incident_edges(6).is_empty());
    }
}
