//! Hypergraph data structures for parallel maximal-independent-set algorithms.
//!
//! This crate is the substrate layer of the `hypergraph-mis` workspace, which
//! reproduces *"On Computing Maximal Independent Sets of Hypergraphs in
//! Parallel"* (Bercea, Goyal, Harris, Srinivasan — SPAA 2014).
//!
//! It provides:
//!
//! * [`Hypergraph`] — an immutable, arena/CSR-style hypergraph with a
//!   vertex→edge incidence index, built through [`HypergraphBuilder`].
//! * [`ActiveHypergraph`] — the flat, epoch-stamped working copy consumed by
//!   the iterative algorithms (Beame–Luby, SBL, KUW): vertices die, edges
//!   shrink, dominated and singleton edges are discarded, exactly as in the
//!   papers' cleanup steps. The [`ActiveEngine`] trait abstracts this update
//!   interface; the pre-flat implementation survives as
//!   `active::reference::ReferenceActiveHypergraph` behind the
//!   `reference-engine` feature (on by default) and anchors the differential
//!   test suites.
//! * [`edit`] — graph-level edit scripts ([`GraphEdit`]): the strictly
//!   replayable mutation vocabulary behind the serving layer's
//!   epoch-versioned resident registry.
//! * [`degree`] — the normalized-degree machinery of Kelsen's analysis:
//!   `N_j(x,H)`, `d_j(x,H)`, `Δ_i(H)` and `Δ(H)` (Section 3 of the paper).
//! * [`generate`] — seeded random hypergraph generators for every workload the
//!   experiments need (d-uniform, mixed-dimension, linear, planted,
//!   paper-regime `m ≤ n^β`, and small special families).
//! * [`params`] — the paper's parameter formulas (`α`, `β`, the dimension
//!   bound `d(n)`, the sampling probability `p(n)`), with the iterated-log
//!   helpers they are built from.
//! * [`io`] — a small text format for persisting hypergraphs, the
//!   checksummed write-ahead-log format (`write_wal`/`read_wal`) behind the
//!   serving layer's durable resident graphs, and the `HGCSR 1` binary
//!   snapshot format (`write_csr`/`read_csr`/`open_mapped`) that serves a
//!   graph zero-copy from a read-only memory mapping; all file writes are
//!   atomic and fsynced (write-temp-then-rename plus directory sync).
//! * [`stats`] — summary statistics used by examples and the experiment
//!   harness.
//!
//! # Conventions
//!
//! Vertices are dense indices `0..n` of type [`VertexId`] (`u32`). Edges are
//! sorted, duplicate-free vertex lists. The *dimension* of a hypergraph is the
//! maximum edge cardinality, matching the paper. An *independent set* is a set
//! of vertices containing no edge entirely; it is *maximal* if no vertex can be
//! added without swallowing an edge.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod active;
pub mod builder;
pub mod degree;
pub mod edit;
pub mod generate;
pub mod graph;
pub mod io;
pub mod params;
pub mod stats;
pub mod view;

#[cfg(feature = "reference-engine")]
pub use active::reference::ReferenceActiveHypergraph;
pub use active::{ActiveEngine, ActiveHypergraph};
pub use builder::HypergraphBuilder;
pub use edit::{apply_edits, EditError, EditLog, GraphEdit};
pub use graph::{EdgeId, Hypergraph, VertexId};
pub use stats::HypergraphStats;
pub use view::HypergraphView;

/// Commonly used items, intended for `use hypergraph::prelude::*`.
pub mod prelude {
    #[cfg(feature = "reference-engine")]
    pub use crate::active::reference::ReferenceActiveHypergraph;
    pub use crate::active::{ActiveEngine, ActiveHypergraph};
    pub use crate::builder::HypergraphBuilder;
    pub use crate::degree;
    pub use crate::edit::{apply_edits, EditError, EditLog, GraphEdit};
    pub use crate::generate;
    pub use crate::graph::{EdgeId, Hypergraph, VertexId};
    pub use crate::params;
    pub use crate::stats::HypergraphStats;
    pub use crate::view::HypergraphView;
}
