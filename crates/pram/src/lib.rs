//! EREW PRAM cost model and parallel primitives.
//!
//! The SBL paper states its results in the EREW PRAM model ("time `n^{o(1)}`
//! with `poly(m,n)` processors"). This crate provides the two halves needed to
//! make such statements measurable on real hardware:
//!
//! * [`cost`] — a work–depth cost model ([`Cost`], [`CostTracker`]): every
//!   algorithm in the workspace records per-step work and depth, plus a
//!   *round* counter for the global synchronisation barriers that the paper's
//!   theorems actually bound.
//! * [`primitives`] — the data-parallel loops the flat engine runs (map,
//!   segmented map, tabulate), executed with rayon above a sequential
//!   cutoff.
//! * [`pool`] — helpers to run a computation on a dedicated rayon pool with a
//!   fixed thread count (used by the threads-sweep experiment) and to spawn
//!   the serving layer's long-lived per-shard worker threads.
//! * [`mmap`] — read-only memory-mapped files with validated `u32` windows
//!   ([`mmap::MmapFile`], [`mmap::U32Span`]): the storage primitive behind
//!   the out-of-core resident-graph tier, sharing one mapping zero-copy
//!   across every serving shard.
//! * [`simd`] — wide (SIMD) sweeps over the flat engine's `u8` status
//!   arrays (count / positions / masked sum) with runtime ISA detection,
//!   scalar fallbacks and a `force-scalar` escape hatch for differential
//!   testing.
//! * [`workspace`] — a reusable scratch arena ([`Workspace`]) for the
//!   zero-reallocation run pipeline: per-purpose flag and `u32` buffers and
//!   typed engine slots threaded through the `mis-core` algorithm entry
//!   points, so a stream of solves reuses one set of buffers. Each shard of
//!   the facade's sharded serving subsystem owns one.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the `simd` module opts back in locally for
// `core::arch` intrinsics behind `#[target_feature]` kernels, and the `mmap`
// module for the `mmap`/`munmap` FFI and its bounds-checked slice views;
// everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]

pub mod cost;
pub mod mmap;
pub mod pool;
pub mod primitives;
pub mod simd;
pub mod workspace;

pub use cost::{Cost, CostTracker};
pub use workspace::Workspace;

/// Commonly used items.
pub mod prelude {
    pub use crate::cost::{Cost, CostTracker};
    pub use crate::pool::{available_parallelism, spawn_worker, with_threads};
    pub use crate::primitives::{par_map, par_map_into, par_map_segments_into, par_tabulate};
    pub use crate::workspace::Workspace;
}
