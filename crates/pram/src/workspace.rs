//! [`Workspace`]: a reusable scratch arena for the zero-reallocation run
//! pipeline.
//!
//! The round-based MIS algorithms and the PRAM primitives they are built on
//! need the same few kinds of scratch over and over: flag vectors over the
//! vertex id space, index lists, counting-sort offsets. Allocating them per
//! call is cheap enough for a single run but dominates the fixed cost of a
//! solve once a server answers a *stream* of instances. A [`Workspace`]
//! keeps one instance of each buffer, keyed by *purpose* (a `&'static str`
//! chosen by the call site), and hands it out in a cleared state. Buffers
//! come in two kinds, plus typed slots:
//!
//! * [`take_flags`](Workspace::take_flags) — a `Vec<bool>` of a requested
//!   length, all `false` (re-zeroed on every take, so callers never observe a
//!   previous user's state);
//! * [`take_u32`](Workspace::take_u32) — an empty, capacity-retaining
//!   `Vec<u32>` list, or [`take_u32_zeroed`](Workspace::take_u32_zeroed) —
//!   one of a requested length, all `0` (counting-sort offsets and the like);
//! * [`take_any`](Workspace::take_any) / [`put_any`](Workspace::put_any) —
//!   typed slots for larger reusable state (the facade's `BatchRunner` parks
//!   whole `ActiveHypergraph` engines here between solves).
//!
//! Every `take_*` has a matching `put_*`; callers return the buffer when
//! done so the next take (same purpose) reuses the allocation. Buffers are
//! cleared on *take*, not on put — a `put` is just a pointer move, and the
//! clearing cost is paid only by call sites that actually reuse the buffer.
//!
//! The workspace counts how often a take had to allocate or grow
//! ([`fresh_allocations`](Workspace::fresh_allocations)), which is what the
//! zero-reallocation tests assert on: once a workspace has solved a set of
//! instances, solving them again with the same seeds must not allocate at
//! all. A serving shard owns one workspace for its whole life, and hands it
//! back at shutdown so the next runner's shard of the same index rewarms
//! it.
//!
//! # Determinism
//!
//! A workspace never influences results: buffers are handed out cleared, so
//! an algorithm run with a freshly created workspace and one run with a
//! well-used workspace make byte-identical decisions. The determinism suites
//! (`tests/batch.rs` in the facade) pin this.

use std::any::Any;

/// A tiny linear-scan map keyed by `&'static str`. The workspace holds a
/// couple of dozen purpose keys at most, and the keys are string *literals*,
/// so a pointer+length fast path resolves almost every probe without
/// touching the bytes — far cheaper than a tree or hash map at this size,
/// and with no iteration order anywhere near the results.
struct KeyedPool<V> {
    entries: Vec<(&'static str, V)>,
}

impl<V> Default for KeyedPool<V> {
    fn default() -> Self {
        KeyedPool {
            entries: Vec::new(),
        }
    }
}

#[inline]
fn same_key(a: &'static str, b: &'static str) -> bool {
    std::ptr::eq(a, b) || a == b
}

impl<V> KeyedPool<V> {
    fn remove(&mut self, key: &'static str) -> Option<V> {
        let i = self.entries.iter().position(|(k, _)| same_key(k, key))?;
        Some(self.entries.swap_remove(i).1)
    }

    fn insert(&mut self, key: &'static str, v: V) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| same_key(k, key)) {
            slot.1 = v;
        } else {
            self.entries.push((key, v));
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

impl<V: Copy> KeyedPool<V> {
    fn get(&self, key: &'static str) -> Option<V> {
        self.entries
            .iter()
            .find(|(k, _)| same_key(k, key))
            .map(|&(_, v)| v)
    }
}

/// A reusable scratch arena: per-purpose flag and `u32` buffers plus typed
/// slots for engine-sized state. See the [module docs](self).
#[derive(Default)]
pub struct Workspace {
    flags: KeyedPool<Vec<bool>>,
    u32s: KeyedPool<Vec<u32>>,
    slots: KeyedPool<Box<dyn Any + Send>>,
    // Capacity each `u32` buffer had when it was last handed out, so a put
    // can detect that the caller's pushes grew it (a reallocation that
    // happened outside the workspace's sight).
    u32_caps: KeyedPool<usize>,
    creations: u64,
    grows: u64,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("flag_buffers", &self.flags.len())
            .field("u32_buffers", &self.u32s.len())
            .field("slots", &self.slots.len())
            .field("fresh_allocations", &self.fresh_allocations())
            .finish()
    }
}

/// The buffer parked under `key`, or a new empty one on first use (or when
/// the previous user never put it back), counted in `creations`.
fn take_parked<T>(pool: &mut KeyedPool<Vec<T>>, key: &'static str, creations: &mut u64) -> Vec<T> {
    pool.remove(key).unwrap_or_else(|| {
        *creations += 1;
        Vec::new()
    })
}

impl Workspace {
    /// Creates an empty workspace. Pools fill lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the `Vec<u32>` pooled under `key` (creating it on first use).
    ///
    /// The buffer is **empty** (`len == 0`) but retains the capacity it
    /// had when it was last put back under the same key.
    pub fn take_u32(&mut self, key: &'static str) -> Vec<u32> {
        let mut v = take_parked(&mut self.u32s, key, &mut self.creations);
        v.clear();
        self.u32_caps.insert(key, v.capacity());
        v
    }

    /// Returns a buffer taken with [`take_u32`](Self::take_u32) or
    /// [`take_u32_zeroed`](Self::take_u32_zeroed) so the next take under
    /// the same key reuses its allocation. If the caller's pushes grew the
    /// buffer beyond the capacity it was handed out with, that reallocation
    /// is counted toward [`fresh_allocations`](Self::fresh_allocations).
    pub fn put_u32(&mut self, key: &'static str, v: Vec<u32>) {
        if let Some(cap) = self.u32_caps.get(key) {
            if v.capacity() > cap {
                self.grows += 1;
            }
        }
        self.u32s.insert(key, v);
    }

    /// Takes the flag buffer pooled under `key`, cleared to `len` `false`
    /// entries regardless of what the previous user left in it.
    pub fn take_flags(&mut self, key: &'static str, len: usize) -> Vec<bool> {
        let mut v = take_parked(&mut self.flags, key, &mut self.creations);
        if v.capacity() < len {
            self.grows += 1;
        }
        v.clear();
        v.resize(len, false);
        v
    }

    /// Returns a flag buffer taken with [`take_flags`](Self::take_flags).
    /// No cleaning happens here — the next take re-zeroes.
    pub fn put_flags(&mut self, key: &'static str, v: Vec<bool>) {
        self.flags.insert(key, v);
    }

    /// Like [`take_flags`](Self::take_flags), but *trusts* that the previous
    /// user put the buffer back all-`false` instead of re-zeroing it — for
    /// keys whose users provably unwind every bit they set (the BL/SBL
    /// round-scratch invariant), this removes the `O(len)` memset per take.
    /// The contract is debug-asserted; only entries grown beyond the previous
    /// length are written. Never share a key between this and plain
    /// [`take_flags`](Self::take_flags) users that put buffers back dirty.
    pub fn take_flags_clean(&mut self, key: &'static str, len: usize) -> Vec<bool> {
        let mut v = take_parked(&mut self.flags, key, &mut self.creations);
        if v.capacity() < len {
            self.grows += 1;
        }
        debug_assert!(
            v.iter().all(|&b| !b),
            "take_flags_clean: buffer under {key:?} was put back dirty"
        );
        v.resize(len, false);
        v
    }

    /// Takes the `Vec<u32>` pooled under `key`, cleared to `len` zero
    /// entries (counting-sort offsets and similar dense accumulators).
    pub fn take_u32_zeroed(&mut self, key: &'static str, len: usize) -> Vec<u32> {
        let mut v = self.take_u32(key);
        if v.capacity() < len {
            self.grows += 1;
        }
        v.resize(len, 0);
        // Record the post-resize capacity so the matching put does not count
        // the same growth a second time.
        self.u32_caps.insert(key, v.capacity());
        v
    }

    /// Takes the typed slot stored under `key`, if one of type `T` is
    /// parked there. A slot holding a different type is dropped (counted as
    /// a miss), so heterogeneous callers sharing a key degrade to
    /// reconstruction instead of panicking.
    pub fn take_any<T: Any + Send>(&mut self, key: &'static str) -> Option<T> {
        let parked = self
            .slots
            .remove(key)
            .and_then(|boxed| boxed.downcast::<T>().ok());
        if parked.is_none() {
            self.creations += 1;
        }
        parked.map(|v| *v)
    }

    /// Parks a value under `key` for a later [`take_any`](Self::take_any).
    pub fn put_any<T: Any + Send>(&mut self, key: &'static str, v: T) {
        self.slots.insert(key, Box::new(v));
    }

    /// How many pool interactions involved a real allocation: the key was
    /// empty on take (first use, or the previous user never put the buffer
    /// back), a sized take (`take_flags` / `take_u32_zeroed`) had to grow the
    /// buffer, or a list buffer came back from the caller with more capacity
    /// than it was handed out with (the caller's pushes reallocated it). A
    /// workspace that solves again what it has solved before (same
    /// instances, same seeds) reports no new fresh allocations — the
    /// property the zero-reallocation tests and the batch guard's
    /// `warm_fresh_allocations` pin. A seed it has not solved can still grow
    /// a list buffer: a randomized solve's lists grow to the largest sample,
    /// round or tail they have held, and a new seed can set a new high.
    ///
    /// Flag buffers are excluded from put-side growth tracking: they are
    /// sized at take and callers only flip bits.
    pub fn fresh_allocations(&self) -> u64 {
        self.creations + self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_cleared_on_every_take() {
        let mut ws = Workspace::new();
        let mut f = ws.take_flags("t", 8);
        f[3] = true;
        ws.put_flags("t", f);
        let f = ws.take_flags("t", 8);
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|&b| !b));
        ws.put_flags("t", f);
        // Shrinking and growing both yield fully-false buffers.
        let f = ws.take_flags("t", 3);
        assert!(f.len() == 3 && f.iter().all(|&b| !b));
        ws.put_flags("t", f);
        let f = ws.take_flags("t", 16);
        assert!(f.len() == 16 && f.iter().all(|&b| !b));
    }

    #[test]
    fn pools_retain_capacity_and_count_misses() {
        let mut ws = Workspace::new();
        let mut v = ws.take_u32("idx");
        v.extend(0..1000);
        let cap = v.capacity();
        ws.put_u32("idx", v);
        let before = ws.fresh_allocations();
        let v = ws.take_u32("idx");
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap);
        assert_eq!(
            ws.fresh_allocations(),
            before,
            "warm take must not allocate"
        );
        // A different key is a fresh allocation.
        let _ = ws.take_u32("other");
        assert_eq!(ws.fresh_allocations(), before + 1);
    }

    #[test]
    fn zeroed_u32_buffers() {
        let mut ws = Workspace::new();
        let mut v = ws.take_u32_zeroed("cnt", 5);
        v[2] = 7;
        ws.put_u32("cnt", v);
        let v = ws.take_u32_zeroed("cnt", 5);
        assert_eq!(v, vec![0; 5]);
    }

    #[test]
    fn any_slots_round_trip_and_tolerate_type_changes() {
        let mut ws = Workspace::new();
        assert_eq!(ws.take_any::<Vec<u8>>("engine"), None);
        ws.put_any("engine", vec![1u8, 2, 3]);
        assert_eq!(ws.take_any::<Vec<u8>>("engine"), Some(vec![1, 2, 3]));
        // Wrong type: dropped, not a panic.
        ws.put_any("engine", String::from("x"));
        assert_eq!(ws.take_any::<Vec<u8>>("engine"), None);
    }
}
