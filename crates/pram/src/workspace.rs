//! [`Workspace`]: a reusable scratch arena for the zero-reallocation run
//! pipeline.
//!
//! The round-based MIS algorithms and the PRAM primitives they are built on
//! need the same few kinds of scratch over and over: flag vectors over the
//! vertex id space, index lists, scan buffers. Allocating them per call is
//! cheap enough for a single run but dominates the fixed cost of a solve once
//! a server answers a *stream* of instances. A [`Workspace`] keeps one
//! instance of each buffer, keyed by *purpose* (a `&'static str` chosen by the
//! call site), and hands it out in a cleared state:
//!
//! * [`take_flags`](Workspace::take_flags) — a `Vec<bool>` of a requested
//!   length, all `false` (re-zeroed on every take, so callers never observe a
//!   previous user's state);
//! * [`take_u32`](Workspace::take_u32) / [`take_u64`](Workspace::take_u64) /
//!   [`take_usize`](Workspace::take_usize) — an empty, capacity-retaining
//!   list buffer;
//! * [`take_u32_zeroed`](Workspace::take_u32_zeroed) — a `Vec<u32>` of a
//!   requested length, all `0` (counting-sort offsets and the like);
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
//! zero-reallocation tests assert on: after a warm-up solve, a stream of
//! same-shaped solves must not allocate at all.
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

/// A reusable scratch arena: per-purpose pools of flag/index/scan buffers
/// plus typed slots for engine-sized state. See the [module docs](self).
#[derive(Default)]
pub struct Workspace {
    flags: KeyedPool<Vec<bool>>,
    u32s: KeyedPool<Vec<u32>>,
    u64s: KeyedPool<Vec<u64>>,
    usizes: KeyedPool<Vec<usize>>,
    slots: KeyedPool<Box<dyn Any + Send>>,
    // Capacity each list buffer had when it was last handed out, so a put
    // can detect that the caller's pushes grew it (a reallocation that
    // happened outside the workspace's sight).
    u32_caps: KeyedPool<usize>,
    u64_caps: KeyedPool<usize>,
    usize_caps: KeyedPool<usize>,
    takes: u64,
    creations: u64,
    grows: u64,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("pooled_buffers", &self.pooled_buffers())
            .field("slots", &self.slots.len())
            .field("takes", &self.takes)
            .field("fresh_allocations", &self.fresh_allocations())
            .finish()
    }
}

macro_rules! pool_impl {
    ($take:ident, $put:ident, $field:ident, $caps:ident, $t:ty, $doc:literal) => {
        #[doc = $doc]
        ///
        /// The buffer is **empty** (`len == 0`) but retains the capacity it
        /// had when it was last put back under the same key.
        pub fn $take(&mut self, key: &'static str) -> Vec<$t> {
            self.takes += 1;
            let v = match self.$field.remove(key) {
                Some(mut v) => {
                    v.clear();
                    v
                }
                None => {
                    self.creations += 1;
                    Vec::new()
                }
            };
            self.$caps.insert(key, v.capacity());
            v
        }

        /// Returns a buffer taken with the matching `take` so the next take
        /// under the same key reuses its allocation. If the caller's pushes
        /// grew the buffer beyond the capacity it was handed out with, that
        /// reallocation is counted toward
        /// [`fresh_allocations`](Self::fresh_allocations).
        pub fn $put(&mut self, key: &'static str, v: Vec<$t>) {
            if let Some(cap) = self.$caps.get(key) {
                if v.capacity() > cap {
                    self.grows += 1;
                }
            }
            self.$field.insert(key, v);
        }
    };
}

impl Workspace {
    /// Creates an empty workspace. Pools fill lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    pool_impl!(
        take_u32,
        put_u32,
        u32s,
        u32_caps,
        u32,
        "Takes the `Vec<u32>` pooled under `key` (creating it on first use)."
    );
    pool_impl!(
        take_u64,
        put_u64,
        u64s,
        u64_caps,
        u64,
        "Takes the `Vec<u64>` pooled under `key` (creating it on first use)."
    );
    pool_impl!(
        take_usize,
        put_usize,
        usizes,
        usize_caps,
        usize,
        "Takes the `Vec<usize>` pooled under `key` (creating it on first use)."
    );

    /// Takes the flag buffer pooled under `key`, cleared to `len` `false`
    /// entries regardless of what the previous user left in it.
    pub fn take_flags(&mut self, key: &'static str, len: usize) -> Vec<bool> {
        self.takes += 1;
        let mut v = match self.flags.remove(key) {
            Some(v) => v,
            None => {
                self.creations += 1;
                Vec::new()
            }
        };
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
        self.takes += 1;
        let mut v = match self.flags.remove(key) {
            Some(v) => v,
            None => {
                self.creations += 1;
                Vec::new()
            }
        };
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
        self.takes += 1;
        match self.slots.remove(key) {
            Some(boxed) => match boxed.downcast::<T>() {
                Ok(v) => Some(*v),
                Err(_) => {
                    self.creations += 1;
                    None
                }
            },
            None => {
                self.creations += 1;
                None
            }
        }
    }

    /// Parks a value under `key` for a later [`take_any`](Self::take_any).
    pub fn put_any<T: Any + Send>(&mut self, key: &'static str, v: T) {
        self.slots.insert(key, Box::new(v));
    }

    /// How many takes have been served since construction.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// How many pool interactions involved a real allocation: the key was
    /// empty on take (first use, or the previous user never put the buffer
    /// back), a sized take (`take_flags` / `take_u32_zeroed`) had to grow the
    /// buffer, or a list buffer came back from the caller with more capacity
    /// than it was handed out with (the caller's pushes reallocated it). A
    /// warmed-up workspace serving a stream of same-shaped solves reports no
    /// new fresh allocations — the property the zero-reallocation tests pin.
    ///
    /// Flag buffers are excluded from put-side growth tracking: they are
    /// sized at take and callers only flip bits.
    pub fn fresh_allocations(&self) -> u64 {
        self.creations + self.grows
    }

    /// Number of buffers currently parked in the typed pools (excluding
    /// [`put_any`](Self::put_any) slots).
    pub fn pooled_buffers(&self) -> usize {
        self.flags.len() + self.u32s.len() + self.u64s.len() + self.usizes.len()
    }
}

/// A per-shard pool of [`Workspace`]s: the serving layer's bridge between
/// one-workspace-per-stream (the `BatchRunner` model) and N long-lived worker
/// shards.
///
/// Each shard index owns at most one parked workspace.
/// [`checkout`](WorkspacePool::checkout) hands the shard *its own* workspace back —
/// per-shard affinity, so engines and buffers parked by shard `i`'s previous
/// serve generation are rewarmed by shard `i`'s next one and never migrate
/// between shards. [`checkin`](WorkspacePool::checkin) parks it again and
/// snapshots its allocation counters, so the pool can report the
/// zero-reallocation property **per shard**
/// ([`shard_fresh_allocations`](WorkspacePool::shard_fresh_allocations))
/// and aggregated pool-wide
/// ([`fresh_allocations`](WorkspacePool::fresh_allocations)).
///
/// # Exhaustion behaviour
///
/// Checking out a shard whose workspace is already out does not block and
/// does not panic: the pool hands out a **fresh** workspace and counts the
/// event ([`overflow_checkouts`](WorkspacePool::overflow_checkouts)). On
/// checkin, a shard that already holds a parked workspace keeps it — the
/// incoming one is dropped and counted
/// ([`dropped_checkins`](WorkspacePool::dropped_checkins)) — so the
/// shard-resident workspace (and its warmth) is stable under overflow.
///
/// # Determinism
///
/// Like [`Workspace`] itself, the pool never influences results: a checkout
/// serving a warm workspace and one serving a fresh workspace lead to
/// byte-identical solve outcomes (the facade's serve suite pins this across
/// shard counts and pool generations).
#[derive(Default, Debug)]
pub struct WorkspacePool {
    slots: Vec<PoolSlot>,
    checkouts: u64,
    overflow_checkouts: u64,
    dropped_checkins: u64,
}

#[derive(Default, Debug)]
struct PoolSlot {
    parked: Option<Workspace>,
    /// Whether this shard has ever handed out a workspace (distinguishes
    /// first use from exhaustion overflow).
    created: bool,
    /// Counter snapshots from the last checkin (live values are read off the
    /// parked workspace directly when present).
    last_takes: u64,
    last_fresh: u64,
}

impl WorkspacePool {
    /// Creates a pool with `shards` empty slots; each shard's workspace is
    /// created lazily on its first checkout.
    pub fn new(shards: usize) -> Self {
        let mut pool = WorkspacePool::default();
        pool.ensure_shards(shards);
        pool
    }

    /// Number of shard slots.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Grows the pool to at least `shards` slots (never shrinks, so parked
    /// workspaces survive a reconfiguration to fewer shards).
    pub fn ensure_shards(&mut self, shards: usize) {
        while self.slots.len() < shards {
            self.slots.push(PoolSlot::default());
        }
    }

    /// Takes shard `shard`'s workspace (creating a fresh one on first use, or
    /// when the shard's workspace is currently checked out — see the
    /// [exhaustion behaviour](WorkspacePool#exhaustion-behaviour)).
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    pub fn checkout(&mut self, shard: usize) -> Workspace {
        self.checkouts += 1;
        let slot = &mut self.slots[shard];
        match slot.parked.take() {
            Some(ws) => ws,
            None => {
                if slot.created {
                    self.overflow_checkouts += 1;
                }
                slot.created = true;
                Workspace::new()
            }
        }
    }

    /// Parks `ws` as shard `shard`'s workspace and snapshots its counters.
    /// If the shard already holds a parked workspace the incoming one is
    /// dropped (see the
    /// [exhaustion behaviour](WorkspacePool#exhaustion-behaviour)).
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    pub fn checkin(&mut self, shard: usize, ws: Workspace) {
        let slot = &mut self.slots[shard];
        if slot.parked.is_some() {
            self.dropped_checkins += 1;
            return;
        }
        slot.created = true;
        slot.last_takes = ws.takes();
        slot.last_fresh = ws.fresh_allocations();
        slot.parked = Some(ws);
    }

    /// Number of workspaces currently parked.
    pub fn parked(&self) -> usize {
        self.slots.iter().filter(|s| s.parked.is_some()).count()
    }

    /// Total checkouts served since construction.
    pub fn checkouts(&self) -> u64 {
        self.checkouts
    }

    /// Checkouts that found the shard's workspace already out and had to
    /// create a fresh one (pool exhaustion events).
    pub fn overflow_checkouts(&self) -> u64 {
        self.overflow_checkouts
    }

    /// Checkins dropped because the shard already held a parked workspace.
    pub fn dropped_checkins(&self) -> u64 {
        self.dropped_checkins
    }

    /// [`Workspace::fresh_allocations`] of shard `shard`'s workspace: live if
    /// parked, otherwise the snapshot from its last checkin. The per-shard
    /// zero-reallocation report: for a shard serving a stream of same-shaped
    /// solves, this number stops growing after the warm-up generation.
    pub fn shard_fresh_allocations(&self, shard: usize) -> u64 {
        let slot = &self.slots[shard];
        slot.parked
            .as_ref()
            .map_or(slot.last_fresh, |ws| ws.fresh_allocations())
    }

    /// [`Workspace::takes`] of shard `shard`'s workspace (live if parked,
    /// otherwise the last-checkin snapshot).
    pub fn shard_takes(&self, shard: usize) -> u64 {
        let slot = &self.slots[shard];
        slot.parked
            .as_ref()
            .map_or(slot.last_takes, |ws| ws.takes())
    }

    /// Pool-wide aggregate of [`Workspace::fresh_allocations`] across all
    /// shards (live values for parked workspaces, last-checkin snapshots for
    /// checked-out ones).
    pub fn fresh_allocations(&self) -> u64 {
        (0..self.slots.len())
            .map(|s| self.shard_fresh_allocations(s))
            .sum()
    }

    /// Pool-wide aggregate of [`Workspace::takes`] across all shards.
    pub fn takes(&self) -> u64 {
        (0..self.slots.len()).map(|s| self.shard_takes(s)).sum()
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

    #[test]
    fn u64_and_usize_pools() {
        let mut ws = Workspace::new();
        let mut a = ws.take_u64("scan");
        a.push(9);
        ws.put_u64("scan", a);
        assert!(ws.take_u64("scan").is_empty());
        let mut b = ws.take_usize("compact");
        b.push(1);
        ws.put_usize("compact", b);
        assert!(ws.take_usize("compact").is_empty());
        ws.put_u64("scan", Vec::new());
        assert!(ws.takes() >= 4);
        assert!(ws.pooled_buffers() >= 1);
    }

    #[test]
    fn pool_checkout_has_shard_affinity() {
        let mut pool = WorkspacePool::new(2);
        let mut a = pool.checkout(0);
        let mut v = a.take_u32("idx");
        v.extend(0..100);
        a.put_u32("idx", v);
        pool.checkin(0, a);
        let fresh_after_warm = pool.shard_fresh_allocations(0);
        // Shard 0 gets its warm workspace back; the same usage allocates
        // nothing new. Shard 1 is untouched.
        let mut a = pool.checkout(0);
        let v = a.take_u32("idx");
        assert!(v.capacity() >= 100);
        a.put_u32("idx", v);
        pool.checkin(0, a);
        assert_eq!(pool.shard_fresh_allocations(0), fresh_after_warm);
        assert_eq!(pool.shard_fresh_allocations(1), 0);
        assert_eq!(pool.fresh_allocations(), fresh_after_warm);
    }

    #[test]
    fn pool_exhaustion_hands_out_fresh_and_counts() {
        let mut pool = WorkspacePool::new(1);
        let first = pool.checkout(0);
        assert_eq!(pool.overflow_checkouts(), 0);
        // Same shard again while checked out: fresh workspace, counted.
        let overflow = pool.checkout(0);
        assert_eq!(pool.overflow_checkouts(), 1);
        assert_eq!(overflow.takes(), 0);
        pool.checkin(0, first);
        assert_eq!(pool.parked(), 1);
        // The shard already holds its workspace: the overflow one is dropped.
        pool.checkin(0, overflow);
        assert_eq!(pool.dropped_checkins(), 1);
        assert_eq!(pool.parked(), 1);
        assert_eq!(pool.checkouts(), 2);
    }

    #[test]
    fn pool_counters_survive_checkout() {
        let mut pool = WorkspacePool::new(1);
        let mut ws = pool.checkout(0);
        let _ = ws.take_flags("f", 8);
        pool.checkin(0, ws);
        let takes = pool.shard_takes(0);
        let fresh = pool.shard_fresh_allocations(0);
        assert!(takes >= 1 && fresh >= 1);
        // While checked out, the snapshots from the last checkin remain
        // visible.
        let ws = pool.checkout(0);
        assert_eq!(pool.shard_takes(0), takes);
        assert_eq!(pool.shard_fresh_allocations(0), fresh);
        assert_eq!(pool.takes(), takes);
        pool.checkin(0, ws);
    }

    #[test]
    fn pool_grows_but_never_shrinks() {
        let mut pool = WorkspacePool::new(2);
        pool.ensure_shards(1);
        assert_eq!(pool.shards(), 2);
        pool.ensure_shards(4);
        assert_eq!(pool.shards(), 4);
    }
}
