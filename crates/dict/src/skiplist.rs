//! The skip-list dictionary (paper §4.1).
//!
//! "We can implement a lock-free skip list \[24\] as a collection of k
//! sorted singly-linked lists, such that higher level lists contain a
//! subset of the cells in lower level lists. As in \[23\], insertions and
//! deletions are performed one level at a time, insertions starting with
//! the bottom level and working up, and deletions starting at the top and
//! working down."
//!
//! Cells are *towers* shared by every level they belong to (the "subset of
//! the cells" phrasing); each level is an independent Valois list — with
//! its own per-level auxiliary nodes, back links, and the §3 algorithms
//! generalized to indexed links. The two dummy cells are shared across all
//! levels.
//!
//! Membership is defined by the bottom list: a key is in the dictionary
//! iff its cell is in level 0. Upper levels are an index; a cell removed
//! at level 0 but still visible above (an in-flight top-down deletion or a
//! stalled bottom-up insertion) only costs extra hops, never correctness.

use std::fmt;
use std::mem::MaybeUninit;
use valois_sync::shim::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use valois_sync::shim::cell::UnsafeCell;
use valois_sync::Backoff;

use valois_mem::{Arena, ArenaConfig, Link, Managed, MemStats, NodeHeader, ReclaimedLinks};

use crate::traits::Dictionary;

/// Number of levels. With promotion probability 1/2 this comfortably
/// indexes ~10⁵–10⁶ items (the paper chooses k = Θ(log N)).
pub const MAX_LEVELS: usize = 12;

// A max-level tower reports 2 * MAX_LEVELS counted links (next + back_link
// per level) when reclaimed; `ReclaimedLinks` hard-caps at
// `valois_mem::MAX_LINKS` and panics past it, so raising MAX_LEVELS without
// raising the cap must fail at compile time, not at the first reclaimed
// max tower in production.
const _: () = assert!(
    2 * MAX_LEVELS <= valois_mem::MAX_LINKS,
    "a max-level tower's drained links must fit in ReclaimedLinks"
);

const KIND_FREE: u8 = 0;
const KIND_AUX: u8 = 1;
const KIND_CELL: u8 = 2;
const KIND_FIRST: u8 = 3;
const KIND_LAST: u8 = 4;

/// A skip-list node: a tower cell (key/value + one list membership per
/// level), a per-level auxiliary node (uses `next[0]` only), or a shared
/// dummy.
struct SkipNode<K, V> {
    header: NodeHeader,
    kind: AtomicU8,
    /// For cells: number of levels the tower spans (1..=MAX_LEVELS).
    level: AtomicU8,
    next: [Link<SkipNode<K, V>>; MAX_LEVELS],
    back_link: [Link<SkipNode<K, V>>; MAX_LEVELS],
    key: UnsafeCell<MaybeUninit<K>>,
    value: UnsafeCell<MaybeUninit<V>>,
}

// SAFETY: key/value slots are accessed only under the §5 ownership rules
// (exclusive at init/drain; shared reads while counted and kind == CELL).
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipNode<K, V> {}
// SAFETY: as above — shared reads require a counted reference.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipNode<K, V> {}

impl<K, V> Default for SkipNode<K, V> {
    fn default() -> Self {
        Self {
            header: NodeHeader::new_free(),
            kind: AtomicU8::new(KIND_FREE),
            level: AtomicU8::new(0),
            next: std::array::from_fn(|_| Link::null()),
            back_link: std::array::from_fn(|_| Link::null()),
            key: UnsafeCell::new(MaybeUninit::uninit()),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

impl<K, V> SkipNode<K, V> {
    fn kind(&self) -> u8 {
        self.kind.load(Ordering::Acquire)
    }

    fn is_aux(&self) -> bool {
        self.kind() == KIND_AUX
    }

    fn is_normal_cell(&self) -> bool {
        matches!(self.kind(), KIND_CELL | KIND_FIRST | KIND_LAST)
    }

    /// An aux node's outgoing link lives in `next[0]` regardless of the
    /// level it serves; cells and dummies use `next[lvl]`.
    fn out_link(&self, lvl: usize) -> &Link<SkipNode<K, V>> {
        if self.is_aux() {
            &self.next[0]
        } else {
            &self.next[lvl]
        }
    }

    /// # Safety
    /// Counted reference held; kind == CELL.
    unsafe fn key(&self) -> &K {
        (*self.key.get()).assume_init_ref()
    }

    /// # Safety
    /// Counted reference held; kind == CELL.
    unsafe fn value(&self) -> &V {
        (*self.value.get()).assume_init_ref()
    }
}

impl<K: Send + Sync, V: Send + Sync> Managed for SkipNode<K, V> {
    fn header(&self) -> &NodeHeader {
        &self.header
    }

    fn free_link(&self) -> &Link<Self> {
        &self.next[0]
    }

    fn drain_links(&self) -> ReclaimedLinks<Self> {
        let mut links = ReclaimedLinks::new();
        for l in &self.next {
            links.push(l.swap(std::ptr::null_mut()));
        }
        for l in &self.back_link {
            links.push(l.swap(std::ptr::null_mut()));
        }
        debug_assert!(
            links.len() <= valois_mem::MAX_LINKS,
            "skip tower drained {} links, over the MAX_LINKS cap",
            links.len()
        );
        if self.kind() == KIND_CELL {
            // SAFETY: claim winner at count zero — exclusive.
            unsafe {
                (*self.key.get()).assume_init_drop();
                (*self.value.get()).assume_init_drop();
            }
        }
        self.kind.store(KIND_FREE, Ordering::Release);
        links
    }

    fn reset_for_alloc(&self) {
        // next[0] held the free-list link (count transferred at pop).
        for l in &self.next {
            l.write(std::ptr::null_mut());
        }
        for l in &self.back_link {
            l.write(std::ptr::null_mut());
        }
        self.level.store(0, Ordering::Relaxed);
        debug_assert_eq!(self.kind(), KIND_FREE);
    }
}

/// A per-level cursor: the §3 triple specialized to level `lvl`'s links.
struct LevelCursor<K, V> {
    target: *mut SkipNode<K, V>,
    pre_aux: *mut SkipNode<K, V>,
    pre_cell: *mut SkipNode<K, V>,
}

/// Counted per-level predecessors from one descent, indexed by level
/// (slot 0 stays null): where bottom-up linking and the remover's orphan
/// sweep start each level.
type Saved<K, V> = [*mut SkipNode<K, V>; MAX_LEVELS];

/// A non-blocking skip-list dictionary (paper §4.1).
///
/// # Example
///
/// ```
/// use valois_dict::{Dictionary, SkipListDict};
///
/// let d: SkipListDict<u64, u64> = SkipListDict::new();
/// for k in 0..100 {
///     d.insert(k, k);
/// }
/// assert!(d.contains(&42));
/// assert!(d.remove(&42));
/// assert!(!d.contains(&42));
/// ```
pub struct SkipListDict<K: Send + Sync, V: Send + Sync> {
    arena: Arena<SkipNode<K, V>>,
    first_root: Link<SkipNode<K, V>>,
    last_root: Link<SkipNode<K, V>>,
    first: *mut SkipNode<K, V>,
    last: *mut SkipNode<K, V>,
    rng_state: AtomicU64,
    retries: AtomicU64,
}

// SAFETY: raw pointer fields are immutable after construction; all shared
// state flows through the arena protocol.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipListDict<K, V> {}
// SAFETY: as above — all shared mutation is CAS on counted links.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipListDict<K, V> {}

impl<K, V> SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    /// Creates an empty skip list with the default arena configuration.
    pub fn new() -> Self {
        Self::with_config(ArenaConfig::default())
    }

    /// Creates an empty skip list with `config`.
    pub fn with_config(config: ArenaConfig) -> Self {
        let config = ArenaConfig {
            initial_capacity: config.initial_capacity.max(MAX_LEVELS + 8),
            ..config
        };
        let arena: Arena<SkipNode<K, V>> = Arena::with_config(config);
        let first = arena.alloc().expect("pool too small");
        let last = arena.alloc().expect("pool too small");
        let dict = Self {
            arena,
            first_root: Link::null(),
            last_root: Link::null(),
            first,
            last,
            rng_state: AtomicU64::new(0x853c_49e6_748f_ea9b),
            retries: AtomicU64::new(0),
        };
        // SAFETY: single-threaded construction; fresh exclusive nodes.
        unsafe {
            (*first).kind.store(KIND_FIRST, Ordering::Release);
            (*first).level.store(MAX_LEVELS as u8, Ordering::Relaxed);
            (*last).kind.store(KIND_LAST, Ordering::Release);
            (*last).level.store(MAX_LEVELS as u8, Ordering::Relaxed);
            dict.arena.store_link(&dict.first_root, first);
            dict.arena.store_link(&dict.last_root, last);
            // One auxiliary node per level between the dummies (Fig. 4, k
            // times over).
            for lvl in 0..MAX_LEVELS {
                let aux = dict.arena.alloc().expect("pool too small");
                (*aux).kind.store(KIND_AUX, Ordering::Release);
                dict.arena.store_link(&(*aux).next[0], last);
                dict.arena.store_link(&(*first).next[lvl], aux);
                dict.arena.release(aux);
            }
            dict.arena.release(first);
            dict.arena.release(last);
        }
        dict
    }

    /// Geometric tower height in 1..=MAX_LEVELS (p = 1/2), from a lock-free
    /// splitmix64 stream.
    fn random_level(&self) -> usize {
        let mut z = self
            .rng_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z.trailing_ones() as usize) + 1).min(MAX_LEVELS)
    }

    // ------------------------------------------------------------------
    // Per-level §3 algorithms (Figs. 5, 6, 7, 9, 10 with indexed links).
    // Every unsafe block relies on the valois-core cursor invariants:
    // dereferenced pointers are counted references; links passed to
    // safe_read/swing are counted links of `self.arena`.
    // ------------------------------------------------------------------

    /// Fig. 6 `First` at `lvl`, entering from `from` — a held cell known to
    /// be a member of level `lvl`'s list (the descent entry point).
    ///
    /// # Safety
    ///
    /// `from` must be a counted reference to a cell in level `lvl`'s list.
    // GUARD: from — caller holds a count on the entry cell across the call.
    // COUNT: the counts acquired here are transferred into the returned
    // cursor; `release_cursor` (or `next`/`update` swaps) release them.
    unsafe fn cursor_at(&self, lvl: usize, from: *mut SkipNode<K, V>) -> LevelCursor<K, V> {
        self.arena.incr_ref(from);
        self.cursor_taking(lvl, from)
    }

    /// [`cursor_at`](Self::cursor_at) that takes over the caller's count
    /// on `from` instead of adding one.
    ///
    /// # Safety
    ///
    /// `from` must carry a count this call may consume, on a cell in level
    /// `lvl`'s list.
    // GUARD: from — caller holds a count when calling; it moves into the
    // returned cursor's `pre_cell`.
    // COUNT: consumes the caller's count on `from`; the returned cursor
    // owns it and the counts acquired here.
    unsafe fn cursor_taking(&self, lvl: usize, from: *mut SkipNode<K, V>) -> LevelCursor<K, V> {
        let mut c = LevelCursor {
            pre_cell: from,
            pre_aux: self.arena.safe_read((*from).out_link(lvl)),
            target: std::ptr::null_mut(),
        };
        self.update(lvl, &mut c);
        c
    }

    /// Fig. 5 `Update` at `lvl`.
    ///
    /// # Safety
    ///
    /// `c` must hold counted references obtained from this arena at `lvl`.
    unsafe fn update(&self, lvl: usize, c: &mut LevelCursor<K, V>) {
        if (*c.pre_aux).out_link(lvl).read() == c.target {
            return;
        }
        let mut p = c.pre_aux;
        let mut n = self.arena.safe_read((*p).out_link(lvl));
        self.arena.release(c.target);
        // WAIT-FREE: bounded by the aux-chain length; the collapse CAS is
        // one-shot per pair and its failure (someone else advanced) is
        // ignored, never retried in place.
        while !n.is_null() && (*n).is_aux() {
            let _ = self.arena.swing((*c.pre_cell).out_link(lvl), p, n);
            self.arena.release(p);
            p = n;
            n = self.arena.safe_read((*p).out_link(lvl));
        }
        debug_assert!(!n.is_null());
        c.pre_aux = p;
        c.target = n;
    }

    /// Fig. 10 lines 7-11 at `lvl`: walk `back_link[lvl]`s from `from` to
    /// the nearest cell not itself deleted at this level (shared by
    /// `try_delete`'s recovery and `resume`).
    ///
    /// # Safety
    ///
    /// `from` must carry a count this call may consume.
    // GUARD: from — caller holds a count when calling; the walk hands it
    // off hop by hop (consumed here, replaced by the returned cell's).
    // COUNT: consumes the caller's count on `from`; the returned pointer
    // carries one count that transfers to the caller.
    unsafe fn backtrack(&self, lvl: usize, from: *mut SkipNode<K, V>) -> *mut SkipNode<K, V> {
        let mut p = from;
        while !(*p).back_link[lvl].read().is_null() {
            let q = self.arena.safe_read(&(*p).back_link[lvl]);
            if q.is_null() {
                break; // back_links are never cleared while p is held
            }
            self.arena.release(p);
            p = q;
        }
        p
    }

    /// [`Cursor::resume`](valois_core::Cursor::resume) at `lvl`: when the
    /// cursor's anchor was deleted at this level, back-walk to the
    /// nearest undeleted predecessor before revalidating —
    /// O(distance-to-conflict) instead of O(level length).
    ///
    /// # Safety
    ///
    /// `c` must hold counted references obtained from this arena at `lvl`.
    // INVARIANT: I10
    unsafe fn resume(&self, lvl: usize, c: &mut LevelCursor<K, V>) {
        if !(*c.pre_cell).back_link[lvl].read().is_null() {
            // COUNT: `backtrack` consumes the cursor's count on the old
            // `pre_cell` and its returned count is stored back into
            // `pre_cell` (released by `release_cursor`).
            let p = self.backtrack(lvl, c.pre_cell);
            c.pre_cell = p;
            self.arena.release(c.pre_aux);
            c.pre_aux = self.arena.safe_read((*p).out_link(lvl));
            self.arena.release(c.target);
            c.target = std::ptr::null_mut();
        }
        self.update(lvl, c);
    }

    /// A cursor at `lvl` opened from `from` and revalidated by
    /// [`resume`](Self::resume): if `from` has been deleted at this level,
    /// the cursor first walks `back_link[lvl]` back to a live predecessor
    /// (I10), so a start cell saved earlier is as good as the head.
    ///
    /// # Safety
    ///
    /// `from` must be a counted reference to a cell that is, or was, a
    /// member of level `lvl`'s list.
    // GUARD: from — caller holds a count on the start cell across the call.
    // COUNT: as `cursor_at`, the returned cursor owns its counts.
    // INVARIANT: I10
    unsafe fn reopen(&self, lvl: usize, from: *mut SkipNode<K, V>) -> LevelCursor<K, V> {
        let mut c = self.cursor_at(lvl, from);
        self.resume(lvl, &mut c);
        c
    }

    /// Fig. 7 `Next` at `lvl`.
    ///
    /// # Safety
    ///
    /// `c` must hold counted references obtained from this arena at `lvl`.
    unsafe fn next(&self, lvl: usize, c: &mut LevelCursor<K, V>) -> bool {
        if c.target == self.last {
            return false;
        }
        self.arena.release(c.pre_cell);
        self.arena.incr_ref(c.target);
        c.pre_cell = c.target;
        self.arena.release(c.pre_aux);
        c.pre_aux = self.arena.safe_read((*c.target).out_link(lvl));
        self.update(lvl, c);
        true
    }

    /// Fig. 11 `FindFrom` at `lvl`: advance until target key ≥ `key`.
    /// Returns true iff the target is a cell with key == `key`.
    ///
    /// # Safety
    ///
    /// `c` must hold counted references obtained from this arena at `lvl`.
    unsafe fn find_at_level(&self, lvl: usize, c: &mut LevelCursor<K, V>, key: &K) -> bool {
        loop {
            if c.target == self.last {
                return false;
            }
            if (*c.target).kind() == KIND_CELL {
                let k = (*c.target).key();
                if k == key {
                    return true;
                }
                if k > key {
                    return false;
                }
            }
            if !self.next(lvl, c) {
                return false;
            }
        }
    }

    /// Fig. 9 `TryInsert` at `lvl`: link (already initialized) `cell` with
    /// fresh `aux` before the cursor's target.
    ///
    /// # Safety
    ///
    /// `c`, `cell`, and `aux` must be counted references; `cell` and `aux`
    /// must be unpublished at `lvl` (this call is their only linker).
    // GUARD: cell, aux — caller holds a count on each across the call.
    unsafe fn try_insert(
        &self,
        lvl: usize,
        c: &LevelCursor<K, V>,
        cell: *mut SkipNode<K, V>,
        aux: *mut SkipNode<K, V>,
    ) -> bool {
        self.arena.store_link(&(*cell).next[lvl], aux);
        self.arena.store_link(&(*aux).next[0], c.target);
        self.arena.swing((*c.pre_aux).out_link(lvl), c.target, cell)
    }

    /// Fig. 10 `TryDelete` at `lvl`.
    ///
    /// # Safety
    ///
    /// `c` must hold counted references obtained from this arena at `lvl`.
    unsafe fn try_delete(&self, lvl: usize, c: &mut LevelCursor<K, V>) -> bool {
        if c.target == self.last {
            return false;
        }
        let d = c.target;
        let first_n = self.arena.safe_read(&(*d).next[lvl]);
        debug_assert!(!first_n.is_null());
        if !self.arena.swing((*c.pre_aux).out_link(lvl), d, first_n) {
            self.arena.release(first_n);
            return false;
        }
        // Back link for this level's recovery walk (Fig. 10 line 6).
        debug_assert!((*d).back_link[lvl].read().is_null());
        self.arena.incr_ref(c.pre_cell);
        (*d).back_link[lvl].write(c.pre_cell);
        // Fig. 10 lines 7-11: back to a cell not deleted at this level
        // (shared with `resume`).
        // COUNT: the incr_ref's count is consumed by `backtrack`, which
        // hands back one count on `p` (released at the end).
        self.arena.incr_ref(c.pre_cell);
        let p = self.backtrack(lvl, c.pre_cell);
        // Fig. 10 line 12.
        let mut s = self.arena.safe_read((*p).out_link(lvl));
        // Fig. 10 lines 13-16: advance n to the end of the aux chain.
        let mut n = first_n;
        loop {
            let nn = self.arena.safe_read((*n).out_link(lvl));
            debug_assert!(!nn.is_null());
            let cont = !(*nn).is_normal_cell();
            if !cont {
                self.arena.release(nn);
                break;
            }
            self.arena.release(n);
            n = nn;
        }
        // Fig. 10 lines 17-21.
        // WAIT-FREE: a failed swing means p's link changed — another
        // deleter or inserter made system-wide progress — and the two
        // guards below break out once p is itself deleted or the chain
        // grew past n, so this loop never spins without global progress.
        loop {
            if self.arena.swing((*p).out_link(lvl), s, n) {
                break;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.arena.release(s);
            s = self.arena.safe_read((*p).out_link(lvl));
            if !(*p).back_link[lvl].read().is_null() {
                break;
            }
            let nn = self.arena.safe_read((*n).out_link(lvl));
            let extended = !(*nn).is_normal_cell();
            self.arena.release(nn);
            if extended {
                break;
            }
        }
        self.arena.release(p);
        self.arena.release(s);
        self.arena.release(n);
        true
    }

    /// Releases all three counted references a cursor holds.
    ///
    /// # Safety
    ///
    /// `c`'s references must be live counts on this arena's nodes.
    unsafe fn release_cursor(&self, c: LevelCursor<K, V>) {
        self.arena.release(c.target);
        self.arena.release(c.pre_aux);
        self.arena.release(c.pre_cell);
    }

    /// Fig. 13's loop at `lvl`: find `key` and unlink it, resuming after
    /// each lost race. Returns true iff this call's `try_delete` won.
    ///
    /// # Safety
    ///
    /// `c` must hold counted references obtained from this arena at `lvl`.
    unsafe fn delete_at_level(
        &self,
        lvl: usize,
        c: &mut LevelCursor<K, V>,
        key: &K,
        backoff: &mut Backoff,
    ) -> bool {
        loop {
            if !self.find_at_level(lvl, c, key) {
                return false;
            }
            if self.try_delete(lvl, c) {
                return true;
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            backoff.spin();
            // INVARIANT: I10
            self.resume(lvl, c);
        }
    }

    /// Descends from the top level to level 1 running `step` on each
    /// level's cursor, and returns a level-0 cursor opened at the last
    /// level's `pre_cell` (the caller runs its own level-0 step).
    ///
    /// The entry point at each level is the level above's `pre_cell` — a
    /// cell (or the first dummy) with key below the step's key that, by
    /// the subset property, is also a member of every lower level. Each
    /// level's cursor passes its count on `pre_cell` down as the entry's
    /// count. With `saved`, that count stays in `saved[lvl]` (so
    /// `saved[lvl]` is level `lvl`'s `pre_cell`, for `lvl` ≥ 1) and the
    /// next cursor takes one of its own; without, the next cursor takes
    /// it over.
    ///
    /// # Safety
    ///
    /// The dictionary must be alive (roots counted). The returned cursor —
    /// and every pointer written into `saved` — is a counted reference the
    /// caller must release.
    unsafe fn descend(
        &self,
        mut saved: Option<&mut Saved<K, V>>,
        mut step: impl FnMut(usize, &mut LevelCursor<K, V>),
    ) -> LevelCursor<K, V> {
        let mut entry = self.first;
        self.arena.incr_ref(entry);
        let mut lvl = MAX_LEVELS - 1;
        loop {
            // COUNT: `entry` carries one count, on level `lvl + 1`'s
            // `pre_cell`. Kept in `saved` (released by `release_saved`),
            // the cursor adds its own; otherwise the cursor takes it over.
            let mut c = match saved.as_deref_mut() {
                Some(s) if lvl + 1 < MAX_LEVELS => {
                    s[lvl + 1] = entry;
                    self.cursor_at(lvl, entry)
                }
                _ => self.cursor_taking(lvl, entry),
            };
            if lvl == 0 {
                return c;
            }
            step(lvl, &mut c);
            // COUNT: the cursor's count on `pre_cell` becomes `entry`'s.
            entry = c.pre_cell;
            self.arena.release(c.target);
            self.arena.release(c.pre_aux);
            lvl -= 1;
        }
    }

    /// Releases the counts [`descend`](Self::descend) handed to `saved`.
    ///
    /// # Safety
    ///
    /// Every non-null slot must carry a count on this arena.
    unsafe fn release_saved(&self, saved: &Saved<K, V>) {
        for &p in saved {
            self.arena.release(p);
        }
    }

    fn insert_impl(&self, key: K, value: V) -> bool {
        self.insert_with_height(key, value, self.random_level())
    }

    /// Inserts with an explicit tower height instead of a random one.
    ///
    /// This is a test hook: the shim/loom models need deterministic tower
    /// heights to pin the insert-vs-remove interleaving (`random_level`
    /// draws from a thread-local stream the scheduler cannot replay).
    /// `height` is clamped to `1..=MAX_LEVELS`.
    #[doc(hidden)]
    pub fn insert_with_height(&self, key: K, value: V, height: usize) -> bool {
        let height = height.clamp(1, MAX_LEVELS);
        // SAFETY: protocol invariants as documented on each helper.
        unsafe {
            let mut saved: Saved<K, V> = [std::ptr::null_mut(); MAX_LEVELS];
            let mut c0 = self.descend(Some(&mut saved), |lvl, c| {
                let _ = self.find_at_level(lvl, c, &key);
            });
            if self.find_at_level(0, &mut c0, &key) {
                self.release_cursor(c0);
                self.release_saved(&saved);
                valois_trace::probe!(DictInsert, 0u64, 0u64);
                return false;
            }
            // Allocate and initialize the tower cell.
            let cell = self.arena.alloc().expect("skip-list node pool exhausted");
            (*(*cell).key.get()).write(key);
            (*(*cell).value.get()).write(value);
            (*cell).level.store(height as u8, Ordering::Relaxed);
            (*cell).kind.store(KIND_CELL, Ordering::Release);
            let key = (*cell).key(); // owned by the cell now
                                     // Level 0: the membership-defining insertion (Fig. 12 loop).
            let aux0 = self.arena.alloc().expect("skip-list node pool exhausted");
            (*aux0).kind.store(KIND_AUX, Ordering::Release);
            let mut backoff = Backoff::new();
            loop {
                if self.try_insert(0, &c0, cell, aux0) {
                    // The list links count both nodes now; drop the aux
                    // allocation reference (the cell's is dropped at the
                    // end, after the upper levels are linked).
                    self.arena.release(aux0);
                    valois_trace::probe!(TowerLink, cell as usize, 0u64);
                    break;
                }
                self.retries.fetch_add(1, Ordering::Relaxed);
                backoff.spin();
                // INVARIANT: I10
                self.resume(0, &mut c0);
                if self.find_at_level(0, &mut c0, key) {
                    // A concurrent insert of the same key won: roll back.
                    self.release_cursor(c0);
                    self.release_saved(&saved);
                    self.arena.release(cell); // drains key/value + aux0 link
                    self.arena.release(aux0);
                    valois_trace::probe!(DictInsert, 0u64, 0u64);
                    return false;
                }
            }
            self.release_cursor(c0);
            // Upper levels, bottom-up ("insertions starting with the bottom
            // level and working up").
            #[allow(clippy::needless_range_loop)] // saved is indexed by level
            'levels: for lvl in 1..height {
                let entry = saved[lvl];
                let mut c = self.cursor_at(lvl, entry);
                let aux = self.arena.alloc().expect("skip-list node pool exhausted");
                (*aux).kind.store(KIND_AUX, Ordering::Release);
                let mut backoff = Backoff::new();
                loop {
                    // Don't extend a tower whose cell was already removed
                    // at level 0 by a concurrent delete.
                    if !(*cell).back_link[0].read().is_null() {
                        self.arena.release(aux);
                        self.release_cursor(c);
                        break 'levels;
                    }
                    if self.find_at_level(lvl, &mut c, key) {
                        if c.target == cell {
                            // Already linked here (shouldn't happen — we
                            // are the only linker — but harmless).
                            self.arena.release(aux);
                            break;
                        }
                        // A lingering deleted cell with the same key; step
                        // past it and retry.
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        if !self.next(lvl, &mut c) {
                            self.arena.release(aux);
                            break;
                        }
                        continue;
                    }
                    if self.try_insert(lvl, &c, cell, aux) {
                        self.arena.release(aux);
                        valois_trace::probe!(TowerLink, cell as usize, lvl);
                        break;
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    backoff.spin();
                    // INVARIANT: I10
                    self.resume(lvl, &mut c);
                }
                // If the cell was removed while we linked this level, undo
                // our own link (the remover may have already passed lvl).
                //
                // ORDER: SeqCst fence between the level-`lvl` link CAS
                // above and the `back_link[0]` read below — pairs with the
                // remover's fence in `sweep_orphan_tower`. In the SC total
                // order one fence precedes the other, so either the read
                // below observes the level-0 deletion (we undo our link
                // here), or the remover's sweep observes our link (it
                // unlinks `cell` at this level). Without the fences both
                // sides can miss the other's store and the level-`lvl`
                // entry is orphaned. See docs/PROTOCOL.md, "The
                // orphan-tower race".
                // INVARIANT: I9 (fence pairing) — partner is the sweep
                // fence in `sweep_orphan_tower`; preserves I8.
                fence(Ordering::SeqCst);
                if !(*cell).back_link[0].read().is_null() {
                    if self.unlink_tower_at(lvl, c.pre_cell, cell) {
                        valois_trace::probe!(TowerUndo, cell as usize, lvl);
                    }
                    self.release_cursor(c);
                    break 'levels;
                }
                self.release_cursor(c);
            }
            // Hand the allocation reference over (the level-0 list counts
            // the cell now).
            self.arena.release(cell);
            self.release_saved(&saved);
            valois_trace::probe!(DictInsert, cell as usize, 1u64);
            true
        }
    }

    fn remove_impl(&self, key: &K) -> bool {
        // Top-down: delete from every level where the key appears; the
        // level-0 deletion decides the return value.
        // SAFETY: protocol invariants as documented on each helper.
        unsafe {
            let mut saved: Saved<K, V> = [std::ptr::null_mut(); MAX_LEVELS];
            let mut backoff = Backoff::new();
            let mut c = self.descend(Some(&mut saved), |lvl, c| {
                let _ = self.delete_at_level(lvl, c, key, &mut backoff);
            });
            let removed = self.delete_at_level(0, &mut c, key, &mut backoff);
            if removed {
                // The membership-defining deletion won. Sweep the upper
                // levels again: a racing bottom-up inserter may have
                // linked (or may yet link) this cell above after our
                // top-down pass went by. `c.target` is still counted here
                // (the cursor releases it below).
                self.sweep_orphan_tower(c.target, &saved);
            }
            self.release_cursor(c);
            self.release_saved(&saved);
            valois_trace::probe!(DictRemove, removed as u64);
            removed
        }
    }

    /// Post-delete sweep: after winning the level-0 (membership) deletion
    /// of `d`, unlink `d` from every upper level it may still occupy.
    ///
    /// The top-down pass already cleaned the levels where `d` was visible
    /// *before* it reached level 0 — but a concurrent bottom-up inserter
    /// can link `d` into an upper level after the pass went by (its
    /// `back_link[0]` checks raced the level-0 deletion). The inserter
    /// self-undoes when its post-link check observes the deletion; this
    /// sweep covers the complementary interleaving where that check fired
    /// first and observed nothing. The paired SeqCst fences (here and at
    /// the inserter's post-link check) guarantee at least one of the two
    /// mechanisms sees the other side's store — see docs/PROTOCOL.md,
    /// "The orphan-tower race".
    ///
    /// Each level's sweep starts at the pass's own level-`lvl` predecessor
    /// `saved[lvl]`, not at the head, so a remove stays O(log n).
    ///
    /// # Safety
    ///
    /// The caller must hold a counted reference on `d` (so it cannot be
    /// reclaimed mid-sweep), `d`'s level-0 deletion must have set its
    /// `back_link[0]`, and `saved` must hold the remover's counted
    /// per-level predecessors from [`descend`](Self::descend).
    // GUARD: d — caller holds a count on the dying tower across the sweep.
    unsafe fn sweep_orphan_tower(&self, d: *mut SkipNode<K, V>, saved: &Saved<K, V>) {
        // ORDER: SeqCst fence after the level-0 `back_link[0]` write (in
        // `try_delete`) and before the upper-level reads below — the
        // remover half of the pairing described above.
        // INVARIANT: I9 (fence pairing) — partner is the inserter's
        // post-link fence in `insert`; preserves I8.
        fence(Ordering::SeqCst);
        // ORDER: Acquire is belt-and-braces — `level` is only ever
        // written before the node is published (the Release link CAS and
        // the counted reference we hold already order it); no `level`
        // store needs Release to pair with this.
        let height = (*d).level.load(Ordering::Acquire) as usize;
        for (lvl, &from) in saved.iter().enumerate().take(height).skip(1) {
            if self.unlink_tower_at(lvl, from, d) {
                valois_trace::probe!(TowerSweep, d as usize, lvl);
            }
        }
    }

    /// Unlinks tower `d` from level `lvl`, searching forward from `from`
    /// (a cell before `d` at this level). Matching is by pointer identity,
    /// not key: a newer tower reusing the same key must survive. Returns
    /// true iff this call's `try_delete` won.
    ///
    /// # Safety
    ///
    /// `from` and `d` must be counted references; `d` must be a tower cell
    /// spanning `lvl`.
    // GUARD: from, d — caller holds a count on each across the call.
    unsafe fn unlink_tower_at(
        &self,
        lvl: usize,
        from: *mut SkipNode<K, V>,
        d: *mut SkipNode<K, V>,
    ) -> bool {
        let key = (*d).key();
        let mut c = self.reopen(lvl, from);
        // WAIT-FREE: each failed `try_delete` means another actor changed
        // this level's chain around `d` (system-wide progress), and at
        // most two actors ever target `d` here (its inserter's self-undo
        // and its remover's sweep) — once either side's unlink wins,
        // `find_at_level` stops seeing `d` and the loop exits, so retries
        // are bounded, not contended.
        let won = loop {
            if !self.find_at_level(lvl, &mut c, key) {
                break false;
            }
            if c.target != d {
                // A different (newer) same-key tower; step past it.
                if !self.next(lvl, &mut c) {
                    break false;
                }
                continue;
            }
            if self.try_delete(lvl, &mut c) {
                break true;
            }
            // Lost the unlink race at this level; re-examine from a
            // fresh view.
            self.retries.fetch_add(1, Ordering::Relaxed);
            // INVARIANT: I10
            self.resume(lvl, &mut c);
        };
        self.release_cursor(c);
        won
    }

    fn find_impl<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        // SAFETY: protocol invariants as documented on each helper.
        unsafe {
            let mut c = self.descend(None, |lvl, c| {
                let _ = self.find_at_level(lvl, c, key);
            });
            let result = if self.find_at_level(0, &mut c, key) {
                Some(f((*c.target).value()))
            } else {
                None
            };
            self.release_cursor(c);
            result
        }
    }

    /// Runs `f` on the value stored under `key`, without cloning.
    pub fn with_value<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.find_impl(key, f)
    }

    /// Keys currently present (level-0 scan), in sorted order.
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        self.level_keys(0)
    }

    /// Visits every entry with key in `[lo, hi)`, in key order, using the
    /// skip structure to reach `lo` in O(log n).
    pub fn for_each_range(&self, lo: &K, hi: &K, mut f: impl FnMut(&K, &V)) {
        // SAFETY: protocol invariants as documented on each helper.
        unsafe {
            let mut c = self.descend(None, |lvl, c| {
                let _ = self.find_at_level(lvl, c, lo);
            });
            let _ = self.find_at_level(0, &mut c, lo);
            loop {
                if c.target == self.last {
                    break;
                }
                if (*c.target).kind() == KIND_CELL {
                    let k = (*c.target).key();
                    if k >= hi {
                        break;
                    }
                    if k >= lo {
                        f(k, (*c.target).value());
                    }
                }
                if !self.next(0, &mut c) {
                    break;
                }
            }
            self.release_cursor(c);
        }
    }

    /// Collects the `(key, value)` pairs with key in `[lo, hi)`.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        self.for_each_range(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Total CAS retries across operations (the §4.1 O(p log n) extra-work
    /// measure — experiment E5).
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Memory-protocol counters (§5 traffic).
    pub fn mem_stats(&self) -> MemStats {
        self.arena.stats()
    }

    /// Quiescent invariant check (testing hook): every level strictly
    /// sorted, and every upper-level key present at level 0.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String>
    where
        K: Clone,
    {
        let keys0 = self.keys();
        if keys0.windows(2).any(|w| w[0] >= w[1]) {
            return Err("level 0 keys not strictly sorted".into());
        }
        for lvl in 1..MAX_LEVELS {
            let keys = self.level_keys(lvl);
            if keys.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("level {lvl} keys not strictly sorted"));
            }
            for k in &keys {
                if keys0.binary_search(k).is_err() {
                    return Err(format!("level {lvl} contains key missing from level 0"));
                }
            }
        }
        Ok(())
    }

    fn level_keys(&self, lvl: usize) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        // SAFETY: protocol invariants as documented on each helper.
        unsafe {
            let mut c = self.cursor_at(lvl, self.first);
            loop {
                if c.target == self.last {
                    break;
                }
                if (*c.target).kind() == KIND_CELL {
                    out.push((*c.target).key().clone());
                }
                if !self.next(lvl, &mut c) {
                    break;
                }
            }
            self.release_cursor(c);
        }
        out
    }
}

impl<K, V> Default for SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Send + Sync, V: Send + Sync> Drop for SkipListDict<K, V> {
    fn drop(&mut self) {
        // Release the roots and cascade, then sweep whatever back-link
        // cycles kept alive — same shape as List::drop.
        // SAFETY: &mut self in drop — quiescent.
        unsafe {
            let f = self.first_root.swap(std::ptr::null_mut());
            let l = self.last_root.swap(std::ptr::null_mut());
            self.arena.release(f);
            self.arena.release(l);
            use std::collections::HashSet;
            let mut reachable: HashSet<usize> = HashSet::new();
            let mut stack = vec![self.first, self.last];
            while let Some(p) = stack.pop() {
                if p.is_null() || !reachable.insert(p as usize) {
                    continue;
                }
                for l in &(*p).next {
                    stack.push(l.read());
                }
                for l in &(*p).back_link {
                    stack.push(l.read());
                }
            }
            let mut garbage = Vec::new();
            self.arena.for_each_node(|p| {
                if (*p).kind() != KIND_FREE && !reachable.contains(&(p as usize)) {
                    garbage.push(p);
                }
            });
            let set: HashSet<usize> = garbage.iter().map(|p| *p as usize).collect();
            for &g in &garbage {
                let _ = (*g).header().set_claim();
            }
            for &g in &garbage {
                let links = (*g).drain_links();
                for t in links.iter() {
                    if set.contains(&(t as usize)) {
                        (*t).header().decr_ref();
                    } else {
                        self.arena.release(t);
                    }
                }
            }
            for &g in &garbage {
                self.arena.reclaim_detached(g);
            }
        }
    }
}

impl<K, V> Dictionary<K, V> for SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn insert(&self, key: K, value: V) -> bool {
        self.insert_impl(key, value)
    }

    fn remove(&self, key: &K) -> bool {
        self.remove_impl(key)
    }

    fn find(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.find_impl(key, V::clone)
    }

    fn contains(&self, key: &K) -> bool {
        self.find_impl(key, |_| ()).is_some()
    }

    fn len(&self) -> usize {
        let mut n = 0;
        // SAFETY: protocol invariants as documented on each helper.
        unsafe {
            let mut c = self.cursor_at(0, self.first);
            loop {
                if c.target == self.last {
                    break;
                }
                if (*c.target).kind() == KIND_CELL {
                    n += 1;
                }
                if !self.next(0, &mut c) {
                    break;
                }
            }
            self.release_cursor(c);
        }
        n
    }
}

impl<K, V> fmt::Debug for SkipListDict<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipListDict")
            .field("len", &self.len())
            .field("retries", &self.retry_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let d: SkipListDict<u64, u64> = SkipListDict::new();
        for k in 0..200 {
            assert!(d.insert(k, k * 3), "insert {k}");
        }
        for k in 0..200 {
            assert_eq!(d.find(&k), Some(k * 3), "find {k}");
        }
        assert_eq!(d.len(), 200);
        for k in (0..200).step_by(2) {
            assert!(d.remove(&k), "remove {k}");
        }
        assert_eq!(d.len(), 100);
        for k in 0..200 {
            assert_eq!(d.contains(&k), k % 2 == 1);
        }
    }

    #[test]
    fn duplicates_rejected() {
        let d: SkipListDict<u32, &str> = SkipListDict::new();
        assert!(d.insert(1, "a"));
        assert!(!d.insert(1, "b"));
        assert_eq!(d.find(&1), Some("a"));
    }

    #[test]
    fn random_order_stays_sorted() {
        let mut d: SkipListDict<u32, ()> = SkipListDict::new();
        let keys = [17u32, 3, 99, 42, 8, 64, 1, 55, 23, 77];
        for &k in &keys {
            d.insert(k, ());
        }
        let mut expected: Vec<u32> = keys.to_vec();
        expected.sort_unstable();
        assert_eq!(d.keys(), expected);
        d.check_invariants().unwrap();
    }

    #[test]
    fn remove_absent_returns_false() {
        let d: SkipListDict<u32, u32> = SkipListDict::new();
        d.insert(5, 5);
        assert!(!d.remove(&4));
        assert!(d.remove(&5));
        assert!(!d.remove(&5));
    }

    #[test]
    fn reinsert_after_remove() {
        let mut d: SkipListDict<u32, u32> = SkipListDict::new();
        for round in 0..20 {
            assert!(d.insert(7, round), "round {round}");
            assert_eq!(d.find(&7), Some(round));
            assert!(d.remove(&7), "round {round}");
            assert_eq!(d.find(&7), None);
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn level_distribution_is_geometric() {
        let d: SkipListDict<u32, ()> = SkipListDict::new();
        let mut heights = [0usize; MAX_LEVELS + 1];
        for _ in 0..10_000 {
            heights[d.random_level()] += 1;
        }
        assert!(
            heights[1] > 4_000 && heights[1] < 6_000,
            "h=1: {}",
            heights[1]
        );
        assert!(
            heights[2] > 1_900 && heights[2] < 3_100,
            "h=2: {}",
            heights[2]
        );
        assert_eq!(heights[0], 0);
    }

    #[test]
    fn large_volume_roundtrip() {
        let mut d: SkipListDict<u32, u32> = SkipListDict::new();
        let n = 3_000u32;
        // Insert in an order that exercises all positions.
        for k in (0..n).map(|i| (i * 7919) % n) {
            d.insert(k, k);
        }
        assert_eq!(d.len() as u32, n, "modular stride visits every residue");
        for k in 0..n {
            assert_eq!(d.find(&k), Some(k));
        }
        d.check_invariants().unwrap();
    }

    #[test]
    fn range_uses_skip_descent() {
        let d: SkipListDict<u32, u32> = SkipListDict::new();
        for k in 0..500 {
            d.insert(k * 2, k);
        }
        let r = d.range(&100, &120);
        assert_eq!(
            r,
            vec![
                (100, 50),
                (102, 51),
                (104, 52),
                (106, 53),
                (108, 54),
                (110, 55),
                (112, 56),
                (114, 57),
                (116, 58),
                (118, 59)
            ]
        );
        assert!(d.range(&1001, &1001).is_empty());
        assert!(d.range(&2000, &1000).is_empty(), "inverted range empty");
    }

    #[test]
    fn memory_returns_to_empty_skeleton() {
        // After arbitrary churn and a full drain, the only live nodes are
        // the two dummies and one aux per level: every tower cell and
        // per-level aux was reclaimed through the free list.
        let mut d: SkipListDict<u32, u32> = SkipListDict::new();
        let mut x = 0xBADC0FFEu64;
        for _ in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % 64) as u32;
            if x & 2 == 0 {
                d.insert(k, k);
            } else {
                d.remove(&k);
            }
        }
        for k in 0..64 {
            d.remove(&k);
        }
        assert_eq!(d.len(), 0);
        assert_eq!(
            d.mem_stats().live_nodes(),
            2 + MAX_LEVELS as u64,
            "empty skeleton only: 2 dummies + one aux per level"
        );
        d.check_invariants().unwrap();
    }

    #[test]
    fn max_tower_drain_fits_reclaimed_links_cap() {
        // A full-height tower is the worst case for `Release`'s link drain:
        // 2 * MAX_LEVELS counted links from one node. `ReclaimedLinks`
        // panics past `valois_mem::MAX_LINKS`, so this must fit with room
        // to spare — silently relying on towers never reaching max height
        // would turn a rare geometric draw into a production abort.
        let node: SkipNode<u32, u32> = SkipNode::default();
        let sink: SkipNode<u32, u32> = SkipNode::default();
        let target = &sink as *const _ as *mut SkipNode<u32, u32>;
        node.level.store(MAX_LEVELS as u8, Ordering::Relaxed);
        for lvl in 0..MAX_LEVELS {
            node.next[lvl].write(target);
            node.back_link[lvl].write(target);
        }
        let links = node.drain_links();
        assert_eq!(links.len(), 2 * MAX_LEVELS);
        assert!(links.len() <= valois_mem::MAX_LINKS);
        assert!(links.iter().all(|p| p == target));
    }

    #[test]
    fn drop_releases_all_values() {
        use valois_sync::shim::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Probe;
        impl Drop for Probe {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let d: SkipListDict<u32, Probe> = SkipListDict::new();
            for k in 0..50 {
                d.insert(k, Probe);
            }
            for k in 0..10 {
                d.remove(&k);
            }
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 50);
    }
}
