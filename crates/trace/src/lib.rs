//! Feature-gated flight recorder for the Valois protocol stack.
//!
//! Heisenbugs in lock-free code die by *evidence*: a one-in-sixty invariant
//! failure is useless until you can see the dozen protocol steps each thread
//! took right before it. This crate is an always-on-call, almost-always-off
//! flight recorder: every layer of the workspace (`valois-sync` CAS
//! primitives, `valois-mem` SafeRead/Release/Alloc/Reclaim, `valois-core`
//! cursors, `valois-dict` structure ops) carries [`probe!`] call sites, and
//! the `recorder` feature decides whether they record or vanish.
//!
//! # Design
//!
//! * **Per-thread rings.** Each thread owns a *lane*: a fixed-size ring of
//!   binary events written with a thread-local `Fetch&Add` cursor. No
//!   locks, no allocation after the lane's one-time setup, no cross-thread
//!   cache traffic on the hot path (the cursor is cache-line padded away
//!   from the slots).
//! * **Global sequence.** A single shared `Fetch&Add` counter stamps every
//!   event, giving the merged dump a total order that matches each thread's
//!   program order (an event's stamp is taken while the event happens, so
//!   per-thread stamps are monotonic). This *is* a shared RMW per event —
//!   the documented cost of turning the recorder on.
//! * **Zero cost when off.** [`probe!`] expands to
//!   `if valois_trace::ENABLED { record(...) }`; [`ENABLED`] is a `const`
//!   evaluated when *this* crate is compiled, so with the feature off the
//!   branch folds to `if false` and the event arguments are never even
//!   evaluated. `crates/analyze` enforces that hot paths only ever use the
//!   macro form (rule `probe-discipline`).
//! * **Post-mortem dumps.** On an invariant failure (or any panic, once
//!   [`arm_panic_dump`] is installed) the recorder merges every lane by
//!   sequence number and writes a binary `.vtrace` file;
//!   `cargo xtask trace-dump <file>` renders it. See
//!   `docs/OBSERVABILITY.md` for the workflow.
//!
//! The recorder keeps events, not counts: every count the workspace
//! reports lives in a layer's `counter_table!` (`ListStats`, `MemStats`,
//! the server's `ShardStats`), and the renderer tallies a dump's events
//! per kind from the events themselves.
//!
//! Lanes are recycled: a thread exiting returns its ring to a free pool,
//! so thread-churny workloads (spawn-per-round hammers) stay bounded at
//! *concurrent* threads, not total threads. A recycled ring keeps its old
//! events until overwritten — the global sequence keeps the merge honest.
//!
//! This crate sits **below** `valois-sync` so the CAS primitives themselves
//! can carry probes; it therefore uses `std::sync::atomic` directly and is
//! exempt from the shim-import lint (recorded traces are diagnostic, not
//! part of the modeled protocol).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Compile-time switch: `true` iff this crate was built with the
/// `recorder` feature. `const` so the `probe!` branch folds away in every
/// dependent crate when the feature is off.
pub const ENABLED: bool = cfg!(feature = "recorder");

/// Events per lane (power of two). 4096 × 32 B = 128 KiB per thread —
/// roughly the last few thousand protocol steps, which in practice spans
/// several complete operations per thread.
pub const RING_CAP: usize = 4096;

/// Number of event kinds.
pub const NKINDS: usize = 28;

/// Every protocol event the stack records. The three `u64` payload words
/// are kind-specific (see [`EventKind::arg_names`]); pointers are recorded
/// as raw addresses — they identify nodes within a dump, nothing more.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// CAS about to be issued: `(cell, old, new)`.
    CasAttempt = 0,
    /// CAS succeeded: `(cell, old, new)`.
    CasSuccess = 1,
    /// CAS failed: `(cell, expected, found)`.
    CasFailure = 2,
    /// A backoff wait completed: `(spins, 0, 0)`.
    BackoffDone = 3,
    /// Fig. 15 SafeRead took a count: `(node, prev_count, 0)`.
    SafeRead = 4,
    /// Fig. 16 Release dropped a count: `(node, prev_count, 0)`.
    Release = 5,
    /// Fig. 17 Alloc handed out a node: `(node, 0, 0)`.
    Alloc = 6,
    /// Fig. 18 Reclaim pushed a node to the free list: `(node, 0, 0)`.
    Reclaim = 7,
    /// A magazine flushed to the global free list: `(nodes, 0, 0)`.
    MagFlush = 8,
    /// A magazine refilled from the global free list: `(nodes, 0, 0)`.
    MagRefill = 9,
    /// A deferred-release batch drained: `(releases, 0, 0)`.
    DeferFlush = 10,
    /// Cursor advanced one cell: `(from, to, 0)`.
    CursorHop = 11,
    /// Fig. 9 TryInsert succeeded: `(prev, new, 0)`.
    TryInsertOk = 12,
    /// Fig. 9 TryInsert lost its CAS: `(prev, new, 0)`.
    TryInsertFail = 13,
    /// Fig. 10 TryDelete succeeded: `(prev, target, 0)`.
    TryDeleteOk = 14,
    /// Fig. 10 TryDelete lost its swing: `(prev, target, 0)`.
    TryDeleteFail = 15,
    /// Dictionary-level insert returned: `(key, inserted, 0)`.
    DictInsert = 16,
    /// Dictionary-level remove returned: `(key, removed, 0)`.
    DictRemove = 17,
    /// Skip list linked a tower cell at a level: `(cell, level, key)`.
    TowerLink = 18,
    /// Skip list inserter self-undid an upper link: `(cell, level, key)`.
    TowerUndo = 19,
    /// Skip list remover swept an upper link: `(cell, level, key)`.
    TowerSweep = 20,
    /// An invariant check failed: free-form marker `(code, 0, 0)`.
    Invariant = 21,
    /// A cursor back-walked `back_link`s to resume a retry:
    /// `(hops, landed, 0)` (hops is the resume distance).
    CursorResume = 22,
    /// Epoch backend: a thread took an outermost pin: `(epoch, depth, 0)`.
    EpochPin = 23,
    /// Epoch backend: the global epoch advanced: `(new_epoch, 0, 0)`.
    EpochAdvance = 24,
    /// Epoch backend: a limbo collection freed nodes:
    /// `(freed, kept, 0)`.
    EpochDrain = 25,
    /// A memory-pressure shed ran (magazines flushed + limbo drained):
    /// `(reclaimed, 0, 0)`.
    MemShed = 26,
    /// A service shard drained one request batch:
    /// `(requests, shard, 0)`.
    ServiceBatch = 27,
}

impl EventKind {
    /// Decodes a kind from its wire byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        use EventKind::*;
        const ALL: [EventKind; NKINDS] = [
            CasAttempt,
            CasSuccess,
            CasFailure,
            BackoffDone,
            SafeRead,
            Release,
            Alloc,
            Reclaim,
            MagFlush,
            MagRefill,
            DeferFlush,
            CursorHop,
            TryInsertOk,
            TryInsertFail,
            TryDeleteOk,
            TryDeleteFail,
            DictInsert,
            DictRemove,
            TowerLink,
            TowerUndo,
            TowerSweep,
            Invariant,
            CursorResume,
            EpochPin,
            EpochAdvance,
            EpochDrain,
            MemShed,
            ServiceBatch,
        ];
        ALL.get(v as usize).copied()
    }

    /// Short stable name (used by the `trace-dump` renderer).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::CasAttempt => "cas.attempt",
            EventKind::CasSuccess => "cas.success",
            EventKind::CasFailure => "cas.failure",
            EventKind::BackoffDone => "backoff.done",
            EventKind::SafeRead => "mem.safe_read",
            EventKind::Release => "mem.release",
            EventKind::Alloc => "mem.alloc",
            EventKind::Reclaim => "mem.reclaim",
            EventKind::MagFlush => "mem.mag_flush",
            EventKind::MagRefill => "mem.mag_refill",
            EventKind::DeferFlush => "mem.defer_flush",
            EventKind::CursorHop => "cursor.hop",
            EventKind::TryInsertOk => "list.insert_ok",
            EventKind::TryInsertFail => "list.insert_fail",
            EventKind::TryDeleteOk => "list.delete_ok",
            EventKind::TryDeleteFail => "list.delete_fail",
            EventKind::DictInsert => "dict.insert",
            EventKind::DictRemove => "dict.remove",
            EventKind::TowerLink => "skip.tower_link",
            EventKind::TowerUndo => "skip.tower_undo",
            EventKind::TowerSweep => "skip.tower_sweep",
            EventKind::Invariant => "invariant.fail",
            EventKind::CursorResume => "cursor.resume",
            EventKind::EpochPin => "epoch.pin",
            EventKind::EpochAdvance => "epoch.advance",
            EventKind::EpochDrain => "epoch.drain",
            EventKind::MemShed => "mem.shed",
            EventKind::ServiceBatch => "service.batch",
        }
    }

    /// Names of the three payload words, `""` for unused ones. Names
    /// starting with `@` render as hex addresses.
    pub fn arg_names(self) -> [&'static str; 3] {
        match self {
            EventKind::CasAttempt | EventKind::CasSuccess => ["@cell", "@old", "@new"],
            EventKind::CasFailure => ["@cell", "@expected", "@found"],
            EventKind::BackoffDone => ["spins", "", ""],
            EventKind::SafeRead | EventKind::Release => ["@node", "prev_count", ""],
            EventKind::Alloc | EventKind::Reclaim => ["@node", "", ""],
            EventKind::MagFlush | EventKind::MagRefill => ["nodes", "", ""],
            EventKind::DeferFlush => ["releases", "", ""],
            EventKind::CursorHop => ["@from", "@to", ""],
            EventKind::TryInsertOk | EventKind::TryInsertFail => ["@prev", "@new", ""],
            EventKind::TryDeleteOk | EventKind::TryDeleteFail => ["@prev", "@target", ""],
            EventKind::DictInsert => ["@cell", "inserted", ""],
            EventKind::DictRemove => ["removed", "", ""],
            EventKind::TowerLink | EventKind::TowerUndo | EventKind::TowerSweep => {
                ["@cell", "level", ""]
            }
            EventKind::Invariant => ["code", "", ""],
            EventKind::CursorResume => ["hops", "@landed", ""],
            EventKind::EpochPin => ["epoch", "depth", ""],
            EventKind::EpochAdvance => ["epoch", "", ""],
            EventKind::EpochDrain => ["freed", "kept", ""],
            EventKind::MemShed => ["reclaimed", "", ""],
            EventKind::ServiceBatch => ["requests", "shard", ""],
        }
    }
}

/// One ring slot: payload words are written first (`Relaxed`), then `meta`
/// (`Release`) — a dumper that reads `meta` with `Acquire` sees a
/// consistent event or an empty/previous slot, never payload from the
/// future. (A slot being overwritten *during* the dump can still tear;
/// the renderer treats events as best-effort evidence, not ground truth.)
#[derive(Default)]
struct Slot {
    /// `seq << 8 | kind`; 0 means never written.
    meta: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

#[repr(align(128))]
#[derive(Default)]
struct PaddedCursor(AtomicU64);

/// One thread's lane: cursor and event slots.
struct Ring {
    /// Stable id for rendering (recycled lanes keep theirs).
    lane: u64,
    cursor: PaddedCursor,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(lane: u64) -> Self {
        Self {
            lane,
            cursor: PaddedCursor::default(),
            slots: (0..RING_CAP).map(|_| Slot::default()).collect(),
        }
    }

    #[inline]
    fn push(&self, seq: u64, kind: EventKind, a: u64, b: u64, c: u64) {
        // ORDER: Relaxed Fetch&Add — the cursor is single-writer (one lane
        // per live thread); atomicity is only for concurrent dump readers.
        let idx = self.cursor.0.fetch_add(1, Ordering::Relaxed) as usize & (RING_CAP - 1);
        let slot = &self.slots[idx];
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        // ORDER: Release — publish the payload before the slot reads as
        // occupied (see `Slot` docs).
        slot.meta.store(seq << 8 | kind as u64, Ordering::Release);
    }
}

/// Global event stamp; starts at 1 so `meta == 0` means "empty slot".
static SEQ: AtomicU64 = AtomicU64::new(1);

struct Registry {
    /// Every ring ever created (leaked: lanes live for the process).
    rings: Vec<&'static Ring>,
    /// Lanes whose owning thread exited, ready for reuse.
    free: Vec<&'static Ring>,
}

fn registry() -> &'static Mutex<Registry> {
    static REG: OnceLock<Mutex<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        Mutex::new(Registry {
            rings: Vec::new(),
            free: Vec::new(),
        })
    })
}

/// TLS handle owning a lane for the thread's lifetime.
struct LaneHandle {
    ring: &'static Ring,
}

impl Drop for LaneHandle {
    fn drop(&mut self) {
        if let Ok(mut reg) = registry().lock() {
            reg.free.push(self.ring);
        }
    }
}

thread_local! {
    static LANE: RefCell<Option<LaneHandle>> = const { RefCell::new(None) };
}

fn acquire_lane() -> LaneHandle {
    let mut reg = registry().lock().unwrap();
    if let Some(ring) = reg.free.pop() {
        return LaneHandle { ring };
    }
    let lane = reg.rings.len() as u64;
    let ring: &'static Ring = Box::leak(Box::new(Ring::new(lane)));
    reg.rings.push(ring);
    LaneHandle { ring }
}

/// Records one event in the calling thread's lane. **Do not call this
/// directly from protocol code** — use [`probe!`], which compiles to
/// nothing when the recorder is off (`cargo xtask analyze` rejects bare
/// `record` calls outside this crate).
#[inline]
pub fn record(kind: EventKind, a: u64, b: u64, c: u64) {
    if !ENABLED {
        return;
    }
    // ORDER: Relaxed Fetch&Add — the stamp only needs to be unique and
    // monotone per thread (RMWs on one location are totally ordered).
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    // try_with + no-op fallback: probes fired from other TLS destructors
    // after this lane was torn down are dropped, not a panic.
    let _ = LANE.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let handle = slot.get_or_insert_with(acquire_lane);
        handle.ring.push(seq, kind, a, b, c);
    });
}

// ---------------------------------------------------------------------------
// Probe macro
// ---------------------------------------------------------------------------

/// Records a protocol event iff the `recorder` feature is on.
///
/// `probe!(Kind, a, b, c)` (trailing payload words default to 0) expands
/// to `if valois_trace::ENABLED { record(...) }`. [`ENABLED`] is `const`,
/// so with the feature off the branch — *including the argument
/// expressions* — is dead code and is eliminated; hot paths pay nothing.
///
/// ```
/// let node = 0xdead_beefu64;
/// valois_trace::probe!(SafeRead, node, 2);
/// ```
#[macro_export]
macro_rules! probe {
    ($kind:ident) => {
        $crate::probe!($kind, 0u64, 0u64, 0u64)
    };
    ($kind:ident, $a:expr) => {
        $crate::probe!($kind, $a, 0u64, 0u64)
    };
    ($kind:ident, $a:expr, $b:expr) => {
        $crate::probe!($kind, $a, $b, 0u64)
    };
    ($kind:ident, $a:expr, $b:expr, $c:expr) => {
        if $crate::ENABLED {
            $crate::record($crate::EventKind::$kind, $a as u64, $b as u64, $c as u64);
        }
    };
}

// ---------------------------------------------------------------------------
// Post-mortem dump
// ---------------------------------------------------------------------------

/// One decoded event from a dump.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// Global order stamp.
    pub seq: u64,
    /// Lane (thread) that recorded it.
    pub lane: u64,
    /// Wire byte of the kind (may be unknown to an older renderer).
    pub kind: u8,
    /// Payload words.
    pub args: [u64; 3],
}

/// A parsed `.vtrace` file.
#[derive(Clone, Debug)]
pub struct TraceFile {
    /// Why the dump was taken (panic message / invariant text).
    pub reason: String,
    /// Events merged across lanes, ascending `seq`.
    pub events: Vec<Event>,
}

/// Current dump format: the reason string, then the merged events.
/// `VTRACE01` files also carried a per-kind counter table.
const MAGIC: &[u8; 8] = b"VTRACE02";

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

impl TraceFile {
    /// Parses a `.vtrace` file written by [`dump`].
    pub fn read(path: &Path) -> std::io::Result<TraceFile> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        let mut cur = Reader {
            bytes: &bytes,
            off: 0,
        };
        match cur.take(8)? {
            m if m == MAGIC => {}
            b"VTRACE01" => {
                return Err(Reader::bad(
                    "VTRACE01 dump from an older recorder; this renderer reads VTRACE02",
                ))
            }
            _ => return Err(Reader::bad("not a VTRACE02 file")),
        }
        let reason_len = cur.u64()? as usize;
        let reason = String::from_utf8_lossy(cur.take(reason_len)?).into_owned();
        let nevents = cur.u64()? as usize;
        let mut events = Vec::with_capacity(nevents.min(1 << 20));
        for _ in 0..nevents {
            let seq = cur.u64()?;
            let lane = cur.u64()?;
            let kind = cur.u64()? as u8;
            let args = [cur.u64()?, cur.u64()?, cur.u64()?];
            events.push(Event {
                seq,
                lane,
                kind,
                args,
            });
        }
        Ok(TraceFile { reason, events })
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn bad(msg: &str) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
    }

    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        let s = self
            .bytes
            .get(
                self.off
                    ..self
                        .off
                        .checked_add(n)
                        .ok_or_else(|| Self::bad("overflow"))?,
            )
            .ok_or_else(|| Self::bad("truncated"))?;
        self.off += n;
        Ok(s)
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

/// Merges every lane's surviving events (time-ordered by the global
/// stamp) and writes them, with `reason`, to a
/// `.vtrace` file. The file lands in `$VALOIS_TRACE_DIR` (default: the
/// current directory). Returns the path, or `None` when the recorder is
/// off or the write failed (a dump must never turn a failing test into a
/// different failure).
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !ENABLED {
        return None;
    }
    let mut events: Vec<Event> = Vec::new();
    {
        let reg = registry().lock().ok()?;
        for ring in &reg.rings {
            for slot in ring.slots.iter() {
                // ORDER: Acquire — pairs with the push's Release so the
                // payload reads are not from the slot's future.
                let meta = slot.meta.load(Ordering::Acquire);
                if meta == 0 {
                    continue;
                }
                events.push(Event {
                    seq: meta >> 8,
                    lane: ring.lane,
                    kind: (meta & 0xff) as u8,
                    args: [
                        slot.a.load(Ordering::Relaxed),
                        slot.b.load(Ordering::Relaxed),
                        slot.c.load(Ordering::Relaxed),
                    ],
                });
            }
        }
    }
    events.sort_by_key(|e| e.seq);

    let mut out = Vec::with_capacity(64 + events.len() * 48);
    out.extend_from_slice(MAGIC);
    put_u64(&mut out, reason.len() as u64);
    out.extend_from_slice(reason.as_bytes());
    put_u64(&mut out, events.len() as u64);
    for e in &events {
        put_u64(&mut out, e.seq);
        put_u64(&mut out, e.lane);
        put_u64(&mut out, e.kind as u64);
        for &a in &e.args {
            put_u64(&mut out, a);
        }
    }

    let dir = std::env::var_os("VALOIS_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&dir).ok()?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let path = dir.join(format!("valois-{}-{stamp}.vtrace", std::process::id()));
    let mut f = std::fs::File::create(&path).ok()?;
    f.write_all(&out).ok()?;
    Some(path)
}

/// Installs a process-wide panic hook (once) that writes a post-mortem
/// dump before the default hook runs, so *any* failed assertion — an
/// invariant walker, a refcount audit, a plain test `assert!` — leaves a
/// `.vtrace` artifact. No-op when the recorder is off.
pub fn arm_panic_dump() {
    static ARMED: OnceLock<()> = OnceLock::new();
    if !ENABLED {
        return;
    }
    ARMED.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = info.to_string();
            record(EventKind::Invariant, 0, 0, 0);
            if let Some(path) = dump(&reason) {
                eprintln!("[valois-trace] post-mortem written to {}", path.display());
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events recorded by the calling thread's lane, newest last.
    fn own_lane_events() -> Vec<(u64, u64)> {
        LANE.with(|slot| match &*slot.borrow() {
            Some(handle) => {
                let mut events: Vec<(u64, u64)> = handle
                    .ring
                    .slots
                    .iter()
                    .map(|s| s.meta.load(Ordering::Acquire))
                    .filter(|&meta| meta != 0)
                    .map(|meta| (meta >> 8, meta & 0xff))
                    .collect();
                events.sort_unstable();
                events
            }
            None => Vec::new(),
        })
    }

    #[test]
    fn probe_compiles_and_respects_gate() {
        probe!(CasAttempt, 1, 2, 3);
        probe!(SafeRead, 7);
        probe!(Invariant);
        let kinds: Vec<u64> = own_lane_events().iter().map(|&(_, k)| k).collect();
        if ENABLED {
            assert!(kinds.ends_with(&[
                EventKind::CasAttempt as u64,
                EventKind::SafeRead as u64,
                EventKind::Invariant as u64,
            ]));
        } else {
            assert!(kinds.is_empty(), "the recorder is off: no lane");
        }
    }

    #[test]
    fn read_rejects_a_vtrace01_file() {
        let path = std::env::temp_dir().join(format!("valois-v1-{}.vtrace", std::process::id()));
        let mut v1 = b"VTRACE01".to_vec();
        put_u64(&mut v1, 0);
        put_u64(&mut v1, 0);
        put_u64(&mut v1, 0);
        std::fs::write(&path, v1).expect("write");
        let err = TraceFile::read(&path).expect_err("a VTRACE01 file must not parse");
        std::fs::remove_file(path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("VTRACE01"), "{err}");
    }

    #[cfg(feature = "recorder")]
    #[test]
    fn dump_roundtrips() {
        for i in 0..100u64 {
            record(EventKind::CursorHop, i, i + 1, 0);
        }
        let dir = std::env::temp_dir();
        std::env::set_var("VALOIS_TRACE_DIR", &dir);
        let path = dump("roundtrip test").expect("dump written");
        let bytes = std::fs::read(&path).expect("dump readable");
        assert_eq!(&bytes[..8], b"VTRACE02");
        let parsed = TraceFile::read(&path).expect("parses");
        assert_eq!(parsed.reason, "roundtrip test");
        assert!(parsed.events.len() >= 100);
        assert!(parsed.events.windows(2).all(|w| w[0].seq <= w[1].seq));
        std::fs::remove_file(path).ok();
    }
}
