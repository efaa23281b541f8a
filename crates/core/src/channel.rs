//! A bounded MPMC channel: the hop that carries the server's requests to
//! its shards and their replies back.
//!
//! The paper's queue ADT is [`FifoQueue`](crate::queue::FifoQueue), and
//! it stays the §1 building block this crate reproduces. The channel does
//! not build on it. A message through `FifoQueue` pays the full §5
//! protocol: an arena `Alloc`, a counted enqueue walk, two swings and a
//! `Reclaim`. That is about 35 atomic read-modify-writes, most of them on
//! the dummy node whose cache line the polling receiver also writes (§6
//! names the SafeRead the protocol's most expensive operation). A channel
//! moves values and keeps no cells that a reader could still be walking,
//! so it runs on a fixed ring of [`CAPACITY`] slots in the style of
//! Vyukov's bounded MPMC queue. Each slot holds a *stamp* and a value; a
//! send is one CAS on the tail index plus one stamp store, and a receive
//! is one CAS on the head index plus one stamp store.
//!
//! # Capacity and backpressure
//!
//! Each channel holds at most [`CAPACITY`] values. [`Sender::send`] on a
//! full ring waits with [`Backoff`] until a receiver frees a slot, and
//! gives the value back in a [`SendError`] if every receiver drops
//! meanwhile. [`Sender::try_send`] never waits: it reports
//! [`TrySendError::Full`] instead. A fast producer is thus slowed to the
//! pace of its consumers rather than growing memory without bound.
//!
//! # Deadlock rule
//!
//! Two bounded hops in a cycle can block each other. A server worker
//! sends each reply on its client's reply channel. If that channel is
//! full, the worker waits and stops draining requests, so a client whose
//! next submit finds the request channel full waits too. **A client must
//! not leave more than [`CAPACITY`] replies unread while it submits.**
//! Every client in this workspace keeps at most 2 × 64 requests in
//! flight.
//!
//! # Disconnection
//!
//! When either side fully disconnects, the other observes it.
//! [`Receiver::try_recv`] reads the sender count *before* it tries the
//! ring, so a value enqueued just before the last sender drops is always
//! delivered before [`TryRecvError::Disconnected`]. Values still queued
//! when the last handle drops are dropped with the channel.
//!
//! # Progress
//!
//! `try_send` and `try_recv` are lock-free: a CAS on an index retries
//! only when another thread's CAS on that index won. The caveat all
//! ring buffers share: a sender preempted between its tail CAS and its
//! stamp store holds back receivers at that slot (they see it empty, and
//! later values queue behind it) until it resumes. The dictionaries'
//! non-blocking guarantees are unaffected; the channel carries requests
//! to them and is not part of them.

use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

use valois_sync::shim::atomic::{AtomicUsize, Ordering};
use valois_sync::shim::cell::UnsafeCell;
use valois_sync::{Backoff, CachePadded};

/// Slots per channel: a power of two, so a position maps to its slot by
/// masking. 256 covers every client in this workspace with room to spare
/// (see the deadlock rule in the module docs).
#[cfg(not(loom))]
pub const CAPACITY: usize = 256;
/// Two slots under the model checker, so a handful of sends fills the
/// ring and wraps around it.
#[cfg(loom)]
pub const CAPACITY: usize = 2;

const _: () = assert!(CAPACITY.is_power_of_two());

/// Creates a bounded MPMC channel of [`CAPACITY`] slots.
///
/// # Example
///
/// ```
/// let (tx, rx) = valois_core::channel::channel::<u32>();
/// tx.send(1).unwrap();
/// tx.try_send(2).unwrap();
/// assert_eq!(tx.queued(), 2);
/// assert_eq!(rx.try_recv(), Ok(1));
/// assert_eq!(rx.try_recv(), Ok(2));
/// drop(tx);
/// assert_eq!(rx.try_recv(), Err(valois_core::channel::TryRecvError::Disconnected));
/// ```
pub fn channel<T: Send>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        slots: (0..CAPACITY)
            .map(|pos| Slot {
                stamp: AtomicUsize::new(pos),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// One ring slot. For the lap that hands out position `pos` (where
/// `pos % CAPACITY` is this slot), the stamp reads `pos` while the slot
/// is free for that position's sender, `pos + 1` once the value is in,
/// and `pos + CAPACITY` after a receiver took it, which frees the slot
/// for the next lap.
struct Slot<T> {
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct Shared<T> {
    /// Next position to receive from.
    head: CachePadded<AtomicUsize>,
    /// Next position to send to.
    tail: CachePadded<AtomicUsize>,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    slots: Box<[Slot<T>]>,
}

// SAFETY: the indices and counts are atomics. The only non-`Sync` field
// is each slot's value, and values only move through the ring (written
// by one thread, moved out or dropped by another: `T: Send`). A slot's
// value is touched by exactly one thread at a time, the one whose index
// CAS claimed its position, and the stamp's Release/Acquire hand-off
// orders each such access after the previous one.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: as for `Send`; `&Shared` never hands out a `&T`, so `T: Sync`
// is not needed.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn slot(&self, pos: usize) -> &Slot<T> {
        &self.slots[pos & (CAPACITY - 1)]
    }

    /// Enqueues `value`, or hands it back if the ring is full.
    fn try_push(&self, value: T) -> Result<(), T> {
        // ORDER: Relaxed — the index is only a claim counter; the slot's
        // stamp (Acquire below) orders the data.
        let mut pos = self.tail.load(Ordering::Relaxed);
        // WAIT-FREE: lock-free, not wait-free — the loop repeats only when
        // another sender's tail CAS claimed `pos` first (that sender made
        // progress); a full ring returns instead of waiting.
        loop {
            let slot = self.slot(pos);
            // ORDER: Acquire pairs with the Release stamp store of the
            // receiver that emptied this slot one lap ago: its read of the
            // old value happens-before our write.
            let stamp = slot.stamp.load(Ordering::Acquire);
            let lag = stamp.wrapping_sub(pos) as isize;
            if lag == 0 {
                // ORDER: Relaxed — the CAS only decides which sender owns
                // `pos`; the stamp store below publishes the value.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread position `pos`,
                        // and stamp == pos says the slot is empty; no other
                        // thread touches the value until the store below.
                        unsafe { (*slot.value.get()).write(value) };
                        // ORDER: Release publishes the value to the receiver
                        // whose Acquire stamp load sees `pos + 1`.
                        slot.stamp.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(now) => pos = now,
                }
            } else if lag < 0 {
                // The slot still holds the value from one lap ago: full.
                return Err(value);
            } else {
                // ORDER: Relaxed — another sender took `pos`; reload the
                // claim counter.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest value, or `None` if none is ready.
    fn try_pop(&self) -> Option<T> {
        // ORDER: Relaxed — as in `try_push`, the stamp orders the data.
        let mut pos = self.head.load(Ordering::Relaxed);
        // WAIT-FREE: lock-free, not wait-free — the loop repeats only when
        // another receiver's head CAS took `pos` first; an empty slot
        // returns instead of waiting.
        loop {
            let slot = self.slot(pos);
            // ORDER: Acquire pairs with the sender's Release stamp store:
            // its write of the value happens-before our read.
            let stamp = slot.stamp.load(Ordering::Acquire);
            let lag = stamp.wrapping_sub(pos.wrapping_add(1)) as isize;
            if lag == 0 {
                // ORDER: Relaxed — the CAS only decides which receiver owns
                // `pos`; the stamps carry the data.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread position `pos`,
                        // and stamp == pos + 1 says its sender's write is
                        // complete and visible; the value is moved out
                        // exactly once, before the store below frees it.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        // ORDER: Release hands the emptied slot to the
                        // next lap's sender (its Acquire stamp load).
                        slot.stamp
                            .store(pos.wrapping_add(CAPACITY), Ordering::Release);
                        return Some(value);
                    }
                    Err(now) => pos = now,
                }
            } else if lag < 0 {
                // Nothing sent at `pos` yet, or its sender is between its
                // tail CAS and its stamp store.
                return None;
            } else {
                // ORDER: Relaxed — another receiver took `pos`; reload.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Values in the ring: exact when no send or receive is in progress.
    fn len(&self) -> usize {
        // ORDER: Relaxed — a snapshot for monitoring, ordered by nothing;
        // a racing read is clamped into 0..=CAPACITY.
        let head = self.head.load(Ordering::Relaxed);
        // ORDER: Relaxed — as above.
        let tail = self.tail.load(Ordering::Relaxed);
        (tail.wrapping_sub(head) as isize).clamp(0, CAPACITY as isize) as usize
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut pos = head;
        while pos != tail {
            let slot = &mut self.slots[pos & (CAPACITY - 1)];
            // SAFETY: `&mut self` means no handle is left. Each position in
            // `head..tail` was claimed by a send that returned, and so wrote
            // its value, and no receive took it.
            unsafe { slot.value.get_mut().assume_init_drop() };
            pos = pos.wrapping_add(1);
        }
    }
}

/// Error returned by [`Sender::send`] when every receiver is gone;
/// hands the value back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a channel with no receivers")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}

/// Error returned by [`Sender::try_send`]; both variants hand the value
/// back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// All [`CAPACITY`] slots are taken (receivers still connected).
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// The value that was not sent.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(v) | Self::Disconnected(v) => v,
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Full(_) => f.write_str("sending on a full channel"),
            Self::Disconnected(_) => f.write_str("sending on a channel with no receivers"),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No value currently queued (senders still connected).
    Empty,
    /// No value queued and every sender is gone.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => f.write_str("channel empty"),
            Self::Disconnected => f.write_str("channel empty and senders disconnected"),
        }
    }
}

impl std::error::Error for TryRecvError {}

/// The sending half; clonable (multi-producer).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> Sender<T> {
    /// Enqueues `value`, waiting with [`Backoff`] while the ring is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] carrying the value back when no receivers remain,
    /// including when the last one drops while this call waits.
    pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
        // Built on the first full ring only: the common send never waits.
        let mut backoff: Option<Backoff> = None;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                Err(TrySendError::Full(v)) => {
                    value = v;
                    backoff.get_or_insert_with(Backoff::new).spin();
                }
            }
        }
    }

    /// Enqueues `value` if a slot is free, without waiting.
    ///
    /// # Errors
    ///
    /// [`TrySendError::Disconnected`] when no receivers remain;
    /// [`TrySendError::Full`] when all [`CAPACITY`] slots are taken.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        // ORDER: Acquire pairs with the AcqRel decrement in
        // `Receiver::drop`.
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        self.shared.try_push(value).map_err(TrySendError::Full)
    }

    /// Number of values currently queued (O(1); exact when no send or
    /// receive is in progress).
    pub fn queued(&self) -> usize {
        self.shared.len()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        // ORDER: AcqRel — the count is the disconnect signal read by
        // `try_recv`.
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        // ORDER: AcqRel — the Release half publishes this sender's
        // completed sends to a receiver that reads the count as zero.
        self.shared.senders.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

/// The receiving half; clonable (multi-consumer — each value is delivered
/// to exactly one receiver).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T: Send> Receiver<T> {
    /// Dequeues the oldest value if one is ready.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued yet;
    /// [`TryRecvError::Disconnected`] when nothing is queued and every
    /// sender has been dropped.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        // Read the sender count *before* the dequeue attempt: if a racing
        // sender enqueues then disconnects between our dequeue miss and a
        // later count read, the next try_recv still sees the value.
        // ORDER: Acquire pairs with the AcqRel decrement in `Sender::drop`:
        // a zero count makes every completed send visible to the pop.
        let senders = self.shared.senders.load(Ordering::Acquire);
        match self.shared.try_pop() {
            Some(v) => Ok(v),
            None if senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Waits (yielding) for the next value; `None` when the channel is
    /// drained and every sender is gone.
    pub fn recv(&self) -> Option<T> {
        loop {
            match self.try_recv() {
                Ok(v) => return Some(v),
                Err(TryRecvError::Disconnected) => return None,
                Err(TryRecvError::Empty) => valois_sync::shim::thread::yield_now(),
            }
        }
    }

    /// Iterates until the channel is drained and disconnected.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv())
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        // ORDER: AcqRel — the count is the disconnect signal read by
        // `try_send`.
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // ORDER: AcqRel — pairs with the Acquire load in `try_send`.
        self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts its drops into a shared counter.
    #[derive(Debug)]
    struct Probe(Arc<AtomicUsize>);

    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn smoke_channel_roundtrip_fifo() {
        let (tx, rx) = channel::<u32>();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn smoke_channel_wraps_around_the_ring() {
        let (tx, rx) = channel::<usize>();
        for i in 0..3 * CAPACITY + 1 {
            tx.try_send(i).unwrap();
            assert_eq!(rx.try_recv(), Ok(i));
        }
        assert_eq!(tx.queued(), 0);
    }

    #[test]
    fn smoke_channel_full_ring_refuses_then_accepts_after_recv() {
        let (tx, rx) = channel::<usize>();
        for i in 0..CAPACITY {
            tx.try_send(i).unwrap();
        }
        assert_eq!(tx.try_send(CAPACITY), Err(TrySendError::Full(CAPACITY)));
        assert_eq!(rx.try_recv(), Ok(0));
        tx.send(CAPACITY).unwrap();
        for i in 1..=CAPACITY {
            assert_eq!(rx.try_recv(), Ok(i));
        }
    }

    #[test]
    fn smoke_channel_queued_is_exact_when_quiescent() {
        let (tx, rx) = channel::<u8>();
        assert_eq!(tx.queued(), 0);
        for n in 1..=CAPACITY {
            tx.send(0).unwrap();
            assert_eq!(tx.queued(), n);
        }
        for n in (0..CAPACITY).rev() {
            rx.try_recv().unwrap();
            assert_eq!(tx.queued(), n);
        }
    }

    #[test]
    fn smoke_channel_drop_releases_each_queued_value_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let (tx, rx) = channel::<Probe>();
            // Advance the head so the queued values straddle the wrap.
            for _ in 0..CAPACITY - 2 {
                tx.send(Probe(Arc::clone(&drops))).unwrap();
                drop(rx.try_recv().unwrap());
            }
            for _ in 0..5 {
                tx.send(Probe(Arc::clone(&drops))).unwrap();
            }
            drop(rx.try_recv().unwrap()); // one consumed
        }
        assert_eq!(
            drops.load(Ordering::Relaxed),
            CAPACITY - 2 + 5,
            "4 queued + 1 consumed + the warm-up values"
        );
    }

    #[test]
    fn smoke_channel_full_send_without_receivers_returns_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel::<Probe>();
        for _ in 0..CAPACITY {
            tx.send(Probe(Arc::clone(&drops))).unwrap();
        }
        drop(rx);
        let back = tx.send(Probe(Arc::clone(&drops))).unwrap_err().0;
        assert_eq!(drops.load(Ordering::Relaxed), 0, "nothing dropped yet");
        assert!(matches!(
            tx.try_send(back),
            Err(TrySendError::Disconnected(_))
        ));
        assert_eq!(drops.load(Ordering::Relaxed), 1, "the refused value");
        drop(tx);
        assert_eq!(drops.load(Ordering::Relaxed), CAPACITY + 1);
    }

    #[test]
    fn smoke_channel_sender_disconnect_observed_after_drain() {
        let (tx, rx) = channel::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1), "queued value survives disconnect");
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn smoke_channel_receiver_disconnect_fails_send_with_value_back() {
        let (tx, rx) = channel::<String>();
        drop(rx);
        let err = tx.send("hello".into()).unwrap_err();
        assert_eq!(err.0, "hello");
    }

    #[test]
    fn smoke_channel_clones_keep_channel_alive() {
        let (tx, rx) = channel::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(5).unwrap();
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(rx2.recv(), Some(5));
        drop(tx2);
        assert_eq!(rx2.recv(), None);
    }

    #[test]
    fn fifo_across_many_laps_with_concurrent_producer() {
        let (tx, rx) = channel::<usize>();
        let total = 8 * CAPACITY;
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..total {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<usize> = rx.iter().collect();
            assert_eq!(got, (0..total).collect::<Vec<_>>());
        });
    }

    #[test]
    fn send_blocked_at_capacity_completes_after_one_recv() {
        let (tx, rx) = channel::<usize>();
        for i in 0..CAPACITY {
            tx.send(i).unwrap();
        }
        let sent = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                tx.send(CAPACITY).unwrap();
                sent.store(1, Ordering::Release);
            });
            // The sleep only makes it likely that the send is already
            // waiting; the assertion holds either way.
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(sent.load(Ordering::Acquire), 0, "send must wait while full");
            assert_eq!(rx.recv(), Some(0));
        });
        assert_eq!(sent.load(Ordering::Acquire), 1);
        assert_eq!(tx.queued(), CAPACITY);
        for i in 1..=CAPACITY {
            assert_eq!(rx.try_recv(), Ok(i));
        }
    }

    #[test]
    fn send_blocked_at_capacity_fails_when_receivers_drop() {
        let (tx, rx) = channel::<usize>();
        for i in 0..CAPACITY {
            tx.send(i).unwrap();
        }
        std::thread::scope(|s| {
            let waiting = s.spawn(|| tx.send(CAPACITY));
            // Likely, not certain, to drop while the send waits; either
            // way the send must fail with its value back.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(rx);
            assert_eq!(waiting.join().unwrap(), Err(SendError(CAPACITY)));
        });
    }

    #[test]
    fn mpmc_each_value_delivered_once() {
        let (tx, rx) = channel::<u64>();
        let total: u64 = 4 * 5_000;
        let received = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..5_000 {
                        tx.send(p * 5_000 + i).unwrap();
                    }
                });
            }
            drop(tx); // workers hold their clones
            for _ in 0..3 {
                let rx = rx.clone();
                let received = &received;
                s.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(v) = rx.recv() {
                        local.push(v);
                    }
                    received.lock().unwrap().extend(local);
                });
            }
            drop(rx);
        });
        let mut all = received.into_inner().unwrap();
        assert_eq!(all.len() as u64, total);
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn iter_drains_until_disconnect() {
        let (tx, rx) = channel::<u32>();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<u32> = rx.iter().collect();
            assert_eq!(got.len(), 100);
        });
    }
}
