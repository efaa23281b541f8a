//! Loom models of the shard's request hop (`--cfg loom` only).
//!
//! The models drive the real `valois_core::channel` ring, which the
//! model-checking build shrinks to `CAPACITY` = 2 slots, so a handful of
//! sends fills it and wraps around it. The drain model keeps the batched
//! structure of `valois_server::shard::worker_loop`. The scheduler's DFS
//! runs the current thread first at every decision, so an unbounded wait
//! (a blocking `send` on a full ring, a `recv` on an empty one) would
//! spin forever in the first schedule. Every concurrent phase therefore
//! polls a bounded number of times ([`offer`], the drain passes), then
//! joins and finishes single-threaded. The bounded shape loses no
//! interleavings of send vs. receive vs. disconnect. Properties over
//! every explored schedule:
//!
//! 1. **Disconnect is never premature** — `Disconnected` implies the
//!    ring is empty: reading the sender count *before* the dequeue
//!    attempt means an enqueue-then-disconnect racing a miss is seen on
//!    a later poll, never lost.
//! 2. **No lost requests** — after the tail drain, everything the
//!    producers sent was received exactly once.
//! 3. **Per-producer FIFO** — sequence numbers from one producer arrive
//!    in issue order (the per-key ordering contract's channel half).
//! 4. **Batch bound** — no drain batch exceeds the configured cap.
//!
//! Three more models cover the ring itself: racing receivers across the
//! wrap-around, a full ring that refuses with `Full` and accepts once a
//! slot drains, and a disconnect while full.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p valois-server --test loom_shard`
#![cfg(loom)]

use std::collections::VecDeque;
use std::sync::Arc;

use valois_core::channel::{channel, Receiver, Sender, TryRecvError, TrySendError, CAPACITY};
use valois_sync::shim::atomic::{AtomicUsize, Ordering};
use valois_sync::shim::{thread, Builder};

const BATCH: usize = 2;

type Req = (usize, u64);

/// Offers `value` at most `tries` times, yielding between attempts while
/// the ring is full. Hands the value back if it never fit.
fn offer<T: Send>(tx: &Sender<T>, mut value: T, tries: usize) -> Option<T> {
    for _ in 0..tries {
        match tx.try_send(value) {
            Ok(()) => return None,
            Err(TrySendError::Full(v)) => {
                value = v;
                thread::yield_now();
            }
            Err(TrySendError::Disconnected(_)) => unreachable!("receiver outlives the producers"),
        }
    }
    Some(value)
}

/// Sends `pending` in order with bounded offers. Returns the sender and
/// the unsent tail if the ring stayed full; otherwise drops the sender
/// (the disconnect) and returns `None`.
fn produce<T: Send>(tx: Sender<T>, mut pending: VecDeque<T>) -> Option<(Sender<T>, VecDeque<T>)> {
    while let Some(v) = pending.pop_front() {
        if let Some(back) = offer(&tx, v, 2) {
            pending.push_front(back);
            return Some((tx, pending));
        }
    }
    None
}

/// `Receiver::try_recv` plus property 1: once the channel reports
/// `Disconnected`, no value may still be queued behind it.
fn try_recv<T: Send>(rx: &Receiver<T>) -> Result<T, TryRecvError> {
    let got = rx.try_recv();
    if matches!(got, Err(TryRecvError::Disconnected)) {
        assert!(
            matches!(rx.try_recv(), Err(TryRecvError::Disconnected)),
            "Disconnected with requests still queued"
        );
    }
    got
}

/// One drain pass: collect up to `BATCH` requests without blocking,
/// exactly like `worker_loop`'s opportunistic fill. Returns why the pass
/// stopped short (`Ok(())` when the batch filled).
fn drain_batch(rx: &Receiver<Req>, received: &mut Vec<Req>) -> Result<(), TryRecvError> {
    let mut batch = Vec::new();
    let mut last = Ok(());
    while batch.len() < BATCH {
        match try_recv(rx) {
            Ok(v) => batch.push(v),
            Err(e) => {
                last = Err(e);
                break;
            }
        }
    }
    assert!(batch.len() <= BATCH, "batch cap violated");
    received.extend(batch);
    last
}

/// Finishes the sends that did not fit during the concurrent phase, one
/// producer at a time and in order, draining a batch whenever the ring
/// is full. Each producer's sender drops when its tail is sent.
fn finish_sends(
    leftovers: Vec<(Sender<Req>, VecDeque<Req>)>,
    rx: &Receiver<Req>,
    received: &mut Vec<Req>,
) {
    for (tx, pending) in leftovers {
        for v in pending {
            if let Err(TrySendError::Full(v)) = tx.try_send(v) {
                // Single-threaded now: a full ring has a batch ready.
                drain_batch(rx, received).expect("a full ring fills a batch");
                tx.try_send(v).expect("a drained ring has room");
            }
        }
    }
}

/// Two producers (two requests each, then disconnect) racing the batched
/// drainer through a two-slot ring, so the sends fill it and wrap.
/// Bounded DFS over every schedule within the preemption bound.
#[test]
fn drain_loop_loses_nothing_and_keeps_per_producer_order() {
    let explored = Builder::new().preemption_bound(2).check(|| {
        let (tx, rx) = channel::<Req>();
        let mut producers = Vec::new();
        for id in 0..2usize {
            let tx = tx.clone();
            let pending = (0..2u64).map(|seq| (id, seq)).collect();
            producers.push(thread::spawn(move || produce(tx, pending)));
        }
        drop(tx);

        let mut received: Vec<Req> = Vec::new();
        // Concurrent phase: a bounded number of drain passes racing the
        // producers (enough passes to land mid-send, mid-disconnect, and
        // between the two producers' disconnects).
        for _ in 0..3 {
            if drain_batch(&rx, &mut received) == Err(TryRecvError::Disconnected) {
                break;
            }
        }
        let leftovers = producers
            .into_iter()
            .filter_map(|p| p.join().unwrap())
            .collect();
        finish_sends(leftovers, &rx, &mut received);
        // Tail phase: every sender is now gone, so each pass returns
        // requests or Disconnected and the loop is bounded by the ring.
        loop {
            match drain_batch(&rx, &mut received) {
                Err(TryRecvError::Disconnected) => break,
                _ if received.len() > 4 => unreachable!("duplicated requests"),
                _ => {}
            }
        }

        assert_eq!(received.len(), 4, "requests lost across disconnect");
        for id in 0..2usize {
            let seqs: Vec<u64> = received
                .iter()
                .filter(|(p, _)| *p == id)
                .map(|&(_, s)| s)
                .collect();
            assert_eq!(seqs, vec![0, 1], "producer {id} reordered");
        }
    });
    assert!(explored > 1, "must explore more than one schedule");
}

/// The disconnect race distilled: a lone producer sends its final
/// request and disconnects while the drainer polls around the miss. The
/// sender-count-before-dequeue ordering must hand the request to a later
/// poll rather than losing it behind a premature `Disconnected`.
#[test]
fn enqueue_then_disconnect_never_drops_the_last_request() {
    let explored = Builder::new().check(|| {
        let (tx, rx) = channel::<Req>();
        let producer = thread::spawn(move || {
            tx.try_send((0, 0)).expect("an empty ring has room");
            drop(tx);
        });
        let mut got = 0usize;
        // Concurrent polls: land before the send, between send and
        // disconnect, and after both.
        for _ in 0..3 {
            match try_recv(&rx) {
                Ok(_) => got += 1,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => {}
            }
        }
        producer.join().unwrap();
        // Post-join: the disconnect (and its send) are visible.
        loop {
            match try_recv(&rx) {
                Ok(_) => got += 1,
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => unreachable!("Empty after every sender disconnected"),
            }
        }
        assert_eq!(got, 1, "final request lost at disconnect");
    });
    assert!(explored > 1, "must explore more than one schedule");
}

/// Two receivers race one producer across the ring's wrap-around: the
/// indices start one slot into the ring, so the three sends land in
/// slots 1, 0, 1 and the last one reuses a slot within the race. Each
/// value must arrive exactly once, and each receiver must see its values
/// in send order.
#[test]
fn racing_receivers_across_the_wrap_take_each_value_once_in_order() {
    let explored = Builder::new().preemption_bound(2).check(|| {
        let (tx, rx) = channel::<Req>();
        tx.try_send((0, 99)).unwrap();
        assert_eq!(rx.try_recv(), Ok((0, 99)));

        let producer = thread::spawn(move || produce(tx, (0..3u64).map(|s| (0, s)).collect()));
        let rx2 = rx.clone();
        let other = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                if let Ok((_, s)) = try_recv(&rx2) {
                    got.push(s);
                }
            }
            got
        });
        let mut mine = Vec::new();
        for _ in 0..2 {
            if let Ok((_, s)) = try_recv(&rx) {
                mine.push(s);
            }
        }
        let theirs = other.join().unwrap();
        let leftovers = producer.join().unwrap().into_iter().collect();
        let mut drained = Vec::new();
        finish_sends(leftovers, &rx, &mut drained);
        for seqs in [&mine, &theirs] {
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "receiver saw {seqs:?}"
            );
        }
        let mut all = mine.clone();
        all.extend(&theirs);
        all.extend(drained.iter().map(|&(_, s)| s));
        loop {
            match try_recv(&rx) {
                Ok((_, s)) => all.push(s),
                Err(TryRecvError::Disconnected) => break,
                Err(TryRecvError::Empty) => unreachable!("Empty after every sender disconnected"),
            }
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "a value was lost or taken twice");
    });
    assert!(explored > 1, "must explore more than one schedule");
}

/// A full ring refuses `try_send` with the value back; a receiver racing
/// the retries frees a slot, after which `send` completes without
/// waiting and FIFO order holds across the refusal.
#[test]
fn full_ring_refuses_then_accepts_once_a_slot_drains() {
    let explored = Builder::new().check(|| {
        let (tx, rx) = channel::<u64>();
        for v in 0..CAPACITY as u64 {
            tx.try_send(v).unwrap();
        }
        let next = CAPACITY as u64;
        assert_eq!(tx.try_send(next), Err(TrySendError::Full(next)));
        let consumer = thread::spawn(move || {
            let got = rx.try_recv();
            (rx, got)
        });
        let leftover = offer(&tx, next, 2);
        let (rx, got) = consumer.join().unwrap();
        assert_eq!(got, Ok(0), "a full ring always has a value ready");
        if let Some(v) = leftover {
            tx.send(v).expect("the drained slot takes it");
        }
        drop(tx);
        let rest: Vec<u64> = std::iter::from_fn(|| try_recv(&rx).ok()).collect();
        assert_eq!(rest, (1..=next).collect::<Vec<_>>());
    });
    assert!(explored > 1, "must explore more than one schedule");
}

/// Counts its drops into a shared counter.
#[derive(Debug)]
struct Probe(Arc<AtomicUsize>);

impl Drop for Probe {
    fn drop(&mut self) {
        // ORDER: Relaxed — a test tally read after the joins.
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The last receiver drops while the ring is full and a sender retries.
/// No retry may succeed, `send` afterwards hands the value back at once,
/// and dropping the channel drops each queued value exactly once.
#[test]
fn disconnect_while_full_returns_the_value_and_drops_the_queue_once() {
    let explored = Builder::new().check(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel::<Probe>();
        for _ in 0..CAPACITY {
            tx.try_send(Probe(Arc::clone(&drops))).unwrap();
        }
        let dropper = thread::spawn(move || drop(rx));
        let mut probe = Probe(Arc::clone(&drops));
        for _ in 0..2 {
            match tx.try_send(probe) {
                Ok(()) => panic!("a full ring accepted a value"),
                Err(e) => probe = e.into_inner(),
            }
        }
        dropper.join().unwrap();
        let back = tx.send(probe).expect_err("no receiver remains").0;
        assert_eq!(drops.load(Ordering::Relaxed), 0, "a value dropped early");
        drop(back);
        drop(tx);
        assert_eq!(
            drops.load(Ordering::Relaxed),
            CAPACITY + 1,
            "queued values not dropped exactly once"
        );
    });
    assert!(explored > 1, "must explore more than one schedule");
}
