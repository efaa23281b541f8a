//! Bounded exponential backoff for CAS retry loops.
//!
//! §2.1 of the paper: "starvation at high levels of contention is more
//! efficiently handled by techniques such as exponential backoff". The
//! BST's retry loops, the arena's wait for a busy magazine and the TTAS
//! lock spin on a [`Backoff`]; the `cas_backoff_ablation/*` rows of the
//! `micro` bench measure its effect (ablation of a design choice called
//! out in DESIGN.md).
//!
//! The wait length is **jittered**: a purely deterministic `2^k` schedule
//! puts every contending thread on the *same* wait sequence, so threads
//! that collided once re-collide in lockstep at each retry. Each `Backoff`
//! therefore owns a small deterministic PRNG ([`SmallRng`]) and draws its
//! wait uniformly from `(2^k / 2, 2^k]` — still doubling on average, but
//! decorrelated across instances. Seeding is deterministic per thread and
//! per construction order (no clocks, no OS entropy), and under
//! `--cfg loom` the seed is a constant so model schedules stay replayable.

use std::fmt;

use crate::rng::SmallRng;

/// Upper bound on the exponent so the wait stays bounded (2^10 spins).
const MAX_EXPONENT: u32 = 10;
/// Below this exponent we spin; above it we yield to the OS scheduler,
/// which matters when threads outnumber cores.
const YIELD_EXPONENT: u32 = 6;

/// Deterministic, allocation-free seed material: differs across threads
/// (via [`crate::sharded::thread_index`]) and across successive `Backoff`
/// constructions within a thread, so independent instances draw
/// independent jitter streams.
#[cfg(not(loom))]
fn auto_seed() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static CONSTRUCTED: Cell<u64> = const { Cell::new(0) };
    }
    let nth = CONSTRUCTED.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    });
    ((crate::sharded::thread_index() as u64) << 32) ^ nth
}

/// Under the model checker the seed is a constant: jitter then depends
/// only on the instance's own draw sequence, keeping every explored
/// schedule (and its replay) deterministic.
#[cfg(loom)]
fn auto_seed() -> u64 {
    0x9E37_79B9_7F4A_7C15
}

/// Bounded exponential backoff with randomized jitter.
///
/// Each call to [`Backoff::spin`] waits roughly twice as long as the
/// previous one, up to a fixed cap, then starts yielding the CPU. Reset
/// with [`Backoff::reset`] after a successful operation.
///
/// # Example
///
/// ```
/// use valois_sync::Backoff;
/// let mut b = Backoff::new();
/// for _ in 0..4 { b.spin(); }
/// b.reset();
/// assert!(b.is_fresh());
/// ```
#[derive(Clone)]
pub struct Backoff {
    exponent: u32,
    rng: SmallRng,
}

impl Backoff {
    /// Creates a fresh backoff (first wait is minimal) with an
    /// automatically chosen jitter seed (distinct per thread and per
    /// construction; see module docs).
    pub fn new() -> Self {
        Self::with_seed(auto_seed())
    }

    /// Creates a fresh backoff with an explicit jitter seed. Two backoffs
    /// with the same seed draw identical wait sequences (reproducibility
    /// hook for tests and the bench harness).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            exponent: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Returns `true` if no backoff has been accumulated yet.
    pub fn is_fresh(&self) -> bool {
        self.exponent == 0
    }

    /// Current exponent (testing / statistics hook).
    pub fn exponent(&self) -> u32 {
        self.exponent
    }

    /// Draws the next wait length for the current exponent: uniform in
    /// `(2^k / 2, 2^k]`, so waits keep their exponential envelope but two
    /// contending backoffs decorrelate instead of re-colliding in
    /// lockstep. Advances the jitter stream.
    fn jittered_iters(&mut self) -> u32 {
        let ceil = 1u64 << self.exponent;
        let floor = ceil / 2;
        (floor + 1 + self.rng.gen_range(0..ceil - floor)) as u32
    }

    /// Waits for the current (jittered) backoff duration and doubles the
    /// next one.
    ///
    /// Short waits are busy spins with `spin_loop` hints; once the wait
    /// grows past a threshold the thread yields instead, so an
    /// oversubscribed host (more threads than cores) makes progress.
    pub fn spin(&mut self) {
        if self.exponent <= YIELD_EXPONENT {
            let iters = self.jittered_iters();
            for _ in 0..iters {
                crate::shim::hint::spin_loop();
            }
            valois_trace::probe!(BackoffDone, iters);
        } else {
            crate::shim::thread::yield_now();
            // A yield's wall time is the scheduler's; record the envelope.
            valois_trace::probe!(BackoffDone, 1u64 << self.exponent);
        }
        if self.exponent < MAX_EXPONENT {
            self.exponent += 1;
        }
    }

    /// Resets to the minimal wait (call after the contended operation
    /// finally succeeds). The jitter stream is *not* rewound: a reused
    /// backoff keeps drawing fresh waits.
    pub fn reset(&mut self) {
        self.exponent = 0;
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backoff")
            .field("exponent", &self.exponent)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_grows_and_saturates() {
        let mut b = Backoff::new();
        assert!(b.is_fresh());
        for _ in 0..(MAX_EXPONENT + 5) {
            b.spin();
        }
        assert_eq!(b.exponent(), MAX_EXPONENT, "exponent must saturate");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut b = Backoff::new();
        b.spin();
        b.spin();
        assert!(!b.is_fresh());
        b.reset();
        assert!(b.is_fresh());
        assert_eq!(b.exponent(), 0);
    }

    #[test]
    fn clone_preserves_state() {
        let mut b = Backoff::new();
        b.spin();
        b.spin();
        let c = b.clone();
        assert_eq!(c.exponent(), b.exponent());
    }

    /// The wait sequence at each exponent level, for a given seed.
    fn wait_sequence(seed: u64) -> Vec<u32> {
        let mut b = Backoff::with_seed(seed);
        (0..=YIELD_EXPONENT)
            .map(|k| {
                b.exponent = k;
                b.jittered_iters()
            })
            .collect()
    }

    #[test]
    fn jitter_stays_in_the_exponential_envelope() {
        for seed in 0..32u64 {
            let mut b = Backoff::with_seed(seed);
            for k in 0..=YIELD_EXPONENT {
                b.exponent = k;
                let w = b.jittered_iters();
                let ceil = 1u32 << k;
                assert!(
                    w > ceil / 2 && w <= ceil,
                    "seed {seed} exponent {k}: wait {w} outside ({}, {ceil}]",
                    ceil / 2
                );
            }
        }
    }

    #[test]
    fn two_backoffs_diverge() {
        // The satellite bug: before jitter, every Backoff produced the
        // identical 1, 2, 4, ... sequence, so contending threads re-collided
        // in lockstep. Differently seeded instances must now diverge.
        let a = wait_sequence(1);
        let b = wait_sequence(2);
        assert_ne!(
            a, b,
            "differently seeded backoffs must draw different waits"
        );
    }

    #[test]
    fn same_seed_reproduces_the_same_waits() {
        assert_eq!(wait_sequence(7), wait_sequence(7));
    }

    #[cfg(not(loom))]
    #[test]
    fn auto_seeds_differ_within_and_across_threads() {
        let a = auto_seed();
        let b = auto_seed();
        assert_ne!(a, b, "successive constructions must reseed");
        let c = std::thread::spawn(auto_seed).join().unwrap();
        assert_ne!(a, c, "threads must not share a seed sequence");
    }
}
