//! Model-checked regression test for the skip-list orphan-tower race
//! (`--cfg loom` only).
//!
//! One thread inserts key 7 with a deterministic tower height of 2; a
//! second thread removes key 7. The pre-fix interleaving that orphans the
//! tower:
//!
//! 1. Inserter links key 7 at level 0 and enters the level-1 loop; its
//!    `back_link[0]` pre-check still reads null.
//! 2. Remover's top-down scan passes level 1 (sees nothing there — the
//!    level-1 link does not exist yet) and pauses before its level-0 scan.
//! 3. Inserter links level 1 and passes the post-link `back_link[0]`
//!    check — the level-0 delete has not happened, so it reads null and
//!    skips the self-undo.
//! 4. Remover deletes key 7 at level 0 and sets `back_link[0]`. It never
//!    revisits level 1, so the level-1 entry permanently references a key
//!    absent from level 0 — `check_invariants` reports
//!    "level 1 contains key missing from level 0".
//!
//! Only one preemption is needed (pause the remover between its level-1
//! and level-0 scans while the inserter runs to completion), but the
//! window is a handful of steps inside two multi-hundred-step threads, so
//! the DFS sweep would visit an enormous schedule prefix first. The test
//! uses the scheduler's seeded PCT-style random exploration instead; the
//! seed below found the race on the pre-fix code.
//!
//! Pre-fix failure evidence (reproducible at the revision before the
//! `sweep_orphan_tower` fix): `MODEL_SEED` below fails on explored
//! schedule 161 with "level 1 contains key missing from level 0". The
//! printed replay vector is exactly the narrative above — decision 0
//! chooses index 1 (remover first), one preemption at decision 246 hands
//! control to the inserter, every other decision stays at index 0:
//!
//! ```text
//! VALOIS_SCHED_REPLAY=1,0,...,0,1,0,...,0   # the second `1` is decision 246
//! ```
//!
//! (The vector is schedule-shape-dependent, so it replays only at the
//! pre-fix revision — the fix's fences and sweep change the decision
//! indices. The seeded exploration below is the durable regression net.)
//!
//! Run with:
//! `RUSTFLAGS="--cfg loom" cargo test -p valois-dict --test loom_skiplist`
#![cfg(loom)]

use std::sync::Arc;

use valois_core::ArenaConfig;
use valois_dict::{Dictionary, SkipListDict};
use valois_sync::shim::{thread, Builder};

/// Seed for the random-schedule exploration. On the pre-fix code this
/// exact configuration (seed, schedule count, preemption bound) hits the
/// orphan-tower interleaving; post-fix it must explore clean.
const MODEL_SEED: u64 = 0xB10C_7035;

/// Number of independent random schedules to explore per model. Large
/// enough that the pre-fix bug reproduces with margin (it first fails
/// well inside this budget), small enough for CI.
const MODEL_SCHEDULES: u64 = 400;

fn model_config() -> ArenaConfig {
    // MAX_LEVELS dummy towers + a few cells/aux nodes; the insert of a
    // height-2 tower needs 3 nodes.
    ArenaConfig::new().initial_capacity(48).max_nodes(48)
}

/// The insert-vs-remove race on a single key: on every explored schedule,
/// no upper level may retain a key that level 0 has lost, and the final
/// membership must agree with the remover's return value.
#[test]
fn concurrent_insert_remove_leaves_no_orphan_tower() {
    let explored = Builder::new()
        .preemption_bound(2)
        .random_walks(MODEL_SCHEDULES, MODEL_SEED)
        .check(|| {
            let dict: Arc<SkipListDict<u64, u64>> =
                Arc::new(SkipListDict::with_config(model_config()));

            let inserter = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || {
                    // Height 2: the minimal tower with an upper level to
                    // orphan. `random_level` is uncontrollable under the
                    // model, hence the explicit-height hook.
                    assert_eq!(dict.insert_with_height(7, 70, 2), Ok(true), "key is fresh");
                })
            };
            let remover = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || dict.remove(&7))
            };
            inserter.join().unwrap();
            let removed = remover.join().unwrap();

            let mut dict = Arc::try_unwrap(dict).expect("all threads joined");
            if removed {
                assert_eq!(dict.find(&7), None, "removed key must be gone");
            } else {
                assert_eq!(dict.find(&7), Some(70), "unremoved key must stay");
            }
            dict.check_invariants()
                .expect("no level may hold a key absent from level 0");
            dict.audit_refcounts()
                .expect("exact link counts at every level");
        });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// Same race plus a reinsertion of the same key after both racers finish:
/// the remover's orphan sweep targets the deleted cell by pointer
/// identity, so a newer same-key tower must survive it untouched.
#[test]
fn orphan_sweep_spares_a_reinserted_tower() {
    let explored = Builder::new()
        .preemption_bound(2)
        .random_walks(MODEL_SCHEDULES / 2, MODEL_SEED ^ 0x5EED)
        .check(|| {
            let dict: Arc<SkipListDict<u64, u64>> =
                Arc::new(SkipListDict::with_config(model_config()));

            let inserter = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || {
                    assert_eq!(dict.insert_with_height(7, 70, 2), Ok(true), "key is fresh");
                })
            };
            let churner = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || {
                    let removed = dict.remove(&7);
                    if removed {
                        // Rebuild a same-key tower while the first
                        // inserter may still be linking upper levels.
                        assert_eq!(dict.insert_with_height(7, 71, 2), Ok(true), "slot is free");
                    }
                    removed
                })
            };
            inserter.join().unwrap();
            let removed = churner.join().unwrap();

            let mut dict = Arc::try_unwrap(dict).expect("all threads joined");
            let expect = if removed { Some(71) } else { Some(70) };
            assert_eq!(dict.find(&7), expect, "exactly one tower remains");
            dict.check_invariants()
                .expect("no level may hold a key absent from level 0");
            dict.audit_refcounts()
                .expect("exact link counts at every level");
        });
    assert!(explored > 1, "model must branch, explored {explored}");
}

/// The sweep and the inserter's self-undo reopen each level at a saved
/// level-1 predecessor, not at the head. Key 5 (height 2) is that
/// predecessor for key 7, and a third thread removes it: when key 5's
/// level-1 deletion lands before a reopen, the reopened cursor must walk
/// `back_link[1]` back to a live cell (I10) and still find key 7's tower
/// inside the orphan window.
///
/// That joint event is rare per schedule, hence the larger budget: with a
/// probe-instrumented copy of the skip list, 7–8 of 4000 schedules per
/// seed both reopened from a deleted key-5 cell and won the level-1
/// unlink of key 7. A sweep that skips a level whose start cell is
/// already deleted there fails this model (schedule 382 at this seed),
/// while the two models above still pass.
#[test]
fn orphan_sweep_reopens_from_a_deleted_predecessor() {
    let explored = Builder::new()
        .preemption_bound(2)
        .random_walks(MODEL_SCHEDULES * 10, MODEL_SEED ^ 0xDEAD)
        .check(|| {
            let dict: Arc<SkipListDict<u64, u64>> =
                Arc::new(SkipListDict::with_config(model_config()));
            assert_eq!(
                dict.insert_with_height(5, 50, 2),
                Ok(true),
                "prefill is fresh"
            );

            let inserter = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || {
                    assert_eq!(dict.insert_with_height(7, 70, 2), Ok(true), "key is fresh");
                })
            };
            let remover = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || dict.remove(&7))
            };
            let start_remover = {
                let dict = Arc::clone(&dict);
                thread::spawn(move || dict.remove(&5))
            };
            inserter.join().unwrap();
            let removed = remover.join().unwrap();
            assert!(start_remover.join().unwrap(), "key 5 was present");

            let mut dict = Arc::try_unwrap(dict).expect("all threads joined");
            assert_eq!(dict.find(&5), None, "removed start cell must be gone");
            let expect = if removed { None } else { Some(70) };
            assert_eq!(dict.find(&7), expect, "membership matches remove()");
            dict.check_invariants()
                .expect("no level may hold a key absent from level 0");
            dict.audit_refcounts()
                .expect("exact link counts at every level");
        });
    assert!(explored > 1, "model must branch, explored {explored}");
}
