//! End-to-end harness runs through the facade: throughput measurement with
//! delay injection and latency recording against every dictionary kind —
//! the machinery behind the `vs_locks` bench (E1, E2, E6, E9), exercised
//! as a test.

use std::time::Duration;

use valois::baseline::{CriticalDelay, LockedListDict};
use valois::harness::{run_throughput, RunConfig, WorkloadSpec};
use valois::{BstDict, HashDict, SkipListDict, SortedListDict};

fn quick(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        duration: Duration::from_millis(40),
        workload: WorkloadSpec::standard(64),
        op_delay: None,
        measure_latency: true,
    }
}

#[test]
fn runner_works_for_every_dictionary_kind() {
    let sorted: SortedListDict<u64, u64> = SortedListDict::new();
    let hash: HashDict<u64, u64> = HashDict::with_buckets(16);
    let skip: SkipListDict<u64, u64> = SkipListDict::new();
    let bst: BstDict<u64, u64> = BstDict::new();
    for (name, res) in [
        ("sorted", run_throughput(&sorted, &quick(2))),
        ("hash", run_throughput(&hash, &quick(2))),
        ("skip", run_throughput(&skip, &quick(2))),
        ("bst", run_throughput(&bst, &quick(2))),
    ] {
        assert!(res.total_ops > 0, "{name}: no operations completed");
        let lat = res.latency.expect("latency requested");
        assert!(lat.samples > 0, "{name}: no latency samples");
        assert!(lat.p50 <= lat.p999, "{name}: quantiles out of order: {lat}");
    }
}

#[test]
fn op_delay_slows_lockfree_but_preserves_correctness() {
    let dict: SortedListDict<u64, u64> = SortedListDict::new();
    let base = run_throughput(&dict, &quick(2));
    let dict2: SortedListDict<u64, u64> = SortedListDict::new();
    let mut stalled_cfg = quick(2);
    stalled_cfg.op_delay = Some(CriticalDelay::new(0.05, Duration::from_micros(200)));
    let stalled = run_throughput(&dict2, &stalled_cfg);
    assert!(stalled.total_ops > 0);
    // Stalls cost throughput but not much more than their duty cycle; on a
    // loaded CI box we only assert the runs completed coherently.
    assert_eq!(
        stalled.total_ops,
        stalled.finds + stalled.insert_hits + stalled.delete_hits
    );
    assert!(base.total_ops > 0);
}

#[test]
fn critical_delay_inside_lock_convoys_everyone() {
    // The E2 asymmetry as a test: with identical stalls, the locked list
    // loses much more throughput than the lock-free list because its
    // stalls happen while holding the lock.
    let stall = CriticalDelay::new(0.05, Duration::from_micros(500));

    let lf: SortedListDict<u64, u64> = SortedListDict::new();
    let mut lf_cfg = quick(4);
    lf_cfg.op_delay = Some(stall.clone());
    let lf_res = run_throughput(&lf, &lf_cfg);

    let locked: LockedListDict<u64, u64> = LockedListDict::new().with_delay(stall);
    let locked_res = run_throughput(&locked, &quick(4));

    // Both make progress (non-blocking vs merely slow).
    assert!(lf_res.total_ops > 0);
    assert!(locked_res.total_ops > 0);
    // The locked list's *tail* shows the convoy: its p999 must reach the
    // stall magnitude, because victims queue behind a sleeping holder.
    let locked_lat = locked_res.latency.expect("latency requested");
    assert!(
        locked_lat.p999 >= Duration::from_micros(400),
        "expected convoy tail behind the lock, got {locked_lat}"
    );
}
