//! Soak tester: randomized mixed workloads against every structure with
//! periodic invariant verification. Exits non-zero on any violation.
//!
//! ```text
//! stress [--secs N] [--threads N]
//!        [--structure list|sorted|hash|resizable|skip|bst|queue|stack|pqueue|service|all]
//!        [--inject-failure]
//! ```
//!
//! `--inject-failure` panics after the soak finishes — it exists to
//! exercise the flight-recorder post-mortem path end-to-end (with
//! `--features trace` the panic must leave a *.vtrace file behind; see
//! docs/OBSERVABILITY.md).
//!
//! Intended for long unattended runs (`cargo run --release -p valois-bench
//! --bin stress -- --secs 300`); the CI-sized default is 5 seconds per
//! structure.

use std::time::{Duration, Instant};
use valois_sync::rng::SmallRng;
use valois_sync::shim::atomic::{AtomicBool, AtomicU64, Ordering};

use valois_core::adt::{PriorityQueue, Stack};
use valois_core::queue::FifoQueue;
use valois_core::List;
use valois_dict::{BstDict, Dictionary, HashDict, ResizableHashDict, SkipListDict, SortedListDict};

/// Valid `--structure` names.
const STRUCTURES: &[&str] = &[
    "list",
    "sorted",
    "hash",
    "resizable",
    "skip",
    "bst",
    "queue",
    "stack",
    "pqueue",
    "service",
    "all",
];

struct Args {
    secs: u64,
    threads: usize,
    structure: String,
    inject_failure: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        secs: 5,
        threads: std::thread::available_parallelism()
            .map(|n| n.get() * 2)
            .unwrap_or(4)
            .clamp(2, 16),
        structure: "all".into(),
        inject_failure: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--secs" => {
                i += 1;
                args.secs = argv[i].parse().expect("--secs N");
            }
            "--threads" => {
                i += 1;
                args.threads = argv[i].parse().expect("--threads N");
            }
            "--structure" => {
                i += 1;
                args.structure = argv[i].to_ascii_lowercase();
            }
            "--inject-failure" => {
                args.inject_failure = true;
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    if !STRUCTURES.contains(&args.structure.as_str()) {
        eprintln!(
            "unknown --structure {:?}; valid: {}",
            args.structure,
            STRUCTURES.join(", ")
        );
        std::process::exit(2);
    }
    args
}

/// Generic dictionary soak: conservation accounting (callers run their
/// structure-specific invariant checks after this returns).
fn soak_dict<D: Dictionary<u64, u64>>(name: &str, dict: &D, secs: u64, threads: usize) {
    let inserted = AtomicU64::new(0);
    let removed = AtomicU64::new(0);
    let ops = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let stop = &stop;
        let inserted = &inserted;
        let removed = &removed;
        let ops = &ops;
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                while !stop.load(Ordering::Relaxed) {
                    let r = rng.next_u64();
                    let key = r % 512;
                    match (r >> 16) % 4 {
                        0 | 1 => {
                            let _ = dict.contains(&key);
                        }
                        2 => {
                            if dict.insert(key, r) {
                                inserted.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {
                            if dict.remove(&key) {
                                removed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_secs(secs));
        stop.store(true, Ordering::Relaxed);
    });
    let net = inserted.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed);
    let len = dict.len() as u64;
    assert_eq!(
        len, net,
        "{name}: accounting violated (len {len} vs net {net})"
    );
    println!(
        "{name:>12}: {} ops, {} net items, invariants OK",
        ops.load(Ordering::Relaxed),
        net
    );
}

fn soak_list(secs: u64, threads: usize) {
    let mut list: List<u64> = List::new();
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    std::thread::scope(|s| {
        let list = &list;
        let stop = &stop;
        let ops = &ops;
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t.wrapping_mul(0x9E37_79B9) | 1);
                let mut cur = list.cursor();
                while !stop.load(Ordering::Relaxed) {
                    let r = rng.next_u64();
                    match r % 4 {
                        0 => {
                            cur.insert(r).unwrap();
                            cur.update();
                        }
                        1 => {
                            let _ = cur.try_delete();
                            cur.update();
                        }
                        2 => {
                            if !cur.next() {
                                cur.seek_first();
                            }
                        }
                        _ => cur.seek_first(),
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        std::thread::sleep(Duration::from_secs(secs));
        stop.store(true, Ordering::Relaxed);
    });
    list.check_structure(0)
        .unwrap_or_else(|e| panic!("list structure violated: {e}"));
    let report = list.aux_chain_report();
    assert_eq!(report.runs_ge2, 0, "aux chain theorem violated");
    assert_eq!(list.quiescent_collect(), 0, "garbage found at quiescence");
    println!(
        "{:>12}: {} ops, {} items, structure+theorem OK",
        "raw list",
        ops.load(Ordering::Relaxed),
        list.len()
    );
}

fn soak_queue(secs: u64, threads: usize) {
    let mut q: FifoQueue<u64> = FifoQueue::new();
    let stop = AtomicBool::new(false);
    let enq = AtomicU64::new(0);
    let deq = AtomicU64::new(0);
    std::thread::scope(|s| {
        let q = &q;
        let stop = &stop;
        let enq = &enq;
        let deq = &deq;
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
                while !stop.load(Ordering::Relaxed) {
                    let r = rng.next_u64();
                    if r.is_multiple_of(2) {
                        q.enqueue(r).unwrap();
                        enq.fetch_add(1, Ordering::Relaxed);
                    } else if q.dequeue().is_some() {
                        deq.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_secs(secs));
        stop.store(true, Ordering::Relaxed);
    });
    let net = enq.load(Ordering::Relaxed) - deq.load(Ordering::Relaxed);
    assert_eq!(q.len() as u64, net, "queue conservation violated");
    q.audit_refcounts()
        .unwrap_or_else(|e| panic!("fifo queue refcount drift: {e}"));
    println!(
        "{:>12}: {} enq / {} deq, {} left, conservation+audit OK",
        "fifo queue",
        enq.load(Ordering::Relaxed),
        deq.load(Ordering::Relaxed),
        net
    );
}

fn soak_stack_pqueue(secs: u64, threads: usize) {
    let st: Stack<u64> = Stack::new();
    let pq: PriorityQueue<u64> = PriorityQueue::new();
    let stop = AtomicBool::new(false);
    let pushed = AtomicU64::new(0);
    let popped = AtomicU64::new(0);
    std::thread::scope(|s| {
        let st = &st;
        let pq = &pq;
        let stop = &stop;
        let pushed = &pushed;
        let popped = &popped;
        for t in 0..threads as u64 {
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t.wrapping_mul(0xD134_2543_DE82_EF95) | 1);
                while !stop.load(Ordering::Relaxed) {
                    let r = rng.next_u64();
                    match r % 4 {
                        0 => {
                            st.push(r).unwrap();
                            pushed.fetch_add(1, Ordering::Relaxed);
                        }
                        1 => {
                            if st.pop().is_some() {
                                popped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        2 => {
                            pq.insert(r % 1000).unwrap();
                            pushed.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            if pq.pop_min().is_some() {
                                popped.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_secs(secs));
        stop.store(true, Ordering::Relaxed);
    });
    let net = pushed.load(Ordering::Relaxed) - popped.load(Ordering::Relaxed);
    assert_eq!(
        (st.len() + pq.len()) as u64,
        net,
        "stack+pqueue conservation violated"
    );
    let sorted = pq.to_sorted_vec();
    assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "priority queue order violated"
    );
    println!(
        "{:>12}: {} pushed / {} popped, {} left, order OK",
        "stack+pq",
        pushed.load(Ordering::Relaxed),
        popped.load(Ordering::Relaxed),
        net
    );
}

/// Soaks the full sharded service: randomized traffic bursts (mix, key
/// range, and window re-drawn per burst) against one long-lived server,
/// then a clean shutdown with the full dictionary audit on every shard.
fn soak_service(secs: u64, threads: usize) {
    use valois_server::{run_service, Server, ServiceConfig, ServiceMix, SimConfig};

    let shards = threads.clamp(1, 8);
    let server: Server<valois_mem::Epoch> = Server::start(&ServiceConfig {
        shards,
        batch: 32,
        commit_group: 0,
        ..ServiceConfig::default()
    });
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut rng = SmallRng::seed_from_u64(0x5EED_50AC_5E4F_0001);
    let mut bursts = 0u64;
    let mut issued = 0u64;
    let mut overloaded = 0u64;
    while Instant::now() < deadline {
        let r = rng.next_u64();
        let mix = match r % 3 {
            0 => ServiceMix::read_mostly(),
            1 => ServiceMix::scan_heavy(),
            _ => ServiceMix::new(10, 45, 40, 5), // write churn
        };
        let report = run_service(
            &server,
            &SimConfig {
                client_threads: 2,
                connections: 128 + (r >> 8) as usize % 128,
                requests_per_conn: 16,
                window: 8 + (r >> 16) as usize % 56,
                mix,
                keys: valois_harness::KeyDist::Zipf {
                    range: 1 << (10 + (r >> 24) % 8),
                },
                scan_len: 8,
                seed: r,
            },
        );
        bursts += 1;
        issued += report.issued;
        overloaded += report.overloaded;
    }
    assert_eq!(server.completed(), issued, "service lost requests");
    let len = server.len() as u64;
    let dicts = server.shutdown();
    assert_eq!(dicts.len(), shards, "shutdown must return every shard");
    let total: u64 = dicts
        .iter()
        .map(|d| valois_dict::Dictionary::len(d) as u64)
        .sum();
    assert_eq!(total, len, "in-flight writes leaked past shutdown");
    for mut dict in dicts {
        dict.check_invariants()
            .unwrap_or_else(|e| panic!("service shard invariant violated: {e}"));
    }
    println!(
        "{:>12}: {issued} reqs over {bursts} bursts on {shards} shards, \
         {overloaded} overloaded, {total} resident, invariants OK",
        "service"
    );
}

fn main() {
    // With `--features trace`, any panic (an invariant assertion firing)
    // writes a merged time-ordered flight-recorder post-mortem to a
    // *.vtrace file before unwinding; render it with
    // `cargo xtask trace-dump <file>`. Without the feature this is a no-op.
    valois_trace::arm_panic_dump();
    let args = parse_args();
    let t0 = Instant::now();
    println!(
        "soak: {}s per structure, {} threads, structure={}",
        args.secs, args.threads, args.structure
    );
    let want = |name: &str| args.structure == "all" || args.structure == name;

    if want("list") {
        soak_list(args.secs, args.threads);
    }
    if want("sorted") {
        let mut d: SortedListDict<u64, u64> = SortedListDict::new();
        soak_dict("sorted list", &d, args.secs, args.threads);
        d.check_invariants()
            .unwrap_or_else(|e| panic!("sorted list invariant violated: {e}"));
        d.audit_refcounts()
            .unwrap_or_else(|e| panic!("sorted list refcount drift: {e}"));
    }
    if want("hash") {
        let mut d: HashDict<u64, u64> = HashDict::with_buckets(64);
        soak_dict("hash", &d, args.secs, args.threads);
        d.check_invariants()
            .unwrap_or_else(|e| panic!("hash invariant violated: {e}"));
        d.audit_refcounts()
            .unwrap_or_else(|e| panic!("hash refcount drift: {e}"));
    }
    if want("resizable") {
        // Start at 2 buckets so the churn (≈ 256 live keys at
        // equilibrium) drives the table across several doublings while
        // operations race the bucket splits.
        let mut d: ResizableHashDict<u64, u64> = ResizableHashDict::with_initial_buckets(2);
        soak_dict("resizable", &d, args.secs, args.threads);
        assert!(
            d.doublings() >= 3,
            "resizable: churn must cross >= 3 doublings, saw {} ({} buckets)",
            d.doublings(),
            d.bucket_count()
        );
        d.check_invariants()
            .unwrap_or_else(|e| panic!("resizable invariant violated: {e}"));
        d.audit_refcounts()
            .unwrap_or_else(|e| panic!("resizable refcount drift: {e}"));
        println!(
            "{:>12}  grew to {} buckets over {} doublings",
            "",
            d.bucket_count(),
            d.doublings()
        );
    }
    if want("skip") {
        let mut d: SkipListDict<u64, u64> = SkipListDict::new();
        soak_dict("skip list", &d, args.secs, args.threads);
        d.check_invariants()
            .unwrap_or_else(|e| panic!("skip list invariant violated: {e}"));
        d.audit_refcounts()
            .unwrap_or_else(|e| panic!("skip list refcount drift: {e}"));
    }
    if want("bst") {
        let mut d: BstDict<u64, u64> = BstDict::new();
        soak_dict("bst", &d, args.secs, args.threads);
        d.check_invariants()
            .unwrap_or_else(|e| panic!("bst invariant violated: {e}"));
        d.audit_refcounts()
            .unwrap_or_else(|e| panic!("bst refcount drift: {e}"));
    }
    if want("queue") {
        soak_queue(args.secs, args.threads);
    }
    if want("stack") || want("pqueue") {
        soak_stack_pqueue(args.secs, args.threads);
    }
    if want("service") {
        soak_service(args.secs, args.threads);
    }
    // Flight-recorder summary (non-empty only with `--features trace`):
    // protocol-level counters and histograms aggregated across all soak
    // threads — CAS failure rate, SafeRead/Release traffic per hop,
    // backoff and batch-size distributions.
    let metrics = valois_trace::snapshot();
    if !metrics.is_empty() {
        println!("--- flight recorder ---\n{metrics}");
    }
    assert!(
        !args.inject_failure,
        "injected failure (--inject-failure): exercising the post-mortem dump path"
    );
    println!("soak complete in {:?} — all invariants held", t0.elapsed());
}
