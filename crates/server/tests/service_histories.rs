//! Service-level correctness: per-key FIFO ordering through the batched
//! request channels, linearizability of concurrent same-key histories,
//! the live telemetry feed, and clean shutdown.

use std::time::{Duration, Instant};

use valois_core::channel::{channel, Receiver, Sender, TryRecvError, CAPACITY};
use valois_core::ArenaConfig;
use valois_dict::Dictionary;
use valois_harness::{check_linearizable, History, KeyDist, Op as HOp};
use valois_mem::{AllocError, Epoch, Reclaimer, RefCount};
use valois_server::{
    route, run_service, Op, Outcome, Request, Response, Server, ServiceConfig, ServiceMix,
    ShardStats, SimConfig, StatsFeed,
};
use valois_sync::rng::SmallRng;

fn small_config(shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        batch: 8,
        commit_group: 0,
        ..ServiceConfig::default()
    }
}

/// Issues `rounds` requests on connection 7 and one key: alternating
/// put/del with interleaved gets, back to back so several land in one
/// drain batch.
fn submit_same_key<R: Reclaimer + 'static>(
    server: &Server<R>,
    reply: &Sender<Response>,
    rounds: u64,
) {
    let key = 0xDEAD_BEEF;
    for seq in 0..rounds {
        let op = match seq % 3 {
            0 => Op::Put(key, seq),
            1 => Op::Get(key),
            _ => Op::Del(key),
        };
        server
            .submit(Request {
                conn: 7,
                seq,
                op,
                issued: Instant::now(),
                reply: reply.clone(),
            })
            .expect("server running");
    }
}

/// Reads the replies to [`submit_same_key`]: they must arrive complete,
/// in issue order, with the outcomes of sequential execution.
fn expect_same_key_replies(rx: &Receiver<Response>, rounds: u64) {
    for seq in 0..rounds {
        let resp = rx.recv().expect("reply");
        assert_eq!(resp.seq, seq, "per-key responses arrived out of order");
        assert_eq!(resp.conn, 7);
        let expected = match seq % 3 {
            0 => Outcome::Inserted(true),       // key always absent here
            1 => Outcome::Value(Some(seq - 1)), // the put just before
            _ => Outcome::Deleted(true),
        };
        assert_eq!(resp.outcome, expected, "sequential semantics at seq {seq}");
    }
}

/// Same connection, same key: responses must come back in issue order
/// with the outcomes of sequential execution. The guarantee is
/// structural (one key → one shard → one FIFO channel → in-order drain),
/// and this pins it end to end across a batch-sized burst.
fn same_key_same_conn_fifo<R: Reclaimer + 'static>() {
    let server: Server<R> = Server::start(&small_config(4));
    let (tx, rx) = channel::<Response>();
    submit_same_key(&server, &tx, 24);
    expect_same_key_replies(&rx, 24);
    drop(tx);
    server.shutdown();
}

/// Backpressure end to end: one thread submits four channels' worth of
/// requests on one connection and key while a second thread reads the
/// replies, starting only once the reply channel is full. From then on
/// the shard worker waits to send each reply, the request channel fills
/// behind it, and the submitter waits in `send`. Every reply must still
/// arrive, in order, with sequential outcomes.
fn backpressure_keeps_same_key_fifo<R: Reclaimer + 'static>() {
    let server: Server<R> = Server::start(&small_config(2));
    let (tx, rx) = channel::<Response>();
    let rounds = 4 * CAPACITY as u64;
    std::thread::scope(|s| {
        s.spawn(|| {
            // The submitter gets at least 2 × CAPACITY requests in before
            // it can wait, so the worker always fills the reply channel.
            while tx.queued() < CAPACITY {
                std::thread::yield_now();
            }
            expect_same_key_replies(&rx, rounds);
        });
        submit_same_key(&server, &tx, rounds);
    });
    drop(tx);
    assert_eq!(
        rx.try_recv(),
        Err(TryRecvError::Disconnected),
        "stray reply"
    );
    server.shutdown();
}

/// Concurrent clients hammering one key through the full service stack:
/// every recorded history must admit a linearization. The seeds make the
/// interleavings reproducible; the exhaustive checker keeps histories
/// small.
fn seeded_same_key_histories_linearizable<R: Reclaimer + 'static>() {
    for seed in 0..8u64 {
        let server: Server<R> = Server::start(&small_config(2));
        let key = 100 + seed;
        let client = server.client();
        // 3 threads × 5 ops = 15 ops, inside the checker's budget.
        let plan = |ops: [HOp; 5]| ops.to_vec();
        let plans = vec![
            plan([
                HOp::Insert(key),
                HOp::Find(key),
                HOp::Remove(key),
                HOp::Insert(key),
                HOp::Find(key),
            ]),
            plan([
                HOp::Remove(key),
                HOp::Insert(key),
                HOp::Find(key),
                HOp::Remove(key),
                HOp::Remove(key),
            ]),
            plan([
                HOp::Find(key),
                HOp::Insert(key),
                HOp::Insert(key),
                HOp::Find(key),
                HOp::Remove(key),
            ]),
        ];
        let history = History::record(&client, &plans);
        assert!(
            check_linearizable(&history),
            "seed {seed}: no linearization found for:\n{history}"
        );
        server.shutdown();
    }
}

/// The live stats feed must advance *while traffic is in flight* — ticks
/// sampled mid-run show completions, traversal and latency samples — and
/// its per-interval shard deltas add up to the run: every request served,
/// batches drained and, with a group commit configured, commits taken.
fn live_feed_advances_under_traffic<R: Reclaimer + 'static>() {
    for commit_group in [0, 16] {
        let server: Server<R> = Server::start(&ServiceConfig {
            commit_group,
            ..small_config(2)
        });
        let feed = StatsFeed::start(server.shards(), Duration::from_millis(5), false);
        let report = run_service(
            &server,
            &SimConfig {
                client_threads: 2,
                connections: 256,
                requests_per_conn: 40,
                window: 32,
                mix: ServiceMix::scan_heavy(),
                keys: KeyDist::Zipf { range: 4096 },
                scan_len: 8,
                seed: 0xFEED,
            },
        );
        assert_eq!(report.issued, 256 * 40);
        // Give the sampler one more interval, then stop it.
        std::thread::sleep(Duration::from_millis(15));
        let ticks = feed.stop();
        assert!(
            ticks.len() >= 2,
            "sampler should have ticked during the run: {} ticks",
            ticks.len()
        );
        let mut total = ShardStats::default();
        for t in &ticks {
            total += t.shard;
        }
        assert_eq!(
            total.completed, report.issued,
            "feed must converge on the served total"
        );
        assert!(total.batches > 0, "the feed must see drained batches");
        assert_eq!(
            total.commits > 0,
            commit_group > 0,
            "commits counted iff a group commit is configured: {total:?}"
        );
        assert!(
            ticks
                .iter()
                .any(|t| t.shard.completed > 0 && t.list.next_steps > 0),
            "some tick must observe live progress (completions + traversal)"
        );
        assert!(
            ticks.last().expect("nonempty").latency.is_some(),
            "latency summary present once requests were served"
        );
        server.shutdown();
    }
}

/// Shutdown drains every channel, joins every worker, and the returned
/// dictionaries pass the full structural + refcount audit.
fn shutdown_returns_consistent_dicts<R: Reclaimer + 'static>() {
    let server: Server<R> = Server::start(&small_config(3));
    let report = run_service(
        &server,
        &SimConfig {
            client_threads: 2,
            connections: 128,
            requests_per_conn: 30,
            window: 16,
            keys: KeyDist::Zipf { range: 2048 },
            ..SimConfig::default()
        },
    );
    assert_eq!(report.issued, 128 * 30);
    assert_eq!(server.stats().completed, report.issued);
    let len_before = server.len();
    let dicts = server.shutdown();
    assert_eq!(dicts.len(), 3);
    let total: usize = dicts.iter().map(valois_dict::Dictionary::len).sum();
    assert_eq!(total, len_before, "no in-flight writes after shutdown");
    for mut dict in dicts {
        dict.check_invariants()
            .unwrap_or_else(|e| panic!("shard dictionary corrupt after service run: {e}"));
    }
}

/// A capped node pool under service load: the shards shed and retry
/// internally; the service stays up, answers every request, and anything
/// it could not absorb surfaces as `Overloaded` replies — never a panic.
fn capped_pool_service_survives<R: Reclaimer + 'static>() {
    let server: Server<R> = Server::start(&ServiceConfig {
        shards: 2,
        batch: 8,
        commit_group: 0,
        arena: ArenaConfig::new().initial_capacity(512).max_nodes(512),
        ..ServiceConfig::default()
    });
    let report = run_service(
        &server,
        &SimConfig {
            client_threads: 2,
            connections: 128,
            requests_per_conn: 40,
            window: 16,
            // Heavy write churn against a small hot keyspace: constant
            // insert/delete pressure on the capped pools.
            mix: ServiceMix::new(10, 45, 40, 5),
            keys: KeyDist::Zipf { range: 512 },
            scan_len: 4,
            seed: 0xCAFE,
        },
    );
    assert_eq!(report.issued, 128 * 40, "every request answered");
    for mut dict in server.shutdown() {
        dict.check_invariants()
            .unwrap_or_else(|e| panic!("shard dictionary corrupt under memory pressure: {e}"));
    }
}

/// A put the service could not place even after the shard's shed is an
/// error at the client, never "already present": a capped server filled
/// through one client must refuse a fresh key with `Err(AllocError)`.
fn overloaded_put_is_an_error<R: Reclaimer + 'static>() {
    let server: Server<R> = Server::start(&ServiceConfig {
        arena: ArenaConfig::new().initial_capacity(64).max_nodes(64),
        ..small_config(1)
    });
    let client = server.client();
    let mut filled = 0u64;
    while client.try_insert(filled, filled) == Ok(true) {
        filled += 1;
    }
    assert!(filled >= 8, "capped pool too small: {filled} keys");
    assert_eq!(client.try_insert(u64::MAX, 0), Err(AllocError));
    assert_eq!(client.find(&0), Some(0), "the refusal changed nothing");
    server.shutdown();
}

/// `Server::mem_stats` folds the shard arenas' counters: counters add,
/// and the `epoch_pin_lag` gauge is the max over shards, not the sum.
fn server_mem_stats_folds_the_shards<R: Reclaimer + 'static>() {
    let server: Server<R> = Server::start(&small_config(2));
    let report = run_service(
        &server,
        &SimConfig {
            client_threads: 2,
            connections: 32,
            requests_per_conn: 40,
            window: 16,
            mix: ServiceMix::new(40, 30, 25, 5),
            keys: KeyDist::Zipf { range: 1024 },
            scan_len: 4,
            seed: 0xB0B,
        },
    );
    assert_eq!(server.stats().completed, report.issued);
    let total = server.mem_stats();
    let shards: Vec<_> = server.shards().iter().map(|s| s.mem_stats()).collect();
    assert_eq!(shards.len(), 2);
    assert!(total.allocs > 0, "mixed traffic must allocate");
    assert_eq!(total.allocs, shards.iter().map(|m| m.allocs).sum::<u64>());
    assert_eq!(
        total.releases,
        shards.iter().map(|m| m.releases).sum::<u64>()
    );
    assert_eq!(
        total.live_nodes(),
        shards.iter().map(|m| m.live_nodes()).sum::<u64>()
    );
    assert_eq!(
        total.epoch_pin_lag,
        shards.iter().map(|m| m.epoch_pin_lag).max().unwrap()
    );
    server.shutdown();
}

/// A scan's reply is the per-key `contains` truth over the range's keys
/// that the request's shard owns, at 1 and 4 shards. The ranges cover
/// empty ones, lengths past one hint round (16 keys), keys in buckets
/// no operation has touched yet, and the top of the key space, where
/// `start + len` passes `u64::MAX`.
fn scan_counts_match_per_key_truth<R: Reclaimer + 'static>() {
    let top = u64::MAX - 20;
    for shards in [1, 4] {
        let server: Server<R> = Server::start(&ServiceConfig {
            initial_buckets: 2,
            ..small_config(shards)
        });
        let owner = |k: u64| &server.shards()[route(k, shards)].dict;
        // Every third key of 0..3000 plus the odd keys at the top.
        let present = (0..3000).step_by(3).chain((top..=u64::MAX).step_by(2));
        for k in present {
            assert!(owner(k).insert(k, k), "fresh key {k}");
        }
        let (tx, rx) = channel::<Response>();
        let mut ranges: Vec<(u64, u32)> = vec![
            (0, 0),
            (5, 1),
            (u64::MAX, 1),
            (u64::MAX, 40),
            (u64::MAX - 1, 2),
            (top, 16),
            (top, 21),
            (top + 7, u32::MAX),
        ];
        let mut rng = SmallRng::seed_from_u64(0x5CA7 + shards as u64);
        // Beyond the filled keys too: their buckets start unpublished.
        ranges.extend((0..200).map(|_| (rng.gen_range(0..6000u64), rng.gen_range(0..70u32))));
        let published_before: u64 = server
            .shards()
            .iter()
            .map(|s| s.dict.initialized_buckets())
            .sum();
        for (seq, &(start, len)) in ranges.iter().enumerate() {
            let id = route(start, shards);
            let end = (u128::from(start) + u128::from(len)).min(1 << 64);
            let truth = (u128::from(start)..end)
                .map(|k| k as u64)
                .filter(|&k| route(k, shards) == id && owner(k).contains(&k))
                .count() as u32;
            server
                .submit(Request {
                    conn: 1,
                    seq: seq as u64,
                    op: Op::Scan { start, len },
                    issued: Instant::now(),
                    reply: tx.clone(),
                })
                .expect("server running");
            let reply = rx.recv().expect("reply");
            assert_eq!(
                reply.outcome,
                Outcome::Scanned(truth),
                "{shards} shards: scan {start}+{len}"
            );
        }
        let published_after: u64 = server
            .shards()
            .iter()
            .map(|s| s.dict.initialized_buckets())
            .sum();
        assert!(
            published_after > published_before,
            "the ranges must reach buckets no insert published"
        );
        drop(tx);
        for mut dict in server.shutdown() {
            dict.check_invariants().unwrap();
            dict.audit_refcounts().unwrap();
        }
    }
}

mod refcount {
    use super::*;

    #[test]
    fn same_key_same_conn_fifo() {
        super::same_key_same_conn_fifo::<RefCount>();
    }

    #[test]
    fn backpressure_keeps_same_key_fifo() {
        super::backpressure_keeps_same_key_fifo::<RefCount>();
    }

    #[test]
    fn seeded_same_key_histories_linearizable() {
        super::seeded_same_key_histories_linearizable::<RefCount>();
    }

    #[test]
    fn live_feed_advances_under_traffic() {
        super::live_feed_advances_under_traffic::<RefCount>();
    }

    #[test]
    fn shutdown_returns_consistent_dicts() {
        super::shutdown_returns_consistent_dicts::<RefCount>();
    }

    #[test]
    fn capped_pool_service_survives() {
        super::capped_pool_service_survives::<RefCount>();
    }

    #[test]
    fn overloaded_put_is_an_error() {
        super::overloaded_put_is_an_error::<RefCount>();
    }

    #[test]
    fn scan_counts_match_per_key_truth() {
        super::scan_counts_match_per_key_truth::<RefCount>();
    }
}

mod epoch {
    use super::*;

    #[test]
    fn same_key_same_conn_fifo() {
        super::same_key_same_conn_fifo::<Epoch>();
    }

    #[test]
    fn backpressure_keeps_same_key_fifo() {
        super::backpressure_keeps_same_key_fifo::<Epoch>();
    }

    #[test]
    fn seeded_same_key_histories_linearizable() {
        super::seeded_same_key_histories_linearizable::<Epoch>();
    }

    #[test]
    fn live_feed_advances_under_traffic() {
        super::live_feed_advances_under_traffic::<Epoch>();
    }

    #[test]
    fn shutdown_returns_consistent_dicts() {
        super::shutdown_returns_consistent_dicts::<Epoch>();
    }

    #[test]
    fn capped_pool_service_survives() {
        super::capped_pool_service_survives::<Epoch>();
    }

    #[test]
    fn overloaded_put_is_an_error() {
        super::overloaded_put_is_an_error::<Epoch>();
    }

    #[test]
    fn server_mem_stats_folds_the_shards() {
        super::server_mem_stats_folds_the_shards::<Epoch>();
    }

    #[test]
    fn scan_counts_match_per_key_truth() {
        super::scan_counts_match_per_key_truth::<Epoch>();
    }
}
