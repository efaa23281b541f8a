//! §5.2 allocator micro-benchmarks: `Alloc`/`Reclaim` (Figs. 17–18)
//! against the system allocator, single-threaded and contended.

use valois_bench::criterion::{black_box, Criterion};
use valois_bench::{criterion_group, criterion_main};
use valois_core::List;
use valois_mem::ArenaConfig;

fn bench_alloc_reclaim_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("freelist");
    // The list's insert+delete cycle = 2 allocs + 2 reclaims + link work.
    let list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(64));
    group.bench_function("list_insert_delete_cycle", |b| {
        let mut cur = list.cursor();
        b.iter(|| {
            cur.seek_first();
            cur.insert(7).unwrap();
            cur.update();
            black_box(cur.try_delete())
        });
    });
    // System allocator reference: Box a node-sized payload.
    group.bench_function("box_alloc_free_pair", |b| {
        b.iter(|| {
            let a = Box::new([0u8; 64]);
            let b2 = Box::new([0u8; 64]);
            black_box((a, b2))
        });
    });
    group.finish();
}

fn bench_contended_alloc(c: &mut Criterion) {
    // 4 threads hammering one free list: the lock-free pop/push path.
    let mut group = c.benchmark_group("freelist_contended");
    group.sample_size(10);
    group.bench_function("4_threads_x_10k_cycles", |b| {
        b.iter(|| {
            let list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(256));
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let mut cur = list.cursor();
                        for i in 0..10_000u64 {
                            cur.seek_first();
                            cur.insert(i).unwrap();
                            cur.update();
                            cur.try_delete();
                        }
                    });
                }
            });
            black_box(list)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_alloc_reclaim_cycle, bench_contended_alloc);
criterion_main!(benches);
