//! The §5 memory-management story, end to end:
//!
//! 1. a **fixed pool** (the paper's model) that recycles every node through
//!    the lock-free free list — thousands of operations through a pool of
//!    sixteen nodes;
//! 2. **cell persistence**: a reader parked on a deleted cell keeps it
//!    alive (and readable) until the reader moves on — then, and only
//!    then, the node is recycled;
//! 3. the **ABA scenario** the §5.1 reference counts prevent, shown as
//!    counters: nodes are never re-allocated while referenced.
//!
//! ```sh
//! cargo run --release --example memory_reuse
//! ```

use valois::{ArenaConfig, List};

fn main() {
    // --- 1. Fixed pool, heavy recycling --------------------------------
    let list: List<u64> = List::with_config(ArenaConfig::new().initial_capacity(16).max_nodes(16));
    println!(
        "pool: {} nodes (3 structural + 13 usable)",
        list.node_capacity()
    );
    let mut cur = list.cursor();
    for round in 0..50_000u64 {
        cur.seek_first();
        cur.insert(round).unwrap();
        cur.update();
        assert!(cur.try_delete());
    }
    let stats = list.mem_stats();
    println!(
        "50k insert+delete cycles: {} allocs, {} reclaims, pool still {} nodes",
        stats.allocs,
        stats.reclaims,
        list.node_capacity()
    );
    assert_eq!(list.node_capacity(), 16, "never grew");

    // --- 2. Cell persistence pins a node; release recycles it ----------
    cur.insert(42).unwrap();
    cur.update();
    let reader = cur.clone(); // second cursor on the same cell
    assert!(cur.try_delete());
    let live_while_held = list.mem_stats().live_nodes();
    assert_eq!(
        reader.get(),
        Some(&42),
        "deleted cell still readable through the parked reader (§2.2)"
    );
    drop(reader);
    drop(cur);
    let live_after = list.mem_stats().live_nodes();
    println!(
        "persistence: live nodes {live_while_held} while a reader held the deleted cell, \
         {live_after} after it let go"
    );
    assert!(live_after < live_while_held);

    // --- 3. No reuse while referenced = no ABA -------------------------
    // Every allocation below returns a node address; while we hold a cursor
    // on a cell, that address can never be handed out again. We demonstrate
    // by exhausting the pool while one node is pinned.
    let mut pin = list.cursor();
    pin.insert(7).unwrap();
    pin.update();
    assert!(pin.try_delete(), "logically deleted, physically pinned");
    // The pinned node cannot be recycled: filling the pool must hit the cap
    // one insert earlier than without the pin.
    let mut filled = 0;
    let mut filler = list.cursor();
    while filler.insert(filled).is_ok() {
        filler.update();
        filled += 1;
    }
    println!("with one deleted-but-pinned node, {filled} items fit before exhaustion");
    drop(pin); // release → the node returns to the free list
    assert!(
        filler.insert(999).is_ok(),
        "dropping the pin freed exactly one cell+aux pair"
    );
    println!("after dropping the pin, one more item fits — reuse is reference-gated (§5.1)");
}
