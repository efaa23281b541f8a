//! Compile-time `Send`/`Sync` assertions for every public concurrent type
//! (the API-guidelines C-SEND-SYNC regression test): these traits are
//! implemented manually for the pointer-bearing types, so a refactor that
//! silently loses them must fail this file, not a downstream user.

use valois::baseline::{LockedBstDict, LockedHashDict, LockedListDict, MutexListDict, NaiveList};
use valois::core::{Cursor, Node, PreparedInsert};
use valois::harness::LatencyHistogram;
use valois::mem::Arena;
use valois::{
    AndersonLock, BstDict, ClhLock, FifoQueue, HashDict, List, PriorityQueue, Receiver, Sender,
    SkipListDict, SortedListDict, Stack, TasLock, TicketLock, TtasLock,
};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn data_structures_are_send_sync() {
    assert_send_sync::<List<u64>>();
    assert_send_sync::<List<String>>();
    assert_send_sync::<FifoQueue<u64>>();
    assert_send_sync::<Stack<u64>>();
    assert_send_sync::<PriorityQueue<u64>>();
    assert_send_sync::<SortedListDict<u64, String>>();
    assert_send_sync::<HashDict<u64, String>>();
    assert_send_sync::<SkipListDict<u64, String>>();
    assert_send_sync::<BstDict<u64, String>>();
    assert_send_sync::<Sender<u64>>();
    assert_send_sync::<Receiver<u64>>();
}

#[test]
fn cursors_and_prepared_inserts_move_across_threads() {
    assert_send::<Cursor<'static, u64>>();
    assert_sync::<Cursor<'static, u64>>();
    assert_send::<PreparedInsert<'static, u64>>();
}

#[test]
fn memory_manager_is_send_sync() {
    // The arenas of the flat list and of the skip list's towers.
    assert_send_sync::<Arena<Node<u64>>>();
    assert_send_sync::<Arena<Node<(u64, String), 12>>>();
}

#[test]
fn locks_and_baselines_are_send_sync() {
    assert_send_sync::<TasLock>();
    assert_send_sync::<TtasLock>();
    assert_send_sync::<TicketLock>();
    assert_send_sync::<ClhLock>();
    assert_send_sync::<AndersonLock>();
    assert_send_sync::<LockedListDict<u64, u64>>();
    assert_send_sync::<MutexListDict<u64, u64>>();
    assert_send_sync::<LockedHashDict<u64, u64>>();
    assert_send_sync::<LockedBstDict<u64, u64>>();
    assert_send_sync::<NaiveList<u64>>();
    assert_send_sync::<LatencyHistogram>();
}
