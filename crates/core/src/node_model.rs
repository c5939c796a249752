//! Model case of the matching table (DESIGN §5): the shipped
//! [`ShardedTable::arrive`] explored by `ttg_model::explore`
//! (`RUSTFLAGS="--cfg ttg_model" cargo test -p ttg-core --lib`), its
//! stripes locked through the facade's shadow mutex.
//!
//! Two keys on two stripes of one table, each with two input terminals:
//! a producer fills terminal 0 of both keys, a consumer terminal 1.
//! Invariant: each key is taken out complete exactly once — the task
//! fires once — and the table is empty at the end.

use super::*;
use std::sync::Arc;
use ttg_model::sync::{AtomicUsize, Ordering};
use ttg_model::{explore, thread, Config};

/// The preemption bound the case explores exhaustively.
const BOUND: usize = 3;

struct Run {
    table: ShardedTable<u64>,
    keys: [u64; 2],
    /// Launches per key.
    launches: [AtomicUsize; 2],
}

/// Fill `terminal` of every key, counting the launches it completes.
fn arrive_all(run: &Run, terminal: usize) {
    for (key, launches) in run.keys.iter().zip(&run.launches) {
        let fill = |e: &mut PendingE| {
            *e.slots.get_mut(terminal) = SlotE::Plain(ErasedVal::Owned(Box::new(*key)));
            Ok::<(), ()>(())
        };
        if run
            .table
            .arrive(*key, 2, fill)
            .expect("no refusal")
            .is_some()
        {
            launches.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn matching() {
    let table = ShardedTable::new(2);
    let other = (1..).find(|k| !std::ptr::eq(table.shard(k), table.shard(&0)));
    let run = Arc::new(Run {
        table,
        keys: [0, other.expect("a key on the other stripe")],
        launches: [AtomicUsize::new(0), AtomicUsize::new(0)],
    });
    let spawn = |name, terminal| {
        let run = Arc::clone(&run);
        thread::spawn_named(name, move || arrive_all(&run, terminal))
    };
    let threads = [spawn("producer", 0), spawn("consumer", 1)];
    for t in threads {
        t.join();
    }
    for (key, launches) in run.keys.iter().zip(&run.launches) {
        let n = launches.load(Ordering::SeqCst);
        assert_eq!(
            n, 1,
            "matching violated exactly-once: key {key} launched {n} times"
        );
    }
    assert_eq!(run.table.pending(), 0, "an entry left behind");
}

#[test]
fn matching_case() {
    let stats = explore(Config::bounded(BOUND), matching)
        .unwrap_or_else(|v| panic!("model case matching: {v}"));
    println!("model node::matching bound={BOUND} {stats}");
    assert!(stats.exhaustive && stats.schedules > 1, "matching: {stats}");
}
