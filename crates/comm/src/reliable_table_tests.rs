#![cfg(all(test, not(ttg_model)))]
//! The sender's seq-ordered table ([`Outstanding`] inside [`LinkTx`])
//! against a `BTreeMap` reference that applies the same rules by brute
//! force, and [`LinkTx::import`] on hostile snapshots under a counting
//! allocator.

use super::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local without a destructor, so touching it
// allocates nothing and is valid at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.with(|c| c.set(c.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the calling thread has allocated so far.
fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

/// SplitMix64: a seeded stream of test decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The sender's link state as it was kept before the ordered table: a map
/// by seq, every rule a full scan.
#[derive(Default)]
struct Reference {
    next_seq: u64,
    unacked: BTreeMap<u64, Unacked>,
    retired_high: u64,
    clock: Option<Instant>,
}

impl Reference {
    fn retire(&mut self, ranges: &[(u64, u64)], epoch: u64, now: Instant) {
        for &(first, last) in ranges.iter().filter(|r| unpack_seq(r.0).0 == epoch) {
            for seq in unpack_seq(first).1..=unpack_seq(last).1 {
                if self.unacked.remove(&seq).is_some() {
                    self.retired_high = self.retired_high.max(seq);
                    self.clock = Some(now);
                }
            }
        }
    }

    fn next_due(&self, retry: &RetryPolicy) -> Option<Instant> {
        let oldest = self.unacked.keys().next().copied();
        let due = |(&seq, e): (&u64, &Unacked)| match self.clock {
            _ if e.attempts >= retry.max_retries || seq < self.retired_high => Some(e.next_retry),
            None => Some(e.next_retry),
            Some(c) if oldest == Some(seq) => {
                Some(e.next_retry.max(c + retry.backoff(e.attempts + 1)))
            }
            Some(_) => None,
        };
        self.unacked.iter().filter_map(due).min()
    }

    fn export(&self) -> Vec<u8> {
        let mut b = WriteBuf::new();
        b.put_u64(self.next_seq);
        b.put_u64(self.unacked.len() as u64);
        for (&seq, u) in &self.unacked {
            b.put_u64(seq);
            b.put_u32(u.handler);
            b.put_u8(u.delivered as u8);
            b.put_len_bytes(&u.payload);
        }
        b.as_slice().to_vec()
    }
}

fn entry(seq: u64, attempts: u32, next_retry: Instant) -> Unacked {
    Unacked {
        handler: (seq % 7) as u32,
        payload: Arc::new(vec![seq as u8; (seq % 5) as usize]),
        attempts,
        next_retry,
        delivered: false,
    }
}

fn export(tx: &LinkTx) -> Vec<u8> {
    let mut b = WriteBuf::new();
    tx.export(&mut b);
    b.as_slice().to_vec()
}

fn assert_same(tx: &LinkTx, r: &Reference, step: usize) {
    let got: Vec<_> = tx
        .unacked
        .iter()
        .map(|(s, e)| (s, e.attempts, e.next_retry, e.delivered))
        .collect();
    let want: Vec<_> = r
        .unacked
        .iter()
        .map(|(&s, e)| (s, e.attempts, e.next_retry, e.delivered))
        .collect();
    assert_eq!(got, want, "membership at step {step}");
    assert_eq!(tx.unacked.len(), r.unacked.len());
    assert_eq!(
        tx.unacked.oldest().map(|(s, _)| s),
        r.unacked.keys().next().copied()
    );
    assert_eq!((tx.retired_high, tx.clock), (r.retired_high, r.clock));
    for max_retries in [0, 1, 3] {
        let retry = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(3),
            max_retries,
        };
        assert_eq!(
            tx.next_due(&retry),
            r.next_due(&retry),
            "next_due at step {step}, max_retries {max_retries}"
        );
    }
    assert_eq!(export(tx), r.export(), "export bytes at step {step}");
}

#[test]
fn ordered_table_matches_a_map_reference_under_random_interleavings() {
    let retry = RetryPolicy {
        base: Duration::from_micros(100),
        cap: Duration::from_millis(3),
        max_retries: 3,
    };
    for seed in 0..40u64 {
        let mut rng = Rng(seed);
        let (mut tx, mut r) = (LinkTx::default(), Reference::default());
        let mut now = Instant::now();
        for step in 0..400 {
            now += Duration::from_micros(rng.below(400));
            match rng.below(12) {
                // A send, as `ChaosState::send` holds it.
                0..=4 => {
                    let seq = tx.assign_seq();
                    r.next_seq = seq;
                    if tx.unacked.is_empty() {
                        tx.clock = Some(now);
                    }
                    if r.unacked.is_empty() {
                        r.clock = Some(now);
                    }
                    let e = entry(seq, 0, now + retry.backoff(1));
                    tx.unacked.insert(seq, e.clone());
                    r.unacked.insert(seq, e);
                }
                // An ack batch: ascending ranges with holes between them,
                // some packed with another epoch.
                5..=7 => {
                    let mut ranges = Vec::new();
                    let mut at = 1 + rng.below(r.next_seq.max(1));
                    for _ in 0..1 + rng.below(3) {
                        let last = at + rng.below(4);
                        let epoch = u64::from(rng.below(4) == 0);
                        ranges.push((pack_seq(epoch, at), pack_seq(epoch, last)));
                        at = last + 2 + rng.below(3);
                    }
                    tx.retire(&ranges, 0, now);
                    r.retire(&ranges, 0, now);
                }
                // A retransmit pass: some entries are resent, some
                // abandoned, the same ones on both sides.
                8 => {
                    let salt = rng.next();
                    let pick = |seq: u64| Rng(salt ^ seq.wrapping_mul(0x2545_F491)).below(3);
                    let act = |seq: u64, e: &mut Unacked| match pick(seq) {
                        0 => false,
                        1 => {
                            e.attempts += 1;
                            e.next_retry = now + retry.backoff(e.attempts + 1);
                            true
                        }
                        _ => true,
                    };
                    tx.unacked.retain_mut(&act);
                    r.unacked.retain(|&seq, e| act(seq, e));
                }
                // A rollback re-arms a seed below, between or on held seqs,
                // on a link without a clock.
                9 => {
                    let seq = 1 + rng.below(r.next_seq + 1);
                    let e = entry(seq, 0, now);
                    (tx.clock, r.clock) = (None, None);
                    tx.unacked.insert(seq, e.clone());
                    r.unacked.insert(seq, e);
                }
                // A pause ends.
                10 => {
                    let by = Duration::from_micros(rng.below(1000));
                    tx.postpone(by);
                    r.clock = r.clock.map(|c| c + by);
                    for e in r.unacked.values_mut() {
                        e.next_retry += by;
                    }
                }
                // The receiver accepts a copy.
                _ => {
                    let seq = 1 + rng.below(r.next_seq + 1);
                    tx.unacked.mark_delivered(seq);
                    if let Some(e) = r.unacked.get_mut(&seq) {
                        e.delivered = true;
                    }
                }
            }
            assert_same(&tx, &r, step);
        }
    }
}

#[test]
fn insertion_order_does_not_change_the_snapshot() {
    let now = Instant::now();
    let seqs = [9u64, 2, 40, 17, 3, 1, 25];
    let (mut a, mut b) = (LinkTx::default(), LinkTx::default());
    for &seq in &seqs {
        a.unacked.insert(seq, entry(seq, 0, now));
    }
    for &seq in seqs.iter().rev() {
        b.unacked.insert(seq, entry(seq, 0, now));
    }
    assert_eq!(export(&a), export(&b));
}

/// Runs `import` on `bytes`; returns its result and the bytes it allocated.
fn import_counted(bytes: &[u8]) -> (Result<LinkTx, WireError>, u64) {
    let now = Instant::now();
    let before = alloc_bytes();
    let got = LinkTx::import(&mut ReadBuf::new(bytes), now);
    (got, alloc_bytes() - before)
}

/// What `import` may allocate for a snapshot of `len` bytes: a few bytes
/// of table, `Arc` and payload per byte read, and a constant.
fn budget(len: usize) -> u64 {
    8 * len as u64 + 512
}

#[test]
fn hostile_snapshots_error_or_round_trip_and_allocate_in_proportion() {
    // A count of 2^40 entries with one entry behind it.
    let mut b = WriteBuf::new();
    b.put_u64(7);
    b.put_u64(1 << 40);
    b.put_u64(3);
    b.put_u32(1);
    b.put_u8(0);
    b.put_len_bytes(&[5; 16]);
    let (got, bytes) = import_counted(b.as_slice());
    assert!(got.is_err(), "a count past the bytes must fail");
    assert!(bytes <= budget(b.as_slice().len()), "{bytes} B allocated");

    // Two entries at seqs 1 and 2^50: one slot each, not one per seq.
    let now = Instant::now();
    let mut tx = LinkTx {
        next_seq: 1 << 50,
        ..LinkTx::default()
    };
    tx.unacked.insert(1, entry(1, 0, now));
    tx.unacked.insert(1 << 50, entry(1 << 50, 0, now));
    let snap = export(&tx);
    let (got, bytes) = import_counted(&snap);
    assert_eq!(export(&got.expect("a valid snapshot")), snap);
    assert!(bytes <= budget(snap.len()), "{bytes} B allocated");

    // Every truncation of a valid snapshot fails, without panicking.
    for cut in 0..snap.len() {
        let (got, bytes) = import_counted(&snap[..cut]);
        assert!(got.is_err(), "a snapshot cut at {cut} bytes was accepted");
        assert!(bytes <= budget(cut), "{bytes} B allocated at cut {cut}");
    }
}
