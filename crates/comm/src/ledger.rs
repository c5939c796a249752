//! The in-flight ledger (DESIGN §13): what termination detection reads,
//! and the only place its counts change.
//!
//! Per directed link `from → to` (the out-of-fabric seeding sentinel as
//! sender row `n`, named `ext`), two monotone counts: `issued`, bumped once
//! when a logical send is sequenced or put on the wire (between processes
//! the receiver's ledger also issues each frame as it comes off the wire);
//! `settled`, bumped once at the message's one terminal outcome — processed
//! after a fresh accept, abandoned after a successful window claim, or
//! refused by the link. The packets in flight
//! are derived, over the rows this process settles (all of them, or the
//! rows into its rank in a multi-process job). A rollback puts every row
//! back as the global cut recorded it, with delivery paused, so no settle
//! races it. A settle past `issued` is a TTG048 naming the link, never a
//! wrap; the one that balances the ledger signals the execution's event
//! count.

use std::sync::Arc;
use ttg_model::sync::{AtomicU64, EventCount, Ordering::SeqCst};

use crate::error::{CommError, CommErrorKind};
use crate::links::Rank;

#[derive(Default)]
struct Row {
    issued: AtomicU64,
    settled: AtomicU64,
}

/// Per-link issued/settled counts of one fabric.
pub(crate) struct Ledger {
    n: usize,
    /// The rank whose inbound rows this process settles (`None`: all).
    local: Option<Rank>,
    rows: Box<[Row]>,
    events: Arc<EventCount>,
}

impl Ledger {
    pub(crate) fn new(n: usize, local: Option<Rank>, events: Arc<EventCount>) -> Ledger {
        let rows = (0..(n + 1) * n).map(|_| Row::default()).collect();
        Ledger {
            n,
            local,
            rows,
            events,
        }
    }

    /// The row of `from → to`.
    pub(crate) fn link(&self, from: Rank, to: Rank) -> usize {
        from.min(self.n) * self.n + to
    }

    pub(crate) fn events(&self) -> &Arc<EventCount> {
        &self.events
    }

    /// One logical send entered on `from → to`; returns its row.
    pub(crate) fn issue(&self, from: Rank, to: Rank) -> usize {
        let li = self.link(from, to);
        self.rows[li].issued.fetch_add(1, SeqCst);
        li
    }

    pub(crate) fn issued(&self, li: usize) -> u64 {
        self.rows[li].issued.load(SeqCst)
    }

    pub(crate) fn settled(&self, li: usize) -> u64 {
        self.rows[li].settled.load(SeqCst)
    }

    /// One message on row `li` reached its terminal outcome.
    pub(crate) fn settle(&self, li: usize) -> Result<(), CommError> {
        let row = &self.rows[li];
        let mut cur = row.settled.load(SeqCst);
        loop {
            let issued = row.issued.load(SeqCst);
            if cur >= issued {
                let detail = format!("ledger: a settle past the {issued} issued on the link");
                let from = (li / self.n < self.n).then_some(li / self.n);
                return Err(
                    CommError::new(CommErrorKind::RecoveryFailed, detail).link(from, li % self.n)
                );
            }
            match row.settled.compare_exchange(cur, cur + 1, SeqCst, SeqCst) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        // Only a settle that balances its own row can balance them all.
        let here = self.local.is_none_or(|me| li % self.n == me);
        if here && cur + 1 == row.issued.load(SeqCst) && self.in_flight() == 0 {
            self.events.signal_all();
        }
        Ok(())
    }

    /// Put row `li` back as a global cut recorded it (a rollback).
    pub(crate) fn restore(&self, li: usize, issued: u64, settled: u64) {
        self.rows[li].issued.store(issued, SeqCst);
        self.rows[li].settled.store(settled, SeqCst);
    }

    /// Σissued − Σsettled over the rows settled here. Settled is read
    /// first: the counts only grow and a message is issued before it
    /// settles, so a zero read this way held when issued was read.
    pub(crate) fn in_flight(&self) -> u64 {
        let here = || {
            let local = |li: &usize| self.local.is_none_or(|me| li % self.n == me);
            (0..self.rows.len()).filter(local).map(|li| &self.rows[li])
        };
        let settled: u64 = here().map(|r| r.settled.load(SeqCst)).sum();
        let issued: u64 = here().map(|r| r.issued.load(SeqCst)).sum();
        issued.saturating_sub(settled)
    }

    /// A multi-process rank's termination totals: what it put on the wire
    /// to other processes and was not refused, and what it processed from
    /// them.
    pub(crate) fn cross_totals(&self, me: Rank) -> (u64, u64) {
        (0..self.n)
            .filter(|&p| p != me)
            .fold((0, 0), |(sent, recvd), p| {
                let out = self.link(me, p);
                let put = self.issued(out) - self.settled(out);
                (sent + put, recvd + self.settled(self.link(p, me)))
            })
    }

    /// `from→to issued−settled` per link that carried traffic.
    pub(crate) fn describe(&self) -> String {
        name_links(self.n, |li| {
            let issued = self.issued(li);
            (issued > 0).then(|| format!("{issued}−{}", self.settled(li)))
        })
    }
}

/// `from→to what` for each link row `what` names (the sentinel as `ext`),
/// or `none`.
pub(crate) fn name_links(n: usize, what: impl Fn(usize) -> Option<String>) -> String {
    let named: Vec<String> = (0..(n + 1) * n)
        .filter_map(|li| {
            let from = if li / n == n {
                "ext".into()
            } else {
                (li / n).to_string()
            };
            what(li).map(|w| format!("{from}→{} {w}", li % n))
        })
        .collect();
    if named.is_empty() {
        "none".into()
    } else {
        named.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn only_the_settle_that_balances_every_row_signals() {
        let events = Arc::new(EventCount::new());
        let l = Ledger::new(2, None, Arc::clone(&events));
        let (a, b) = (l.link(0, 1), l.link(1, 0));
        l.issue(0, 1);
        l.issue(1, 0);
        let epoch = events.prepare();
        l.settle(a).unwrap();
        let early = Instant::now() + Duration::from_millis(5);
        assert!(
            !events.wait_until(epoch, early),
            "one balanced link of two must not signal"
        );
        let epoch = events.prepare();
        l.settle(b).unwrap();
        assert!(events.wait_until(epoch, Instant::now()), "balance signals");
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn a_settle_past_issued_is_a_ttg048_naming_the_link() {
        let l = Ledger::new(2, None, Arc::new(EventCount::new()));
        let li = l.link(usize::MAX, 1);
        let e = l.settle(li).expect_err("nothing was issued");
        assert_eq!(e.code(), "TTG048");
        assert_eq!((e.from, e.to), (None, Some(1)));
        assert_eq!(l.in_flight(), 0, "no wrap");
    }

    #[test]
    fn a_rollback_puts_rows_back_verbatim() {
        let l = Ledger::new(2, None, Arc::new(EventCount::new()));
        let li = l.issue(0, 1);
        l.issue(0, 1);
        l.settle(li).unwrap();
        l.restore(li, 1, 0);
        assert_eq!((l.issued(li), l.settled(li), l.in_flight()), (1, 0, 1));
        l.settle(li).unwrap();
        assert_eq!(l.in_flight(), 0);
        assert!(l.settle(li).is_err(), "the restored row bounds the settles");
        assert_eq!(l.describe(), "0→1 1−1");
    }

    #[test]
    fn a_multi_process_rank_counts_only_its_inbound_rows_in_flight() {
        let l = Ledger::new(2, Some(1), Arc::new(EventCount::new()));
        l.issue(1, 0); // put on the wire to rank 0
        assert_eq!(l.in_flight(), 0);
        l.issue(0, 1); // a frame came off the wire
        assert_eq!(l.in_flight(), 1);
        l.settle(l.link(0, 1)).unwrap();
        assert_eq!(l.cross_totals(1), (1, 1));
    }
}
