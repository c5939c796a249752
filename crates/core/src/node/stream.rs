//! Streaming terminals (paper §II-B): a stream's expected length, set per
//! key, and the explicit close of an unbounded stream. Either may complete
//! the stream's slot and so launch the task.

use std::sync::Arc;

use ttg_comm::WireError;

use super::{NodeInner, PendingE, SlotE};
use crate::ctx::RuntimeCtx;
use crate::types::Key;

#[cfg(feature = "checked")]
use crate::inspect::Violation;

impl<K: Key> NodeInner<K> {
    /// Set the expected stream length for `(k, terminal)`; may complete the
    /// task if the stream already received that many messages.
    pub(crate) fn set_stream_size(
        &self,
        rank: usize,
        terminal: usize,
        k: K,
        n: usize,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        let ready = {
            let mut table = self.table(rank, &k).lock();
            let entry = table
                .entry(k.clone())
                .or_insert_with(|| PendingE::new(self.n_inputs));
            let slot = entry.slots.get_mut(terminal);
            match slot {
                SlotE::Empty => {
                    *slot = SlotE::Stream {
                        acc: None,
                        received: 0,
                        expected: Some(n),
                        finalized: false,
                    };
                }
                SlotE::Stream {
                    received, expected, ..
                } => {
                    if *received > n {
                        misuse!(
                            ctx,
                            Violation::SizeBelowReceived {
                                node: self.name,
                                terminal,
                                key: format!("{k:?}"),
                                size: n,
                                received: *received,
                            },
                            "stream size {} below already-received {} on {} {:?}",
                            n,
                            received,
                            self.name,
                            k
                        );
                    }
                    *expected = Some(n);
                }
                SlotE::Plain(_) => misuse!(
                    ctx,
                    Violation::SetSizeOnPlain {
                        node: self.name,
                        terminal,
                        key: format!("{k:?}"),
                    },
                    "set_stream_size on non-streaming terminal of {}",
                    self.name
                ),
            }
            if entry.all_complete() {
                Some(table.remove(&k).unwrap())
            } else {
                None
            }
        };
        match ready {
            Some(entry) => self.launch(rank, k, entry, ctx),
            None => Ok(()),
        }
    }

    /// Close an unbounded stream for `(k, terminal)` now.
    pub(crate) fn finalize_stream(
        &self,
        rank: usize,
        terminal: usize,
        k: K,
        ctx: &Arc<RuntimeCtx>,
    ) -> Result<(), WireError> {
        let ready = {
            let mut table = self.table(rank, &k).lock();
            let Some(entry) = table.get_mut(&k) else {
                misuse!(
                    ctx,
                    Violation::FinalizeUnknownKey {
                        node: self.name,
                        terminal,
                        key: format!("{k:?}"),
                    },
                    "finalize on {} for unknown key {:?} (no messages received)",
                    self.name,
                    k
                )
            };
            match entry.slots.get_mut(terminal) {
                SlotE::Stream { finalized, .. } => {
                    #[cfg(feature = "checked")]
                    if *finalized {
                        ctx.sanitizer.record(Violation::DoubleFinalize {
                            node: self.name,
                            terminal,
                            key: format!("{k:?}"),
                        });
                        return Ok(());
                    }
                    *finalized = true;
                }
                _ => misuse!(
                    ctx,
                    Violation::FinalizeNonStream {
                        node: self.name,
                        terminal,
                        key: format!("{k:?}"),
                    },
                    "finalize on non-streaming terminal of {}",
                    self.name
                ),
            }
            if entry.all_complete() {
                Some(table.remove(&k).unwrap())
            } else {
                None
            }
        };
        match ready {
            Some(entry) => self.launch(rank, k, entry, ctx),
            None => Ok(()),
        }
    }
}
