//! Wire format of the active messages template tasks exchange, and the
//! sending half of the data message.
//!
//! Every AM opens with the common header
//!
//! ```text
//! | from_task u64 | type u8 | terminal u16 |
//! ```
//!
//! and is dispatched to the template task named by the fabric-level
//! handler id. The control messages address `terminal` of that task:
//! `MSG_SET_SIZE` continues `| key | n u64 |`, `MSG_FINALIZE` `| key |`.
//!
//! A **data** message carries one value to every consumer it has on the
//! destination rank — any number of task IDs on any number of `(node,
//! terminal)` pairs: the keys of one broadcast, the consumer ports of one
//! edge, and the output terminals of one [`fanout`](crate::prelude::Outs::fanout)
//! (Listing 1's `ttg::broadcast<0, 1, 2, 3>`) all share it, so a value
//! crosses a rank boundary once.
//!
//! ```text
//! | header | src_rank u64 | [region u64 | owner u64] | nkeys u32 | groups_len u32 | groups | value |
//! group:  | node u32 | terminal u16 | n u32 | n keys |
//! ```
//!
//! The header's `terminal` names the terminal whose codec decodes the value
//! (the first group's; the handler is that group's node) and `nkeys` is the
//! consumer count over all groups. `MSG_DATA_INLINE` ends in the value's
//! archive encoding. `MSG_DATA_SPLITMD` carries the bracketed pair and ends
//! in the value's metadata; the receiver reads the payload one-sidedly out
//! of `region` on rank `owner` — which takes an owner in the receiver's
//! address space, so the sender chooses it only there (`AmPlan::send`).
//! The region is the sent value itself where that is a shared handle
//! (`Arc<T>`), else one copy of it: either way the receiver's attach is the
//! payload's only other copy.

use std::any::{Any, TypeId};
use std::sync::Arc;

use ttg_comm::{RegionBytes, WireError, WireKind, WriteBuf};

use crate::ctx::RuntimeCtx;
use crate::node::InputMeta;
use crate::types::{Data, ErasedVal, Key, LocalPass};

/// AM message type: inline (archive/trivial) data.
pub const MSG_DATA_INLINE: u8 = 0;
/// AM message type: split-metadata data (payload via RMA).
pub const MSG_DATA_SPLITMD: u8 = 1;
/// AM message type: set the expected stream size for a key.
pub const MSG_SET_SIZE: u8 = 2;
/// AM message type: finalize an unbounded stream for a key.
pub const MSG_FINALIZE: u8 = 3;

/// Bytes of an inline data AM ahead of its groups; a splitmd one has the
/// 16-byte region pair on top.
const DATA_HEAD: usize = 11 + 8 + 4 + 4;

/// Encode the common AM header.
pub fn am_header(b: &mut WriteBuf, from_task: u64, msg_type: u8, terminal: u16) {
    b.put_u64(from_task);
    b.put_u8(msg_type);
    b.put_u16(terminal);
}

/// Whether values of type `V` travel by the two-stage split-metadata
/// protocol: the type and the backend opt in, and there is a one-sided read
/// to fetch the payload with — every rank's region table is in this address
/// space. Between OS processes there is none, and the value rides inside
/// its AM at any size (DESIGN §9). Under a recovery plan it rides inside
/// its AM too: a global cut holds the AMs in flight, not the region table
/// (DESIGN §13).
fn two_stage<V: Data>(ctx: &RuntimeCtx) -> bool {
    V::KIND == WireKind::SplitMd
        && ctx.backend.supports_splitmd
        && ctx.fabric.local_rank().is_none()
        && !ctx.fabric.recovering()
}

/// One data AM in the making: the groups bound for one rank.
struct PlannedAm {
    dest: usize,
    /// Node and terminal of the first group.
    handler: u32,
    terminal: u16,
    nkeys: u32,
    groups: WriteBuf,
    /// The group keys are being appended to, where its count sits in
    /// `groups`, and the count so far.
    open: (u32, u16),
    count_at: usize,
    count: u32,
}

/// The remote half of one send: which `(node, terminal, keys)` groups the
/// value is bound for on which rank. Consumer ports [`add`](Self::add)
/// their keys — every port of an edge, every terminal of a fan-out — and
/// [`send`](Self::send) ships one AM per destination rank.
pub(crate) struct AmPlan {
    ams: Vec<PlannedAm>,
    /// `slot_of[rank]` is the rank's index in `ams`; sized on first use,
    /// so a send that stays on its rank allocates nothing.
    slot_of: Vec<u32>,
    keys: usize,
    two_stage: bool,
    /// One AM per rank. Off only for the naive-broadcast ablation, which
    /// serializes and sends once per key.
    merge: bool,
}

impl AmPlan {
    /// An empty plan for a value of type `V`.
    pub(crate) fn new<V: Data>(ctx: &RuntimeCtx) -> Self {
        let two_stage = two_stage::<V>(ctx);
        AmPlan {
            ams: Vec::new(),
            slot_of: Vec::new(),
            keys: 0,
            two_stage,
            merge: two_stage || ctx.backend.optimized_broadcast,
        }
    }

    /// Bind the value for task `k` on `terminal` of `node`, owned by `dest`.
    pub(crate) fn add<K: Key>(
        &mut self,
        dest: usize,
        n_ranks: usize,
        node: u32,
        terminal: u16,
        k: &K,
    ) {
        self.keys += 1;
        let at = if self.merge {
            if self.slot_of.is_empty() {
                self.slot_of = vec![u32::MAX; n_ranks];
            }
            if self.slot_of[dest] == u32::MAX {
                self.slot_of[dest] = self.ams.len() as u32;
            }
            self.slot_of[dest] as usize
        } else {
            self.ams.len()
        };
        if at == self.ams.len() {
            self.ams.push(PlannedAm {
                dest,
                handler: node,
                terminal,
                nkeys: 0,
                groups: WriteBuf::new(),
                open: (node, terminal),
                count_at: 0,
                count: 0,
            });
        }
        let am = &mut self.ams[at];
        if am.count == 0 || am.open != (node, terminal) {
            am.open = (node, terminal);
            am.groups.put_u32(node);
            am.groups.put_u16(terminal);
            am.count_at = am.groups.len();
            am.count = 0;
            am.groups.put_u32(0);
        }
        am.count += 1;
        am.groups.set_u32(am.count_at, am.count);
        am.nkeys += 1;
        k.encode(&mut am.groups);
    }

    /// Ship `v` to every planned rank: serialized once, one AM per rank.
    ///
    /// Two-stage (see [`two_stage`]): the contiguous payload is registered
    /// once as a region that every destination rank reads, and the AMs
    /// carry metadata. The region of a shared handle is the value's own
    /// memory; any other value's is one copy, counted as a serialization.
    /// A value with no in-place payload travels inline. Otherwise the
    /// value's encoding rides in the AM —
    /// written straight into the one AM's pooled buffer when there is a
    /// single destination, copied from one encoding when there are more.
    /// An AM to `src_rank` itself (loopback under recovery, where even
    /// local sends are sequenced and every AM is inline) is always inline.
    /// `wire_from` is the fabric sender: `src_rank`, or for an external
    /// seed (inline, as loopback) the out-of-fabric sentinel, whose sends a
    /// rollback re-arms.
    pub(crate) fn send<V: Data>(
        &mut self,
        v: &V,
        from_task: u64,
        src_rank: usize,
        wire_from: usize,
        ctx: &Arc<RuntimeCtx>,
    ) {
        if self.ams.is_empty() {
            return;
        }
        let fabric = &ctx.fabric;
        self.slot_of.clear();
        let sends_saved = (std::mem::take(&mut self.keys) - self.ams.len()) as u64;
        let n_remote = self.ams.iter().filter(|am| am.dest != src_rank).count();
        let payload = if self.two_stage && n_remote > 0 {
            v.split_share().or_else(|| {
                let bytes = v.split_bytes()?;
                fabric.stats().serializations.inc();
                Some(RegionBytes::copy_of(bytes))
            })
        } else {
            None
        };
        let n_split = if payload.is_some() { n_remote } else { 0 };
        let payload_len = payload.as_ref().map_or(0, |p| p.len());
        let region = payload.map(|p| fabric.register_region(src_rank, p, n_split, None));
        let n_inline = self.ams.len() - n_split;
        let encoded = (n_inline > 1 && self.merge).then(|| {
            fabric.stats().serializations.inc();
            ttg_comm::to_bytes(v)
        });
        let inline_len = match &encoded {
            Some(bytes) => bytes.len(),
            None if n_inline > 0 => v.wire_size(),
            None => 0,
        };
        for am in self.ams.drain(..) {
            let region = region.filter(|_| am.dest != src_rank);
            // A two-stage AM ends in metadata: the region pair plus a
            // shape's worth of bytes.
            let tail = if region.is_some() { 32 } else { inline_len };
            let mut b = WriteBuf::pooled(DATA_HEAD + am.groups.len() + tail);
            let msg_type = if region.is_some() {
                MSG_DATA_SPLITMD
            } else {
                MSG_DATA_INLINE
            };
            am_header(&mut b, from_task, msg_type, am.terminal);
            b.put_u64(src_rank as u64);
            if let Some(region) = region {
                b.put_u64(region);
                b.put_u64(src_rank as u64);
            }
            b.put_u32(am.nkeys);
            b.put_u32(am.groups.len() as u32);
            b.put_bytes(am.groups.as_slice());
            match (region, &encoded) {
                (Some(_), _) => v.split_encode_md(&mut b),
                (None, Some(bytes)) => b.put_bytes(bytes),
                (None, None) => {
                    fabric.stats().serializations.inc();
                    v.encode(&mut b);
                }
            }
            if let Err(e) = fabric.send_am(wire_from, am.dest, am.handler, b.into_vec()) {
                fabric.record_error(e.into());
            }
        }
        if sends_saved > 0 {
            let unit = if n_split > 0 { payload_len } else { inline_len };
            fabric
                .stats()
                .count_broadcast_dedup(sends_saved, sends_saved * unit as u64);
        }
    }
}

/// The one decoded value of a data AM on its way to every consumer the
/// AM's groups name.
pub struct Arrival {
    val: ArrivalVal,
    pub(crate) value_type: TypeId,
}

enum ArrivalVal {
    /// Share local-pass and several consumers: they alias one allocation
    /// instead of each getting a deep copy.
    Shared(Arc<dyn Any + Send + Sync>),
    /// One consumer, or Copy local-pass: a clone for each of the `left`
    /// consumers but the last, which takes the value itself.
    Owned(Option<Box<dyn Any + Send>>, usize),
}

impl Arrival {
    pub(crate) fn new(
        val: Box<dyn Any + Send>,
        consumers: usize,
        meta: &InputMeta,
        rank: usize,
        ctx: &RuntimeCtx,
    ) -> Self {
        let val = if consumers > 1 && ctx.backend.local_pass == LocalPass::Share {
            ctx.metrics.values_shared[rank].inc();
            ArrivalVal::Shared((meta.to_shared)(val))
        } else {
            ArrivalVal::Owned(Some(val), consumers)
        };
        Arrival {
            val,
            value_type: meta.value_type,
        }
    }

    /// The value for the next consumer, a terminal described by `meta`.
    pub(crate) fn next(
        &mut self,
        meta: &InputMeta,
        rank: usize,
        ctx: &RuntimeCtx,
    ) -> Result<ErasedVal, WireError> {
        match &mut self.val {
            ArrivalVal::Shared(arc) => {
                ctx.metrics.local_shared[rank].inc();
                Ok(ErasedVal::Shared(Arc::clone(arc)))
            }
            ArrivalVal::Owned(val, left) => {
                let next = match *left {
                    0 => None,
                    1 => val.take(),
                    _ => val.as_deref().map(|v| (meta.clone_boxed)(v)),
                };
                *left = left.saturating_sub(1);
                next.map(ErasedVal::Owned)
                    .ok_or_else(|| WireError::new("more keys than the message announced"))
            }
        }
    }
}
