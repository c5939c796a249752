//! Structured communication failures: what a send, a one-sided fetch or a
//! whole execution reports instead of panicking or hanging (DESIGN §8).

use crate::links::Rank;
use crate::rma::RegionId;

/// Why a send could not be handed to the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendError {
    /// Sending rank (may be the external-seed sentinel).
    pub(crate) from: Rank,
    /// Destination rank whose channel is gone.
    pub(crate) to: Rank,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fabric channel to rank {} closed (send from rank {})",
            self.to, self.from
        )
    }
}

impl std::error::Error for SendError {}

/// Why a one-sided fetch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmaError {
    /// The region id is not registered on the owner (already fully
    /// released and evicted from the idempotency cache, or never existed).
    UnknownRegion {
        /// Fetching rank.
        caller: Rank,
        /// Alleged owner.
        owner: Rank,
        /// The unknown region id.
        id: RegionId,
    },
    /// The named owner's region table is not in this address space: a
    /// rank of another process (which no one-sided read reaches — values
    /// cross processes inside their AM), or no rank of the job at all.
    ForeignOwner {
        /// Fetching rank.
        caller: Rank,
        /// The owner the metadata named.
        owner: Rank,
        /// The region id being fetched.
        id: RegionId,
    },
}

impl std::fmt::Display for RmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmaError::UnknownRegion { caller, owner, id } => write!(
                f,
                "rma_get of unknown region {id} on rank {owner} (caller rank {caller})"
            ),
            RmaError::ForeignOwner { caller, owner, id } => write!(
                f,
                "rma_get of region {id}: its owner, rank {owner}, is not hosted in \
                 this process (caller rank {caller})"
            ),
        }
    }
}

impl std::error::Error for RmaError {}

/// Classification of a structured communication failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommErrorKind {
    /// A logical packet was abandoned after exhausting its retransmission
    /// budget (dead link / dead rank).
    RetryBudgetExhausted,
    /// A send hit a closed per-rank channel (destination shut down).
    ChannelClosed,
    /// An active message arrived but its delivery failed (decode error,
    /// missing region, handler fault).
    DeliveryFailed,
    /// A one-sided fetch named a region the owner does not hold.
    UnknownRegion,
    /// The execution did not reach quiescence within its delivery
    /// deadline.
    DeadlineMissed,
    /// The link layer failed: connect refused, peer reset, handshake
    /// mismatch, or framing garbage (socket transports only).
    TransportFailure,
    /// A kill rolled every rank back to the last global cut; names the
    /// killed rank (informational: recorded in the recovery log, not the
    /// error sink).
    RankRecovered,
    /// A periodic global cut could not be captured or persisted; the
    /// previous cut remains the rollback point.
    SnapshotFailed,
    /// A rollback could not load or decode the last cut, and the run ends;
    /// or the in-flight ledger refused a settle past a link's issued count.
    RecoveryFailed,
}

impl CommErrorKind {
    /// Stable diagnostic code (rendered by `ttg-check`, DESIGN §8).
    pub(crate) fn code(&self) -> &'static str {
        match self {
            CommErrorKind::RetryBudgetExhausted => "TTG040",
            CommErrorKind::DeadlineMissed => "TTG041",
            CommErrorKind::ChannelClosed => "TTG042",
            CommErrorKind::DeliveryFailed => "TTG043",
            CommErrorKind::UnknownRegion => "TTG044",
            CommErrorKind::TransportFailure => "TTG045",
            CommErrorKind::RankRecovered => "TTG046",
            CommErrorKind::SnapshotFailed => "TTG047",
            CommErrorKind::RecoveryFailed => "TTG048",
        }
    }
}

/// A structured communication failure, recorded in the fabric's error sink
/// instead of panicking, and surfaced through execution reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommError {
    /// What went wrong.
    pub kind: CommErrorKind,
    /// Sending rank, when known.
    pub from: Option<Rank>,
    /// Destination rank, when known.
    pub to: Option<Rank>,
    /// Destination handler (template-task id), when known.
    pub handler: Option<u32>,
    /// Link sequence number, when known.
    pub(crate) seq: Option<u64>,
    /// Human-readable context.
    pub detail: String,
}

impl CommError {
    /// A failure of `kind` that names no link, handler or sequence number
    /// yet; the setters below add what the reporting site knows.
    pub fn new(kind: CommErrorKind, detail: impl Into<String>) -> Self {
        CommError {
            kind,
            from: None,
            to: None,
            handler: None,
            seq: None,
            detail: detail.into(),
        }
    }

    /// Name the link (`None` for an end the site does not know; a failure
    /// on a rank rather than a link passes `None` as `from`).
    pub fn link(mut self, from: impl Into<Option<Rank>>, to: impl Into<Option<Rank>>) -> Self {
        self.from = from.into();
        self.to = to.into();
        self
    }

    /// Name the destination handler.
    pub fn handler(mut self, handler: impl Into<Option<u32>>) -> Self {
        self.handler = handler.into();
        self
    }

    /// Name the link sequence number (or, for an RMA failure, the region).
    pub fn seq(mut self, seq: impl Into<Option<u64>>) -> Self {
        self.seq = seq.into();
        self
    }

    /// Stable diagnostic code of this error's kind.
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {:?}", self.code(), self.kind)?;
        if let (Some(from), Some(to)) = (self.from, self.to) {
            write!(f, " on link {from}->{to}")?;
        } else if let Some(to) = self.to {
            write!(f, " on rank {to}")?;
        }
        if let Some(seq) = self.seq {
            write!(f, " seq {seq}")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

impl From<SendError> for CommError {
    fn from(e: SendError) -> Self {
        CommError::new(CommErrorKind::ChannelClosed, e.to_string()).link(e.from, e.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setters_fill_what_the_site_knows_and_display_follows() {
        let e = CommError::new(CommErrorKind::RetryBudgetExhausted, "gave up")
            .link(0, 3)
            .handler(7)
            .seq(42);
        assert_eq!(
            (e.from, e.to, e.handler, e.seq),
            (Some(0), Some(3), Some(7), Some(42))
        );
        assert_eq!(
            e.to_string(),
            "TTG040: RetryBudgetExhausted on link 0->3 seq 42: gave up"
        );
        let on_rank = CommError::new(CommErrorKind::SnapshotFailed, "disk full").link(None, 2);
        assert_eq!(
            on_rank.to_string(),
            "TTG047: SnapshotFailed on rank 2: disk full"
        );
        assert_eq!(
            CommError::from(SendError { from: 1, to: 0 }).code(),
            "TTG042"
        );
    }
}
