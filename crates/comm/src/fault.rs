//! Seeded, deterministic fault injection for the fabric.
//!
//! A [`FaultPlan`] describes how the simulated network misbehaves: per-link
//! probabilities of dropping, duplicating, delaying, or reordering packets,
//! plus targeted kill scripts ("rank `r` stops communicating after its
//! `n`-th packet"). Installing a plan on a [`Fabric`](crate::Fabric) also
//! activates the reliable-delivery layer (sequence numbers, acks,
//! retransmission with exponential backoff — see [`crate::reliable`]), so
//! applications keep exactly-once *logical* delivery while every physical
//! packet is at the mercy of the plan.
//!
//! Decisions are **stateless and deterministic**: each one is a pure hash
//! of `(seed, salt, link, seq, attempt)`, so a given packet identity always
//! suffers the same fate regardless of thread interleaving, and re-running
//! with the same seed reproduces the same fault pattern.
//!
//! Binaries opt in with a single flag parsed by [`FaultPlan::from_args`]:
//!
//! ```text
//! cholesky --faults seed=42,drop=0.05,dup=0.02,reorder=0.05
//! ```

use std::time::Duration;

use crate::links::Rank;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decision salts: every fault class rolls its own independent stream.
pub(crate) mod salt {
    /// Drop the physical packet.
    pub(crate) const DROP: u64 = 1;
    /// Duplicate the physical packet.
    pub(crate) const DUP: u64 = 2;
    /// Hold the packet for a long delay.
    pub(crate) const DELAY: u64 = 3;
    /// Hold the packet briefly so later packets overtake it.
    pub(crate) const REORDER: u64 = 4;
    /// Lose the acknowledgement (forces a spurious retransmit).
    pub(crate) const ACK: u64 = 5;
    /// Magnitude of an injected delay.
    pub(crate) const DELAY_LEN: u64 = 6;
}

/// Kill script: rank `rank` stops communicating (all packets to and from it
/// are silently dropped) once it has received `after_packets` sequenced
/// fabric packets — the simulation of a process death mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillScript {
    /// Rank to kill.
    pub rank: Rank,
    /// Sequenced packets the rank receives before dying.
    pub after_packets: u64,
}

/// Retransmission policy of the reliable-delivery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff unit: attempt `k` waits `base · 2^k` ([`backoff`](Self::backoff)),
    /// so the first retransmission comes `2 · base` after the send.
    pub base: Duration,
    /// Per-attempt backoff ceiling.
    pub cap: Duration,
    /// Retransmissions before the packet is abandoned and reported as a
    /// [`CommError`](crate::CommError) (retry-budget exhaustion).
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_micros(300),
            cap: Duration::from_millis(20),
            max_retries: 12,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retransmission attempt `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = attempt.min(20);
        self.base
            .saturating_mul(1u32 << exp.min(16))
            .min(self.cap)
            .max(self.base)
    }
}

/// A deterministic description of network chaos for one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of every decision hash.
    pub seed: u64,
    /// Per-packet probability of being dropped.
    pub drop: f64,
    /// Per-packet probability of being duplicated.
    pub dup: f64,
    /// Per-packet probability of a short hold that lets later packets
    /// overtake it (reordering).
    pub reorder: f64,
    /// Per-packet probability of a long delivery delay.
    pub delay: f64,
    /// Range of the long delay, microseconds (inclusive bounds).
    pub(crate) delay_us: (u64, u64),
    /// Targeted rank deaths.
    pub kills: Vec<KillScript>,
    /// Retransmission policy for the reliable layer.
    pub(crate) retry: RetryPolicy,
    /// How long the oldest seq of a pending ack batch waits before the
    /// batch is sent, by the receiving thread or the progress thread.
    pub(crate) ack_flush: Duration,
    /// Coordinated rollback: `Some(n)` takes a global cut of every rank
    /// once some rank has accepted `n` packets since the last one and,
    /// when a kill script fires, rolls every rank back to the last cut
    /// instead of reporting retry-budget exhaustion (DESIGN §13). `None`
    /// (the default) keeps the fail-and-report behavior.
    pub(crate) recover: Option<u64>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults: enables the reliable
    /// layer (sequence numbers, acks) over a perfect network.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            dup: 0.0,
            reorder: 0.0,
            delay: 0.0,
            delay_us: (200, 800),
            kills: Vec::new(),
            retry: RetryPolicy::default(),
            ack_flush: Duration::from_micros(100),
            recover: None,
        }
    }

    /// Set the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Set the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Set the long-delay probability.
    pub fn with_delay(mut self, p: f64) -> Self {
        self.delay = p;
        self
    }

    /// Add a kill script.
    pub fn with_kill(mut self, rank: Rank, after_packets: u64) -> Self {
        self.kills.push(KillScript {
            rank,
            after_packets,
        });
        self
    }

    /// Set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the batched-ack flush timer.
    #[cfg(test)]
    pub(crate) fn with_ack_flush(mut self, flush: Duration) -> Self {
        self.ack_flush = flush;
        self
    }

    /// Enable coordinated rollback, with a global cut once some rank has
    /// accepted `every_packets` packets since the last one.
    pub fn with_recovery(mut self, every_packets: u64) -> Self {
        self.recover = Some(every_packets.max(1));
        self
    }

    /// Whether the plan turns coordinated rollback on
    /// ([`FaultPlan::with_recovery`]).
    pub fn recovers(&self) -> bool {
        self.recover.is_some()
    }

    /// Whether the plan's only faults are targeted kills — no
    /// probabilistic link faults. Remote (multi-process) mode accepts
    /// exactly this shape: a real OS process can be killed and respawned,
    /// but per-packet dice have no consistent meaning across a socket the
    /// kernel already delivers reliably.
    pub fn is_kill_only(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.reorder == 0.0 && self.delay == 0.0
    }

    /// What a multi-process rank `me` takes from the plan: the received
    /// packet count after which it kills itself, if a script names it (the
    /// launcher's watchdog then recovers the job). Any other shape is
    /// refused with the reason: dice need the ack/dedup state only ranks of
    /// one process share, and nobody could recover the death of rank 0,
    /// which coordinates the barrier and termination protocols.
    pub(crate) fn remote_kill_after(&self, me: Rank) -> Result<Option<u64>, String> {
        if !self.is_kill_only() {
            return Err("probabilistic fault injection (drop/dup/reorder/delay) \
                        requires an in-process transport (inproc/tcp/uds); \
                        multi-process ranks share no ack/dedup state — \
                        remote mode accepts kill=r@n scripts only"
                .into());
        }
        if self.kills.iter().any(|k| k.rank == 0) {
            return Err("kill=0 is not recoverable in remote mode: rank 0 \
                        coordinates the barrier and termination protocols"
                .into());
        }
        let mine = self.kills.iter().filter(|k| k.rank == me);
        Ok(mine.map(|k| k.after_packets).min())
    }

    /// A uniform draw in `[0, 1)`, fully determined by the plan seed and
    /// the packet identity `(salt, link, seq, attempt)`.
    pub(crate) fn roll(&self, salt: u64, link: u64, seq: u64, attempt: u32) -> f64 {
        let h = mix(self.seed ^ mix(salt ^ mix(link ^ mix(seq ^ u64::from(attempt)))));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Draw a delay duration for a packet held by the long-delay fault.
    pub(crate) fn delay_for(&self, link: u64, seq: u64, attempt: u32) -> Duration {
        let (lo, hi) = self.delay_us;
        let span = hi.saturating_sub(lo).max(1);
        let r = self.roll(salt::DELAY_LEN, link, seq, attempt);
        Duration::from_micros(lo + (r * span as f64) as u64)
    }

    /// Parse a `key=value` comma list, e.g.
    /// `seed=42,drop=0.05,dup=0.02,reorder=0.05,delay=0.01,kill=1@200,retries=8,rto_us=300`.
    ///
    /// Unknown keys are an error; every key is optional (an empty spec is a
    /// faultless reliable plan with seed 0).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::seeded(0);
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("fault spec field `{field}` is not key=value"))?;
            let (k, v) = (k.trim(), v.trim());
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = num("probability", v)?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault spec: probability {p} outside [0,1]"));
                }
                Ok(p)
            };
            match k {
                "seed" => plan.seed = num("seed", v)?,
                "drop" => plan.drop = prob(v)?,
                "dup" => plan.dup = prob(v)?,
                "reorder" => plan.reorder = prob(v)?,
                "delay" => plan.delay = prob(v)?,
                "kill" => {
                    let (r, n) = v
                        .split_once('@')
                        .ok_or_else(|| format!("fault spec: kill wants rank@packet, got `{v}`"))?;
                    plan = plan.with_kill(num("kill rank", r)?, num("kill packet count", n)?);
                }
                "retries" => plan.retry.max_retries = num("retries", v)?,
                "rto_us" => plan.retry.base = Duration::from_micros(num("rto_us", v)?),
                "recover" => plan = plan.with_recovery(num("recover interval", v)?),
                other => return Err(format!("fault spec: unknown key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// Scan the process arguments for `--faults <spec>` or `--faults=<spec>`
    /// and parse it. Returns `None` when the flag is absent; a malformed
    /// spec aborts with a message (a typo'd chaos run must not silently run
    /// fault-free).
    pub fn from_args() -> Option<FaultPlan> {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            let spec = if a == "--faults" {
                args.next()
            } else {
                a.strip_prefix("--faults=").map(str::to_string)
            };
            if let Some(spec) = spec {
                match FaultPlan::parse(&spec) {
                    Ok(plan) => return Some(plan),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
        None
    }
}

/// Parse one number of a fault spec, naming the key in the error.
fn num<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("fault spec: bad {what} `{v}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_distinct() {
        let plan = FaultPlan::seeded(42);
        let a = plan.roll(salt::DROP, 3, 17, 0);
        assert_eq!(a, plan.roll(salt::DROP, 3, 17, 0));
        // Different salt, link, seq, or attempt gives a different draw.
        assert_ne!(a, plan.roll(salt::DUP, 3, 17, 0));
        assert_ne!(a, plan.roll(salt::DROP, 4, 17, 0));
        assert_ne!(a, plan.roll(salt::DROP, 3, 18, 0));
        assert_ne!(a, plan.roll(salt::DROP, 3, 17, 1));
        // Different seed changes the whole stream.
        assert_ne!(a, FaultPlan::seeded(43).roll(salt::DROP, 3, 17, 0));
    }

    #[test]
    fn rolls_are_roughly_uniform() {
        let plan = FaultPlan::seeded(7);
        let n = 10_000;
        let hits = (0..n)
            .filter(|&i| plan.roll(salt::DROP, 0, i, 0) < 0.1)
            .count();
        // 10% ± generous slack.
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse(
            "seed=42,drop=0.05,dup=0.02,reorder=0.1,delay=0.01,kill=1@200,retries=8,rto_us=500",
        )
        .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.drop, 0.05);
        assert_eq!(p.dup, 0.02);
        assert_eq!(p.reorder, 0.1);
        assert_eq!(p.delay, 0.01);
        assert_eq!(
            p.kills,
            vec![KillScript {
                rank: 1,
                after_packets: 200
            }]
        );
        assert_eq!(p.retry.max_retries, 8);
        assert_eq!(p.retry.base, Duration::from_micros(500));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=2.0").is_err());
        assert!(FaultPlan::parse("banana=1").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("kill=3").is_err());
        // The one ack protocol has no selector: its old key is unknown.
        assert_eq!(
            FaultPlan::parse("acks=immediate"),
            Err("fault spec: unknown key `acks`".into())
        );
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let r = RetryPolicy {
            base: Duration::from_micros(100),
            cap: Duration::from_millis(2),
            max_retries: 10,
        };
        assert_eq!(r.backoff(1), Duration::from_micros(200));
        assert_eq!(r.backoff(2), Duration::from_micros(400));
        assert_eq!(r.backoff(3), Duration::from_micros(800));
        assert_eq!(r.backoff(10), Duration::from_millis(2));
    }
}
