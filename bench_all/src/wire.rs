//! Two ranks of a raw `Fabric` with an echo thread on rank 1: the body of
//! the `wire_*` workloads and of the round-trip probes.

use std::sync::Arc;

use ttg_comm::{pool, Fabric, FaultPlan, Packet, StatsSnapshot, TransportSpec};

/// Handler id of the benchmark's messages (any value: the raw fabric does
/// not dispatch).
const HANDLER: u32 = 7;

/// What rank 1 does with a message.
#[derive(Clone, Copy, PartialEq)]
pub enum EchoMode {
    /// Send every message back (ping/pong).
    Each,
    /// Fold every message into a count and checksum and answer only the
    /// last one (bytes 8..16 of every message carry the total) with those
    /// two words.
    Last,
}

pub struct EchoPair {
    fabric: Arc<Fabric>,
    /// Rank 0's receive side (the channel type is private to the fabric).
    recv0: Box<dyn FnMut() -> Option<Packet>>,
    echo: Option<std::thread::JoinHandle<()>>,
}

/// Cheap per-message checksum: the length plus words sampled across the
/// body (a full pass would make the receiver memory-bound on verification
/// instead of on the wire).
pub fn sample_sum(payload: &[u8]) -> u64 {
    let stride = (payload.len() / 8).max(8) & !7;
    (0..payload.len())
        .step_by(stride)
        .filter(|at| at + 8 <= payload.len())
        .map(|at| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes")))
        .fold(payload.len() as u64, u64::wrapping_add)
}

impl EchoPair {
    pub fn new(
        spec: &TransportSpec,
        plan: Option<FaultPlan>,
        mode: EchoMode,
    ) -> Result<EchoPair, String> {
        let fabric = Fabric::with_transport(2, plan, spec).map_err(|e| format!("fabric: {e}"))?;
        let rx0 = fabric.take_receiver(0);
        let rx1 = fabric.take_receiver(1);
        let f = Arc::clone(&fabric);
        let echo = std::thread::Builder::new()
            .name("wire-echo".into())
            .spawn(move || {
                let (mut count, mut sum) = (0u64, 0u64);
                while let Ok(Packet::Am {
                    from, seq, payload, ..
                }) = rx1.recv()
                {
                    if !f.rx_accept(1, from, seq) {
                        pool::recycle(payload);
                        continue;
                    }
                    f.packet_processed();
                    // Replies run the pooled buffer lifecycle the executor
                    // uses: recycle the consumed payload, acquire the reply.
                    let reply = match mode {
                        EchoMode::Each => {
                            let mut r = pool::acquire(payload.len());
                            r.extend_from_slice(&payload);
                            pool::recycle(payload);
                            r
                        }
                        EchoMode::Last => {
                            count += 1;
                            sum = sum.wrapping_add(sample_sum(&payload));
                            let total = payload
                                .get(8..16)
                                .map_or(0, |w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
                            pool::recycle(payload);
                            if count < total {
                                continue;
                            }
                            let mut r = pool::acquire(16);
                            r.extend_from_slice(&count.to_le_bytes());
                            r.extend_from_slice(&sum.to_le_bytes());
                            (count, sum) = (0, 0);
                            r
                        }
                    };
                    // A send refused during teardown is expected.
                    let _ = f.send_am(1, 0, HANDLER, reply);
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(EchoPair {
            fabric,
            recv0: Box::new(move || rx0.recv().ok()),
            echo: Some(echo),
        })
    }

    /// Send `payload` from rank 0 to rank 1.
    pub fn send(&self, payload: Vec<u8>) -> Result<(), String> {
        self.fabric
            .send_am(0, 1, HANDLER, payload)
            .map_err(|e| format!("send refused: {e}"))
    }

    /// Next fresh delivery at rank 0 (duplicates are dropped here, as the
    /// executor's comm thread does).
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        loop {
            match (self.recv0)() {
                Some(Packet::Am {
                    from, seq, payload, ..
                }) => {
                    if self.fabric.rx_accept(0, from, seq) {
                        self.fabric.packet_processed();
                        return Ok(payload);
                    }
                    pool::recycle(payload);
                }
                _ => return Err("rank 0 receive channel closed".into()),
            }
        }
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.fabric.stats().snapshot()
    }

    /// First communication error the fabric recorded since the last call.
    pub fn first_error(&self) -> Option<String> {
        self.fabric
            .take_errors()
            .first()
            .map(|e| format!("comm error: {e}"))
    }
}

impl Drop for EchoPair {
    fn drop(&mut self) {
        self.fabric.shutdown_all();
        if let Some(t) = self.echo.take() {
            let _ = t.join();
        }
    }
}
