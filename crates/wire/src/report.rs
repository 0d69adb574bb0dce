//! The per-worker teardown report carried in an `EXIT` frame.
//!
//! Counters a distributed transport cannot observe remotely (another
//! process's traffic, its fault-plane statistics, its captured console
//! lines) are authoritative only inside the worker that owns them. At
//! teardown each worker serializes its view into a [`WorkerReport`];
//! the launcher aggregates the `n` reports into the same `RunReport`
//! shape the in-process machine produces.

use converse_msg::pack::{PackError, Packer, Unpacker};
use converse_net::{FaultStats, PeTraffic};

/// One worker's authoritative end-of-run counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// The worker's PE rank.
    pub rank: usize,
    /// The rank's traffic counters, as its endpoint's local half keeps
    /// them (sends that left over the wire are counted there too).
    pub traffic: PeTraffic,
    /// The worker's fault-plane and reliability counters.
    pub faults: FaultStats,
    /// Captured `cmi_printf` lines (empty unless capture was on).
    pub output: Vec<String>,
}

impl WorkerReport {
    /// Serialize for the `EXIT` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Packer::new()
            .usize(self.rank)
            .u64(self.traffic.msgs_sent)
            .u64(self.traffic.bytes_sent)
            .u64(self.traffic.msgs_recv)
            .u64(self.traffic.msgs_injected)
            .u64(self.traffic.bytes_injected)
            .u64(self.faults.transmissions)
            .u64(self.faults.dropped)
            .u64(self.faults.duplicated)
            .u64(self.faults.delayed)
            .u64(self.faults.retransmitted)
            .u64(self.faults.dedup_dropped)
            .u64(self.faults.superseded)
            .u32(self.output.len() as u32);
        for line in &self.output {
            p = p.str(line);
        }
        p.finish()
    }

    /// Parse an `EXIT` frame payload.
    pub fn decode(bytes: &[u8]) -> Result<WorkerReport, PackError> {
        let mut u = Unpacker::new(bytes);
        let rank = u.usize()?;
        let traffic = PeTraffic {
            msgs_sent: u.u64()?,
            bytes_sent: u.u64()?,
            msgs_recv: u.u64()?,
            msgs_injected: u.u64()?,
            bytes_injected: u.u64()?,
        };
        let faults = FaultStats {
            transmissions: u.u64()?,
            dropped: u.u64()?,
            duplicated: u.u64()?,
            delayed: u.u64()?,
            retransmitted: u.u64()?,
            dedup_dropped: u.u64()?,
            superseded: u.u64()?,
        };
        let n = u.u32()? as usize;
        // `n` is the peer's word: reserve only what the bytes that
        // actually arrived can hold (a line is at least its 4-byte
        // length prefix), not 24 bytes × whatever it claims.
        let mut output = Vec::with_capacity(n.min(u.remaining() / 4));
        for _ in 0..n {
            output.push(u.str()?);
        }
        Ok(WorkerReport {
            rank,
            traffic,
            faults,
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let r = WorkerReport {
            rank: 3,
            traffic: PeTraffic {
                msgs_sent: 10,
                bytes_sent: 1024,
                msgs_recv: 9,
                msgs_injected: 1,
                bytes_injected: 16,
            },
            faults: FaultStats {
                transmissions: 14,
                dropped: 2,
                duplicated: 1,
                delayed: 1,
                retransmitted: 2,
                dedup_dropped: 3,
                superseded: 4,
            },
            output: vec!["PE 3 done".into(), "".into()],
        };
        assert_eq!(WorkerReport::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn truncated_or_overcounted_reports_are_errors_not_reservations() {
        let r = WorkerReport {
            output: vec!["a line".into(), "".into(), "another".into()],
            ..WorkerReport::default()
        };
        let bytes = r.encode();
        for len in 0..bytes.len() {
            assert!(
                WorkerReport::decode(&bytes[..len]).is_err(),
                "a report cut at {len} of {} bytes decoded",
                bytes.len()
            );
        }
        // Four bytes of count from the worker must not size a
        // reservation: `u32::MAX` lines would be ~100 GB of `String`
        // headers, an allocation failure (abort) before the first line
        // is read.
        let count_at = bytes.len() - r.output.iter().map(|l| 4 + l.len()).sum::<usize>() - 4;
        assert_eq!(bytes[count_at..count_at + 4], 3u32.to_le_bytes());
        let mut lying = bytes.clone();
        lying[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(WorkerReport::decode(&lying).is_err());
    }

    #[test]
    fn empty_report_round_trips() {
        let r = WorkerReport::default();
        assert_eq!(WorkerReport::decode(&r.encode()).unwrap(), r);
    }
}
