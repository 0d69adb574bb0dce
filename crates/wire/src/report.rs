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

    /// Parse an `EXIT` frame payload: exactly what [`Self::encode`]
    /// writes. Bytes past the last line, or a line that is not UTF-8,
    /// are a `PackError` whose `needed` is 0.
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
        let malformed = |u: &Unpacker| PackError {
            needed: 0,
            remaining: u.remaining(),
        };
        for _ in 0..n {
            let line = u.bytes()?.to_vec();
            output.push(String::from_utf8(line).map_err(|_| malformed(&u))?);
        }
        if u.remaining() > 0 {
            return Err(malformed(&u));
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
    use proptest::prelude::*;

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

    #[test]
    fn trailing_bytes_and_non_utf8_lines_are_errors() {
        let r = WorkerReport {
            output: vec!["ok".into()],
            ..WorkerReport::default()
        };
        let mut long = r.encode();
        long.push(0);
        assert!(WorkerReport::decode(&long).is_err());
        let mut bad = r.encode();
        *bad.last_mut().unwrap() = 0xFF;
        assert!(WorkerReport::decode(&bad).is_err());
    }

    /// Cut the tail of `body`, change one byte or append one.
    fn edit(mut body: Vec<u8>, (how, at, x): (u8, usize, u8)) -> Vec<u8> {
        match how {
            0 => body.truncate(at % body.len()),
            1 => {
                let i = at % body.len();
                body[i] ^= x;
            }
            _ => body.push(x),
        }
        body
    }

    fn report() -> impl Strategy<Value = WorkerReport> {
        let words = collection::vec(any::<u64>(), 12);
        let lines = collection::vec(collection::vec(any::<u8>(), 0..8), 0..4);
        (any::<u32>(), words, lines).prop_map(|(rank, w, lines)| WorkerReport {
            rank: rank as usize,
            traffic: PeTraffic {
                msgs_sent: w[0],
                bytes_sent: w[1],
                msgs_recv: w[2],
                msgs_injected: w[3],
                bytes_injected: w[4],
            },
            faults: FaultStats {
                transmissions: w[5],
                dropped: w[6],
                duplicated: w[7],
                delayed: w[8],
                retransmitted: w[9],
                dedup_dropped: w[10],
                superseded: w[11],
            },
            output: lines
                .iter()
                .map(|l| String::from_utf8_lossy(l).into_owned())
                .collect(),
        })
    }

    proptest! {
        /// A report round-trips. Its encoding edited, or any 256 bytes,
        /// decode to a report or an error without panicking; a report
        /// they yield re-encodes to the same bytes.
        #[test]
        fn report_decoding_is_total_and_exact(
            r in report(),
            how in (0u8..3, any::<usize>(), any::<u8>()),
            noise in collection::vec(any::<u8>(), 0..=256),
        ) {
            let body = r.encode();
            prop_assert_eq!(WorkerReport::decode(&body), Ok(r));
            for bytes in [edit(body, how), noise] {
                if let Ok(d) = WorkerReport::decode(&bytes) {
                    prop_assert_eq!(d.encode(), bytes);
                }
            }
        }
    }
}
