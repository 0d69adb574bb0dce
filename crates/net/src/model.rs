//! Analytic wire-time models for the paper's five evaluation machines.
//!
//! The figures in §5.1 plot one-way message time against message size on
//! real 1995 hardware. We cannot measure those wires, so each machine is
//! modeled as
//!
//! ```text
//! t(n) = α                          per-message start-up latency
//!      + β · max(0, n - included)   per-byte wire cost beyond the bytes
//!                                   already covered by α
//!      + γ · (⌈n / P⌉ - 1)          extra cost per additional packet
//!      + c · n   if n > threshold   packetization copy (T3D, §5.1: "the
//!                                   jump at 16K bytes is due to copying
//!                                   during packetization")
//! ```
//!
//! Constants are calibrated to the numbers the paper states (FM delivers
//! ≤128-byte messages in 25 µs; the T3D jump sits at 16 KB) and to
//! published characteristics of the era's interconnects elsewhere. The
//! benchmark harness adds *measured* Converse software time on top, so
//! the Converse-vs-native deltas in the reproduced figures are real
//! measurements; only these wire constants are modeled. See
//! EXPERIMENTS.md for the calibration table.

/// Analytic one-way wire-time model for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Human-readable machine name as used in the paper's figures.
    pub name: &'static str,
    /// Per-message start-up latency α, microseconds.
    pub alpha_us: f64,
    /// Per-byte cost β, microseconds per byte.
    pub beta_us_per_byte: f64,
    /// Bytes whose transfer cost is already included in α (small-message
    /// fast path; 128 for FM per the paper).
    pub included_bytes: usize,
    /// Wire packet size P in bytes.
    pub packet_bytes: usize,
    /// Extra cost γ per packet beyond the first, microseconds.
    pub per_packet_us: f64,
    /// Message size above which the machine layer must copy the message
    /// during packetization (None = never).
    pub copy_threshold: Option<usize>,
    /// Copy cost c applied to every byte when over the threshold,
    /// microseconds per byte.
    pub copy_us_per_byte: f64,
}

impl NetModel {
    /// Modeled one-way wire time for an `n`-byte message, microseconds.
    pub fn one_way_us(&self, n: usize) -> f64 {
        let billed = n.saturating_sub(self.included_bytes) as f64;
        let packets = n.div_ceil(self.packet_bytes).max(1) as f64;
        let mut t =
            self.alpha_us + self.beta_us_per_byte * billed + self.per_packet_us * (packets - 1.0);
        if let Some(thresh) = self.copy_threshold {
            if n > thresh {
                t += self.copy_us_per_byte * n as f64;
            }
        }
        t
    }

    /// Figure 4: network of HP workstations connected by an ATM switch.
    /// ATM OC-3 (155 Mbit/s) through a mid-90s host stack: high start-up
    /// latency, ~13 MB/s effective.
    pub fn atm_hp() -> Self {
        NetModel {
            name: "ATM-connected HPs",
            alpha_us: 300.0,
            beta_us_per_byte: 0.075,
            included_bytes: 0,
            packet_bytes: 9180, // ATM AAL5 default MTU
            per_packet_us: 30.0,
            copy_threshold: None,
            copy_us_per_byte: 0.0,
        }
    }

    /// Figure 5: Cray T3D with the FM package. Very low start-up cost
    /// ("very close to the best possible on the Cray hardware for short
    /// messages") and a packetization copy above 16 KB producing the jump
    /// the paper calls out.
    pub fn t3d() -> Self {
        NetModel {
            name: "Cray T3D",
            alpha_us: 3.0,
            beta_us_per_byte: 0.0083, // ~120 MB/s
            included_bytes: 8,
            packet_bytes: 16 * 1024,
            per_packet_us: 4.0,
            copy_threshold: Some(16 * 1024),
            copy_us_per_byte: 0.0083, // one extra copy pass
        }
    }

    /// Figure 6: Sun workstations on Myrinet with the FM package. The
    /// paper: "the FM library using Myrinet switches delivers messages up
    /// to 128 bytes in 25 µs, whereas Converse messages need about 31 µs".
    /// α covers the first 128 bytes.
    pub fn myrinet_fm() -> Self {
        NetModel {
            name: "Myrinet Suns (FM)",
            alpha_us: 25.0,
            beta_us_per_byte: 0.055, // ~18 MB/s
            included_bytes: 128,
            packet_bytes: 4096,
            per_packet_us: 6.0,
            copy_threshold: None,
            copy_us_per_byte: 0.0,
        }
    }

    /// Figure 7: IBM SP-1 (MPL-era adapter): moderate latency, ~9 MB/s.
    pub fn sp1() -> Self {
        NetModel {
            name: "IBM SP-1",
            alpha_us: 55.0,
            beta_us_per_byte: 0.11,
            included_bytes: 0,
            packet_bytes: 4096,
            per_packet_us: 8.0,
            copy_threshold: None,
            copy_us_per_byte: 0.0,
        }
    }

    /// Figure 8: Intel Paragon running SUNMOS: low latency and the
    /// highest bandwidth of the set.
    pub fn paragon() -> Self {
        NetModel {
            name: "Intel Paragon (SUNMOS)",
            alpha_us: 25.0,
            beta_us_per_byte: 0.00625, // ~160 MB/s
            included_bytes: 0,
            packet_bytes: 8192,
            per_packet_us: 2.0,
            copy_threshold: None,
            copy_us_per_byte: 0.0,
        }
    }

    /// All five figure machines in paper order (Figs 4–8).
    pub fn all_figures() -> Vec<NetModel> {
        vec![
            Self::atm_hp(),
            Self::t3d(),
            Self::myrinet_fm(),
            Self::sp1(),
            Self::paragon(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_in_size() {
        for m in NetModel::all_figures() {
            let mut prev = 0.0;
            for n in [0usize, 1, 16, 128, 129, 1024, 16384, 16385, 65536] {
                let t = m.one_way_us(n);
                assert!(t >= prev, "{}: t({}) = {} < {}", m.name, n, t, prev);
                prev = t;
            }
        }
    }

    #[test]
    fn fm_small_message_is_25us() {
        let m = NetModel::myrinet_fm();
        assert_eq!(m.one_way_us(0), 25.0);
        assert_eq!(m.one_way_us(128), 25.0);
        assert!(m.one_way_us(129) > 25.0);
    }

    #[test]
    fn t3d_jump_at_16k() {
        let m = NetModel::t3d();
        let below = m.one_way_us(16 * 1024);
        let above = m.one_way_us(16 * 1024 + 1);
        // The copy term bills the whole message, so the step is large
        // compared to the one extra byte's β cost.
        assert!(above - below > 100.0, "jump was only {} µs", above - below);
    }

    #[test]
    fn t3d_shortest_latency() {
        let t3d = NetModel::t3d().one_way_us(8);
        for m in NetModel::all_figures() {
            if m.name != "Cray T3D" {
                assert!(m.one_way_us(8) > t3d, "{} beat the T3D", m.name);
            }
        }
    }

    #[test]
    fn packet_cost_kicks_in() {
        let m = NetModel::sp1();
        let one_packet = m.one_way_us(4096);
        let two_packets = m.one_way_us(4097);
        assert!(two_packets - one_packet >= m.per_packet_us);
    }

    #[test]
    fn bandwidths_are_sane() {
        // Paragon fastest, SP-1 slowest of the modeled set (the
        // asymptotic bandwidth, MB/s, is 1/β).
        let bw: Vec<(f64, &str)> = NetModel::all_figures()
            .iter()
            .map(|m| (1.0 / m.beta_us_per_byte, m.name))
            .collect();
        let paragon = bw.iter().find(|b| b.1.contains("Paragon")).unwrap().0;
        let sp1 = bw.iter().find(|b| b.1.contains("SP-1")).unwrap().0;
        for (b, _) in &bw {
            assert!(*b >= sp1 && *b <= paragon);
        }
    }
}
