//! Per-channel delivery guarantees — the QoS policy layer.
//!
//! PR 3 hardwired one contract: every link is exactly-once in-order.
//! That is the right *default* but the wrong (and expensive) universal
//! answer — streaming fan-out to many subscribers neither needs nor
//! wants to pay for acks and retransmission. This module makes the
//! guarantee a per-**channel** policy choice carried on every packet
//! and wire frame, so the reliability sublayer becomes parametric:
//!
//! * [`Delivery::ExactlyOnce`] — seq/ack/retransmit/dedup, in-order.
//!   Identical to the pre-QoS behavior; [`Channel::DEFAULT`] uses it,
//!   so existing code is untouched.
//! * [`Delivery::AtMostOnce`] — one wire attempt, no acks, no
//!   retransmission, no reassembly buffering. A dropped packet is
//!   lost; a duplicated or stale packet is discarded by a monotonic
//!   sequence floor, so nothing is ever delivered twice.
//! * [`Delivery::LatestValueWins`] — a newer value on the same channel
//!   supersedes an older one still queued (not yet drained by the
//!   receiver) or awaiting retransmission. The sender keeps at most one packet in flight per
//!   channel; the receiver applies the same monotonic floor. The last
//!   value sent is retransmitted until acknowledged, so the stream
//!   converges on the final value even over a lossy wire.
//!
//! The guarantee tag travels *in* the packet (and in the 22-byte wire
//! frame header), so receivers need no channel registry: policy is
//! self-describing on the wire, and both transports (`Interconnect`
//! and `converse-wire`) apply it identically.

/// Delivery guarantee of one channel. Encoded as one byte on the wire
/// (see [`Delivery::as_u8`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Delivery {
    /// Exactly-once, per-channel in-order: sequence numbers, selective
    /// acks, retransmission with capped backoff, receiver dedup and
    /// reassembly. The default, and the only pre-QoS behavior.
    #[default]
    ExactlyOnce,
    /// Best-effort: one wire attempt, no acks, no retransmit, no
    /// reassembly state. Never delivers a message twice (stale/dup
    /// copies are dropped by a monotonic floor); may deliver nothing.
    AtMostOnce,
    /// A newer value supersedes an older undelivered one on the same
    /// channel — in the sender's retransmit slot, in fault-plane
    /// limbo, and in the destination's not-yet-drained mailbox. The final
    /// value sent is reliable (retransmitted until acked).
    LatestValueWins,
}

impl Delivery {
    /// Wire encoding (the `guarantee` byte of a frame header).
    #[inline]
    pub fn as_u8(self) -> u8 {
        match self {
            Delivery::ExactlyOnce => 0,
            Delivery::AtMostOnce => 1,
            Delivery::LatestValueWins => 2,
        }
    }

    /// Decode a wire byte; `None` for a byte no guarantee encodes to —
    /// a frame that names none is malformed, not exactly-once.
    #[inline]
    pub fn from_u8(v: u8) -> Option<Delivery> {
        match v {
            0 => Some(Delivery::ExactlyOnce),
            1 => Some(Delivery::AtMostOnce),
            2 => Some(Delivery::LatestValueWins),
            _ => None,
        }
    }

    /// Human label used in stats tables and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            Delivery::ExactlyOnce => "exactly-once",
            Delivery::AtMostOnce => "at-most-once",
            Delivery::LatestValueWins => "latest-value-wins",
        }
    }

    /// Parse a CLI/user spelling (`exactly-once`, `at-most-once`,
    /// `latest`, plus short aliases).
    pub fn parse(s: &str) -> Option<Delivery> {
        match s {
            "exactly-once" | "exact" | "eo" => Some(Delivery::ExactlyOnce),
            "at-most-once" | "best-effort" | "amo" => Some(Delivery::AtMostOnce),
            "latest" | "latest-value-wins" | "lvw" => Some(Delivery::LatestValueWins),
            _ => None,
        }
    }
}

/// A delivery channel: a numeric id plus the guarantee every message
/// sent on it gets. Channel 0 is [`Channel::DEFAULT`] (exactly-once);
/// configured channels take ids from 1 upward; pub-sub topics hash
/// into the high-bit id space so they never collide with configured
/// channels.
///
/// Sequence numbering is per `(link, channel)`: each channel of a link
/// is an independent sequenced stream starting at seq 1 (seq 0 is the
/// reserved "unsequenced fast path" marker used when no `FaultPlan` is
/// installed — see `Packet::seq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Channel id, carried on every packet and wire frame.
    pub id: u32,
    /// The guarantee applied to traffic on this channel.
    pub delivery: Delivery,
}

impl Channel {
    /// Channel 0: exactly-once, the pre-QoS contract. Every legacy
    /// send path uses it.
    pub const DEFAULT: Channel = Channel {
        id: 0,
        delivery: Delivery::ExactlyOnce,
    };

    /// Build a channel handle.
    #[inline]
    pub const fn new(id: u32, delivery: Delivery) -> Channel {
        Channel { id, delivery }
    }
}

impl Default for Channel {
    fn default() -> Self {
        Channel::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_wire_round_trip() {
        for d in [
            Delivery::ExactlyOnce,
            Delivery::AtMostOnce,
            Delivery::LatestValueWins,
        ] {
            assert_eq!(Delivery::from_u8(d.as_u8()), Some(d));
        }
        // A byte no guarantee encodes to decodes to none of them.
        for v in 3..=u8::MAX {
            assert_eq!(Delivery::from_u8(v), None);
        }
    }

    #[test]
    fn delivery_parse_spellings() {
        assert_eq!(Delivery::parse("exactly-once"), Some(Delivery::ExactlyOnce));
        assert_eq!(Delivery::parse("at-most-once"), Some(Delivery::AtMostOnce));
        assert_eq!(Delivery::parse("latest"), Some(Delivery::LatestValueWins));
        assert_eq!(Delivery::parse("lvw"), Some(Delivery::LatestValueWins));
        assert_eq!(Delivery::parse("bogus"), None);
    }

    #[test]
    fn default_channel_is_exactly_once_id_zero() {
        assert_eq!(Channel::DEFAULT.id, 0);
        assert_eq!(Channel::DEFAULT.delivery, Delivery::ExactlyOnce);
        assert_eq!(Channel::default(), Channel::DEFAULT);
    }
}
