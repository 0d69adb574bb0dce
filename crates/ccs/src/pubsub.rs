//! Pub-sub fan-out over per-channel delivery guarantees.
//!
//! A thin facade on two existing mechanisms: the QoS layer's named
//! delivery channels (`converse-net`) carry the published values, and
//! the CCS gateway's streamed replies ([`crate::status::STREAM`])
//! serve subscriptions to external clients. Nothing here adds a new
//! wire protocol — a publish is an ordinary per-channel send, a
//! subscription update is an ordinary exo reply.
//!
//! ## Model
//!
//! * **Topics** are asserted by name on every PE with a delivery
//!   guarantee ([`assert_topic`]); like handler registration, the
//!   assertions must be identical on all PEs. A topic maps to a
//!   deterministic channel id derived from its name (high bit set, so
//!   topic channels never collide with `MachineConfig::channel` ids,
//!   which count up from 1).
//! * **Subscribers** register interest ([`subscribe`]) with a local
//!   callback; interest is announced machine-wide via a broadcast on
//!   the default exactly-once channel. Propagation is eventual: a
//!   publish racing a new subscription may not reach it — barrier
//!   after subscribing when a test needs a cut-off.
//! * **Publishes** ([`publish`]) fan out one per-channel send to every
//!   PE with at least one subscriber, over the topic's guarantee: an
//!   exactly-once topic behaves like today's reliable sends, an
//!   at-most-once topic sheds lost updates instead of retransmitting,
//!   and a latest-value-wins topic lets a fresh value supersede a
//!   stale one still in flight or queued.
//! * **External clients** subscribe through the CCS server
//!   (`pubsub.subscribe`): the handler captures the reply token and
//!   streams every update as a [`crate::status::STREAM`] frame;
//!   `CcsClient::stream_each` consumes them. `pubsub.publish` injects
//!   a publish from outside the machine.
//!
//! Call [`init`] on every PE (same position in the registration
//! order) before asserting topics.

use crate::registry::CcsRegistry;
use converse_machine::{HandlerId, Message, OwnerCell, Pe};
use converse_msg::pack::{Packer, Unpacker};
use converse_net::{Channel, Delivery};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A subscriber callback: runs on the subscribing PE, inside message
/// delivery, with the published value.
type SubscriberFn = Arc<dyn Fn(&Pe, &[u8]) + Send + Sync>;

/// One asserted topic on this PE.
struct TopicState {
    channel: Channel,
    /// Local callbacks, invoked in subscription order.
    subscribers: Vec<SubscriberFn>,
}

/// Per-PE pub-sub runtime (held in the PE's typed local storage).
struct PubSub {
    /// Handler receiving published values on this PE.
    deliver: HandlerId,
    /// Handler receiving subscription announcements.
    announce: HandlerId,
    /// Owner-only: touched by the PE's running context alone, never
    /// while a subscriber runs.
    state: OwnerCell<Topics>,
}

#[derive(Default)]
struct Topics {
    /// Asserted topics by name.
    topics: HashMap<String, TopicState>,
    /// Machine-wide interest: channel id → PEs with subscribers.
    remote_subs: HashMap<u32, HashSet<usize>>,
}

/// Map a topic name to its delivery-channel id: FNV-1a of the name,
/// truncated to 31 bits, with the high bit set so topic channels and
/// `MachineConfig::channel` ids (1..N) can never collide. Stable
/// across PEs and processes — no registry round trip needed.
fn topic_channel_id(name: &str) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    0x8000_0000 | (h as u32 & 0x7FFF_FFFF)
}

/// The runtime [`init`] installed on `pe`.
fn pubsub(pe: &Pe) -> &PubSub {
    pe.local_ref().expect("pubsub::init not called")
}

/// Open `pe`'s topic tables. `f` must not call out of this module.
fn topics<R>(pe: &Pe, f: impl FnOnce(&mut Topics) -> R) -> R {
    pubsub(pe).state.with(pe.owner(), f)
}

/// Register the pub-sub handlers on `pe` and, when a registry is
/// given, export the `pubsub.subscribe` / `pubsub.publish` names
/// through CCS. Must be called on every PE at the same point in the
/// registration order (the machine-wide handler-table invariant), with
/// a registry on all PEs or none.
pub fn init(pe: &Pe, registry: Option<&Arc<CcsRegistry>>) {
    pe.local(|| PubSub {
        deliver: pe.register_handler(handle_deliver),
        announce: pe.register_handler(handle_announce),
        state: OwnerCell::new(pe.owner(), Topics::default()),
    });

    if let Some(reg) = registry {
        reg.register(pe, "pubsub.subscribe", |pe, msg| {
            let Some(token) = pe.exo_current_token() else {
                return; // not dispatched through the gateway
            };
            let topic = String::from_utf8_lossy(msg.payload()).into_owned();
            if !topics(pe, |t| t.topics.contains_key(&topic)) {
                pe.exo_reply(
                    token,
                    crate::status::UNKNOWN_HANDLER,
                    format!("no topic {topic:?} asserted").as_bytes(),
                );
                return;
            }
            // Every future update for the topic streams to the client
            // until the server's request timeout reclaims an idle
            // subscription (or the connection drops).
            subscribe_fn(
                pe,
                &topic,
                Arc::new(move |pe, value| pe.exo_reply_stream(token, value)),
            );
        });
        reg.register(pe, "pubsub.publish", |pe, msg| {
            let Some(token) = pe.exo_current_token() else {
                return;
            };
            let mut u = Unpacker::new(msg.payload());
            let parsed = (|| {
                let topic = u.str()?;
                let value = u.bytes()?.to_vec();
                Ok::<_, converse_msg::pack::PackError>((topic, value))
            })();
            match parsed {
                Ok((topic, value)) if topics(pe, |t| t.topics.contains_key(&topic)) => {
                    publish(pe, &topic, &value);
                    pe.exo_reply(token, crate::status::OK, b"");
                }
                Ok((topic, _)) => pe.exo_reply(
                    token,
                    crate::status::UNKNOWN_HANDLER,
                    format!("no topic {topic:?} asserted").as_bytes(),
                ),
                Err(_) => pe.exo_reply(
                    token,
                    crate::status::MALFORMED,
                    b"publish payload: expected str topic + bytes value",
                ),
            }
        });
    }
}

/// Assert a topic with its delivery guarantee. Must be asserted
/// identically on every PE that publishes or subscribes; re-asserting
/// with a different guarantee panics (two guarantees for one channel
/// would diverge between PEs). Returns the topic's channel.
pub fn assert_topic(pe: &Pe, name: &str, delivery: Delivery) -> Channel {
    let channel = topics(pe, |t| {
        let topic = t.topics.entry(name.to_string()).or_insert(TopicState {
            channel: Channel::new(topic_channel_id(name), delivery),
            subscribers: Vec::new(),
        });
        topic.channel
    });
    assert!(
        channel.delivery == delivery,
        "PE {}: topic {name:?} asserted as {} but already {}",
        pe.my_pe(),
        delivery.label(),
        channel.delivery.label()
    );
    channel
}

/// Subscribe a local callback to an asserted topic. Announces interest
/// machine-wide (broadcast on the default exactly-once channel);
/// publishes from other PEs reach this callback once the announcement
/// lands. Panics on an unasserted topic.
pub fn subscribe<F>(pe: &Pe, topic: &str, f: F)
where
    F: Fn(&Pe, &[u8]) + Send + Sync + 'static,
{
    subscribe_fn(pe, topic, Arc::new(f));
}

fn subscribe_fn(pe: &Pe, topic: &str, f: SubscriberFn) {
    let channel = topics(pe, |t| {
        let state = t.topics.get_mut(topic)?;
        state.subscribers.push(f);
        // Record interest locally (a PE subscribed to itself publishes
        // to itself); the peers learn it from the announcement.
        let channel = state.channel;
        t.remote_subs
            .entry(channel.id)
            .or_default()
            .insert(pe.my_pe());
        Some(channel)
    })
    .unwrap_or_else(|| panic!("PE {}: topic {topic:?} not asserted", pe.my_pe()));
    let body = Packer::new().usize(pe.my_pe()).u32(channel.id).finish();
    let msg = Message::new(pubsub(pe).announce, &body);
    for dst in 0..pe.num_pes() {
        if dst != pe.my_pe() {
            pe.sync_send(dst, &msg);
        }
    }
}

/// Publish a value: one per-channel send to every PE with at least one
/// subscriber, over the topic's guarantee. Values for the publishing
/// PE's own subscribers take the same path (a self-send), so local and
/// remote subscribers see the same semantics. Panics on an unasserted
/// topic; a topic with no subscribers anywhere is a no-op.
pub fn publish(pe: &Pe, topic: &str, value: &[u8]) {
    let (channel, targets) = topics(pe, |t| {
        let channel = t.topics.get(topic)?.channel;
        let targets: Vec<usize> = t
            .remote_subs
            .get(&channel.id)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        Some((channel, targets))
    })
    .unwrap_or_else(|| panic!("PE {}: topic {topic:?} not asserted", pe.my_pe()));
    let body = Packer::new().u32(channel.id).bytes(value).finish();
    let msg = Message::new(pubsub(pe).deliver, &body);
    for dst in targets {
        pe.sync_send_on(dst, channel, &msg);
    }
}

/// Number of PEs currently known (to this PE) to hold subscribers for
/// `topic`. Useful for tests waiting on announcement propagation.
pub fn known_subscriber_pes(pe: &Pe, topic: &str) -> usize {
    let id = topic_channel_id(topic);
    topics(pe, |t| t.remote_subs.get(&id).map_or(0, HashSet::len))
}

/// Delivery handler: a published value arriving on this PE. Looks the
/// topic up by channel id and runs every local subscriber.
fn handle_deliver(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let Ok(channel_id) = u.u32() else { return };
    let Ok(value) = u.bytes() else { return };
    // A value for a topic this PE never asserted finds no subscriber.
    let subs: Vec<SubscriberFn> = topics(pe, |t| {
        let topic = t.topics.values().find(|t| t.channel.id == channel_id);
        topic.map(|t| t.subscribers.clone()).unwrap_or_default()
    });
    for f in subs {
        f(pe, value);
    }
}

/// Announcement handler: a remote PE declared a subscriber for a
/// channel.
fn handle_announce(pe: &Pe, msg: Message) {
    let mut u = Unpacker::new(msg.payload());
    let Ok(sub_pe) = u.usize() else { return };
    let Ok(channel_id) = u.u32() else { return };
    topics(pe, |t| {
        t.remote_subs.entry(channel_id).or_default().insert(sub_pe)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_ids_are_stable_and_flagged() {
        let a = topic_channel_id("ticker");
        assert_eq!(a, topic_channel_id("ticker"), "deterministic");
        assert_ne!(a, topic_channel_id("other"));
        assert!(a & 0x8000_0000 != 0, "topic ids carry the high bit");
        assert!(topic_channel_id("other") & 0x8000_0000 != 0);
    }
}
