//! Event tracing (paper §3.3.2).
//!
//! "Converse supports a standard for an event trace format. This consists
//! of two parts: a standard format which must be adhered to by all
//! language implementors, and an extensible self-describing format which
//! may be language-specific. In addition to recording message send,
//! receive and processing events, object or thread creation must also be
//! recorded. … many variants of this module are provided, depending on
//! the sophistication of the tracing desired."
//!
//! This crate provides:
//! * the **standard record set** ([`Event`]) — sends, enqueues,
//!   begin/end processing, thread and object lifecycle — plus the
//!   extensible escape hatch ([`Event::User`]);
//! * three sink variants of increasing sophistication:
//!   [`NullSink`] (zero cost — the "pay only for what you use"
//!   variant), [`MemorySink`] (in-memory ring, queryable), and
//!   [`TextSink`] (line-oriented log for offline tools);
//! * [`Summary`] — per-PE utilization and counts derived from a recorded
//!   trace, the kind of digest a Projections-style tool would display.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One standard trace record. Times are nanoseconds since machine boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A message left this PE (`CmiSyncSend` & co.).
    MsgSent {
        /// Destination PE.
        dst: usize,
        /// Total message bytes.
        bytes: usize,
        /// Handler index the message targets.
        handler: u32,
    },
    /// A message was put on the scheduler's queue (`CsdEnqueue`).
    Enqueue {
        /// Handler index.
        handler: u32,
    },
    /// A handler started running.
    BeginProcessing {
        /// Handler index.
        handler: u32,
        /// Source PE of the message (self for local entries).
        src: usize,
    },
    /// The handler returned.
    EndProcessing {
        /// Handler index.
        handler: u32,
    },
    /// A thread object was created.
    ThreadCreate {
        /// Runtime-assigned thread id.
        tid: u64,
    },
    /// A thread was given control.
    ThreadResume {
        /// Thread id.
        tid: u64,
    },
    /// A thread gave up control.
    ThreadSuspend {
        /// Thread id.
        tid: u64,
    },
    /// A concurrent object (e.g. a chare) was created.
    ObjectCreate {
        /// Language-specific kind tag.
        kind: u32,
    },
    /// Language-specific extensible record.
    User {
        /// Registered user event id.
        id: u32,
        /// Free-form datum.
        data: u64,
    },
    /// An external (CCS) request arrived off the wire at its
    /// destination PE, before scheduling.
    CcsRequestArrive {
        /// Server-assigned connection id.
        conn: u64,
        /// Per-connection request sequence number.
        seq: u64,
        /// Client payload bytes.
        bytes: usize,
    },
    /// An external request was dispatched from the scheduler queue to
    /// its target handler.
    CcsDispatch {
        /// Server-assigned connection id.
        conn: u64,
        /// Per-connection request sequence number.
        seq: u64,
        /// Resolved target handler index.
        handler: u32,
    },
    /// A reply to an external request reached the gateway on its way
    /// back to the connection writer.
    CcsReply {
        /// Server-assigned connection id.
        conn: u64,
        /// Per-connection request sequence number.
        seq: u64,
        /// Reply payload bytes.
        bytes: usize,
    },
    /// The fault-injection plane or the reliability sublayer acted on a
    /// packet of link `src → dst`. Send-side kinds (drop, duplicate,
    /// delay, retransmit) are recorded under the sending PE; the
    /// receive-side kind (dedup-drop) under the destination PE.
    Fault {
        /// What happened to the packet.
        kind: FaultKind,
        /// Sending PE of the affected link.
        src: usize,
        /// Destination PE of the affected link.
        dst: usize,
        /// Per-link sequence number of the affected packet.
        seq: u64,
    },
    /// The scheduler pulled a batch of packets off the wire into its
    /// local intake in one mailbox-swap. Sampled (one record per N
    /// batches), not per-batch — this sits on the hot path.
    SchedBatch {
        /// Packets moved by this batch drain.
        drained: usize,
        /// Spin iterations the most recent idle wait consumed before
        /// mail arrived (== the configured budget when it parked).
        spin_iters: u32,
    },
    /// The thread runtime transferred control between contexts. Sampled
    /// (one record per N switches), not per-switch — on the fiber
    /// backend a switch is ~20 ns and a per-event record would dwarf it.
    ThreadSwitch {
        /// Which backend performed the switch (`"fiber"` or
        /// `"handoff"`).
        backend: &'static str,
        /// True when a suspending thread handed control straight to the
        /// next ready thread without bouncing through the Csd queue
        /// (the fiber backend's direct-handoff fast path).
        direct_handoff: bool,
    },
    /// A frame crossed the socket transport's real wire. Sampled (one
    /// record per N frames) — a per-frame record would rival the frame
    /// itself in cost on the loopback path.
    WireFrame {
        /// Frame discriminator name (`"data"`, `"ack"`, `"stall"`, ...).
        kind: &'static str,
        /// The remote PE rank on the other end of the frame.
        peer: usize,
        /// Payload bytes carried (header excluded).
        bytes: usize,
        /// True for an outbound frame, false for an arrival.
        sent: bool,
    },
    /// An idle PE stole a batch of relocatable staged messages from a
    /// loaded victim. Recorded on the PE that initiated the transfer:
    /// the thief on shared-memory transports, the victim on distributed
    /// transports (where the donation is asynchronous).
    Steal {
        /// The overloaded PE the batch was taken from.
        victim: usize,
        /// The idle PE the batch was moved to.
        thief: usize,
        /// Messages moved.
        batch: usize,
    },
    /// One timed leg of a steal, recorded on the **thief** PE. Two
    /// phases bracket the protocol: `ReqToDonate` is the wait from
    /// firing the steal (the STEAL_REQ frame on distributed
    /// transports, the synchronous splice call in-process) until
    /// donated work arrived; `SpliceToRun` is the wait from donated
    /// work landing in the thief's mailbox until the thief's scheduler
    /// next dispatched a message. [`Summary`] folds these into per-PE
    /// p50/p99 histograms.
    StealLatency {
        /// Which leg of the steal this sample times.
        phase: StealPhase,
        /// Elapsed nanoseconds.
        ns: u64,
    },
    /// A migratable object (chare) was moved between PEs by the
    /// measurement-driven balancer. Recorded on the source PE.
    Migrate {
        /// Collection-local object index.
        obj: u64,
        /// PE the object left.
        from: usize,
        /// PE the object now lives on.
        to: usize,
    },
    /// Snapshot of this PE's message-buffer pool counters (the
    /// CmiAlloc/CmiFree free-list), emitted at PE teardown.
    MsgPool {
        /// Allocations served from the free list.
        hits: u64,
        /// Allocations that went to the system allocator.
        misses: u64,
        /// Freed buffers retained for reuse.
        recycled: u64,
        /// Freed buffers dropped (class full or unpoolable).
        discarded: u64,
    },
}

/// Which leg of a steal an [`Event::StealLatency`] sample times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealPhase {
    /// Steal initiated → donated work arrived at the thief.
    ReqToDonate,
    /// Donated work spliced into the thief's mailbox → the thief's
    /// scheduler dispatched its next message.
    SpliceToRun,
}

/// What the fault plane (or the reliability layer masking it) did to a
/// packet; the discriminant of [`Event::Fault`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The packet was dropped on the wire (the sender will retransmit).
    Drop,
    /// The packet was duplicated on the wire.
    Duplicate,
    /// The packet was held back a bounded number of delivery slots.
    Delay,
    /// The sender retransmitted an unacknowledged packet.
    Retransmit,
    /// The receiver discarded a duplicate delivery (dedup).
    DedupDrop,
    /// A newer value on a latest-value-wins channel superseded one or
    /// more older undelivered values (recorded under the PE whose
    /// state was purged: the sender for in-flight slots, the
    /// destination for queued inbox values).
    Supersede,
}

impl FaultKind {
    /// Short lowercase label for text logs.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Duplicate => "dup",
            FaultKind::Delay => "delay",
            FaultKind::Retransmit => "retransmit",
            FaultKind::DedupDrop => "dedup",
            FaultKind::Supersede => "supersede",
        }
    }
}

/// A timestamped record as stored by sinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// PE that emitted the event.
    pub pe: usize,
    /// Nanoseconds since machine boot.
    pub t_ns: u64,
    /// The event payload.
    pub event: Event,
}

/// Destination for trace records. Implementations must be cheap and
/// thread-safe; they are called from every PE's hot path when tracing is
/// enabled.
pub trait TraceSink: Send + Sync {
    /// Record one event from `pe` at time `t_ns`.
    fn record(&self, pe: usize, t_ns: u64, event: Event);
    /// True if this sink actually stores anything; lets callers skip
    /// building event payloads entirely when tracing is off.
    ///
    /// **Sampled at boot**: a PE reads this once, when it is created,
    /// and keeps the answer for its whole life (the message path would
    /// otherwise make this virtual call several times per message). It
    /// must therefore be a constant of the sink, as it is for
    /// every sink in this crate; a sink that wants to start or
    /// stop recording mid-run answers `true` and filters in `record`.
    fn enabled(&self) -> bool {
        true
    }
}

/// The no-op sink: tracing compiled in, cost ≈ one virtual call that the
/// caller elides by checking [`TraceSink::enabled`].
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _pe: usize, _t_ns: u64, _event: Event) {}
    fn enabled(&self) -> bool {
        false
    }
}

/// In-memory bounded trace, queryable after the run. Keeps at most
/// `capacity` records per PE (oldest dropped), counting drops.
pub struct MemorySink {
    /// One ring per PE: at capacity the oldest record leaves from the
    /// front in O(1).
    per_pe: Vec<Mutex<VecDeque<Record>>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl MemorySink {
    /// A sink for `num_pes` processors keeping up to `capacity` records
    /// per PE.
    pub fn new(num_pes: usize, capacity: usize) -> Arc<Self> {
        Arc::new(MemorySink {
            per_pe: (0..num_pes).map(|_| Mutex::default()).collect(),
            capacity,
            dropped: AtomicU64::new(0),
        })
    }

    /// All records of one PE, in emission order.
    pub fn records(&self, pe: usize) -> Vec<Record> {
        self.per_pe[pe].lock().iter().cloned().collect()
    }

    /// All records of all PEs, ordered by timestamp.
    pub fn all_records(&self) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::new();
        for m in &self.per_pe {
            out.extend(m.lock().iter().cloned());
        }
        out.sort_by_key(|r| r.t_ns);
        out
    }

    /// Records dropped because a PE exceeded capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Compute the per-PE summary of this trace.
    pub fn summary(&self) -> Summary {
        Summary::from_records(self.per_pe.len(), &self.all_records())
    }
}

impl TraceSink for MemorySink {
    fn record(&self, pe: usize, t_ns: u64, event: Event) {
        let mut v = self.per_pe[pe].lock();
        if v.len() >= self.capacity {
            v.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        v.push_back(Record { pe, t_ns, event });
    }
}

/// Line-oriented text sink: one `pe t_ns EVENT k=v…` line per record,
/// buffered in memory and retrievable or flushable to any writer. This is
/// the "self-describing" interchange variant.
pub struct TextSink {
    buf: Mutex<String>,
}

impl TextSink {
    /// New empty text sink.
    pub fn new() -> Arc<Self> {
        Arc::new(TextSink {
            buf: Mutex::new(String::new()),
        })
    }

    /// The accumulated log text.
    pub fn text(&self) -> String {
        self.buf.lock().clone()
    }
}

impl TraceSink for TextSink {
    fn record(&self, pe: usize, t_ns: u64, event: Event) {
        let mut b = self.buf.lock();
        let _ = match &event {
            Event::MsgSent {
                dst,
                bytes,
                handler,
            } => {
                writeln!(
                    b,
                    "{pe} {t_ns} SEND dst={dst} bytes={bytes} handler={handler}"
                )
            }
            Event::Enqueue { handler } => writeln!(b, "{pe} {t_ns} ENQ handler={handler}"),
            Event::BeginProcessing { handler, src } => {
                writeln!(b, "{pe} {t_ns} BEGIN handler={handler} src={src}")
            }
            Event::EndProcessing { handler } => writeln!(b, "{pe} {t_ns} END handler={handler}"),
            Event::ThreadCreate { tid } => writeln!(b, "{pe} {t_ns} THCREATE tid={tid}"),
            Event::ThreadResume { tid } => writeln!(b, "{pe} {t_ns} THRESUME tid={tid}"),
            Event::ThreadSuspend { tid } => writeln!(b, "{pe} {t_ns} THSUSPEND tid={tid}"),
            Event::ObjectCreate { kind } => writeln!(b, "{pe} {t_ns} OBJCREATE kind={kind}"),
            Event::User { id, data } => writeln!(b, "{pe} {t_ns} USER id={id} data={data}"),
            Event::CcsRequestArrive { conn, seq, bytes } => {
                writeln!(b, "{pe} {t_ns} CCSREQ conn={conn} seq={seq} bytes={bytes}")
            }
            Event::CcsDispatch { conn, seq, handler } => {
                writeln!(
                    b,
                    "{pe} {t_ns} CCSDISPATCH conn={conn} seq={seq} handler={handler}"
                )
            }
            Event::CcsReply { conn, seq, bytes } => {
                writeln!(
                    b,
                    "{pe} {t_ns} CCSREPLY conn={conn} seq={seq} bytes={bytes}"
                )
            }
            Event::Fault {
                kind,
                src,
                dst,
                seq,
            } => {
                writeln!(
                    b,
                    "{pe} {t_ns} FAULT kind={} src={src} dst={dst} seq={seq}",
                    kind.label()
                )
            }
            Event::SchedBatch {
                drained,
                spin_iters,
            } => {
                writeln!(
                    b,
                    "{pe} {t_ns} SCHEDBATCH drained={drained} spin={spin_iters}"
                )
            }
            Event::ThreadSwitch {
                backend,
                direct_handoff,
            } => {
                writeln!(
                    b,
                    "{pe} {t_ns} THSWITCH backend={backend} direct={direct_handoff}"
                )
            }
            Event::WireFrame {
                kind,
                peer,
                bytes,
                sent,
            } => {
                let dir = if *sent { "out" } else { "in" };
                writeln!(
                    b,
                    "{pe} {t_ns} WIRE kind={kind} peer={peer} bytes={bytes} dir={dir}"
                )
            }
            Event::Steal {
                victim,
                thief,
                batch,
            } => {
                writeln!(
                    b,
                    "{pe} {t_ns} STEAL victim={victim} thief={thief} batch={batch}"
                )
            }
            Event::StealLatency { phase, ns } => {
                let p = match phase {
                    StealPhase::ReqToDonate => "req_donate",
                    StealPhase::SpliceToRun => "splice_run",
                };
                writeln!(b, "{pe} {t_ns} STEALLAT phase={p} ns={ns}")
            }
            Event::Migrate { obj, from, to } => {
                writeln!(b, "{pe} {t_ns} MIGRATE obj={obj} from={from} to={to}")
            }
            Event::MsgPool {
                hits,
                misses,
                recycled,
                discarded,
            } => {
                writeln!(
                    b,
                    "{pe} {t_ns} MSGPOOL hits={hits} misses={misses} recycled={recycled} discarded={discarded}"
                )
            }
        };
    }
}

/// Sort `samples` and report `(count, p50, p99)` — zeros when empty.
fn percentiles(samples: &mut [u64]) -> (u64, u64, u64) {
    if samples.is_empty() {
        return (0, 0, 0);
    }
    samples.sort_unstable();
    let at = |p: f64| samples[((samples.len() - 1) as f64 * p).round() as usize];
    (samples.len() as u64, at(0.50), at(0.99))
}

/// Per-PE digest of a trace: message counts and handler-busy utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// One row per PE.
    pub pes: Vec<PeSummary>,
}

/// One PE's digest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeSummary {
    /// Messages sent.
    pub sends: u64,
    /// Handler executions (BeginProcessing count).
    pub handler_runs: u64,
    /// Scheduler enqueues.
    pub enqueues: u64,
    /// Threads created.
    pub threads_created: u64,
    /// Objects created.
    pub objects_created: u64,
    /// External (CCS) requests that arrived on this PE.
    pub ccs_requests: u64,
    /// CCS replies that passed back through this PE's gateway handler.
    pub ccs_replies: u64,
    /// Packets the fault plane dropped with this PE as sender.
    pub net_dropped: u64,
    /// Packets the fault plane duplicated with this PE as sender.
    pub net_duplicated: u64,
    /// Packets the fault plane delayed with this PE as sender.
    pub net_delayed: u64,
    /// Retransmissions issued by this PE's reliability send side.
    pub net_retransmitted: u64,
    /// Duplicate deliveries this PE's reliability receive side dropped.
    pub net_dedup_dropped: u64,
    /// Values superseded by newer ones on latest-value-wins channels,
    /// recorded under the PE whose state was purged.
    pub net_superseded: u64,
    /// Sampled scheduler batch-drain records observed.
    pub sched_batches: u64,
    /// Packets moved by the sampled batch drains (sum of `drained`).
    pub batch_drained: u64,
    /// Spin iterations reported by the sampled batch drains (sum of
    /// `spin_iters`); divide by `sched_batches` for the mean.
    pub idle_spins: u64,
    /// Sampled thread context-switch records observed.
    pub thread_switches: u64,
    /// Sampled switch records flagged as direct handoffs (suspend went
    /// straight to the next ready thread, no Csd queue bounce).
    pub direct_handoffs: u64,
    /// Steal batches this PE initiated ([`Event::Steal`] records).
    pub steals: u64,
    /// Messages moved by those steal batches.
    pub stolen_msgs: u64,
    /// Steal request→donate latency samples recorded on this PE.
    pub steal_req_donate_samples: u64,
    /// Median request→donate latency (ns); 0 with no samples.
    pub steal_req_donate_p50_ns: u64,
    /// 99th-percentile request→donate latency (ns); 0 with no samples.
    pub steal_req_donate_p99_ns: u64,
    /// Steal splice→first-run latency samples recorded on this PE.
    pub steal_splice_run_samples: u64,
    /// Median splice→first-run latency (ns); 0 with no samples.
    pub steal_splice_run_p50_ns: u64,
    /// 99th-percentile splice→first-run latency (ns); 0 with no samples.
    pub steal_splice_run_p99_ns: u64,
    /// Objects migrated off this PE ([`Event::Migrate`] records).
    pub migrations: u64,
    /// Buffer-pool hits (from the last [`Event::MsgPool`] snapshot).
    pub pool_hits: u64,
    /// Buffer-pool misses (from the last [`Event::MsgPool`] snapshot).
    pub pool_misses: u64,
    /// Nanoseconds spent inside handlers.
    pub busy_ns: u64,
    /// Fraction of the observed span spent inside handlers (0..=1);
    /// zero when the span is empty.
    pub utilization: f64,
}

impl Summary {
    /// Derive a summary from a flat record list (as produced by
    /// [`MemorySink::all_records`]).
    pub fn from_records(num_pes: usize, records: &[Record]) -> Summary {
        let mut pes = vec![PeSummary::default(); num_pes];
        let mut open: Vec<Option<u64>> = vec![None; num_pes];
        let mut first: Vec<Option<u64>> = vec![None; num_pes];
        let mut last: Vec<u64> = vec![0; num_pes];
        let mut req_donate: Vec<Vec<u64>> = vec![Vec::new(); num_pes];
        let mut splice_run: Vec<Vec<u64>> = vec![Vec::new(); num_pes];
        for r in records {
            let s = &mut pes[r.pe];
            first[r.pe].get_or_insert(r.t_ns);
            last[r.pe] = last[r.pe].max(r.t_ns);
            match &r.event {
                Event::MsgSent { .. } => s.sends += 1,
                Event::Enqueue { .. } => s.enqueues += 1,
                Event::BeginProcessing { .. } => {
                    s.handler_runs += 1;
                    open[r.pe] = Some(r.t_ns);
                }
                Event::EndProcessing { .. } => {
                    if let Some(t0) = open[r.pe].take() {
                        s.busy_ns += r.t_ns.saturating_sub(t0);
                    }
                }
                Event::ThreadCreate { .. } => s.threads_created += 1,
                Event::ObjectCreate { .. } => s.objects_created += 1,
                Event::CcsRequestArrive { .. } => s.ccs_requests += 1,
                Event::CcsReply { .. } => s.ccs_replies += 1,
                Event::Fault { kind, .. } => match kind {
                    FaultKind::Drop => s.net_dropped += 1,
                    FaultKind::Duplicate => s.net_duplicated += 1,
                    FaultKind::Delay => s.net_delayed += 1,
                    FaultKind::Retransmit => s.net_retransmitted += 1,
                    FaultKind::DedupDrop => s.net_dedup_dropped += 1,
                    FaultKind::Supersede => s.net_superseded += 1,
                },
                Event::SchedBatch {
                    drained,
                    spin_iters,
                } => {
                    s.sched_batches += 1;
                    s.batch_drained += *drained as u64;
                    s.idle_spins += *spin_iters as u64;
                }
                Event::ThreadSwitch { direct_handoff, .. } => {
                    s.thread_switches += 1;
                    if *direct_handoff {
                        s.direct_handoffs += 1;
                    }
                }
                Event::Steal { batch, .. } => {
                    s.steals += 1;
                    s.stolen_msgs += *batch as u64;
                }
                Event::StealLatency { phase, ns } => match phase {
                    StealPhase::ReqToDonate => req_donate[r.pe].push(*ns),
                    StealPhase::SpliceToRun => splice_run[r.pe].push(*ns),
                },
                Event::Migrate { .. } => s.migrations += 1,
                Event::MsgPool { hits, misses, .. } => {
                    // Snapshots are cumulative; keep the latest.
                    s.pool_hits = *hits;
                    s.pool_misses = *misses;
                }
                _ => {}
            }
        }
        for pe in 0..num_pes {
            if let Some(f) = first[pe] {
                let span = last[pe].saturating_sub(f);
                if span > 0 {
                    pes[pe].utilization = pes[pe].busy_ns as f64 / span as f64;
                }
            }
            let (c, p50, p99) = percentiles(&mut req_donate[pe]);
            pes[pe].steal_req_donate_samples = c;
            pes[pe].steal_req_donate_p50_ns = p50;
            pes[pe].steal_req_donate_p99_ns = p99;
            let (c, p50, p99) = percentiles(&mut splice_run[pe]);
            pes[pe].steal_splice_run_samples = c;
            pes[pe].steal_splice_run_p50_ns = p50;
            pes[pe].steal_splice_run_p99_ns = p99;
        }
        Summary { pes }
    }

    /// Total messages sent across PEs.
    pub fn total_sends(&self) -> u64 {
        self.pes.iter().map(|p| p.sends).sum()
    }

    /// Total handler executions across PEs.
    pub fn total_handler_runs(&self) -> u64 {
        self.pes.iter().map(|p| p.handler_runs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_reports_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(0, 0, Event::Enqueue { handler: 1 }); // must not panic
    }

    #[test]
    fn memory_sink_stores_in_order() {
        let s = MemorySink::new(2, 16);
        s.record(
            0,
            10,
            Event::MsgSent {
                dst: 1,
                bytes: 8,
                handler: 3,
            },
        );
        s.record(1, 20, Event::BeginProcessing { handler: 3, src: 0 });
        s.record(1, 30, Event::EndProcessing { handler: 3 });
        assert_eq!(s.records(0).len(), 1);
        assert_eq!(s.records(1).len(), 2);
        let all = s.all_records();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn memory_sink_bounds_capacity() {
        let s = MemorySink::new(1, 3);
        for i in 0..10 {
            s.record(0, i, Event::Enqueue { handler: 0 });
        }
        assert_eq!(s.records(0).len(), 3);
        assert_eq!(s.dropped(), 7);
        // Oldest dropped: remaining timestamps are the last three.
        assert_eq!(s.records(0)[0].t_ns, 7);
    }

    #[test]
    fn memory_sink_drops_oldest_first_at_every_fill() {
        // The ring wraps several times; what is kept is always the
        // newest `capacity` records, in emission order, per PE.
        const CAP: u64 = 5;
        let s = MemorySink::new(2, CAP as usize);
        for i in 0..23u64 {
            s.record(0, i, Event::User { id: 0, data: i });
            if i % 3 == 0 {
                s.record(1, i, Event::User { id: 1, data: i });
            }
            let kept: Vec<u64> = s.records(0).iter().map(|r| r.t_ns).collect();
            let expect: Vec<u64> = (i.saturating_sub(CAP - 1)..=i).collect();
            assert_eq!(kept, expect, "after record {i}");
        }
        let other: Vec<u64> = s.records(1).iter().map(|r| r.t_ns).collect();
        assert_eq!(other, [9, 12, 15, 18, 21]);
        assert_eq!(s.dropped(), (23 - CAP) + (8 - CAP));
        let all = s.all_records();
        assert!(all.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn summary_counts_and_utilization() {
        let s = MemorySink::new(1, 64);
        s.record(0, 0, Event::BeginProcessing { handler: 1, src: 0 });
        s.record(0, 50, Event::EndProcessing { handler: 1 });
        s.record(
            0,
            60,
            Event::MsgSent {
                dst: 0,
                bytes: 1,
                handler: 1,
            },
        );
        s.record(0, 80, Event::BeginProcessing { handler: 1, src: 0 });
        s.record(0, 100, Event::EndProcessing { handler: 1 });
        let sum = s.summary();
        let p = &sum.pes[0];
        assert_eq!(p.handler_runs, 2);
        assert_eq!(p.sends, 1);
        assert_eq!(p.busy_ns, 70);
        assert!((p.utilization - 0.7).abs() < 1e-9);
        assert_eq!(sum.total_handler_runs(), 2);
    }

    #[test]
    fn text_sink_formats_lines() {
        let s = TextSink::new();
        s.record(2, 99, Event::ThreadCreate { tid: 5 });
        s.record(2, 100, Event::User { id: 1, data: 42 });
        let text = s.text();
        assert!(text.contains("2 99 THCREATE tid=5"));
        assert!(text.contains("2 100 USER id=1 data=42"));
    }

    #[test]
    fn thread_switch_formats_and_summarizes() {
        let s = TextSink::new();
        s.record(
            1,
            8,
            Event::ThreadSwitch {
                backend: "fiber",
                direct_handoff: true,
            },
        );
        assert!(s.text().contains("1 8 THSWITCH backend=fiber direct=true"));

        let recs = vec![
            Record {
                pe: 0,
                t_ns: 1,
                event: Event::ThreadSwitch {
                    backend: "fiber",
                    direct_handoff: true,
                },
            },
            Record {
                pe: 0,
                t_ns: 2,
                event: Event::ThreadSwitch {
                    backend: "fiber",
                    direct_handoff: false,
                },
            },
        ];
        let sum = Summary::from_records(1, &recs);
        assert_eq!(sum.pes[0].thread_switches, 2);
        assert_eq!(sum.pes[0].direct_handoffs, 1);
    }

    #[test]
    fn summary_handles_unbalanced_begin() {
        // An unmatched Begin contributes no busy time and must not panic.
        let recs = vec![Record {
            pe: 0,
            t_ns: 5,
            event: Event::BeginProcessing { handler: 0, src: 0 },
        }];
        let sum = Summary::from_records(1, &recs);
        assert_eq!(sum.pes[0].busy_ns, 0);
    }

    #[test]
    fn msg_pool_snapshot_formats_and_summarizes() {
        let s = TextSink::new();
        s.record(
            1,
            7,
            Event::MsgPool {
                hits: 10,
                misses: 2,
                recycled: 9,
                discarded: 1,
            },
        );
        assert!(s
            .text()
            .contains("1 7 MSGPOOL hits=10 misses=2 recycled=9 discarded=1"));

        let recs = vec![
            Record {
                pe: 0,
                t_ns: 1,
                event: Event::MsgPool {
                    hits: 3,
                    misses: 4,
                    recycled: 0,
                    discarded: 0,
                },
            },
            // Later snapshot supersedes (counters are cumulative).
            Record {
                pe: 0,
                t_ns: 2,
                event: Event::MsgPool {
                    hits: 8,
                    misses: 5,
                    recycled: 2,
                    discarded: 0,
                },
            },
        ];
        let sum = Summary::from_records(1, &recs);
        assert_eq!(sum.pes[0].pool_hits, 8);
        assert_eq!(sum.pes[0].pool_misses, 5);
    }

    #[test]
    fn sched_batch_formats_and_summarizes() {
        let s = TextSink::new();
        s.record(
            3,
            21,
            Event::SchedBatch {
                drained: 17,
                spin_iters: 40,
            },
        );
        assert!(s.text().contains("3 21 SCHEDBATCH drained=17 spin=40"));

        let mk = |drained, spin_iters| Record {
            pe: 0,
            t_ns: 1,
            event: Event::SchedBatch {
                drained,
                spin_iters,
            },
        };
        let sum = Summary::from_records(1, &[mk(4, 160), mk(12, 0)]);
        assert_eq!(sum.pes[0].sched_batches, 2);
        assert_eq!(sum.pes[0].batch_drained, 16);
        assert_eq!(sum.pes[0].idle_spins, 160);
    }

    #[test]
    fn steal_and_migrate_events_format_and_summarize() {
        let s = TextSink::new();
        s.record(
            2,
            9,
            Event::Steal {
                victim: 0,
                thief: 2,
                batch: 5,
            },
        );
        s.record(
            0,
            11,
            Event::Migrate {
                obj: 3,
                from: 0,
                to: 1,
            },
        );
        let text = s.text();
        assert!(text.contains("2 9 STEAL victim=0 thief=2 batch=5"));
        assert!(text.contains("0 11 MIGRATE obj=3 from=0 to=1"));

        let recs = vec![
            Record {
                pe: 2,
                t_ns: 1,
                event: Event::Steal {
                    victim: 0,
                    thief: 2,
                    batch: 5,
                },
            },
            Record {
                pe: 2,
                t_ns: 2,
                event: Event::Steal {
                    victim: 1,
                    thief: 2,
                    batch: 3,
                },
            },
            Record {
                pe: 0,
                t_ns: 3,
                event: Event::Migrate {
                    obj: 3,
                    from: 0,
                    to: 1,
                },
            },
        ];
        let sum = Summary::from_records(3, &recs);
        assert_eq!(sum.pes[2].steals, 2);
        assert_eq!(sum.pes[2].stolen_msgs, 8);
        assert_eq!(sum.pes[0].migrations, 1);
        assert_eq!(sum.pes[1].steals, 0);
    }

    #[test]
    fn fault_events_format_and_summarize() {
        let s = TextSink::new();
        s.record(
            0,
            11,
            Event::Fault {
                kind: FaultKind::Drop,
                src: 0,
                dst: 3,
                seq: 42,
            },
        );
        assert!(s.text().contains("0 11 FAULT kind=drop src=0 dst=3 seq=42"));

        let mk = |pe, kind| Record {
            pe,
            t_ns: 1,
            event: Event::Fault {
                kind,
                src: pe,
                dst: 1,
                seq: 0,
            },
        };
        let recs = vec![
            mk(0, FaultKind::Drop),
            mk(0, FaultKind::Retransmit),
            mk(0, FaultKind::Retransmit),
            mk(0, FaultKind::Duplicate),
            mk(0, FaultKind::Delay),
            mk(1, FaultKind::DedupDrop),
            mk(1, FaultKind::Supersede),
        ];
        let sum = Summary::from_records(2, &recs);
        assert_eq!(sum.pes[0].net_dropped, 1);
        assert_eq!(sum.pes[0].net_retransmitted, 2);
        assert_eq!(sum.pes[0].net_duplicated, 1);
        assert_eq!(sum.pes[0].net_delayed, 1);
        assert_eq!(sum.pes[1].net_dedup_dropped, 1);
        assert_eq!(sum.pes[1].net_superseded, 1);
    }

    #[test]
    fn record_clone_eq() {
        let r = Record {
            pe: 1,
            t_ns: 123,
            event: Event::MsgSent {
                dst: 0,
                bytes: 9,
                handler: 2,
            },
        };
        assert_eq!(r.clone(), r);
    }
}
