//! Span bookkeeping: nesting, self time, the wire format, the trace file.

use converse_benchmark::spans::{
    chrome_trace, decode, encode, self_times, wake_latency_ns, Name, Overhead, Span, Tracer, BURST,
    ROOT,
};
use std::collections::BTreeMap;

const FREE: Overhead = Overhead {
    inside_ns: 0.0,
    outside_ns: 0.0,
};

fn span(name: Name, start_ns: u64, end_ns: u64, parent: u32, op: u32) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    let spans = [
        span(Name::Sched, 0, 1000, ROOT, 1),
        span(Name::Handler, 100, 400, 0, 1),
        span(Name::Enqueue, 200, 300, 1, 1),
        span(Name::Handler, 500, 700, 0, 1),
    ];
    let st = self_times(&spans, FREE);
    assert_eq!(st[&Name::Sched].self_ns, 500.0);
    assert_eq!(st[&Name::Handler].self_ns, 200.0 + 200.0);
    assert_eq!(st[&Name::Handler].count, 2);
    assert_eq!(st[&Name::Enqueue].self_ns, 100.0);
    assert_eq!(st[&Name::Sched].total_ns, 1000.0);
}

#[test]
fn recording_cost_is_subtracted_where_it_landed_and_never_goes_negative() {
    let spans = [
        span(Name::Sched, 0, 1000, ROOT, 1),
        span(Name::Handler, 100, 400, 0, 1),
        span(Name::Handler, 500, 510, 0, 1),
    ];
    let cost = Overhead {
        inside_ns: 20.0,
        outside_ns: 30.0,
    };
    let st = self_times(&spans, cost);
    // 1000 − 310 children − 20 own − 2 × 30 for the children.
    assert_eq!(st[&Name::Sched].self_ns, 610.0);
    // 300 − 20, and 10 − 20 clamped to 0.
    assert_eq!(st[&Name::Handler].self_ns, 280.0);
}

#[test]
fn wake_latency_pairs_awaken_and_body_by_op() {
    let spans = [
        span(Name::Awaken, 100, 150, ROOT, 7),
        span(Name::ThreadBody, 400, 500, ROOT, 7),
        span(Name::Awaken, 1000, 1100, ROOT, 8),
        span(Name::ThreadBody, 1200, 1300, ROOT, 8),
        span(Name::ThreadBody, 5000, 5100, ROOT, 9), // no awaken recorded
    ];
    assert_eq!(wake_latency_ns(&spans, FREE), Some((250.0 + 100.0) / 2.0));
    assert_eq!(wake_latency_ns(&spans[..1], FREE), None);
}

#[test]
fn tracer_nests_spans_and_samples_bursts_of_rounds() {
    let t = Tracer::new(256, 2, 0);
    for round in 0..40u32 {
        t.begin_round(10);
        {
            let _outer = t.span(Name::Sched, round);
            let _inner = t.span(Name::Handler, round);
        }
        t.end_round();
    }
    // Outside a round nothing is recorded.
    drop(t.span(Name::Send, 99));
    let taken = t.take();
    // BURST of every 2 × BURST rounds: 0..16 and 32..40.
    let sampled: Vec<u32> = (0..BURST as u32).chain(32..40).collect();
    assert_eq!(taken.sampled_ops, 10 * sampled.len() as u64);
    assert_eq!(taken.dropped, 0);
    let ops: Vec<u32> = taken.spans.iter().step_by(2).map(|s| s.op).collect();
    assert_eq!(ops, sampled);
    for pair in taken.spans.chunks(2) {
        assert_eq!((pair[0].name, pair[0].parent), (Name::Sched, ROOT));
        assert_eq!(pair[1].name, Name::Handler);
        assert_eq!(taken.spans[pair[1].parent as usize], pair[0]);
        assert!(pair[0].start_ns <= pair[1].start_ns && pair[1].end_ns <= pair[0].end_ns);
    }
    // Drained: the next segment starts empty and samples its first round.
    t.begin_round(1);
    drop(t.span(Name::Send, 5));
    t.end_round();
    assert_eq!(t.take().spans.len(), 1);
}

#[test]
fn a_full_buffer_counts_what_it_refuses() {
    let t = Tracer::new(2, 1, 0);
    t.begin_round(1);
    for op in 0..5 {
        drop(t.span(Name::Send, op));
    }
    t.end_round();
    let taken = t.take();
    assert_eq!(taken.spans.len(), 2);
    assert_eq!(taken.dropped, 3);
}

#[test]
fn spans_survive_the_line_protocol() {
    let s = span(Name::GraphRun, 123_456_789, 123_999_999, 4, 42);
    assert_eq!(decode(&encode(1, &s)), Some((1, s)));
    let root = span(Name::MsgNew, 1, 2, ROOT, 0);
    assert_eq!(decode(&encode(0, &root)), Some((0, root)));
    assert_eq!(decode("M 0 small.p10 312.5"), None);
    assert_eq!(decode("S 0 99 1 2 3 4"), None, "unknown span name");
}

#[test]
fn chrome_trace_has_one_complete_event_per_span() {
    let mut per_pe = BTreeMap::new();
    per_pe.insert(0, vec![span(Name::Sched, 1000, 3000, ROOT, 1)]);
    per_pe.insert(1, vec![span(Name::Handler, 1500, 2500, 0, 1)]);
    let json = chrome_trace(&per_pe);
    assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    assert!(json.contains("\"name\":\"core.sched\",\"ph\":\"X\",\"pid\":0"));
    assert!(json.contains("\"ts\":1.500,\"dur\":1.000"));
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}
