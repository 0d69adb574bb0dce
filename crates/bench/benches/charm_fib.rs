//! End-to-end message-driven-object throughput: the classic chare
//! Fibonacci tree under each seed load-balancing strategy. Measures
//! chares-per-second through the full stack (seed deposit → balancer →
//! scheduler → constructor → entry methods → quiescence), the workload
//! class the paper's §3.3.1 strategies exist to serve.

use converse_charm::{Chare, ChareId, Charm};
use converse_core::{csd_scheduler, Message, Pe};
use converse_ldb::LdbPolicy;
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::Priority;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Fib {
    pending: u8,
    acc: u64,
    parent: Option<ChareId>,
    root_report: Option<u32>,
}

impl Chare for Fib {
    fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self {
        let mut u = Unpacker::new(payload);
        let n = u.u64().expect("n");
        let kind = u.u32().expect("kind");
        let has_parent = u.u8().expect("flag") == 1;
        let (parent, root_report) = if has_parent {
            (ChareId::decode(u.raw(16).expect("id")), None)
        } else {
            (None, Some(u.u32().expect("report")))
        };
        let mut me = Fib {
            pending: 0,
            acc: 0,
            parent,
            root_report,
        };
        if n < 2 {
            me.finish(pe, n);
        } else {
            let charm = Charm::get(pe);
            for k in [n - 1, n - 2] {
                let child = Packer::new()
                    .u64(k)
                    .u32(kind)
                    .u8(1)
                    .raw(&self_id.encode())
                    .finish();
                charm.create(pe, converse_charm::ChareKind(kind), &child, Priority::None);
                me.pending += 1;
            }
        }
        me
    }

    fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
        self.acc += u64::from_le_bytes(payload.try_into().expect("value"));
        self.pending -= 1;
        if self.pending == 0 {
            let v = self.acc;
            self.finish(pe, v);
        }
    }
}

impl Fib {
    fn finish(&mut self, pe: &Pe, value: u64) {
        let charm = Charm::get(pe);
        match (self.parent, self.root_report) {
            (Some(p), _) => charm.send(pe, p, 0, &value.to_le_bytes(), Priority::None),
            (None, Some(h)) => pe.sync_send_and_free(
                0,
                Message::new(converse_core::HandlerId(h), &value.to_le_bytes()),
            ),
            _ => unreachable!(),
        }
    }
}

/// Run fib(n) on 4 PEs under `policy`; returns (elapsed, chares built).
fn fib_run(n: u64, policy: LdbPolicy) -> (Duration, u64) {
    let elapsed = Arc::new(AtomicU64::new(0));
    let chares = Arc::new(AtomicU64::new(0));
    let (e2, c2) = (elapsed.clone(), chares.clone());
    converse_core::run(4, move |pe| {
        let charm = Charm::install(pe, policy);
        let kind = charm.register::<Fib>(pe);
        let report = pe.register_handler(move |pe, msg| {
            let v = u64::from_le_bytes(msg.payload().try_into().expect("result"));
            std::hint::black_box(v);
            Charm::get(pe).exit_all(pe);
        });
        pe.barrier();
        let t0 = Instant::now();
        if pe.my_pe() == 0 {
            let payload = Packer::new()
                .u64(n)
                .u32(kind.0)
                .u8(0)
                .u32(report.0)
                .finish();
            charm.create(pe, kind, &payload, Priority::None);
        }
        csd_scheduler(pe, -1);
        if pe.my_pe() == 0 {
            e2.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        }
        c2.fetch_add(charm.chares_created(pe), Ordering::SeqCst);
        pe.barrier();
    });
    (
        Duration::from_nanos(elapsed.load(Ordering::SeqCst)),
        chares.load(Ordering::SeqCst),
    )
}

fn main() {
    let policies: [(&str, LdbPolicy); 3] = [
        ("direct", LdbPolicy::Direct),
        ("random", LdbPolicy::Random { seed: 2 }),
        (
            "spray",
            LdbPolicy::Spray {
                threshold: 8,
                max_hops: 3,
            },
        ),
    ];
    println!("\nfib(16) wall time on 4 PEs (mean of 5):");
    for (name, policy) in policies {
        let mut total = Duration::ZERO;
        for _ in 0..5 {
            total += fib_run(16, policy).0;
        }
        println!("{:>8} {:>12.2?}", name, total / 5);
    }

    println!("\nChare throughput, fib(18) on 4 PEs:");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "policy", "chares", "time", "chares/s"
    );
    for (name, policy) in policies {
        let (t, n) = fib_run(18, policy);
        println!(
            "{:>8} {:>12} {:>12.2?} {:>14.0}",
            name,
            n,
            t,
            n as f64 / t.as_secs_f64()
        );
    }
}
