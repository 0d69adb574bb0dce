//! CCS: serve external request traffic into a running 4-PE machine.
//!
//! A `CcsServer` is attached to the machine before boot; it owns a TCP
//! listener on an OS thread, decodes `{handler-name, dest-PE, payload}`
//! frames, and injects each request into the destination PE's mailbox,
//! where it is scheduled exactly like a native Converse message. This
//! example registers a plain Converse handler ("stats") and exports a
//! chare entry method ("kv.put" / "kv.get" via one dispatcher), then
//! drives both from an in-process `CcsClient` over real TCP.
//!
//! ```sh
//! cargo run --example ccs_server
//! ```

use converse::ccs::{self, CcsClient, CcsRegistry, CcsServer, CcsServerConfig};
use converse::charm::{Chare, ChareId, Charm};
use converse::ldb::LdbPolicy;
use converse::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const STORE_KEY: u32 = 1;
const EP_REQUEST: u32 = 0;

/// A tiny key-value chare: the parallel machine's "service state".
/// Requests arrive through the CCS bridge carrying a reply token, so
/// the entry method answers the external client directly.
struct KvStore {
    map: HashMap<String, Vec<u8>>,
}

impl Chare for KvStore {
    fn new(pe: &Pe, self_id: ChareId, _payload: &[u8]) -> Self {
        Charm::get(pe).publish_readonly(pe, STORE_KEY, &self_id.encode());
        pe.cmi_printf(format!("kv store chare created on PE {}", pe.my_pe()));
        KvStore {
            map: HashMap::new(),
        }
    }

    fn entry(&mut self, pe: &Pe, _id: ChareId, ep: u32, payload: &[u8]) {
        assert_eq!(ep, EP_REQUEST);
        let (token, body) = ccs::entry_request(payload).expect("bridged request");
        // body: op byte, then "key[=value]".
        let (op, rest) = body.split_first().expect("op byte");
        let text = String::from_utf8_lossy(rest);
        match op {
            b'P' => {
                let (k, v) = text.split_once('=').expect("PUT key=value");
                self.map.insert(k.to_string(), v.as_bytes().to_vec());
                ccs::send_reply(pe, token, b"stored");
            }
            b'G' => match self.map.get(text.as_ref()) {
                Some(v) => ccs::send_reply(pe, token, v),
                None => ccs::send_error(pe, token, ccs::status::UNKNOWN_HANDLER, "no such key"),
            },
            _ => ccs::send_error(pe, token, ccs::status::MALFORMED, "bad op"),
        }
    }
}

fn main() {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    // The external client: a plain OS thread talking TCP, standing in
    // for a process outside the parallel machine entirely.
    let client = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        println!("client: connecting to {addr}");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Give the PEs a moment to register names; retry on the races.
        let stats = loop {
            match c.call("stats", 2, b"") {
                Ok(r) => break r,
                Err(ccs::CcsError::Status { .. }) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => panic!("stats call failed: {e}"),
            }
        };
        println!(
            "client: PE 2 reports \"{}\"",
            String::from_utf8_lossy(&stats)
        );

        // Drive the chare: three PUTs pipelined, then a GET.
        let t1 = c.submit("kv", 0, b"Palpha=1").unwrap();
        let t2 = c.submit("kv", 1, b"Pbeta=2").unwrap();
        let t3 = c.submit("kv", 3, b"Pgamma=3").unwrap();
        for t in [t1, t2, t3] {
            assert_eq!(c.wait_ok(t).unwrap(), b"stored");
        }
        let v = c.call("kv", 2, b"Gbeta").unwrap();
        println!("client: kv[beta] = {}", String::from_utf8_lossy(&v));
        assert_eq!(v, b"2");

        // Fire-and-forget shutdown (no reply: an exit broadcast can
        // overtake its own reply under relaxed delivery).
        let _ = c.submit("shutdown", 0, b"");
        println!("client: done, machine asked to exit");
    });

    let report =
        converse::core::run_with(MachineConfig::new(4).attach(Box::new(server)), move |pe| {
            let charm = Charm::install(pe, LdbPolicy::Direct);
            let kind = charm.register::<KvStore>(pe);

            // CCS names — registered in the SAME order on every PE, the
            // usual Converse handler-table discipline.
            registry.register(pe, "stats", |pe, _msg| {
                let token = ccs::current_token(pe).expect("gateway dispatch");
                let reply = format!("pe {}/{} serving", pe.my_pe(), pe.num_pes());
                ccs::send_reply(pe, token, reply.as_bytes());
            });
            registry.register(pe, "shutdown", |pe, _msg| {
                Charm::get(pe).exit_all(pe);
            });
            ccs::export_chare_entry(pe, &registry, "kv", STORE_KEY, EP_REQUEST);

            pe.barrier();
            if pe.my_pe() == 0 {
                charm.create(pe, kind, &[], Priority::None);
            }
            charm.readonly_wait(pe, STORE_KEY);
            pe.barrier();
            // Message-driven from here on: every PE serves external
            // requests until the shutdown broadcast.
            csd_scheduler(pe, -1);
        });

    client.join().expect("client thread");
    println!(
        "machine ran: {} messages, {} bytes, {:?}",
        report.total_msgs(),
        report.total_bytes(),
        report.elapsed
    );
}
