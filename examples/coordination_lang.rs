//! The §4 "new language in a day" demonstration: "consider a small
//! *coordination language* that supports simple message-driven threads.
//! Threads can be dynamically created and can send messages with a
//! single tag to other threads. Individual threads can block for a
//! specific message (with a particular tag) … By using the facilities by
//! the message manager and thread object, as well as the Converse
//! scheduler, one of us was able to implement this language in about a
//! day's time. The entire runtime for this language consists of about
//! 100 lines of C code."
//!
//! The `mdt` module below is that whole language runtime, built from the
//! same three components (Cmm message manager + Cth thread object + Csd
//! scheduler). Its line count — comments and all — is printed at the
//! end; EXPERIMENTS.md records it against the paper's claim.
//!
//! ```sh
//! cargo run --example coordination_lang
//! ```

/// The complete runtime of the MDT ("message-driven threads")
/// coordination language.
mod mdt {
    use converse::machine::{HandlerId, Message, Pe};
    use converse::msgmgr::{MsgManager, WILDCARD};
    use converse::threads::{cth_awaken, cth_self, cth_suspend, CthRuntime, Thread};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Receive-any tag selector.
    pub const ANY: i32 = WILDCARD;

    struct Waiter {
        tag: i32,
        thread: Thread,
    }

    /// Per-PE language runtime: a mailbox and the blocked threads.
    pub struct Mdt {
        data_h: HandlerId,
        mailbox: Mutex<MsgManager<Vec<u8>>>,
        waiters: Mutex<Vec<Waiter>>,
    }

    struct Slot(Arc<Mdt>);

    impl Mdt {
        /// Install on this PE (same registration order machine-wide).
        pub fn install(pe: &Pe) -> Arc<Mdt> {
            if let Some(s) = pe.try_local::<Slot>() {
                return s.0.clone();
            }
            let data_h = pe.register_handler(|pe, msg| {
                let mdt = Mdt::get(pe);
                let tag = i32::from_le_bytes(msg.payload()[..4].try_into().unwrap());
                mdt.mailbox.lock().put(&[tag], msg.payload()[4..].to_vec());
                let mut ws = mdt.waiters.lock();
                if let Some(i) = ws.iter().position(|w| w.tag == ANY || w.tag == tag) {
                    let t = ws.remove(i).thread;
                    drop(ws);
                    cth_awaken(pe, &t);
                }
            });
            let mdt = Arc::new(Mdt {
                data_h,
                mailbox: Mutex::new(MsgManager::new()),
                waiters: Mutex::new(Vec::new()),
            });
            pe.local(|| Slot(mdt.clone()));
            mdt
        }

        /// The runtime previously installed here.
        pub fn get(pe: &Pe) -> Arc<Mdt> {
            pe.try_local::<Slot>()
                .expect("Mdt::install first")
                .0
                .clone()
        }

        /// Dynamically create a language thread, scheduled by Csd.
        pub fn spawn<F: FnOnce(&Pe) + Send + 'static>(&self, pe: &Pe, f: F) -> Thread {
            CthRuntime::get(pe).spawn_scheduled(pe, f)
        }

        /// Send `data` with a single `tag` to (any thread on) PE `dst`.
        pub fn send(&self, pe: &Pe, dst: usize, tag: i32, data: &[u8]) {
            let mut payload = tag.to_le_bytes().to_vec();
            payload.extend_from_slice(data);
            pe.sync_send_and_free(dst, Message::new(self.data_h, &payload));
        }

        /// Block the calling thread for a message with `tag`.
        pub fn recv(&self, pe: &Pe, tag: i32) -> Vec<u8> {
            loop {
                if let Some(s) = self.mailbox.lock().get(&[tag]) {
                    return s.item;
                }
                let me = cth_self(pe).expect("mdt::recv runs inside a thread");
                self.waiters.lock().push(Waiter { tag, thread: me });
                cth_suspend(pe);
            }
        }
    }
}

use converse::prelude::*;
use converse::threads::CthBackend;
use mdt::Mdt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn main() {
    // A ring of threads across 4 PEs: each waits for its tag, bumps the
    // token, and forwards it to the next PE; 3 laps around the ring.
    // Run once per available thread backend: the language runtime above
    // is written purely against the `cth_*` API, so the same code rides
    // ~20 ns fiber switches or ~10 µs OS hand-offs unchanged.
    for &backend in CthBackend::available() {
        run_ring(backend);
    }

    // Count the language runtime's lines, as the paper did.
    let src = include_str!("coordination_lang.rs");
    let lang_lines = src
        .lines()
        .skip_while(|l| !l.starts_with("mod mdt"))
        .take_while(|l| !l.starts_with("use converse::prelude"))
        .count();
    println!(
        "the MDT coordination language runtime is {lang_lines} lines of Rust \
         (paper: \"about 100 lines of C\")"
    );
}

fn run_ring(backend: CthBackend) {
    let final_token = Arc::new(AtomicU64::new(0));
    let f2 = final_token.clone();
    let cfg = MachineConfig::new(4).thread_backend(backend.to_config());
    converse::core::run_with(cfg, move |pe| {
        let mdt = Mdt::install(pe);
        let n = pe.num_pes();
        let laps = 3u64;
        let f3 = f2.clone();
        let m2 = mdt.clone();
        mdt.spawn(pe, move |pe| {
            let me = pe.my_pe();
            for _ in 0..laps {
                let token = u64::from_le_bytes(m2.recv(pe, 1).try_into().unwrap());
                let next = (me + 1) % n;
                if token + 1 == laps * n as u64 {
                    // Last hop: report and stop everyone.
                    f3.store(token + 1, Ordering::SeqCst);
                    pe.cmi_printf(format!("ring complete: token reached {}", token + 1));
                } else {
                    m2.send(pe, next, 1, &(token + 1).to_le_bytes());
                }
            }
            csd_exit_scheduler(pe);
        });
        pe.barrier();
        if pe.my_pe() == 0 {
            mdt.send(pe, 1, 1, &0u64.to_le_bytes());
        }
        csd_scheduler(pe, -1);
        // After our own thread exits, drain any leftover messages so the
        // machine shuts down cleanly.
        csd_scheduler_until_idle(pe);
    });
    assert_eq!(final_token.load(Ordering::SeqCst), 12);
    println!(
        "[{}] ring of 4 PEs x 3 laps complete — same language code, \
         different switch constant",
        backend.label()
    );
}
