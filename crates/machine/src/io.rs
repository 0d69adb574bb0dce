//! Atomic console I/O (paper §3.1.3, appendix §3.7).
//!
//! "The CmiPrintf and CmiScanf calls provide atomic writes and reads to
//! standard output and input … the MMI guarantees that data from two
//! separate printfs is not interleaved. Similarly, the scanf calls from
//! different sources are effectively serialized."
//!
//! Output from all PEs funnels through one machine-wide lock, so each
//! `cmi_printf` emits atomically. For tests the machine can capture
//! output in memory instead of writing to the process stdout, and input
//! is an injectable queue of lines consumed by `cmi_scanf_line` in
//! arrival order (the serialization the paper requires falls out of the
//! single queue).

use crate::pe::Pe;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::Write;
use std::time::Duration;

pub(crate) enum ConsoleOut {
    /// Forward to the real process stdout/stderr.
    Real,
    /// Capture lines in memory (tests, RunReport).
    Capture(Vec<String>),
}

pub(crate) struct Console {
    out: Mutex<ConsoleOut>,
    input: Mutex<VecDeque<String>>,
    input_cv: Condvar,
    input_closed: Mutex<bool>,
}

impl Console {
    pub(crate) fn new(capture: bool, stdin_lines: Vec<String>) -> Console {
        Console {
            out: Mutex::new(if capture {
                ConsoleOut::Capture(Vec::new())
            } else {
                ConsoleOut::Real
            }),
            input: Mutex::new(stdin_lines.into()),
            input_cv: Condvar::new(),
            input_closed: Mutex::new(false),
        }
    }

    fn write_line(&self, line: &str, err: bool) {
        let mut out = self.out.lock();
        match &mut *out {
            ConsoleOut::Real => {
                if err {
                    let mut h = std::io::stderr().lock();
                    let _ = writeln!(h, "{line}");
                } else {
                    let mut h = std::io::stdout().lock();
                    let _ = writeln!(h, "{line}");
                }
            }
            ConsoleOut::Capture(buf) => buf.push(line.to_string()),
        }
    }

    pub(crate) fn captured(&self) -> Vec<String> {
        match &*self.out.lock() {
            ConsoleOut::Capture(buf) => buf.clone(),
            ConsoleOut::Real => Vec::new(),
        }
    }

    pub(crate) fn close_input(&self) {
        *self.input_closed.lock() = true;
        // Lock the queue so a reader between check and wait sees it.
        let _q = self.input.lock();
        self.input_cv.notify_all();
    }

    fn read_line(&self, pe: &Pe) -> Option<String> {
        let since = std::time::Instant::now();
        let mut q = self.input.lock();
        loop {
            if let Some(l) = q.pop_front() {
                return Some(l);
            }
            if *self.input_closed.lock() {
                return None;
            }
            pe.watchdog(since);
            self.input_cv.wait_for(&mut q, Duration::from_millis(20));
        }
    }
}

impl Pe {
    /// Atomic line write to standard output (`CmiPrintf`). The line is
    /// emitted whole; concurrent prints from other PEs never interleave
    /// within it.
    pub fn cmi_printf(&self, line: impl AsRef<str>) {
        self.shared.console.write_line(line.as_ref(), false);
    }

    /// Atomic line write to standard error (`CmiError`).
    pub fn cmi_error(&self, line: impl AsRef<str>) {
        self.shared.console.write_line(line.as_ref(), true);
    }

    /// Blocking read of one input line (`CmiScanf`): the calling PE
    /// blocks until a line is available; lines from the shared input are
    /// handed out in order, one per call, machine-wide. Returns `None`
    /// once input is exhausted and closed.
    pub fn cmi_scanf_line(&self) -> Option<String> {
        self.shared.console.read_line(self)
    }

    /// Non-blocking scanf (the paper's handler-based variant): if a line
    /// is available now it is sent to `handler` on this PE as a message
    /// whose payload is the line's bytes, and true is returned; otherwise
    /// false, and the caller may retry.
    pub fn cmi_scanf_to_handler(&self, handler: converse_msg::HandlerId) -> bool {
        let line = {
            let mut q = self.shared.console.input.lock();
            q.pop_front()
        };
        match line {
            Some(l) => {
                let msg = converse_msg::Message::new(handler, l.as_bytes());
                self.sync_send_and_free(self.my_pe(), msg);
                true
            }
            None => false,
        }
    }
}
