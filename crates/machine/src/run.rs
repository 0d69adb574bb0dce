//! Machine start-up and tear-down (`ConverseInit` / `ConverseExit`).
//!
//! [`run`] boots a simulated machine: it builds one [`Interconnect`] and
//! spawns one OS thread per PE, each constructing its [`Pe`] (which
//! registers the machine-internal handlers in a fixed order) and then
//! executing the user's entry function — the moral equivalent of `main`
//! after `ConverseInit` in a C Converse program. When the last PE's
//! entry returns, the machine closes and [`RunReport`] is produced.
//!
//! A panic on any PE marks the whole machine panicked and closes the
//! interconnect so PEs blocked in machine-level loops abort promptly
//! instead of hanging; the panic that caused it is re-raised to the caller.

use crate::exo::{MachineHandle, MachineService};
pub use crate::pe::ThreadBackend;
use crate::pe::{MachineShared, Pe, PeerAbort};
use converse_net::{
    Channel, CmiTransport, Delivery, DeliveryMode, FaultPlan, FaultStats, Interconnect, PeTraffic,
};
use converse_trace::{NullSink, TraceSink};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which transport carries the machine's messages — the `MachineConfig`
/// axis that decides whether PEs are threads or processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Every PE is a thread of this process behind one
    /// [`Interconnect`] — the fast path and the test default.
    #[default]
    InProcess,
    /// Every PE is a separate OS process connected to a launcher-side
    /// hub over a real socket (TCP loopback); see `converse-wire`. The
    /// current process becomes the launcher: it re-executes itself once
    /// per rank with the `CONVERSE_WORKER` role, routes frames, and
    /// aggregates the [`RunReport`].
    Socket,
    /// Like [`Transport::Socket`], but the *data plane* is a
    /// shared-memory region of lock-free SPSC byte rings (one per
    /// ordered PE pair, `memfd_create` + `mmap`): DATA/INJECT/STALL/DONATE
    /// frames travel peer-to-peer through the rings while the hub
    /// socket is demoted to a control plane (HELLO/GO bootstrap,
    /// EXIT/FIN/ABORT teardown, crash detection) plus overflow path
    /// for frames larger than one ring. Linux x86-64/aarch64 only —
    /// elsewhere `try_run_with` reports [`RunError::Bootstrap`]; see
    /// [`converse_wire::SHM_SUPPORTED`].
    ShmRing,
}

impl Transport {
    /// All transports usable on this host, in canonical order —
    /// what [`run_on_each_transport`] iterates. Three-way on Linux
    /// x86-64/aarch64 (in-process, socket, shared-memory rings),
    /// two-way elsewhere.
    pub fn each() -> &'static [Transport] {
        if converse_wire::SHM_SUPPORTED {
            &[Transport::InProcess, Transport::Socket, Transport::ShmRing]
        } else {
            &[Transport::InProcess, Transport::Socket]
        }
    }
}

/// Why a machine run failed to produce a report. Worker *panics* are
/// not errors — they propagate as panics, exactly as on the in-process
/// transport.
#[derive(Debug)]
pub enum RunError {
    /// The machine never assembled: spawn/connect/handshake failed or
    /// timed out.
    Bootstrap(String),
    /// A worker process died mid-run without reporting (crash,
    /// kill -9). Surviving workers were torn down.
    WorkerCrashed {
        /// The dead worker's PE rank.
        rank: usize,
        /// Its exit code, when it exited by code.
        code: Option<i32>,
        /// The signal that killed it (Unix), e.g. 9 for SIGKILL.
        signal: Option<i32>,
        /// Human-readable context.
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Bootstrap(d) => write!(f, "machine bootstrap failed: {d}"),
            RunError::WorkerCrashed {
                rank,
                code,
                signal,
                detail,
            } => write!(
                f,
                "worker process for PE {rank} died (code {code:?}, signal {signal:?}): {detail}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Configuration of a simulated machine.
pub struct MachineConfig {
    /// Number of logical processors.
    pub num_pes: usize,
    /// Interconnect delivery-order policy.
    pub delivery: DeliveryMode,
    /// Optional deterministic fault plan: drops, duplication, bounded
    /// delay and scripted stalls, masked by the net's reliability
    /// sublayer. `None` = perfectly reliable wire, zero overhead.
    pub faults: Option<FaultPlan>,
    /// Trace sink shared by all PEs (default: the zero-cost null sink).
    pub trace: Arc<dyn TraceSink>,
    /// Lines pre-loaded into the machine's shared standard input.
    pub stdin_lines: Vec<String>,
    /// Capture `cmi_printf` output into the report instead of stdout.
    pub capture_output: bool,
    /// How long a blocking wait (the scheduler loop, a specific
    /// receive, a global-pointer wait, a collective) may go without
    /// taking a message before the PE panics. A deadlock detector for
    /// tests, not a semantic timeout.
    pub block_timeout: Duration,
    /// Idle-policy spin budget: an idle PE probes its (lock-free)
    /// mailbox depth this many times before parking on the condvar, so
    /// a message landing within the budget skips the condvar wakeup —
    /// the paper's "scheduling delta visible only for short messages"
    /// shape. `0` parks immediately (the pre-batching behavior). The
    /// default is `0` on a single-hardware-thread host (spinning there
    /// only steals the timeslice the sender needs to produce the very
    /// message being waited for) and 160 probes otherwise.
    pub idle_spin: u32,
    /// Background services (e.g. the CCS server) whose lifetime is
    /// bounded by this run: started before the PEs boot, stopped after
    /// every PE joined — on the panic path too.
    pub services: Vec<Box<dyn MachineService>>,
    /// Which backend implements thread objects (`cth_*`); see
    /// [`ThreadBackend`]. `Auto` (default) = fiber where supported,
    /// subject to the `CTH_BACKEND` environment override.
    pub thread_backend: ThreadBackend,
    /// Which transport carries messages: threads sharing one address
    /// space (default) or one OS process per PE over a real socket.
    pub transport: Transport,
    /// Named delivery channels (see [`MachineConfig::channel`]). Ids
    /// are assigned 1..N in declaration order; id 0 is always the
    /// default exactly-once channel.
    pub channels: Vec<(String, Delivery)>,
    /// Idle-PE work stealing: before parking, an idle PE asks the
    /// most-loaded peer to donate a batch of stealable messages it has
    /// not drained yet.
    /// Off by default.
    pub steal: bool,
}

/// Host-appropriate idle-spin default: 160 depth probes when real
/// parallelism is available, `0` (park immediately) when the host has a
/// single hardware thread — there, every spin iteration delays the
/// sender whose message would end the wait.
fn default_idle_spin() -> u32 {
    match std::thread::available_parallelism() {
        Ok(n) if n.get() > 1 => 160,
        _ => 0,
    }
}

impl MachineConfig {
    /// Defaults: FIFO delivery, no tracing, captured output off,
    /// 30-second block watchdog, and an idle spin budget picked for the
    /// host (160 probes, or 0 on a single hardware thread).
    pub fn new(num_pes: usize) -> Self {
        MachineConfig {
            num_pes,
            delivery: DeliveryMode::Fifo,
            faults: None,
            trace: Arc::new(NullSink),
            stdin_lines: Vec::new(),
            capture_output: false,
            block_timeout: Duration::from_secs(30),
            idle_spin: default_idle_spin(),
            services: Vec::new(),
            thread_backend: ThreadBackend::Auto,
            transport: Transport::default(),
            channels: Vec::new(),
            steal: false,
        }
    }

    /// Turn idle-PE work stealing on or off.
    pub fn steal(mut self, on: bool) -> Self {
        self.steal = on;
        self
    }

    /// Declare a named delivery channel with an explicit guarantee.
    /// Channels get ids 1..N in declaration order (the default
    /// exactly-once channel is id 0 and needs no declaration); every
    /// PE resolves the name with [`Pe::channel`]. Declaring the same
    /// name twice is a programming error.
    pub fn channel(mut self, name: &str, delivery: Delivery) -> Self {
        assert!(
            !self.channels.iter().any(|(n, _)| n == name),
            "delivery channel {name:?} declared twice"
        );
        self.channels.push((name.to_string(), delivery));
        self
    }

    /// Select the transport (threads in-process vs one process per PE).
    pub fn transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Set the delivery mode.
    pub fn delivery(mut self, d: DeliveryMode) -> Self {
        self.delivery = d;
        self
    }

    /// Install a deterministic fault plan (see [`FaultPlan`]).
    pub fn faults(mut self, p: FaultPlan) -> Self {
        self.faults = Some(p);
        self
    }

    /// Install a trace sink.
    pub fn trace(mut self, t: Arc<dyn TraceSink>) -> Self {
        self.trace = t;
        self
    }

    /// Pre-load standard-input lines.
    pub fn stdin(mut self, lines: Vec<String>) -> Self {
        self.stdin_lines = lines;
        self
    }

    /// Capture `cmi_printf` output into the [`RunReport`].
    pub fn capture_output(mut self) -> Self {
        self.capture_output = true;
        self
    }

    /// Change the blocking-call watchdog.
    pub fn block_timeout(mut self, t: Duration) -> Self {
        self.block_timeout = t;
        self
    }

    /// Change the idle-policy spin budget (`0` = park immediately).
    pub fn idle_spin(mut self, probes: u32) -> Self {
        self.idle_spin = probes;
        self
    }

    /// Pin the thread-object backend for this machine (overrides the
    /// `CTH_BACKEND` environment variable, which only applies under
    /// [`ThreadBackend::Auto`]).
    pub fn thread_backend(mut self, b: ThreadBackend) -> Self {
        self.thread_backend = b;
        self
    }

    /// Attach a background service to this machine's lifetime. While at
    /// least one service is attached, the watchdog of every blocking
    /// wait is suspended (an externally-driven PE legitimately idles).
    pub fn attach(mut self, svc: Box<dyn MachineService>) -> Self {
        self.services.push(svc);
        self
    }
}

/// What a machine run leaves behind.
#[derive(Debug)]
pub struct RunReport {
    /// Per-PE traffic counters.
    pub traffic: Vec<PeTraffic>,
    /// Aggregate fault-plane and reliability counters (all zero when no
    /// fault plan was installed).
    pub fault_stats: FaultStats,
    /// Captured `cmi_printf` lines (empty unless capture was enabled).
    pub output: Vec<String>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RunReport {
    /// Total messages sent machine-wide.
    pub fn total_msgs(&self) -> u64 {
        self.traffic.iter().map(|t| t.msgs_sent).sum()
    }

    /// Total bytes sent machine-wide.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.iter().map(|t| t.bytes_sent).sum()
    }
}

/// Stop `services` in reverse attach order, catching (and returning the
/// first of) any panic so one misbehaving service cannot prevent the
/// rest from releasing their threads and ports.
fn stop_services(
    services: &mut [Box<dyn MachineService>],
) -> Option<Box<dyn std::any::Any + Send>> {
    let mut first = None;
    for svc in services.iter_mut().rev() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.stop()));
        if let Err(p) = r {
            first.get_or_insert(p);
        }
    }
    first
}

/// Boot a machine of `num_pes` PEs with default configuration and run
/// `entry` on every PE (the `ConverseInit`-to-`ConverseExit` lifetime).
pub fn run<F>(num_pes: usize, entry: F) -> RunReport
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    run_with(MachineConfig::new(num_pes), entry)
}

/// Boot a machine with explicit configuration; see [`run`]. Panics on
/// [`RunError`] — use [`try_run_with`] to handle transport failures
/// (worker crashes, bootstrap timeouts) programmatically.
pub fn run_with<F>(cfg: MachineConfig, entry: F) -> RunReport
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    try_run_with(cfg, entry).unwrap_or_else(|e| panic!("{e}"))
}

/// Boot a machine with explicit configuration, surfacing transport
/// failures as [`RunError`] instead of panicking. A PE *panic* still
/// propagates as a panic on every transport (that is program failure,
/// not machine failure). On [`Transport::InProcess`] this never
/// returns `Err`.
pub fn try_run_with<F>(cfg: MachineConfig, entry: F) -> Result<RunReport, RunError>
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    match cfg.transport {
        Transport::InProcess => Ok(run_in_process(cfg, entry)),
        Transport::ShmRing if !converse_wire::SHM_SUPPORTED => Err(RunError::Bootstrap(
            "Transport::ShmRing requires Linux on x86-64/aarch64 \
             (memfd_create + futex); use Transport::Socket here"
                .into(),
        )),
        Transport::Socket | Transport::ShmRing => crate::wire_run::run_socket(cfg, entry),
    }
}

/// Run `entry` once per transport in [`Transport::each`], each time on
/// a fresh machine of `num_pes` PEs with that transport selected — the
/// cross-transport analogue of `converse_threads::run_on_each_backend`.
/// Code that passes here is proven equivalent with PEs as threads of
/// one process, as separate OS processes over a real socket, and (on
/// Linux x86-64/aarch64) as processes exchanging data through
/// shared-memory rings.
///
/// The entry function (and everything the program does before calling
/// this) must be deterministic: the socket transport re-executes the
/// calling binary once per rank to reach the same call site (see
/// [`Transport::Socket`]), and inside a worker process the in-process
/// iteration replays first.
pub fn run_on_each_transport<F>(num_pes: usize, entry: F)
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    let entry = Arc::new(entry);
    for &t in Transport::each() {
        let e = entry.clone();
        run_with(MachineConfig::new(num_pes).transport(t), move |pe| e(pe));
    }
}

impl MachineShared {
    /// The machine-wide state of one run, for a process that hosts
    /// `hosted` of its PEs (all of them in-process, one in a worker).
    /// Declared channels get their machine-wide ids here: 1..N in
    /// declaration order (0 is the default exactly-once channel). Every
    /// transport resolves from the same declaration list, so a name
    /// means the same `(id, guarantee)` on every rank of every wire.
    /// Called before the fault plan moves into the transport: whether a
    /// PE's self-sends may skip the mailbox is decided from it here.
    pub(crate) fn new(cfg: &MachineConfig, hosted: usize) -> Arc<MachineShared> {
        Arc::new(MachineShared {
            console: crate::io::Console::new(cfg.capture_output, cfg.stdin_lines.clone()),
            panicked: AtomicBool::new(false),
            live_pes: AtomicUsize::new(hosted),
            block_timeout: cfg.block_timeout,
            idle_spin: cfg.idle_spin,
            exo: crate::exo::ExoState::default(),
            thread_backend: cfg.thread_backend,
            channels: (cfg.channels.iter().zip(1..))
                .map(|((name, d), id)| (name.clone(), Channel::new(id, *d)))
                .collect(),
            steal: cfg.steal,
            self_lane: !cfg.steal && cfg.faults.is_none() && cfg.delivery == DeliveryMode::Fifo,
        })
    }
}

/// Give PE `id` its OS thread and live its life there, the same on
/// every transport: boot, the entry function, the exit hooks, the pool
/// trace. A panic in the entry *or* in a hook marks the machine failed
/// and closes it — blocked peers unwind through [`Pe::check_abort`]
/// instead of hanging — and is what the thread returns (the entry's, if
/// both panicked).
pub(crate) fn spawn_pe<F>(
    id: usize,
    net: Arc<dyn CmiTransport>,
    cfg: &MachineConfig,
    shared: &Arc<MachineShared>,
    entry: &Arc<F>,
) -> std::thread::JoinHandle<std::thread::Result<()>>
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    let (trace, shared, entry) = (cfg.trace.clone(), shared.clone(), entry.clone());
    let pe_main = move || {
        let pe = Pe::new(id, net, shared, trace);
        let guarded = |f: &dyn Fn(&Pe)| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&pe)));
            if r.is_err() {
                pe.abort_machine();
            }
            r
        };
        let entered = guarded(&*entry);
        // Exit hooks run on success AND failure: they release resources
        // (e.g. still-suspended thread objects) that would otherwise
        // leak OS threads.
        let hooks = guarded(&Pe::run_exit_hooks);
        // Final buffer-pool snapshot so traces carry the hit/miss
        // balance of this PE's whole lifetime.
        pe.trace_msg_pool();
        if pe.shared.live_pes.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last PE of this process out shuts its half of the machine
            // down, waking anything still blocked (e.g. a scanf on
            // exhausted input).
            pe.net().local().close();
            pe.shared.console.close_input();
        }
        entered.and(hooks)
    };
    std::thread::Builder::new()
        .name(format!("pe{id}"))
        .spawn(pe_main)
        .expect("spawn PE thread")
}

/// The in-process machine: one thread per PE over one [`Interconnect`].
/// Also the body each socket-transport *worker process* would have run
/// had it been in-process — the shared semantics both transports pin.
pub(crate) fn run_in_process<F>(mut cfg: MachineConfig, entry: F) -> RunReport
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    assert!(cfg.num_pes > 0, "a machine needs at least one PE");
    let shared = MachineShared::new(&cfg, cfg.num_pes);
    let net = Interconnect::with_config(
        cfg.num_pes,
        cfg.delivery,
        cfg.faults.take(),
        Some(cfg.trace.clone()),
    );
    let mut services = std::mem::take(&mut cfg.services);
    shared.exo.services.store(services.len(), Ordering::Release);
    let handle = MachineHandle {
        net: net.clone(),
        shared: shared.clone(),
        exo_req: crate::pe::INTERNAL_LAYOUT.exo_req,
    };
    for i in 0..services.len() {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            services[i].start(&handle);
        }));
        if let Err(p) = r {
            // A service failed to boot: tear down the ones already up
            // (no PEs exist yet), then surface the failure.
            stop_services(&mut services[..i]);
            std::panic::resume_unwind(p);
        }
    }
    let entry = Arc::new(entry);
    let started = std::time::Instant::now();
    let joins: Vec<_> = (0..cfg.num_pes)
        .map(|id| spawn_pe(id, net.clone(), &cfg, &shared, &entry))
        .collect();

    // What the caller gets is a root cause: it replaces a bystander's
    // `PeerAbort` marker whatever the rank order; otherwise the first
    // failure in rank order stays.
    let mut failure: Option<Box<dyn std::any::Any + Send>> = None;
    let mut keep = |p: Box<dyn std::any::Any + Send>| {
        if failure
            .as_ref()
            .is_none_or(|f| f.is::<PeerAbort>() && !p.is::<PeerAbort>())
        {
            failure = Some(p);
        }
    };
    for h in joins {
        if let Err(p) = h.join().and_then(|returned| returned) {
            keep(p);
        }
    }
    // Every PE has joined. Stop attached services BEFORE re-raising any
    // panic: listener threads and ports must not outlive the machine,
    // least of all on the failure path.
    if let Some(p) = stop_services(&mut services) {
        keep(p);
    }
    match failure {
        // Only bystanders reported: `abort_machine` was called by
        // something that is not a PE's own context.
        Some(p) if p.is::<PeerAbort>() => panic!("the machine was aborted; no PE panicked"),
        Some(p) => std::panic::resume_unwind(p),
        None => {}
    }

    RunReport {
        traffic: (0..cfg.num_pes).map(|p| net.traffic(p)).collect(),
        fault_stats: net.fault_stats(),
        output: shared.console.captured(),
        elapsed: started.elapsed(),
    }
}
