//! The service proper: acceptor + supervised replica fleet + hot reload.
//!
//! Threading model (all std): one acceptor thread owns the listener and
//! pushes each accepted socket onto the fleet's one FIFO (a
//! `Mutex<VecDeque>` + `Condvar`), which every *replica* worker thread
//! pops, so a queued connection goes to whichever worker frees up first.
//! Admission is gated on the FIFO's length, the fleet-wide queued total:
//! when the fleet already holds `max_inflight` unserved connections the
//! acceptor answers `503` with `Retry-After` and closes, so memory stays
//! bounded no matter how fast connections arrive — the backpressure
//! contract. Workers pop sockets, read one request under byte + time
//! budgets ([`crate::http::read_request`]), answer it, and close: the
//! service is one-request-per-connection by design.
//!
//! A supervisor thread ticks a few dozen times a second and keeps the
//! fleet whole: a finished worker thread (panic already downgraded to a
//! clean exit, or a chaos kill) is respawned after a seeded exponential
//! backoff; a worker stuck on one unit of work past the wedge budget is
//! *superseded* — its epoch is bumped so the stale thread exits at its
//! next check, and a replacement takes over the slot immediately. Every
//! transition is a `serve.replica.*` lifecycle event.
//!
//! The model lives in a versioned registry ([`crate::registry`]): each
//! request snapshots one immutable `Arc<ModelVersion>`, and `POST /reload`
//! (or the `--watch-checkpoint` poller) stages, validates, and atomically
//! swaps a new checkpoint in. In-flight requests drain on the old weights;
//! a refused reload never disturbs the live model.
//!
//! Graceful shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]) sets
//! a flag, wakes the acceptor with a loopback self-connect, and lets the
//! workers drain everything already queued before they exit;
//! [`ServerHandle::join`] then returns the final [`ServeStats`]. Nothing
//! in-flight is dropped.
//!
//! Two deadlines bound every request: the *read* deadline starts when a
//! worker begins reading the socket (time spent queued is not charged to
//! the peer; reported latency still runs from accept) and the *compute*
//! deadline bounds the forward pass, checked between row chunks so even a
//! maximal batch cannot overshoot by much.

use crate::drift::{DriftConfig, DriftSentinel};
use crate::fleet::{backoff_ms, replica_event, Replica};
use crate::http::{read_request, write_response, HttpError, Limits, Method, Request};
use crate::model::{AssignError, Assignment, ServeMode, MAX_FEATURE_MAGNITUDE};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::InferenceModel;
use adec_obs::json::escape;
use adec_obs::trace::{self, TraceContext, TraceRing, TraceTree};
use adec_obs::{Counter, Histogram, Registry, Span, DURATION_BUCKETS};
use adec_tensor::Matrix;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rows processed between compute-deadline checks.
const ASSIGN_CHUNK_ROWS: usize = 32;

/// Supervisor poll period.
const SUPERVISOR_TICK_MS: u64 = 20;

/// Wedge-sleep slice, so an injected wedge still notices shutdown.
const WEDGE_SLICE_MS: u64 = 25;

/// Slots in the tail-sampling trace ring.
const TRACE_RING_CAPACITY: usize = 128;

/// Exemplars reported by `GET /tracez`.
const TRACEZ_EXEMPLARS: usize = 16;

/// Tuning knobs; every field has a safe default.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral, report via [`ServerHandle::port`]).
    pub port: u16,
    /// Replica workers answering requests: the fleet size (>= 1).
    pub replicas: usize,
    /// Fleet-wide bound on accepted-but-unserved connections; beyond it
    /// the acceptor answers 503 + Retry-After.
    pub max_inflight: usize,
    /// Per-request compute budget in milliseconds (0 = reject all compute,
    /// useful for drills).
    pub deadline_ms: u64,
    /// Per-socket read budget in milliseconds, measured from when a
    /// worker starts reading the request (queue wait is not charged).
    pub read_deadline_ms: u64,
    /// Busy-watermark budget before the supervisor supersedes a wedged
    /// worker; 0 derives `read_deadline_ms + deadline_ms + 2000`.
    pub wedge_budget_ms: u64,
    /// Checkpoint path served by `POST /reload` (None disables it).
    pub reload_path: Option<PathBuf>,
    /// Checkpoint path polled (mtime + checksum) for automatic hot reload.
    pub watch_path: Option<PathBuf>,
    /// Watch poll period in milliseconds.
    pub watch_interval_ms: u64,
    /// Seed for the supervisor's respawn backoff jitter.
    pub seed: u64,
    /// Byte budgets for heads and bodies.
    pub limits: Limits,
    /// Drift-sentinel tuning (policy, window size, detector knobs).
    pub drift: DriftConfig,
    /// Tail-based trace sampling: `None` disables request tracing
    /// entirely, `Some(n)` retains the span tree of every request slower
    /// than `n` ms (errors and shed requests are always retained), and
    /// `Some(0)` retains everything.
    pub trace_slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            replicas: 2,
            max_inflight: 32,
            deadline_ms: 2_000,
            read_deadline_ms: 2_000,
            wedge_budget_ms: 0,
            reload_path: None,
            watch_path: None,
            watch_interval_ms: 500,
            seed: 0,
            limits: Limits::default(),
            drift: DriftConfig::default(),
            trace_slow_ms: None,
        }
    }
}

impl ServerConfig {
    /// Effective wedge budget (see [`ServerConfig::wedge_budget_ms`]).
    fn wedge_budget(&self) -> u64 {
        if self.wedge_budget_ms > 0 {
            self.wedge_budget_ms
        } else {
            self.read_deadline_ms + self.deadline_ms + 2_000
        }
    }
}

/// Failures starting the service (per-request failures never surface here).
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind/configure the listener.
    Bind(std::io::Error),
    /// Invalid configuration (zero replicas, zero queue).
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "bind failed: {e}"),
            ServeError::Config(msg) => write!(f, "bad config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Plain-value snapshot of a server's counters, as `GET /statz` reports
/// them and [`ServerHandle::join`] returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered 200.
    pub served: u64,
    /// Connections refused with 503 at the accept gate.
    pub rejected_busy: u64,
    /// Requests answered with a 4xx/5xx protocol or validation error.
    pub client_errors: u64,
    /// Sockets that vanished before a full request arrived.
    pub disconnects: u64,
    /// Compute-deadline expiries.
    pub deadline_expired: u64,
    /// Worker panics caught (0 in a healthy run).
    pub caught_panics: u64,
    /// `/assign` 200s per degradation rung, in ladder order
    /// (full, no-decoder, centroid-only). Sums to at most `served`
    /// (the non-`/assign` 200s have no rung).
    pub served_by_tier: [u64; 3],
    /// Replica workers respawned (or superseded) by the supervisor.
    pub respawns: u64,
    /// Completed hot reloads.
    pub reloads: u64,
    /// Refused hot reloads.
    pub reloads_refused: u64,
}

/// One server's event counters and request histograms, held in its own
/// [`Registry`]: the single place each count lives, read by `/statz`,
/// `/metrics`, [`ServerHandle::stats`] and [`ServerHandle::join`] alike.
/// The handles are resolved once at start, so the request path never
/// takes the registry lock. Respawns and reload outcomes are not here:
/// the replica slots and the model registry already count them.
struct Metrics {
    registry: Registry,
    served: Arc<Counter>,
    rejected_busy: Arc<Counter>,
    client_errors: Arc<Counter>,
    disconnects: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    caught_panics: Arc<Counter>,
    served_full: Arc<Counter>,
    served_no_decoder: Arc<Counter>,
    served_centroid_only: Arc<Counter>,
    /// Accept-to-response latency of every worker-handled request.
    request_seconds: Arc<Histogram>,
    /// Fleet-wide queued total observed at each successful admission.
    queue_depth: Arc<Histogram>,
    /// `/assign` parse + forward-pass latency.
    assign_eval: Arc<Histogram>,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        Metrics {
            served: registry.counter("adec_serve_served_total"),
            rejected_busy: registry.counter("adec_serve_rejected_busy_total"),
            client_errors: registry.counter("adec_serve_client_errors_total"),
            disconnects: registry.counter("adec_serve_disconnects_total"),
            deadline_expired: registry.counter("adec_serve_deadline_expired_total"),
            caught_panics: registry.counter("adec_serve_caught_panics_total"),
            served_full: registry.counter("adec_serve_served_full_total"),
            served_no_decoder: registry.counter("adec_serve_served_no_decoder_total"),
            served_centroid_only: registry.counter("adec_serve_served_centroid_only_total"),
            request_seconds: registry.histogram("adec_serve_request_seconds", DURATION_BUCKETS),
            queue_depth: registry.histogram(
                "adec_serve_queue_depth",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            assign_eval: registry.histogram("adec_serve_assign_eval_seconds", DURATION_BUCKETS),
            registry,
        }
    }
}

/// Shared state between acceptor, replicas, supervisor, and the handle.
struct Shared {
    registry: ModelRegistry,
    config: ServerConfig,
    replicas: Vec<Arc<Replica>>,
    /// The fleet's one FIFO of accepted-but-unserved connections: (stream,
    /// accept instant, trace context captured at enqueue — the explicit
    /// handoff that lets the worker thread backfill queue wait into the
    /// span tree). Its length is the fleet-wide queued total that the
    /// admission gate and the shed ladder read, so fleet size never
    /// changes the backpressure contract.
    queue: Mutex<VecDeque<(TcpStream, Instant, TraceContext)>>,
    /// Wakes one idle worker per queued connection, and every worker when
    /// a chaos flag, a supersession or shutdown changes.
    wake: Condvar,
    /// Replica slots currently occupied by a live worker (supervisor's
    /// view, refreshed every tick).
    replicas_live: AtomicUsize,
    shutting_down: AtomicBool,
    metrics: Metrics,
    /// Drift sentinel; inert when the checkpoint carried no profile.
    drift: DriftSentinel,
    /// Tail-sampling ring of retained request traces; `None` when the
    /// config disables tracing (the near-zero-cost-off path).
    traces: Option<TraceRing>,
    addr: SocketAddr,
    started: Instant,
}

impl Shared {
    /// Point-in-time read of this server's one counter set.
    fn stats(&self) -> ServeStats {
        let m = &self.metrics;
        ServeStats {
            served: m.served.get(),
            rejected_busy: m.rejected_busy.get(),
            client_errors: m.client_errors.get(),
            disconnects: m.disconnects.get(),
            deadline_expired: m.deadline_expired.get(),
            caught_panics: m.caught_panics.get(),
            served_by_tier: [
                m.served_full.get(),
                m.served_no_decoder.get(),
                m.served_centroid_only.get(),
            ],
            respawns: self
                .replicas
                .iter()
                .map(|r| r.respawned.load(Ordering::Relaxed))
                .sum(),
            reloads: self.registry.generation(),
            reloads_refused: self.registry.refused(),
        }
    }

    /// Milliseconds since the server started (the busy-watermark clock).
    fn now_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// The connection FIFO, locked.
    fn queue(&self) -> MutexGuard<'_, VecDeque<(TcpStream, Instant, TraceContext)>> {
        // A deque of sockets is valid whatever a panicking holder did, so
        // a poisoned lock is recoverable.
        match self.queue.lock() {
            Ok(q) => q,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Flips the shutdown flag and wakes everyone: replica workers via
    /// the queue's condvar, the acceptor via a loopback self-connect (the
    /// only way to interrupt a blocking `accept` with std alone).
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.wake.notify_all();
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
    }

    /// Stages + swaps `path` (the model registry counts the outcome). A
    /// successful swap re-arms the drift sentinel against the incoming
    /// checkpoint's profile: the refit model defines the new healthy
    /// regime, so stale evidence (and any latched alarm) is dropped.
    fn do_reload(&self, path: &std::path::Path) -> Result<Arc<ModelVersion>, crate::ReloadError> {
        let res = self.registry.reload(path);
        self.rearm(&res);
        res
    }

    fn rearm(&self, res: &Result<Arc<ModelVersion>, crate::ReloadError>) {
        if let Ok(next) = res {
            self.drift.reset(next.model.profile().cloned());
        }
    }
}

/// Running service; dropping it without [`ServerHandle::join`] detaches the
/// threads (they keep serving), so tests and the CLI always join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds 127.0.0.1 and spawns the acceptor, the replica fleet, the
    /// supervisor, and (when configured) the checkpoint watcher.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] on zero replicas/queue, [`ServeError::Bind`]
    /// when the port is unavailable.
    pub fn start(model: InferenceModel, config: ServerConfig) -> Result<ServerHandle, ServeError> {
        if config.replicas == 0 {
            return Err(ServeError::Config("replicas must be >= 1".into()));
        }
        if config.max_inflight == 0 {
            return Err(ServeError::Config("max-inflight must be >= 1".into()));
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.port))
            .map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        let alpha = model.alpha;
        let source = config
            .reload_path
            .as_ref()
            .map_or_else(|| "initial".to_string(), |p| p.display().to_string());
        let fleet_size = config.replicas;
        let drift = DriftSentinel::new(
            config.drift.clone(),
            model.profile().cloned(),
            u64::from(addr.port()),
        );
        let traces = config.trace_slow_ms.map(|_| TraceRing::new(TRACE_RING_CAPACITY));
        let shared = Arc::new(Shared {
            registry: ModelRegistry::new(model, alpha, source),
            replicas: (0..fleet_size).map(|i| Arc::new(Replica::new(i))).collect(),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            replicas_live: AtomicUsize::new(fleet_size),
            config,
            shutting_down: AtomicBool::new(false),
            metrics: Metrics::new(),
            drift,
            traces,
            addr,
            started: Instant::now(),
        });
        let slots = shared
            .replicas
            .iter()
            .map(|replica| {
                let handle = spawn_worker(&shared, replica, 0).map_err(ServeError::Bind)?;
                Ok(WorkerSlot { handle: Some(handle), attempt: 0, respawn_at: None })
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adec-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared, slots))
                .map_err(ServeError::Bind)?
        };
        let watcher = match shared.config.watch_path.clone() {
            Some(path) => Some({
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("adec-serve-watcher".into())
                    .spawn(move || watch_loop(&shared, &path))
                    .map_err(ServeError::Bind)?
            }),
            None => None,
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adec-serve-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(ServeError::Bind)?
        };
        Ok(ServerHandle {
            shared,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
            watcher,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.shared.addr.port()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// The live model version number.
    pub fn model_version(&self) -> u64 {
        self.shared.registry.current().version
    }

    /// Completed reload count.
    pub fn reload_generation(&self) -> u64 {
        self.shared.registry.generation()
    }

    /// Requests a graceful shutdown: stop accepting, drain the queue.
    /// Idempotent; returns immediately (pair with [`ServerHandle::join`]).
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until every thread has drained and exited, then reports the
    /// final counters. The supervisor joins the replica workers (and any
    /// superseded stragglers) before it exits itself.
    pub fn join(mut self) -> ServeStats {
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        self.shared.stats()
    }
}

/// One replica slot as the supervisor tracks it.
struct WorkerSlot {
    handle: Option<JoinHandle<()>>,
    /// Respawns so far (drives the backoff schedule).
    attempt: u64,
    /// When a scheduled respawn becomes due.
    respawn_at: Option<Instant>,
}

/// Spawns a worker thread for `replica` at `epoch`, emitting the spawn
/// lifecycle event.
fn spawn_worker(
    shared: &Arc<Shared>,
    replica: &Arc<Replica>,
    epoch: u64,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let replica = Arc::clone(replica);
    let id = replica.id;
    let handle = std::thread::Builder::new()
        .name(format!("adec-serve-replica-{id}"))
        .spawn(move || worker_loop(&shared, &replica, epoch))?;
    replica_event("serve.replica.spawn", id, epoch, "worker thread started");
    Ok(handle)
}

/// Supervisor: detect dead/wedged replicas, respawn with seeded backoff,
/// surface drain completions, and keep the liveness gauge fresh. Owns
/// every worker handle; joins them all at shutdown.
fn supervisor_loop(shared: &Arc<Shared>, mut slots: Vec<WorkerSlot>) {
    let mut graveyard: Vec<JoinHandle<()>> = Vec::new();
    let wedge_budget = shared.config.wedge_budget();
    while !shared.shutting_down.load(Ordering::SeqCst) {
        let now = shared.now_ms();
        for (slot, replica) in slots.iter_mut().zip(shared.replicas.iter()) {
            supervise_slot(shared, slot, replica, now, wedge_budget, &mut graveyard);
        }
        let live = slots
            .iter()
            .filter(|s| s.handle.as_ref().is_some_and(|h| !h.is_finished()))
            .count();
        shared.replicas_live.store(live, Ordering::Relaxed);
        shared.registry.poll_drains();
        std::thread::sleep(Duration::from_millis(SUPERVISOR_TICK_MS));
    }
    for slot in &mut slots {
        if let Some(h) = slot.handle.take() {
            let _ = h.join();
        }
    }
    for h in graveyard {
        let _ = h.join();
    }
    // Late drains (versions still pinned by requests served during the
    // final drain-out) get their end event before the supervisor exits.
    shared.registry.poll_drains();
}

/// One supervisor tick for one replica slot.
fn supervise_slot(
    shared: &Arc<Shared>,
    slot: &mut WorkerSlot,
    replica: &Arc<Replica>,
    now: u64,
    wedge_budget: u64,
    graveyard: &mut Vec<JoinHandle<()>>,
) {
    if let Some(due) = slot.respawn_at {
        if Instant::now() < due {
            return;
        }
        let epoch = replica.epoch.load(Ordering::SeqCst);
        match spawn_worker(shared, replica, epoch) {
            Ok(handle) => {
                slot.handle = Some(handle);
                slot.respawn_at = None;
                replica.respawned.fetch_add(1, Ordering::Relaxed);
                replica_event(
                    "serve.replica.respawn",
                    replica.id,
                    epoch,
                    &format!("respawned after attempt {}", slot.attempt),
                );
            }
            Err(_) => {
                // Thread spawn failed (resource exhaustion): retry shortly.
                slot.respawn_at = Some(Instant::now() + Duration::from_millis(100));
            }
        }
        return;
    }
    let finished = slot.handle.as_ref().is_some_and(JoinHandle::is_finished);
    if finished {
        if let Some(h) = slot.handle.take() {
            let _ = h.join();
        }
        let epoch = replica.epoch.load(Ordering::SeqCst);
        replica_event("serve.replica.death", replica.id, epoch, "worker thread exited");
        let delay = backoff_ms(shared.config.seed, replica.id, slot.attempt);
        slot.attempt += 1;
        slot.respawn_at = Some(Instant::now() + Duration::from_millis(delay));
        return;
    }
    if replica.busy_for_ms(now).is_some_and(|busy| busy > wedge_budget) {
        // Supersede: std threads cannot be killed, so bump the epoch (the
        // stale thread exits at its next check), park the old handle, and
        // seat a replacement immediately — the fleet keeps its width.
        let epoch = replica.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        shared.wake.notify_all();
        if let Some(h) = slot.handle.take() {
            graveyard.push(h);
        }
        replica_event(
            "serve.replica.death",
            replica.id,
            epoch,
            &format!("wedged past {wedge_budget}ms budget; superseded"),
        );
        match spawn_worker(shared, replica, epoch) {
            Ok(handle) => {
                slot.handle = Some(handle);
                slot.attempt += 1;
                replica.respawned.fetch_add(1, Ordering::Relaxed);
                replica_event(
                    "serve.replica.respawn",
                    replica.id,
                    epoch,
                    "replacement for wedged worker",
                );
            }
            Err(_) => {
                slot.attempt += 1;
                slot.respawn_at = Some(Instant::now() + Duration::from_millis(100));
            }
        }
    }
}

/// Checkpoint watcher: poll mtime and reload the file when it moves. The
/// one streamed read of a reload also yields the whole file's checksum,
/// and a candidate whose checksum is the last one seen (the live model's
/// file at first) is dropped before the model build, so a touched but
/// unchanged file swaps nothing and a bad file is refused once, not every
/// poll or touch.
fn watch_loop(shared: &Arc<Shared>, path: &std::path::Path) {
    let mtime_of = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let mut last_mtime = mtime_of(path);
    let mut last_crc = Some(shared.registry.current().model.checksum()).filter(|&c| c != 0);
    let interval = shared.config.watch_interval_ms.max(WEDGE_SLICE_MS);
    let mut since_poll = 0u64;
    while !shared.shutting_down.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(WEDGE_SLICE_MS));
        since_poll += WEDGE_SLICE_MS;
        if since_poll < interval {
            continue;
        }
        since_poll = 0;
        let mtime = mtime_of(path);
        if mtime == last_mtime {
            continue;
        }
        last_mtime = mtime;
        if mtime.is_none() {
            continue; // gone: nothing to stage until it reappears
        }
        // Swap or refusal are both fully logged by the registry; the
        // watcher only decides *when* to try.
        let (crc, outcome) = shared.registry.reload_changed(path, last_crc);
        if let Some(res) = &outcome {
            shared.rearm(res);
        }
        last_crc = crc;
    }
}

/// Acceptor: admit onto the fleet's FIFO and wake one idle worker, or
/// 503 on the spot when the queue already holds `max_inflight`.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let mut stream = match conn {
            Ok(s) => s,
            Err(_) => continue, // transient accept error; keep serving
        };
        let accepted_at = Instant::now();
        let mut q = shared.queue();
        if q.len() >= shared.config.max_inflight {
            drop(q);
            shared.metrics.rejected_busy.inc();
            let _ = write_response(
                &mut stream,
                503,
                &[("retry-after", "1")],
                "application/json",
                br#"{"error":"busy","detail":"request queue is full"}"#,
            );
            continue;
        }
        // The explicit context handoff: the worker thread continues this
        // trace and backfills the queue wait from `enqueued_ns`.
        q.push_back((stream, accepted_at, TraceContext::capture()));
        let depth = q.len();
        drop(q);
        shared.metrics.queue_depth.observe(depth as f64);
        shared.wake.notify_one();
    }
}

/// What a replica worker found when it went looking for work.
enum Fetched {
    /// A connection to serve, with the trace context minted at admission.
    Conn(TcpStream, Instant, TraceContext),
    /// A chaos/supersession flag changed; re-run the loop-top checks.
    Recheck,
    /// Shutdown with a dry queue: exit.
    Done,
}

/// Replica worker: pop → serve → close, until shutdown *and* the queue is
/// dry. Chaos flags (kill/wedge) and supersession are honoured between
/// requests only — a worker never abandons a connection it already popped,
/// which is why a kill drops zero in-flight requests.
fn worker_loop(shared: &Shared, replica: &Replica, my_epoch: u64) {
    loop {
        if replica.epoch.load(Ordering::SeqCst) != my_epoch {
            return; // superseded while wedged; the replacement owns the slot
        }
        if replica.kill.swap(false, Ordering::SeqCst) {
            return; // chaos kill: clean exit, supervisor respawns
        }
        let wedge = replica.wedge_ms.swap(0, Ordering::SeqCst);
        if wedge > 0 {
            wedge_sleep(shared, replica, my_epoch, wedge);
            continue;
        }
        let fetched = {
            let mut q = shared.queue();
            loop {
                if replica.epoch.load(Ordering::SeqCst) != my_epoch
                    || replica.kill.load(Ordering::SeqCst)
                    || replica.wedge_ms.load(Ordering::SeqCst) > 0
                {
                    // Leave the queue to the other workers, and pass on
                    // the wakeup this worker may have taken for a queued
                    // connection.
                    if !q.is_empty() {
                        shared.wake.notify_one();
                    }
                    break Fetched::Recheck;
                }
                if let Some((stream, at, ctx)) = q.pop_front() {
                    break Fetched::Conn(stream, at, ctx);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break Fetched::Done;
                }
                q = match shared.wake.wait(q) {
                    Ok(q) => q,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let (mut stream, accepted_at, ctx) = match fetched {
            Fetched::Conn(stream, at, ctx) => (stream, at, ctx),
            Fetched::Recheck => continue,
            Fetched::Done => return,
        };
        if shared.traces.is_some() {
            trace::begin_with(ctx, "request");
            let popped = trace::now_ns();
            trace::add_complete_span(
                "queue_wait",
                ctx.enqueued_ns,
                popped.saturating_sub(ctx.enqueued_ns),
            );
            trace::attr("replica", &replica.id.to_string());
        }
        // The request handler is lint-proven panic-free; catch_unwind is
        // the last line of defence so a bug costs one 500, not a worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_connection(shared, replica, &mut stream, ctx);
        }));
        if outcome.is_err() {
            shared.metrics.caught_panics.inc();
            trace::attr("status", "500");
            let _ = write_response(
                &mut stream,
                500,
                &[],
                "application/json",
                br#"{"error":"internal"}"#,
            );
        }
        // Tail-based sampling: decide retention only now that the
        // request's fate (latency, status, tier) is known.
        if let Some(ring) = &shared.traces {
            if let Some(tree) = trace::finish() {
                if retain_trace(&tree, shared.config.trace_slow_ms.unwrap_or(0)) {
                    ring.record(tree);
                }
            }
        }
        replica.mark_idle();
        replica.served.fetch_add(1, Ordering::Relaxed);
        // Accept-to-response latency: includes queue wait by design, so
        // saturation shows up in the tail.
        shared
            .metrics
            .request_seconds
            .observe(accepted_at.elapsed().as_secs_f64());
    }
}

/// An injected wedge: busy (watermark set) but holding no connection, in
/// slices so a superseded or shutting-down wedge releases promptly.
fn wedge_sleep(shared: &Shared, replica: &Replica, my_epoch: u64, wedge: u64) {
    replica.mark_busy(shared.now_ms());
    let until = Instant::now() + Duration::from_millis(wedge);
    while Instant::now() < until {
        if replica.epoch.load(Ordering::SeqCst) != my_epoch
            || shared.shutting_down.load(Ordering::SeqCst)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(WEDGE_SLICE_MS));
    }
    replica.mark_idle();
}

/// Reads and answers exactly one request on an accepted socket. The model
/// snapshot is taken exactly once, so the response's `model_version` and
/// the weights that computed it can never disagree — the hot-swap
/// atomicity contract.
///
/// The wedge watermark covers only the phase *after* the request is read:
/// the read phase is hard-bounded by the socket read timeout (a slow-loris
/// peer legitimately occupies a worker for the full read deadline and then
/// self-heals), while the compute/route phase is where a genuine wedge —
/// an infinite loop or deadlock — would otherwise stall the replica
/// forever. Marking busy before the read would make every slow-loris drip
/// look wedged and put the supervisor into a supersession loop.
fn serve_connection(shared: &Shared, replica: &Replica, stream: &mut TcpStream, ctx: TraceContext) {
    // The read window charges the peer's sending pace, not fleet queue
    // wait: it opens when a worker starts reading, so a request that sat
    // queued behind a killed or wedged replica still gets its full
    // budget. (Reported latency still runs from `accepted_at`, so queue
    // wait is never hidden from the tail.)
    let read_deadline = Instant::now() + Duration::from_millis(shared.config.read_deadline_ms);
    let decode_span = trace::span("decode");
    let request = match read_request(stream, &shared.config.limits, read_deadline) {
        Ok(req) => req,
        Err(HttpError::Disconnected) => {
            trace::attr("status", "disconnect");
            shared.metrics.disconnects.inc();
            return;
        }
        Err(err) => {
            shared.metrics.client_errors.inc();
            if let Some(status) = err.status() {
                trace::attr("status", &status.to_string());
                let body = format!(r#"{{"error":"{}","detail":"{err}"}}"#, err.reason());
                let _ = write_response(stream, status, &[], "application/json", body.as_bytes());
            }
            // Drain a little so the peer sees our response before RST.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            let mut sink = [0u8; 256];
            let _ = stream.read(&mut sink);
            return;
        }
    };
    drop(decode_span);
    // Request id: the client's (sanitized) header, or a server-minted id
    // derived from the trace id; echoed on `/assign` responses.
    let rid = request
        .request_id
        .clone()
        .unwrap_or_else(|| format!("srv-{}", ctx.trace_id));
    trace::attr("request_id", &rid);
    replica.mark_busy(shared.now_ms());
    let mv = shared.registry.current();
    route(shared, stream, &request, &mv, &rid);
}

/// Tail-sampling decision for a completed request trace: errors and shed
/// requests are always retained; everything else only above the slow
/// threshold. `slow_ms == 0` retains every request.
fn retain_trace(tree: &TraceTree, slow_ms: u64) -> bool {
    if slow_ms == 0 {
        return true;
    }
    let errored = tree
        .attr("status")
        .is_some_and(|s| s == "disconnect" || s.parse::<u16>().is_ok_and(|n| n >= 400));
    errored
        || tree.attr("shed") == Some("true")
        || tree.total_ns >= slow_ms.saturating_mul(1_000_000)
}

/// Routes a parsed request; every arm answers exactly once.
fn route(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    mv: &Arc<ModelVersion>,
    rid: &str,
) {
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    match (request.method, request.path.as_str()) {
        (Method::Get, "/healthz") => {
            shared.metrics.served.inc();
            let _ = write_response(stream, 200, &[], "text/plain", b"ok\n");
        }
        (Method::Get, "/readyz") => {
            let model = &mv.model;
            // The gate rung of the mitigation ladder: a latched drift
            // alarm fails readiness until a refit checkpoint hot-reloads
            // (which resets the sentinel).
            let drift_gated = shared.drift.gates_readiness();
            let ready = !draining && !drift_gated;
            let body = format!(
                r#"{{"ready":{},"mode":"{}","phase":"{}","input_dim":{},"latent_dim":{},"clusters":{},"model_version":{},"reload_generation":{},"replicas":{},"replicas_live":{},"drift_policy":"{}","drift_profile":"{}","drift_alarmed":{}}}"#,
                ready,
                model.mode.as_str(),
                model.phase,
                model.input_dim(),
                model.latent_dim(),
                model.k(),
                mv.version,
                shared.registry.generation(),
                shared.replicas.len(),
                shared.replicas_live.load(Ordering::Relaxed),
                shared.drift.policy().as_str(),
                if shared.drift.enabled() { "present" } else { "absent" },
                shared.drift.alarmed(),
            );
            let status = if ready { 200 } else { 503 };
            if ready {
                shared.metrics.served.inc();
            } else {
                shared.metrics.client_errors.inc();
            }
            let _ = write_response(stream, status, &[], "application/json", body.as_bytes());
        }
        (Method::Get, "/driftz") => {
            let body = render_driftz(shared);
            shared.metrics.served.inc();
            let _ = write_response(stream, 200, &[], "application/json", body.as_bytes());
        }
        (Method::Get, "/metrics") => {
            // Prometheus scrape: the process-global series (thread pool,
            // kernels), then this instance's counters and histograms,
            // then its per-replica, per-model-version and drift series.
            // Like /healthz, this deliberately ignores the drain flag:
            // operators scrape right through a shutdown, so /metrics
            // stays 200 while /readyz is already 503.
            let mut body = adec_obs::prom::encode(&adec_obs::global().snapshot());
            body.push_str(&render_instance_metrics(shared));
            body.push_str(&render_fleet_metrics(shared));
            shared.metrics.served.inc();
            let _ = write_response(
                stream,
                200,
                &[],
                "text/plain; version=0.0.4",
                body.as_bytes(),
            );
        }
        (Method::Get, "/statz") => {
            let s = shared.stats();
            let mut body = format!(
                r#"{{"served":{},"rejected_busy":{},"client_errors":{},"disconnects":{},"deadline_expired":{},"caught_panics":{},"served_full":{},"served_no_decoder":{},"served_centroid_only":{},"respawns":{},"reloads":{},"reloads_refused":{},"model_version":{},"reload_generation":{},"replicas_live":{},"replicas":["#,
                s.served,
                s.rejected_busy,
                s.client_errors,
                s.disconnects,
                s.deadline_expired,
                s.caught_panics,
                s.served_by_tier[0],
                s.served_by_tier[1],
                s.served_by_tier[2],
                s.respawns,
                s.reloads,
                s.reloads_refused,
                mv.version,
                shared.registry.generation(),
                shared.replicas_live.load(Ordering::Relaxed),
            );
            for (i, r) in shared.replicas.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    r#"{{"id":{},"served":{},"respawned":{}}}"#,
                    r.id,
                    r.served.load(Ordering::Relaxed),
                    r.respawned.load(Ordering::Relaxed),
                ));
            }
            body.push_str("]}");
            shared.metrics.served.inc();
            let _ = write_response(stream, 200, &[], "application/json", body.as_bytes());
        }
        (Method::Get, p) if p == "/tracez" || p.starts_with("/tracez?") => {
            let chrome = p
                .split_once('?')
                .is_some_and(|(_, q)| q.split('&').any(|kv| kv == "format=chrome"));
            let body = render_tracez(shared, chrome);
            shared.metrics.served.inc();
            let _ = write_response(stream, 200, &[], "application/json", body.as_bytes());
        }
        (_, p) if p == "/tracez" || p.starts_with("/tracez?") => {
            refuse(shared, stream, 405, br#"{"error":"method-not-allowed"}"#);
        }
        (Method::Post, "/shutdown") => {
            shared.metrics.served.inc();
            let _ = write_response(
                stream,
                200,
                &[],
                "application/json",
                br#"{"draining":true}"#,
            );
            shared.begin_shutdown();
        }
        (Method::Post, "/reload") => handle_reload(shared, stream, draining),
        (Method::Post, "/chaos/kill-replica") => {
            handle_chaos(shared, stream, request, ChaosOp::Kill);
        }
        (Method::Post, "/chaos/wedge-replica") => {
            handle_chaos(shared, stream, request, ChaosOp::Wedge);
        }
        (Method::Post, "/assign") => handle_assign(shared, stream, request, mv, rid),
        (
            _,
            "/healthz" | "/readyz" | "/driftz" | "/statz" | "/metrics" | "/shutdown" | "/assign"
            | "/reload" | "/chaos/kill-replica" | "/chaos/wedge-replica",
        ) => {
            refuse(shared, stream, 405, br#"{"error":"method-not-allowed"}"#);
        }
        _ => {
            refuse(shared, stream, 404, br#"{"error":"not-found"}"#);
        }
    }
}

/// Answers a JSON error and counts it as a client error.
fn refuse(shared: &Shared, stream: &mut TcpStream, status: u16, body: &[u8]) {
    shared.metrics.client_errors.inc();
    let _ = write_response(stream, status, &[], "application/json", body);
}

/// This instance's event counters and histograms. Respawns and reload
/// outcomes join the registry's own series here, read from the replica
/// slots and the model registry that count them. No `adec_serve_` name
/// lives on the process-global registry, so the strict parser never sees
/// a duplicate `# TYPE`.
fn render_instance_metrics(shared: &Shared) -> String {
    let s = shared.stats();
    let mut snap = shared.metrics.registry.snapshot();
    snap.counters.extend([
        ("adec_serve_respawns_total".to_string(), s.respawns),
        ("adec_serve_reloads_total".to_string(), s.reloads),
        (
            "adec_serve_reloads_refused_total".to_string(),
            s.reloads_refused,
        ),
    ]);
    snap.counters.sort();
    adec_obs::prom::encode(&snap)
}

/// This instance's fleet, model-version and drift series.
fn render_fleet_metrics(shared: &Shared) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("# TYPE adec_serve_model_version gauge\n");
    out.push_str(&format!(
        "adec_serve_model_version {}\n",
        shared.registry.current().version
    ));
    out.push_str("# TYPE adec_serve_reload_generation gauge\n");
    out.push_str(&format!(
        "adec_serve_reload_generation {}\n",
        shared.registry.generation()
    ));
    out.push_str("# TYPE adec_serve_replicas_live gauge\n");
    out.push_str(&format!(
        "adec_serve_replicas_live {}\n",
        shared.replicas_live.load(Ordering::Relaxed)
    ));
    out.push_str("# TYPE adec_serve_replica_served counter\n");
    for r in &shared.replicas {
        out.push_str(&format!(
            "adec_serve_replica_served{{replica=\"{}\"}} {}\n",
            r.id,
            r.served.load(Ordering::Relaxed)
        ));
    }
    out.push_str("# TYPE adec_serve_replica_respawns counter\n");
    for r in &shared.replicas {
        out.push_str(&format!(
            "adec_serve_replica_respawns{{replica=\"{}\"}} {}\n",
            r.id,
            r.respawned.load(Ordering::Relaxed)
        ));
    }
    out.push_str("# TYPE adec_serve_model_served counter\n");
    for v in shared.registry.versions() {
        out.push_str(&format!(
            "adec_serve_model_served{{version=\"{}\",phase=\"{}\"}} {}\n",
            v.version,
            v.phase,
            v.served()
        ));
    }
    let d = shared.drift.snapshot();
    out.push_str("# TYPE adec_serve_drift_enabled gauge\n");
    out.push_str(&format!("adec_serve_drift_enabled {}\n", u8::from(d.enabled)));
    out.push_str("# TYPE adec_serve_drift_alarmed gauge\n");
    out.push_str(&format!("adec_serve_drift_alarmed {}\n", u8::from(d.alarmed)));
    out.push_str("# TYPE adec_serve_drift_severity gauge\n");
    out.push_str(&format!("adec_serve_drift_severity {}\n", d.severity));
    out.push_str("# TYPE adec_serve_drift_windows_total counter\n");
    out.push_str(&format!("adec_serve_drift_windows_total {}\n", d.windows));
    out.push_str("# TYPE adec_serve_drift_alarms_total counter\n");
    out.push_str(&format!("adec_serve_drift_alarms_total {}\n", d.alarms));
    out.push_str("# TYPE adec_serve_drift_clears_total counter\n");
    out.push_str(&format!("adec_serve_drift_clears_total {}\n", d.clears));
    out.push_str("# TYPE adec_serve_drift_score gauge\n");
    for s in &d.signals {
        out.push_str(&format!(
            "adec_serve_drift_score{{signal=\"{}\"}} {}\n",
            s.name, s.score
        ));
    }
    out
}

/// `GET /tracez`: the tail-sampled trace exemplars, slowest first, each
/// with its per-stage breakdown (queue wait, decode, eval, drift,
/// encode). `chrome == true` renders the retained traces as Chrome
/// trace-event JSON instead (the `?format=chrome` variant).
fn render_tracez(shared: &Shared, chrome: bool) -> String {
    let Some(ring) = &shared.traces else {
        if chrome {
            return r#"{"traceEvents":[]}"#.to_string();
        }
        return concat!(
            r#"{"enabled":false,"slow_ms":null,"capacity":0,"retained":0,"#,
            r#""recorded":0,"dropped":0,"evicted":0,"exemplars":[]}"#
        )
        .to_string();
    };
    if chrome {
        return trace::chrome_trace_json(&ring.snapshot());
    }
    let retained = ring.snapshot().len();
    let mut body = format!(
        r#"{{"enabled":true,"slow_ms":{},"capacity":{},"retained":{},"recorded":{},"dropped":{},"evicted":{},"exemplars":["#,
        shared.config.trace_slow_ms.unwrap_or(0),
        ring.capacity(),
        retained,
        ring.recorded(),
        ring.dropped(),
        ring.evicted(),
    );
    for (i, t) in ring.slowest(TRACEZ_EXEMPLARS).iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            r#"{{"request_id":"{}","trace_id":{},"status":"{}","tier":"{}","total_ms":{:.3},"stages":["#,
            escape(t.attr("request_id").unwrap_or("")),
            t.trace_id,
            escape(t.attr("status").unwrap_or("")),
            escape(t.attr("tier").unwrap_or("")),
            t.total_ns as f64 / 1e6,
        ));
        for (j, s) in t.stages().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                r#"{{"name":"{}","ms":{:.3}}}"#,
                escape(&s.name),
                s.dur_ns as f64 / 1e6,
            ));
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    body
}

/// `GET /driftz`: the sentinel's full state as JSON, one detector object
/// per signal.
fn render_driftz(shared: &Shared) -> String {
    let d = shared.drift.snapshot();
    let mut body = format!(
        r#"{{"policy":"{}","profile":"{}","enabled":{},"window_rows":{},"windows":{},"rows":{},"pending_rows":{},"alarmed":{},"severity":{},"alarms":{},"clears":{},"signals":["#,
        d.policy.as_str(),
        if d.enabled { "present" } else { "absent" },
        d.enabled,
        d.window_rows,
        d.windows,
        d.rows,
        d.pending_rows,
        d.alarmed,
        d.severity,
        d.alarms,
        d.clears,
    );
    for (i, s) in d.signals.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            r#"{{"name":"{}","last":{},"score":{},"alarmed":{}}}"#,
            s.name, s.last, s.score, s.alarmed
        ));
    }
    body.push_str("]}");
    body
}

/// `POST /reload`: stage + swap the configured checkpoint path. Refusals
/// are 409 (the live model is untouched); a draining server answers 503.
fn handle_reload(shared: &Shared, stream: &mut TcpStream, draining: bool) {
    if draining {
        refuse(
            shared,
            stream,
            503,
            br#"{"error":"draining","detail":"server is shutting down"}"#,
        );
        return;
    }
    let Some(path) = shared.config.reload_path.clone() else {
        let body =
            br#"{"error":"reload-unavailable","detail":"server started without a reload path"}"#;
        refuse(shared, stream, 409, body);
        return;
    };
    match shared.do_reload(&path) {
        Ok(next) => {
            shared.metrics.served.inc();
            let body = format!(
                r#"{{"reloaded":true,"model_version":{},"reload_generation":{}}}"#,
                next.version,
                shared.registry.generation(),
            );
            let _ = write_response(stream, 200, &[], "application/json", body.as_bytes());
        }
        Err(err) => {
            let body = format!(
                r#"{{"error":"reload-refused","reason":"{}","detail":"{}"}}"#,
                err.reason(),
                escape(&err.to_string()),
            );
            refuse(shared, stream, 409, body.as_bytes());
        }
    }
}

/// Which chaos injection an admin endpoint performs.
enum ChaosOp {
    Kill,
    Wedge,
}

/// `POST /chaos/{kill,wedge}-replica`: body is an optional replica index
/// (defaults to 0). Local-only by construction — the listener binds
/// 127.0.0.1, same trust level as `/shutdown`.
fn handle_chaos(shared: &Shared, stream: &mut TcpStream, request: &Request, op: ChaosOp) {
    let text = std::str::from_utf8(&request.body).unwrap_or("").trim();
    let id: usize = if text.is_empty() { 0 } else { text.parse().unwrap_or(usize::MAX) };
    let Some(replica) = shared.replicas.get(id) else {
        let body = format!(
            r#"{{"error":"bad-replica","detail":"fleet has {} replicas"}}"#,
            shared.replicas.len()
        );
        refuse(shared, stream, 400, body.as_bytes());
        return;
    };
    shared.metrics.served.inc();
    let body = match op {
        ChaosOp::Kill => {
            replica.kill.store(true, Ordering::SeqCst);
            shared.wake.notify_all();
            format!(r#"{{"killed":{id}}}"#)
        }
        ChaosOp::Wedge => {
            // Sleep well past the budget so the supervisor provably fires.
            let sleep_ms = shared.config.wedge_budget().saturating_mul(2) + 250;
            replica.wedge_ms.store(sleep_ms, Ordering::SeqCst);
            shared.wake.notify_all();
            format!(r#"{{"wedged":{id},"sleep_ms":{sleep_ms}}}"#)
        }
    };
    let _ = write_response(stream, 200, &[], "application/json", body.as_bytes());
}

/// Pressure-to-rung map for load shedding, pure and monotone in `depth`:
/// at ≤50% queue occupancy requests get the full answer, at ≤75% the
/// decoder reconstruction is shed, beyond that the answer collapses to a
/// hard nearest-centroid label. The ladder bottoms out *below* the 503
/// gate (at `depth == cap` the acceptor rejects outright), so under
/// overload the service degrades answer richness before it degrades
/// availability. `depth` is the fleet-wide queued total, so the contract
/// is independent of the replica count.
pub fn shed_tier(depth: usize, cap: usize) -> ServeMode {
    assert!(cap > 0, "shed_tier: queue capacity must be positive");
    if depth.saturating_mul(2) <= cap {
        ServeMode::Full
    } else if depth.saturating_mul(4) <= cap.saturating_mul(3) {
        ServeMode::NoDecoder
    } else {
        ServeMode::CentroidOnly
    }
}

/// Parses the CSV body, embeds it in deadline-checked chunks, answers from
/// those embeddings, and — once the answer is written — reduces the same
/// embeddings for the drift sentinel.
fn handle_assign(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
    mv: &Arc<ModelVersion>,
    rid: &str,
) {
    let rid_header: [(&str, &str); 1] = [("x-request-id", rid)];
    let compute_deadline =
        Instant::now() + Duration::from_millis(shared.config.deadline_ms);
    // Sample queue pressure once, at entry: every chunk of this request
    // is answered at one consistent rung, chosen from the backlog the
    // fleet held when this worker started. The drift sentinel's demand
    // (the degrade rung of the mitigation ladder) folds in as one more
    // pressure source on the same ladder.
    let depth = shared.queue().len();
    let pressure =
        ServeMode::worse(shed_tier(depth, shared.config.max_inflight), shared.drift.shed_contribution());
    let model = &mv.model;
    let effective = model.effective_mode(pressure);
    trace::attr("tier", effective.as_str());
    if pressure != ServeMode::Full {
        // Load shedding (not checkpoint degradation) marks the trace as
        // always-retain under tail sampling.
        trace::attr("shed", "true");
    }
    let want = model.input_dim();
    let eval_timer = Span::on(Arc::clone(&shared.metrics.assign_eval));
    let eval_span = trace::span("eval");
    let x = match parse_csv_body(&request.body, want) {
        Ok(x) => x,
        Err(msg) => {
            trace::attr("status", "400");
            shared.metrics.client_errors.inc();
            let body = format!(r#"{{"error":"bad-body","detail":"{}"}}"#, escape(&msg));
            let _ = write_response(stream, 400, &rid_header, "application/json", body.as_bytes());
            return;
        }
    };
    let mut assignments: Vec<Assignment> = Vec::with_capacity(x.rows());
    let mut embeddings = Vec::with_capacity(x.rows().div_ceil(ASSIGN_CHUNK_ROWS));
    for r0 in (0..x.rows()).step_by(ASSIGN_CHUNK_ROWS) {
        if Instant::now() >= compute_deadline {
            trace::attr("status", "503");
            shared.metrics.deadline_expired.inc();
            let _ = write_response(
                stream,
                503,
                &[("retry-after", "1"), ("x-request-id", rid)],
                "application/json",
                br#"{"error":"deadline","detail":"compute deadline exceeded"}"#,
            );
            return;
        }
        let chunk = x.slice_rows(r0, (r0 + ASSIGN_CHUNK_ROWS).min(x.rows()));
        match model.embed(&chunk) {
            Ok(z) => {
                assignments.extend(model.assign_with_tier(&chunk, &z, pressure));
                embeddings.push(z);
            }
            Err(err) => {
                trace::attr("status", "400");
                shared.metrics.client_errors.inc();
                let body = format!(r#"{{"error":"bad-input","detail":"{err}"}}"#);
                let _ = write_response(stream, 400, &rid_header, "application/json", body.as_bytes());
                return;
            }
        }
    }
    drop(eval_span);
    drop(eval_timer);
    trace::attr("status", "200");
    shared.metrics.served.inc();
    mv.count_served();
    let tier = match effective {
        ServeMode::Full => &shared.metrics.served_full,
        ServeMode::NoDecoder => &shared.metrics.served_no_decoder,
        ServeMode::CentroidOnly => &shared.metrics.served_centroid_only,
    };
    tier.inc();
    // The response reports the rung it was *answered* at, so a client can
    // tell checkpoint degradation and load shedding apart from the mix of
    // modes it sees. The drift flag appears only above observe policy, so
    // observe-mode responses stay byte-identical to a sentinel-less run.
    let drift_flag = shared.drift.stamps_responses().then(|| shared.drift.alarmed());
    let encode_span = trace::span("encode");
    let body = render_assignments(&effective, &model.phase, mv.version, drift_flag, &assignments);
    let _ = write_response(stream, 200, &rid_header, "application/json", body.as_bytes());
    drop(encode_span);
    // Feed the sentinel from the embeddings just answered, after the
    // response bytes are out. The socket closes only after this, so a
    // client that reads to EOF waits for it. Chunks reduce in request
    // order, rows in order: the sums match a whole-request reduction.
    if shared.drift.enabled() {
        let _drift_span = trace::span("drift");
        if let Some(batch) = model.drift_reduce(&embeddings) {
            shared.drift.record(&batch);
        }
    }
}

/// Parses a CSV request body: one sample per line, `want` comma-separated
/// finite floats per line, into one row-major batch. Returns a user-facing
/// message on failure; width/magnitude checks are deferred to
/// [`InferenceModel::validate`] except the width check needed to build a
/// rectangular batch.
fn parse_csv_body(body: &[u8], want: usize) -> Result<Matrix, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut data: Vec<f32> = Vec::new();
    let mut rows = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let start = data.len();
        for field in line.split(',') {
            let v: f32 = field
                .trim()
                .parse()
                .map_err(|_| format!("line {}: unparseable float '{field}'", i + 1))?;
            if !v.is_finite() {
                return Err(format!("line {}: non-finite value", i + 1));
            }
            if v.abs() > MAX_FEATURE_MAGNITUDE {
                return Err(format!(
                    "line {}: magnitude exceeds {MAX_FEATURE_MAGNITUDE:e}",
                    i + 1
                ));
            }
            data.push(v);
        }
        if data.len() - start != want {
            return Err(format!(
                "line {}: expected {want} features, got {}",
                i + 1,
                data.len() - start
            ));
        }
        rows += 1;
    }
    if rows == 0 {
        return Err("empty body: expected CSV rows of features".to_string());
    }
    Ok(Matrix::from_vec(rows, want, data))
}

/// Hand-rolled JSON for the assignment response. Float formatting uses
/// Rust's shortest-roundtrip `Display`, so identical inputs and model
/// version yield byte-identical responses — the chaos drill asserts
/// exactly that. `model_version` sits outside the `"assignments"` array,
/// so the hot-swap no-op property compares the array alone. `drift` is
/// `None` under observe policy (the field is omitted entirely — byte
/// identity with a sentinel-less server) and `Some(alarm state)` above it.
fn render_assignments(
    mode: &ServeMode,
    phase: &str,
    model_version: u64,
    drift: Option<bool>,
    assignments: &[Assignment],
) -> String {
    let mut out = String::with_capacity(64 + assignments.len() * 64);
    out.push_str(&format!(
        r#"{{"mode":"{}","phase":"{phase}","model_version":{model_version},"#,
        mode.as_str()
    ));
    if let Some(alarmed) = drift {
        out.push_str(&format!(r#""drift":{alarmed},"#));
    }
    out.push_str(r#""assignments":["#);
    for (i, a) in assignments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(r#"{{"label":{}"#, a.label));
        if !a.q.is_empty() {
            out.push_str(r#","q":["#);
            for (j, v) in a.q.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{v}"));
            }
            out.push(']');
        }
        if let Some(d) = a.dist {
            out.push_str(&format!(r#","dist":{d}"#));
        }
        if let Some(r) = a.recon_error {
            out.push_str(&format!(r#","recon_error":{r}"#));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Maps an [`AssignError`] to its response status (all client errors).
pub fn assign_status(err: &AssignError) -> u16 {
    match err {
        AssignError::DimMismatch { .. } | AssignError::OutOfRange { .. } => 400,
        AssignError::NonFinite => 500,
    }
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn csv_body_parses_and_rejects() {
        let ok = parse_csv_body(b"1,2,3\n4,5,6\n", 3).unwrap();
        assert_eq!(ok.shape(), (2, 3));
        assert_eq!(ok.row(1), &[4.0, 5.0, 6.0]);
        // Blank lines and surrounding whitespace are tolerated.
        let ws = parse_csv_body(b"\n 1 , 2 , 3 \n\n", 3).unwrap();
        assert_eq!(ws.shape(), (1, 3));
        assert!(parse_csv_body(b"", 3).unwrap_err().contains("empty"));
        assert!(parse_csv_body(b"1,2\n", 3).unwrap_err().contains("expected 3"));
        assert!(parse_csv_body(b"1,x,3\n", 3).unwrap_err().contains("line 1"));
        assert!(parse_csv_body(b"1,2,NaN\n", 3).unwrap_err().contains("non-finite"));
        assert!(parse_csv_body(b"1,2,1e30\n", 3).unwrap_err().contains("magnitude"));
        assert!(parse_csv_body(&[0xff, 0xfe, 0x00], 3).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn assignment_json_shape() {
        let full = render_assignments(
            &ServeMode::Full,
            "dec",
            1,
            None,
            &[Assignment {
                label: 2,
                q: vec![0.25, 0.75],
                dist: None,
                recon_error: Some(0.5),
            }],
        );
        assert_eq!(
            full,
            r#"{"mode":"full","phase":"dec","model_version":1,"assignments":[{"label":2,"q":[0.25,0.75],"recon_error":0.5}]}"#
        );
        let degraded = render_assignments(
            &ServeMode::CentroidOnly,
            "dec",
            3,
            Some(true),
            &[Assignment {
                label: 0,
                q: vec![],
                dist: Some(1.5),
                recon_error: None,
            }],
        );
        assert_eq!(
            degraded,
            r#"{"mode":"degraded-centroid-only","phase":"dec","model_version":3,"drift":true,"assignments":[{"label":0,"dist":1.5}]}"#
        );
    }

    #[test]
    fn shed_tier_is_monotone_and_ordered() {
        // Exact ladder boundaries for cap = 8: ≤4 full, 5–6 no-decoder,
        // 7+ centroid-only.
        assert_eq!(shed_tier(0, 8), ServeMode::Full);
        assert_eq!(shed_tier(4, 8), ServeMode::Full);
        assert_eq!(shed_tier(5, 8), ServeMode::NoDecoder);
        assert_eq!(shed_tier(6, 8), ServeMode::NoDecoder);
        assert_eq!(shed_tier(7, 8), ServeMode::CentroidOnly);
        assert_eq!(shed_tier(8, 8), ServeMode::CentroidOnly);
        // Monotone: more backlog never yields a *richer* answer.
        for cap in [1usize, 2, 3, 8, 32, 1000] {
            let mut last = 0u8;
            for depth in 0..=cap + 2 {
                let rank = shed_tier(depth, cap).rank();
                assert!(rank >= last, "cap {cap}: rung got richer at depth {depth}");
                last = rank;
            }
        }
        // An idle queue is always full-rung, a full queue never is
        // (except the degenerate cap=1, where depth 0 is the only
        // admissible state anyway).
        for cap in [2usize, 8, 32, 128] {
            assert_eq!(shed_tier(0, cap), ServeMode::Full);
            assert_ne!(shed_tier(cap, cap), ServeMode::Full);
        }
    }

    #[test]
    fn assign_error_statuses() {
        assert_eq!(assign_status(&AssignError::DimMismatch { got: 1, want: 2 }), 400);
        assert_eq!(assign_status(&AssignError::OutOfRange { row: 0 }), 400);
        assert_eq!(assign_status(&AssignError::NonFinite), 500);
    }

    #[test]
    fn config_derives_wedge_budget() {
        let mut c = ServerConfig::default();
        assert_eq!(c.replicas, 2, "two replicas unless told otherwise");
        assert_eq!(c.wedge_budget(), c.read_deadline_ms + c.deadline_ms + 2_000);
        c.wedge_budget_ms = 250;
        assert_eq!(c.wedge_budget(), 250);
    }
}
