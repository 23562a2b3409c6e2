//! The `sqipd` server: accept loop, per-connection reader/writer
//! threads, a worker pool draining the [`FairQueue`], and a deadline
//! monitor enforcing per-job timeouts.
//!
//! # Threading model
//!
//! One thread accepts connections. Each connection gets a **reader**
//! (parses request lines, performs admission) and a **writer** (drains a
//! bounded response channel onto the socket). `workers` threads pop jobs
//! from the shared queue and run them on a [`SweepEngine`], streaming
//! each finished cell as a [`Response::Row`] through the owning
//! connection's channel. A monitor thread flips the [`CancelToken`] of
//! any job past its deadline.
//!
//! # Backpressure
//!
//! Memory is bounded at every stage: a request line is read into at
//! most [`MAX_REQUEST_LINE`] bytes (a longer one is answered with an
//! error and discarded), the job queue admits at most `queue_capacity`
//! jobs (pushes beyond that are *rejected*, not buffered), and each
//! connection's response channel holds at most
//! [`RESPONSE_CHANNEL_DEPTH`] messages. A worker streaming rows to a
//! client that has stopped reading blocks on that bounded channel,
//! polling its cancel token — so a stalled client wedges only its own
//! jobs until their timeout fires, never the server. With
//! [`ServerConfig::rate`] set, a per-client token bucket additionally
//! bounds how fast any one connection may *submit* — overflow gets a
//! clean rejection, never a stalled or dropped connection.

use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sqip::{CancelToken, CellEvent, Experiment, SqipError, SweepEngine};

use crate::journal::{Journal, PendingJob};
use crate::lock_unpoisoned;
use crate::protocol::{
    from_line, read_bounded_line, to_line, LineRead, Request, Response, StatsSnapshot,
};
use crate::queue::{FairQueue, PushError};

/// Per-connection response channel depth. Small on purpose: rows are
/// produced by workers and consumed at socket speed, and the channel is
/// the only per-connection buffering.
pub const RESPONSE_CHANNEL_DEPTH: usize = 256;

/// The longest request line the server reads, newline included. A
/// longer line is answered with [`Response::Error`] and discarded as it
/// arrives, so no connection ever buffers more than this.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The cancel reason that marks shutdown — the one way a job may stop
/// *without* settling its journal entry, so a restarted server re-runs
/// it.
const SHUTDOWN_REASON: &str = "server shutdown";

/// The reserved queue-client id recovered jobs run under (real
/// connections are numbered from 1).
const RECOVERY_CLIENT: u64 = 0;

/// How the server is sized and guarded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Jobs admitted to the queue at once (beyond the ones running).
    pub queue_capacity: usize,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Threads each worker hands to its [`SweepEngine`] (per-job
    /// parallelism; total simulation threads ≈ `workers × threads_per_job`).
    pub threads_per_job: usize,
    /// Default per-job wall-clock budget in milliseconds when a submit
    /// names none; `0` disables the default timeout.
    pub default_timeout_ms: u64,
    /// Largest cell count a single job may expand to.
    pub max_cells_per_job: usize,
    /// Path of the persistent job journal; `None` (the default) serves
    /// from memory only. With a journal, admitted jobs that never
    /// settle — the process was killed, or shut down with work queued
    /// or running — are re-queued by the next server that opens it.
    pub journal: Option<std::path::PathBuf>,
    /// Per-client submit rate limit; `None` (the default) admits at any
    /// rate the queue can absorb. Each connection gets its own token
    /// bucket, so one chatty client exhausts only its own budget.
    pub rate: Option<RateLimit>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 16,
            workers: 2,
            threads_per_job: 1,
            default_timeout_ms: 300_000,
            max_cells_per_job: 256,
            journal: None,
            rate: None,
        }
    }
}

/// A token-bucket submit rate: a sustained `per_sec` jobs per second
/// with bursts of up to `burst` back-to-back submits.
///
/// Parses from `"<per_sec>"` or `"<per_sec>:<burst>"` (the `--rate`
/// flag's syntax); a bare rate gets `burst = per_sec`. Submits beyond
/// the budget are answered with a clean [`Response::Rejected`] — the
/// connection stays usable and the client may retry after backing off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained refill rate, tokens (= submits) per second. Never zero.
    pub per_sec: u64,
    /// Bucket capacity: how many submits may arrive back-to-back before
    /// the sustained rate applies. Never zero.
    pub burst: u64,
}

impl std::str::FromStr for RateLimit {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (rate, burst) = match s.split_once(':') {
            Some((rate, burst)) => (rate, Some(burst)),
            None => (s, None),
        };
        let per_sec: u64 = rate
            .parse()
            .map_err(|_| format!("invalid rate `{rate}` (want jobs/s)"))?;
        let burst: u64 = match burst {
            Some(b) => b
                .parse()
                .map_err(|_| format!("invalid burst `{b}` (want a job count)"))?,
            None => per_sec,
        };
        if per_sec == 0 || burst == 0 {
            return Err("rate and burst must both be at least 1".into());
        }
        Ok(RateLimit { per_sec, burst })
    }
}

/// Micro-tokens per token: integer refill math at microsecond
/// granularity, so fractional refills accumulate instead of rounding to
/// zero between closely spaced submits.
const MICRO: u64 = 1_000_000;

impl RateLimit {
    /// Takes one token from `bucket` at time `now`, refilling first.
    /// Returns whether the submit is admitted.
    fn admit(&self, bucket: &mut Bucket, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(bucket.refilled_at);
        let refill = u64::try_from(elapsed.as_micros())
            .unwrap_or(u64::MAX)
            .saturating_mul(self.per_sec);
        bucket.micro_tokens = bucket
            .micro_tokens
            .saturating_add(refill)
            .min(self.burst.saturating_mul(MICRO));
        bucket.refilled_at = now;
        if bucket.micro_tokens >= MICRO {
            bucket.micro_tokens -= MICRO;
            true
        } else {
            false
        }
    }

    /// A fresh, full bucket — a new client may burst immediately.
    fn full_bucket(&self, now: Instant) -> Bucket {
        Bucket {
            micro_tokens: self.burst.saturating_mul(MICRO),
            refilled_at: now,
        }
    }
}

/// One client's token-bucket state (see [`RateLimit`]).
struct Bucket {
    /// Remaining budget in micro-tokens ([`MICRO`] per submit).
    micro_tokens: u64,
    /// When the bucket last refilled; elapsed wall time since then is
    /// the next refill's credit.
    refilled_at: Instant,
}

/// A job sitting in the queue: the validated experiment plus everything
/// needed to stream its results back.
struct Job {
    key: JobKey,
    display_id: String,
    experiment: Experiment,
    cells: usize,
    accepted_at: Instant,
    reply: SyncSender<Response>,
    /// The job's journal admission, settled when the job finishes for
    /// any reason other than server shutdown.
    journal_seq: Option<u64>,
}

type JobKey = (u64, String);

/// Control block for a registered (queued or running) job.
struct JobCtl {
    token: CancelToken,
    deadline: Option<Instant>,
    /// Set by whoever cancels, read by the worker when reporting.
    reason: Mutex<Option<&'static str>>,
}

impl JobCtl {
    fn cancel(&self, reason: &'static str) {
        let mut slot = lock_unpoisoned(&self.reason);
        if slot.is_none() {
            *slot = Some(reason);
        }
        drop(slot);
        self.token.cancel();
    }

    fn reason(&self) -> &'static str {
        lock_unpoisoned(&self.reason).unwrap_or("cancelled")
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    running: AtomicU64,
    rate_limited: AtomicU64,
}

struct Shared {
    cfg: ServerConfig,
    journal: Option<Journal>,
    queue: FairQueue<Job>,
    jobs: Mutex<BTreeMap<JobKey, Arc<JobCtl>>>,
    shutdown: AtomicBool,
    /// Global completion sequence — stamps `Done.seq` so tests and
    /// clients can observe scheduling order.
    seq: AtomicU64,
    next_client: AtomicU64,
    counters: Counters,
    /// Per-client token buckets, present only when `cfg.rate` is set.
    /// Entries are created on a client's first submit and dropped when
    /// its connection ends.
    buckets: Mutex<BTreeMap<u64, Bucket>>,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            queue_len: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            queue_high_water: self.queue.high_water() as u64,
            running: self.counters.running.load(Ordering::Relaxed),
            workers: self.cfg.workers as u64,
            rate_limited: self.counters.rate_limited.load(Ordering::Relaxed),
            rate_clients: lock_unpoisoned(&self.buckets).len() as u64,
        }
    }

    fn register(&self, key: JobKey, ctl: Arc<JobCtl>) {
        lock_unpoisoned(&self.jobs).insert(key, ctl);
    }

    fn unregister(&self, key: &JobKey) -> Option<Arc<JobCtl>> {
        lock_unpoisoned(&self.jobs).remove(key)
    }

    fn cancel_job(&self, key: &JobKey, reason: &'static str) -> bool {
        match lock_unpoisoned(&self.jobs).get(key) {
            Some(ctl) => {
                ctl.cancel(reason);
                true
            }
            None => false,
        }
    }

    /// Cancels every registered job belonging to `client` (used on
    /// disconnect and shutdown).
    fn cancel_client(&self, client: u64, reason: &'static str) {
        let table = lock_unpoisoned(&self.jobs);
        for (key, ctl) in table.iter() {
            if key.0 == client {
                ctl.cancel(reason);
            }
        }
    }

    fn cancel_all(&self, reason: &'static str) {
        let table = lock_unpoisoned(&self.jobs);
        for ctl in table.values() {
            ctl.cancel(reason);
        }
    }

    /// Marks a job's journal admission settled, when both exist.
    fn settle_journal(&self, seq: Option<u64>) {
        if let (Some(journal), Some(seq)) = (&self.journal, seq) {
            journal.settle(seq);
        }
    }
}

/// A bound-but-not-yet-running server. Call [`run`](Server::run) (or
/// [`spawn`](Server::spawn) for tests) to serve.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Unsettled jobs replayed from the journal, re-queued when the
    /// server starts serving.
    recovered: Vec<PendingJob>,
}

/// A cloneable remote control for a running server: shutdown and
/// statistics, usable from any thread (tests drive assertions with it).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServerHandle {
    /// The address the server listens on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Initiates shutdown: closes the queue, cancels every job, and
    /// unblocks the accept loop. Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, Some(self.addr));
    }
}

impl Server {
    /// Binds to `addr` (`"127.0.0.1:0"` picks an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let queue = FairQueue::new(cfg.queue_capacity);
        let (journal, recovered) = match &cfg.journal {
            Some(path) => {
                let (journal, pending) = Journal::open(path)?;
                (Some(journal), pending)
            }
            None => (None, Vec::new()),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                journal,
                queue,
                jobs: Mutex::new(BTreeMap::new()),
                shutdown: AtomicBool::new(false),
                seq: AtomicU64::new(0),
                next_client: AtomicU64::new(1),
                counters: Counters::default(),
                buckets: Mutex::new(BTreeMap::new()),
            }),
            recovered,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle (clone freely; valid before and during `run`).
    ///
    /// # Errors
    ///
    /// Propagates the socket address query failure.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.local_addr()?,
        })
    }

    /// Binds, then serves on a background thread — the in-process form
    /// used by tests and embedders. Returns the control handle.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<ServerHandle> {
        let server = Server::bind(addr, cfg)?;
        let handle = server.handle()?;
        thread::Builder::new()
            .name("sqipd-accept".into())
            .spawn(move || server.run())?;
        Ok(handle)
    }

    /// Serves until [`ServerHandle::shutdown`] is called: spawns the
    /// worker pool and deadline monitor, re-queues journal-recovered
    /// jobs, then accepts connections.
    pub fn run(self) {
        let Server {
            listener,
            shared,
            recovered,
        } = self;
        let shared = &shared;
        thread::scope(|scope| {
            // Thread-spawn failures (fd/memory exhaustion) degrade the
            // pool instead of aborting the server; with zero workers the
            // queue would wedge, so that one case refuses to serve.
            let mut workers = 0usize;
            for w in 0..shared.cfg.workers.max(1) {
                let shared = Arc::clone(shared);
                match thread::Builder::new()
                    .name(format!("sqipd-worker-{w}"))
                    .spawn_scoped(scope, move || worker_loop(&shared))
                {
                    Ok(_) => workers += 1,
                    Err(err) => eprintln!("sqipd: failed to spawn worker {w}: {err}"),
                }
            }
            if workers == 0 {
                eprintln!("sqipd: no workers could be spawned; shutting down");
                initiate_shutdown(shared, listener.local_addr().ok());
                return;
            }
            {
                let shared = Arc::clone(shared);
                if let Err(err) = thread::Builder::new()
                    .name("sqipd-deadline".into())
                    .spawn_scoped(scope, move || deadline_loop(&shared))
                {
                    // Degraded mode: jobs run without timeout
                    // enforcement but cancel/disconnect still work.
                    eprintln!("sqipd: failed to spawn deadline monitor: {err}");
                }
            }

            // Owed work first: journal-recovered jobs enter the queue
            // before any new connection can race a submit in.
            requeue_recovered(shared, recovered);

            for stream in listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let shared = Arc::clone(shared);
                let client = shared.next_client.fetch_add(1, Ordering::Relaxed);
                // Register here, not in the connection thread: the
                // round-robin cursor must know clients in accept order
                // before any of them can race a submit in.
                shared.queue.register(client);
                // Connection threads are detached: they end when the
                // peer disconnects, and shutdown cancels their jobs.
                let _ = thread::Builder::new()
                    .name(format!("sqipd-conn-{client}"))
                    .spawn(move || serve_connection(&shared, client, stream));
            }
        });
    }
}

/// Flips the shutdown flag once: closes the queue, cancels every job,
/// and (when the listen address is known) nudges the accept loop awake.
///
/// Jobs stopped here are cancelled with [`SHUTDOWN_REASON`] and their
/// journal admissions stay unsettled — the next server to open the
/// journal re-runs them.
fn initiate_shutdown(shared: &Shared, addr: Option<SocketAddr>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.queue.close();
    shared.cancel_all(SHUTDOWN_REASON);
    if let Some(addr) = addr {
        let _ = TcpStream::connect(addr);
    }
}

/// Re-admits journal-recovered jobs under the reserved
/// [`RECOVERY_CLIENT`]. Their original clients are gone, so results
/// stream into a closed channel — the work (and the journal settling
/// that records it) is the point. A job whose spec no longer builds
/// (say, a runtime-registered design that was not re-registered) is
/// settled as failed rather than recovered forever.
fn requeue_recovered(shared: &Shared, recovered: Vec<PendingJob>) {
    if recovered.is_empty() {
        return;
    }
    shared.queue.register(RECOVERY_CLIENT);
    for pending in recovered {
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let built = pending
            .spec
            .to_experiment()
            .and_then(|e| e.cells().map(|cells| (cells.len(), e)));
        let (cells, experiment) = match built {
            Ok(built) => built,
            Err(err) => {
                eprintln!(
                    "sqipd: journal job `{}` no longer builds ({err}); settling as failed",
                    pending.id
                );
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                shared.settle_journal(Some(pending.seq));
                continue;
            }
        };
        let job = Job {
            key: (RECOVERY_CLIENT, format!("r{}:{}", pending.seq, pending.id)),
            display_id: pending.id.clone(),
            experiment,
            cells,
            accepted_at: Instant::now(),
            // A fresh channel whose receiver is dropped immediately:
            // sends fail fast instead of buffering.
            reply: sync_channel::<Response>(1).0,
            journal_seq: Some(pending.seq),
        };
        let timeout = pending.timeout_ms.unwrap_or(shared.cfg.default_timeout_ms);
        let ctl = Arc::new(JobCtl {
            token: CancelToken::new(),
            deadline: (timeout > 0).then(|| Instant::now() + Duration::from_millis(timeout)),
            reason: Mutex::new(None),
        });
        let key = job.key.clone();
        shared.register(key.clone(), Arc::clone(&ctl));
        match shared.queue.push(RECOVERY_CLIENT, job) {
            Ok(()) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) => {
                // Left unsettled on purpose: the next restart retries.
                shared.unregister(&key);
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "sqipd: could not re-queue journal job `{}`: {err}",
                    pending.id
                );
            }
        }
    }
}

/// Enforces per-job deadlines with a coarse (10 ms) tick — timeouts are
/// budgets, not precision timers.
fn deadline_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        {
            let table = lock_unpoisoned(&shared.jobs);
            let now = Instant::now();
            for ctl in table.values() {
                if let Some(deadline) = ctl.deadline {
                    if now >= deadline && !ctl.token.is_cancelled() {
                        ctl.cancel("timeout");
                    }
                }
            }
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Sends a response, blocking on the bounded channel but giving up if
/// `token` (when present) cancels or the connection is gone. Returns
/// `false` once the connection is gone.
fn send_response(
    reply: &SyncSender<Response>,
    token: Option<&CancelToken>,
    message: Response,
) -> bool {
    let mut message = message;
    loop {
        match reply.try_send(message) {
            Ok(()) => return true,
            Err(TrySendError::Disconnected(_)) => return false,
            Err(TrySendError::Full(back)) => {
                if token.is_some_and(CancelToken::is_cancelled) {
                    return false;
                }
                message = back;
                thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        // The job STAYS registered while it runs — that is what lets
        // cancel requests, the deadline monitor, and disconnect cleanup
        // reach its token. `run_job` unregisters it as it settles.
        let ctl = lock_unpoisoned(&shared.jobs)
            .get(&job.key)
            .cloned()
            .unwrap_or_else(|| {
                // The reader raced a disconnect and already dropped the
                // entry — settle as cancelled without running.
                let token = CancelToken::new();
                token.cancel();
                Arc::new(JobCtl {
                    token,
                    deadline: None,
                    reason: Mutex::new(Some("client disconnected")),
                })
            });
        shared.counters.running.fetch_add(1, Ordering::Relaxed);
        run_job(shared, &job, &ctl);
        shared.counters.running.fetch_sub(1, Ordering::Relaxed);
    }
}

fn run_job(shared: &Shared, job: &Job, ctl: &JobCtl) {
    let id = job.display_id.clone();
    if ctl.token.is_cancelled() {
        shared.unregister(&job.key);
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
        if ctl.reason() != SHUTDOWN_REASON {
            shared.settle_journal(job.journal_seq);
        }
        send_response(
            &job.reply,
            None,
            Response::Cancelled {
                id,
                reason: ctl.reason().to_string(),
            },
        );
        return;
    }

    let reply = job.reply.clone();
    let row_id = job.display_id.clone();
    let row_token = ctl.token.clone();
    let engine = SweepEngine::new()
        .threads(shared.cfg.threads_per_job.max(1))
        .cancel_token(ctl.token.clone())
        .on_cell(move |event| match event {
            CellEvent::Finished { index, record } => {
                send_response(
                    &reply,
                    Some(&row_token),
                    Response::Row {
                        id: row_id.clone(),
                        index,
                        record,
                    },
                );
            }
            // Cell failures surface through the sweep result below.
            CellEvent::Failed { .. } => {}
        });

    let result = engine.run(&job.experiment);
    // Unregister before answering, so the client can reuse the id the
    // moment it sees the terminal response.
    shared.unregister(&job.key);
    match result {
        Ok(results) => {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            shared.settle_journal(job.journal_seq);
            let seq = shared.seq.fetch_add(1, Ordering::SeqCst);
            send_response(
                &job.reply,
                None,
                Response::Done {
                    id,
                    rows: results.len(),
                    seq,
                    wall_ms: job.accepted_at.elapsed().as_millis() as u64,
                },
            );
        }
        Err(SqipError::Cancelled { .. }) => {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            // A shutdown cancellation is the one unsettled exit: the
            // journal still owes this job, and the next boot re-runs it.
            if ctl.reason() != SHUTDOWN_REASON {
                shared.settle_journal(job.journal_seq);
            }
            send_response(
                &job.reply,
                None,
                Response::Cancelled {
                    id,
                    reason: ctl.reason().to_string(),
                },
            );
        }
        // A failed or panicked cell (the sweep catches a cell's unwind
        // and names the cell): settled, so a restart does not re-run it.
        Err(err) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            shared.settle_journal(job.journal_seq);
            send_response(
                &job.reply,
                None,
                Response::Error {
                    id,
                    reason: err.to_string(),
                },
            );
        }
    }
}

/// Handles one client: spawns the writer, then reads request lines until
/// EOF, shutdown, or a socket error. On exit, cancels the client's
/// running jobs and drops its queued ones.
fn serve_connection(shared: &Arc<Shared>, client: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // The accept loop already registered this client; re-registering is
    // an idempotent no-op kept for embedders that call this directly.
    shared.queue.register(client);
    let (tx, rx) = sync_channel::<Response>(RESPONSE_CHANNEL_DEPTH);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    // A client that stops reading must not wedge the writer (and through
    // the bounded channel, a worker) forever: a stalled write eventually
    // errors, the writer goes into drain mode, and the channel empties.
    let _ = writer_stream.set_write_timeout(Some(Duration::from_secs(30)));
    let writer = match thread::Builder::new()
        .name(format!("sqipd-write-{client}"))
        .spawn(move || writer_loop(writer_stream, &rx))
    {
        Ok(handle) => handle,
        Err(err) => {
            // No writer means no way to answer; drop the connection
            // before it can submit anything.
            eprintln!("sqipd: failed to spawn writer for client {client}: {err}");
            shared.queue.remove_client(client);
            return;
        }
    };

    reader_loop(shared, client, &stream, &tx);

    // Reader is done (disconnect or shutdown): settle this client.
    shared.cancel_client(client, "client disconnected");
    for job in shared.queue.remove_client(client) {
        if let Some(ctl) = shared.unregister(&job.key) {
            ctl.cancel("client disconnected");
        }
        // Orphaned queued jobs settle here — nobody will ever run them,
        // and nobody is owed their results. Unless the disconnect *is*
        // the shutdown: then the journal still owes them to the next
        // boot.
        if !shared.shutdown.load(Ordering::SeqCst) {
            shared.settle_journal(job.journal_seq);
        }
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    // The client id is never reused, so its bucket is dead state now.
    lock_unpoisoned(&shared.buckets).remove(&client);
    drop(tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Drains the response channel onto the socket, one line per message.
/// After a write error it keeps draining (so workers never block on a
/// dead connection) without writing.
fn writer_loop(stream: TcpStream, rx: &Receiver<Response>) {
    let mut out = BufWriter::new(stream);
    let mut dead = false;
    while let Ok(message) = rx.recv() {
        if dead {
            continue;
        }
        let line = to_line(&message);
        if out
            .write_all(line.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_err()
        {
            dead = true;
        }
    }
}

fn reader_loop(shared: &Arc<Shared>, client: u64, stream: &TcpStream, tx: &SyncSender<Response>) {
    let Ok(read_stream) = stream.try_clone() else {
        return;
    };
    let mut lines = BufReader::new(read_stream);
    let mut buf = Vec::new();
    let bad_line = |reason: String| Response::Error {
        id: String::new(),
        reason,
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_bounded_line(&mut lines, &mut buf, MAX_REQUEST_LINE) {
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::TooLong) => {
                let reason = format!("request line longer than {MAX_REQUEST_LINE} bytes");
                send_response(tx, None, bad_line(reason));
                continue;
            }
            Ok(LineRead::Line) => {}
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            send_response(tx, None, bad_line("request line is not UTF-8".into()));
            continue;
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match from_line::<Request>(line) {
            Ok(req) => req,
            Err(err) => {
                send_response(tx, None, bad_line(format!("bad request line: {err}")));
                continue;
            }
        };
        match request {
            Request::Submit {
                id,
                spec,
                timeout_ms,
            } => handle_submit(shared, client, tx, id, &spec, timeout_ms),
            Request::Cancel { id } => {
                let key = (client, id.clone());
                if shared.cancel_job(&key, "cancel requested") {
                    // The worker reports `cancelled` when it settles the
                    // job; nothing to say yet.
                } else {
                    send_response(
                        tx,
                        None,
                        Response::Error {
                            id,
                            reason: "no such job on this connection".into(),
                        },
                    );
                }
            }
            Request::Ping => {
                send_response(tx, None, Response::Pong);
            }
            Request::Stats => {
                send_response(tx, None, Response::Stats(shared.snapshot()));
            }
            Request::Shutdown => {
                send_response(tx, None, Response::ShuttingDown);
                // The accepted socket's local address shares the
                // listener's port, so it doubles as the nudge target.
                initiate_shutdown(shared, stream.local_addr().ok());
                return;
            }
        }
    }
}

fn handle_submit(
    shared: &Shared,
    client: u64,
    tx: &SyncSender<Response>,
    id: String,
    spec: &sqip::ExperimentSpec,
    timeout_ms: Option<u64>,
) {
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        send_response(
            tx,
            None,
            Response::Rejected {
                id,
                reason: "server is shutting down".into(),
            },
        );
        return;
    }

    // Rate limiting comes before validation on purpose: a limited
    // client must not be able to spend server CPU on spec expansion.
    if let Some(rate) = &shared.cfg.rate {
        let now = Instant::now();
        let mut buckets = lock_unpoisoned(&shared.buckets);
        let bucket = buckets
            .entry(client)
            .or_insert_with(|| rate.full_bucket(now));
        let admitted = rate.admit(bucket, now);
        drop(buckets);
        if !admitted {
            shared.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            send_response(
                tx,
                None,
                Response::Rejected {
                    id,
                    reason: format!(
                        "rate limited: this client may submit {}/s (burst {})",
                        rate.per_sec, rate.burst
                    ),
                },
            );
            return;
        }
    }

    // Validate before admission: a spec that cannot build an experiment
    // never occupies a queue slot.
    let experiment = match spec.to_experiment() {
        Ok(e) => e,
        Err(err) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            send_response(
                tx,
                None,
                Response::Error {
                    id,
                    reason: err.to_string(),
                },
            );
            return;
        }
    };
    let cells = match experiment.cells() {
        Ok(cells) => cells.len(),
        Err(err) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            send_response(
                tx,
                None,
                Response::Error {
                    id,
                    reason: err.to_string(),
                },
            );
            return;
        }
    };
    if cells > shared.cfg.max_cells_per_job {
        shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
        send_response(
            tx,
            None,
            Response::Rejected {
                id,
                reason: format!(
                    "job expands to {cells} cells; this server admits at most {}",
                    shared.cfg.max_cells_per_job
                ),
            },
        );
        return;
    }

    let key = (client, id.clone());
    if lock_unpoisoned(&shared.jobs).contains_key(&key) {
        shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        send_response(
            tx,
            None,
            Response::Error {
                id,
                reason: "a job with this id is already queued or running on this connection".into(),
            },
        );
        return;
    }

    let timeout = match timeout_ms {
        Some(ms) => ms,
        None => shared.cfg.default_timeout_ms,
    };
    let ctl = Arc::new(JobCtl {
        token: CancelToken::new(),
        deadline: (timeout > 0).then(|| Instant::now() + Duration::from_millis(timeout)),
        reason: Mutex::new(None),
    });
    shared.register(key.clone(), Arc::clone(&ctl));
    // Journal before the push: once the job is in the queue a worker may
    // finish (and settle) it at any moment, and a settle must never
    // precede its admission.
    let journal_seq = shared
        .journal
        .as_ref()
        .map(|journal| journal.admit(&id, spec, timeout_ms));
    let job = Job {
        key: key.clone(),
        display_id: id.clone(),
        experiment,
        cells,
        accepted_at: Instant::now(),
        reply: tx.clone(),
        journal_seq,
    };
    let cells = job.cells;
    match shared.queue.push(client, job) {
        Ok(()) => {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            send_response(tx, None, Response::Accepted { id, cells });
        }
        Err(err @ (PushError::Full { .. } | PushError::Closed)) => {
            shared.unregister(&key);
            // Never admitted, nothing owed.
            shared.settle_journal(journal_seq);
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            send_response(
                tx,
                None,
                Response::Rejected {
                    id,
                    reason: err.to_string(),
                },
            );
        }
    }
}
