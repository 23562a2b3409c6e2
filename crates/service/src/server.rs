//! The `sqipd` server: accept loop, per-connection reader/writer
//! threads, a worker pool draining the client-fair job queue, and a deadline
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
//! # Job lifecycle
//!
//! Every job, submitted by a client or recovered from the journal,
//! passes through the same three steps:
//!
//! 1. **Admission** (`admit`). A submit first passes the client-only
//!    checks: the server is not shutting down, the client's rate limit
//!    (when set) has a token, and no job of the same id is queued or
//!    running on the connection. A recovered job skips them: its client
//!    is gone and its key is unique. Both then take one path: the spec
//!    must build an experiment of at most `max_cells_per_job` cells, a
//!    new job is journaled (a recovered one keeps its line), and the job
//!    is registered for cancellation and given a slot on the bounded
//!    queue. It is answered `accepted` before the slot is published to
//!    the workers, so `accepted` is always its first reply.
//! 2. **Queue and run.** A worker pops the job, which carries its own
//!    cancel control, and runs its sweep. Client cancel, timeout,
//!    disconnect and shutdown all stop it through that control.
//! 3. **Settle** (`settle`), once per job, however it ends: run to
//!    completion, failed, cancelled, refused by the shared admission
//!    checks, or drained from the queue when its client disconnects.
//!    The job is unregistered, one counter is bumped, its journal
//!    admission is settled unless the job is still owed, and its
//!    terminal response is sent. A job is owed if and only if server shutdown stopped it:
//!    the next server to open the journal runs it again. A recovered job
//!    the queue cannot take is not settled either; it stays owed.
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

use sqip::{CancelToken, CellEvent, Experiment, ExperimentSpec, SqipError, SweepEngine};

use crate::journal::{Journal, PendingJob};
use crate::lock_unpoisoned;
use crate::protocol::{
    from_line, read_bounded_line, to_line, LineRead, Request, Response, StatsSnapshot,
};
use crate::queue::FairQueue;

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

/// Whom a job answers and which journal admission it holds: all the
/// one settle step needs.
#[derive(Clone)]
struct Ticket {
    /// The client and the job id; the id names the job in responses.
    key: JobKey,
    reply: SyncSender<Response>,
    /// The job's journal admission, when the server keeps a journal.
    journal_seq: Option<u64>,
}

/// An admitted job, queued or running: the validated experiment plus
/// its ticket and the control block every way of stopping it reaches.
struct Job {
    ticket: Ticket,
    experiment: Experiment,
    accepted_at: Instant,
    ctl: Arc<JobCtl>,
}

impl Job {
    /// The terminal answer of a job stopped through its control block.
    fn cancelled(&self) -> Response {
        Response::Cancelled {
            id: self.ticket.key.1.clone(),
            reason: self.ctl.reason().to_string(),
        }
    }
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
    /// disconnect).
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
            // before any new connection can race a submit in. Their
            // clients are gone, so they answer into a channel with no
            // receiver: the work, and the journal line recording it, is
            // the point. A job this server refuses (its design is no
            // longer registered, or it exceeds the cell limit) is
            // settled, not recovered forever.
            for pending in recovered {
                shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
                let key = (RECOVERY_CLIENT, format!("r{}:{}", pending.seq, pending.id));
                let reply = sync_channel(1).0;
                let seq = Some(pending.seq);
                if let Err(reason) =
                    admit(shared, key, &pending.spec, pending.timeout_ms, reply, seq)
                {
                    eprintln!("sqipd: journal job `{}` refused: {reason}", pending.id);
                }
            }

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
        shared.counters.running.fetch_add(1, Ordering::Relaxed);
        run_job(shared, &job);
        shared.counters.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs a job's sweep, streaming each finished cell as a row, and
/// settles the job by how the sweep ended. A job cancelled while it was
/// still queued takes the `Cancelled` arm too: under a cancelled token
/// the sweep opens no workload.
fn run_job(shared: &Shared, job: &Job) {
    let Ticket { key, reply, .. } = &job.ticket;
    let (row_reply, row_id, row_token) = (reply.clone(), key.1.clone(), job.ctl.token.clone());
    let engine = SweepEngine::new()
        .threads(shared.cfg.threads_per_job.max(1))
        .cancel_token(job.ctl.token.clone())
        .on_cell(move |event| {
            // Cell failures surface through the sweep result below.
            if let CellEvent::Finished { index, record } = event {
                let id = row_id.clone();
                send_response(
                    &row_reply,
                    Some(&row_token),
                    Response::Row { id, index, record },
                );
            }
        });

    let id = key.1.clone();
    let response = match engine.run(&job.experiment) {
        Ok(results) => Response::Done {
            id,
            rows: results.len(),
            seq: shared.seq.fetch_add(1, Ordering::SeqCst),
            wall_ms: job.accepted_at.elapsed().as_millis() as u64,
        },
        Err(SqipError::Cancelled { .. }) => job.cancelled(),
        // A failed or panicked cell (the sweep catches a cell's unwind
        // and names the cell): settled, so a restart does not re-run it.
        Err(err) => Response::Error {
            id,
            reason: err.to_string(),
        },
    };
    settle(shared, &job.ticket, response);
}

/// The one settle step, for every way a job ends (see the module docs):
/// unregisters the job, so its id is free the moment its client sees the
/// answer; bumps the counter `response` names; settles the journal
/// admission unless the job is still owed; and sends `response`. A job is
/// owed if and only if server shutdown stopped it, which its terminal
/// answer says.
fn settle(shared: &Shared, ticket: &Ticket, response: Response) {
    lock_unpoisoned(&shared.jobs).remove(&ticket.key);
    let counters = &shared.counters;
    let (counter, owed) = match &response {
        Response::Done { .. } => (&counters.completed, false),
        Response::Cancelled { reason, .. } => (&counters.cancelled, reason == SHUTDOWN_REASON),
        Response::Rejected { .. } => (&counters.rejected, false),
        _ => (&counters.failed, false),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if let (Some(journal), Some(seq), false) = (&shared.journal, ticket.journal_seq, owed) {
        journal.settle(seq);
    }
    send_response(&ticket.reply, None, response);
}

/// Handles one client: spawns the writer, then reads request lines until
/// EOF, shutdown, or a socket error. On exit, cancels the client's
/// jobs and settles the queued ones.
fn serve_connection(shared: &Arc<Shared>, client: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
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

    // Reader is done (disconnect or shutdown): cancel this client's
    // jobs. Running ones settle in their workers; queued ones settle
    // here, since no worker will ever pop them.
    shared.cancel_client(client, "client disconnected");
    for job in shared.queue.remove_client(client) {
        settle(shared, &job.ticket, job.cancelled());
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

/// The client-only admission checks (shutdown, rate limit, duplicate
/// id), then the one admission path.
fn handle_submit(
    shared: &Shared,
    client: u64,
    tx: &SyncSender<Response>,
    id: String,
    spec: &ExperimentSpec,
    timeout_ms: Option<u64>,
) {
    let counters = &shared.counters;
    counters.submitted.fetch_add(1, Ordering::Relaxed);
    let reject = |reason: String| {
        counters.rejected.fetch_add(1, Ordering::Relaxed);
        let id = id.clone();
        send_response(tx, None, Response::Rejected { id, reason });
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return reject("server is shutting down".into());
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
            counters.rate_limited.fetch_add(1, Ordering::Relaxed);
            let (per_sec, burst) = (rate.per_sec, rate.burst);
            return reject(format!(
                "rate limited: this client may submit {per_sec}/s (burst {burst})"
            ));
        }
    }
    let key = (client, id);
    if lock_unpoisoned(&shared.jobs).contains_key(&key) {
        counters.failed.fetch_add(1, Ordering::Relaxed);
        let reason = "a job with this id is already queued or running on this connection".into();
        send_response(tx, None, Response::Error { id: key.1, reason });
        return;
    }
    // The refusal, if any, has been answered on `tx`.
    let _ = admit(shared, key, spec, timeout_ms, tx.clone(), None);
}

/// The one admission path, for submitted and journal-recovered jobs
/// alike (see the module docs): builds the spec's experiment, enforces
/// `max_cells_per_job`, journals a new job (a `recovered` one keeps its
/// journal line), registers the job and pushes it onto the queue, then
/// answers `Accepted` on `reply`. A refused job is settled at once and
/// its reason returned. `key` must be free: the submit path checks, and
/// recovered keys are unique.
fn admit(
    shared: &Shared,
    key: JobKey,
    spec: &ExperimentSpec,
    timeout_ms: Option<u64>,
    reply: SyncSender<Response>,
    recovered: Option<u64>,
) -> Result<(), String> {
    let refuse = |ticket: &Ticket, rejected: bool, reason: String| {
        let (id, why) = (ticket.key.1.clone(), reason.clone());
        let response = if rejected {
            Response::Rejected { id, reason: why }
        } else {
            Response::Error { id, reason: why }
        };
        settle(shared, ticket, response);
        Err(reason)
    };
    let mut ticket = Ticket {
        key,
        reply,
        journal_seq: recovered,
    };
    let built = spec
        .to_experiment()
        .and_then(|e| e.cells().map(|cells| (cells.len(), e)));
    let (cells, experiment) = match built {
        Ok(built) => built,
        Err(err) => return refuse(&ticket, false, err.to_string()),
    };
    let limit = shared.cfg.max_cells_per_job;
    if cells > limit {
        let reason = format!("job expands to {cells} cells; this server admits at most {limit}");
        return refuse(&ticket, true, reason);
    }

    // Journal before the push: once the job is in the queue a worker may
    // finish (and settle) it at any moment, and a settle must never
    // precede its admission.
    if let (Some(journal), None) = (&shared.journal, recovered) {
        ticket.journal_seq = Some(journal.admit(&ticket.key.1, spec, timeout_ms));
    }
    let timeout = timeout_ms.unwrap_or(shared.cfg.default_timeout_ms);
    let ctl = Arc::new(JobCtl {
        token: CancelToken::new(),
        deadline: (timeout > 0).then(|| Instant::now() + Duration::from_millis(timeout)),
        reason: Mutex::new(None),
    });
    lock_unpoisoned(&shared.jobs).insert(ticket.key.clone(), Arc::clone(&ctl));
    // Reserve, answer, then publish: no worker can see the job, so no
    // row or terminal line of it can reach the client, before its
    // `accepted` line.
    let slot = match shared.queue.reserve(ticket.key.0) {
        Ok(slot) => slot,
        Err(err) => {
            // A recovered job the queue cannot take stays owed: the next
            // boot retries it.
            if recovered.is_some() {
                ticket.journal_seq = None;
            }
            return refuse(&ticket, true, err.to_string());
        }
    };
    let accepted_at = Instant::now();
    shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    let id = ticket.key.1.clone();
    send_response(&ticket.reply, None, Response::Accepted { id, cells });
    slot.publish(Job {
        ticket,
        experiment,
        accepted_at,
        ctl,
    });
    Ok(())
}
