//! End-to-end tests for the `sqipd` service, run in-process against
//! ephemeral-port servers: streamed rows must reassemble into the exact
//! batch artifact, admission control must reject (not drop) overflow,
//! scheduling must be client-fair, and cancellation (explicit, timeout,
//! disconnect) must settle every job.

use std::time::{Duration, Instant};

use sqip::{ExperimentSpec, ResultSet};
use sqip_service::{
    Connection, JobStatus, Request, Response, Server, ServerConfig, ServerHandle, MAX_REQUEST_LINE,
};

fn spawn(cfg: ServerConfig) -> ServerHandle {
    Server::spawn("127.0.0.1:0", cfg).expect("bind an ephemeral port")
}

/// A spec sized to finish quickly: 2 workloads × 2 designs = 4 cells.
fn small_spec() -> ExperimentSpec {
    ExperimentSpec::new(
        ["mix:0xfeed:30k", "chase:128:64:20k"],
        ["ideal-oracle", "indexed-3-fwd+dly"],
    )
}

/// A one-cell spec that runs long enough to still be in flight while a
/// test stages other jobs around it.
fn long_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec::new([format!("mix:{seed:#x}:4m")], ["ideal-oracle"])
}

/// Tentpole acceptance: rows streamed over the wire, reassembled in cell
/// order, are **byte-identical** to the batch `ResultSet` artifact the
/// same experiment produces in-process — JSON and CSV both.
#[test]
fn streamed_rows_reassemble_into_the_batch_artifact() {
    let server = spawn(ServerConfig::default());
    let mut conn = Connection::connect(server.addr()).unwrap();
    let spec = small_spec();

    let outcome = conn.run_job("job-1", &spec, None).unwrap();
    assert_eq!(outcome.status, Some(JobStatus::Done), "{outcome:?}");
    assert!(outcome.is_complete(), "{outcome:?}");
    assert_eq!(outcome.cells, Some(4));

    let mut rows = outcome.rows.clone();
    rows.sort_by_key(|(index, _)| *index);
    let streamed_json = format!(
        "[{}]",
        rows.iter()
            .map(|(_, r)| r.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    let streamed_csv: String = std::iter::once(format!("{}\n", ResultSet::csv_header()))
        .chain(rows.iter().map(|(_, r)| format!("{}\n", r.to_csv_row())))
        .collect();

    let batch = spec.to_experiment().unwrap().run().unwrap();
    assert_eq!(streamed_json, batch.to_json(), "JSON bytes diverge");
    assert_eq!(streamed_csv, batch.to_csv(), "CSV bytes diverge");

    server.shutdown();
}

/// Queue overflow is *rejected* with a reason on a live connection — the
/// connection keeps working and a later submit succeeds.
#[test]
fn queue_full_rejects_cleanly_and_connection_survives() {
    let server = spawn(ServerConfig {
        queue_capacity: 1,
        workers: 1,
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).unwrap();

    // j0 occupies the single worker...
    conn.send(&Request::Submit {
        id: "j0".into(),
        spec: long_spec(0xA),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
    // ...wait for the worker to pop it so the queue slot frees...
    let popped = Instant::now();
    while server.stats().queue_len > 0 {
        assert!(
            popped.elapsed() < Duration::from_secs(10),
            "worker never popped j0"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...j1 takes the only queue slot...
    conn.send(&Request::Submit {
        id: "j1".into(),
        spec: long_spec(0xB),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
    // ...and j2 must be rejected, with the capacity in the reason.
    conn.send(&Request::Submit {
        id: "j2".into(),
        spec: small_spec(),
        timeout_ms: None,
    })
    .unwrap();
    match conn.recv().unwrap() {
        Response::Rejected { id, reason } => {
            assert_eq!(id, "j2");
            assert!(reason.contains("full"), "reason: {reason}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // The connection is still healthy: ping works, and the stats counter
    // recorded the rejection.
    conn.send(&Request::Ping).unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Pong));
    assert_eq!(server.stats().rejected, 1);

    // Drain j0/j1 (rows interleave; count both terminal responses), then
    // a fresh job sails through.
    let mut done = 0;
    while done < 2 {
        if matches!(conn.recv().unwrap(), Response::Done { .. }) {
            done += 1;
        }
    }
    let outcome = conn.run_job("j3", &small_spec(), None).unwrap();
    assert!(outcome.is_complete(), "{outcome:?}");

    server.shutdown();
}

/// Per-client round-robin: while client A's flood occupies the queue, a
/// single job from client B is served before A's backlog.
#[test]
fn scheduling_is_client_fair() {
    let server = spawn(ServerConfig {
        queue_capacity: 8,
        workers: 1,
        ..ServerConfig::default()
    });
    let mut a = Connection::connect(server.addr()).unwrap();
    let mut b = Connection::connect(server.addr()).unwrap();
    // A pong proves the server accepted (and so queue-registered) B —
    // registration order, not connect order, drives the round-robin
    // cursor, and B must be known to it before A's flood is served.
    b.send(&Request::Ping).unwrap();
    assert!(matches!(b.recv().unwrap(), Response::Pong));

    // a0 occupies the single worker; wait until it is actually running.
    a.send(&Request::Submit {
        id: "a0".into(),
        spec: long_spec(0xC),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(a.recv().unwrap(), Response::Accepted { .. }));
    let popped = Instant::now();
    while server.stats().running == 0 {
        assert!(popped.elapsed() < Duration::from_secs(10), "a0 never ran");
        std::thread::sleep(Duration::from_millis(2));
    }

    // A floods its backlog, then B submits one job.
    for (id, seed) in [("a1", 0xD0u64), ("a2", 0xD1)] {
        a.send(&Request::Submit {
            id: id.into(),
            spec: long_spec(seed),
            timeout_ms: None,
        })
        .unwrap();
        assert!(matches!(a.recv().unwrap(), Response::Accepted { .. }));
    }
    b.send(&Request::Submit {
        id: "b0".into(),
        spec: small_spec(),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(b.recv().unwrap(), Response::Accepted { .. }));

    // Completion order (the server's global `seq`): a0 first, then b0 —
    // B's job does not wait behind A's whole backlog.
    let seq_of = |conn: &mut Connection| loop {
        if let Response::Done { seq, .. } = conn.recv().unwrap() {
            return seq;
        }
    };
    let b0 = seq_of(&mut b);
    let a_first = seq_of(&mut a);
    assert!(
        a_first < b0 && b0 < a_first + 2,
        "b0 (seq {b0}) should run immediately after a0 (seq {a_first})"
    );

    server.shutdown();
}

/// Per-client rate limiting: a burst beyond the bucket is rejected with
/// a reason, other clients keep their own budgets, and the bucket
/// refills at the sustained rate.
#[test]
fn rate_limit_rejects_burst_overflow_per_client() {
    let server = spawn(ServerConfig {
        rate: Some("1:2".parse().unwrap()),
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).unwrap();

    // Burst of 2: the first two submits are admitted back-to-back...
    for (id, seed) in [("r0", 0x20u64), ("r1", 0x21)] {
        conn.send(&Request::Submit {
            id: id.into(),
            spec: long_spec(seed),
            timeout_ms: None,
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
    }
    // ...and the third is turned away, naming the budget.
    conn.send(&Request::Submit {
        id: "r2".into(),
        spec: long_spec(0x22),
        timeout_ms: None,
    })
    .unwrap();
    match conn.recv().unwrap() {
        Response::Rejected { id, reason } => {
            assert_eq!(id, "r2");
            assert!(reason.contains("rate"), "reason: {reason}");
        }
        other => panic!("expected rate rejection, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.rate_limited, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.rate_clients, 1, "one bucket for the one submitter");

    // A second client draws on its own bucket — not starved by the first.
    let mut other = Connection::connect(server.addr()).unwrap();
    other
        .send(&Request::Submit {
            id: "s0".into(),
            spec: long_spec(0x23),
            timeout_ms: None,
        })
        .unwrap();
    assert!(matches!(other.recv().unwrap(), Response::Accepted { .. }));
    assert_eq!(server.stats().rate_clients, 2);

    // The bucket refills at 1 token/s: after a second the first client
    // submits again.
    std::thread::sleep(Duration::from_millis(1100));
    conn.send(&Request::Submit {
        id: "r3".into(),
        spec: long_spec(0x24),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));

    server.shutdown();
}

/// A per-job timeout cancels a long job promptly, reporting `timeout`.
#[test]
fn timeouts_cancel_with_reason() {
    let server = spawn(ServerConfig::default());
    let mut conn = Connection::connect(server.addr()).unwrap();
    let outcome = conn
        .run_job(
            "slow",
            &ExperimentSpec::new(["mix:0xE:400m"], ["ideal-oracle"]),
            Some(100),
        )
        .unwrap();
    match outcome.status {
        Some(JobStatus::Cancelled(reason)) => assert_eq!(reason, "timeout"),
        other => panic!("expected timeout cancellation, got {other:?}"),
    }
    server.shutdown();
}

/// An explicit cancel request settles the job as cancelled.
#[test]
fn explicit_cancel_settles_the_job() {
    let server = spawn(ServerConfig::default());
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.send(&Request::Submit {
        id: "victim".into(),
        spec: ExperimentSpec::new(["mix:0xF:400m"], ["ideal-oracle"]),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
    conn.send(&Request::Cancel {
        id: "victim".into(),
    })
    .unwrap();
    loop {
        match conn.recv().unwrap() {
            Response::Cancelled { id, reason } => {
                assert_eq!(id, "victim");
                assert_eq!(reason, "cancel requested");
                break;
            }
            Response::Row { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown();
}

/// Dropping a connection cancels its running jobs server-side.
#[test]
fn disconnect_cancels_running_jobs() {
    let server = spawn(ServerConfig::default());
    {
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.send(&Request::Submit {
            id: "orphan".into(),
            spec: ExperimentSpec::new(["mix:0x10:400m"], ["ideal-oracle"]),
            timeout_ms: None,
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
        // conn drops here.
    }
    let waited = Instant::now();
    while server.stats().cancelled == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "orphaned job was never cancelled: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// Protocol-level garbage gets an error response and the connection
/// keeps working; invalid specs report per-job errors without costing a
/// queue slot.
#[test]
fn bad_input_is_reported_without_killing_the_connection() {
    let server = spawn(ServerConfig::default());
    let conn = Connection::connect(server.addr()).unwrap();

    // Raw garbage line.
    use std::io::Write;
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
    assert!(line.contains("\"error\""), "got: {line}");

    // Structured requests with invalid content on a protocol connection.
    let mut conn = conn;
    let unknown_workload = conn.run_job(
        "bad-wl",
        &ExperimentSpec::new(["nope"], ["ideal-oracle"]),
        None,
    );
    match unknown_workload.unwrap().status {
        Some(JobStatus::Failed(reason)) => assert!(reason.contains("nope"), "{reason}"),
        other => panic!("expected failure, got {other:?}"),
    }
    let unknown_design = conn.run_job(
        "bad-d",
        &ExperimentSpec::new(["mix:1:10k"], ["no-such-design"]),
        None,
    );
    assert!(matches!(
        unknown_design.unwrap().status,
        Some(JobStatus::Failed(_))
    ));
    conn.send(&Request::Cancel { id: "ghost".into() }).unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Error { .. }));

    // Nothing above occupied the queue, and the connection still serves
    // real work.
    assert_eq!(server.stats().accepted, 0);
    let outcome = conn.run_job("good", &small_spec(), None).unwrap();
    assert!(outcome.is_complete());

    server.shutdown();
}

/// A spec whose knob passes the schema but builds no processor (a
/// zero-way FSP) is refused at submit, before it can reach a worker, and
/// the single worker still serves the next valid job.
#[test]
fn unbuildable_configuration_is_refused_at_submit() {
    let server = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).unwrap();
    // A refused job never settles on its own, so bound every wait.
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let bad = ExperimentSpec::new(["mix:1:1k"], ["associative-3"])
        .variant("no-ways", vec![("fsp_ways".to_string(), 0)]);
    conn.send(&Request::Submit {
        id: "bad".into(),
        spec: bad,
        timeout_ms: None,
    })
    .unwrap();
    match conn.recv().unwrap() {
        Response::Error { id, reason } => {
            assert_eq!(id, "bad");
            assert!(reason.contains("fsp"), "reason: {reason}");
        }
        other => panic!("expected a submit-time error, got {other:?}"),
    }
    assert_eq!(server.stats().accepted, 0);

    let outcome = conn.run_job("good", &small_spec(), None).unwrap();
    assert_eq!(outcome.status, Some(JobStatus::Done), "{outcome:?}");
    assert!(outcome.is_complete(), "{outcome:?}");

    server.shutdown();
}

/// An oversized request line is answered with an error, never
/// buffered whole, and the server keeps serving: a second connection
/// still gets `Pong`.
#[test]
fn oversized_request_line_is_rejected_in_bounded_memory() {
    use std::io::{BufRead, Write};
    let server = spawn(ServerConfig::default());

    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
    let mut line = vec![b'x'; MAX_REQUEST_LINE + 4096];
    line.push(b'\n');
    raw.write_all(&line).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match sqip_service::protocol::from_line::<Response>(&reply) {
        Ok(Response::Error { reason, .. }) => assert!(reason.contains("longer than"), "{reason}"),
        other => panic!("expected an error response, got {other:?}"),
    }

    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.send(&Request::Ping).unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Pong));
    server.shutdown();
}

/// The stats surface exposes the bounded-queue observables the soak
/// harness asserts on: capacity, high-water ≤ capacity, worker count.
#[test]
fn stats_expose_bounded_queue_observables() {
    let server = spawn(ServerConfig {
        queue_capacity: 3,
        workers: 2,
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).unwrap();
    let outcome = conn.run_job("one", &small_spec(), None).unwrap();
    assert!(outcome.is_complete());

    conn.send(&Request::Stats).unwrap();
    let stats = loop {
        if let Response::Stats(s) = conn.recv().unwrap() {
            break s;
        }
    };
    assert_eq!(stats.queue_capacity, 3);
    assert_eq!(stats.workers, 2);
    assert!(stats.queue_high_water <= stats.queue_capacity);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.submitted, 1);

    server.shutdown();
}

/// Shutdown via the protocol: acknowledged, queued work cancelled, and
/// subsequent submits rejected (server may also stop accepting
/// entirely — both are clean outcomes).
#[test]
fn protocol_shutdown_is_acknowledged() {
    let server = spawn(ServerConfig::default());
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.send(&Request::Shutdown).unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::ShuttingDown));
    // Idempotent from the handle side too.
    server.shutdown();
}

/// **The journal recovery property.** A server killed with work queued
/// and running owes that work: rebooting on the same journal re-queues
/// every unsettled job and runs it to completion — while work that
/// settled before the kill (completed, client-cancelled) is NOT re-run.
#[test]
fn journal_recovers_jobs_killed_mid_queue() {
    let path = std::env::temp_dir().join(format!("sqipd-journal-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig {
        queue_capacity: 8,
        workers: 1,
        journal: Some(path.clone()),
        ..ServerConfig::default()
    };

    // Boot 1: complete one job (settles), then stage a kill: a long job
    // occupying the single worker plus two queued behind it.
    let server = spawn(cfg.clone());
    let mut conn = Connection::connect(server.addr()).unwrap();
    let done = conn.run_job("paid-off", &small_spec(), None).unwrap();
    assert_eq!(done.status, Some(JobStatus::Done));

    conn.send(&Request::Submit {
        id: "in-flight".into(),
        spec: ExperimentSpec::new(["mix:0x11:2m"], ["ideal-oracle"]),
        timeout_ms: None,
    })
    .unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
    let popped = Instant::now();
    while server.stats().queue_len > 0 {
        assert!(
            popped.elapsed() < Duration::from_secs(10),
            "worker never popped"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for id in ["queued-1", "queued-2"] {
        conn.send(&Request::Submit {
            id: id.into(),
            spec: small_spec(),
            timeout_ms: None,
        })
        .unwrap();
        assert!(matches!(conn.recv().unwrap(), Response::Accepted { .. }));
    }

    // "Kill" the server mid-queue: shutdown cancels without settling.
    server.shutdown();
    let drained = Instant::now();
    while server.stats().running > 0 || server.stats().queue_len > 0 {
        assert!(
            drained.elapsed() < Duration::from_secs(20),
            "shutdown never drained"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(conn);

    // The journal owes exactly the three unfinished jobs.
    let (_, pending) = sqip_service::Journal::open(&path).unwrap();
    let mut owed: Vec<&str> = pending.iter().map(|p| p.id.as_str()).collect();
    owed.sort_unstable();
    assert_eq!(owed, ["in-flight", "queued-1", "queued-2"]);

    // Boot 2 on the same journal: the debt is re-queued and completed
    // with no client attached.
    let server2 = spawn(cfg);
    let recovering = Instant::now();
    while server2.stats().completed < 3 {
        assert!(
            recovering.elapsed() < Duration::from_secs(120),
            "recovery never completed: {:?}",
            server2.stats()
        );
        assert_eq!(server2.stats().failed, 0, "recovered jobs must not fail");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Once recovered work settles, the journal owes nothing — boot 3
    // would re-run zero jobs.
    let settled = Instant::now();
    loop {
        let (_, pending) = sqip_service::Journal::open(&path).unwrap();
        if pending.is_empty() {
            break;
        }
        assert!(
            settled.elapsed() < Duration::from_secs(10),
            "journal still owes {pending:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server2.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// **A panicking cell costs one job, not a worker.** A test-only
/// workload whose opening panics fails its job with a typed error that
/// names the cell; the single worker survives to complete the next job;
/// and the failed job's journal entry is settled, so a restarted server
/// does not run it again.
#[test]
fn a_panicking_cell_fails_its_job_and_the_worker_survives() {
    sqip::WorkloadRegistry::global()
        .register(sqip::Workload::from_factory(
            "sqipd-test-panics",
            "panics when opened",
            || panic!("test workload panics on open"),
        ))
        .expect("test workload registers once");
    let path = std::env::temp_dir().join(format!("sqipd-panic-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig {
        workers: 1,
        journal: Some(path.clone()),
        ..ServerConfig::default()
    };

    let server = spawn(cfg.clone());
    let mut conn = Connection::connect(server.addr()).unwrap();
    // A worker killed by the panic would leave the job unanswered: fail
    // on a read timeout instead of hanging.
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let spec = ExperimentSpec::new(["sqipd-test-panics"], ["indexed-3-fwd+dly"]);
    let failed = conn
        .run_job("panics", &spec, None)
        .expect("the panicking job is answered");
    match &failed.status {
        Some(JobStatus::Failed(reason)) => {
            assert!(
                reason.contains("sqipd-test-panics/indexed-3-fwd+dly")
                    && reason.contains("panicked"),
                "{reason}"
            );
        }
        other => panic!("expected a failed job, got {other:?}"),
    }
    let next = conn.run_job("after", &small_spec(), None).unwrap();
    assert!(next.is_complete(), "the worker did not survive: {next:?}");
    let stats = server.stats();
    assert_eq!((stats.failed, stats.completed), (1, 1), "{stats:?}");
    server.shutdown();
    drop(conn);

    let (_, pending) = sqip_service::Journal::open(&path).unwrap();
    assert!(pending.is_empty(), "journal still owes {pending:?}");
    let server2 = spawn(cfg);
    std::thread::sleep(Duration::from_millis(200));
    let stats = server2.stats();
    assert_eq!(
        (
            stats.failed,
            stats.completed,
            stats.running,
            stats.queue_len
        ),
        (0, 0, 0, 0),
        "a restart re-ran settled work: {stats:?}"
    );
    server2.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// Submits `spec` as job `id` and expects it admitted.
fn submit_accepted(conn: &mut Connection, id: &str, spec: ExperimentSpec) {
    conn.send(&Request::Submit {
        id: id.into(),
        spec,
        timeout_ms: None,
    })
    .unwrap();
    match conn.recv().unwrap() {
        Response::Accepted { id: got, .. } => assert_eq!(got, id),
        other => panic!("expected `{id}` accepted, got {other:?}"),
    }
}

/// Polls `server`'s stats until `done` holds, failing after `secs`.
fn wait_for(server: &ServerHandle, secs: u64, done: impl Fn(&sqip_service::StatsSnapshot) -> bool) {
    let start = Instant::now();
    loop {
        let stats = server.stats();
        if done(&stats) {
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(secs),
            "timed out: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The ids of the jobs the journal at `path` still owes, sorted.
fn owed_ids(path: &std::path::Path) -> Vec<String> {
    let (_, pending) = sqip_service::Journal::open(path).unwrap();
    let mut ids: Vec<String> = pending.into_iter().map(|p| p.id).collect();
    ids.sort_unstable();
    ids
}

/// Kills the child process if the test fails before it exits.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// **Recovered jobs obey the cell limit.** Boot 1 (256 cells per job)
/// shuts down owing a running 3-cell job and a queued 4-cell one. Boot
/// 2, a `sqipd` that admits at most 2 cells per job, refuses both as it
/// would at submit: it queues and runs neither, prints why, and the
/// journal owes nothing afterwards.
#[test]
fn recovered_jobs_obey_the_cell_limit() {
    use std::io::{BufRead, Read};
    let path = std::env::temp_dir().join(format!("sqipd-limit-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = spawn(ServerConfig {
        workers: 1,
        journal: Some(path.clone()),
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).unwrap();
    let three_cells = ExperimentSpec::new(
        ["mix:0x30:400m"],
        ["ideal-oracle", "indexed-3-fwd+dly", "associative-3"],
    );
    submit_accepted(&mut conn, "running", three_cells);
    wait_for(&server, 10, |s| s.running == 1);
    submit_accepted(&mut conn, "queued", small_spec());
    server.shutdown();
    wait_for(&server, 20, |s| s.running == 0 && s.queue_len == 0);
    drop(conn);
    assert_eq!(owed_ids(&path), ["queued", "running"]);

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_sqipd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--max-cells",
            "2",
        ])
        .arg("--journal")
        .arg(&path)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("start sqipd");
    let mut sqipd = ChildGuard(child);
    // Held open until sqipd exits: it prints on its way out.
    let mut stdout = std::io::BufReader::new(sqipd.0.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    // "sqipd listening on HOST:PORT (...)"; recovery is over before
    // the server accepts this connection.
    let addr = banner.split_whitespace().nth(3).expect("listen address");
    let mut conn = Connection::connect(addr).unwrap();
    conn.send(&Request::Stats).unwrap();
    let Response::Stats(stats) = conn.recv().unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(
        (
            stats.submitted,
            stats.rejected,
            stats.accepted,
            stats.failed
        ),
        (2, 2, 0, 0),
        "{stats:?}"
    );
    assert_eq!(
        (stats.completed, stats.running, stats.queue_len),
        (0, 0, 0),
        "{stats:?}"
    );
    conn.send(&Request::Shutdown).unwrap();
    assert!(matches!(conn.recv().unwrap(), Response::ShuttingDown));
    drop(conn);
    assert!(sqipd.0.wait().unwrap().success());
    let mut log = String::new();
    sqipd
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut log)
        .unwrap();
    assert!(
        log.contains(
            "journal job `queued` refused: job expands to 4 cells; this server admits at most 2"
        ),
        "{log}"
    );
    assert!(owed_ids(&path).is_empty());
    let _ = std::fs::remove_file(&path);
}

/// Opened by [`cancelled_and_orphaned_queued_jobs_are_settled`] to let
/// its gated workload finish opening.
static GATE: (std::sync::Mutex<bool>, std::sync::Condvar) =
    (std::sync::Mutex::new(false), std::sync::Condvar::new());

/// **Cancelled and orphaned queued jobs are settled.** The single
/// worker is held by a job whose workload does not finish opening until
/// the test opens a gate. Behind it, client B disconnects with its job
/// still queued, and client A cancels its queued job, then shuts the
/// server down and disconnects. Both queued jobs are drained by their
/// client's disconnect without ever starting, both end settled, and a
/// restart on the same journal runs nothing.
#[test]
fn cancelled_and_orphaned_queued_jobs_are_settled() {
    sqip::WorkloadRegistry::global()
        .register(sqip::Workload::from_factory(
            "sqipd-test-gated-open",
            "opens once the test lets it",
            || {
                let (open, opened) = &GATE;
                let guard = open.lock().unwrap();
                drop(opened.wait_while(guard, |open| !*open).unwrap());
                sqip::WorkloadRegistry::global()
                    .resolve("mix:0x40:2k")
                    .expect("a generator name resolves")
                    .open()
            },
        ))
        .expect("test workload registers once");
    let path = std::env::temp_dir().join(format!("sqipd-orphan-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig {
        workers: 1,
        journal: Some(path.clone()),
        ..ServerConfig::default()
    };
    let server = spawn(cfg.clone());
    let mut a = Connection::connect(server.addr()).unwrap();
    let mut b = Connection::connect(server.addr()).unwrap();
    let gated = ExperimentSpec::new(["sqipd-test-gated-open"], ["ideal-oracle"]);
    submit_accepted(&mut a, "holder", gated);
    wait_for(&server, 10, |s| s.running == 1);
    submit_accepted(&mut b, "orphan", small_spec());
    submit_accepted(&mut a, "victim", small_spec());

    // B leaves: its queued job is settled by the disconnect.
    drop(b);
    wait_for(&server, 10, |s| s.cancelled == 1);
    assert_eq!(owed_ids(&path), ["holder", "victim"]);

    // A cancels both of its jobs (the pong proves the reader handled
    // the cancels), then the server shuts down and A leaves. The worker
    // is still held, so A's disconnect drains the victim.
    for id in ["victim", "holder"] {
        a.send(&Request::Cancel { id: id.into() }).unwrap();
    }
    a.send(&Request::Ping).unwrap();
    assert!(matches!(a.recv().unwrap(), Response::Pong));
    server.shutdown();
    drop(a);
    wait_for(&server, 10, |s| s.cancelled == 2);
    assert_eq!(owed_ids(&path), ["holder"]);

    // Released, the holder stops at its cancelled token and settles.
    *GATE.0.lock().unwrap() = true;
    GATE.1.notify_all();
    wait_for(&server, 20, |s| s.running == 0 && s.cancelled == 3);
    assert_eq!(server.stats().completed, 0);
    assert!(owed_ids(&path).is_empty(), "{:?}", owed_ids(&path));

    // Recovery is over before the restarted server answers a request.
    let server2 = spawn(cfg);
    let mut conn = Connection::connect(server2.addr()).unwrap();
    conn.send(&Request::Stats).unwrap();
    let Response::Stats(stats) = conn.recv().unwrap() else {
        panic!("expected stats");
    };
    assert_eq!(
        stats.submitted, 0,
        "a restart re-ran settled work: {stats:?}"
    );
    server2.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// `accepted` is the first reply of every admitted job: many one-cell
/// jobs small enough that a worker finishes one the moment it is queued,
/// submitted back to back on one connection, must each be answered
/// `accepted` before any row or terminal line of theirs.
#[test]
fn accepted_is_every_jobs_first_reply() {
    const JOBS: usize = 200;
    let server = spawn(ServerConfig {
        queue_capacity: JOBS,
        workers: 4,
        ..ServerConfig::default()
    });
    let mut conn = Connection::connect(server.addr()).unwrap();
    for i in 0..JOBS {
        conn.send(&Request::Submit {
            id: format!("tiny-{i}"),
            spec: ExperimentSpec::new([format!("mix:{i:#x}:200")], ["ideal-oracle"]),
            timeout_ms: None,
        })
        .unwrap();
    }
    let mut first: std::collections::BTreeMap<String, Response> = Default::default();
    let mut done = 0;
    while done < JOBS {
        let response = conn.recv().unwrap();
        let id = match &response {
            Response::Accepted { id, .. } | Response::Row { id, .. } => id.clone(),
            Response::Done { id, .. } => {
                done += 1;
                id.clone()
            }
            other => panic!("unexpected reply {other:?}"),
        };
        first.entry(id).or_insert(response);
    }
    assert_eq!(first.len(), JOBS);
    for (id, response) in &first {
        assert!(
            matches!(response, Response::Accepted { cells: 1, .. }),
            "`{id}` was first answered {response:?}"
        );
    }
    server.shutdown();
}
