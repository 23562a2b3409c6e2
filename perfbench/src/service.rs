//! `service-jobs`: an in-process `sqipd` (one worker, one sweep thread
//! per job) driven in a closed loop by two client connections, each
//! submitting a seeded stream of small `ExperimentSpec` jobs and waiting
//! for `Done` before the next.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use sqip::{generator, ExperimentSpec, ResultSet, RunRecord};
use sqip_service::{
    Connection, Request, Response, Server, ServerConfig, ServerHandle, StatsSnapshot,
};

use crate::ledger::{Input, Unit};
use crate::util::{drain_count, l1_resident_mix, secs, splitmix, step};
use crate::{batch, Bench, JobTiming, Res, Round};

pub const CLIENTS: usize = 2;

/// Dynamic instructions per cell: small, so per-job fixed costs
/// (validation, the fair queue, sweep start-up, row streaming, the
/// socket) are a large share of each job.
const CELL_INSTS: u64 = 5_000;

/// Each client's jobs per round, as (workloads, designs) shapes — a fixed
/// multiset (50 jobs, 127 cells), shuffled per seed, so every seed asks
/// for the same amount of work.
const SHAPES: [(usize, usize, usize); 6] = [
    // (count, workloads, designs)
    (10, 1, 1),
    (10, 1, 2),
    (8, 2, 1),
    (7, 1, 3),
    (8, 2, 2),
    (7, 4, 1),
];

const DESIGN_POOL: [&str; 6] = [
    "indexed-3-fwd+dly",
    "associative-3",
    "indexed-3-fwd",
    "ideal-oracle",
    "associative-5-replay",
    "indexed-5-fwd+dly",
];

/// Jobs each client runs (and checks) while setting up. They come from
/// a fixed seed, so set-up does the same work whatever the run's seed.
const WARMUP_JOBS: usize = 4;
const WARMUP_SEED: u64 = 0;

/// Every streamed job in the sample `check` replays in-process.
const CHECK_EVERY: usize = 5;

/// One job's client-side view.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub ok: bool,
    pub latency_ms: f64,
    pub accepted_ms: f64,
    pub first_row_ms: f64,
    pub wall_ms: u64,
    pub rows: Vec<(usize, RunRecord)>,
}

/// Server-side detail of a served batch of jobs.
#[derive(Debug, Clone, Default)]
pub struct ServiceDetail {
    pub jobs: Vec<JobResult>,
    pub stats: StatsSnapshot,
}

/// An in-process `sqipd` with its clients: one connection per client,
/// each driven by its own thread for the server's whole life.
pub struct Sqipd {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    clients: Vec<Client>,
}

/// A client thread: takes a tagged list of jobs, runs them in a closed
/// loop on its connection, and sends back their results.
struct Client {
    jobs: Sender<(String, Vec<ExperimentSpec>)>,
    done: Receiver<Vec<JobResult>>,
    thread: JoinHandle<()>,
}

impl Sqipd {
    pub fn start(clients: usize) -> Res<Sqipd> {
        let cfg = ServerConfig {
            queue_capacity: 4,
            workers: 1,
            threads_per_job: 1,
            default_timeout_ms: 120_000,
            ..ServerConfig::default()
        };
        let server = Server::bind((Ipv4Addr::LOCALHOST, 0), cfg)?;
        let handle = server.handle()?;
        let thread = std::thread::spawn(move || server.run());
        let clients = (0..clients)
            .map(|c| -> Res<Client> {
                let mut conn = Connection::connect(handle.addr())?;
                let (jobs, inbox) = channel::<(String, Vec<ExperimentSpec>)>();
                let (outbox, done) = channel();
                let thread = std::thread::spawn(move || {
                    for (tag, list) in inbox {
                        let results = list
                            .iter()
                            .enumerate()
                            .map(|(j, spec)| run_job(&mut conn, &format!("{tag}-c{c}-j{j}"), spec))
                            .collect();
                        if outbox.send(results).is_err() {
                            break;
                        }
                    }
                });
                Ok(Client { jobs, done, thread })
            })
            .collect::<Res<_>>()?;
        Ok(Sqipd {
            handle,
            thread,
            clients,
        })
    }

    /// Ends the clients (closing their connections), shuts the server
    /// down and joins every thread.
    pub fn stop(self) {
        for client in self.clients {
            drop(client.jobs);
            if client.thread.join().is_err() {
                eprintln!("client thread panicked");
            }
        }
        self.handle.shutdown();
        if self.thread.join().is_err() {
            eprintln!("sqipd thread panicked");
        }
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.handle.stats()
    }

    /// Runs `lists[c]` on client `c`, all clients at once; returns every
    /// job's result, client by client, in submit order.
    pub fn serve(&mut self, tag: &str, lists: &[Vec<ExperimentSpec>]) -> Vec<Vec<JobResult>> {
        for (client, list) in self.clients.iter().zip(lists) {
            client
                .jobs
                .send((tag.to_string(), list.clone()))
                .expect("client thread ended early");
        }
        self.clients
            .iter()
            .map(|c| c.done.recv().expect("client thread ended early"))
            .collect()
    }
}

/// Submits one job and reads its responses up to the terminal one,
/// timing each from the submit.
fn run_job(conn: &mut Connection, id: &str, spec: &ExperimentSpec) -> JobResult {
    let t0 = Instant::now();
    let ms = |t: Instant| t.duration_since(t0).as_secs_f64() * 1e3;
    let mut out = JobResult {
        ok: false,
        latency_ms: f64::NAN,
        accepted_ms: f64::NAN,
        first_row_ms: f64::NAN,
        wall_ms: 0,
        rows: Vec::new(),
    };
    let submit = Request::Submit {
        id: id.to_string(),
        spec: spec.clone(),
        timeout_ms: None,
    };
    if let Err(err) = conn.send(&submit) {
        eprintln!("job {id}: submit failed: {err}");
        return out;
    }
    loop {
        let response = match conn.recv() {
            Ok(r) => r,
            Err(err) => {
                eprintln!("job {id}: {err}");
                return out;
            }
        };
        let now = Instant::now();
        match response {
            Response::Accepted { id: rid, .. } if rid == id => out.accepted_ms = ms(now),
            Response::Row {
                id: rid,
                index,
                record,
            } if rid == id => {
                if out.rows.is_empty() {
                    out.first_row_ms = ms(now);
                }
                out.rows.push((index, record));
            }
            Response::Done {
                id: rid, wall_ms, ..
            } if rid == id => {
                out.latency_ms = ms(now);
                out.wall_ms = wall_ms;
                out.ok = true;
                out.rows.sort_by_key(|r| r.0);
                return out;
            }
            Response::Rejected { id: rid, reason }
            | Response::Cancelled { id: rid, reason }
            | Response::Error { id: rid, reason }
                if rid == id || rid.is_empty() =>
            {
                eprintln!("job {id}: {reason}");
                return out;
            }
            _ => {}
        }
    }
}

/// Splits `jobs` over the clients round-robin.
pub fn deal(jobs: &[ExperimentSpec]) -> Vec<Vec<ExperimentSpec>> {
    let mut lists = vec![Vec::new(); CLIENTS];
    for (i, job) in jobs.iter().enumerate() {
        lists[i % CLIENTS].push(job.clone());
    }
    lists
}

/// Serves `jobs` through a fresh server and returns its detail, jobs in
/// `jobs` order.
pub fn serve_once(jobs: &[ExperimentSpec]) -> Res<ServiceDetail> {
    let mut sqipd = Sqipd::start(CLIENTS)?;
    let mut results: Vec<_> = sqipd
        .serve("ledger", &deal(jobs))
        .into_iter()
        .map(Vec::into_iter)
        .collect();
    let stats = sqipd.stats();
    sqipd.stop();
    // Back into `jobs` order: job i ran on client i % CLIENTS.
    let jobs = (0..jobs.len())
        .filter_map(|i| results[i % CLIENTS].next())
        .collect();
    Ok(ServiceDetail { jobs, stats })
}

pub struct ServiceJobs {
    lists: Vec<Vec<ExperimentSpec>>,
    warmup: Vec<ExperimentSpec>,
    sqipd: Option<Sqipd>,
    round: usize,
}

impl ServiceJobs {
    pub fn new(seed: u64) -> ServiceJobs {
        let mut state = seed;
        let lists = (0..CLIENTS).map(|_| client_jobs(&mut state)).collect();
        let mut warm_state = WARMUP_SEED;
        let mut warmup = client_jobs(&mut warm_state);
        warmup.truncate(WARMUP_JOBS * CLIENTS);
        ServiceJobs {
            lists,
            warmup,
            sqipd: None,
            round: 0,
        }
    }
}

/// One client's round: the [`SHAPES`] multiset in a seeded order, each
/// job over distinct seeded kernel mixes and distinct designs.
fn client_jobs(state: &mut u64) -> Vec<ExperimentSpec> {
    let mut shapes: Vec<(usize, usize)> = SHAPES
        .iter()
        .flat_map(|&(n, w, d)| std::iter::repeat_n((w, d), n))
        .collect();
    shuffle(&mut shapes, state);
    shapes
        .into_iter()
        .map(|(w, d)| {
            let workloads: Vec<String> = (0..w)
                .map(|_| l1_resident_mix(state, CELL_INSTS).name)
                .collect();
            let mut pool = DESIGN_POOL.to_vec();
            shuffle(&mut pool, state);
            ExperimentSpec::new(workloads, pool.into_iter().take(d))
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

impl Bench for ServiceJobs {
    /// One step for the server and its connections, then one per
    /// warm-up job, run one at a time.
    fn setup(&mut self) -> Res<Vec<f64>> {
        let mut steps = Vec::with_capacity(1 + self.warmup.len());
        let mut sqipd = step(&mut steps, || Sqipd::start(CLIENTS))?;
        for (j, job) in self.warmup.iter().enumerate() {
            let mut warm = vec![Vec::new(); CLIENTS];
            warm[j % CLIENTS].push(job.clone());
            let done = step(&mut steps, || sqipd.serve(&format!("warm{j}"), &warm));
            if done.iter().flatten().any(|job| !job.ok) {
                sqipd.stop();
                return Err("a warm-up job did not complete".into());
            }
        }
        self.sqipd = Some(sqipd);
        Ok(steps)
    }

    fn teardown(&mut self) {
        if let Some(sqipd) = self.sqipd.take() {
            sqipd.stop();
        }
    }

    fn round_s(&self) -> f64 {
        1.3
    }

    fn round(&mut self) -> Res<Round> {
        let sqipd = self.sqipd.as_mut().ok_or("service-jobs: no server")?;
        self.round += 1;
        let t0 = Instant::now();
        let results = sqipd.serve(&format!("r{}", self.round), &self.lists);
        let wall_s = secs(t0);
        let mut jobs = Vec::new();
        let mut rows = Vec::new();
        let mut failed = 0;
        for (list, done) in self.lists.iter().zip(&results) {
            for (spec, job) in list.iter().zip(done) {
                let cells = spec.workloads.len() * spec.designs.len();
                if !job.ok || job.rows.len() != cells {
                    failed += 1;
                }
                jobs.push(JobTiming {
                    latency_ms: job.latency_ms,
                    first_row_ms: job.first_row_ms,
                });
                rows.extend(job.rows.iter().map(|r| r.1.clone()));
            }
        }
        let results_set = ResultSet::new(rows);
        Ok(Round {
            wall_s,
            committed: results_set.iter().map(|r| r.stats.committed).sum(),
            jobs,
            failed,
            results: results_set,
            sweep: None,
            service: Some(ServiceDetail {
                jobs: results.into_iter().flatten().collect(),
                stats: sqipd.stats(),
            }),
        })
    }

    fn check(&mut self, rounds: &[Round]) -> Res<u64> {
        let mut failed = 0;
        // Every round serves the same jobs, so every round's rows must
        // equal the first round's.
        for round in rounds {
            if round.results != rounds[0].results {
                eprintln!("service-jobs: a round's rows differ from the first round's");
                failed += 1;
            }
        }
        // Committed instructions equal each program's dynamic length.
        let mut lengths: BTreeMap<String, u64> = BTreeMap::new();
        for rec in rounds[0].results.iter() {
            if !lengths.contains_key(&rec.workload) {
                let spec = generator::parse_generator(&rec.workload)?.ok_or("not a generator")?;
                let n = drain_count(&mut spec.source()?)?;
                lengths.insert(rec.workload.clone(), n);
            }
            if lengths[&rec.workload] != rec.stats.committed {
                failed += 1;
            }
        }
        // A sample of the streamed jobs equals the same spec run
        // in-process.
        let served = &rounds[0].service.as_ref().ok_or("no service detail")?.jobs;
        for (spec, job) in self.jobs().iter().zip(served).step_by(CHECK_EVERY) {
            let local = batch::run(&spec.to_experiment()?, spec.designs.len())?;
            let streamed: Vec<&RunRecord> = job.rows.iter().map(|r| &r.1).collect();
            let expected: Vec<&RunRecord> = local.results.iter().collect();
            if streamed != expected {
                eprintln!("service-jobs: streamed rows differ from an in-process run");
                failed += 1;
            }
        }
        Ok(failed)
    }

    fn units(&self) -> Vec<Unit> {
        self.jobs()
            .iter()
            .flat_map(|spec| {
                spec.workloads.iter().map(|w| Unit {
                    spec: generator::parse_generator(w)
                        .ok()
                        .flatten()
                        .expect("service jobs name generator workloads"),
                    input: Input::Streaming,
                    designs: spec
                        .designs
                        .iter()
                        .map(|d| d.parse().expect("pool designs are registered"))
                        .collect(),
                })
            })
            .collect()
    }

    fn jobs(&self) -> Vec<ExperimentSpec> {
        self.lists.iter().flatten().cloned().collect()
    }

    fn serial(&self) -> bool {
        false
    }
}
