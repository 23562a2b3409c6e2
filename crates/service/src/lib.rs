//! Simulation as a service: the `sqipd` sweep server and the
//! `sqip-loader` load-generation harness.
//!
//! The `sqip` crate runs experiments in-process; this crate puts that
//! engine behind a socket so long sweep campaigns can be driven
//! remotely, shared between users, and soak-tested:
//!
//! - [`Server`] (the `sqipd` binary) accepts [`ExperimentSpec`
//!   jobs](sqip::ExperimentSpec) over a JSON-lines TCP protocol,
//!   validates them against the design and workload registries before
//!   admission, queues them in a bounded client-fair queue, runs them on
//!   [`SweepEngine`](sqip::SweepEngine) workers with cooperative
//!   cancellation and per-job timeouts, and **streams each result row
//!   as its cell finishes** — bit-identical to the batch artifact.
//! - [`run_load`] (the `sqip-loader` binary) drives a server with
//!   seeded concurrent clients and verifies the service-level
//!   objectives: no lost or duplicated rows, bounded queue memory,
//!   clean admission rejections under overload, and bit-identical
//!   repeatability from the same seed.
//!
//! See [`protocol`] for the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod loader;
pub mod protocol;
mod queue;
pub mod server;

/// Locks `m`, recovering the guard if another thread panicked while
/// holding it. The service never trusts cross-thread invariants enough
/// for poisoning to add safety — every structure behind these locks is
/// resynchronized defensively by its readers — so propagating a poison
/// panic would only convert one thread's failure into a server-wide
/// outage.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use client::{Connection, JobOutcome, JobStatus, MAX_RESPONSE_LINE};
pub use journal::{Journal, PendingJob};
pub use loader::{run_load, BurstReport, LatencySummary, LoadReport, LoaderConfig, SloReport};
pub use protocol::{Request, Response, StatsSnapshot};
pub use server::{RateLimit, Server, ServerConfig, ServerHandle, MAX_REQUEST_LINE};
