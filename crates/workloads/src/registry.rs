//! The global workload registry: name → [`Workload`].
//!
//! The exact mirror of `sqip-core`'s `DesignRegistry` on the workload
//! axis: every workload is a *name* that resolves to a [`Workload`],
//! which opens a fresh [`TraceSource`] per run. The
//! [`WorkloadRegistry::global`] instance is pre-populated with the 47
//! Table 3 benchmark models plus a catalogue of parameterized generator
//! instances (including the `stream-10m` scale proof — a
//! ten-million-instruction kernel mix no materialized trace could
//! reasonably hold), and accepts custom registrations at any time. Names that are not registered but match the
//! generator grammar (`mix:…`, `chase:…`, `stride:…` — see
//! [`crate::generator`]) resolve on the fly, so the axis is open in both
//! senses: register anything, or just *name* a point in generator space.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use sqip_isa::{IsaError, TraceSource};

use crate::generator;
use crate::spec::{Suite, WorkloadSpec};
use crate::suite::all_workloads;

/// Interns a workload name, returning a `'static` handle that is pointer-
/// and value-stable for the life of the process — the same scheme the
/// design registry uses for `SqDesign` names. Two resolutions of the same
/// name (registered entry or generator-grammar point) intern to the same
/// handle, so every cell of a sweep can carry and compare its workload's
/// name without string churn. The pool is append-only and
/// deduplicated, so the leak is bounded by the set of distinct names ever
/// used.
fn intern_name(name: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("intern pool poisoned");
    if let Some(&interned) = pool.get(name) {
        return interned;
    }
    let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
    pool.insert(interned);
    interned
}

/// A failure registering or resolving a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadRegistryError {
    /// A workload with this name is already registered.
    Duplicate(String),
    /// No workload with this name is registered, and the name is not in
    /// the generator grammar.
    Unknown(String),
    /// The name matched a generator family (`mix:…`, `chase:…`,
    /// `stride:…`) but its parameters are malformed — reported
    /// separately from [`WorkloadRegistryError::Unknown`] so a typo'd
    /// parameter explains itself instead of claiming the whole name is
    /// unrecognised.
    InvalidGenerator {
        /// The name as given.
        name: String,
        /// What was wrong with its parameters.
        cause: crate::generator::GeneratorError,
    },
}

impl std::fmt::Display for WorkloadRegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadRegistryError::Duplicate(name) => {
                write!(f, "workload `{name}` is already registered")
            }
            WorkloadRegistryError::Unknown(name) => {
                write!(
                    f,
                    "unknown workload `{name}` (not registered, and not a \
                     `mix:`/`chase:`/`stride:`/`tracefile:` name)"
                )
            }
            WorkloadRegistryError::InvalidGenerator { name, cause } => {
                write!(f, "workload `{name}`: {cause}")
            }
        }
    }
}

impl std::error::Error for WorkloadRegistryError {}

/// One point on the workload axis: a named record stream.
///
/// A Table 3 model or any other [`WorkloadSpec`] (`From`), a name
/// resolved through the [`WorkloadRegistry`] ([`Workload::from_registry`]:
/// models, `mix:`/`chase:`/`stride:` generators, `tracefile:` replays)
/// and a from-scratch [`Workload::from_factory`] stream are all the same
/// thing: each simulation run opens one fresh stream ([`Workload::open`])
/// and pulls it in O(window) memory — nothing is materialized, so run
/// length is unbounded.
///
/// A workload built from a spec keeps that spec ([`Workload::spec`]), so
/// two specs under one name stay distinguishable to anything that keys
/// results by workload; factory and `tracefile:` workloads are known by
/// their name alone.
#[derive(Clone)]
pub struct Workload {
    name: &'static str,
    suite: Option<Suite>,
    description: String,
    source: Source,
}

/// Where a [`Workload`]'s record streams come from.
#[derive(Clone)]
enum Source {
    Spec(Arc<WorkloadSpec>),
    Factory(Arc<dyn Fn() -> Result<Box<dyn TraceSource + Send>, IsaError> + Send + Sync>),
}

impl Workload {
    /// Resolves `name` in the global [`WorkloadRegistry`] (see
    /// [`WorkloadRegistry::resolve`]).
    ///
    /// # Errors
    ///
    /// As [`WorkloadRegistry::resolve`].
    pub fn from_registry(name: &str) -> Result<Workload, WorkloadRegistryError> {
        WorkloadRegistry::global().resolve(name)
    }

    /// Builds a workload from scratch: any factory that can produce a
    /// record stream (a trace-file reader, a custom generator, a
    /// synthesised pattern).
    pub fn from_factory(
        name: impl Into<String>,
        description: impl Into<String>,
        factory: impl Fn() -> Result<Box<dyn TraceSource + Send>, IsaError> + Send + Sync + 'static,
    ) -> Workload {
        Workload {
            name: intern_name(&name.into()),
            suite: None,
            description: description.into(),
            source: Source::Factory(Arc::new(factory)),
        }
    }

    /// The workload's name (its registry key and result-record label),
    /// interned for the life of the process — pointer-stable, so sweep
    /// cells need no per-cell `String` clones.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The suite grouping, for workloads modelling a Table 3 row.
    #[must_use]
    pub fn suite(&self) -> Option<Suite> {
        self.suite
    }

    /// A one-line description for roster listings.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The spec this workload was built from; `None` for factory and
    /// `tracefile:` workloads.
    #[must_use]
    pub fn spec(&self) -> Option<&WorkloadSpec> {
        match &self.source {
            Source::Spec(spec) => Some(spec),
            Source::Factory(_) => None,
        }
    }

    /// Opens a fresh record stream for one simulation run.
    ///
    /// # Errors
    ///
    /// Whatever the source reports (assembler errors, trace-file I/O).
    pub fn open(&self) -> Result<Box<dyn TraceSource + Send>, IsaError> {
        match &self.source {
            Source::Spec(spec) => Ok(Box::new(spec.source()?)),
            Source::Factory(factory) => factory(),
        }
    }
}

impl From<WorkloadSpec> for Workload {
    fn from(spec: WorkloadSpec) -> Workload {
        let description = format!(
            "synthetic kernel mix, ~{} dynamic insts, target fwd rate {:.2}",
            approx(u64::from(spec.iterations) * u64::from(spec.estimated_insts_per_iter())),
            spec.target_forwarding_rate()
        );
        Workload {
            name: intern_name(&spec.name),
            suite: Some(spec.suite),
            description,
            source: Source::Spec(Arc::new(spec)),
        }
    }
}

impl From<&WorkloadSpec> for Workload {
    fn from(spec: &WorkloadSpec) -> Workload {
        Workload::from(spec.clone())
    }
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("description", &self.description)
            .finish_non_exhaustive()
    }
}

/// Builds the `tracefile:<path>` workload: each open streams the SQTR
/// file from the start through a fresh buffered [`TraceReader`] — the
/// decode-dominant workload family (per-byte varint decode on every
/// pull). Each sweep cell opens its own reader.
///
/// [`TraceReader`]: sqip_isa::tracefile::TraceReader
fn trace_file_workload(name: &str, path: &str) -> Workload {
    let path = std::path::PathBuf::from(path);
    let description = format!("on-disk SQTR trace `{}`", path.display());
    Workload::from_factory(name, description, move || {
        let file = std::fs::File::open(&path).map_err(|e| IsaError::TraceIo {
            detail: format!("opening trace file `{}`: {e}", path.display()),
        })?;
        let reader = sqip_isa::tracefile::TraceReader::new(std::io::BufReader::new(file))?;
        Ok(Box::new(reader) as Box<dyn TraceSource + Send>)
    })
}

fn approx(n: u64) -> String {
    match n {
        0..=9_999 => n.to_string(),
        10_000..=1_999_999 => format!("{}K", n / 1_000),
        _ => format!("{}M", n.div_ceil(1_000_000)),
    }
}

#[derive(Default)]
struct Inner {
    entries: HashMap<&'static str, Workload>,
    /// Registration order, for stable `names()` listings.
    order: Vec<&'static str>,
}

/// The open roster of workloads (see the module docs).
///
/// # Example
///
/// Registering a runtime-defined workload and streaming it — the same
/// two-step flow `DesignRegistry` uses on the design axis:
///
/// ```
/// use sqip_workloads::{generator, WorkloadRegistry};
///
/// let registry = WorkloadRegistry::global();
/// let spec = generator::pointer_chase(512, 64, 50_000).with_name("my-chase");
/// registry.register(spec.into())?;
///
/// let workload = registry.resolve("my-chase")?;
/// let mut stream = workload.open()?;
/// assert!(sqip_isa::TraceSource::next_record(&mut stream)?.is_some());
///
/// // Generator-grammar names resolve without any registration:
/// assert!(registry.resolve("mix:0x5eed:100k").is_ok());
/// assert!(registry.resolve("no-such-workload").is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct WorkloadRegistry {
    inner: RwLock<Inner>,
}

impl WorkloadRegistry {
    /// An empty registry (no builtins). Most callers want
    /// [`WorkloadRegistry::global`]; isolated registries exist for tests
    /// of the registry itself.
    #[must_use]
    pub fn empty() -> WorkloadRegistry {
        WorkloadRegistry {
            inner: RwLock::new(Inner::default()),
        }
    }

    /// The process-wide registry, pre-populated with the 47 Table 3
    /// benchmark models and the generator catalogue (all registered
    /// through the same public API any caller can use).
    pub fn global() -> &'static WorkloadRegistry {
        static GLOBAL: OnceLock<WorkloadRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let registry = WorkloadRegistry::empty();
            for spec in all_workloads() {
                registry
                    .register(spec.into())
                    .expect("table 3 workload names are unique");
            }
            // Generator-catalogue samples: one instance per family, so
            // listings advertise the families; any other point in the
            // space resolves dynamically by grammar.
            for spec in [
                generator::random_mix(0x5eed, 1_000_000),
                generator::pointer_chase(4096, 4096, 1_000_000),
                generator::stride_stream(4096, 1_000_000),
            ] {
                registry
                    .register(spec.into())
                    .expect("catalogue names are unique");
            }
            // The scale proof: a workload inexpressible as a materialized
            // trace on a laptop-class machine — ten million dynamic
            // instructions, streamed through the simulator in O(window)
            // memory. Registered through the exact same public API a
            // downstream crate would use.
            registry
                .register(
                    generator::random_mix(0x10_000_000, 10_000_000)
                        .with_name("stream-10m")
                        .into(),
                )
                .expect("stream-10m name is unique");
            registry
        })
    }

    /// Registers a workload. Unlike designs, workloads are pure data
    /// (there is no handle to mint), so this returns the entry's name.
    ///
    /// # Errors
    ///
    /// [`WorkloadRegistryError::Duplicate`] if the name is taken.
    pub fn register(&self, workload: Workload) -> Result<String, WorkloadRegistryError> {
        let name = workload.name;
        let mut inner = self.inner.write().expect("registry lock poisoned");
        if inner.entries.contains_key(name) {
            return Err(WorkloadRegistryError::Duplicate(name.to_string()));
        }
        inner.order.push(name);
        inner.entries.insert(name, workload);
        Ok(name.to_string())
    }

    /// Resolves a workload name: a registered entry; a generator-grammar
    /// point (`mix:…`, `chase:…`, `stride:…`) built on the fly; or an
    /// on-disk trace file (`tracefile:<path>`, SQTR format) streamed
    /// through [`sqip_isa::tracefile::TraceReader`].
    ///
    /// # Errors
    ///
    /// [`WorkloadRegistryError::Unknown`] if the name is none of those;
    /// [`WorkloadRegistryError::InvalidGenerator`] if a generator family
    /// matched but its parameters are malformed. A `tracefile:` path is
    /// not opened here — a missing or corrupt file surfaces as an
    /// [`IsaError`] from [`Workload::open`].
    pub fn resolve(&self, name: &str) -> Result<Workload, WorkloadRegistryError> {
        if let Some(entry) = self.lookup(name) {
            return Ok(entry);
        }
        if let Some(path) = name.strip_prefix("tracefile:") {
            return Ok(trace_file_workload(name, path));
        }
        match generator::parse_generator(name) {
            Ok(Some(spec)) => Ok(spec.into()),
            Ok(None) => Err(WorkloadRegistryError::Unknown(name.to_string())),
            Err(cause) => Err(WorkloadRegistryError::InvalidGenerator {
                name: name.to_string(),
                cause,
            }),
        }
    }

    /// Looks up a *registered* workload (no generator-grammar fallback).
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Workload> {
        let inner = self.inner.read().expect("registry lock poisoned");
        inner.entries.get(name).cloned()
    }

    /// All registered workload names, in registration order (the Table 3
    /// roster first).
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        let inner = self.inner.read().expect("registry lock poisoned");
        inner.order.clone()
    }
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("workloads", &self.names().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_has_the_table3_roster_and_the_catalogue() {
        let names = WorkloadRegistry::global().names();
        assert!(names.len() >= 47 + 4, "{} names", names.len());
        for expect in ["gzip", "mesa.t", "wupwise", "stream-10m"] {
            assert!(names.contains(&expect), "missing `{expect}`");
        }
        let gzip = WorkloadRegistry::global().lookup("gzip").unwrap();
        assert_eq!(gzip.suite(), Some(Suite::Int));
    }

    #[test]
    fn resolve_falls_back_to_the_generator_grammar() {
        let r = WorkloadRegistry::empty();
        let w = r.resolve("chase:128:64:10k").unwrap();
        assert_eq!(w.name(), "chase:128:64:10k");
        assert_eq!(
            r.resolve("nope").unwrap_err(),
            WorkloadRegistryError::Unknown("nope".to_string())
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let r = WorkloadRegistry::empty();
        r.register(WorkloadSpec::base("dup", Suite::Int).into())
            .unwrap();
        assert_eq!(
            r.register(WorkloadSpec::base("dup", Suite::Fp).into())
                .unwrap_err(),
            WorkloadRegistryError::Duplicate("dup".to_string())
        );
    }

    #[test]
    fn opened_streams_are_independent() {
        use sqip_isa::TraceSource;
        let r = WorkloadRegistry::empty();
        r.register(
            WorkloadSpec::base("w", Suite::Int)
                .with_iterations(5)
                .into(),
        )
        .unwrap();
        let entry = r.lookup("w").unwrap();
        let mut a = entry.open().unwrap();
        let mut b = entry.open().unwrap();
        let first = a.next_record().unwrap();
        for _ in 0..10 {
            a.next_record().unwrap();
        }
        assert_eq!(
            b.next_record().unwrap(),
            first,
            "streams do not share state"
        );
    }

    #[test]
    fn invalid_generator_parameters_explain_themselves() {
        let r = WorkloadRegistry::empty();
        match r.resolve("mix:1:20000000000b").unwrap_err() {
            WorkloadRegistryError::InvalidGenerator { name, cause } => {
                assert_eq!(name, "mix:1:20000000000b");
                assert!(cause.detail.contains("overflows"), "{cause}");
            }
            other => panic!("expected InvalidGenerator, got: {other}"),
        }
        for bad in ["mix:1:0", "stride:x:1m", "chase:64:1m"] {
            assert!(
                matches!(
                    r.resolve(bad).unwrap_err(),
                    WorkloadRegistryError::InvalidGenerator { .. }
                ),
                "`{bad}` is malformed, not unknown"
            );
        }
        // Names outside every grammar stay plain Unknown.
        assert!(matches!(
            r.resolve("warp:10:1m").unwrap_err(),
            WorkloadRegistryError::Unknown(_)
        ));
    }

    #[test]
    fn tracefile_workloads_resolve_and_stream() {
        use sqip_isa::TraceSource;

        // Record a small stream to disk, then resolve it back by name.
        let spec = WorkloadSpec::base("inner", Suite::Int).with_iterations(3);
        let golden: Vec<_> = {
            let mut s = spec.source().unwrap();
            let mut v = Vec::new();
            while let Some(rec) = s.next_record().unwrap() {
                v.push(rec);
            }
            v
        };
        let path = std::env::temp_dir().join(format!(
            "sqip-registry-tracefile-{}.sqtr",
            std::process::id()
        ));
        let mut file = std::fs::File::create(&path).unwrap();
        sqip_isa::tracefile::record_trace(&mut spec.source().unwrap(), &mut file).unwrap();
        drop(file);

        let r = WorkloadRegistry::empty();
        let name = format!("tracefile:{}", path.display());
        let w = r.resolve(&name).unwrap();
        assert_eq!(w.name(), name.as_str());
        assert_eq!(w.suite(), None);
        let mut replay = w.open().unwrap();
        let mut n = 0usize;
        while let Some(rec) = replay.next_record().unwrap() {
            assert_eq!(rec, golden[n], "record {n} replays bit-identically");
            n += 1;
        }
        assert_eq!(n, golden.len());
        std::fs::remove_file(&path).ok();

        // A missing file resolves (the name is well-formed) but fails to
        // open, like any other workload whose backing store is broken.
        let missing = r.resolve("tracefile:/no/such/file.sqtr").unwrap();
        assert!(missing.open().is_err());
    }

    #[test]
    fn custom_factories_register() {
        let r = WorkloadRegistry::empty();
        let spec = WorkloadSpec::base("inner", Suite::Int).with_iterations(3);
        r.register(Workload::from_factory(
            "custom",
            "a from-scratch factory",
            move || {
                spec.source()
                    .map(|s| Box::new(s) as Box<dyn sqip_isa::TraceSource + Send>)
            },
        ))
        .unwrap();
        let w = r.resolve("custom").unwrap();
        assert_eq!(w.suite(), None);
        assert!(w.open().is_ok());
    }
}
