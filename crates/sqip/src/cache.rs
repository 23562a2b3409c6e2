//! The content-addressed result cache: finished sweep cells persist as
//! small JSON artifacts keyed by a digest of their full identity, so
//! re-running an experiment only simulates the cells that changed.
//!
//! A cell's **cache key** is the FNV-1a-64 digest (the same [`Fnv`] the
//! snapshot container uses for its payload checksum) over a canonical
//! encoding of everything that determines its result: the workload name,
//! the workload's [`WorkloadSpec`](sqip_workloads::WorkloadSpec) when it
//! was built from one, the design name, the variant label, and the cell's
//! fully-resolved [`SimConfig`](sqip_core::SimConfig) serialized to JSON.
//! Because the simulator is deterministic, identical keys mean identical
//! results — and any knob change (a different FSP capacity, a different
//! engine, more iterations of the same named workload) changes the key,
//! so stale entries are structurally unreachable rather than invalidated.
//!
//! Factory and `tracefile:` workloads are keyed by their name alone: the
//! cache cannot see inside a factory or a file, so a caller that changes
//! what such a name streams must use a fresh cache directory (or a new
//! name).
//!
//! Entries are written atomically (temp file + rename) and validated on
//! load: an entry whose recorded identity does not match the requesting
//! cell — a digest collision, a truncated write, hand-edited JSON — is
//! treated as a miss, never an error. The cache is therefore safe to
//! share between concurrent sweeps and safe to delete at any time.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use sqip_snapshot::Fnv;

use crate::error::SqipError;
use crate::experiment::Run;
use crate::results::RunRecord;

/// What [`Experiment::run_cached`](crate::Experiment::run_cached) did:
/// how many cells were simulated versus answered from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheOutcome {
    /// Cells that were actually simulated (cache misses).
    pub executed: usize,
    /// Cells answered from the cache without simulating (hits).
    pub cached: usize,
}

impl CacheOutcome {
    /// Total cells the sweep covered.
    #[must_use]
    pub fn total(&self) -> usize {
        self.executed + self.cached
    }
}

/// The on-disk shape of one cache entry: the result plus the identity it
/// was computed under, echoed back so loads can reject digest collisions
/// and stale hand-copied files.
#[derive(Serialize, Deserialize)]
struct CacheEntry {
    /// The cell's `workload/design/variant` label.
    label: String,
    /// The workload's spec, when it has one (see [`workload_spec`]).
    workload: String,
    /// The cell's canonical configuration JSON.
    config: String,
    /// The cell's result.
    record: RunRecord,
}

/// A directory of content-addressed sweep results.
///
/// ```
/// use sqip::{by_name, CacheDir, Experiment, SqDesign};
///
/// let dir = tempdir();
/// let cache = CacheDir::open(&dir)?;
/// let exp = Experiment::new()
///     .workload(by_name("gzip").unwrap().with_iterations(100))
///     .designs([SqDesign::Associative3, SqDesign::Indexed3FwdDly]);
///
/// let (cold, first) = exp.run_cached(&cache)?;
/// assert_eq!((first.executed, first.cached), (2, 0));
///
/// // A warm re-run simulates nothing and returns identical results.
/// let (warm, second) = exp.run_cached(&cache)?;
/// assert_eq!((second.executed, second.cached), (0, 2));
/// assert_eq!(warm.to_json(), cold.to_json());
/// # std::fs::remove_dir_all(&dir)?;
/// # fn tempdir() -> std::path::PathBuf {
/// #     std::env::temp_dir().join(format!("sqip-cache-doc-{}", std::process::id()))
/// # }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CacheDir {
    root: PathBuf,
}

impl CacheDir {
    /// Opens (creating if necessary) a cache directory.
    ///
    /// # Errors
    ///
    /// [`SqipError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<CacheDir, SqipError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(CacheDir { root })
    }

    /// The cache's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The content-addressed key of a sweep cell: 16 lowercase hex digits
    /// of the FNV-1a-64 digest over its canonical identity encoding
    /// (workload name, workload spec, design name, variant label, config
    /// JSON — each NUL-terminated).
    #[must_use]
    pub fn key_of(run: &Run) -> String {
        let mut fnv = Fnv::new();
        let mut eat = |part: &str| {
            fnv.update(part.as_bytes());
            fnv.update(&[0]);
        };
        eat(run.workload.name());
        eat(&workload_spec(run));
        eat(&run.design.to_string());
        eat(&run.variant);
        eat(&config_json(run));
        fnv.hex()
    }

    /// The entry path a cell would occupy.
    #[must_use]
    pub fn path_of(&self, run: &Run) -> PathBuf {
        self.root.join(format!("{}.json", CacheDir::key_of(run)))
    }

    /// Looks `run` up: `Some(record)` only for a well-formed entry whose
    /// recorded identity matches the cell exactly. Absent, unreadable,
    /// malformed, or mismatched entries are all misses.
    #[must_use]
    pub fn load(&self, run: &Run) -> Option<RunRecord> {
        let text = fs::read_to_string(self.path_of(run)).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        let valid = entry.label == run.label()
            && entry.workload == workload_spec(run)
            && entry.config == config_json(run);
        valid.then_some(entry.record)
    }

    /// Persists a finished cell. The write is atomic (temp file + rename
    /// within the cache directory), so concurrent sweeps sharing a cache
    /// never observe partial entries.
    ///
    /// # Errors
    ///
    /// [`SqipError::Io`] if the entry cannot be written.
    pub fn store(&self, run: &Run, record: &RunRecord) -> Result<(), SqipError> {
        let entry = CacheEntry {
            label: run.label(),
            workload: workload_spec(run),
            config: config_json(run),
            record: record.clone(),
        };
        let path = self.path_of(run);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        fs::write(
            &tmp,
            serde_json::to_string(&entry).expect("entries serialize"),
        )?;
        fs::rename(&tmp, &path)?;
        Ok(())
    }
}

/// The workload's spec in its `Debug` form, or empty for a factory or
/// `tracefile:` workload, which its name identifies alone.
fn workload_spec(run: &Run) -> String {
    run.workload
        .spec()
        .map_or_else(String::new, |spec| format!("{spec:?}"))
}

/// The canonical configuration encoding cache identity is computed over.
fn config_json(run: &Run) -> String {
    serde_json::to_string(&run.config).expect("configurations serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use sqip_core::SqDesign;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqip-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn one_cell() -> Run {
        Experiment::new()
            .workload(sqip_workloads::by_name("gzip").unwrap().with_iterations(50))
            .design(SqDesign::Associative3)
            .cells()
            .unwrap()
            .remove(0)
    }

    #[test]
    fn keys_are_stable_and_identity_sensitive() {
        let run = one_cell();
        assert_eq!(CacheDir::key_of(&run), CacheDir::key_of(&run));
        assert_eq!(CacheDir::key_of(&run).len(), 16);

        let mut other = run.clone();
        other.config.sq_size += 1;
        assert_ne!(CacheDir::key_of(&run), CacheDir::key_of(&other));
    }

    #[test]
    fn store_then_load_round_trips_and_rejects_mismatches() {
        let dir = scratch("roundtrip");
        let cache = CacheDir::open(&dir).unwrap();
        let run = one_cell();
        let record = RunRecord {
            workload: run.workload.name().to_string(),
            suite: run.workload.suite(),
            design: run.design,
            variant: run.variant.clone(),
            stats: sqip_core::SimStats::default(),
        };
        assert!(cache.load(&run).is_none(), "cold cache misses");
        cache.store(&run, &record).unwrap();
        assert_eq!(cache.load(&run), Some(record));

        // A corrupted entry is a miss, not an error.
        fs::write(cache.path_of(&run), "{not json").unwrap();
        assert!(cache.load(&run).is_none());

        // An entry whose body belongs to a different identity is a miss.
        let mut other = run.clone();
        other.config.sq_size += 1;
        let entry = fs::read_to_string({
            let fresh = CacheDir::open(&dir).unwrap();
            let rec = RunRecord {
                workload: run.workload.name().to_string(),
                suite: run.workload.suite(),
                design: run.design,
                variant: run.variant.clone(),
                stats: sqip_core::SimStats::default(),
            };
            fresh.store(&run, &rec).unwrap();
            fresh.path_of(&run)
        })
        .unwrap();
        fs::write(cache.path_of(&other), entry).unwrap();
        assert!(cache.load(&other).is_none(), "identity mismatch is a miss");
        fs::remove_dir_all(&dir).unwrap();
    }
}
