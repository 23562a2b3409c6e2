//! Deterministic sweep sharding: partition an experiment's cells across
//! independent invocations (machines, CI jobs, service workers) and merge
//! the shard artifacts back into the exact [`ResultSet`] the unsharded
//! sweep would have produced.
//!
//! Ownership is content-addressed, not positional: a cell belongs to
//! shard `i` of `n` iff the FNV-1a-64 digest of its
//! `workload/design/variant` label satisfies `digest % n == i`. That
//! makes the partition a pure function of the experiment — independent of
//! thread counts, execution order, and of *which* shard enumerates the
//! cells — so `n` invocations of the same experiment with `--shard 0/n`
//! … `--shard (n-1)/n` cover every cell exactly once, with no
//! coordination.
//!
//! Each invocation emits a [`ShardResult`]: its records plus the cell
//! indices they occupy in the experiment's canonical cell order, and the
//! total cell count for coverage checking. [`merge_shards`] (or the
//! `sqip-merge` binary) validates that the artifacts are mutually
//! consistent and jointly complete, then reassembles the records in cell
//! order — byte-identical, by the simulator's determinism, to running the
//! whole sweep in one place.

use std::collections::BTreeMap;
use std::str::FromStr;

use serde::{Deserialize, Serialize};
use sqip_snapshot::Fnv;

use crate::error::SqipError;
use crate::results::{ResultSet, RunRecord};

/// One slice of an `n`-way sweep partition: shard `index` of `of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's position, `0 <= index < of`.
    pub index: usize,
    /// The total number of shards.
    pub of: usize,
}

impl ShardSpec {
    /// Builds a validated shard spec.
    ///
    /// # Errors
    ///
    /// [`SqipError::Config`] when `of` is zero or `index` is out of
    /// range.
    pub fn new(index: usize, of: usize) -> Result<ShardSpec, SqipError> {
        if of == 0 {
            return Err(SqipError::Config("shard count must be at least 1".into()));
        }
        if index >= of {
            return Err(SqipError::Config(format!(
                "shard index {index} out of range for {of} shards (indices are 0-based)"
            )));
        }
        Ok(ShardSpec { index, of })
    }

    /// Whether this shard owns the cell with the given
    /// `workload/design/variant` label.
    ///
    /// Pure in the label and the spec: every shard of the same split
    /// agrees, whatever order or thread count it runs with.
    #[must_use]
    pub fn owns(&self, label: &str) -> bool {
        let mut fnv = Fnv::new();
        fnv.update(label.as_bytes());
        fnv.value() % (self.of as u64) == self.index as u64
    }
}

impl FromStr for ShardSpec {
    type Err = SqipError;

    /// Parses the command-line form `i/n` (0-based, `i < n`).
    fn from_str(s: &str) -> Result<ShardSpec, SqipError> {
        let bad = || SqipError::Config(format!("`{s}` is not a shard spec (expected `i/n`)"));
        let (index, of) = s.split_once('/').ok_or_else(bad)?;
        ShardSpec::new(
            index.trim().parse().map_err(|_| bad())?,
            of.trim().parse().map_err(|_| bad())?,
        )
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// The artifact one sharded invocation produces: the records of the cells
/// this shard owns, tagged with their positions in the experiment's
/// canonical cell order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// Which shard produced this artifact.
    pub shard: usize,
    /// The split's total shard count.
    pub of: usize,
    /// The experiment's total cell count (identical across shards of one
    /// split; checked at merge time).
    pub total_cells: usize,
    /// The canonical cell index of each record, parallel to `records`.
    pub indices: Vec<usize>,
    /// The owned cells' results, in canonical cell order.
    pub records: Vec<RunRecord>,
}

impl ShardResult {
    /// Serializes this artifact to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("shard artifacts serialize")
    }

    /// Serializes this artifact to human-readable JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("shard artifacts serialize")
    }

    /// Parses an artifact serialized by [`ShardResult::to_json`].
    ///
    /// # Errors
    ///
    /// [`SqipError::Parse`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<ShardResult, SqipError> {
        Ok(serde_json::from_str(text)?)
    }
}

/// Joins shard artifacts into the full sweep's [`ResultSet`], in the
/// experiment's canonical cell order.
///
/// The artifacts must be mutually consistent (same `of`, same
/// `total_cells`) and jointly complete: every cell index in
/// `0..total_cells` covered exactly once. Supplying the same shard twice,
/// omitting one, or mixing artifacts from different experiments or
/// splits is an error — never a silently partial result.
///
/// ```
/// use sqip::{by_name, merge_shards, Experiment, ShardSpec, SqDesign};
///
/// let exp = Experiment::new()
///     .workload(by_name("gzip").unwrap().with_iterations(100))
///     .designs([SqDesign::Associative3, SqDesign::Indexed3FwdDly]);
///
/// // Two independent invocations, each running its half...
/// let a = exp.run_shard("0/2".parse::<ShardSpec>()?)?;
/// let b = exp.run_shard("1/2".parse::<ShardSpec>()?)?;
///
/// // ...merge to exactly the unsharded sweep's results.
/// let merged = merge_shards([a, b])?;
/// assert_eq!(merged.to_json(), exp.run()?.to_json());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`SqipError::Config`] describing the first inconsistency: no
/// artifacts, mismatched splits, an out-of-range or duplicated cell
/// index, or missing cells.
pub fn merge_shards(shards: impl IntoIterator<Item = ShardResult>) -> Result<ResultSet, SqipError> {
    let shards: Vec<ShardResult> = shards.into_iter().collect();
    let first = shards
        .first()
        .ok_or_else(|| SqipError::Config("no shard artifacts to merge".into()))?;
    let (of, total) = (first.of, first.total_cells);
    // Keyed by cell index, so memory follows the records the artifacts
    // hold, never the `total_cells` they claim.
    let mut slots: BTreeMap<usize, RunRecord> = BTreeMap::new();
    for shard in shards {
        if shard.of != of || shard.total_cells != total {
            return Err(SqipError::Config(format!(
                "shard {}/{} with {} cells does not belong to the {}-shard, {}-cell split",
                shard.shard, shard.of, shard.total_cells, of, total
            )));
        }
        if shard.shard >= of {
            return Err(SqipError::Config(format!(
                "shard index {} out of range for {} shards",
                shard.shard, of
            )));
        }
        if shard.indices.len() != shard.records.len() {
            return Err(SqipError::Config(format!(
                "shard {}: {} indices for {} records",
                shard.shard,
                shard.indices.len(),
                shard.records.len()
            )));
        }
        for (index, record) in shard.indices.into_iter().zip(shard.records) {
            if index >= total {
                return Err(SqipError::Config(format!(
                    "cell index {index} out of range for {total} cells"
                )));
            }
            if slots.insert(index, record).is_some() {
                return Err(SqipError::Config(format!(
                    "cell index {index} covered by more than one shard artifact"
                )));
            }
        }
    }
    // Every key is a distinct index below `total`, so the first index
    // missing is the first position whose key is not its own index.
    let missing = slots
        .keys()
        .enumerate()
        .position(|(i, &index)| i != index)
        .unwrap_or(slots.len());
    if missing < total {
        return Err(SqipError::Config(format!(
            "cell index {missing} covered by no shard artifact (missing shard?)"
        )));
    }
    Ok(ResultSet::new(slots.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_validates() {
        let spec: ShardSpec = "2/5".parse().unwrap();
        assert_eq!((spec.index, spec.of), (2, 5));
        assert_eq!(spec.to_string(), "2/5");
        for bad in ["", "3", "5/5", "1/0", "a/b", "-1/3"] {
            assert!(bad.parse::<ShardSpec>().is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn every_label_has_exactly_one_owner() {
        let labels = [
            "gzip/associative-3/base",
            "mesa.t/indexed-3-fwd/f64",
            "x/y/z",
        ];
        for of in 1..=5 {
            for label in labels {
                let owners = (0..of)
                    .filter(|&i| ShardSpec::new(i, of).unwrap().owns(label))
                    .count();
                assert_eq!(owners, 1, "{label} under {of} shards");
            }
        }
    }

    #[test]
    fn merge_rejects_duplicates_gaps_and_mixed_splits() {
        let shard = |index: usize, of, total, indices: Vec<usize>| ShardResult {
            shard: index,
            of,
            total_cells: total,
            records: indices
                .iter()
                .map(|&i| RunRecord {
                    workload: format!("w{i}"),
                    suite: None,
                    design: sqip_core::SqDesign::Associative3,
                    variant: "base".to_string(),
                    stats: sqip_core::SimStats::default(),
                })
                .collect(),
            indices,
        };
        // A complete split merges, in index order.
        let merged = merge_shards([shard(1, 2, 3, vec![1]), shard(0, 2, 3, vec![0, 2])]).unwrap();
        let names: Vec<&str> = merged.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(names, ["w0", "w1", "w2"]);

        assert!(merge_shards([]).is_err(), "empty");
        assert!(
            merge_shards([shard(0, 2, 3, vec![0, 2])]).is_err(),
            "missing cells"
        );
        assert!(
            merge_shards([shard(0, 2, 3, vec![0, 2]), shard(0, 2, 3, vec![0, 2])]).is_err(),
            "duplicate coverage"
        );
        assert!(
            merge_shards([shard(0, 2, 3, vec![0, 2]), shard(1, 3, 3, vec![1])]).is_err(),
            "mixed splits"
        );
        assert!(
            merge_shards([shard(0, 1, 2, vec![0, 5])]).is_err(),
            "index out of range"
        );
    }

    /// An artifact claiming more cells than memory can hold is an
    /// incomplete split like any other, not an allocation failure.
    #[test]
    fn a_huge_claimed_cell_count_is_an_incomplete_split() {
        let hostile =
            r#"{"shard":0,"of":1,"total_cells":1000000000000000,"indices":[],"records":[]}"#;
        let err = merge_shards([ShardResult::from_json(hostile).unwrap()]).unwrap_err();
        assert!(
            err.to_string()
                .contains("cell index 0 covered by no shard artifact"),
            "{err}"
        );
    }
}
