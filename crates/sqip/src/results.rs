//! Structured sweep results: grouping, aggregation and serialization.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use sqip_core::{SimStats, SqDesign};
use sqip_workloads::Suite;

use crate::error::SqipError;

/// Geometric mean of a sequence of positive values (1.0 for empty input).
///
/// # Panics
///
/// Panics if any value is non-positive.
#[must_use]
pub fn geomean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        assert!(v > 0.0, "geometric mean requires positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// One completed sweep cell: where it ran and what it measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name (a Table 3 row, or a custom trace's label).
    pub workload: String,
    /// Suite grouping; `None` for custom traces.
    pub suite: Option<Suite>,
    /// Store-queue design simulated.
    pub design: SqDesign,
    /// Variant label (`"base"` when the experiment declared no variants).
    pub variant: String,
    /// The full statistics of the run.
    pub stats: SimStats,
}

impl RunRecord {
    /// The `workload/design/variant` cell label.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.workload, self.design, self.variant)
    }

    /// Serializes this record to compact JSON — the exact bytes the
    /// record occupies inside [`ResultSet::to_json`], so streamed rows
    /// concatenate back into the batch serialization.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("run records contain only finite numbers")
    }

    /// Parses a record serialized by [`RunRecord::to_json`].
    ///
    /// # Errors
    ///
    /// [`SqipError::Parse`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<RunRecord, SqipError> {
        Ok(serde_json::from_str(text)?)
    }

    /// Renders this record as one CSV row (no trailing newline), in the
    /// column order of [`ResultSet::csv_header`].
    #[must_use]
    pub fn to_csv_row(&self) -> String {
        let suite = self.suite.map_or_else(String::new, |s| s.to_string());
        let s = &self.stats;
        format!(
            "{},{},{},{},{},{},{:.6},{},{},{},{},{},{},{},{},{},{}",
            self.workload,
            suite,
            self.design,
            self.variant,
            s.cycles,
            s.committed,
            s.ipc(),
            s.loads,
            s.stores,
            s.loads_forwarded,
            s.mis_forwards,
            s.flushes,
            s.replays,
            s.re_executions,
            s.loads_delayed,
            s.delay_cycles,
            s.partial_stalls,
        )
    }
}

/// The ordered collection of records an [`crate::Experiment`] produced.
///
/// Record order is the experiment's cell order (workloads × designs ×
/// variants), independent of how many threads executed the sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    records: Vec<RunRecord>,
}

impl ResultSet {
    /// Wraps a list of records.
    #[must_use]
    pub fn new(records: Vec<RunRecord>) -> ResultSet {
        ResultSet { records }
    }

    /// All records, in cell order.
    #[must_use]
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Iterates the records in cell order.
    pub fn iter(&self) -> std::slice::Iter<'_, RunRecord> {
        self.records.iter()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Concatenates two result sets (e.g. a baseline experiment and a
    /// sweep experiment over the same workloads).
    #[must_use]
    pub fn merge(mut self, other: ResultSet) -> ResultSet {
        self.records.extend(other.records);
        self
    }

    /// The first record for `workload` under `design` (any variant).
    #[must_use]
    pub fn get(&self, workload: &str, design: SqDesign) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.design == design)
    }

    /// The record for an exact (workload, design, variant) cell.
    #[must_use]
    pub fn find(&self, workload: &str, design: SqDesign, variant: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.design == design && r.variant == variant)
    }

    /// Unique workload names, in first-appearance order.
    #[must_use]
    pub fn workload_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for r in &self.records {
            if !names.contains(&r.workload.as_str()) {
                names.push(&r.workload);
            }
        }
        names
    }

    /// Unique variant labels, in first-appearance order.
    #[must_use]
    pub fn variants(&self) -> Vec<&str> {
        let mut variants: Vec<&str> = Vec::new();
        for r in &self.records {
            if !variants.contains(&r.variant.as_str()) {
                variants.push(&r.variant);
            }
        }
        variants
    }

    /// Groups records by an arbitrary key, preserving cell order within
    /// each group.
    pub fn group_by<K: Ord, F: Fn(&RunRecord) -> K>(&self, key: F) -> BTreeMap<K, Vec<&RunRecord>> {
        let mut groups: BTreeMap<K, Vec<&RunRecord>> = BTreeMap::new();
        for r in &self.records {
            groups.entry(key(r)).or_default().push(r);
        }
        groups
    }

    /// Records grouped by suite (custom traces, which have no suite, are
    /// omitted).
    #[must_use]
    pub fn by_suite(&self) -> Vec<(Suite, Vec<&RunRecord>)> {
        [Suite::Media, Suite::Int, Suite::Fp]
            .into_iter()
            .filter_map(|s| {
                let rows: Vec<&RunRecord> =
                    self.records.iter().filter(|r| r.suite == Some(s)).collect();
                (!rows.is_empty()).then_some((s, rows))
            })
            .collect()
    }

    /// Geometric mean of a per-record metric over records matching
    /// `filter`; `None` when nothing matches.
    pub fn geomean_of<M, P>(&self, metric: M, filter: P) -> Option<f64>
    where
        M: Fn(&RunRecord) -> f64,
        P: Fn(&RunRecord) -> bool,
    {
        let values: Vec<f64> = self
            .records
            .iter()
            .filter(|r| filter(r))
            .map(metric)
            .collect();
        if values.is_empty() {
            None
        } else {
            Some(geomean(values))
        }
    }

    /// Runtime of (`workload`, `design`, `variant`) relative to the same
    /// workload and variant under `baseline` — the paper's
    /// relative-execution-time metric (Figures 4 and 5).
    #[must_use]
    pub fn relative_runtime(
        &self,
        workload: &str,
        variant: &str,
        design: SqDesign,
        baseline: SqDesign,
    ) -> Option<f64> {
        let num = self.find(workload, design, variant)?.stats.cycles as f64;
        let den = self.find(workload, baseline, variant)?.stats.cycles as f64;
        (den > 0.0).then_some(num / den)
    }

    /// Serializes the whole set to compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("result sets contain only finite numbers")
    }

    /// Serializes the whole set to pretty-printed JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("result sets contain only finite numbers")
    }

    /// Parses a set serialized by [`ResultSet::to_json`].
    ///
    /// # Errors
    ///
    /// [`SqipError::Parse`] on malformed JSON or a shape mismatch.
    pub fn from_json(text: &str) -> Result<ResultSet, SqipError> {
        Ok(serde_json::from_str(text)?)
    }

    /// The CSV header row (no trailing newline): identity columns, the
    /// headline counters, and the derived per-run metrics, matching
    /// [`RunRecord::to_csv_row`]'s column order.
    #[must_use]
    pub fn csv_header() -> &'static str {
        "workload,suite,design,variant,cycles,committed,ipc,loads,stores,\
         loads_forwarded,mis_forwards,flushes,replays,re_executions,\
         loads_delayed,delay_cycles,partial_stalls"
    }

    /// Renders the set as CSV: [`ResultSet::csv_header`] then one
    /// [`RunRecord::to_csv_row`] per record, each line `\n`-terminated —
    /// so rows streamed cell-by-cell concatenate into the same bytes.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::csv_header());
        out.push('\n');
        for r in &self.records {
            out.push_str(&r.to_csv_row());
            out.push('\n');
        }
        out
    }
}

impl<'a> IntoIterator for &'a ResultSet {
    type Item = &'a RunRecord;
    type IntoIter = std::slice::Iter<'a, RunRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl Serialize for ResultSet {
    fn serialize(&self) -> serde::Value {
        self.records.serialize()
    }
}

impl Deserialize for ResultSet {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ResultSet {
            records: Vec::<RunRecord>::deserialize(value)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, suite: Option<Suite>, design: SqDesign, cycles: u64) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            suite,
            design,
            variant: "base".to_string(),
            stats: SimStats {
                cycles,
                committed: 100,
                ..SimStats::default()
            },
        }
    }

    fn sample() -> ResultSet {
        ResultSet::new(vec![
            record("gzip", Some(Suite::Int), SqDesign::IdealOracle, 1000),
            record("gzip", Some(Suite::Int), SqDesign::Indexed3FwdDly, 1100),
            record("mesa.t", Some(Suite::Media), SqDesign::IdealOracle, 2000),
            record("mesa.t", Some(Suite::Media), SqDesign::Indexed3FwdDly, 2200),
            record("custom", None, SqDesign::Indexed3FwdDly, 500),
        ])
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean([]) - 1.0).abs() < 1e-12);
        assert!((geomean([5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean([0.0]);
    }

    #[test]
    fn lookups_and_grouping() {
        let rs = sample();
        assert_eq!(rs.len(), 5);
        assert_eq!(
            rs.get("gzip", SqDesign::IdealOracle).unwrap().stats.cycles,
            1000
        );
        assert!(rs.find("gzip", SqDesign::IdealOracle, "nope").is_none());
        assert_eq!(rs.workload_names(), vec!["gzip", "mesa.t", "custom"]);
        let by_suite = rs.by_suite();
        assert_eq!(by_suite.len(), 2);
        assert_eq!(by_suite[0].0, Suite::Media);
        assert_eq!(by_suite[0].1.len(), 2);
        let by_design = rs.group_by(|r| r.design.name());
        assert_eq!(by_design["indexed-3-fwd+dly"].len(), 3);
    }

    #[test]
    fn relative_runtime_matches_hand_math() {
        let rs = sample();
        let rel = rs
            .relative_runtime(
                "gzip",
                "base",
                SqDesign::Indexed3FwdDly,
                SqDesign::IdealOracle,
            )
            .unwrap();
        assert!((rel - 1.1).abs() < 1e-12);
        assert!(rs
            .relative_runtime(
                "gzip",
                "base",
                SqDesign::Associative3,
                SqDesign::IdealOracle
            )
            .is_none());
    }

    #[test]
    fn geomean_of_selects_and_aggregates() {
        let rs = sample();
        let g = rs
            .geomean_of(
                |r| r.stats.cycles as f64,
                |r| r.design == SqDesign::IdealOracle,
            )
            .unwrap();
        assert!((g - (1000.0f64 * 2000.0).sqrt()).abs() < 1e-9);
        assert!(rs.geomean_of(|_| 1.0, |_| false).is_none());
    }

    #[test]
    fn json_round_trips() {
        let rs = sample();
        let back = ResultSet::from_json(&rs.to_json()).unwrap();
        assert_eq!(back, rs);
        let back = ResultSet::from_json(&rs.to_json_pretty()).unwrap();
        assert_eq!(back, rs);
        assert!(ResultSet::from_json("{not json").is_err());
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let rs = sample();
        let csv = rs.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with("workload,suite,design,"));
        assert!(lines[1].starts_with("gzip,Int,ideal-oracle,base,1000,100,0.1"));
        assert!(lines[5].starts_with("custom,,indexed-3-fwd+dly,base,500"));
    }

    #[test]
    fn merge_preserves_order() {
        let a = sample();
        let b = ResultSet::new(vec![record("x", None, SqDesign::Associative3, 9)]);
        let merged = a.clone().merge(b);
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.records()[5].workload, "x");
    }
}
