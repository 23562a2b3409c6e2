//! Result caching and sweep sharding: a warm cache answers the whole
//! sweep without simulating and reproduces the cold run's JSON
//! byte-for-byte; sharded runs merge to exactly the unsharded sweep.

use std::path::PathBuf;

use sqip::{
    by_name, merge_shards, CacheDir, Experiment, ObserverAction, ShardSpec, SimObserver, SimStats,
    SqDesign,
};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqip-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small but non-trivial sweep: two workloads (one streaming) × three
/// designs × two variants = 12 cells.
fn experiment() -> Experiment {
    Experiment::new()
        .workload(by_name("gzip").unwrap().with_iterations(120))
        .workload(sqip::Workload::from_registry("mix:0xbeef:10k").unwrap())
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3FwdDly,
        ])
        .vary("base", |_| {})
        .vary("fsp512", |cfg| cfg.fsp.entries = 512)
}

#[test]
fn warm_cache_reruns_byte_identical_with_zero_executions() {
    let dir = scratch("warm-cache");
    let cache = CacheDir::open(&dir).unwrap();
    let exp = experiment();
    let baseline = exp.run().unwrap();

    let (cold, first) = exp.run_cached(&cache).unwrap();
    assert_eq!(first.executed, 12, "cold cache simulates every cell");
    assert_eq!(first.cached, 0);
    assert_eq!(cold.to_json(), baseline.to_json(), "cached ≡ uncached run");

    let (warm, second) = exp.run_cached(&cache).unwrap();
    assert_eq!(second.executed, 0, "warm cache simulates nothing");
    assert_eq!(second.cached, 12);
    assert_eq!(
        warm.to_json(),
        baseline.to_json(),
        "warm rerun byte-identical"
    );
    assert_eq!(warm.to_csv(), baseline.to_csv());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_is_keyed_by_full_identity_not_labels() {
    let dir = scratch("identity");
    let cache = CacheDir::open(&dir).unwrap();
    let exp = experiment();
    let (_, first) = exp.run_cached(&cache).unwrap();
    assert_eq!(first.executed, 12);

    // Same labels, different machine configuration: every cell misses.
    let reconfigured = experiment().configure(|cfg| cfg.rob_size = 256);
    let (results, second) = reconfigured.run_cached(&cache).unwrap();
    assert_eq!(second.executed, 12, "config changes invalidate by key");
    assert_eq!(results.to_json(), reconfigured.run().unwrap().to_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A workload that keeps its name but changes its spec (here, twice the
/// iterations) is a different cell: the cache must miss, not return the
/// first spec's row.
#[test]
fn cache_is_keyed_by_the_workload_spec_not_just_its_name() {
    let dir = scratch("spec-identity");
    let cache = CacheDir::open(&dir).unwrap();
    let gzip = |iterations| {
        Experiment::new()
            .workload(by_name("gzip").unwrap().with_iterations(iterations))
            .design(SqDesign::Indexed3FwdDly)
    };
    let (_, first) = gzip(100).run_cached(&cache).unwrap();
    assert_eq!((first.executed, first.cached), (1, 0));

    let longer = gzip(200);
    let (cached, second) = longer.run_cached(&cache).unwrap();
    assert_eq!(
        (second.executed, second.cached),
        (1, 0),
        "a changed spec misses"
    );
    assert_eq!(
        cached.to_json(),
        longer.run().unwrap().to_json(),
        "cached ≡ fresh"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_union_is_byte_identical_to_the_unsharded_sweep() {
    let exp = experiment();
    let baseline = exp.run().unwrap();
    for of in [2usize, 3] {
        let shards: Vec<_> = (0..of)
            .map(|i| exp.run_shard(ShardSpec::new(i, of).unwrap()).unwrap())
            .collect();
        let covered: usize = shards.iter().map(|s| s.records.len()).sum();
        assert_eq!(covered, 12, "{of} shards cover every cell exactly once");

        // Round-trip each artifact through its JSON form, as the CLI
        // (`sqip-merge`) would see it, then merge.
        let merged = merge_shards(
            shards
                .iter()
                .map(|s| sqip::ShardResult::from_json(&s.to_json()).unwrap()),
        )
        .unwrap();
        assert_eq!(
            merged.to_json(),
            baseline.to_json(),
            "{of}-way shard union ≡ unsharded"
        );
        assert_eq!(merged.to_csv(), baseline.to_csv());
    }
}

/// Aborts its run at the third 1000-cycle interval.
struct AbortAtThirdInterval(u32);

impl SimObserver for AbortAtThirdInterval {
    fn interval(&self) -> u64 {
        1000
    }
    fn on_interval(&mut self, _cycle: u64, _stats: &SimStats) -> ObserverAction {
        self.0 += 1;
        if self.0 == 3 {
            ObserverAction::Abort
        } else {
            ObserverAction::Continue
        }
    }
}

/// Shards consult the experiment's observer exactly as `run` does, so
/// an observed sweep's shards still merge to its unsharded result.
#[test]
fn observed_shards_merge_to_the_observed_sweep() {
    let exp = experiment().observe(|_| Box::new(AbortAtThirdInterval(0)));
    let observed = exp.run().unwrap();
    assert_ne!(
        observed.to_json(),
        experiment().run().unwrap().to_json(),
        "the observer cut the runs short"
    );
    let merged =
        merge_shards((0..2).map(|i| exp.run_shard(ShardSpec::new(i, 2).unwrap()).unwrap()))
            .unwrap();
    assert_eq!(merged.to_json(), observed.to_json());
}

#[test]
fn merging_an_incomplete_split_is_an_error_not_a_partial_result() {
    let exp = experiment();
    let half = exp.run_shard("0/2".parse::<ShardSpec>().unwrap()).unwrap();
    let err = merge_shards([half]).unwrap_err();
    assert!(
        err.to_string().contains("covered by no shard"),
        "unexpected: {err}"
    );
}

/// `sqip-merge` reads artifacts from disk: one claiming a quadrillion
/// cells fails with the incomplete-split message and exit code 1.
#[test]
fn sqip_merge_refuses_a_huge_claimed_cell_count() {
    let dir = scratch("hostile-merge");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hostile.json");
    std::fs::write(
        &path,
        r#"{"shard":0,"of":1,"total_cells":1000000000000000,"indices":[],"records":[]}"#,
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sqip-merge"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("covered by no shard artifact"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
