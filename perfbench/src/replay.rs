//! `trace-replay`: set-up records seeded programs to SQTR files (the
//! repository's on-disk trace format); the timed part replays every file
//! through `tracefile:<path>` under the paper's two headline designs in
//! one shared pass per file.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use sqip::{generator, record_trace, Experiment, ExperimentSpec, SqDesign, Workload, WorkloadSpec};

use crate::ledger::{Input, Unit};
use crate::util::{l1_resident_mix, step};
use crate::{batch, Bench, Res, Round};

pub const DESIGNS: [SqDesign; 2] = [SqDesign::Indexed3FwdDly, SqDesign::Associative3];

/// Seeded kernel mixes per run. Host cost per instruction differs by up
/// to a half between mixes, so a run replays many of them to keep the
/// total steady from seed to seed. With the chase a round replays 101
/// files, so ten jobs lie beyond the p90.
const MIXES: usize = 100;
const MIX_INSTS: u64 = 6_000;

/// The pointer chase: 8192 nodes 256 bytes apart, a 2 MiB footprint
/// against the modelled 1 MiB L2, so `mem` misses and long-latency wheel
/// events are common.
const CHASE: (u32, u32, u64) = (8192, 256, 40_000);

pub struct TraceReplay {
    programs: Vec<WorkloadSpec>,
    paths: Vec<PathBuf>,
    counts: Vec<u64>,
    experiment: Experiment,
}

impl TraceReplay {
    pub fn new(seed: u64, out_dir: &Path) -> TraceReplay {
        let mut state = seed;
        let mut programs: Vec<WorkloadSpec> = (0..MIXES)
            .map(|_| l1_resident_mix(&mut state, MIX_INSTS))
            .collect();
        programs.push(generator::pointer_chase(CHASE.0, CHASE.1, CHASE.2));
        let paths = (0..programs.len())
            .map(|i| out_dir.join(format!("replay-{i}.sqtr")))
            .collect();
        TraceReplay {
            programs,
            paths,
            counts: Vec::new(),
            experiment: Experiment::new(),
        }
    }

    fn names(&self) -> Vec<String> {
        self.paths
            .iter()
            .map(|p| format!("tracefile:{}", p.display()))
            .collect()
    }
}

impl Bench for TraceReplay {
    /// One step per recorded file, then one for the experiment.
    fn setup(&mut self) -> Res<Vec<f64>> {
        let mut steps = Vec::with_capacity(self.paths.len() + 1);
        self.counts.clear();
        for (spec, path) in self.programs.iter().zip(&self.paths) {
            let count = step(&mut steps, || -> Res<u64> {
                let file = BufWriter::new(File::create(path)?);
                Ok(record_trace(&mut spec.source()?, file)?)
            })?;
            self.counts.push(count);
        }
        self.experiment = step(&mut steps, || -> Res<Experiment> {
            let workloads = self
                .names()
                .iter()
                .map(|n| Workload::from_registry(n))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Experiment::new()
                .workloads(workloads)
                .designs(DESIGNS)
                .threads(1))
        })?;
        Ok(steps)
    }

    fn round_s(&self) -> f64 {
        1.6
    }

    fn round(&mut self) -> Res<Round> {
        Ok(batch::run(&self.experiment, DESIGNS.len())?)
    }

    fn check(&mut self, rounds: &[Round]) -> Res<u64> {
        // The same programs replayed from memory instead of from disk.
        let memory = Experiment::new()
            .workloads(self.programs.iter().map(Workload::from))
            .designs(DESIGNS)
            .threads(1)
            .run()?;
        let mut failed = 0;
        for round in rounds {
            let cells = round.results.records();
            for (g, chunk) in cells.chunks(DESIGNS.len()).enumerate() {
                let from_memory = &memory.records()[g * DESIGNS.len()..][..chunk.len()];
                let same = chunk
                    .iter()
                    .zip(from_memory)
                    .all(|(file, mem)| file.stats == mem.stats);
                let complete = chunk
                    .iter()
                    .all(|r| Some(r.stats.committed) == self.counts.get(g).copied());
                if !same || !complete {
                    failed += 1;
                }
            }
        }
        Ok(failed)
    }

    fn units(&self) -> Vec<Unit> {
        self.programs
            .iter()
            .zip(&self.paths)
            .map(|(spec, path)| Unit {
                spec: spec.clone(),
                input: Input::File(path.clone()),
                designs: DESIGNS.to_vec(),
            })
            .collect()
    }

    fn jobs(&self) -> Vec<ExperimentSpec> {
        let designs: Vec<String> = DESIGNS.iter().map(ToString::to_string).collect();
        self.names()
            .into_iter()
            .map(|n| ExperimentSpec::new([n], designs.clone()))
            .collect()
    }
}
