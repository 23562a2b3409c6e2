//! `paper-regen`: Table 3 regenerated in-process through the library —
//! the 47 Table 3 models × (`indexed-3-fwd`, `indexed-3-fwd+dly`), the
//! roster fixed by name, modelled caches starting empty.

use std::path::Path;

use sqip::{
    all_workloads, DesignRegistry, Experiment, ExperimentSpec, Fnv, ResultSet, SqDesign, Workload,
    WorkloadRegistry, WorkloadSpec,
};

use crate::util::{drain_count, step};
use crate::{batch, ledger::Input, ledger::Unit, Bench, Res, Round};

/// The paper's Table 3 All.avg row: % loads forwarding, mis-forwards per
/// 1000 loads (forwarding prediction only, then with delay prediction),
/// % loads delayed, average delay cycles.
pub const PAPER_ALL_AVG: [f64; 5] = [12.9, 1.8, 0.3, 2.3, 53.1];

pub const DESIGNS: [SqDesign; 2] = [SqDesign::Indexed3Fwd, SqDesign::Indexed3FwdDly];

/// Warm-up models run at 1/40 of their length: every code path of the
/// timed regeneration, a fortieth of its work.
const WARMUP_SHRINK: u32 = 40;

pub fn experiment(specs: &[WorkloadSpec]) -> Experiment {
    Experiment::new()
        .workloads(specs.iter().map(Workload::from))
        .designs(DESIGNS)
        .threads(1)
}

/// Mean relative error of the All.avg row of `results` (a Table 3
/// regeneration) against [`PAPER_ALL_AVG`]; `NaN` when a row is missing.
pub fn table3_err(results: &ResultSet) -> f64 {
    let names = results.workload_names();
    if names.len() != all_workloads().len() {
        return f64::NAN;
    }
    let mut avg = [0.0; 5];
    for name in &names {
        let (Some(fwd), Some(dly)) = (results.get(name, DESIGNS[0]), results.get(name, DESIGNS[1]))
        else {
            return f64::NAN;
        };
        let row = [
            dly.stats.pct_loads_forwarding(),
            fwd.stats.mis_forwards_per_1000(),
            dly.stats.mis_forwards_per_1000(),
            dly.stats.pct_loads_delayed(),
            dly.stats.avg_delay_cycles(),
        ];
        for (a, v) in avg.iter_mut().zip(row) {
            *a += v / names.len() as f64;
        }
    }
    avg.iter()
        .zip(PAPER_ALL_AVG)
        .map(|(m, p)| (m - p).abs() / p)
        .sum::<f64>()
        / PAPER_ALL_AVG.len() as f64
}

/// The model's Table 3 error for this build. A run whose rounds
/// regenerated Table 3 passes its own figure. A finite figure from a run
/// whose checks all `passed` is remembered in `out_dir` under the
/// executable's hash, so the other workloads' runs of the same build
/// report it without regenerating. Without either, one untimed
/// single-threaded regeneration computes it.
pub fn model_err(out_dir: &Path, measured: Option<f64>, passed: bool) -> Res<f64> {
    let mut exe = Fnv::new();
    exe.update(&std::fs::read(std::env::current_exe()?)?);
    let memo = out_dir.join(format!("table3-err-{}", exe.hex()));
    if measured.is_none() {
        if let Some(err) = std::fs::read_to_string(&memo)
            .ok()
            .and_then(|s| s.trim().parse().ok())
        {
            return Ok(err);
        }
    }
    let err = match measured {
        Some(err) => err,
        None => table3_err(&experiment(&all_workloads()).run()?),
    };
    if passed && err.is_finite() {
        std::fs::write(&memo, format!("{err}\n"))?;
    }
    Ok(err)
}

pub struct PaperRegen {
    roster: Vec<WorkloadSpec>,
    experiment: Experiment,
}

impl PaperRegen {
    pub fn new() -> PaperRegen {
        let roster = all_workloads();
        PaperRegen {
            experiment: experiment(&roster),
            roster,
        }
    }
}

impl Bench for PaperRegen {
    /// One step for the registries and the experiment, then one per
    /// model of the warm-up regeneration.
    fn setup(&mut self) -> Res<Vec<f64>> {
        let mut steps = Vec::with_capacity(self.roster.len() + 1);
        step(&mut steps, || -> Res<()> {
            let _ = (DesignRegistry::global(), WorkloadRegistry::global());
            self.roster = all_workloads();
            self.experiment = experiment(&self.roster);
            self.experiment.cells()?;
            Ok(())
        })?;
        for w in &self.roster {
            let warm = sqip::shrink(w.clone(), (w.iterations / WARMUP_SHRINK).max(1));
            let results = step(&mut steps, || experiment(&[warm]).run())?;
            if results.len() != DESIGNS.len() {
                return Err("warm-up regeneration lost cells".into());
            }
        }
        Ok(steps)
    }

    fn round_s(&self) -> f64 {
        10.0
    }

    fn round(&mut self) -> Res<Round> {
        Ok(batch::run(&self.experiment, DESIGNS.len())?)
    }

    fn check(&mut self, rounds: &[Round]) -> Res<u64> {
        let mut failed = 0;
        let lengths: Vec<u64> = self
            .roster
            .iter()
            .map(|w| drain_count(&mut w.source()?))
            .collect::<Res<_>>()?;
        for round in rounds {
            for (g, chunk) in round.results.records().chunks(DESIGNS.len()).enumerate() {
                let expected = lengths.get(g).copied();
                if chunk.iter().any(|r| Some(r.stats.committed) != expected) {
                    failed += 1;
                }
            }
            if round.results != rounds[0].results {
                eprintln!("paper-regen: a round's rows differ from the first round's");
                failed += 1;
            }
        }
        Ok(failed)
    }

    fn table3_err(&self, rounds: &[Round]) -> Option<f64> {
        Some(table3_err(&rounds[0].results))
    }

    fn units(&self) -> Vec<Unit> {
        self.roster
            .iter()
            .map(|w| Unit {
                spec: w.clone(),
                input: Input::Materialized,
                designs: DESIGNS.to_vec(),
            })
            .collect()
    }

    fn jobs(&self) -> Vec<ExperimentSpec> {
        let designs: Vec<String> = DESIGNS.iter().map(ToString::to_string).collect();
        self.roster
            .iter()
            .map(|w| ExperimentSpec::new([w.name.clone()], designs.clone()))
            .collect()
    }
}
