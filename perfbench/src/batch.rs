//! One timed pass of a batch sweep on a single sweep thread, with the
//! completion time of every cell taken from the engine's `on_cell`
//! stream.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sqip::{Experiment, ResultSet, SweepEngine, SweepTelemetry};

use crate::{JobTiming, Round, SweepDetail};

/// Runs `experiment` (one workload group per job, `designs` cells per
/// group) on one sweep thread. A job is one workload group: its latency
/// runs from the group's start to its last cell, its first row from the
/// group's start to its first cell. With one thread the groups run in
/// order, so a group starts when the previous one finishes.
pub fn run(experiment: &Experiment, designs: usize) -> Result<Round, sqip::SqipError> {
    let events: Arc<Mutex<Vec<(usize, Instant, bool)>>> = Arc::default();
    let sink = Arc::clone(&events);
    let engine = SweepEngine::new().threads(1).on_cell(move |event| {
        let ok = matches!(event, sqip::CellEvent::Finished { .. });
        sink.lock()
            .expect("event sink poisoned")
            .push((event.index(), Instant::now(), ok));
    });
    let t0 = Instant::now();
    let outcome = engine.run_with_telemetry(experiment);
    let wall_s = crate::util::secs(t0);
    let events = std::mem::take(&mut *events.lock().expect("event sink poisoned"));
    let (results, telemetry) = match outcome {
        Ok(done) => done,
        Err(err) => {
            eprintln!("sweep failed: {err}");
            (ResultSet::new(Vec::new()), SweepTelemetry::default())
        }
    };

    let groups = experiment.cells()?.len() / designs;
    let mut jobs = Vec::with_capacity(groups);
    let mut cell_ms = Vec::with_capacity(events.len());
    let mut start = t0;
    let mut failed = 0;
    for g in 0..groups {
        if events.iter().filter(|e| e.0 / designs == g && e.2).count() != designs {
            failed += 1;
        }
        let mine: Vec<Instant> = events
            .iter()
            .filter(|e| e.0 / designs == g)
            .map(|e| e.1)
            .collect();
        let (Some(first), Some(last)) = (mine.iter().min(), mine.iter().max()) else {
            // Keep job `g` at index `g`; a job that never finished has no
            // latency.
            jobs.push(JobTiming {
                latency_ms: f64::NAN,
                first_row_ms: f64::NAN,
            });
            continue;
        };
        let ms = |t: &Instant| t.duration_since(start).as_secs_f64() * 1e3;
        cell_ms.extend(mine.iter().map(ms));
        jobs.push(JobTiming {
            latency_ms: ms(last),
            first_row_ms: ms(first),
        });
        start = *last;
    }
    Ok(Round {
        wall_s,
        committed: results.iter().map(|r| r.stats.committed).sum(),
        jobs,
        failed,
        results,
        sweep: Some(SweepDetail { telemetry, cell_ms }),
        service: None,
    })
}
