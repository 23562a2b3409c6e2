//! Small helpers shared by every workload: order statistics, peak RSS,
//! seed derivation and the metric record printed on the last line.

use std::fmt::Write as _;
use std::time::Instant;

/// The `p`-th percentile (`0..=100`) by linear interpolation between
/// closest ranks. `NaN` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The median of values reported in whole units, interpolated within
/// the unit interval that holds it (Python's `statistics.median_grouped`
/// with interval 1). A plain median of integer milliseconds would read
/// the same on every run.
pub fn median_grouped(values: &[u64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    let x = v[n / 2];
    let below = v.partition_point(|&e| e < x);
    let at = v.partition_point(|&e| e <= x) - below;
    x as f64 - 0.5 + (n as f64 / 2.0 - below as f64) / at as f64
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` as one set-up step, pushing its seconds onto `steps`.
pub fn step<T>(steps: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    steps.push(secs(t));
    out
}

/// One SplitMix64 step: derives independent sub-seeds from the
/// workload seed.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The next seeded kernel mix (`mix:<seed>:<insts>`) whose pointer-chase
/// ring fits in the modelled 64 KiB L1. Mixes whose chase misses the
/// caches run up to six times slower per instruction, so drawing them
/// would make a round's work depend on the seed; `trace-replay`'s own
/// chase covers cache misses.
pub fn l1_resident_mix(state: &mut u64, insts: u64) -> sqip::WorkloadSpec {
    loop {
        let spec = sqip::generator::random_mix(splitmix(state) >> 16, insts);
        if u64::from(spec.chase_nodes) * u64::from(spec.chase_stride) <= 64 * 1024 {
            return spec;
        }
    }
}

/// Records in a source, pulled in blocks.
pub fn drain_count(source: &mut dyn sqip::TraceSource) -> crate::Res<u64> {
    let mut block = vec![sqip_isa::TraceRecord::default(); 256];
    let mut n = 0;
    loop {
        let got = source.next_block(&mut block)?;
        if got == 0 {
            return Ok(n);
        }
        n += got as u64;
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A named measurement with its unit, in print order.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// A non-finite value makes the run incorrect (and prints as `null`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A JSON number (`null` when not finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn grouped_median_matches_python() {
        // statistics.median_grouped([1, 2, 2, 3, 4, 4, 4, 4, 4, 5]) == 3.7
        let v = [1, 2, 2, 3, 4, 4, 4, 4, 4, 5];
        assert!((median_grouped(&v) - 3.7).abs() < 1e-12);
        assert_eq!(median_grouped(&[7]), 7.0);
    }
}
