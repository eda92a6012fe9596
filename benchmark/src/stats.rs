//! Figures of a phase: record-weighted quantiles, calm windows, and the
//! latency and throughput statistics built on them.

use crate::drive::PhaseResult;

/// The latency limit on p99, µs: the paper's measured per-invocation
/// controller overhead (§5.3).
pub const SLO_P99_US: f64 = 835.7;
/// A generator thread busier than this share of a phase saturates it.
const GEN_CPU_LIMIT: f64 = 0.9;

/// The record-weighted `q`-quantile of `(latency, records)` samples, in
/// the samples' unit; 0 when empty.
pub fn quantile(samples: &mut [(u64, u32)], q: f64) -> f64 {
    samples.sort_unstable();
    let total: u64 = samples.iter().map(|&(_, n)| u64::from(n)).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for &(v, n) in samples.iter() {
        seen += u64::from(n);
        if seen >= rank {
            return v as f64;
        }
    }
    samples.last().map_or(0.0, |&(v, _)| v as f64)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Latency and validity figures of one open-loop phase.
pub struct OpenStats {
    pub offered: f64,
    pub records: usize,
    pub units: usize,
    pub windows: usize,
    pub calm: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub late_p99_us: f64,
    pub gen_cpu_frac: f64,
    pub achieved: f64,
    pub growing: bool,
    pub gen_bound: bool,
    pub meets_slo: bool,
}

/// Latency windows of an open-loop phase, by due time.
const WINDOW_NS: u64 = 200_000_000;
/// Throughput windows of the saturation phase, by reply time.
const RATE_WINDOW_NS: u64 = 100_000_000;
/// A window is calm when the host stole less than this share of the
/// machine's CPU time during it.
const CALM_STEAL: f64 = 0.05;
/// Fewer calm windows than this and a phase's figures use every window.
const MIN_CALM: usize = 3;

/// Splits a phase's units into windows of `len` ns (by due time when
/// `by_due`, else by reply time) and keeps the calm ones: windows in
/// which the host ran the machine's CPUs. On a shared host a virtual CPU
/// that the host does not run stalls every thread on it for
/// milliseconds; those windows measure the neighbours, not the server.
/// Returns (kept windows, calm windows, total windows).
fn calm_windows(
    p: &PhaseResult,
    len: u64,
    by_due: bool,
    nproc: usize,
) -> (Vec<Vec<(u64, u32)>>, usize, usize) {
    let mut windows: Vec<Vec<(u64, u32)>> = vec![Vec::new(); (p.wall_ns() / len) as usize + 1];
    for &(begin, lat, n) in &p.lat {
        let t = if by_due { begin } else { begin + lat };
        windows[((t - p.start_ns) / len) as usize].push((lat, n));
    }
    // The last window is partial.
    if windows.len() > 1 {
        windows.pop();
    }
    let total = windows.len();
    let calm: Vec<Vec<(u64, u32)>> = windows
        .iter()
        .enumerate()
        .filter(|(k, _)| {
            let from = p.start_ns + *k as u64 * len;
            let steal = p.steal_between(from, from + len) as f64;
            steal < CALM_STEAL * (len * nproc as u64) as f64
        })
        .map(|(_, w)| w.clone())
        .collect();
    let n_calm = calm.len();
    if n_calm >= MIN_CALM {
        (calm, n_calm, total)
    } else {
        (windows, n_calm, total)
    }
}

pub fn open_stats(p: &PhaseResult, offered: f64, nproc: usize) -> OpenStats {
    let (mut windows, calm, total) = calm_windows(p, WINDOW_NS, true, nproc);
    let mut kept: Vec<(u64, u32)> = windows.iter().flatten().copied().collect();
    let p50_us = quantile(&mut kept, 0.5) / 1e3;
    // The median of the windows' p99s: one stall moves one window.
    let mut p99s: Vec<f64> = windows
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, 0.99) / 1e3)
        .collect();
    let p99_us = median(&mut p99s);
    // A growing backlog: replies missing, or the median latency of the
    // last window (by due time) 1 ms above the first's.
    let window_of = |from: u64, to: u64| -> Vec<(u64, u32)> {
        p.lat
            .iter()
            .filter(|u| (from..to).contains(&u.0))
            .map(|&(_, l, n)| (l, n))
            .collect()
    };
    let last_due = p.lat.last().map_or(p.start_ns, |u| u.0);
    let first_p50 = quantile(&mut window_of(p.start_ns, p.start_ns + WINDOW_NS), 0.5);
    let last_p50 = quantile(
        &mut window_of(last_due.saturating_sub(WINDOW_NS), u64::MAX),
        0.5,
    );
    let growing = p.lost > 0 || last_p50 > first_p50 + 1e6;
    let mut late: Vec<(u64, u32)> = p.late_ns.iter().map(|&l| (l, 1)).collect();
    let late_p99_us = quantile(&mut late, 0.99) / 1e3;
    let answered: usize = p.lat.iter().map(|&(_, _, n)| n as usize).sum();
    let gen_bound = p.gen_cpu_frac > GEN_CPU_LIMIT || late_p99_us > SLO_P99_US;
    OpenStats {
        offered,
        records: p.records,
        units: p.units,
        windows: total,
        calm,
        p50_us,
        p99_us,
        late_p99_us,
        gen_cpu_frac: p.gen_cpu_frac,
        achieved: answered as f64 / (p.wall_ns() as f64 / 1e9),
        growing,
        gen_bound,
        meets_slo: p99_us <= SLO_P99_US && !growing && !gen_bound && p.error.is_none(),
    }
}

/// Median over the saturation phase's calm windows of the records
/// answered per second, with (calm, total) window counts.
pub fn windowed_rate(p: &PhaseResult, nproc: usize) -> (f64, usize, usize) {
    let (windows, calm, total) = calm_windows(p, RATE_WINDOW_NS, false, nproc);
    let mut rates: Vec<f64> = windows
        .iter()
        .map(|w| w.iter().map(|&(_, n)| f64::from(n)).sum::<f64>() * 1e9 / RATE_WINDOW_NS as f64)
        .collect();
    (median(&mut rates), calm, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_quantiles() {
        let mut s = vec![(10, 1), (20, 98), (1000, 1)];
        assert_eq!(quantile(&mut s, 0.5), 20.0);
        assert_eq!(quantile(&mut s, 0.99), 20.0);
        assert_eq!(quantile(&mut s, 1.0), 1000.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }
}
