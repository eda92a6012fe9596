//! The hybrid histogram policy — the paper's main contribution (§4.2).
//!
//! Per application, the policy tracks idle times (ITs) in a compact
//! range-limited histogram with 1-minute bins and chooses, after every
//! execution, a *(pre-warming window, keep-alive window)* pair:
//!
//! 1. **Too many out-of-bounds ITs** → the histogram cannot represent the
//!    app; forecast the next IT with ARIMA and wrap it in a ±15% margin.
//! 2. **Histogram not representative** (too few ITs, or bin-count CV
//!    below threshold — the ITs are spread widely) → *standard
//!    keep-alive*: stay loaded for the whole histogram range.
//! 3. **Otherwise** → pre-warm at the 5th-percentile IT (rounded down to
//!    its bin edge, −10% margin) and keep alive until the 99th-percentile
//!    IT (rounded up, +10% margin). A head that rounds to zero disables
//!    unloading (Figure 12, middle column).

use std::collections::VecDeque;
use std::sync::Arc;

use sitw_arima::{auto_arima, AutoArimaConfig};
use sitw_stats::RangeHistogram;

use crate::policy::{AppPolicy, DecisionKind, DurationMs, PolicyFactory, Windows, MINUTE_MS};

/// Configuration of the hybrid histogram policy. Implements
/// [`PolicyFactory`]; each application receives a fresh [`HybridPolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Histogram range in minutes (default 240 = 4 hours; §6 quotes 240
    /// one-minute buckets = 960 bytes per app).
    pub range_minutes: usize,
    /// Histogram bin width in minutes (default 1, the paper's choice —
    /// "1-minute bins strike a good balance between metadata size and
    /// resolution"; widening it is an ablation knob).
    pub bin_width_minutes: usize,
    /// Head cutoff percentile of the IT distribution for the pre-warming
    /// window (default 5, Figure 16).
    pub head_percentile: f64,
    /// Tail cutoff percentile for the keep-alive window (default 99).
    pub tail_percentile: f64,
    /// Safety margin subtracted from the head (default 0.10).
    pub head_margin: f64,
    /// Safety margin added to the tail (default 0.10).
    pub tail_margin: f64,
    /// Minimum bin-count CV for the histogram to count as representative
    /// (default 2.0, Figure 18).
    pub cv_threshold: f64,
    /// Minimum recorded ITs before trusting the histogram (the "not
    /// enough ITs" condition of §4.2).
    pub min_samples: u64,
    /// Fraction of out-of-bounds ITs beyond which the ARIMA path is used
    /// (default 0.5 — "the histogram does not capture most ITs").
    pub oob_threshold: f64,
    /// Enables the ARIMA path (Figure 19 compares with/without).
    pub use_arima: bool,
    /// Enables unload + pre-warm from the histogram head; when false the
    /// policy only adapts the keep-alive ("Hybrid No PW" in Figure 17).
    pub pre_warming: bool,
    /// Margin applied around the ARIMA IT forecast (default 0.15: the
    /// paper's 5 h forecast ⇒ pre-warm 4.25 h, keep-alive 1.5 h).
    pub arima_margin: f64,
    /// Minimum IT observations before fitting ARIMA.
    pub arima_min_history: usize,
    /// Cap on the retained IT history for ARIMA fitting.
    pub history_cap: usize,
    /// ARIMA order-search configuration.
    pub arima: AutoArimaConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            range_minutes: 240,
            bin_width_minutes: 1,
            head_percentile: 5.0,
            tail_percentile: 99.0,
            head_margin: 0.10,
            tail_margin: 0.10,
            cv_threshold: 2.0,
            min_samples: 5,
            oob_threshold: 0.5,
            use_arima: true,
            pre_warming: true,
            arima_margin: 0.15,
            arima_min_history: 4,
            history_cap: 64,
            arima: AutoArimaConfig::default(),
        }
    }
}

impl HybridConfig {
    /// The paper's default configuration with a custom histogram range
    /// in hours (Figure 15 sweeps 1–4 h).
    pub fn with_range_hours(hours: usize) -> Self {
        Self {
            range_minutes: hours * 60,
            ..Self::default()
        }
    }

    /// Same configuration with the ARIMA path disabled ("Hybrid without
    /// ARIMA" in Figure 19).
    pub fn without_arima(mut self) -> Self {
        self.use_arima = false;
        self
    }

    /// Same configuration with different head/tail cutoff percentiles
    /// (Figure 16 sweeps \[0,100\], \[5,100\], \[1,99\], \[5,99\],
    /// \[1,95\], \[5,95\]).
    pub fn with_cutoffs(mut self, head: f64, tail: f64) -> Self {
        self.head_percentile = head;
        self.tail_percentile = tail;
        self
    }

    /// Same configuration with a different CV threshold (Figure 18
    /// sweeps 0, 2, 5, 10).
    pub fn with_cv_threshold(mut self, cv: f64) -> Self {
        self.cv_threshold = cv;
        self
    }

    /// Disables pre-warming: the app is never unloaded eagerly and the
    /// keep-alive runs to the tail cutoff ("Hybrid No PW" in Figure 17).
    pub fn without_pre_warming(mut self) -> Self {
        self.pre_warming = false;
        self
    }
}

impl PolicyFactory for HybridConfig {
    type Policy = HybridPolicy;

    fn new_policy(&self) -> HybridPolicy {
        HybridPolicy::new(self.clone())
    }

    fn label(&self) -> String {
        let arima = if self.use_arima { "" } else { "-noarima" };
        let pw = if self.pre_warming { "" } else { "-nopw" };
        format!(
            "hybrid-{}h[{},{}]cv{}{arima}{pw}",
            self.range_minutes / 60,
            self.head_percentile,
            self.tail_percentile,
            self.cv_threshold,
        )
    }
}

/// Counters of which branch served each decision (used to reproduce the
/// paper's "0.64% of invocations were handled by ARIMA; 9.3% of
/// applications used ARIMA at least once").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCounts {
    /// Decisions made from the histogram head/tail.
    pub histogram: u64,
    /// Conservative standard keep-alive decisions.
    pub standard: u64,
    /// Decisions from an ARIMA forecast.
    pub arima: u64,
}

impl DecisionCounts {
    /// Total decisions.
    pub fn total(&self) -> u64 {
        self.histogram + self.standard + self.arima
    }
}

/// Per-application state of the hybrid histogram policy.
///
/// The configuration is held behind an [`Arc`] so a fleet of apps under
/// one tenant can share a single copy ([`HybridPolicy::with_config`]);
/// the per-app footprint is then the histogram (§6: 240 one-minute
/// buckets, 960 bytes), the capped ARIMA history and the counters.
#[derive(Debug, Clone)]
pub struct HybridPolicy {
    config: Arc<HybridConfig>,
    hist: RangeHistogram,
    /// Recent ITs in minutes (for the ARIMA path), most recent last;
    /// a ring of at most `history_cap` entries.
    history: VecDeque<f64>,
    counts: DecisionCounts,
    last_decision: DecisionKind,
}

impl HybridPolicy {
    /// Creates the per-app state for a configuration.
    pub fn new(config: HybridConfig) -> Self {
        Self::with_config(Arc::new(config))
    }

    /// Creates the per-app state for a configuration shared with other
    /// apps (no copy of the configuration is made).
    pub fn with_config(config: Arc<HybridConfig>) -> Self {
        let width = config.bin_width_minutes.max(1);
        let bins = (config.range_minutes / width).max(1);
        let hist = RangeHistogram::new(bins, width as u64);
        Self {
            config,
            hist,
            history: VecDeque::new(),
            counts: DecisionCounts::default(),
            last_decision: DecisionKind::StandardKeepAlive,
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// The underlying idle-time histogram.
    pub fn histogram(&self) -> &RangeHistogram {
        &self.hist
    }

    /// Decision counters so far.
    pub fn decisions(&self) -> DecisionCounts {
        self.counts
    }

    /// Histogram range in milliseconds (bins × bin width).
    fn range_ms(&self) -> DurationMs {
        self.hist.range() * MINUTE_MS
    }

    /// The conservative fallback: no unloading, keep-alive spanning the
    /// whole histogram range.
    fn standard_keep_alive(&mut self) -> Windows {
        self.counts.standard += 1;
        self.last_decision = DecisionKind::StandardKeepAlive;
        Windows::keep_loaded(self.range_ms())
    }

    /// Attempts the ARIMA branch; `None` when the forecast is unusable.
    fn arima_windows(&mut self) -> Option<Windows> {
        if self.history.len() < self.config.arima_min_history {
            return None;
        }
        let fit = auto_arima(self.history.make_contiguous(), self.config.arima).ok()?;
        let pred_minutes = fit.forecast_one();
        if !pred_minutes.is_finite() || pred_minutes < 1.0 {
            return None;
        }
        let margin = self.config.arima_margin;
        let pre_warm = pred_minutes * (1.0 - margin);
        let keep_alive = 2.0 * margin * pred_minutes;
        Some(Windows::pre_warmed(
            (pre_warm * MINUTE_MS as f64) as DurationMs,
            (keep_alive * MINUTE_MS as f64).max(MINUTE_MS as f64) as DurationMs,
        ))
    }

    /// The histogram branch: head/tail cutoffs with margins and the
    /// paper's rounding rule.
    fn histogram_windows(&mut self) -> Option<Windows> {
        let (head_min, tail_min) = self
            .hist
            .head_tail_values(self.config.head_percentile, self.config.tail_percentile)?;
        let head_ms = (head_min as f64 * (1.0 - self.config.head_margin)) * MINUTE_MS as f64;
        let tail_ms = (tail_min as f64 * (1.0 + self.config.tail_margin)) * MINUTE_MS as f64;
        let windows = if head_min == 0 || !self.config.pre_warming {
            // Head rounded down to zero (Figure 12, middle column) or
            // pre-warming disabled: do not unload.
            Windows::keep_loaded(tail_ms as DurationMs)
        } else {
            let pw = head_ms as DurationMs;
            let ka = (tail_ms - head_ms).max(MINUTE_MS as f64) as DurationMs;
            Windows::pre_warmed(pw, ka)
        };
        self.counts.histogram += 1;
        self.last_decision = DecisionKind::Histogram;
        Some(windows)
    }
}

/// Complete serializable state of a [`HybridPolicy`], excluding the
/// configuration (which the restoring side must already hold — a
/// snapshot is only meaningful under the policy that produced it).
///
/// Restoring via [`HybridPolicy::from_snapshot`] is exact: the restored
/// policy emits bit-identical decisions to one that observed the
/// original idle-time stream, because every decision input — histogram
/// bins, out-of-bounds count, the capped ARIMA history — is captured.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridSnapshot {
    /// Raw histogram bin counts.
    pub bins: Vec<u32>,
    /// Out-of-bounds recordings.
    pub oob_count: u64,
    /// Retained idle times in minutes (most recent last), for ARIMA.
    pub history: Vec<f64>,
    /// Decision counters so far.
    pub counts: DecisionCounts,
    /// The branch that served the most recent decision.
    pub last_decision: DecisionKind,
}

impl HybridPolicy {
    /// Captures the policy's complete mutable state.
    pub fn snapshot(&self) -> HybridSnapshot {
        HybridSnapshot {
            bins: self.hist.bins().to_vec(),
            oob_count: self.hist.oob_count(),
            history: self.history.iter().copied().collect(),
            counts: self.counts,
            last_decision: self.last_decision,
        }
    }

    /// Rebuilds a policy from a snapshot taken under the same
    /// configuration.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot's histogram geometry or history length
    /// does not fit `config`.
    pub fn from_snapshot(config: HybridConfig, snap: HybridSnapshot) -> Result<Self, String> {
        Self::from_snapshot_with_config(Arc::new(config), snap)
    }

    /// [`HybridPolicy::from_snapshot`] under a configuration shared with
    /// other apps.
    ///
    /// # Errors
    ///
    /// As [`HybridPolicy::from_snapshot`].
    pub fn from_snapshot_with_config(
        config: Arc<HybridConfig>,
        snap: HybridSnapshot,
    ) -> Result<Self, String> {
        let width = config.bin_width_minutes.max(1);
        let expected_bins = (config.range_minutes / width).max(1);
        if snap.bins.len() != expected_bins {
            return Err(format!(
                "snapshot has {} bins but config expects {expected_bins}",
                snap.bins.len()
            ));
        }
        if snap.history.len() > config.history_cap {
            return Err(format!(
                "snapshot history ({}) exceeds config cap ({})",
                snap.history.len(),
                config.history_cap
            ));
        }
        let hist = RangeHistogram::from_parts(width as u64, snap.bins, snap.oob_count);
        Ok(Self {
            config,
            hist,
            history: snap.history.into(),
            counts: snap.counts,
            last_decision: snap.last_decision,
        })
    }
}

impl AppPolicy for HybridPolicy {
    fn on_invocation(&mut self, idle_time_ms: Option<DurationMs>) -> Windows {
        // Update the IT distribution (Figure 10, first box).
        if let Some(it) = idle_time_ms {
            self.hist.record(it / MINUTE_MS);
            let minutes = it as f64 / MINUTE_MS as f64;
            if self.history.len() == self.config.history_cap {
                self.history.pop_front();
            }
            self.history.push_back(minutes);
        }

        // Not enough data yet: be conservative.
        if self.hist.total_count() < self.config.min_samples {
            return self.standard_keep_alive();
        }

        // Too many OOB ITs → time-series forecast (or conservative
        // fallback when ARIMA is disabled or unusable).
        if self.hist.oob_fraction() > self.config.oob_threshold {
            if self.config.use_arima {
                if let Some(w) = self.arima_windows() {
                    self.counts.arima += 1;
                    self.last_decision = DecisionKind::Arima;
                    return w;
                }
            }
            return self.standard_keep_alive();
        }

        // Histogram representative? (CV of bin counts, Figure 18.)
        if self.hist.bin_count_cv() < self.config.cv_threshold {
            return self.standard_keep_alive();
        }

        match self.histogram_windows() {
            Some(w) => w,
            None => self.standard_keep_alive(),
        }
    }

    fn last_decision(&self) -> DecisionKind {
        self.last_decision
    }

    fn name(&self) -> String {
        self.config.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: DurationMs = MINUTE_MS;

    fn default_policy() -> HybridPolicy {
        HybridConfig::default().new_policy()
    }

    #[test]
    fn first_invocations_use_standard_keep_alive() {
        let mut p = default_policy();
        let w = p.on_invocation(None);
        assert_eq!(w, Windows::keep_loaded(240 * MIN));
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        // Still learning below min_samples.
        for _ in 0..3 {
            let w = p.on_invocation(Some(10 * MIN));
            assert_eq!(w, Windows::keep_loaded(240 * MIN));
        }
    }

    #[test]
    fn concentrated_pattern_switches_to_histogram() {
        let mut p = default_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..20 {
            last = p.on_invocation(Some(10 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // All ITs in bin 10: head = 10 (floor), tail = 11 (ceil).
        // pre-warm = 10 × 0.9 = 9 min; keep-alive = 11×1.1 − 9 = 3.1 min.
        assert_eq!(last.pre_warm_ms, 9 * MIN);
        assert_eq!(last.keep_alive_ms, (3.1 * MIN as f64) as u64);
        // The true IT (10 min) falls inside the loaded window.
        assert!(last.is_warm_at(10 * MIN));
    }

    #[test]
    fn head_bin_zero_disables_unloading() {
        let mut p = default_policy();
        p.on_invocation(None);
        // ITs under one minute land in bin 0.
        let mut last = Windows::keep_loaded(0);
        for _ in 0..20 {
            last = p.on_invocation(Some(30_000));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        assert_eq!(last.pre_warm_ms, 0);
        // Tail = bin 0 upper edge = 1 minute, ×1.1.
        assert_eq!(last.keep_alive_ms, (1.1 * MIN as f64) as u64);
    }

    #[test]
    fn spread_pattern_falls_back_to_standard() {
        // ITs spread uniformly over many bins: CV of bin counts < 2.
        let mut p = default_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for i in 0..240u64 {
            last = p.on_invocation(Some(((i * 7919) % 239 + 1) * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        assert_eq!(last, Windows::keep_loaded(240 * MIN));
        // Early decisions may use the sparse histogram (few samples in
        // distinct bins have a high CV); once the spread accumulates the
        // CV drops below threshold and the bulk must be conservative.
        assert!(
            p.decisions().standard > 150,
            "standard decisions: {:?}",
            p.decisions()
        );
    }

    #[test]
    fn oob_heavy_app_uses_arima() {
        let mut p = default_policy();
        p.on_invocation(None);
        // Idle times ~300 minutes — past the 240-minute range.
        let mut last = Windows::keep_loaded(0);
        for i in 0..12u64 {
            last = p.on_invocation(Some((300 + (i % 3)) * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Arima);
        assert!(p.decisions().arima > 0);
        // Forecast ≈ 300 min ⇒ pre-warm ≈ 255 min, keep-alive ≈ 90 min.
        let pw_min = last.pre_warm_ms as f64 / MIN as f64;
        let ka_min = last.keep_alive_ms as f64 / MIN as f64;
        assert!((230.0..280.0).contains(&pw_min), "pre-warm {pw_min}");
        assert!((60.0..120.0).contains(&ka_min), "keep-alive {ka_min}");
        // The true IT is warm under these windows.
        assert!(last.is_warm_at(300 * MIN));
    }

    #[test]
    fn oob_heavy_without_arima_stays_conservative() {
        let mut p = HybridConfig::default().without_arima().new_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..12 {
            last = p.on_invocation(Some(300 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::StandardKeepAlive);
        assert_eq!(last, Windows::keep_loaded(240 * MIN));
        assert_eq!(p.decisions().arima, 0);
        // 300-minute idle times are cold under a 240-minute keep-alive.
        assert!(!last.is_warm_at(300 * MIN));
    }

    #[test]
    fn paper_example_five_hour_forecast_margins() {
        // §4.2: "if the predicted IT is 5 hours, we set the pre-warming
        // window to 4.25 hours and the keep-alive window to 1.5 hours".
        let mut p = default_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..16 {
            last = p.on_invocation(Some(300 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Arima);
        assert_eq!(last.pre_warm_ms, 255 * MIN); // 4.25 h.
        assert_eq!(last.keep_alive_ms, 90 * MIN); // 1.5 h.
    }

    #[test]
    fn regime_change_reverts_to_standard_then_relearn() {
        let mut p = default_policy();
        p.on_invocation(None);
        for _ in 0..30 {
            p.on_invocation(Some(10 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // Shift to a new regime: the histogram spreads, CV drops slowly;
        // eventually mass concentrates at 60 and the histogram is used
        // with the new head/tail.
        let mut last = Windows::keep_loaded(0);
        for _ in 0..200 {
            last = p.on_invocation(Some(60 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // Tail now covers the 60-minute idle time.
        assert!(last.is_warm_at(60 * MIN));
    }

    #[test]
    fn cutoff_configuration_changes_windows() {
        // Two IT modes: 10 min (95%) and 100 min (5%).
        let run = |cfg: HybridConfig| {
            let mut p = cfg.new_policy();
            p.on_invocation(None);
            let mut last = Windows::keep_loaded(0);
            for i in 0..100u64 {
                let it = if i % 20 == 19 { 100 } else { 10 };
                last = p.on_invocation(Some(it * MIN));
            }
            last
        };
        let wide = run(HybridConfig::default().with_cutoffs(0.0, 100.0));
        let narrow = run(HybridConfig::default().with_cutoffs(5.0, 95.0));
        // Narrow cutoffs exclude the 100-minute outliers: the loaded
        // interval is much shorter (less wasted memory, Figure 16).
        assert!(narrow.keep_alive_ms < wide.keep_alive_ms);
    }

    #[test]
    fn cv_zero_always_trusts_histogram() {
        let mut p = HybridConfig::default().with_cv_threshold(0.0).new_policy();
        p.on_invocation(None);
        // Even a widely spread histogram is "representative" at CV 0.
        let mut last = Windows::keep_loaded(0);
        for i in 0..240u64 {
            last = p.on_invocation(Some(((i * 7919) % 239 + 1) * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        assert!(last.pre_warm_ms > 0);
    }

    #[test]
    fn no_pre_warming_variant_keeps_loaded() {
        let mut p = HybridConfig::default().without_pre_warming().new_policy();
        p.on_invocation(None);
        let mut last = Windows::keep_loaded(0);
        for _ in 0..30 {
            last = p.on_invocation(Some(10 * MIN));
        }
        assert_eq!(p.last_decision(), DecisionKind::Histogram);
        // No pre-warming: stays loaded until the tail (11 min × 1.1).
        assert_eq!(last.pre_warm_ms, 0);
        assert_eq!(last.keep_alive_ms, (12.1 * MIN as f64) as u64);
    }

    #[test]
    fn decision_counts_add_up() {
        let mut p = default_policy();
        p.on_invocation(None);
        for i in 0..50u64 {
            p.on_invocation(Some((i % 12) * MIN));
        }
        let c = p.decisions();
        assert_eq!(c.total(), 51);
    }

    #[test]
    fn label_encodes_configuration() {
        assert_eq!(HybridConfig::default().label(), "hybrid-4h[5,99]cv2");
        assert_eq!(
            HybridConfig::with_range_hours(2).without_arima().label(),
            "hybrid-2h[5,99]cv2-noarima"
        );
    }

    #[test]
    fn snapshot_restore_is_exact_mid_stream() {
        // Feed a mixed stream, snapshot mid-way, and check the restored
        // policy's subsequent decisions are bit-identical to the
        // uninterrupted original — including the ARIMA branch, whose
        // inputs (the capped history) are part of the snapshot.
        let its: Vec<DurationMs> = (0..60)
            .map(|i| match i % 5 {
                0 => 10 * MIN,
                1 => 11 * MIN,
                2 => 300 * MIN,
                3 => 10 * MIN,
                _ => 295 * MIN,
            })
            .collect();

        let mut original = default_policy();
        original.on_invocation(None);
        for &it in &its[..30] {
            original.on_invocation(Some(it));
        }

        let snap = original.snapshot();
        let mut restored =
            HybridPolicy::from_snapshot(HybridConfig::default(), snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.last_decision(), original.last_decision());
        assert_eq!(restored.decisions(), original.decisions());

        for &it in &its[30..] {
            let a = original.on_invocation(Some(it));
            let b = restored.on_invocation(Some(it));
            assert_eq!(a, b, "diverged at idle time {it}");
            assert_eq!(original.last_decision(), restored.last_decision());
        }
    }

    #[test]
    fn snapshot_restore_rejects_wrong_geometry() {
        let mut p = default_policy();
        p.on_invocation(None);
        let snap = p.snapshot();
        let err = HybridPolicy::from_snapshot(HybridConfig::with_range_hours(1), snap);
        assert!(err.is_err());
    }

    #[test]
    fn history_capped() {
        let cfg = HybridConfig {
            history_cap: 8,
            ..HybridConfig::default()
        };
        let mut p = cfg.new_policy();
        p.on_invocation(None);
        for i in 0..50u64 {
            p.on_invocation(Some((300 + i) * MIN));
        }
        assert!(p.history.len() <= 8);
    }
}
