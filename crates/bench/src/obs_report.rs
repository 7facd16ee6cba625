//! Builds the machine-readable observability baseline (`BENCH_obs.json`).
//!
//! The report runs the default telemetry scenario end to end under a
//! private [`summit_obs`] registry — frame generation, fault injection,
//! coarsening, export — then drives every analysis kernel (FFT, KDE,
//! CDF, correlation) over the resulting cluster power series, so the
//! snapshot covers each instrumented pipeline stage with per-stage
//! durations (p50/p90/p99/max) and deterministic call/volume counters.

use summit_analysis::cdf::Ecdf;
use summit_analysis::correlation::CorrelationMatrix;
use summit_analysis::fft::amplitude_spectrum;
use summit_analysis::kde::{Bandwidth, Kde1d};
use summit_core::pipeline::run_telemetry;
use summit_obs::registry::Registry;
use summit_obs::trace::{span_stats, TraceClock, TraceCollector, TraceStats};
use summit_obs::Snapshot;
use summit_telemetry::cluster::cluster_power;
use summit_telemetry::export::write_cluster_power;
use summit_telemetry::window::PAPER_WINDOW_S;

/// Scenario knobs for the report run.
#[derive(Debug, Clone, Copy)]
pub struct ReportConfig {
    /// Cabinets simulated.
    pub cabinets: usize,
    /// Telemetry window (s).
    pub duration_s: f64,
}

impl Default for ReportConfig {
    fn default() -> Self {
        Self {
            cabinets: 4,
            duration_s: 120.0,
        }
    }
}

/// One observability baseline: the metric snapshot plus the trace
/// summary of the same run (virtual clock, so both are deterministic).
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Every counter, gauge and histogram the run recorded.
    pub snapshot: Snapshot,
    /// Per-stage self/child time and event accounting from the trace.
    pub trace: TraceStats,
}

/// Runs the default telemetry scenario plus the analysis kernels under
/// a fresh registry (and a virtual-clock trace collector) and returns
/// the resulting report.
pub fn build_report(config: &ReportConfig) -> ObsReport {
    let registry = Registry::new();
    let collector = TraceCollector::new(TraceClock::Virtual);
    {
        let _scope = registry.install();
        let _trace = collector.install();
        let run = run_telemetry(config.cabinets, config.duration_s, None);

        // Cluster aggregation + CSV export exercise the export stage.
        let rows = cluster_power(&run.windows_by_node);
        let mut sink = Vec::new();
        let _ = write_cluster_power(&mut sink, &rows);

        // Drive each analysis kernel over the measured power series.
        let values: Vec<f64> = rows.iter().map(|r| r.mean_inp).collect();
        let _ = amplitude_spectrum(&values, 1.0 / PAPER_WINDOW_S);
        let _ = Kde1d::fit(&values, Bandwidth::Silverman);
        let _ = Ecdf::new(&values);
        if values.len() >= 4 {
            let lagged: Vec<f64> = values.iter().skip(1).chain([&0.0]).copied().collect();
            let _ = CorrelationMatrix::compute(&[values.clone(), lagged], 0.05);
        }
    }
    ObsReport {
        snapshot: registry.snapshot(),
        trace: span_stats(&collector.snapshot()),
    }
}

/// Serializes a report to the `BENCH_obs.json` shape (`summit-obs/2`,
/// with the trace section filled in).
pub fn to_json(report: &ObsReport) -> String {
    let mut buf = Vec::new();
    // Writing into a Vec<u8> cannot fail.
    let _ =
        summit_obs::expose::write_json_with_trace(&mut buf, &report.snapshot, Some(&report.trace));
    String::from_utf8_lossy(&buf).into_owned()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn report_covers_every_pipeline_stage() {
        let report = build_report(&ReportConfig {
            cabinets: 1,
            duration_s: 60.0,
        });
        let snap = &report.snapshot;
        for counter in [
            "summit_core_run_telemetry_calls_total",
            "summit_core_engine_tick_calls_total",
            "summit_core_stream_consume_calls_total",
            "summit_core_stream_finish_calls_total",
            "summit_telemetry_export_calls_total",
            "summit_analysis_fft_calls_total",
            "summit_analysis_kde_fit_calls_total",
            "summit_analysis_cdf_build_calls_total",
            "summit_analysis_correlation_calls_total",
        ] {
            assert!(
                snap.counter(counter).is_some_and(|v| v > 0),
                "missing stage counter {counter}"
            );
        }
        let json = to_json(&report);
        assert!(json.contains("\"summit_core_run_telemetry_seconds\""));
        assert!(json.contains("\"schema\": \"summit-obs/2\""));
        // The trace section summarizes the same run's stage structure.
        assert!(json.contains("\"trace\": {"));
        assert!(json.contains("\"schema\": \"summit-trace/1\""));
        assert!(report.trace.events_total > 0);
        assert_eq!(report.trace.dropped_total, 0);
        assert!(report
            .trace
            .stages
            .iter()
            .any(|s| s.name == "summit_core_run_telemetry"));
    }
}
