//! Observability-layer integration: the real telemetry pipeline must
//! record bit-identical counters across same-seed runs, and the
//! Prometheus exposition it produces must survive a full round trip
//! through the vendored parser.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use summit_repro::core::pipeline::run_telemetry;
use summit_repro::obs::expose::{parse_prometheus, write_prometheus};
use summit_repro::obs::registry::Registry;
use summit_repro::telemetry::stream::FaultConfig;

/// Counters are the determinism contract: for a fixed seed, two runs of
/// the full fault-injected pipeline must record the exact same values.
/// (`_seconds` histograms and wall-clock gauges are timing-dependent by
/// design and are deliberately outside this comparison.)
#[test]
fn same_seed_runs_record_identical_counters() {
    let faults = FaultConfig::light(7);
    let a = run_telemetry(2, 120.0, Some(faults));
    let b = run_telemetry(2, 120.0, Some(faults));

    assert!(!a.obs.counters.is_empty());
    assert_eq!(a.obs.counters, b.obs.counters);
    // The summary's count fields are deterministic; only the trailing
    // `wall=` segment is timing-dependent.
    let counts = |s: &str| s.split(" wall=").next().unwrap_or(s).to_string();
    assert_eq!(counts(&a.summary), counts(&b.summary));

    // The per-run snapshot covers every stage of this path.
    for stage in [
        "summit_core_run_telemetry_calls_total",
        "summit_core_engine_tick_calls_total",
        "summit_core_stream_consume_calls_total",
        "summit_core_stream_finish_calls_total",
        "summit_core_frames_offered_total",
        "summit_telemetry_windows_total",
    ] {
        assert!(
            a.obs.counter(stage).unwrap_or(0) > 0,
            "expected counter {stage} > 0"
        );
    }
}

/// A clean and a faulty run must diverge in the fault counters — the
/// registry actually measures the pipeline rather than replaying
/// constants.
#[test]
fn fault_injection_shows_up_in_counters() {
    let clean = run_telemetry(2, 120.0, None);
    let faulty = run_telemetry(2, 120.0, Some(FaultConfig::light(7)));

    let dropped = |r: &summit_repro::core::pipeline::TelemetryRun| {
        r.obs
            .counter("summit_telemetry_frames_dropped_total")
            .unwrap_or(0)
    };
    assert_eq!(dropped(&clean), 0);
    assert!(dropped(&faulty) > 0);
    assert_ne!(clean.obs.counters, faulty.obs.counters);
}

/// Worker-thread span attribution: when a pipeline stage — here the
/// engine tick's parallel node update — dispatches to pool workers,
/// their busy time must land in the stage-labelled histogram, not in
/// the `unstaged` bucket a worker with no propagated span context would
/// fall into.
#[test]
fn parallel_coarsen_attributes_busy_time_to_the_coarsen_stage() {
    let run = rayon::with_thread_count(2, || run_telemetry(2, 120.0, None));

    let tick = run
        .obs
        .histogram("summit_par_busy_core_engine_tick_seconds")
        .expect("parallel engine tick must record stage-labelled busy time");
    assert!(tick.count > 0);
    assert!(
        run.obs
            .histogram("summit_par_busy_unstaged_seconds")
            .is_none(),
        "no pool dispatch in this pipeline should lose its stage label"
    );
}

/// Exposition produced from a real pipeline run must parse back as
/// valid Prometheus text, with every counter surviving the round trip
/// and histogram bucket counts cumulative and capped by `_count`.
#[test]
fn prometheus_exposition_round_trips() {
    let run = run_telemetry(2, 120.0, None);

    // Rehydrate the per-run snapshot into a fresh registry so the text
    // covers exactly this run, then write and re-parse it.
    let registry = Registry::new();
    registry.absorb(&run.obs);
    let snapshot = registry.snapshot();

    let mut text = Vec::new();
    write_prometheus(&mut text, &snapshot).unwrap();
    let text = String::from_utf8(text).unwrap();
    let samples = parse_prometheus(&text).expect("exposition must be valid");

    for (name, value) in &snapshot.counters {
        let sample = samples
            .iter()
            .find(|s| &s.name == name)
            .unwrap_or_else(|| panic!("counter {name} missing from exposition"));
        assert_eq!(sample.value, *value as f64);
    }
    for (name, hist) in &snapshot.histograms {
        let count_name = format!("{name}_count");
        let count = samples.iter().find(|s| s.name == count_name).unwrap();
        assert_eq!(count.value, hist.count as f64);
        let mut last = 0.0;
        for s in samples
            .iter()
            .filter(|s| s.name == format!("{name}_bucket"))
        {
            assert!(s.le.is_some(), "bucket sample must carry an le label");
            assert!(s.value >= last, "bucket counts must be cumulative");
            last = s.value;
        }
        assert!(last <= hist.count as f64);
    }
}
