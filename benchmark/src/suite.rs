//! `study-suite`: all 20 registry studies in paper order at the
//! `experiments` binary's smoke scale, each pass through a fresh scenario
//! cache. One op is one suite pass.

use std::sync::OnceLock;
use summit_core::cache::{ScenarioCache, HITS_COUNTER, MISSES_COUNTER};
use summit_core::experiments::registry::run_by_name;
use summit_core::experiments::REGISTRY;
use summit_core::json::Json;

use crate::trace::Tracer;
use crate::{derive_seed, Work};

/// The `experiments` binary's default (smoke) scale.
pub const SCALE: f64 = 0.05;

/// The part of a report that must repeat exactly from pass to pass:
/// everything before the wall-clock stage-timing table, minus the
/// wall-clock throughput line.
fn stable_part(report: &str) -> String {
    let head = report
        .split("== pipeline stage timings ==")
        .next()
        .unwrap_or_default();
    head.lines()
        .filter(|l| !l.contains("(wall clock)"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the suite; the first pass's reports are the reference.
pub struct Suite {
    overrides: Vec<Option<Json>>,
    reference: Vec<String>,
    last: Vec<Result<String, String>>,
    /// Scenario-cache hits and misses of the most recent pass.
    pub cache: (u64, u64),
}

impl Suite {
    /// A suite whose seeded studies all take one seed derived from
    /// `seed`. Sharing it, as the defaults do, keeps the studies sharing
    /// their cached scenarios.
    pub fn new(seed: u64) -> Self {
        // Seeds travel as JSON numbers, so keep them exact in f64.
        let study_seed = derive_seed(seed, 200) % 1_000_000;
        let overrides = REGISTRY
            .iter()
            .map(|exp| {
                exp.default_config(SCALE)
                    .get("seed")
                    .map(|_| Json::obj([("seed", Json::Num(study_seed as f64))]))
            })
            .collect();
        Self {
            overrides,
            reference: Vec::new(),
            last: Vec::new(),
            cache: (0, 0),
        }
    }
}

/// The span of each study (its per-layer metric without `_ms`), in
/// registry order.
fn span_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        REGISTRY
            .iter()
            .map(|e| format!("core.experiments.{}", e.name()))
            .collect()
    })
}

/// Every study's per-layer metric name, in registry order.
pub fn metric_names() -> Vec<String> {
    span_names().iter().map(|s| format!("{s}_ms")).collect()
}

fn cache_counters() -> (u64, u64) {
    let snap = summit_obs::current().snapshot();
    (
        snap.counter(HITS_COUNTER).unwrap_or(0),
        snap.counter(MISSES_COUNTER).unwrap_or(0),
    )
}

/// Setup, as timed for `setup_s`: one untimed pass, which also records
/// the reference reports.
pub fn setup(seed: u64) -> Result<Suite, String> {
    let mut s = Suite::new(seed);
    s.op(&mut Tracer::off());
    s.check()?;
    Ok(s)
}

impl Work for Suite {
    fn op(&mut self, tr: &mut Tracer) -> u64 {
        let before = cache_counters();
        let cache = ScenarioCache::new();
        self.last.clear();
        for ((exp, span), over) in REGISTRY.iter().zip(span_names()).zip(&self.overrides) {
            let report = tr.span(span.as_str(), || {
                run_by_name(&cache, exp.name(), SCALE, over.as_ref())
            });
            self.last.push(report.map_err(|e| e.to_string()));
        }
        tr.span("core.cache.drop", || drop(cache));
        let after = cache_counters();
        self.cache = (after.0 - before.0, after.1 - before.1);
        REGISTRY.len() as u64
    }

    fn check(&mut self) -> Result<(), String> {
        let mut reports = Vec::with_capacity(self.last.len());
        for (exp, r) in REGISTRY.iter().zip(self.last.drain(..)) {
            let report = r.map_err(|e| format!("{}: {e}", exp.name()))?;
            reports.push(stable_part(&report));
        }
        if self.reference.is_empty() {
            self.reference = reports;
            return Ok(());
        }
        for ((exp, got), want) in REGISTRY.iter().zip(&reports).zip(&self.reference) {
            if got != want {
                return Err(format!(
                    "{}: report differs from the first pass",
                    exp.name()
                ));
            }
        }
        Ok(())
    }
}
