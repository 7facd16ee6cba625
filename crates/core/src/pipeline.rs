//! Scenario presets and shared experiment plumbing.
//!
//! Three reusable paths feed the experiments, mirroring how the paper's
//! analyses divide:
//!
//! 1. **Population path** — the scaled 840k-job statistical year plus
//!    closed-form job statistics (Figures 5-10, 14; Table 4).
//! 2. **Dynamics path** — full time-domain engine runs at 1 Hz/10 s for
//!    edge, snapshot and thermal-response studies (Figures 4, 11, 12, 17).
//! 3. **Telemetry path** — one staged ODA pipeline under two drivers:
//!    [`run_telemetry`] inline, [`run_streaming`] threaded.

use crate::monitoring::{Alert, OpsConsole};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use summit_analysis::series::Series;
use summit_sim::engine::{Engine, EngineConfig, StepOptions, TickOutput};
use summit_sim::failures::{CabinetOutage, FailureModel};
use summit_sim::jobs::{JobGenerator, SyntheticJob};
use summit_sim::jobstats::{population_stats, JobStatsRow};
use summit_sim::power::PowerModel;
use summit_sim::spec;
use summit_telemetry::batch::FrameBatch;
use summit_telemetry::delivery::NodeDelivery;
use summit_telemetry::ingest::IngestPolicy;
use summit_telemetry::records::{NodeFrame, XidEvent};
use summit_telemetry::stream::{FaultConfig, IngestStats, InjectedFaults};
use summit_telemetry::window::{NodeWindow, StreamingCoarsener, PAPER_WINDOW_S};

/// The scaled statistical-year scenario.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PopulationScenario {
    /// Number of jobs to draw (paper year = 840,000).
    pub job_count: usize,
    /// Span of arrivals (paper year = 366 days).
    pub span_s: f64,
    /// Seed.
    pub seed: u64,
}

impl PopulationScenario {
    /// The paper year scaled by `scale` (job count scales, span stays a
    /// full year so seasonal structure is preserved).
    pub fn paper_year(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        Self {
            job_count: (840_000.0 * scale) as usize,
            span_s: spec::YEAR_S,
            seed: 2020,
        }
    }

    /// Generates the population.
    pub fn generate(&self) -> Vec<SyntheticJob> {
        let _obs = summit_obs::span("summit_core_population_generate");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = JobGenerator::new();
        let jobs = g.generate_population(&mut rng, self.job_count, 0.0, self.span_s);
        summit_obs::counter("summit_core_jobs_generated_total").inc_by(jobs.len() as u64);
        jobs
    }

    /// Generates the population together with its closed-form stats.
    pub fn generate_with_stats(&self) -> (Vec<JobStatsRow>, PowerModel) {
        let _obs = summit_obs::span("summit_core_population_stats");
        let pm = PowerModel::new(self.seed);
        let jobs = self.generate();
        (population_stats(&jobs, &pm), pm)
    }

    /// Generates the population artifact the scenario cache memoizes —
    /// the same rows as [`Self::generate_with_stats`], packaged with
    /// the power model.
    pub fn artifact(&self) -> PopulationArtifact {
        let (rows, power_model) = self.generate_with_stats();
        PopulationArtifact { rows, power_model }
    }
}

/// The cached form of a generated population: per-job stats rows (each
/// row carries its [`SyntheticJob`]) plus the power model they were
/// derived with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationArtifact {
    /// Per-job statistics in generation order.
    pub rows: Vec<JobStatsRow>,
    /// The (seeded) power model the stats were computed with.
    pub power_model: PowerModel,
}

/// The scaled failure-year scenario: paper-rate job traffic plus the
/// paper's XID failure model over `weeks` of observation. Shared by
/// Table 4, Figures 13-16 and the early-warning study, which is why the
/// scenario cache treats it as a first-class artifact.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FailureScenario {
    /// Observation span (weeks); 52+ reproduces the paper year.
    pub weeks: f64,
    /// Seed for both the job population and the failure draws.
    pub seed: u64,
}

impl FailureScenario {
    /// Observation span in seconds.
    pub fn span_s(&self) -> f64 {
        self.weeks * 7.0 * 86_400.0
    }

    /// Generates the job population and its failure log. The RNG
    /// sequence (jobs first, then failures, one seeded stream) matches
    /// the historical per-study generation exactly, so cached and
    /// fresh artifacts are bit-identical.
    pub fn generate(&self) -> FailureArtifact {
        let _obs = summit_obs::span("summit_core_failure_scenario");
        let span = self.span_s();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut gen = JobGenerator::new();
        let n_jobs = (840_000.0 * span / spec::YEAR_S) as usize;
        let jobs = gen.generate_population(&mut rng, n_jobs, 0.0, span);
        summit_obs::counter("summit_core_jobs_generated_total").inc_by(jobs.len() as u64);
        let model = FailureModel::paper();
        let events = model.generate(&mut rng, &jobs, spec::TOTAL_NODES, 0.0, span);
        FailureArtifact { jobs, events }
    }
}

/// The cached form of a generated failure year.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailureArtifact {
    /// The job population the failures were drawn over.
    pub jobs: Vec<SyntheticJob>,
    /// XID events in generation order.
    pub events: Vec<XidEvent>,
}

/// Builds the cluster power series over a window from a job population by
/// event sweep: each active job contributes its mean power above idle;
/// the total is floored at system idle and capped at compute capacity.
/// This is the coarse path behind the Figure 5 yearly trend.
pub fn cluster_power_sweep(rows: &[JobStatsRow], t0: f64, t1: f64, dt: f64) -> Series {
    assert!(t1 > t0 && dt > 0.0);
    let _obs = summit_obs::span("summit_core_cluster_power_sweep");
    let idle_w = spec::SYSTEM_IDLE_POWER_W;
    let cap_w = spec::TOTAL_NODES as f64 * spec::NODE_MAX_POWER_W;
    let n = ((t1 - t0) / dt).ceil() as usize;

    // Event sweep: delta at job begin/end.
    let mut events: Vec<(f64, f64)> = Vec::with_capacity(rows.len() * 2);
    for r in rows {
        let above_idle = (r.stats.mean_power_w
            - r.job.record.node_count as f64 * spec::NODE_IDLE_POWER_W)
            .max(0.0);
        events.push((r.job.record.begin_time, above_idle));
        events.push((r.job.record.end_time, -above_idle));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut values = vec![0.0f64; n];
    let mut level = 0.0;
    let mut e = 0;
    for (i, v) in values.iter_mut().enumerate() {
        let t = t0 + i as f64 * dt;
        while e < events.len() && events[e].0 <= t {
            level += events[e].1;
            e += 1;
        }
        *v = (idle_w + level).min(cap_w);
    }
    Series::new(t0, dt, values)
}

/// A completed time-domain engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicsRun {
    /// Per-tick outputs (summary level).
    pub ticks: Vec<TickOutput>,
    /// Tick interval (s).
    pub dt_s: f64,
}

impl DynamicsRun {
    fn series_of(&self, f: impl Fn(&TickOutput) -> f64) -> Series {
        let t0 = self.ticks.first().map_or(0.0, |o| o.t);
        Series::new(t0, self.dt_s, self.ticks.iter().map(f).collect())
    }

    /// Sensor-summed compute power series (W) — what the telemetry sees.
    pub fn power_series(&self) -> Series {
        self.series_of(|o| o.sensor_compute_power_w)
    }

    /// True compute power series (W).
    pub fn true_power_series(&self) -> Series {
        self.series_of(|o| o.true_compute_power_w)
    }

    /// PUE series.
    pub fn pue_series(&self) -> Series {
        self.series_of(|o| o.cep.pue())
    }

    /// Cluster GPU mean/max temperature series (°C).
    pub fn gpu_temp_mean_series(&self) -> Series {
        self.series_of(|o| o.gpu_temp_mean_c)
    }

    /// Max-GPU temperature series (°C).
    pub fn gpu_temp_max_series(&self) -> Series {
        self.series_of(|o| o.gpu_temp_max_c)
    }

    /// Cluster CPU mean temperature series (°C).
    pub fn cpu_temp_mean_series(&self) -> Series {
        self.series_of(|o| o.cpu_temp_mean_c)
    }

    /// Max-CPU temperature series (°C).
    pub fn cpu_temp_max_series(&self) -> Series {
        self.series_of(|o| o.cpu_temp_max_c)
    }

    /// MTW return temperature series (°C).
    pub fn mtw_return_series(&self) -> Series {
        self.series_of(|o| o.cep.mtw_return_c)
    }

    /// MTW supply temperature series (°C).
    pub fn mtw_supply_series(&self) -> Series {
        self.series_of(|o| o.cep.mtw_supply_c)
    }

    /// Tower cooling series (tons of refrigeration).
    pub fn tower_tons_series(&self) -> Series {
        self.series_of(|o| o.cep.tower_tons)
    }

    /// Chiller cooling series (tons of refrigeration).
    pub fn chiller_tons_series(&self) -> Series {
        self.series_of(|o| o.cep.chiller_tons)
    }
}

/// A staged burst: one job sized to produce a clean power edge.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Burst {
    /// Start offset from the run start (s).
    pub at_s: f64,
    /// Node count of the burst job.
    pub nodes: u32,
    /// Duration (s).
    pub duration_s: f64,
    /// Peak GPU utilization of the burst job.
    pub gpu_intensity: f64,
}

/// Runs the engine over `duration_s` with a staged burst schedule —
/// the controlled-workload path behind the Figure 11/12 edge snapshots.
/// `t0` positions the run in the year (e.g. summer for chiller activity).
pub fn run_burst_schedule(
    config: EngineConfig,
    t0: f64,
    duration_s: f64,
    bursts: &[Burst],
) -> DynamicsRun {
    let _obs = summit_obs::span("summit_core_run_burst_schedule");
    let dt = config.dt_s;
    let seed = config.seed;
    let mut engine = Engine::new(config, t0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB0057);
    let mut gen = JobGenerator::new();
    // Jobs cannot exceed the largest schedulable size (Table 3).
    let max_nodes = (engine.topology().node_count() as u32).min(spec::MAX_JOB_NODES);
    for b in bursts {
        let mut job = gen.generate_with_class(&mut rng, t0 + b.at_s, 5);
        job.record.node_count = b.nodes.min(max_nodes);
        // Re-derive class from the actual node count for consistency.
        job.record.class = spec::class_of_node_count(job.record.node_count);
        job.record.end_time = job.record.begin_time + b.duration_s;
        job.profile.gpu_intensity = b.gpu_intensity;
        job.profile.cpu_intensity = 0.35;
        job.profile.oscillation_depth = 0.05;
        job.profile.ramp_s = 15.0;
        job.profile.checkpoint_interval_s = 0.0;
        engine.scheduler().submit(job);
    }
    summit_obs::counter("summit_core_jobs_generated_total").inc_by(bursts.len() as u64);
    let n_ticks = (duration_s / dt).ceil() as usize;
    let ticks = engine.run(n_ticks);
    summit_obs::counter("summit_core_engine_ticks_total").inc_by(ticks.len() as u64);
    DynamicsRun { ticks, dt_s: dt }
}

/// Mid-summer timestamp (Jul 24, the start of the paper's summer
/// snapshot window).
pub fn summer_t0() -> f64 {
    // Jul 24 2020 = day-of-year 205 (leap year).
    205.0 * 86_400.0
}

/// Runs a small standard dynamics scenario (used by tests and the
/// quickstart example): a few bursts on a scaled floor at 1 Hz.
pub fn quick_dynamics(cabinets: usize, duration_s: f64) -> DynamicsRun {
    let _obs = summit_obs::span("summit_core_quick_dynamics");
    let config = EngineConfig::small(cabinets);
    let nodes = (cabinets * 18) as u32;
    let bursts = vec![
        Burst {
            at_s: 120.0,
            nodes: nodes / 2,
            duration_s: 300.0,
            gpu_intensity: 0.95,
        },
        Burst {
            at_s: 600.0,
            nodes,
            duration_s: 300.0,
            gpu_intensity: 0.95,
        },
    ];
    run_burst_schedule(config, summer_t0(), duration_s, &bursts)
}

/// A completed telemetry-path run: frames generated by the engine,
/// delivered through the (optionally faulty) simulated fabric in
/// arrival order, and coarsened fault-tolerantly — the data outputs of
/// a [`StreamingRun`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TelemetryRun {
    /// Coarsened 10 s windows per node.
    pub windows_by_node: Vec<Vec<NodeWindow>>,
    /// Ingest statistics, including the fault-tolerance health counters.
    pub stats: IngestStats,
    /// Faults the injector introduced (all zero for a clean run).
    pub injected: InjectedFaults,
    /// Per-run observability snapshot: every counter, gauge and stage
    /// timing the run recorded, isolated from other concurrent runs.
    pub obs: summit_obs::Snapshot,
    /// One-line run summary built from the registry (also printed).
    pub summary: String,
}

/// Builds the end-of-run summary line of pipeline entry point `entry`
/// from registry counters. All values except wall time are
/// deterministic for a fixed seed under the inline driver.
fn run_summary(entry: &str, snap: &summit_obs::Snapshot, wall_s: f64) -> String {
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    format!(
        "[obs] {entry}: jobs={} frames offered={} admitted={} dropped={} windows={} stalls={} wall={:.3}s",
        c("summit_core_jobs_generated_total"),
        c("summit_core_frames_offered_total"),
        c("summit_telemetry_frames_accepted_total"),
        c("summit_telemetry_frames_dropped_total"),
        c("summit_telemetry_windows_total"),
        c(STALLS_COUNTER),
        wall_s,
    )
}

/// Per-node frame→window→alert latency accounting, mirroring the
/// pipeline's coarsener ([`PAPER_WINDOW_S`] windows, default
/// [`IngestPolicy`] horizon). An alert can fire no earlier than its
/// window closes, which happens once the node's watermark (max
/// `t_sample` seen) passes the window's end plus the horizon. Fed the
/// node's delivered frames in order, the tracker records
/// `t_close - window_start` per window, `t_close` being the ingest time
/// of the frame that closed it; [`Self::finish`] closes what is still
/// open at the node's last ingest time. Only simulated timestamps enter.
struct AlertLatencyTracker {
    horizon_s: f64,
    open: std::collections::BTreeSet<i64>,
    wm: f64,
    last_ingest: f64,
    closed: Vec<f64>,
}

impl Default for AlertLatencyTracker {
    fn default() -> Self {
        Self {
            horizon_s: IngestPolicy::default().lateness_horizon_s,
            open: std::collections::BTreeSet::new(),
            wm: f64::NEG_INFINITY,
            last_ingest: f64::NEG_INFINITY,
            closed: Vec::new(),
        }
    }
}

impl AlertLatencyTracker {
    /// Folds in one delivered frame, closing every window its
    /// watermark advance pushes past the horizon.
    fn observe(&mut self, f: &NodeFrame) {
        self.wm = self.wm.max(f.t_sample);
        self.last_ingest = self.last_ingest.max(f.t_ingest);
        let cutoff = self.wm - self.horizon_s;
        while let Some(&k) = self.open.first() {
            let start = k as f64 * PAPER_WINDOW_S;
            if start + PAPER_WINDOW_S <= cutoff {
                self.open.remove(&k);
                self.closed.push((f.t_ingest - start).max(0.0));
            } else {
                break;
            }
        }
        let key = (f.t_sample / PAPER_WINDOW_S).floor() as i64;
        // A frame past the horizon would be dropped as late by the
        // ingester; don't let it re-open a closed window.
        if key as f64 * PAPER_WINDOW_S + PAPER_WINDOW_S > cutoff {
            self.open.insert(key);
        }
    }

    /// Closes every still-open window at the node's last ingest time.
    fn finish(&mut self) {
        if self.last_ingest.is_finite() {
            for k in std::mem::take(&mut self.open) {
                let start = k as f64 * PAPER_WINDOW_S;
                self.closed.push((self.last_ingest - start).max(0.0));
            }
        }
    }
}

/// One node's stages downstream of the fabric: frame→alert latency and
/// ingest statistics, accumulated per node so the merge in node-index
/// order fixes the float association.
#[derive(Default)]
struct NodeIngest {
    latency: AlertLatencyTracker,
    stats: IngestStats,
}

impl NodeIngest {
    /// Runs the frames the fabric delivered for node `idx` through the
    /// latency tracker, the ingest statistics and the coarsener, leaving
    /// `delivered` empty.
    fn ingest(
        &mut self,
        idx: usize,
        delivered: &mut Vec<NodeFrame>,
        coarsener: &mut StreamingCoarsener,
    ) {
        for df in delivered.drain(..) {
            self.latency.observe(&df);
            self.stats.observe(&df);
            if coarsener.push(idx, &df).is_err() {
                summit_obs::counter(REJECTED_COUNTER).inc();
            }
        }
    }
}

/// The live view of a run: the console, the windows it has seen and
/// the per-node output they are routed into.
struct LiveOutput {
    console: OpsConsole,
    windows_by_node: Vec<Vec<NodeWindow>>,
    live_windows: u64,
}

impl LiveOutput {
    /// Shows closed windows to the console and appends them to their
    /// nodes' output.
    fn publish(&mut self, closed: Vec<NodeWindow>) {
        if closed.is_empty() {
            return;
        }
        self.live_windows += closed.len() as u64;
        self.console.observe_windows(&closed);
        for w in closed {
            let idx = w.node.index();
            if self.windows_by_node.len() <= idx {
                self.windows_by_node.resize_with(idx + 1, Vec::new);
            }
            self.windows_by_node[idx].push(w);
        }
    }
}

/// Tick batches the threaded driver's channel holds at most.
const CHANNEL_CAPACITY: usize = 8;
/// Engine ticks per batch handed from the producer to the consumer.
const TICKS_PER_BATCH: usize = 16;
/// Counter of frames the coarsener refused, one per counted drop.
const REJECTED_COUNTER: &str = "summit_core_stream_frames_rejected_total";
/// Counter of producer stalls on a full channel.
const STALLS_COUNTER: &str = "summit_core_stream_backpressure_stalls_total";

/// Runs the telemetry path end to end on a scaled floor: engine frames
/// at 1 Hz, per-node delivery through the propagation-delay model (plus
/// the given fault profile, if any), then fault-tolerant 10 s
/// coarsening. Even a clean run delivers frames in arrival order, so
/// the coarsener's reorder buffer is always exercised. This is the
/// inline driver of the pipeline [`run_streaming`] drives threaded:
/// every stage runs on the caller's thread.
///
/// The run installs a private [`summit_obs`] registry so its metrics
/// are isolated per run; the resulting [`TelemetryRun::obs`] snapshot
/// is also absorbed into whatever registry was current at the call
/// site (the process-global one by default), and a one-line summary is
/// printed.
pub fn run_telemetry(
    cabinets: usize,
    duration_s: f64,
    faults: Option<FaultConfig>,
) -> TelemetryRun {
    let run = run_pipeline(
        StreamConfig::new(cabinets, duration_s, faults),
        Driver::Inline,
        || summit_obs::span("summit_core_run_telemetry"),
    );
    TelemetryRun {
        windows_by_node: run.windows_by_node,
        stats: run.stats,
        injected: run.injected,
        obs: run.obs,
        summary: run.summary,
    }
}

/// Configuration of one telemetry pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Scaled floor size (18 nodes per cabinet).
    pub cabinets: usize,
    /// Simulated run length (s).
    pub duration_s: f64,
    /// Fault profile for the simulated fabric (`None` = clean).
    pub faults: Option<FaultConfig>,
    /// Scheduled whole-cabinet outage bursts (simulated seconds).
    pub cabinet_outages: Vec<CabinetOutage>,
}

impl StreamConfig {
    /// A run with no cabinet outages.
    pub fn new(cabinets: usize, duration_s: f64, faults: Option<FaultConfig>) -> Self {
        Self {
            cabinets,
            duration_s,
            faults,
            cabinet_outages: Vec::new(),
        }
    }
}

/// A completed streaming telemetry run. The data outputs
/// (`windows_by_node`, `stats`, `injected`) are bit-identical to the
/// [`run_telemetry`] batch replay at the same seed; the streaming-only
/// fields report live behaviour (alerts as they fired, backpressure,
/// peak residency).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingRun {
    /// Coarsened 10 s windows per node (bit-identical to batch).
    pub windows_by_node: Vec<Vec<NodeWindow>>,
    /// Ingest statistics (bit-identical to batch).
    pub stats: IngestStats,
    /// Faults injected by the simulated fabric (identical to batch).
    pub injected: InjectedFaults,
    /// Operations-console alerts in the order they fired.
    pub alerts: Vec<Alert>,
    /// Closed windows the live console view observed.
    pub live_windows: u64,
    /// Peak frames resident in the pipeline (reorder heaps, swap holds
    /// and coarsener buffers) — bounded by the fabric delay and the
    /// lateness horizon, not the run length.
    pub peak_resident_frames: usize,
    /// Peak tick batches in the channel (≤ capacity).
    pub peak_channel_depth: usize,
    /// Producer stalls on a full channel (blocking backpressure).
    pub backpressure_stalls: u64,
    /// Per-run observability snapshot.
    pub obs: summit_obs::Snapshot,
    /// One-line run summary (also printed).
    pub summary: String,
}

/// How a staged pipeline's producer hands its batches to the consumer.
/// Both drivers run the same two closures, so a pipeline's outputs
/// cannot depend on which one drove it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Driver {
    /// Both on the caller's thread: `send` runs the consumer on the batch.
    Inline,
    /// [`stream_batches`]: the producer on its own thread.
    Threaded,
}

impl Driver {
    /// Runs `produce`, handing every batch it sends to `consume` with
    /// the channel depth after the hand-over (0 inline). `capacity`
    /// bounds the threaded driver's channel.
    pub(crate) fn run<T, R, P, C>(self, capacity: usize, produce: P, consume: C) -> R
    where
        T: Send,
        R: Send,
        P: FnOnce(&dyn Fn(T) -> bool) -> R + Send,
        C: FnMut(T, usize),
    {
        match self {
            Driver::Threaded => stream_batches(capacity, produce, consume),
            Driver::Inline => {
                let consume = std::cell::RefCell::new(consume);
                produce(&|batch| {
                    (consume.borrow_mut())(batch, 0);
                    true
                })
            }
        }
    }
}

/// Runs `produce` on a dedicated producer thread shipping batches over
/// a bounded channel to the inline `consume` closure. The producer's
/// `send` callback returns `false` once the consumer is gone; a full
/// channel counts a `summit_core_stream_backpressure_stalls_total`
/// stall, then blocks until a slot frees — backpressure, never loss.
/// `consume` receives each batch with the channel depth observed right
/// after the receive. The producer thread inherits the caller's
/// observability registry; under a wall-clock trace it also joins the
/// trace as a worker (virtual-clock traces decline workers so traces
/// stay byte-stable). A panic on the producer thread is re-raised on the
/// caller once the consumer has drained what was sent, so a dead
/// producer fails the run instead of silently shortening it.
pub fn stream_batches<T, R, P, C>(capacity: usize, produce: P, mut consume: C) -> R
where
    T: Send,
    R: Send,
    P: FnOnce(&dyn Fn(T) -> bool) -> R + Send,
    C: FnMut(T, usize),
{
    let registry = summit_obs::current();
    let trace = summit_obs::trace::current();
    let (tx, rx) = crossbeam::channel::bounded::<T>(capacity.max(1));
    std::thread::scope(|s| {
        let producer = s.spawn(move || {
            let _install = registry.install();
            let _worker = trace.as_ref().and_then(|t| t.install_worker());
            let send = |batch: T| -> bool {
                match tx.try_send(batch) {
                    Ok(()) => true,
                    Err(crossbeam::channel::TrySendError::Full(batch)) => {
                        summit_obs::counter(STALLS_COUNTER).inc();
                        tx.send(batch).is_ok()
                    }
                    Err(crossbeam::channel::TrySendError::Disconnected(_)) => false,
                }
            };
            produce(&send)
        });
        while let Ok(batch) = rx.recv() {
            let depth = rx.len();
            consume(batch, depth);
        }
        producer
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    })
}

/// Runs the telemetry path as a long-running online pipeline: a
/// producer thread steps the engine and ships tick batches over a
/// bounded channel (blocking when the consumer lags — backpressure,
/// not loss), while the consumer routes each node's frames through the
/// incremental fault fabric ([`NodeDelivery`]), the incremental
/// coarsener ([`StreamingCoarsener`]), live frame→alert latency
/// accounting and the continuously-updating [`OpsConsole`].
///
/// **Determinism:** this is the threaded driver of the pipeline that
/// [`run_telemetry`] drives inline, so windows, ingest stats,
/// injected-fault counts and the p50/p99 alert-latency gauges match
/// [`run_telemetry`] to the bit at the same seed. Under a virtual-clock
/// trace the producer records no trace events, keeping traces
/// byte-stable; under a wall clock it joins the trace.
///
/// **Bounded memory:** resident state is the reorder heaps (bounded by
/// the fabric's maximum delay), one held frame per node, the
/// coarsener's in-horizon pending buffers and at most 8 tick batches in
/// the channel — independent of `duration_s`.
pub fn run_streaming(config: StreamConfig) -> StreamingRun {
    run_pipeline(config, Driver::Threaded, || {
        summit_obs::span("summit_core_run_streaming")
    })
}

/// The one telemetry pipeline: engine → [`NodeDelivery`] →
/// [`StreamingCoarsener`] → frame→alert latency → [`OpsConsole`]. The
/// producer steps the engine in batches of [`TICKS_PER_BATCH`] ticks;
/// the consumer runs each batch through the per-node stages; the finish
/// block drains the fabric and closes the remaining windows. `driver`
/// decides only where the producer runs; `open_span` opens the entry
/// point's own span once the run's private registry is installed.
fn run_pipeline(
    config: StreamConfig,
    driver: Driver,
    open_span: impl FnOnce() -> summit_obs::SpanGuard,
) -> StreamingRun {
    let entry = match driver {
        Driver::Inline => "run_telemetry",
        Driver::Threaded => "run_streaming",
    };
    let parent = summit_obs::current();
    let registry = summit_obs::registry::Registry::new();
    let (mut run, wall_s) = {
        let _scope = registry.install();
        let run_span = open_span();

        let mut engine_config = EngineConfig::small(config.cabinets);
        engine_config.cabinet_outages = config.cabinet_outages;
        let n_ticks = (config.duration_s / engine_config.dt_s).ceil() as usize;
        let fault_cfg = config.faults.unwrap_or_default();

        let mut deliveries: Vec<NodeDelivery> = Vec::new();
        let mut nodes: Vec<NodeIngest> = Vec::new();
        let mut coarsener = StreamingCoarsener::new(0, PAPER_WINDOW_S);
        let mut out = LiveOutput {
            console: OpsConsole::with_defaults(),
            windows_by_node: Vec::new(),
            live_windows: 0,
        };
        let mut scratch: Vec<NodeFrame> = Vec::new();
        let mut offered = 0u64;
        let mut peak_resident = 0usize;
        let mut peak_depth = 0usize;

        let jobs = driver.run(
            CHANNEL_CAPACITY,
            move |send: &dyn Fn(Vec<(TickOutput, FrameBatch)>) -> bool| {
                let opts = StepOptions {
                    frames: true,
                    ..StepOptions::default()
                };
                let mut engine = Engine::new(engine_config, 0.0);
                let node_count = engine.topology().node_count();
                let mut sent = 0usize;
                while sent < n_ticks {
                    let n = TICKS_PER_BATCH.min(n_ticks - sent);
                    let mut batch = Vec::with_capacity(n);
                    for _ in 0..n {
                        let _tick_obs = summit_obs::span("summit_core_engine_tick");
                        // Ownership of each tick's columns crosses the
                        // channel, so the buffer is per tick here; the
                        // engine still writes columns, not row frames.
                        let mut frames = FrameBatch::with_capacity(node_count);
                        let tick = engine.step_batch(&opts, &mut frames);
                        batch.push((tick, frames));
                    }
                    sent += n;
                    if !send(batch) {
                        break;
                    }
                }
                let sched = engine.scheduler_ref();
                sched.running().len() + sched.completed().len()
            },
            |batch, depth| {
                // `depth + 1` counts the just-received batch back in,
                // but the producer may already have refilled its slot
                // by the time `depth` was read; the channel itself
                // never holds more than its capacity, so clamp.
                peak_depth = peak_depth.max((depth + 1).min(CHANNEL_CAPACITY));
                summit_obs::gauge("summit_core_stream_channel_depth").set(depth as f64);
                let _obs = summit_obs::span("summit_core_stream_consume");
                for (tick, frames) in batch {
                    out.console.observe(&tick);
                    offered += frames.len() as u64;
                    for row in 0..frames.len() {
                        let f = frames.read_frame(row);
                        let idx = f.node.index();
                        if deliveries.len() <= idx {
                            deliveries.resize_with(idx + 1, || NodeDelivery::new(fault_cfg));
                            nodes.resize_with(idx + 1, NodeIngest::default);
                        }
                        deliveries[idx].offer(f, &mut scratch);
                        nodes[idx].ingest(idx, &mut scratch, &mut coarsener);
                    }
                }
                out.publish(coarsener.drain_completed());
                let resident = coarsener.resident_frames()
                    + deliveries.iter().map(NodeDelivery::resident).sum::<usize>();
                peak_resident = peak_resident.max(resident);
            },
        );
        summit_obs::counter("summit_core_engine_ticks_total").inc_by(n_ticks as u64);
        summit_obs::counter("summit_core_jobs_generated_total").inc_by(jobs as u64);
        summit_obs::counter("summit_core_frames_offered_total").inc_by(offered);

        // Tail: drain the reorder heaps and swap holds, then close the
        // remaining windows — per node, in node-index order, the
        // canonical association of the float stats.
        let mut injected = InjectedFaults::default();
        let mut stats = IngestStats::default();
        let mut latencies: Vec<f64> = Vec::new();
        {
            let _obs = summit_obs::span("summit_core_stream_finish");
            for (idx, (delivery, mut node)) in deliveries.into_iter().zip(nodes).enumerate() {
                injected.merge(&delivery.finish(&mut scratch));
                node.ingest(idx, &mut scratch, &mut coarsener);
                node.latency.finish();
                latencies.append(&mut node.latency.closed);
                stats.merge(&node.stats);
            }
            let (tail_windows, health) = coarsener.finish_with_health();
            tail_windows.into_iter().for_each(|ws| out.publish(ws));
            out.console.finish_windows();
            stats.health = health;
        }
        stats.publish_obs();
        let windows: usize = out.windows_by_node.iter().map(Vec::len).sum();
        summit_obs::counter("summit_telemetry_windows_total").inc_by(windows as u64);
        summit_obs::counter("summit_telemetry_frames_accepted_total").inc_by(stats.health.accepted);
        summit_obs::counter("summit_telemetry_frames_dropped_total").inc_by(stats.health.dropped());
        out.console.observe_ingest(&stats);

        {
            // SLO-style frame→alert latency: a histogram, p50/p99
            // gauges and (when a trace is live) counter tracks.
            let _obs = summit_obs::span("summit_core_alert_latency");
            latencies.sort_by(f64::total_cmp);
            let histogram = summit_obs::histogram("summit_core_frame_to_alert_latency_seconds");
            for &v in &latencies {
                histogram.observe(v);
            }
            let pct = |q: f64| {
                let idx = (latencies.len().saturating_sub(1) as f64 * q).round() as usize;
                latencies.get(idx).copied().unwrap_or(f64::NAN)
            };
            let (p50, p99) = (pct(0.50), pct(0.99));
            summit_obs::gauge("summit_core_frame_to_alert_p50_seconds").set(p50);
            summit_obs::gauge("summit_core_frame_to_alert_p99_seconds").set(p99);
            if let Some(tc) = summit_obs::trace::current() {
                // Simulated-time values: deterministic under any clock.
                tc.counter("summit_core_frame_to_alert_p50_seconds", p50);
                tc.counter("summit_core_frame_to_alert_p99_seconds", p99);
                tc.counter(
                    "summit_telemetry_ingest_mean_delay_seconds",
                    stats.mean_delay_s(),
                );
            }
        }

        summit_obs::gauge("summit_core_stream_peak_channel_depth").set(peak_depth as f64);
        summit_obs::gauge("summit_core_stream_peak_resident_frames").set(peak_resident as f64);
        let wall_s = run_span.elapsed_s();
        if wall_s > 0.0 {
            summit_obs::gauge("summit_core_frames_per_wall_second").set(offered as f64 / wall_s);
            summit_obs::gauge("summit_core_windows_per_wall_second").set(windows as f64 / wall_s);
            // Wall-derived rate: only meaningful (and only allowed —
            // byte-identity would break) under the wall clock.
            let wall_trace = summit_obs::trace::current()
                .filter(|tc| tc.clock() == summit_obs::trace::TraceClock::Wall);
            if let Some(tc) = wall_trace {
                tc.counter(
                    "summit_core_frames_per_wall_second",
                    offered as f64 / wall_s,
                );
            }
        }
        let run = StreamingRun {
            windows_by_node: out.windows_by_node,
            stats,
            injected,
            alerts: out.console.drain_alerts(),
            live_windows: out.live_windows,
            peak_resident_frames: peak_resident,
            peak_channel_depth: peak_depth,
            backpressure_stalls: summit_obs::counter(STALLS_COUNTER).get(),
            obs: summit_obs::Snapshot::default(),
            summary: String::new(),
        };
        (run, wall_s)
    };
    let obs = registry.snapshot();
    parent.absorb(&obs);
    run.summary = run_summary(entry, &obs, wall_s);
    println!("{}", run.summary);
    run.obs = obs;
    run
}

/// Collects per-step detailed outputs for one engine run with options.
pub fn run_detailed(
    config: EngineConfig,
    t0: f64,
    n_ticks: usize,
    opts: StepOptions,
) -> (Vec<TickOutput>, f64) {
    let _obs = summit_obs::span("summit_core_run_detailed");
    let dt = config.dt_s;
    let mut engine = Engine::new(config, t0);
    let ticks = (0..n_ticks).map(|_| engine.step_opts(&opts)).collect();
    summit_obs::counter("summit_core_engine_ticks_total").inc_by(n_ticks as u64);
    (ticks, dt)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    #[test]
    fn population_scenario_scales() {
        let s = PopulationScenario::paper_year(0.001);
        assert_eq!(s.job_count, 840);
        let jobs = s.generate();
        assert_eq!(jobs.len(), 840);
        assert!(jobs.iter().all(|j| j.record.begin_time < spec::YEAR_S));
    }

    #[test]
    fn sweep_power_within_physical_bounds() {
        let s = PopulationScenario::paper_year(0.002);
        let (rows, _) = s.generate_with_stats();
        let series = cluster_power_sweep(&rows, 0.0, 30.0 * 86400.0, 3600.0);
        for &v in series.values() {
            assert!(v >= spec::SYSTEM_IDLE_POWER_W - 1.0);
            assert!(v <= spec::TOTAL_NODES as f64 * spec::NODE_MAX_POWER_W + 1.0);
        }
        // With jobs running, power must exceed idle somewhere.
        assert!(series
            .values()
            .iter()
            .any(|&v| v > spec::SYSTEM_IDLE_POWER_W * 1.05));
    }

    #[test]
    fn burst_schedule_creates_power_swing() {
        let run = quick_dynamics(6, 1000.0);
        let p = run.power_series();
        let lo = p.values()[..100]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = p.values().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // 108 nodes swinging to near-peak: amplitude should exceed 80 kW.
        assert!(
            hi - lo > 80_000.0,
            "burst amplitude too small: {} -> {}",
            lo,
            hi
        );
        // Thermal and facility series come along.
        assert_eq!(run.pue_series().len(), p.len());
        assert!(run
            .gpu_temp_max_series()
            .values()
            .iter()
            .any(|v| v.is_finite()));
    }

    #[test]
    fn telemetry_run_clean_path_reorders_without_loss() {
        let run = run_telemetry(2, 60.0, None);
        assert_eq!(run.injected, InjectedFaults::default());
        let h = run.stats.health;
        assert_eq!(h.dropped(), 0, "clean fabric loses nothing");
        assert!(
            h.reordered > 0,
            "propagation delay must reorder some frames"
        );
        assert_eq!(h.offered(), run.stats.frames);
        assert_eq!(run.windows_by_node.len(), 36);
        assert!(run.windows_by_node.iter().all(|w| !w.is_empty()));
        assert!(run.stats.mean_delay_s() > 0.0 && run.stats.max_delay_s < 5.0);
    }

    #[test]
    fn telemetry_run_surfaces_injected_faults() {
        let faults = FaultConfig {
            drop_p: 0.05,
            duplicate_p: 0.05,
            delay_p: 0.10,
            reorder_p: 0.02,
            ..FaultConfig::default()
        };
        let run = run_telemetry(2, 120.0, Some(faults));
        let h = run.stats.health;
        // A duplicated delivery is deduped on arrival unless its copy
        // lands past the lateness horizon, in which case it is counted
        // late instead — either way every injected duplicate is accounted.
        assert!(h.duplicates > 0 && h.duplicates <= run.injected.duplicated);
        assert!(run.injected.duplicated - h.duplicates <= h.late_dropped);
        assert!(run.injected.dropped > 0);
        assert!(h.late_dropped > 0, "10 s extra delays exceed the horizon");
        assert_eq!(h.offered(), run.stats.frames);
        assert_eq!(h.wrong_node, 0);
        // The pipeline still produces a full window grid per node.
        assert!(run.windows_by_node.iter().all(|w| !w.is_empty()));
    }

    #[test]
    fn frame_to_alert_latency_closes_windows_at_the_horizon() {
        use summit_telemetry::ids::NodeId;
        // One node, 1 Hz frames with a constant 1 s propagation delay.
        let frames: Vec<NodeFrame> = (0..40)
            .map(|i| {
                let mut f = NodeFrame::empty(NodeId(0), i as f64);
                f.t_ingest = i as f64 + 1.0;
                f
            })
            .collect();
        // The paper's 10 s windows and the default 5 s horizon.
        let mut tracker = AlertLatencyTracker::default();
        for f in &frames {
            tracker.observe(f);
        }
        tracker.finish();
        let lat = tracker.closed;
        // Windows [0,10), [10,20), [20,30) close when the watermark
        // clears start + window + horizon: at t_sample = start + 15,
        // ingested one second later => latency = 16 s each. The last
        // window is still open at end of stream and closes at the final
        // ingest time (40 s) => latency = 10 s.
        assert_eq!(lat, vec![16.0, 16.0, 16.0, 10.0]);
    }

    #[test]
    fn frame_to_alert_gauges_are_recorded() {
        let registry = summit_obs::registry::Registry::new();
        let _scope = registry.install();
        let run = run_telemetry(2, 120.0, None);
        let h = run
            .obs
            .histogram("summit_core_frame_to_alert_latency_seconds")
            .expect("latency histogram present");
        assert!(h.count > 0);
        let p50 = run
            .obs
            .gauge("summit_core_frame_to_alert_p50_seconds")
            .expect("p50 gauge present");
        let p99 = run
            .obs
            .gauge("summit_core_frame_to_alert_p99_seconds")
            .expect("p99 gauge present");
        // The alert path cannot beat the window length, and the p-order
        // must hold.
        assert!(p50 >= PAPER_WINDOW_S, "p50 {p50} below window length");
        assert!(p99 >= p50);
        assert!(p99.is_finite());
    }

    fn assert_windows_bitwise_eq(a: &[Vec<NodeWindow>], b: &[Vec<NodeWindow>]) {
        assert_eq!(a.len(), b.len(), "node count");
        for (node, (wa, wb)) in a.iter().zip(b).enumerate() {
            assert_eq!(wa.len(), wb.len(), "window count for node {node}");
            for (x, y) in wa.iter().zip(wb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.window_start.to_bits(), y.window_start.to_bits());
                assert_eq!(x.stats.len(), y.stats.len());
                for (s, t) in x.stats.iter().zip(&y.stats) {
                    assert_eq!(s.count, t.count);
                    if s.count > 0 {
                        assert_eq!(s.min.to_bits(), t.min.to_bits());
                        assert_eq!(s.max.to_bits(), t.max.to_bits());
                        assert_eq!(s.mean.to_bits(), t.mean.to_bits());
                        assert_eq!(s.std.to_bits(), t.std.to_bits());
                    }
                }
            }
        }
    }

    fn assert_stream_matches_batch(cabinets: usize, duration_s: f64, faults: Option<FaultConfig>) {
        let batch = run_telemetry(cabinets, duration_s, faults);
        let stream = run_streaming(StreamConfig::new(cabinets, duration_s, faults));
        assert_windows_bitwise_eq(&stream.windows_by_node, &batch.windows_by_node);
        assert_eq!(stream.injected, batch.injected, "fault accounting");
        let (s, b) = (&stream.stats, &batch.stats);
        assert_eq!(s.frames, b.frames);
        assert_eq!(s.metrics, b.metrics);
        assert_eq!(s.t_first.to_bits(), b.t_first.to_bits());
        assert_eq!(s.t_last.to_bits(), b.t_last.to_bits());
        assert_eq!(s.total_delay_s.to_bits(), b.total_delay_s.to_bits());
        assert_eq!(s.max_delay_s.to_bits(), b.max_delay_s.to_bits());
        assert_eq!(s.health, b.health);
        for gauge in [
            "summit_core_frame_to_alert_p50_seconds",
            "summit_core_frame_to_alert_p99_seconds",
        ] {
            let sv = stream.obs.gauge(gauge).expect("stream gauge");
            let bv = batch.obs.gauge(gauge).expect("batch gauge");
            assert_eq!(sv.to_bits(), bv.to_bits(), "{gauge}");
        }
        // Deterministic counters agree too.
        for counter in [
            "summit_core_frames_offered_total",
            "summit_telemetry_windows_total",
            "summit_telemetry_frames_accepted_total",
            "summit_telemetry_frames_dropped_total",
        ] {
            assert_eq!(
                stream.obs.counter(counter),
                batch.obs.counter(counter),
                "{counter}"
            );
        }
        // Every rejected push is one counted drop, in both runs.
        for (obs, stats) in [(&stream.obs, &stream.stats), (&batch.obs, &batch.stats)] {
            let rejected = obs.counter(REJECTED_COUNTER).unwrap_or(0);
            assert_eq!(rejected, stats.health.dropped(), "rejected pushes");
        }
    }

    #[test]
    fn a_panicking_producer_fails_the_stream() {
        let mut seen = 0;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            stream_batches(
                4,
                |send: &dyn Fn(u32) -> bool| -> u64 {
                    send(1);
                    send(2);
                    panic!("producer died")
                },
                |_, _| seen += 1,
            )
        }));
        let payload = outcome.expect_err("a dead producer must fail the call");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"producer died"));
        assert_eq!(seen, 2, "the consumer drains what was sent first");
    }

    #[test]
    fn streaming_clean_run_is_bit_identical_to_batch() {
        assert_stream_matches_batch(2, 120.0, None);
    }

    #[test]
    fn streaming_faulty_run_is_bit_identical_to_batch() {
        let faults = FaultConfig {
            drop_p: 0.05,
            duplicate_p: 0.05,
            delay_p: 0.10,
            reorder_p: 0.02,
            ..FaultConfig::default()
        };
        assert_stream_matches_batch(2, 120.0, Some(faults));
    }

    /// Inputs a caller can set, drawn at random: floor size, run length
    /// (often ending on a partial tick batch), fault profile and seed,
    /// and cabinet-outage schedule. The inline and threaded drivers must
    /// agree on every data output, floats to the bit.
    #[test]
    fn inline_and_threaded_drivers_agree_on_random_inputs() {
        use rand::Rng;
        use summit_telemetry::ids::CabinetId;
        let mut rng = StdRng::seed_from_u64(0x1D_1E);
        for case in 0..8 {
            let cabinets = rng.gen_range(1..=2usize);
            let duration_s = f64::from(rng.gen_range(61..=240u32));
            let faults = FaultConfig {
                drop_p: rng.gen_range(0.0..0.1),
                duplicate_p: rng.gen_range(0.0..0.1),
                delay_p: rng.gen_range(0.0..0.15),
                reorder_p: rng.gen_range(0.0..0.1),
                max_extra_delay_s: rng.gen_range(1.0..20.0),
                seed: rng.gen(),
            };
            let mut config = StreamConfig::new(cabinets, duration_s, Some(faults));
            for _ in 0..rng.gen_range(0..=3usize) {
                let start_s = rng.gen_range(0.0..duration_s);
                config.cabinet_outages.push(CabinetOutage {
                    cabinet: CabinetId(rng.gen_range(0..cabinets as u16)),
                    start_s,
                    end_s: start_s + rng.gen_range(1.0..120.0),
                });
            }
            let span = || summit_obs::span("summit_core_driver_property");
            let inline = run_pipeline(config.clone(), Driver::Inline, span);
            let threaded = run_pipeline(config, Driver::Threaded, span);
            assert_windows_bitwise_eq(&inline.windows_by_node, &threaded.windows_by_node);
            assert_eq!(inline.injected, threaded.injected, "case {case}");
            let (a, b) = (&inline.stats, &threaded.stats);
            assert_eq!((a.frames, a.metrics), (b.frames, b.metrics), "case {case}");
            assert_eq!(a.health, b.health, "case {case}");
            for (x, y) in [
                (a.total_delay_s, b.total_delay_s),
                (a.max_delay_s, b.max_delay_s),
                (a.t_first, b.t_first),
                (a.t_last, b.t_last),
            ] {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case}: stats");
            }
            for gauge in [
                "summit_core_frame_to_alert_p50_seconds",
                "summit_core_frame_to_alert_p99_seconds",
            ] {
                let (x, y) = (inline.obs.gauge(gauge), threaded.obs.gauge(gauge));
                assert_eq!(
                    x.map(f64::to_bits),
                    y.map(f64::to_bits),
                    "case {case}: {gauge}"
                );
            }
        }
    }

    #[test]
    fn streaming_memory_is_bounded_by_horizon_not_run_length() {
        let short = run_streaming(StreamConfig::new(1, 120.0, None));
        let long = run_streaming(StreamConfig::new(1, 480.0, None));
        assert!(short.peak_resident_frames > 0);
        // Peak residency is set by the fabric delay + lateness horizon,
        // so a 4x longer replay must not grow it meaningfully.
        assert!(
            long.peak_resident_frames <= short.peak_resident_frames + 64,
            "resident grew with run length: {} -> {}",
            short.peak_resident_frames,
            long.peak_resident_frames
        );
        assert!(long.peak_channel_depth <= CHANNEL_CAPACITY);
        // The live console saw every closed window.
        let total: usize = long.windows_by_node.iter().map(Vec::len).sum();
        assert_eq!(long.live_windows, total as u64);
    }

    #[test]
    fn streaming_run_records_live_console_and_channel_metrics() {
        let run = run_streaming(StreamConfig::new(2, 120.0, None));
        assert!(run
            .obs
            .gauge("summit_core_stream_peak_channel_depth")
            .is_some());
        assert!(run
            .obs
            .gauge("summit_core_stream_peak_resident_frames")
            .is_some());
        assert!(
            run.obs
                .counter("summit_core_live_windows_total")
                .unwrap_or(0)
                > 0
        );
        assert!(run.summary.contains("run_streaming"), "{}", run.summary);
    }

    #[test]
    fn dynamics_series_share_time_axis() {
        let run = quick_dynamics(3, 200.0);
        let p = run.power_series();
        let q = run.mtw_return_series();
        assert_eq!(p.t0(), q.t0());
        assert_eq!(p.dt(), q.dt());
        assert_eq!(p.len(), q.len());
        assert_eq!(p.t0(), summer_t0());
    }
}
