//! End-to-end and per-layer benchmark of the telemetry pipeline and the
//! study suite.
//!
//! ```text
//! summit-oda-bench --workload <ingest-loaded|stream-pipeline|study-suite>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times one op at a time with tracing off and prints the
//! end-to-end metrics; `--trace 1` runs the traced pass and prints the
//! per-layer metrics. The last stdout line is the JSON result; see
//! README.md for the workloads and every metric.

mod checks;
mod ingest;
mod stream;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use summit_core::json::Json;
use trace::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest ops a timed leg runs, however long they take.
const MIN_OPS: usize = 11;
/// Ops beyond the tail percentile.
const TAIL_BEYOND: usize = 10;
/// A per-layer metric the workload's traced pass does not measure: the
/// workload does not reach the layer, or reaches it only inside a call
/// the benchmark cannot split.
const NOT_MEASURED: f64 = -1.0;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics outside the per-study times: name and unit. Time
/// metrics are a span name plus `_ms`, in exclusive milliseconds per op.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.engine.step_batch_ms", "ms"),
    ("sim.scheduler.jobs_ms", "ms"),
    ("sim.scheduler.busy_frac", "ratio"),
    ("telemetry.batch.read_frame_ms", "ms"),
    ("telemetry.delivery.offer_ms", "ms"),
    ("telemetry.delivery.frames_out", "count"),
    ("telemetry.delivery.injected_drop", "count"),
    ("telemetry.delivery.injected_dup", "count"),
    ("telemetry.delivery.injected_delay", "count"),
    ("telemetry.delivery.injected_reorder", "count"),
    ("telemetry.delivery.resident_peak", "count"),
    ("telemetry.window.push_ms", "ms"),
    ("telemetry.window.drain_ms", "ms"),
    ("telemetry.window.accepted", "count"),
    ("telemetry.window.duplicates", "count"),
    ("telemetry.window.late_dropped", "count"),
    ("telemetry.window.rejected", "count"),
    ("telemetry.window.windows_closed", "count"),
    ("telemetry.window.resident_frames_peak", "count"),
    ("telemetry.jobjoin.join_ms", "ms"),
    ("telemetry.jobjoin.rows", "count"),
    ("telemetry.cluster.power_ms", "ms"),
    ("core.monitoring.observe_ms", "ms"),
    ("core.monitoring.alerts", "count"),
    ("core.pipeline.run_streaming_ms", "ms"),
    ("core.pipeline.stream_consume_ms", "ms"),
    ("core.pipeline.stream_finish_ms", "ms"),
    ("core.pipeline.run_telemetry_ms", "ms"),
    ("core.pipeline.backpressure_stalls", "count"),
    ("core.pipeline.peak_channel_depth", "count"),
    ("core.pipeline.peak_resident_frames", "count"),
    ("core.pipeline.live_windows", "count"),
    ("core.cache.drop_ms", "ms"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("compat.rayon.pool_speedup", "ratio"),
    ("compat.rayon.pool_threads", "count"),
    ("trace.layer_sum_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric, per-study times included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(suite::metric_names().into_iter().map(|n| (n, "ms")))
        .collect()
}

/// A workload the benchmark can time one op at a time.
pub trait Work {
    /// Runs one op and returns the work it did (frames offered, or
    /// studies run). The caller times this call and nothing else.
    fn op(&mut self, tr: &mut Tracer) -> u64;
    /// Checks the output of the op just run.
    fn check(&mut self) -> Result<(), String>;
}

/// SplitMix64 of `seed` and a stream id: independent inputs per use.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One timed leg: op times, work done and failed checks.
#[derive(Debug, Default)]
struct Leg {
    ms: Vec<f64>,
    work: u64,
    failed: u64,
    wall_s: f64,
}

/// Runs ops until `seconds` have passed and at least `min_ops` ran,
/// timing each op alone, checking each op's output after its timer
/// stops, and calling `after` between ops.
fn measure<W: Work>(
    w: &mut W,
    tr: &mut Tracer,
    seconds: f64,
    min_ops: usize,
    mut after: impl FnMut(&mut W),
) -> Leg {
    let mut leg = Leg::default();
    let started = Instant::now();
    while leg.ms.len() < min_ops || started.elapsed().as_secs_f64() < seconds {
        let root = tr.begin("op");
        let t0 = Instant::now();
        let work = w.op(tr);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.end(root);
        leg.ms.push(ms);
        leg.work += work;
        if let Err(e) = w.check() {
            if leg.failed == 0 {
                eprintln!("op failed its check: {e}");
            }
            leg.failed += 1;
        }
        after(w);
    }
    leg.wall_s = started.elapsed().as_secs_f64();
    leg
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for an even count).
fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] ops beyond it:
/// its value and its rank as a percentage of `n`.
fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return (s.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let idx = n - TAIL_BEYOND - 1;
    (s[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

/// The process's resident-set high-water mark, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Times `SETUPS` setups and keeps the last; `setup_s` is their median.
fn timed_setups<W>(mut setup: impl FnMut() -> Result<W, String>) -> Result<(f64, W), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let w = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(w);
    }
    let w = kept.ok_or("no setup ran")?;
    Ok((median(&times), w))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    IngestLoaded,
    StreamPipeline,
    StudySuite,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest-loaded" => Some(Self::IngestLoaded),
            "stream-pipeline" => Some(Self::StreamPipeline),
            "study-suite" => Some(Self::StudySuite),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::IngestLoaded => "ingest-loaded",
            Self::StreamPipeline => "stream-pipeline",
            Self::StudySuite => "study-suite",
        }
    }

    /// Nodes on the floor the workload drives (0: no floor of its own).
    fn floor_nodes(self) -> usize {
        match self {
            Self::IngestLoaded => ingest::NODES,
            Self::StreamPipeline => stream::NODES,
            Self::StudySuite => 0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (ingest-loaded, stream-pipeline, study-suite)"
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line's metrics plus the run's failure counts.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<String, (f64, &'static str)>,
    attempted: u64,
    failed: u64,
    /// Extra fingerprint fields.
    notes: Vec<(&'static str, Json)>,
}

impl Outcome {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    fn add_leg(&mut self, leg: &Leg) {
        self.attempted += leg.ms.len() as u64;
        self.failed += leg.failed;
    }

    /// A check outside the timed ops (setup, verification): one more
    /// attempted op, failed when `r` is an error.
    fn add_check(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            eprintln!("check failed: {e}");
            self.failed += 1;
        }
    }

    fn note(&mut self, key: &'static str, value: Json) {
        self.notes.push((key, value));
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// End-to-end metrics of the timed pass.
fn timed_pass<W: Work>(
    args: &Args,
    out: &mut Outcome,
    setup: impl FnMut() -> Result<W, String>,
) -> Result<(), String> {
    let (setup_s, mut w) = timed_setups(setup)?;
    out.attempted += SETUPS as u64;
    let leg = measure(&mut w, &mut Tracer::off(), args.seconds, MIN_OPS, |_| {});
    let rss = peak_rss_mb()?;
    out.add_leg(&leg);
    let (tail_ms, tail_pct) = tail(&leg.ms);
    out.put("setup_s", setup_s, "s");
    out.put("throughput_per_s", leg.work as f64 / leg.wall_s, "1/s");
    out.put("op_p50_ms", median(&leg.ms), "ms");
    out.put("op_tail_ms", tail_ms, "ms");
    out.put("peak_rss_mb", rss, "MB");
    out.note("ops_timed", Json::Num(leg.ms.len() as f64));
    out.note(
        "tail_percentile",
        Json::Num((tail_pct * 10.0).round() / 10.0),
    );
    Ok(())
}

/// Per-layer times from a traced leg, the sum-to-whole ratio and the
/// tracing overhead against an untraced leg of the same workload.
fn layer_times(out: &mut Outcome, tr: &Tracer, untraced: &Leg, name: &str) -> Result<(), String> {
    let ops = tr.root_ms();
    let times = tr.self_times();
    let op_ns = times.get("op").map_or(0, |t| t.total_ns);
    let mut layer_ns = 0u64;
    for (span, t) in &times {
        if *span == "op" {
            continue;
        }
        layer_ns += t.self_ns;
        out.put(
            &format!("{span}_ms"),
            t.self_ns as f64 / 1e6 / ops.len() as f64,
            "ms",
        );
    }
    out.put(
        "trace.layer_sum_ratio",
        layer_ns as f64 / op_ns.max(1) as f64,
        "ratio",
    );
    out.put(
        "trace.overhead_frac",
        median(&ops) / median(&untraced.ms) - 1.0,
        "ratio",
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spans = dir.join(format!("{name}.spans.csv"));
    std::fs::write(&spans, tr.spans_csv()).map_err(|e| format!("{}: {e}", spans.display()))?;
    let mut table = format!(
        "# {name}: {} traced ops, layer self time sums to {:.4} of op time\nlayer,spans,self_ms_per_op,share\n",
        ops.len(),
        layer_ns as f64 / op_ns.max(1) as f64
    );
    for (span, t) in &times {
        let _ = writeln!(
            table,
            "{span},{},{:.4},{:.4}",
            t.calls,
            t.self_ns as f64 / 1e6 / ops.len() as f64,
            t.self_ns as f64 / op_ns.max(1) as f64
        );
    }
    let layers = dir.join(format!("{name}.layers.csv"));
    std::fs::write(&layers, table).map_err(|e| format!("{}: {e}", layers.display()))?;
    out.note("span_file", Json::Str(spans.display().to_string()));
    Ok(())
}

/// Traced pass of `ingest-loaded`: an untraced leg, a traced leg, a
/// one-thread leg from the same seed (pool speed-up, and the windows
/// must match the default pool's bit for bit) and a capturing floor
/// compared with the batch coarsener.
fn traced_ingest(args: &Args, out: &mut Outcome, name: &str) -> Result<(), String> {
    let leg_s = args.seconds * 0.25;
    let mut floor = ingest::setup(args.seed, ingest::Keep::LastOp)?;
    out.attempted += 1;
    // Every leg digests each op's windows between ops, so all legs pay
    // the same cache cost and the one-thread leg is compared op by op.
    let mut digests = Vec::new();
    let untraced = measure(&mut floor, &mut Tracer::off(), leg_s, 5, |f| {
        digests.push(f.last_digest());
    });
    out.add_leg(&untraced);

    let mut tr = Tracer::on();
    let before = floor.accounting();
    let (mut busy, mut rows, mut alerts, mut windows) = (0.0, 0u64, 0u64, 0u64);
    let (mut fabric_peak, mut coarsener_peak) = (0u64, 0u64);
    let traced = measure(&mut floor, &mut tr, leg_s, 5, |f| {
        digests.push(f.last_digest());
        busy += f.last.busy_frac;
        rows += f.last.rows;
        alerts += f.last.alerts;
        windows += f.last.windows;
        fabric_peak = fabric_peak.max(f.accounting().resident);
        coarsener_peak = coarsener_peak.max(f.coarsener_resident());
    });
    out.add_leg(&traced);
    let n = traced.ms.len() as f64;
    let (a, b) = (floor.accounting(), before);
    let per_op = [
        ("telemetry.delivery.frames_out", a.delivered - b.delivered),
        (
            "telemetry.delivery.injected_drop",
            a.injected.dropped - b.injected.dropped,
        ),
        (
            "telemetry.delivery.injected_dup",
            a.injected.duplicated - b.injected.duplicated,
        ),
        (
            "telemetry.delivery.injected_delay",
            a.injected.delayed - b.injected.delayed,
        ),
        (
            "telemetry.delivery.injected_reorder",
            a.injected.reordered - b.injected.reordered,
        ),
        (
            "telemetry.window.accepted",
            a.health.accepted - b.health.accepted,
        ),
        (
            "telemetry.window.duplicates",
            a.health.duplicates - b.health.duplicates,
        ),
        (
            "telemetry.window.late_dropped",
            a.health.late_dropped - b.health.late_dropped,
        ),
        ("telemetry.window.rejected", a.rejected - b.rejected),
        ("telemetry.window.windows_closed", windows),
        ("telemetry.jobjoin.rows", rows),
        ("core.monitoring.alerts", alerts),
    ];
    for (metric, total) in per_op {
        out.put(metric, total as f64 / n, "count");
    }
    out.put("sim.scheduler.busy_frac", busy / n, "ratio");
    out.put(
        "telemetry.delivery.resident_peak",
        fabric_peak as f64,
        "count",
    );
    out.put(
        "telemetry.window.resident_frames_peak",
        coarsener_peak as f64,
        "count",
    );
    layer_times(out, &tr, &untraced, name)?;
    drop(floor);

    // Same seed, same ops, one pool thread.
    let mut single =
        rayon::with_thread_count(1, || ingest::setup(args.seed, ingest::Keep::LastOp))?;
    out.attempted += 1;
    let mut k = 0;
    let mut mismatch = None;
    let one = rayon::with_thread_count(1, || {
        measure(&mut single, &mut Tracer::off(), 0.0, digests.len(), |f| {
            if mismatch.is_none() && digests.get(k) != Some(&f.last_digest()) {
                mismatch = Some(k);
            }
            k += 1;
        })
    });
    out.add_leg(&one);
    out.add_check(match mismatch {
        None => Ok(()),
        Some(k) => Err(format!(
            "op {k}: one-thread windows differ from the default pool's"
        )),
    });
    out.put(
        "compat.rayon.pool_speedup",
        median(&one.ms[..untraced.ms.len()]) / median(&untraced.ms),
        "ratio",
    );
    drop(single);

    out.add_check(
        ingest::setup(args.seed, ingest::Keep::Everything).and_then(ingest::Floor::verify),
    );
    out.note("ops_timed", Json::Num(untraced.ms.len() as f64));
    out.note("ops_traced", Json::Num(traced.ms.len() as f64));
    Ok(())
}

/// Traced pass of `stream-pipeline`: untraced and traced legs, the
/// call's stage split from the program's own spans, then the batch
/// replay of the last traced op compared bit for bit.
fn traced_stream(args: &Args, out: &mut Outcome, name: &str) -> Result<(), String> {
    let leg_s = args.seconds * 0.4;
    let mut s = stream::setup(args.seed)?;
    out.attempted += 1;
    let untraced = measure(&mut s, &mut Tracer::off(), leg_s, 5, |_| {});
    out.add_leg(&untraced);
    let mut tr = Tracer::on();
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut stage_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut depth_peak, mut resident_peak) = (0, 0);
    s.keep_last = true;
    let traced = measure(&mut s, &mut tr, leg_s, 5, |s| {
        let Some(r) = &s.last else { return };
        let h = &r.stats.health;
        let per_op = [
            ("telemetry.delivery.frames_out", r.stats.frames),
            ("telemetry.delivery.injected_drop", r.injected.dropped),
            ("telemetry.delivery.injected_dup", r.injected.duplicated),
            ("telemetry.delivery.injected_delay", r.injected.delayed),
            ("telemetry.delivery.injected_reorder", r.injected.reordered),
            ("telemetry.window.accepted", h.accepted),
            ("telemetry.window.duplicates", h.duplicates),
            ("telemetry.window.late_dropped", h.late_dropped),
            ("telemetry.window.rejected", h.dropped()),
            (
                "telemetry.window.windows_closed",
                r.windows_by_node.iter().map(|w| w.len() as u64).sum(),
            ),
            ("core.pipeline.backpressure_stalls", r.backpressure_stalls),
            ("core.pipeline.live_windows", r.live_windows),
            ("core.monitoring.alerts", r.alerts.len() as u64),
        ];
        for (metric, v) in per_op {
            *totals.entry(metric).or_default() += v;
        }
        for (metric, ms) in stream::stage_ms(r) {
            *stage_ms.entry(metric).or_default() += ms;
        }
        depth_peak = depth_peak.max(r.peak_channel_depth);
        resident_peak = resident_peak.max(r.peak_resident_frames);
    });
    out.add_leg(&traced);
    let n = traced.ms.len() as f64;
    for (metric, total) in totals {
        out.put(metric, total as f64 / n, "count");
    }
    out.put(
        "core.pipeline.peak_channel_depth",
        depth_peak as f64,
        "count",
    );
    out.put(
        "core.pipeline.peak_resident_frames",
        resident_peak as f64,
        "count",
    );
    layer_times(out, &tr, &untraced, name)?;
    // The call's consumer-side stages come from the program's own spans
    // in `run.obs`; what is left of the call is its self time. Engine
    // ticks run on the producer thread, overlapping the call.
    let mut call_self = out.metrics["core.pipeline.run_streaming_ms"].0;
    for (metric, total) in stage_ms {
        // A stage span the program no longer records stays unmeasured.
        if !total.is_finite() {
            continue;
        }
        out.put(metric, total / n, "ms");
        if metric != "sim.engine.step_batch_ms" {
            call_self -= total / n;
        }
    }
    out.put("core.pipeline.run_streaming_ms", call_self, "ms");
    let replay = stream::verify_last(&s);
    if let Ok(ms) = replay {
        out.put("core.pipeline.run_telemetry_ms", ms, "ms");
    }
    out.add_check(replay.map(|_| ()));
    out.note("ops_timed", Json::Num(untraced.ms.len() as f64));
    out.note("ops_traced", Json::Num(traced.ms.len() as f64));
    Ok(())
}

/// Traced pass of `study-suite`: untraced and traced legs, one span per
/// study, and scenario-cache traffic per pass.
fn traced_suite(args: &Args, out: &mut Outcome, name: &str) -> Result<(), String> {
    let leg_s = args.seconds * 0.4;
    let mut s = suite::setup(args.seed)?;
    out.attempted += 1;
    let untraced = measure(&mut s, &mut Tracer::off(), leg_s, 5, |_| {});
    out.add_leg(&untraced);
    let mut tr = Tracer::on();
    let (mut hits, mut misses) = (0u64, 0u64);
    let traced = measure(&mut s, &mut tr, leg_s, 5, |s| {
        hits += s.cache.0;
        misses += s.cache.1;
    });
    out.add_leg(&traced);
    let n = traced.ms.len() as f64;
    out.put("core.cache.hits", hits as f64 / n, "count");
    out.put("core.cache.misses", misses as f64 / n, "count");
    layer_times(out, &tr, &untraced, name)?;
    out.note("ops_timed", Json::Num(untraced.ms.len() as f64));
    out.note("ops_traced", Json::Num(traced.ms.len() as f64));
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seed = args.seed;
    let name = format!("{}-seed{}", args.workload.name(), seed);
    match (args.workload, args.trace) {
        (Workload::IngestLoaded, false) => timed_pass(args, &mut out, || {
            ingest::setup(seed, ingest::Keep::Nothing)
        })?,
        (Workload::StreamPipeline, false) => timed_pass(args, &mut out, || stream::setup(seed))?,
        (Workload::StudySuite, false) => timed_pass(args, &mut out, || suite::setup(seed))?,
        (Workload::IngestLoaded, true) => traced_ingest(args, &mut out, &name)?,
        (Workload::StreamPipeline, true) => traced_stream(args, &mut out, &name)?,
        (Workload::StudySuite, true) => traced_suite(args, &mut out, &name)?,
    }
    if args.trace {
        for (metric, unit) in per_layer() {
            out.metrics.entry(metric).or_insert((NOT_MEASURED, unit));
        }
        out.put(
            "compat.rayon.pool_threads",
            rayon::current_num_threads() as f64,
            "count",
        );
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    let str = |s: &str| Json::Str(s.to_string());
    let mut fingerprint = vec![
        ("workload", str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(args.trace)))),
        ("seconds", Json::Num(args.seconds)),
        (
            "nproc",
            Json::Num(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
            ),
        ),
        ("cpu", str(&cpu_model())),
        ("rustc", str(env!("BENCH_RUSTC_VERSION"))),
        (
            "pool_threads",
            Json::Num(rayon::current_num_threads() as f64),
        ),
        ("floor_nodes", Json::Num(args.workload.floor_nodes() as f64)),
    ];
    fingerprint.extend(out.notes);
    let obj = |pairs: Vec<(&str, Json)>| {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    println!("fingerprint {}", obj(fingerprint));

    let mut correct = out.failed == 0;
    let mut metrics = Vec::new();
    for (name, (value, unit)) in out.metrics {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push((
            name,
            obj(vec![("value", Json::Num(value)), ("unit", str(unit))]),
        ));
    }
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every other op's output fails its check.
    struct Flaky(u64);

    impl Work for Flaky {
        fn op(&mut self, _: &mut Tracer) -> u64 {
            self.0 += 1;
            1
        }

        fn check(&mut self) -> Result<(), String> {
            if self.0.is_multiple_of(2) {
                Err("corrupted output".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_op() {
        let leg = measure(&mut Flaky(0), &mut Tracer::off(), 0.0, 6, |_| {});
        assert_eq!(leg.ms.len(), 6);
        assert_eq!(leg.failed, 3);
        assert_eq!(leg.work, 6);
    }

    #[test]
    fn tail_keeps_ten_ops_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(median(&v), 50.5);
        assert_eq!(tail(&v[..5]).0, 5.0);
    }

    #[test]
    fn benchmark_json_lists_every_metric_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
