//! `stream-pipeline`: `core::pipeline::run_streaming` on a 64-cabinet
//! floor with a light fault profile whose seed changes every op. One op
//! is one call covering two simulated minutes.

use summit_core::pipeline::{run_streaming, run_telemetry, StreamConfig, StreamingRun};
use summit_telemetry::prelude::FaultConfig;

use crate::checks::{self, Accounting};
use crate::trace::Tracer;
use crate::{derive_seed, Work};

/// Floor size: 64 cabinets.
const CABINETS: usize = 64;
/// Nodes on the floor, 18 per cabinet.
pub const NODES: usize = CABINETS * 18;
/// Simulated seconds per call.
const DURATION_S: f64 = 120.0;
const OFFERED_COUNTER: &str = "summit_core_frames_offered_total";
const REJECTED_COUNTER: &str = "summit_core_stream_frames_rejected_total";

/// The streaming workload: one fault seed per op.
pub struct Stream {
    seed: u64,
    ops: u64,
    /// Output of the most recent op; dropped once checked unless
    /// `keep_last` is set.
    pub last: Option<StreamingRun>,
    /// Keep the checked output for [`verify_last`].
    pub keep_last: bool,
}

impl Stream {
    /// A workload whose fault seeds derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ops: 0,
            last: None,
            keep_last: false,
        }
    }

    fn faults(&self, op: u64) -> FaultConfig {
        FaultConfig::light(derive_seed(self.seed, 100 + op))
    }

    /// The fault profile the most recent op ran with.
    pub fn last_faults(&self) -> FaultConfig {
        self.faults(self.ops.saturating_sub(1))
    }
}

/// Checks one streaming run: every offered frame is delivered, dropped
/// or duplicated by the fabric and then accepted or dropped for a
/// counted reason, and the live window count matches the output.
fn check_run(run: &StreamingRun) -> Result<(), String> {
    let offered = run.obs.counter(OFFERED_COUNTER).unwrap_or(0);
    let want = NODES as u64 * DURATION_S as u64;
    if offered != want {
        return Err(format!("{offered} frames offered, want {want}"));
    }
    checks::accounting(&Accounting {
        offered,
        injected: run.injected,
        delivered: run.stats.frames,
        resident: 0,
        health: run.stats.health,
        rejected: run.obs.counter(REJECTED_COUNTER).unwrap_or(0),
    })?;
    let windows: usize = run.windows_by_node.iter().map(Vec::len).sum();
    if windows == 0 || windows as u64 != run.live_windows {
        return Err(format!(
            "{windows} windows returned, {} seen live",
            run.live_windows
        ));
    }
    Ok(())
}

/// Milliseconds the run spent in the program's own stage spans: engine
/// ticks on the producer thread, and the consumer's per-batch work
/// (frame reads, fabric, coarsener, console) and end-of-run drain.
pub fn stage_ms(run: &StreamingRun) -> [(&'static str, f64); 3] {
    let ms = |span: &str| {
        run.obs
            .histogram(&format!("{span}_seconds"))
            .map_or(f64::NAN, |h| h.sum * 1e3)
    };
    [
        ("sim.engine.step_batch_ms", ms("summit_core_engine_tick")),
        (
            "core.pipeline.stream_consume_ms",
            ms("summit_core_stream_consume"),
        ),
        (
            "core.pipeline.stream_finish_ms",
            ms("summit_core_stream_finish"),
        ),
    ]
}

/// Setup, as timed for `setup_s`: one untimed, checked op.
pub fn setup(seed: u64) -> Result<Stream, String> {
    let mut s = Stream::new(seed);
    s.op(&mut Tracer::off());
    s.check()?;
    Ok(s)
}

/// The batch replay of the most recent op's inputs, compared bit for
/// bit with its streamed windows, stats and fault counts. Returns the
/// replay's wall time in milliseconds.
pub fn verify_last(s: &Stream) -> Result<f64, String> {
    let run = s.last.as_ref().ok_or("no streamed run kept")?;
    let started = std::time::Instant::now();
    let batch = run_telemetry(CABINETS, DURATION_S, Some(s.last_faults()));
    let ms = started.elapsed().as_secs_f64() * 1e3;
    if batch.injected != run.injected || batch.stats.health != run.stats.health {
        return Err("batch replay accounting differs from the streamed run".into());
    }
    checks::same_windows(&run.windows_by_node, &batch.windows_by_node)?;
    Ok(ms)
}

impl Work for Stream {
    fn op(&mut self, tr: &mut Tracer) -> u64 {
        let cfg = StreamConfig::new(CABINETS, DURATION_S, Some(self.faults(self.ops)));
        self.ops += 1;
        let run = tr.span("core.pipeline.run_streaming", || run_streaming(cfg));
        let offered = run.obs.counter(OFFERED_COUNTER).unwrap_or(0);
        self.last = Some(run);
        offered
    }

    fn check(&mut self) -> Result<(), String> {
        let run = self.last.as_ref().ok_or("op kept no output")?;
        let verdict = check_run(run);
        if !self.keep_last {
            self.last = None;
        }
        verdict
    }
}
