//! `ingest-loaded`: the ODA ingest path on a job-loaded 16-cabinet floor
//! with a lossy fabric and one dark cabinet, driven inline in the order
//! `run_streaming` uses. One op is five simulated minutes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use summit_core::monitoring::OpsConsole;
use summit_sim::engine::{Engine, EngineConfig, StepOptions, TickOutput};
use summit_sim::failures::CabinetOutage;
use summit_sim::jobs::JobGenerator;
use summit_sim::scheduler::PlacedJob;
use summit_telemetry::prelude::{
    cluster_power, join_jobs, AllocationIndex, CabinetId, FaultConfig, FrameBatch, InjectedFaults,
    NodeDelivery, NodeFrame, NodeWindow, StreamingCoarsener, PAPER_WINDOW_S,
};
use summit_telemetry::window::coarsen_parallel_with_health;

use crate::checks::{self, Accounting};
use crate::trace::Tracer;
use crate::{derive_seed, Work};

/// Floor size: 16 cabinets.
const CABINETS: usize = 16;
/// Nodes on the floor, 18 per cabinet.
pub const NODES: usize = CABINETS * 18;
/// Ticks (simulated seconds) per minute.
const TICKS_PER_MINUTE: usize = 60;
/// Simulated minutes per op. A one-minute op lasts about 30 ms on a
/// 2-core host, the same scale as the host's own scheduling hiccups, so
/// its tail percentile measured the host rather than the program.
const MINUTES_PER_OP: usize = 5;
/// Jobs kept waiting in the queue so backfill refills freed nodes. The
/// queue is topped up once a minute; with 12 it could run dry within a
/// minute and an op averaged 0.79 busy, while 128 keeps every op above
/// 0.92 over 24 seeds.
const QUEUE_DEPTH: usize = 128;
/// Jobs submitted up front so the floor fills within the warm-up.
const INITIAL_JOBS: usize = 40;
/// Warm-up minutes before the floor counts as in steady state: the
/// reorder buffers and open windows reach their bounded size within two.
const MIN_WARMUP_MINUTES: usize = 3;
/// Give up if the floor is not loaded after this many minutes.
const MAX_WARMUP_MINUTES: usize = 30;
/// Smallest busy-node share the workload is meant to run at.
pub const MIN_BUSY_FRAC: f64 = 0.8;
/// Completed jobs stay in the join index this long after they end, so
/// windows still closing behind the lateness horizon find their job.
const RECENT_JOB_S: f64 = 300.0;

const FRAMES: StepOptions = StepOptions {
    frames: true,
    node_power: false,
    gpu_state: false,
};

/// What a minute (or an op, summed over its minutes) did, for the
/// per-layer counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Minute {
    /// Mean busy-node share over the minute's ticks.
    pub busy_frac: f64,
    /// Frames offered to the fabric.
    pub offered: u64,
    /// Windows the coarsener closed.
    pub windows: u64,
    /// Job-power rows the join produced.
    pub rows: u64,
    /// Alerts the console raised.
    pub alerts: u64,
}

impl Minute {
    /// Adds `m`'s counts; busy shares are averaged over `of` minutes.
    fn absorb(&mut self, m: Minute, of: usize) {
        self.busy_frac += m.busy_frac / of as f64;
        self.offered += m.offered;
        self.windows += m.windows;
        self.rows += m.rows;
        self.alerts += m.alerts;
    }
}

/// What a floor keeps of the windows it closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Nothing past the minute that closed them: the timed pass, whose
    /// peak RSS must not include the benchmark's own retention.
    Nothing,
    /// The last op's windows, for [`Floor::last_digest`].
    LastOp,
    /// Every delivered frame and window since the floor began, for
    /// [`Floor::verify`].
    Everything,
}

/// Delivered frames and closed windows of a floor, kept from its first
/// tick so the streamed result can be compared with the batch coarsener.
#[derive(Debug, Default)]
struct Capture {
    delivered: Vec<Vec<NodeFrame>>,
    windows: Vec<Vec<NodeWindow>>,
}

/// A job-loaded floor and the inline ingest path behind it.
pub struct Floor {
    engine: Engine,
    jobs: JobGenerator,
    rng: StdRng,
    submitted: usize,
    completed: usize,
    recent: Vec<PlacedJob>,
    deliveries: Vec<NodeDelivery>,
    coarsener: StreamingCoarsener,
    console: OpsConsole,
    batch: FrameBatch,
    frames: Vec<NodeFrame>,
    delivered: Vec<NodeFrame>,
    ticks: Vec<TickOutput>,
    closed: Vec<NodeWindow>,
    by_node: Vec<Vec<NodeWindow>>,
    done: Vec<NodeWindow>,
    offered: u64,
    delivered_total: u64,
    rejected: u64,
    stray: u64,
    keep: Keep,
    capture: Option<Capture>,
    /// Counts of the most recent op.
    pub last: Minute,
}

impl Floor {
    /// Builds the floor for `seed`: engine, fabric, coarsener, console,
    /// the dark cabinet and the first jobs.
    pub fn new(seed: u64, keep: Keep) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
        let mut config = EngineConfig::small(CABINETS);
        config.seed = derive_seed(seed, 2);
        // The outage starts during warm-up and outlasts any run, so
        // every timed op carries the same dark cabinet.
        let cabinet = rng.gen_range(0..CABINETS as u16);
        let start_s = rng.gen_range(30.0..90.0);
        config.cabinet_outages = vec![CabinetOutage {
            cabinet: CabinetId(cabinet),
            start_s,
            end_s: start_s + 1.0e9,
        }];
        let engine = Engine::new(config, 0.0);
        let nodes = engine.topology().node_count();
        let faults = FaultConfig::light(derive_seed(seed, 3));
        let mut floor = Self {
            engine,
            jobs: JobGenerator::new(),
            rng,
            submitted: 0,
            completed: 0,
            recent: Vec::new(),
            deliveries: (0..nodes).map(|_| NodeDelivery::new(faults)).collect(),
            coarsener: StreamingCoarsener::new(nodes, PAPER_WINDOW_S),
            console: OpsConsole::with_defaults(),
            batch: FrameBatch::with_capacity(nodes),
            frames: Vec::with_capacity(nodes),
            delivered: Vec::with_capacity(2 * nodes),
            ticks: Vec::with_capacity(TICKS_PER_MINUTE),
            closed: Vec::new(),
            by_node: (0..nodes).map(|_| Vec::new()).collect(),
            done: Vec::new(),
            offered: 0,
            delivered_total: 0,
            rejected: 0,
            stray: 0,
            keep,
            capture: (keep == Keep::Everything).then(|| Capture {
                delivered: vec![Vec::new(); nodes],
                windows: vec![Vec::new(); nodes],
            }),
            last: Minute::default(),
        };
        floor.submit(INITIAL_JOBS);
        floor
    }

    /// Nodes on the floor.
    pub fn nodes(&self) -> usize {
        self.deliveries.len()
    }

    /// Runs untimed minutes until the reorder buffers are in steady
    /// state and at least [`MIN_BUSY_FRAC`] of the nodes are busy.
    pub fn warm_up(&mut self) -> Result<(), String> {
        let mut tr = Tracer::off();
        for minute in 1..=MAX_WARMUP_MINUTES {
            self.retire_windows();
            let m = self.minute(&mut tr);
            self.check_accounting()?;
            if minute >= MIN_WARMUP_MINUTES && m.busy_frac >= MIN_BUSY_FRAC {
                return Ok(());
            }
        }
        Err(format!(
            "floor below {MIN_BUSY_FRAC} busy after {MAX_WARMUP_MINUTES} minutes"
        ))
    }

    fn submit(&mut self, n: usize) {
        let t = self.engine.time();
        for _ in 0..n {
            // Classes 4 and 5 are the ones that fit a 288-node floor:
            // the generator's class mix, redrawn until it gives one.
            let class = loop {
                let c = self.jobs.sample_class(&mut self.rng);
                if c >= 4 {
                    break c;
                }
            };
            let job = self.jobs.generate_with_class(&mut self.rng, t, class);
            self.engine.scheduler().submit(job);
        }
        self.submitted += n;
    }

    /// Keeps [`QUEUE_DEPTH`] jobs waiting and retires completed jobs to
    /// the recent list the join reads.
    fn top_up(&mut self) {
        let done = self.engine.scheduler().drain_completed();
        self.completed += done.len();
        let horizon = self.engine.time() - RECENT_JOB_S;
        self.recent.retain(|p| p.end_time() >= horizon);
        self.recent.extend(done);
        let queued = self.submitted - self.completed - self.engine.scheduler_ref().running().len();
        if queued < QUEUE_DEPTH {
            self.submit(QUEUE_DEPTH - queued);
        }
    }

    /// Drops the windows the previous op closed, or keeps them for
    /// [`Floor::verify`] on a capturing floor.
    fn retire_windows(&mut self) {
        match &mut self.capture {
            Some(c) => {
                for w in self.done.drain(..) {
                    c.windows[w.node.index()].push(w);
                }
            }
            None => self.done.clear(),
        }
    }

    /// One simulated minute through engine, frame reads, fabric and
    /// coarsener, then the once-a-minute job join, cluster power and
    /// console update.
    pub fn minute(&mut self, tr: &mut Tracer) -> Minute {
        tr.span("sim.scheduler.jobs", || self.top_up());
        let mut busy = 0usize;
        let offered_before = self.offered;
        for _ in 0..TICKS_PER_MINUTE {
            let tick = tr.span("sim.engine.step_batch", || {
                self.engine.step_batch(&FRAMES, &mut self.batch)
            });
            busy += tick.busy_nodes;
            self.ticks.push(tick);
            let (batch, frames) = (&self.batch, &mut self.frames);
            tr.span("telemetry.batch.read_frame", || {
                frames.extend((0..batch.len()).map(|row| batch.read_frame(row)));
            });
            self.offered += self.frames.len() as u64;
            let (frames, deliveries, delivered, stray) = (
                &mut self.frames,
                &mut self.deliveries,
                &mut self.delivered,
                &mut self.stray,
            );
            tr.span("telemetry.delivery.offer", || {
                for f in frames.drain(..) {
                    match deliveries.get_mut(f.node.index()) {
                        Some(d) => d.offer(f, delivered),
                        None => *stray += 1,
                    }
                }
            });
            self.delivered_total += self.delivered.len() as u64;
            let (delivered, coarsener, rejected, capture) = (
                &mut self.delivered,
                &mut self.coarsener,
                &mut self.rejected,
                &mut self.capture,
            );
            tr.span("telemetry.window.push", || {
                for f in delivered.drain(..) {
                    let slot = f.node.index();
                    if coarsener.push(slot, &f).is_err() {
                        *rejected += 1;
                    }
                    if let Some(c) = capture.as_mut().and_then(|c| c.delivered.get_mut(slot)) {
                        c.push(f);
                    }
                }
            });
            let (coarsener, closed) = (&mut self.coarsener, &mut self.closed);
            tr.span("telemetry.window.drain", || {
                closed.append(&mut coarsener.drain_completed());
            });
        }

        let (console, ticks, closed) = (&mut self.console, &mut self.ticks, &self.closed);
        let alerts = tr.span("core.monitoring.observe", || {
            for t in ticks.drain(..) {
                console.observe(&t);
            }
            console.observe_windows(closed);
            console.drain_alerts().len()
        });
        let windows = self.closed.len() as u64;
        for w in self.closed.drain(..) {
            let node = w.node.index();
            if let Some(ws) = self.by_node.get_mut(node) {
                ws.push(w);
            }
        }
        let sched = self.engine.scheduler_ref();
        let recent = &self.recent;
        let allocations = tr.span("sim.scheduler.jobs", || {
            sched
                .running()
                .iter()
                .chain(recent)
                .flat_map(PlacedJob::node_allocations)
                .collect::<Vec<_>>()
        });
        let by_node = &self.by_node;
        let rows = tr.span("telemetry.jobjoin.join", || {
            let index = AllocationIndex::build(&allocations);
            join_jobs(by_node, &index).0.len()
        });
        tr.span("telemetry.cluster.power", || {
            std::hint::black_box(cluster_power(by_node))
        });
        for ws in &mut self.by_node {
            match self.keep {
                Keep::Nothing => ws.clear(),
                Keep::LastOp | Keep::Everything => self.done.append(ws),
            }
        }
        Minute {
            busy_frac: busy as f64 / (TICKS_PER_MINUTE * self.nodes()) as f64,
            offered: self.offered - offered_before,
            windows,
            rows: rows as u64,
            alerts: alerts as u64,
        }
    }

    /// Cumulative fabric and coarsener accounting since the floor began.
    pub fn accounting(&self) -> Accounting {
        let mut injected = InjectedFaults::default();
        for d in &self.deliveries {
            injected.merge(&d.injected());
        }
        Accounting {
            offered: self.offered,
            injected,
            delivered: self.delivered_total,
            resident: self.deliveries.iter().map(|d| d.resident() as u64).sum(),
            health: self.coarsener.health(),
            rejected: self.rejected,
        }
    }

    /// Frames resident in the coarsener's reorder buffers.
    pub fn coarsener_resident(&self) -> u64 {
        self.coarsener.resident_frames() as u64
    }

    /// Cumulative fabric and coarsener accounting, checked after every
    /// warm-up minute and every op.
    pub fn check_accounting(&self) -> Result<(), String> {
        if self.stray > 0 {
            return Err(format!("{} frames for nodes off the floor", self.stray));
        }
        checks::accounting(&self.accounting())
    }

    /// Digest of the windows the last op closed.
    pub fn last_digest(&self) -> u64 {
        checks::digest(&self.done, checks::DIGEST_SEED)
    }

    /// Ends a capturing floor: drains the fabric and the coarsener and
    /// compares every streamed window, bit for bit, with the batch
    /// coarsener run over the same delivered frames.
    pub fn verify(mut self) -> Result<(), String> {
        self.retire_windows();
        let mut capture = self
            .capture
            .take()
            .ok_or("floor was built without capture")?;
        let mut tail = Vec::new();
        for (slot, d) in self.deliveries.into_iter().enumerate() {
            tail.clear();
            d.finish(&mut tail);
            for f in tail.drain(..) {
                let _ = self.coarsener.push(slot, &f);
                capture.delivered[slot].push(f);
            }
        }
        let (tails, streamed_health) = self.coarsener.finish_with_health();
        for (node, ws) in tails.into_iter().enumerate() {
            if let Some(c) = capture.windows.get_mut(node) {
                c.extend(ws);
            }
        }
        let (batch, batch_health) =
            coarsen_parallel_with_health(&capture.delivered, PAPER_WINDOW_S);
        if streamed_health != batch_health {
            return Err(format!(
                "streamed health {streamed_health:?} != batch {batch_health:?}"
            ));
        }
        checks::same_windows(&capture.windows, &batch)
    }
}

/// Setup, as timed for `setup_s`: build, load and warm the floor, then
/// one untimed op.
pub fn setup(seed: u64, keep: Keep) -> Result<Floor, String> {
    let mut floor = Floor::new(seed, keep);
    floor.warm_up()?;
    floor.op(&mut Tracer::off());
    floor.check()?;
    Ok(floor)
}

impl Work for Floor {
    fn op(&mut self, tr: &mut Tracer) -> u64 {
        self.retire_windows();
        self.last = Minute::default();
        for _ in 0..MINUTES_PER_OP {
            let m = self.minute(tr);
            self.last.absorb(m, MINUTES_PER_OP);
        }
        self.last.offered
    }

    /// The accounting check, and the op must have run on a loaded floor.
    fn check(&mut self) -> Result<(), String> {
        self.check_accounting()?;
        if self.last.busy_frac < MIN_BUSY_FRAC {
            return Err(format!(
                "{:.3} of the nodes busy, below {MIN_BUSY_FRAC}",
                self.last.busy_frac
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_floor_is_loaded_and_its_accounting_balances() {
        let mut floor = setup(7, Keep::Nothing).expect("setup");
        assert!(floor.minute(&mut Tracer::off()).busy_frac >= MIN_BUSY_FRAC);
        assert_eq!(floor.check(), Ok(()));
        floor.last.busy_frac = MIN_BUSY_FRAC - 0.01;
        assert!(floor.check().is_err(), "an op on a drained floor must fail");
        floor.last.busy_frac = 1.0;
        floor.delivered_total += 1;
        assert!(floor.check().is_err(), "a lost frame must fail the op");
    }

    #[test]
    fn streamed_windows_match_the_batch_coarsener_bit_for_bit() {
        let floor = setup(7, Keep::Everything).expect("setup");
        assert_eq!(floor.verify(), Ok(()));
        let mut corrupt = setup(7, Keep::Everything).expect("setup");
        let c = corrupt.capture.as_mut().expect("capture");
        let w = c
            .windows
            .iter_mut()
            .flatten()
            .next()
            .expect("a closed window");
        w.stats[0].mean = f64::from_bits(w.stats[0].mean.to_bits() ^ 1);
        assert!(corrupt.verify().is_err(), "a flipped window bit must fail");
    }
}
