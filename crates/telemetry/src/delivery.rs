//! The simulated fault fabric between the BMCs and the point of
//! analysis, one node at a time.
//!
//! [`NodeDelivery`] stamps each source frame's arrival time from the
//! propagation-delay model, applies its drop / duplicate / extra-delay
//! fate and releases the survivors in arrival order, with local reorder
//! swaps on top. Its output is defined by the whole-batch fabric: stamp
//! and fate every frame of the node, stable-sort the arrivals by ingest
//! time, then run one adjacent swap pass. The tests keep that batch
//! fabric as the oracle; [`NodeDelivery`] reproduces its output one
//! source frame at a time, so resident state stays bounded however long
//! the stream runs:
//!
//! 1. **Fate** — each frame's drop/duplicate/delay draw is the pure
//!    order-independent hash [`FaultConfig::fate`], so the incremental
//!    path classifies every frame exactly as the batch oracle does.
//! 2. **Reorder release** — arrivals wait in a min-heap keyed by
//!    `(t_ingest, insertion sequence)`. Insertion order matches the
//!    batch push order (a duplicate's +0.25 s copy is inserted before
//!    its original), so the heap order *is* the batch's stable sort.
//!    An arrival is released once the node's production clock (the
//!    newest `t_sample` offered) passes its `t_ingest`: any future
//!    frame has `t_ingest ≥ t_sample > clock`, so nothing can still
//!    arrive ahead of it. This bounds the heap at the fabric's maximum
//!    delivery delay regardless of run length.
//! 3. **Swap hold** — the batch swap pass examines the *originally
//!    sorted* element at each position (a swap at `i` only moves
//!    elements at `i-1`/`i`, never a later probe target), so one held
//!    frame suffices: a frame that draws a swap is emitted ahead of the
//!    held frame; one that doesn't replaces it.
//!
//! The result: delivered frame sequence, injected-fault counts, and
//! every downstream statistic are bit-identical to the batch oracle run
//! over the same per-node sequence.

use crate::records::NodeFrame;
use crate::stream::{propagation_delay_s, FaultConfig, FrameFate, InjectedFaults};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One frame waiting in the reorder-release heap.
#[derive(Debug)]
struct Arrival {
    t_ingest: f64,
    seq: u64,
    frame: NodeFrame,
}

impl PartialEq for Arrival {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Arrival {}

impl PartialOrd for Arrival {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Arrival {
    /// Reversed (min-heap through `BinaryHeap`): earliest ingest time
    /// first, ties broken by insertion sequence — exactly the batch
    /// stable sort on `t_ingest`.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .t_ingest
            .total_cmp(&self.t_ingest)
            .then(other.seq.cmp(&self.seq))
    }
}

/// One node's fabric: offer source frames in sample order, collect
/// delivered frames as they become safe to release. See the module
/// docs for the equivalence argument with the batch oracle.
#[derive(Debug)]
pub struct NodeDelivery {
    cfg: FaultConfig,
    seq: u64,
    heap: BinaryHeap<Arrival>,
    hold: Option<NodeFrame>,
    counts: InjectedFaults,
}

impl NodeDelivery {
    /// Creates a delivery stage for one node under the given fault
    /// profile.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            seq: 0,
            heap: BinaryHeap::new(),
            hold: None,
            counts: InjectedFaults::default(),
        }
    }

    /// Counts of every fault injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.counts
    }

    /// Frames currently resident (reorder heap plus the swap hold) —
    /// bounded by the fabric's maximum delivery delay at 1 Hz.
    pub fn resident(&self) -> usize {
        self.heap.len() + usize::from(self.hold.is_some())
    }

    fn push_arrival(&mut self, t_ingest: f64, frame: NodeFrame) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Arrival {
            t_ingest,
            seq,
            frame,
        });
    }

    /// Runs one released (sorted-order) frame through the swap-hold
    /// stage, appending whatever it emits.
    fn emit(&mut self, frame: NodeFrame, out: &mut Vec<NodeFrame>) {
        match self.hold.take() {
            None => self.hold = Some(frame),
            Some(held) => {
                if self.cfg.draws_reorder(frame.node.0, frame.t_sample) {
                    self.counts.reordered += 1;
                    out.push(frame);
                    self.hold = Some(held);
                } else {
                    out.push(held);
                    self.hold = Some(frame);
                }
            }
        }
    }

    /// Offers one source frame (frames must come in `t_sample` order,
    /// the order the engine produces them) and appends every frame that
    /// became safe to deliver.
    pub fn offer(&mut self, mut frame: NodeFrame, out: &mut Vec<NodeFrame>) {
        let node = frame.node.0;
        let t = frame.t_sample;
        frame.t_ingest = t + propagation_delay_s(node, t);
        match self.cfg.fate(node, t) {
            FrameFate::Drop => self.counts.dropped += 1,
            FrameFate::Duplicate => {
                self.counts.duplicated += 1;
                // Copy before original: matches the batch push order so
                // the stable tie-break is preserved.
                let t_ingest = frame.t_ingest;
                self.push_arrival(t_ingest + 0.25, frame.clone());
                self.push_arrival(t_ingest, frame);
            }
            FrameFate::Delay { extra_s } => {
                self.counts.delayed += 1;
                frame.t_ingest += extra_s;
                let t_ingest = frame.t_ingest;
                self.push_arrival(t_ingest, frame);
            }
            FrameFate::Deliver => {
                let t_ingest = frame.t_ingest;
                self.push_arrival(t_ingest, frame);
            }
        }
        // Release everything no future frame can precede: future
        // samples arrive at t_ingest ≥ t_sample > t.
        while self.heap.peek().is_some_and(|head| head.t_ingest <= t) {
            if let Some(arrival) = self.heap.pop() {
                self.emit(arrival.frame, out);
            }
        }
    }

    /// Drains the reorder heap and the swap hold once the source is
    /// exhausted, appending the tail of the delivered sequence.
    pub fn finish(mut self, out: &mut Vec<NodeFrame>) -> InjectedFaults {
        while let Some(arrival) = self.heap.pop() {
            self.emit(arrival.frame, out);
        }
        if let Some(held) = self.hold.take() {
            out.push(held);
        }
        self.counts
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ids::NodeId;

    /// The whole-batch fabric, the oracle [`NodeDelivery`] must match.
    struct FaultInjector {
        config: FaultConfig,
        counts: InjectedFaults,
    }

    impl FaultInjector {
        fn new(config: FaultConfig) -> Self {
            Self {
                config,
                counts: InjectedFaults::default(),
            }
        }

        fn injected(&self) -> InjectedFaults {
            self.counts
        }

        /// Delivers one node's complete frame batch: stamps arrival
        /// times, applies drop / duplicate / extra-delay fates, returns
        /// the survivors stable-sorted into arrival order with the
        /// adjacent reorder swaps applied on top.
        fn deliver(&mut self, frames: Vec<NodeFrame>) -> Vec<NodeFrame> {
            let cfg = self.config;
            let mut arrivals: Vec<(f64, NodeFrame)> = Vec::with_capacity(frames.len());
            for mut frame in frames {
                let node = frame.node.0;
                let t = frame.t_sample;
                frame.t_ingest = t + propagation_delay_s(node, t);
                match cfg.fate(node, t) {
                    FrameFate::Drop => {
                        self.counts.dropped += 1;
                        continue;
                    }
                    FrameFate::Duplicate => {
                        self.counts.duplicated += 1;
                        // The copy trails the original by a fraction of a second.
                        arrivals.push((frame.t_ingest + 0.25, frame.clone()));
                        arrivals.push((frame.t_ingest, frame));
                        continue;
                    }
                    FrameFate::Delay { extra_s } => {
                        self.counts.delayed += 1;
                        frame.t_ingest += extra_s;
                        arrivals.push((frame.t_ingest, frame));
                    }
                    FrameFate::Deliver => arrivals.push((frame.t_ingest, frame)),
                }
            }
            arrivals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut out: Vec<NodeFrame> = arrivals.into_iter().map(|(_, f)| f).collect();
            for i in 1..out.len() {
                if cfg.draws_reorder(out[i].node.0, out[i].t_sample) {
                    out.swap(i - 1, i);
                    self.counts.reordered += 1;
                }
            }
            out
        }
    }

    fn batch(node: u32, n: usize) -> Vec<NodeFrame> {
        (0..n)
            .map(|t| NodeFrame::empty(NodeId(node), t as f64))
            .collect()
    }

    #[test]
    fn injector_is_deterministic_and_accounts_exactly() {
        let cfg = FaultConfig {
            drop_p: 0.1,
            duplicate_p: 0.1,
            delay_p: 0.1,
            reorder_p: 0.05,
            ..FaultConfig::default()
        };
        let mut a = FaultInjector::new(cfg);
        let mut b = FaultInjector::new(cfg);
        let da = a.deliver(batch(3, 500));
        let db = b.deliver(batch(3, 500));
        assert_eq!(da.len(), db.len(), "same seed, same delivery");
        assert!(da
            .iter()
            .zip(&db)
            .all(|(x, y)| x.t_sample == y.t_sample && x.t_ingest == y.t_ingest));
        let f = a.injected();
        assert_eq!(
            da.len() as u64,
            500 - f.dropped + f.duplicated,
            "every frame accounted: survivors = offered - dropped + duplicated"
        );
        assert!(f.dropped > 0 && f.duplicated > 0 && f.delayed > 0);
    }

    #[test]
    fn clean_injector_preserves_arrival_order_only() {
        let mut inj = FaultInjector::new(FaultConfig::default());
        let delivered = inj.deliver(batch(0, 100));
        assert_eq!(delivered.len(), 100);
        assert_eq!(inj.injected(), InjectedFaults::default());
        assert!(delivered.windows(2).all(|w| w[0].t_ingest <= w[1].t_ingest));
        // Propagation delay alone already reorders some sample times.
        assert!(delivered.windows(2).any(|w| w[0].t_sample > w[1].t_sample));
    }

    #[test]
    fn fate_draws_match_batch_delivery_accounting() {
        // Summing pure per-frame fates reproduces the injector's
        // mutable accounting exactly.
        let cfg = FaultConfig {
            drop_p: 0.1,
            duplicate_p: 0.1,
            delay_p: 0.15,
            reorder_p: 0.0,
            ..FaultConfig::default()
        };
        let frames = batch(9, 800);
        let mut expect = InjectedFaults::default();
        for f in &frames {
            match cfg.fate(f.node.0, f.t_sample) {
                FrameFate::Drop => expect.dropped += 1,
                FrameFate::Duplicate => expect.duplicated += 1,
                FrameFate::Delay { .. } => expect.delayed += 1,
                FrameFate::Deliver => {}
            }
        }
        let mut inj = FaultInjector::new(cfg);
        inj.deliver(frames);
        assert_eq!(inj.injected(), expect);
    }

    #[test]
    fn different_seeds_inject_differently() {
        let mut a = FaultInjector::new(FaultConfig::light(1));
        let mut b = FaultInjector::new(FaultConfig::light(2));
        a.deliver(batch(0, 1000));
        b.deliver(batch(0, 1000));
        assert_ne!(a.injected(), b.injected());
        let mut merged = a.injected();
        merged.merge(&b.injected());
        assert_eq!(merged.total(), a.injected().total() + b.injected().total());
    }

    fn run_streaming(cfg: FaultConfig, frames: Vec<NodeFrame>) -> (Vec<NodeFrame>, InjectedFaults) {
        let mut stage = NodeDelivery::new(cfg);
        let mut out = Vec::new();
        let mut peak = 0usize;
        for f in frames {
            stage.offer(f, &mut out);
            peak = peak.max(stage.resident());
        }
        // Residency stays bounded by the fabric delay, not the run.
        assert!(peak <= 64, "resident {peak} should be O(max delay)");
        let counts = stage.finish(&mut out);
        (out, counts)
    }

    fn assert_same_delivery(cfg: FaultConfig, n: usize) {
        let mut inj = FaultInjector::new(cfg);
        let reference = inj.deliver(batch(5, n));
        let (streamed, counts) = run_streaming(cfg, batch(5, n));
        assert_eq!(counts, inj.injected(), "fault accounting must match");
        assert_eq!(streamed.len(), reference.len());
        for (s, r) in streamed.iter().zip(&reference) {
            assert_eq!(s.t_sample.to_bits(), r.t_sample.to_bits());
            assert_eq!(s.t_ingest.to_bits(), r.t_ingest.to_bits());
        }
    }

    #[test]
    fn clean_stream_matches_batch_delivery() {
        assert_same_delivery(FaultConfig::default(), 300);
    }

    #[test]
    fn light_faults_match_batch_delivery() {
        assert_same_delivery(FaultConfig::light(42), 500);
    }

    #[test]
    fn heavy_faults_match_batch_delivery() {
        assert_same_delivery(
            FaultConfig {
                drop_p: 0.10,
                duplicate_p: 0.10,
                delay_p: 0.15,
                reorder_p: 0.05,
                seed: 42,
                ..FaultConfig::default()
            },
            500,
        );
    }

    #[test]
    fn duplicate_and_reorder_heavy_match_batch_delivery() {
        assert_same_delivery(
            FaultConfig {
                drop_p: 0.0,
                duplicate_p: 0.30,
                delay_p: 0.0,
                reorder_p: 0.25,
                seed: 7,
                ..FaultConfig::default()
            },
            500,
        );
    }

    #[test]
    fn empty_source_delivers_nothing() {
        let stage = NodeDelivery::new(FaultConfig::light(1));
        let mut out = Vec::new();
        let counts = stage.finish(&mut out);
        assert!(out.is_empty());
        assert_eq!(counts, InjectedFaults::default());
    }
}
