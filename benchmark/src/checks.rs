//! Output checks. Each returns `Err` with the broken condition, and the
//! caller counts the op as failed.

use summit_telemetry::prelude::{IngestHealth, InjectedFaults, NodeWindow};

/// Cumulative frame accounting of a delivery fabric feeding a coarsener.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Source frames offered to the fabric.
    pub offered: u64,
    /// Faults the fabric injected.
    pub injected: InjectedFaults,
    /// Frames the fabric delivered to the coarsener.
    pub delivered: u64,
    /// Frames still held in the fabric's reorder heaps and swap holds.
    pub resident: u64,
    /// Coarsener health counters.
    pub health: IngestHealth,
    /// Pushes the coarsener answered with an error.
    pub rejected: u64,
}

/// Checks that every frame is accounted for exactly once:
/// offered − drops + duplicates = delivered + resident, every delivered
/// frame was accepted or dropped for a counted reason, and every error
/// the coarsener returned is one of those counted drops.
pub fn accounting(a: &Accounting) -> Result<(), String> {
    let h = &a.health;
    let fabric_in = a.offered + a.injected.duplicated;
    let fabric_out = a.delivered + a.resident + a.injected.dropped;
    if fabric_in != fabric_out {
        return Err(format!(
            "fabric: offered {} - dropped {} + duplicated {} != delivered {} + resident {}",
            a.offered, a.injected.dropped, a.injected.duplicated, a.delivered, a.resident
        ));
    }
    let classified = h.accepted + h.duplicates + h.late_dropped + h.wrong_node + h.invalid;
    if a.delivered != classified {
        return Err(format!(
            "coarsener: delivered {} != accepted {} + duplicates {} + late {} + wrong_node {} + invalid {}",
            a.delivered, h.accepted, h.duplicates, h.late_dropped, h.wrong_node, h.invalid
        ));
    }
    if a.rejected != h.dropped() {
        return Err(format!(
            "coarsener: {} pushes rejected but {} drops counted",
            a.rejected,
            h.dropped()
        ));
    }
    Ok(())
}

/// Compares two per-node window sets bit for bit (`f64::to_bits` on
/// every statistic), naming the first difference.
pub fn same_windows(got: &[Vec<NodeWindow>], want: &[Vec<NodeWindow>]) -> Result<(), String> {
    let nonempty =
        |ws: &[Vec<NodeWindow>]| ws.iter().rposition(|w| !w.is_empty()).map_or(0, |i| i + 1);
    if nonempty(got) != nonempty(want) {
        return Err(format!(
            "{} nodes with windows, want {}",
            nonempty(got),
            nonempty(want)
        ));
    }
    for (node, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Err(format!(
                "node {node}: {} windows, want {}",
                g.len(),
                w.len()
            ));
        }
        for (k, (a, b)) in g.iter().zip(w).enumerate() {
            let same_head = a.node == b.node
                && a.window_start.to_bits() == b.window_start.to_bits()
                && a.stats.len() == b.stats.len();
            let same_stats = a.stats.iter().zip(&b.stats).all(|(x, y)| {
                x.count == y.count
                    && x.min.to_bits() == y.min.to_bits()
                    && x.max.to_bits() == y.max.to_bits()
                    && x.mean.to_bits() == y.mean.to_bits()
                    && x.std.to_bits() == y.std.to_bits()
            });
            if !(same_head && same_stats) {
                return Err(format!("node {node} window {k} differs"));
            }
        }
    }
    Ok(())
}

/// Order-sensitive digest of windows (FNV-1a over every statistic's
/// bits), for comparing runs without keeping their windows.
pub fn digest(windows: &[NodeWindow], mut h: u64) -> u64 {
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for w in windows {
        mix(u64::from(w.node.0));
        mix(w.window_start.to_bits());
        for s in &w.stats {
            mix(s.count);
            mix(s.min.to_bits());
            mix(s.max.to_bits());
            mix(s.mean.to_bits());
            mix(s.std.to_bits());
        }
    }
    h
}

/// FNV-1a offset basis, the starting value for [`digest`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;
    use summit_telemetry::prelude::{NodeFrame, NodeId, WindowAggregator};

    fn windows() -> Vec<Vec<NodeWindow>> {
        (0..2u32)
            .map(|n| {
                let mut agg = WindowAggregator::paper(NodeId(n));
                for t in 0..40 {
                    let mut f = NodeFrame::empty(NodeId(n), f64::from(t));
                    f.values[0] = (t * 7 + n) as f32;
                    let _ = agg.push(&f);
                }
                agg.finish()
            })
            .collect()
    }

    fn balanced() -> Accounting {
        Accounting {
            offered: 100,
            injected: InjectedFaults {
                dropped: 2,
                duplicated: 3,
                delayed: 1,
                reordered: 1,
            },
            delivered: 96,
            resident: 5,
            health: IngestHealth {
                accepted: 92,
                duplicates: 3,
                late_dropped: 1,
                ..Default::default()
            },
            rejected: 4,
        }
    }

    #[test]
    fn identical_windows_pass() {
        assert_eq!(same_windows(&windows(), &windows()), Ok(()));
        let flat: Vec<NodeWindow> = windows().concat();
        assert_eq!(
            digest(&flat, DIGEST_SEED),
            digest(&windows().concat(), DIGEST_SEED)
        );
    }

    #[test]
    fn a_flipped_window_bit_fails_the_op() {
        let want = windows();
        let mut got = windows();
        let s = &mut got[1][2].stats[0];
        s.mean = f64::from_bits(s.mean.to_bits() ^ 1);
        assert!(same_windows(&got, &want).is_err());
        assert_ne!(
            digest(&got.concat(), DIGEST_SEED),
            digest(&want.concat(), DIGEST_SEED)
        );
        let mut short = windows();
        short[0].pop();
        assert!(same_windows(&short, &want).is_err());
    }

    #[test]
    fn balanced_accounting_passes() {
        assert_eq!(accounting(&balanced()), Ok(()));
    }

    #[test]
    fn a_broken_identity_fails_the_op() {
        let mut lost = balanced();
        lost.delivered -= 1;
        assert!(accounting(&lost).is_err());
        let mut unclassified = balanced();
        unclassified.health.accepted -= 1;
        assert!(accounting(&unclassified).is_err());
        let mut silent = balanced();
        silent.rejected += 1;
        assert!(accounting(&silent).is_err());
    }
}
