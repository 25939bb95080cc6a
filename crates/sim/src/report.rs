//! Aggregated results of a simulation run.

use mcds_model::{Cycles, Words};
use serde::{Deserialize, Serialize};

/// Timing and transfer totals of one executed schedule: its makespan,
/// busy times and transfer volumes. The per-op spans are
/// [`Simulator::timeline`](crate::Simulator::timeline)'s.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimReport {
    total: Cycles,
    dma_busy: Cycles,
    rc_busy: Cycles,
    data_words_loaded: Words,
    data_words_stored: Words,
    context_words_loaded: u64,
}

impl SimReport {
    pub(crate) fn new(
        total: Cycles,
        dma_busy: Cycles,
        rc_busy: Cycles,
        data_words_loaded: Words,
        data_words_stored: Words,
        context_words_loaded: u64,
    ) -> Self {
        SimReport {
            total,
            dma_busy,
            rc_busy,
            data_words_loaded,
            data_words_stored,
            context_words_loaded,
        }
    }

    /// Makespan of the schedule: the finish time of its last op.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Cycles the DMA channel spent transferring.
    #[must_use]
    pub fn dma_busy(&self) -> Cycles {
        self.dma_busy
    }

    /// Cycles the RC array spent computing (including setup overhead).
    #[must_use]
    pub fn rc_busy(&self) -> Cycles {
        self.rc_busy
    }

    /// Data words loaded from external memory.
    #[must_use]
    pub fn data_words_loaded(&self) -> Words {
        self.data_words_loaded
    }

    /// Data words stored to external memory.
    #[must_use]
    pub fn data_words_stored(&self) -> Words {
        self.data_words_stored
    }

    /// Total external data traffic (loads + stores).
    #[must_use]
    pub fn data_words_total(&self) -> Words {
        self.data_words_loaded + self.data_words_stored
    }

    /// Context words loaded into the Context Memory.
    #[must_use]
    pub fn context_words_loaded(&self) -> u64 {
        self.context_words_loaded
    }

    /// Fraction of the makespan the RC array was busy, in `[0, 1]`.
    #[must_use]
    pub fn rc_utilization(&self) -> f64 {
        ratio(self.rc_busy, self.total())
    }

    /// Fraction of the makespan the DMA channel was busy, in `[0, 1]`.
    #[must_use]
    pub fn dma_utilization(&self) -> f64 {
        ratio(self.dma_busy, self.total())
    }

    /// Relative improvement of `self` over a `baseline` run:
    /// `(T_base − T_self) / T_base`, the metric of Figure 6 in the
    /// paper. Negative if `self` is slower.
    #[must_use]
    pub fn improvement_over(&self, baseline: &SimReport) -> f64 {
        let base = baseline.total().get();
        if base == 0 {
            return 0.0;
        }
        let own = self.total().get();
        (base as f64 - own as f64) / base as f64
    }
}

fn ratio(part: Cycles, whole: Cycles) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        part.get() as f64 / whole.get() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(total: u64, dma: u64, rc: u64) -> SimReport {
        SimReport::new(
            Cycles::new(total),
            Cycles::new(dma),
            Cycles::new(rc),
            Words::new(10),
            Words::new(4),
            3,
        )
    }

    #[test]
    fn utilization() {
        let r = report(100, 40, 80);
        assert!((r.dma_utilization() - 0.4).abs() < 1e-12);
        assert!((r.rc_utilization() - 0.8).abs() < 1e-12);
        assert_eq!(r.data_words_total(), Words::new(14));
    }

    #[test]
    fn improvement_metric() {
        let base = report(200, 0, 0);
        let fast = report(150, 0, 0);
        let slow = report(250, 0, 0);
        assert!((fast.improvement_over(&base) - 0.25).abs() < 1e-12);
        assert!(slow.improvement_over(&base) < 0.0);
        assert_eq!(base.improvement_over(&base), 0.0);
    }

    #[test]
    fn zero_total_edge_cases() {
        let z = SimReport::new(
            Cycles::ZERO,
            Cycles::ZERO,
            Cycles::ZERO,
            Words::ZERO,
            Words::ZERO,
            0,
        );
        assert_eq!(z.rc_utilization(), 0.0);
        assert_eq!(z.improvement_over(&z), 0.0);
    }
}
