//! Execution timelines and Gantt rendering.

use mcds_model::Cycles;
use serde::{Deserialize, Serialize};

use crate::op::{OpId, OpKind, OpSchedule};

/// When one op executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSpan {
    /// The op.
    pub op: OpId,
    /// Start time.
    pub start: Cycles,
    /// Completion time (exclusive).
    pub finish: Cycles,
}

impl OpSpan {
    /// Duration of the span.
    #[must_use]
    pub fn duration(&self) -> Cycles {
        self.finish - self.start
    }
}

/// The full execution record of an [`OpSchedule`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timeline {
    spans: Vec<OpSpan>,
    total: Cycles,
}

impl Timeline {
    pub(crate) fn new(spans: Vec<OpSpan>) -> Self {
        let total = spans.iter().map(|s| s.finish).max().unwrap_or(Cycles::ZERO);
        Timeline { spans, total }
    }

    /// Per-op spans, in op order.
    #[must_use]
    pub fn spans(&self) -> &[OpSpan] {
        &self.spans
    }

    /// Makespan: the finish time of the last op.
    #[must_use]
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// The span of a specific op.
    ///
    /// # Panics
    ///
    /// Panics if `op` is out of range.
    #[must_use]
    pub fn span(&self, op: OpId) -> OpSpan {
        self.spans[op.index()]
    }
}

/// Renders a three-lane ASCII Gantt chart (DMA-data / DMA-context / RC
/// array) of a simulated timeline — handy in examples and when debugging
/// schedules.
///
/// `width` is the number of character columns the makespan is scaled to.
#[must_use]
pub fn render_gantt(schedule: &OpSchedule, timeline: &Timeline, width: usize) -> String {
    let total = timeline.total().get().max(1);
    let width = width.max(10);
    let mut lanes = [
        vec![' '; width], // data transfers
        vec![' '; width], // context transfers
        vec![' '; width], // compute
    ];
    for span in timeline.spans() {
        let (lane, ch) = match schedule.op(span.op).kind() {
            OpKind::LoadData { .. } => (0, 'L'),
            OpKind::StoreData { .. } => (0, 'S'),
            OpKind::LoadContext { .. } => (1, 'C'),
            OpKind::Compute { .. } => (2, '#'),
        };
        let a = (span.start.get() * width as u64 / total) as usize;
        let b = ((span.finish.get() * width as u64).div_ceil(total) as usize).min(width);
        for cell in &mut lanes[lane][a..b.max(a + 1).min(width)] {
            *cell = ch;
        }
    }
    let names = ["dma-data", "dma-ctx ", "rc-array"];
    let mut out = String::new();
    for (name, lane) in names.iter().zip(lanes.iter()) {
        out.push_str(name);
        out.push_str(" |");
        out.extend(lane.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!("total: {}\n", timeline.total()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpScheduleBuilder;
    use mcds_model::{FbSet, KernelId, Words};

    #[test]
    fn span_duration() {
        let s = OpSpan {
            op: OpId::new(0),
            start: Cycles::new(10),
            finish: Cycles::new(25),
        };
        assert_eq!(s.duration(), Cycles::new(15));
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new(Vec::new());
        assert_eq!(t.total(), Cycles::ZERO);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn gantt_renders_all_lanes() {
        let mut b = OpScheduleBuilder::new();
        let l = b.load_data(FbSet::Set0, Words::new(10), &[]);
        let c = b.load_context(10, &[l]);
        let k = b.compute(KernelId::new(0), FbSet::Set0, Cycles::new(10), &[c]);
        let s = b.build().expect("valid");
        let t = Timeline::new(vec![
            OpSpan {
                op: l,
                start: Cycles::ZERO,
                finish: Cycles::new(10),
            },
            OpSpan {
                op: c,
                start: Cycles::new(10),
                finish: Cycles::new(20),
            },
            OpSpan {
                op: k,
                start: Cycles::new(20),
                finish: Cycles::new(30),
            },
        ]);
        let g = render_gantt(&s, &t, 30);
        assert!(g.contains('L'));
        assert!(g.contains('C'));
        assert!(g.contains('#'));
        assert!(g.contains("total: 30cy"));
        assert_eq!(g.lines().count(), 4);
    }
}
