//! The bounded admission queue: one FIFO lane per QoS class, drained
//! in strict priority order, with the dequeue-side queue-delay governor.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mcds_core::{CancelToken, SchedulerKind};

use super::resolve::Resolved;
use crate::cache::{FlightGuard, Token};
use crate::protocol::QosClass;

/// One admitted computation.
pub(super) struct Job {
    pub(super) resolved: Arc<Resolved>,
    /// Scheduler actually run (`Ds` when routed degraded upfront).
    pub(super) kind: SchedulerKind,
    /// `true` when the request was routed to the degraded scheduler
    /// upfront (tight deadline). Degraded jobs run clean and
    /// uncancellable — they exist to return *something*.
    pub(super) degraded: bool,
    pub(super) cancel: Option<CancelToken>,
    pub(super) guard: FlightGuard,
    /// The leader's reply token (waiter tokens live in the cache).
    pub(super) leader: Token,
    /// Lane this job was admitted on.
    pub(super) class: QosClass,
    /// When the job entered its lane — drives the queue-delay governor
    /// and the dequeue-side deadline drop.
    pub(super) enqueued: Instant,
}

struct QueueState {
    /// One FIFO per class, indexed by [`QosClass::index`] and drained
    /// in strict priority order.
    lanes: [VecDeque<Box<Job>>; 3],
    closed: bool,
}

/// The bounded admission queue, split into strict-priority QoS lanes.
pub(super) struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    /// Per-lane capacity, indexed by [`QosClass::index`].
    quotas: [usize; 3],
    /// Sojourn beyond which lower lanes are shed at dequeue (`None`
    /// disables the governor).
    shed_after: Option<Duration>,
}

impl JobQueue {
    pub(super) fn new(quotas: [usize; 3], shed_after: Option<Duration>) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
            }),
            available: Condvar::new(),
            quotas,
            shed_after,
        }
    }

    /// Admits the job onto its class lane, or hands it back (with
    /// whether the queue was closed rather than the lane full) — the
    /// caller turns that into a typed rejection.
    pub(super) fn try_push(&self, job: Box<Job>) -> Result<(), (Box<Job>, bool)> {
        let lane = job.class.index();
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err((job, true));
        }
        if state.lanes[lane].len() >= self.quotas[lane] {
            return Err((job, false));
        }
        state.lanes[lane].push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Next job in strict priority order, blocking; `None` once the
    /// queue is closed and drained. When the popped job itself waited
    /// longer than `shed_after`, the queue is congested: stale heads
    /// of every lane *below* the popped one are shed (lowest class
    /// first) and returned for the caller to answer `overloaded` —
    /// the priority lane can never appear below another and so is
    /// never shed.
    // Shed jobs stay boxed: they were boxed on the lane and the caller
    // answers each one exactly as it would a popped job.
    #[allow(clippy::vec_box)]
    pub(super) fn pop(&self) -> Option<(Box<Job>, Vec<Box<Job>>)> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            let lane = state.lanes.iter().position(|l| !l.is_empty());
            if let Some(lane) = lane {
                let job = state.lanes[lane].pop_front().expect("non-empty lane");
                let mut shed = Vec::new();
                if let Some(limit) = self.shed_after {
                    if job.enqueued.elapsed() > limit {
                        for lower in ((lane + 1)..state.lanes.len()).rev() {
                            while state.lanes[lower]
                                .front()
                                .is_some_and(|j| j.enqueued.elapsed() > limit)
                            {
                                shed.push(state.lanes[lower].pop_front().expect("checked front"));
                            }
                        }
                    }
                }
                return Some((job, shed));
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Current per-lane depths `[priority, standard, batch]`.
    pub(super) fn depths(&self) -> [usize; 3] {
        let state = self.state.lock().expect("queue lock");
        [
            state.lanes[0].len(),
            state.lanes[1].len(),
            state.lanes[2].len(),
        ]
    }

    pub(super) fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }
}
