//! Minimal discrete-event machinery used by the workflow executor.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use aarc_workflow::NodeId;

/// Simulation time in integer microseconds (integer so events order totally).
pub type SimTime = u64;

/// Converts milliseconds (as used throughout the performance model) to
/// microsecond simulation ticks: `(ms.max(0.0) * 1000.0).round() as u64`,
/// bit for bit, without the libm `round` call.
///
/// Negative inputs and NaN map to 0 (`max` returns its non-NaN operand).
/// For `0 ≤ x < 2^52` the truncation `t = x as i64` is exact, and so is
/// the fraction `x - t as f64` (for `t ≥ 1`, `t ≤ x < 2t` and Sterbenz's
/// lemma applies; for `t = 0` it is `x` itself), so adding one when the
/// fraction is at least ½ rounds half away from zero, as `round` does.
/// Every `f64` from `2^52` up is already an integer, and those values and
/// infinity keep `round` and the saturating conversion. The signed
/// conversions are single instructions on baseline x86-64, where the
/// unsigned ones are not.
pub fn ms_to_ticks(ms: f64) -> SimTime {
    const EXACT_BELOW: f64 = (1u64 << 52) as f64;
    let x = ms.max(0.0) * 1_000.0;
    if x < EXACT_BELOW {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as SimTime
    } else {
        x.round() as SimTime
    }
}

/// Converts microsecond ticks back to milliseconds.
pub fn ticks_to_ms(ticks: SimTime) -> f64 {
    ticks as f64 / 1_000.0
}

/// Events processed by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// All dependencies (and data transfers) of a function are satisfied.
    FunctionReady(NodeId),
    /// A running function finished and releases its container resources.
    FunctionFinished(NodeId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list: events pop in time order, ties broken
/// by insertion order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, event }));
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.time, s.event))
    }

    /// Drops all pending events and restarts the tie-breaking sequence
    /// counter, keeping the heap's allocation. A cleared queue behaves
    /// exactly like a freshly constructed one, which is what lets
    /// [`SimScratch`](crate::kernel::SimScratch) reuse it across
    /// simulations without perturbing event order.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(300, Event::FunctionReady(NodeId::new(2)));
        q.push(100, Event::FunctionReady(NodeId::new(0)));
        q.push(200, Event::FunctionFinished(NodeId::new(1)));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(50, Event::FunctionReady(NodeId::new(0)));
        q.push(50, Event::FunctionReady(NodeId::new(1)));
        q.push(50, Event::FunctionReady(NodeId::new(2)));
        let nodes: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::FunctionReady(n) | Event::FunctionFinished(n) => n.index(),
            })
        })
        .collect();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn conversion_round_trip() {
        assert_eq!(ms_to_ticks(1.5), 1500);
        assert_eq!(ticks_to_ms(1500), 1.5);
        assert_eq!(ms_to_ticks(-3.0), 0);
    }

    /// The conversion `ms_to_ticks` must reproduce bit for bit.
    fn libm_ticks(ms: f64) -> SimTime {
        (ms.max(0.0) * 1_000.0).round() as SimTime
    }

    #[test]
    fn ms_to_ticks_matches_libm_round_on_edge_cases() {
        let two_52 = (1u64 << 52) as f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.0005,
            0.0004999999999999999,
            1.5,
            2.5,
            1e-3 * 0.5,
            two_52 / 1_000.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // 2^52 ± ½ and the values around it, in the tick domain.
        for x in [two_52 - 0.5, two_52, two_52 + 1.0, two_52 - 1.0] {
            for k in -2i64..=2 {
                cases.push(f64::from_bits((x.to_bits() as i64 + k) as u64) / 1_000.0);
            }
        }
        for ms in cases {
            assert_eq!(ms_to_ticks(ms), libm_ticks(ms), "ms = {ms:e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]

        #[test]
        fn ms_to_ticks_matches_libm_round(
            bits in 0u64..u64::MAX,
            tick in 0u64..(1u64 << 50),
            step in 0u64..5,
        ) {
            // Any bit pattern (NaN, infinities, subnormals, negatives).
            let raw = f64::from_bits(bits);
            proptest::prop_assert_eq!(ms_to_ticks(raw), libm_ticks(raw), "bits {:#x}", bits);
            // A realistic tick plus one half, and its neighbouring `f64`s.
            let half = (tick as f64 + 0.5) / 1_000.0;
            let near = f64::from_bits(half.to_bits() + step - 2);
            for ms in [half, near, tick as f64 / 1_000.0] {
                proptest::prop_assert_eq!(ms_to_ticks(ms), libm_ticks(ms), "ms {:e}", ms);
            }
        }
    }

    #[test]
    fn clear_resets_events_and_tie_breaking() {
        let mut q = EventQueue::new();
        q.push(10, Event::FunctionReady(NodeId::new(0)));
        q.push(10, Event::FunctionReady(NodeId::new(1)));
        q.clear();
        assert!(q.is_empty());
        // After a clear, insertion-order tie breaking restarts from scratch:
        // the queue is indistinguishable from a new one.
        q.push(5, Event::FunctionReady(NodeId::new(2)));
        q.push(5, Event::FunctionReady(NodeId::new(1)));
        let nodes: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::FunctionReady(n) | Event::FunctionFinished(n) => n.index(),
            })
        })
        .collect();
        assert_eq!(nodes, vec![2, 1]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::FunctionReady(NodeId::new(0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
