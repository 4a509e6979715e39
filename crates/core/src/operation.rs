//! Resource-shrink operations and the priority queue driving Algorithm 2.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use aarc_workflow::NodeId;

/// Which resource dimension an operation shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpType {
    /// Shrink the vCPU allocation.
    Cpu,
    /// Shrink the memory allocation.
    Mem,
}

/// One pending shrink operation: *"reduce resource `op_type` of function
/// `node` by `step` (a fraction of the base allocation); `trail` reverts
/// remain before the operation is abandoned"* (Algorithm 2, lines 5–8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    /// The function whose resources are shrunk.
    pub node: NodeId,
    /// The resource dimension.
    pub op_type: OpType,
    /// Current step size as a fraction of the base allocation.
    pub step: f64,
    /// Remaining revert budget (the paper's `trail`; the operation is
    /// dropped when it reaches zero).
    pub trail: u32,
}

impl Operation {
    /// Creates a fresh operation with the given initial step and trial
    /// budget.
    pub fn new(node: NodeId, op_type: OpType, step: f64, trail: u32) -> Self {
        Operation {
            node,
            op_type,
            step,
            trail,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct QueuedOp {
    priority: f64,
    seq: u64,
    op: Operation,
}

impl Eq for QueuedOp {}

impl Ord for QueuedOp {
    fn cmp(&self, other: &Self) -> Ordering {
        // Higher priority pops first; ties resolve to the earlier insertion
        // for determinism. NaN priorities are treated as the lowest.
        self.priority
            .partial_cmp(&other.priority)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedOp {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Max-priority queue of [`Operation`]s (the paper's `PQ`).
///
/// Fresh operations are pushed with infinite priority, successful ones are
/// re-enqueued with their cost saving as priority, and reverted-but-alive
/// ones with priority zero — so the queue always prefers untried operations,
/// then the historically most profitable ones.
#[derive(Debug, Default)]
pub struct OperationQueue {
    heap: BinaryHeap<QueuedOp>,
    seq: u64,
}

impl OperationQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        OperationQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Pushes `op` with the given priority (higher pops first).
    pub fn push(&mut self, op: Operation, priority: f64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedOp { priority, seq, op });
    }

    /// Pops the highest-priority operation.
    pub fn pop(&mut self) -> Option<Operation> {
        self.heap.pop().map(|q| q.op)
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(i: usize, t: OpType) -> Operation {
        Operation::new(NodeId::new(i), t, 0.2, 3)
    }

    #[test]
    fn higher_priority_pops_first() {
        let mut q = OperationQueue::new();
        q.push(op(0, OpType::Cpu), 1.0);
        q.push(op(1, OpType::Mem), 10.0);
        q.push(op(2, OpType::Cpu), 5.0);
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|o| o.node.index())).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn infinite_priority_beats_everything() {
        let mut q = OperationQueue::new();
        q.push(op(0, OpType::Cpu), 1e12);
        q.push(op(1, OpType::Mem), f64::INFINITY);
        assert_eq!(q.pop().unwrap().node.index(), 1);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = OperationQueue::new();
        for i in 0..4 {
            q.push(op(i, OpType::Cpu), f64::INFINITY);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|o| o.node.index())).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = OperationQueue::new();
        assert!(q.is_empty());
        q.push(op(0, OpType::Mem), 0.0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn nan_priority_is_lowest_not_a_panic() {
        let mut q = OperationQueue::new();
        q.push(op(0, OpType::Cpu), f64::NAN);
        q.push(op(1, OpType::Cpu), 0.0);
        // Both pop without panicking; the NaN entry never outranks a real
        // priority at the top.
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        assert_ne!(first.node, second.node);
    }
}
