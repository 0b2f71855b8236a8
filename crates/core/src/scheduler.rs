//! Fair multi-tenant job scheduling and cooperative cancellation.
//!
//! The control plane (see the `serscale-telemetry` crate) runs several
//! campaigns concurrently on behalf of several tenants. This module holds
//! the two pure, thread-free primitives that make that orderly:
//!
//! - [`FairQueue`] — FIFO within a tenant, round-robin across tenants.
//!   The fairness contract is documented on [`FairQueue::pop`] and pinned
//!   by unit tests: a tenant with queued work waits at most `T - 1` pops
//!   (where `T` is the number of tenants with queued work) between two of
//!   its own.
//! - [`CancelToken`] — a shared flag the engine polls at wave boundaries.
//!   Cancellation is cooperative and clean: no trial is torn mid-flight,
//!   the run journal stays resumable, and
//!   [`Campaign::try_run`](crate::campaign::Campaign::try_run) returns
//!   [`RunError::Cancelled`](crate::campaign::RunError::Cancelled) instead
//!   of fabricating a partial report.
//!
//! Neither type spawns threads or performs I/O; the runtime that wires
//! them to worker threads and HTTP lives in `serscale-telemetry`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag, checked cooperatively by the engine.
///
/// Cloning shares the flag; once [`cancel`](Self::cancel) is called every
/// clone observes it. The engine polls the token at wave boundaries only,
/// so a cancel lands after the current wave's absorbed trials have been
/// journaled and fsync'd — never mid-trial.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A multi-tenant queue: FIFO within each tenant, round-robin across
/// tenants.
///
/// Tenants enter the rotation in first-submission order and leave it when
/// their queue drains; a tenant that submits again re-enters at the back
/// of the rotation. See [`pop`](Self::pop) for the fairness bound.
#[derive(Debug)]
pub struct FairQueue<T> {
    /// Rotation of tenants with queued work, next to serve at the front.
    rotation: VecDeque<String>,
    /// Per-tenant FIFO queues, keyed parallel to `rotation`.
    queues: Vec<(String, VecDeque<T>)>,
    len: usize,
}

impl<T> Default for FairQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FairQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        FairQueue {
            rotation: VecDeque::new(),
            queues: Vec::new(),
            len: 0,
        }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` at the back of `tenant`'s FIFO. A tenant not
    /// currently in the rotation (first submission, or drained earlier)
    /// joins at the back of the rotation.
    pub fn push(&mut self, tenant: &str, item: T) {
        let queue = match self.queues.iter_mut().find(|(name, _)| name == tenant) {
            Some((_, queue)) => queue,
            None => {
                self.queues.push((tenant.to_string(), VecDeque::new()));
                &mut self.queues.last_mut().expect("just pushed").1
            }
        };
        if queue.is_empty() {
            self.rotation.push_back(tenant.to_string());
        }
        queue.push_back(item);
        self.len += 1;
    }

    /// Dequeues the next item round-robin: the tenant at the front of the
    /// rotation yields the oldest item of its FIFO, then moves to the back
    /// of the rotation (or leaves it if drained).
    ///
    /// **Fairness bound**: between two consecutive pops of the same
    /// tenant, at most `T - 1` items of other tenants are popped, where
    /// `T` is the number of tenants holding queued work during that span.
    /// With 2 tenants the interleaving is strictly alternating while both
    /// have work.
    pub fn pop(&mut self) -> Option<(String, T)> {
        let tenant = self.rotation.pop_front()?;
        let queue = &mut self
            .queues
            .iter_mut()
            .find(|(name, _)| *name == tenant)
            .expect("rotation tenant has a queue")
            .1;
        let item = queue.pop_front().expect("rotation tenant has queued work");
        if !queue.is_empty() {
            self.rotation.push_back(tenant.clone());
        }
        self.len -= 1;
        Some((tenant, item))
    }

    /// Removes the first queued item for which `matches` returns true,
    /// searching tenants in rotation order. Returns the item, or `None`
    /// if nothing matched. Used to cancel a job that has not started.
    pub fn remove(&mut self, mut matches: impl FnMut(&T) -> bool) -> Option<T> {
        for (tenant, queue) in &mut self.queues {
            if let Some(at) = queue.iter().position(&mut matches) {
                let item = queue.remove(at).expect("position just found");
                if queue.is_empty() {
                    self.rotation.retain(|name| name != tenant);
                }
                self.len -= 1;
                return Some(item);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_fires_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn fifo_within_a_single_tenant() {
        let mut queue = FairQueue::new();
        for i in 0..5 {
            queue.push("solo", i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop().map(|(_, i)| i)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(queue.is_empty());
    }

    #[test]
    fn two_tenants_alternate_strictly() {
        // 2 tenants × k queued jobs: the documented bound says strict
        // alternation while both tenants hold work, even though tenant A
        // submitted everything first.
        let k = 4;
        let mut queue = FairQueue::new();
        for i in 0..k {
            queue.push("a", format!("a{i}"));
        }
        for i in 0..k {
            queue.push("b", format!("b{i}"));
        }
        let order: Vec<(String, String)> = std::iter::from_fn(|| queue.pop()).collect();
        let expected: Vec<(String, String)> = (0..k)
            .flat_map(|i| {
                [
                    ("a".to_string(), format!("a{i}")),
                    ("b".to_string(), format!("b{i}")),
                ]
            })
            .collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn fairness_bound_holds_for_many_tenants() {
        // T tenants with staggered queue depths: between two consecutive
        // pops of the same tenant, at most T-1 other pops occur.
        let mut queue = FairQueue::new();
        let depths = [("t0", 6), ("t1", 3), ("t2", 5), ("t3", 1)];
        for (tenant, depth) in depths {
            for i in 0..depth {
                queue.push(tenant, i);
            }
        }
        let order: Vec<String> = std::iter::from_fn(|| queue.pop().map(|(t, _)| t)).collect();
        assert_eq!(order.len(), 15);
        for (at, tenant) in order.iter().enumerate() {
            if let Some(next) = order[at + 1..].iter().position(|t| t == tenant) {
                assert!(
                    next < depths.len(),
                    "tenant {tenant} waited {next} pops at position {at}: {order:?}"
                );
            }
        }
    }

    #[test]
    fn drained_tenant_reenters_at_the_back() {
        let mut queue = FairQueue::new();
        queue.push("a", 1);
        queue.push("b", 2);
        assert_eq!(queue.pop(), Some(("a".to_string(), 1))); // a drains
        queue.push("a", 3); // re-enters behind b
        assert_eq!(queue.pop(), Some(("b".to_string(), 2)));
        assert_eq!(queue.pop(), Some(("a".to_string(), 3)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn remove_plucks_a_queued_item_without_disturbing_order() {
        let mut queue = FairQueue::new();
        for i in 0..3 {
            queue.push("a", i);
            queue.push("b", 10 + i);
        }
        assert_eq!(queue.remove(|&i| i == 1), Some(1));
        assert_eq!(queue.remove(|&i| i == 99), None);
        assert_eq!(queue.len(), 5);
        let order: Vec<i32> = std::iter::from_fn(|| queue.pop().map(|(_, i)| i)).collect();
        assert_eq!(order, vec![0, 10, 2, 11, 12]);
    }

    #[test]
    fn removing_a_tenants_last_item_drops_it_from_rotation() {
        let mut queue = FairQueue::new();
        queue.push("a", 1);
        queue.push("b", 2);
        assert_eq!(queue.remove(|&i| i == 1), Some(1));
        assert_eq!(queue.pop(), Some(("b".to_string(), 2)));
        assert_eq!(queue.pop(), None);
        assert!(queue.is_empty());
    }
}
