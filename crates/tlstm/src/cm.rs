//! The task-aware inter-thread contention manager.
//!
//! §3.2 of the paper ("Preventing inter-thread deadlocks"): when tasks of
//! different user-threads conflict on a write lock, the contention manager
//! must decide per *user-transaction*, not per task, otherwise two
//! user-threads can block each other forever (each lock owner waiting for its
//! own past tasks, each requester waiting for the owner).
//!
//! The rule (Algorithm 2, `cm-should-abort`):
//!
//! 1. compare the **progress** of the two user-transactions — the number of
//!    their tasks that have already completed; the *more speculative* one
//!    (fewer completed tasks) aborts;
//! 2. on a tie, fall back to the classic two-phase greedy contention manager
//!    inherited from SwissTM.

use swisstm::cm::GreedyCm;
use txmem::{CmDecision, LockOwner};

use crate::txn_state::TxnShared;

/// The task-aware contention-manager policy (stateless, like its two-phase
/// greedy tie-break).
#[derive(Debug, Clone, Copy)]
pub struct TaskAwareCm;

impl TaskAwareCm {
    /// Resolves a conflict between the requesting task's user-transaction
    /// (`requester`) and the current owner of the write lock.
    ///
    /// Returns what the *requester* should do; when the decision is
    /// [`CmDecision::AbortOwner`] the owner has already been signalled.
    pub fn resolve(requester: &TxnShared, owner: &dyn LockOwner) -> CmDecision {
        if owner.is_finishing() {
            // The owner is committing or already aborting: its locks will be
            // released shortly, so the requester just waits.
            return CmDecision::Wait;
        }
        let my_progress = requester.completed_progress();
        let owner_progress = owner.completed_progress();
        if my_progress > owner_progress {
            // The owner is more speculative: abort it and wait for the lock.
            owner.signal_abort();
            return CmDecision::AbortOwner;
        }
        if my_progress < owner_progress {
            // We are more speculative: abort ourselves.
            return CmDecision::AbortSelf;
        }
        // Same progress: fall back to two-phase greedy priorities.
        let decision = GreedyCm::resolve(requester.priority(), owner);
        if decision == CmDecision::AbortOwner {
            owner.signal_abort();
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uthread_state::UThreadShared;
    use std::sync::Arc;

    fn txn_with_progress(
        ptid: u32,
        completed: u64,
        n_tasks: u64,
    ) -> (Arc<UThreadShared>, TxnShared) {
        let u = Arc::new(UThreadShared::new(ptid, n_tasks.max(1) as usize));
        let t = TxnShared::new(Arc::clone(&u), 1, n_tasks.max(1));
        for s in 1..=completed {
            u.mark_completed(s, false);
        }
        (u, t)
    }

    #[test]
    fn less_speculative_transaction_wins() {
        let (_ua, a) = txn_with_progress(0, 2, 3); // 2 tasks completed
        let (_ub, b) = txn_with_progress(1, 0, 3); // none completed

        // a requests a lock owned by b: a has more progress, b gets aborted.
        assert_eq!(TaskAwareCm::resolve(&a, &b), CmDecision::AbortOwner);
        assert!(b.abort_requested());
        // b requests a lock owned by a: b is more speculative, aborts itself.
        let (_ua, a) = txn_with_progress(0, 2, 3);
        let (_ub, b) = txn_with_progress(1, 0, 3);
        assert_eq!(TaskAwareCm::resolve(&b, &a), CmDecision::AbortSelf);
        assert!(!a.abort_requested());
    }

    #[test]
    fn equal_progress_falls_back_to_greedy() {
        // Both timid, equal progress: requester politely aborts itself.
        let (_ua, a) = txn_with_progress(0, 1, 2);
        let (_ub, b) = txn_with_progress(1, 1, 2);
        assert_eq!(TaskAwareCm::resolve(&a, &b), CmDecision::AbortSelf);
        // Requester holds an older greedy ticket: owner aborts.
        a.set_priority(1);
        assert_eq!(TaskAwareCm::resolve(&a, &b), CmDecision::AbortOwner);
        assert!(b.abort_requested());
    }

    #[test]
    fn finishing_owner_means_wait() {
        let (_ua, a) = txn_with_progress(0, 2, 3);
        let (_ub, b) = txn_with_progress(1, 0, 3);
        b.set_finishing();
        assert_eq!(TaskAwareCm::resolve(&a, &b), CmDecision::Wait);
        assert!(!b.abort_requested());
    }

    #[test]
    fn already_aborting_owner_means_wait() {
        let (_ua, a) = txn_with_progress(0, 2, 3);
        let (_ub, b) = txn_with_progress(1, 0, 3);
        b.request_abort();
        assert_eq!(TaskAwareCm::resolve(&a, &b), CmDecision::Wait);
    }
}
