//! The two-phase greedy contention manager.
//!
//! SwissTM resolves write/write conflicts with a *two-phase greedy* scheme:
//!
//! 1. **Timid phase** — a transaction starts without a ticket. On its first
//!    conflicts it simply aborts itself: it has done little work, so the abort
//!    is cheap and avoids any waiting.
//! 2. **Greedy phase** — after a transaction has been aborted
//!    [`GREEDY_AFTER_ABORTS`] times in a row it draws a unique, monotonically
//!    increasing ticket from its substrate ([`txmem::GreedyTicket`]). From then on it behaves greedily: on
//!    conflict, the transaction with the *older* (smaller) ticket wins; the
//!    loser either aborts itself (if it is the requester) or is signalled to
//!    abort (if it owns the lock), in which case the requester waits for the
//!    lock to be released.
//!
//! TLSTM reuses this manager as the tie-break when the task-aware rule (§3.2
//! of the paper) finds both user-transactions equally speculative.

use txmem::{CmDecision, LockOwner};

/// Priority value meaning "still in the timid phase".
pub const TIMID: u64 = u64::MAX;

/// Number of consecutive aborts (SwissTM) or rollbacks (TLSTM) after which a
/// transaction leaves the timid phase and draws a greedy ticket.
pub const GREEDY_AFTER_ABORTS: u32 = 2;

/// The two-phase greedy contention-manager policy.
///
/// The policy is stateless; per-transaction state (the priority and the
/// abort counter) lives in the transaction descriptors. This type exists so
/// the decision rule can be unit-tested and reused by TLSTM.
#[derive(Debug, Clone, Copy)]
pub struct GreedyCm;

impl GreedyCm {
    /// Returns `true` if a transaction that has aborted `aborts` consecutive
    /// times should draw a greedy ticket.
    pub fn should_turn_greedy(aborts: u32) -> bool {
        aborts >= GREEDY_AFTER_ABORTS
    }

    /// Resolves a write/write conflict between a requesting transaction
    /// (priority `requester_priority`) and the owner of the lock.
    ///
    /// The decision only consults priorities; the *task-aware* progress rule
    /// of TLSTM is applied by the caller before falling back to this
    /// tie-break.
    pub fn resolve(requester_priority: u64, owner: &dyn LockOwner) -> CmDecision {
        if owner.is_finishing() {
            // The owner is already committing or aborting: the lock will be
            // released shortly, so just wait.
            return CmDecision::Wait;
        }
        let owner_priority = owner.cm_priority();
        if requester_priority < owner_priority {
            CmDecision::AbortOwner
        } else {
            // Equal priorities only happen while both sides are timid; the
            // requester politely aborts itself (it is cheaper to restart the
            // side that has not yet acquired the lock).
            CmDecision::AbortSelf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[derive(Debug)]
    struct FakeOwner {
        priority: u64,
        finishing: bool,
        aborted: AtomicBool,
    }

    impl FakeOwner {
        fn new(priority: u64, finishing: bool) -> Self {
            FakeOwner {
                priority,
                finishing,
                aborted: AtomicBool::new(false),
            }
        }
    }

    impl LockOwner for FakeOwner {
        fn signal_abort(&self) {
            self.aborted.store(true, Ordering::Relaxed);
        }
        fn is_finishing(&self) -> bool {
            self.finishing
        }
        fn completed_progress(&self) -> u64 {
            0
        }
        fn cm_priority(&self) -> u64 {
            self.priority
        }
    }

    #[test]
    fn timid_requester_aborts_itself() {
        let owner = FakeOwner::new(TIMID, false);
        assert_eq!(GreedyCm::resolve(TIMID, &owner), CmDecision::AbortSelf);
    }

    #[test]
    fn greedy_beats_timid_owner() {
        let owner = FakeOwner::new(TIMID, false);
        assert_eq!(GreedyCm::resolve(3, &owner), CmDecision::AbortOwner);
    }

    #[test]
    fn older_greedy_beats_younger_greedy() {
        let owner = FakeOwner::new(10, false);
        assert_eq!(GreedyCm::resolve(5, &owner), CmDecision::AbortOwner);
        assert_eq!(GreedyCm::resolve(20, &owner), CmDecision::AbortSelf);
    }

    #[test]
    fn finishing_owner_means_wait() {
        let owner = FakeOwner::new(TIMID, true);
        assert_eq!(GreedyCm::resolve(0, &owner), CmDecision::Wait);
    }

    #[test]
    fn greedy_threshold_respected() {
        assert_eq!(GREEDY_AFTER_ABORTS, 2);
        assert!(!GreedyCm::should_turn_greedy(0));
        assert!(!GreedyCm::should_turn_greedy(1));
        assert!(GreedyCm::should_turn_greedy(2));
        assert!(GreedyCm::should_turn_greedy(10));
    }
}
