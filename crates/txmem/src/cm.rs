//! The contention manager: one task-aware rule for both runtimes.
//!
//! §3.2 of the paper ("Preventing inter-thread deadlocks"): when two
//! transactions conflict on a write lock, the decision is taken per
//! *user-transaction*, not per task, otherwise two user-threads can block
//! each other forever. The rule (Algorithm 2, `cm-should-abort`):
//!
//! 1. compare the **progress** of the two user-transactions — the number of
//!    their tasks that have already completed; the *more speculative* one
//!    (fewer completed tasks) aborts;
//! 2. on a tie, fall back to SwissTM's **two-phase greedy** manager. A
//!    transaction starts *timid* ([`TIMID`]) and, after
//!    [`GREEDY_AFTER_ABORTS`] aborts in a row, draws a ticket from its
//!    substrate ([`crate::GreedyTicket`]); the older (smaller) ticket wins,
//!    and between two timid transactions the requester yields.
//!
//! A plain SwissTM transaction is the one-task case: its progress is always
//! 0, so SwissTM against SwissTM is exactly two-phase greedy, and a SwissTM
//! thread and a TLSTM user-thread over one substrate resolve their lock
//! cycles through the same rule. [`TxSubstrate::contend`] is the one
//! conflict path both runtimes call: it finds the owner
//! ([`TxSubstrate::owner_of`]) and applies [`resolve`].

use crate::error::{Abort, AbortReason};
use crate::lock_table::LockEntry;
use crate::owner::{CmDecision, LockOwner, OwnerToken};
use crate::stats::StatsShard;
use crate::TxSubstrate;

/// Priority value meaning "still in the timid phase".
pub const TIMID: u64 = u64::MAX;

/// Number of consecutive aborts (SwissTM) or rollbacks (TLSTM) after which a
/// transaction leaves the timid phase and draws a greedy ticket.
pub const GREEDY_AFTER_ABORTS: u32 = 2;

/// `true` if a transaction that has aborted `aborts` consecutive times should
/// draw a greedy ticket.
pub fn should_turn_greedy(aborts: u32) -> bool {
    aborts >= GREEDY_AFTER_ABORTS
}

/// Resolves a write/write conflict between `requester` and the `owner` of
/// the lock it wants, and returns what the *requester* should do. On
/// [`CmDecision::AbortOwner`] the owner has already been signalled.
pub fn resolve(requester: &dyn LockOwner, owner: &dyn LockOwner) -> CmDecision {
    if owner.is_finishing() {
        // The owner is committing or already aborting: its locks will be
        // released shortly, so the requester just waits.
        return CmDecision::Wait;
    }
    let owner_loses = match requester
        .completed_progress()
        .cmp(&owner.completed_progress())
    {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        // Equal priorities only happen while both sides are timid; the
        // requester, which has not acquired the lock, yields.
        std::cmp::Ordering::Equal => requester.cm_priority() < owner.cm_priority(),
    };
    if owner_loses {
        owner.signal_abort();
        CmDecision::AbortOwner
    } else {
        CmDecision::AbortSelf
    }
}

impl TxSubstrate {
    /// The conflict path of both runtimes: `requester` lost the race for
    /// `entry`'s w-lock to `token`. Looks the owner up, applies [`resolve`]
    /// and counts the decision in `stats`. `Ok` means: wait for the lock and
    /// retry the acquisition (also when the owner is already gone).
    ///
    /// # Errors
    ///
    /// [`AbortReason::InterThreadWriteConflict`] when the requester must
    /// abort.
    pub fn contend(
        &self,
        stats: &StatsShard,
        entry: &LockEntry,
        token: OwnerToken,
        requester: &dyn LockOwner,
    ) -> Result<(), Abort> {
        let Some(owner) = self.owner_of(entry, token) else {
            return Ok(());
        };
        match resolve(requester, owner.as_ref()) {
            CmDecision::AbortSelf => {
                stats.cm_self_aborts.inc();
                Err(Abort::new(AbortReason::InterThreadWriteConflict))
            }
            CmDecision::AbortOwner => {
                stats.cm_owner_aborts.inc();
                Ok(())
            }
            CmDecision::Wait => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxDescriptor;
    use std::borrow::Borrow;

    /// A TLSTM-like user-transaction: a descriptor plus `progress` completed
    /// tasks.
    #[derive(Debug)]
    struct Txn {
        descriptor: TxDescriptor,
        progress: u64,
    }

    impl Borrow<TxDescriptor> for Txn {
        fn borrow(&self) -> &TxDescriptor {
            &self.descriptor
        }
    }

    impl LockOwner for Txn {
        fn signal_abort(&self) {
            self.descriptor.signal_abort();
        }
        fn is_finishing(&self) -> bool {
            self.descriptor.is_finishing()
        }
        fn completed_progress(&self) -> u64 {
            self.progress
        }
        fn cm_priority(&self) -> u64 {
            self.descriptor.priority()
        }
    }

    /// A SwissTM transaction at `priority`.
    fn swiss(priority: u64) -> TxDescriptor {
        TxDescriptor::new(priority)
    }

    /// A TLSTM user-transaction with `progress` completed tasks at
    /// `priority`.
    fn tlstm(progress: u64, priority: u64) -> Txn {
        Txn {
            descriptor: TxDescriptor::new(priority),
            progress,
        }
    }

    /// `owner`, already committing.
    fn finishing<O: Borrow<TxDescriptor>>(owner: O) -> O {
        owner.borrow().set_finishing();
        owner
    }

    /// `owner`, already asked to abort.
    fn aborting<O: Borrow<TxDescriptor>>(owner: O) -> O {
        owner.borrow().signal_abort();
        owner
    }

    /// Resolves one conflict and checks the decision, and that the owner was
    /// signalled exactly when it loses.
    fn check(requester: &dyn LockOwner, owner: &dyn LockOwner, want: CmDecision) {
        let was_finishing = owner.is_finishing();
        assert_eq!(
            resolve(requester, owner),
            want,
            "{requester:?} vs {owner:?}"
        );
        let signalled = !was_finishing && owner.is_finishing();
        assert_eq!(signalled, want == CmDecision::AbortOwner, "{owner:?}");
    }

    /// The decision table: each row is one test of `requester, owner =>
    /// decision` cases.
    macro_rules! decision_table {
        ($($name:ident { $($requester:expr, $owner:expr => $want:ident;)+ })*) => {
            $(#[test]
            fn $name() {
                $(check(&$requester, &$owner, CmDecision::$want);)+
            })*
        };
    }

    decision_table! {
        // Two-phase greedy (SwissTM against SwissTM).
        timid_requester_aborts_itself {
            swiss(TIMID), swiss(TIMID) => AbortSelf;
        }
        greedy_beats_timid_owner {
            swiss(3), swiss(TIMID) => AbortOwner;
        }
        older_greedy_beats_younger_greedy {
            swiss(5), swiss(10) => AbortOwner;
            swiss(20), swiss(10) => AbortSelf;
        }
        finishing_owner_means_wait {
            swiss(0), finishing(swiss(TIMID)) => Wait;
            tlstm(2, TIMID), finishing(tlstm(0, TIMID)) => Wait;
        }
        // Task-aware (TLSTM against TLSTM).
        less_speculative_transaction_wins {
            tlstm(2, TIMID), tlstm(0, TIMID) => AbortOwner;
            tlstm(0, TIMID), tlstm(2, TIMID) => AbortSelf;
        }
        equal_progress_falls_back_to_greedy {
            tlstm(1, TIMID), tlstm(1, TIMID) => AbortSelf;
            tlstm(1, 1), tlstm(1, TIMID) => AbortOwner;
        }
        already_aborting_owner_means_wait {
            tlstm(2, TIMID), aborting(tlstm(0, TIMID)) => Wait;
        }
        // Mixed: a SwissTM transaction is a TLSTM one with no completed task.
        completed_tasks_beat_a_swisstm_owner {
            tlstm(1, TIMID), swiss(0) => AbortOwner;
        }
        completed_tasks_beat_a_swisstm_requester {
            swiss(0), tlstm(1, TIMID) => AbortSelf;
        }
        mixed_tie_goes_to_greedy {
            tlstm(0, 4), swiss(9) => AbortOwner;
            swiss(4), tlstm(0, 9) => AbortOwner;
            swiss(TIMID), tlstm(0, TIMID) => AbortSelf;
            tlstm(0, TIMID), swiss(TIMID) => AbortSelf;
            swiss(0), finishing(tlstm(0, TIMID)) => Wait;
        }
    }

    #[test]
    fn greedy_threshold_respected() {
        assert_eq!(GREEDY_AFTER_ABORTS, 2);
        assert!(!should_turn_greedy(0));
        assert!(!should_turn_greedy(1));
        assert!(should_turn_greedy(2));
        assert!(should_turn_greedy(10));
    }
}
