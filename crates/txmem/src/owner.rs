//! Who holds a write lock: owner tokens and the one owner lookup.
//!
//! When a transaction (SwissTM) or a user-thread's set of tasks (TLSTM) holds
//! a location's write lock, other threads that want the lock must consult the
//! contention manager ([`crate::cm`]), which needs to (a) inspect the owner's
//! progress/priority and (b) possibly signal it to abort. Both runtimes expose
//! that capability through the [`LockOwner`] trait. The w-lock itself stores
//! only the owner's [`OwnerToken`]; [`TxSubstrate::owner_of`] turns it into a
//! [`LockOwner`] for a contender of either runtime, from the newest entry of
//! the lock's write chain (a speculative TLSTM transaction) or else the
//! substrate's [`OwnerRegistry`] (a transaction on one thread).

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::lock_table::LockEntry;
use crate::TxSubstrate;

/// A compact token identifying which user-thread (TLSTM) or transaction
/// descriptor (SwissTM) owns a write lock.
///
/// `0` is reserved for "unlocked"; tokens handed to the lock table are always
/// `id + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerToken(u64);

impl OwnerToken {
    /// Token meaning "nobody owns the lock".
    pub const UNLOCKED: OwnerToken = OwnerToken(0);

    /// Builds a token from a thread / transaction id.
    #[inline]
    pub fn from_id(id: u32) -> Self {
        OwnerToken(u64::from(id) + 1)
    }

    /// Recovers the id, or `None` for the unlocked token.
    #[inline]
    pub fn id(self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some((self.0 - 1) as u32)
        }
    }

    /// Raw packed representation (for storing in an atomic).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a token from its raw representation.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        OwnerToken(raw)
    }

    /// `true` if this is the unlocked token.
    #[inline]
    pub fn is_unlocked(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for OwnerToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.id() {
            None => write!(f, "unlocked"),
            Some(id) => write!(f, "owner#{id}"),
        }
    }
}

/// Decision returned by [`crate::cm::resolve`] when two owners conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmDecision {
    /// The requester must abort (roll back its transaction / task).
    AbortSelf,
    /// The current owner was signalled to abort; the requester should wait for
    /// the lock to be released and then retry the acquisition.
    AbortOwner,
    /// Neither side aborts; the requester should simply wait and retry
    /// (used while the owner is already in the process of aborting).
    Wait,
}

/// Interface the lock table exposes to the contention manager for the current
/// owner of a write lock.
///
/// Implemented by [`crate::TxDescriptor`] (a SwissTM transaction) and by the
/// TLSTM user-transaction, which embeds one.
pub trait LockOwner: Send + Sync + fmt::Debug {
    /// Signals the owner that its user-transaction must abort.
    fn signal_abort(&self);

    /// `true` once the owner has observed (or completed) an abort request, or
    /// has already committed; in either case the lock will be released soon
    /// and waiting is the right strategy.
    fn is_finishing(&self) -> bool;

    /// Progress measure used by the task-aware contention manager: number
    /// of tasks of the owner's user-transaction that have already completed
    /// (always `0` for plain SwissTM transactions).
    fn completed_progress(&self) -> u64;

    /// Greedy-contention-manager priority: smaller value = older = stronger.
    /// Two-phase greedy assigns `u64::MAX` until the transaction aborts for
    /// the first time and acquires a real ticket.
    fn cm_priority(&self) -> u64;
}

/// Reference-counted owner handle stored in the lock table.
pub type OwnerHandle = Arc<dyn LockOwner>;

/// The descriptors of one-thread transactions ([`crate::Transaction`]),
/// indexed by owner id, one registry per lock table
/// ([`crate::TxSubstrate::owners`]), read by [`TxSubstrate::owner_of`] only:
/// every handle over a substrate reaches every SwissTM thread's descriptor,
/// and every TLSTM user-thread's solo one. A user-thread's speculative
/// transactions are not registered: several can be in flight under one
/// token, and only the lock's chain says which holds it. Lookups happen
/// only on the conflict path, so an `RwLock` is plenty.
#[derive(Debug, Default)]
pub struct OwnerRegistry {
    slots: RwLock<Vec<Option<OwnerHandle>>>,
}

impl OwnerRegistry {
    /// Publishes `handle` as the descriptor of owner `id`.
    pub fn register(&self, id: u32, handle: OwnerHandle) {
        let mut slots = self.slots.write();
        if slots.len() <= id as usize {
            slots.resize(id as usize + 1, None);
        }
        slots[id as usize] = Some(handle);
    }

    /// Retires owner `id`: late contenders wait for its released locks.
    pub fn unregister(&self, id: u32) {
        if let Some(slot) = self.slots.write().get_mut(id as usize) {
            *slot = None;
        }
    }

    /// The registered descriptor of the owner holding `token`, if any.
    pub fn get(&self, token: OwnerToken) -> Option<OwnerHandle> {
        let id = token.id()? as usize;
        self.slots.read().get(id).cloned().flatten()
    }
}

impl TxSubstrate {
    /// The owner of `entry`'s w-lock while it is held under `token`, for a
    /// contender of either runtime: the newest chain entry's TLSTM
    /// user-transaction, read under the chain mutex while the w-lock is
    /// still `token`'s, or else the registered descriptor of `token`'s
    /// one-thread transaction. The chain goes first: a TLSTM user-thread
    /// registers the descriptor of its solo transactions under the same
    /// token as its speculative ones, and only the chain says that a
    /// speculative one holds the lock. A solo transaction adds no chain
    /// entry, and its w-locks were free, so their chains are empty while it
    /// holds them. `None` once the owner is gone (the lock is about to be
    /// released).
    pub fn owner_of(&self, entry: &LockEntry, token: OwnerToken) -> Option<OwnerHandle> {
        if let Some(chain) = entry.try_chain() {
            if entry.writer_token() != token {
                return None;
            }
            if let Some(spec) = chain.newest() {
                return Some(OwnerHandle::clone(&spec.owner));
            }
        }
        self.owners.get(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trip() {
        let t = OwnerToken::from_id(7);
        assert_eq!(t.id(), Some(7));
        assert!(!t.is_unlocked());
        assert_eq!(OwnerToken::from_raw(t.raw()), t);
        assert_eq!(OwnerToken::UNLOCKED.id(), None);
        assert!(OwnerToken::UNLOCKED.is_unlocked());
    }

    #[test]
    fn token_display() {
        assert_eq!(OwnerToken::from_id(3).to_string(), "owner#3");
        assert_eq!(OwnerToken::UNLOCKED.to_string(), "unlocked");
    }

    #[test]
    fn owner_of_finds_registered_descriptors_then_chain_owners() {
        let sub = TxSubstrate::new(crate::TxConfig::small());
        let addr = sub.heap.alloc(1).unwrap();
        let (_, entry) = sub.locks.lookup(addr);
        let (swiss, tlstm) = (OwnerToken::from_id(0), OwnerToken::from_id(1));
        let descriptor: OwnerHandle = Arc::new(crate::TxDescriptor::new(7));
        sub.owners.register(0, Arc::clone(&descriptor));
        let found = sub.owner_of(entry, swiss).expect("registered");
        assert!(Arc::ptr_eq(&found, &descriptor));
        // An unregistered token with no chain entry has no owner to resolve.
        assert!(sub.owner_of(entry, tlstm).is_none());
        // A TLSTM owner is the newest chain entry's, while the w-lock is its.
        let txn: OwnerHandle = Arc::new(crate::TxDescriptor::new(3));
        entry.try_acquire_writer(tlstm).unwrap();
        entry.chain().record_write(1, &txn, addr, 9);
        let found = sub.owner_of(entry, tlstm).expect("chain entry");
        assert!(Arc::ptr_eq(&found, &txn));
        // The user-thread's registered solo descriptor does not shadow it.
        sub.owners
            .register(1, Arc::new(crate::TxDescriptor::new(5)));
        let found = sub.owner_of(entry, tlstm).expect("chain entry");
        assert!(Arc::ptr_eq(&found, &txn), "the registry shadowed the chain");
        // A stale token (the lock changed hands) finds nobody.
        assert!(sub.owner_of(entry, OwnerToken::from_id(2)).is_none());
        sub.owners.unregister(0);
        assert!(sub.owner_of(entry, swiss).is_none());
    }

    #[test]
    fn tokens_for_distinct_ids_differ() {
        assert_ne!(OwnerToken::from_id(0), OwnerToken::UNLOCKED);
        assert_ne!(OwnerToken::from_id(0), OwnerToken::from_id(1));
    }
}
