//! The global lock table.
//!
//! SwissTM maintains a global table of lock pairs; every memory location maps
//! to one pair via its address (`map-addr-to-locks` in the pseudo-code):
//!
//! * the **r-lock** holds either the commit timestamp of the location's last
//!   committed write or the [`LOCKED`] sentinel while a committing
//!   transaction is writing the location back;
//! * the **w-lock** identifies the current writer. In TLSTM it additionally
//!   refers to the location's redo-log — the chain of speculative write
//!   entries of the owning user-thread's tasks ([`WriteChain`]).
//!
//! Multiple consecutive words share one lock entry (lock granularity,
//! [`WORDS_PER_LOCK`]), and the table has a fixed power-of-two size, so distinct
//! addresses can collide on the same entry. Collisions produce false conflicts
//! exactly as they do in SwissTM.
//!
//! ## Hot-path layout
//!
//! [`LockEntry`] is the most frequently touched shared structure in the
//! system, so its layout is pinned (and asserted by a test):
//!
//! * `#[repr(align(64))]` and exactly 64 bytes — one entry per cache line, so
//!   two threads hitting *different* entries never false-share, and one
//!   entry's r-lock/w-lock pair is always fetched together;
//! * the TLSTM write chain is **boxed and lazily allocated** behind a
//!   [`OnceLock`]: the common entries — everything SwissTM touches, and every
//!   TLSTM location that is only ever read — never pay for a chain, neither
//!   in memory nor in an allocation on first contact. Only the first
//!   *speculative write* under an entry allocates its chain, once, for the
//!   table's lifetime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

use crate::addr::WordAddr;
use crate::chain::WriteChain;
use crate::config::TxConfig;
use crate::owner::OwnerToken;

/// Sentinel stored in an r-lock while its locations are being written back by
/// a committing transaction.
pub const LOCKED: u64 = u64::MAX;

/// Index of a lock entry in the global table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockIndex(pub u32);

/// One (r-lock, w-lock) pair of the global table.
///
/// Cache-line sized and aligned (see the [module docs](self)); the write
/// chain is boxed and allocated lazily on the first speculative write.
#[derive(Debug)]
#[repr(align(64))]
pub struct LockEntry {
    /// Version number of the last commit that wrote a location covered by
    /// this entry, or [`LOCKED`].
    rlock: AtomicU64,
    /// Raw [`OwnerToken`]: 0 when unlocked, `ptid + 1` when a user-thread
    /// (TLSTM) or transaction (SwissTM) holds the write lock.
    writer: AtomicU64,
    /// Speculative redo-log chain of the owning user-thread (TLSTM only),
    /// boxed out of line and allocated on first use.
    chain: OnceLock<Box<Mutex<WriteChain>>>,
}

impl Default for LockEntry {
    fn default() -> Self {
        LockEntry {
            rlock: AtomicU64::new(0),
            writer: AtomicU64::new(OwnerToken::UNLOCKED.raw()),
            chain: OnceLock::new(),
        }
    }
}

impl LockEntry {
    /// Reads the r-lock: the commit version, or [`LOCKED`].
    #[inline]
    pub fn version(&self) -> u64 {
        self.rlock.load(Ordering::Acquire)
    }

    /// `true` if the r-lock currently holds the [`LOCKED`] sentinel.
    #[inline]
    pub fn is_version_locked(&self) -> bool {
        self.version() == LOCKED
    }

    /// Locks the r-lock for commit write-back. Only the holder of the w-lock
    /// may call this, so a plain store is sufficient. Returns the previous
    /// version so the caller can restore it if the commit later fails
    /// validation.
    #[inline]
    pub fn lock_version(&self) -> u64 {
        self.rlock.swap(LOCKED, Ordering::AcqRel)
    }

    /// Publishes a new commit timestamp in the r-lock (releasing it).
    #[inline]
    pub fn set_version(&self, ts: u64) {
        debug_assert_ne!(ts, LOCKED);
        self.rlock.store(ts, Ordering::Release);
    }

    /// Current owner token of the w-lock.
    #[inline]
    pub fn writer_token(&self) -> OwnerToken {
        OwnerToken::from_raw(self.writer.load(Ordering::Acquire))
    }

    /// Attempts to acquire the w-lock for `token`; succeeds only when the lock
    /// is currently unlocked. Returns the token observed on failure.
    #[inline]
    pub fn try_acquire_writer(&self, token: OwnerToken) -> Result<(), OwnerToken> {
        match self.writer.compare_exchange(
            OwnerToken::UNLOCKED.raw(),
            token.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(observed) => Err(OwnerToken::from_raw(observed)),
        }
    }

    /// Releases the w-lock. The caller must hold it.
    #[inline]
    pub fn release_writer(&self) {
        self.writer
            .store(OwnerToken::UNLOCKED.raw(), Ordering::Release);
    }

    /// Releases the w-lock only if `token` still owns it.
    #[inline]
    pub fn release_writer_if(&self, token: OwnerToken) -> bool {
        self.writer
            .compare_exchange(
                token.raw(),
                OwnerToken::UNLOCKED.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Locks and returns the speculative write chain of this entry,
    /// allocating the chain on first use.
    ///
    /// Writers (which are about to install a chain entry anyway) call this;
    /// pure inspection paths should prefer [`Self::try_chain`], which never
    /// allocates.
    #[inline]
    pub fn chain(&self) -> MutexGuard<'_, WriteChain> {
        self.chain
            .get_or_init(|| Box::new(Mutex::new(WriteChain::new())))
            .lock()
    }

    /// Locks and returns the chain **iff it has ever been allocated**.
    ///
    /// `None` means no task has ever written speculatively under this entry,
    /// which callers treat exactly like an empty chain. Read-side and
    /// contention-manager inspection use this so that read-only locations
    /// never cause a chain allocation.
    #[inline]
    pub fn try_chain(&self) -> Option<MutexGuard<'_, WriteChain>> {
        self.chain.get().map(|m| m.lock())
    }

    /// `true` if the chain has been allocated (diagnostics / tests).
    #[inline]
    pub fn chain_allocated(&self) -> bool {
        self.chain.get().is_some()
    }
}

/// Number of consecutive words covered by one lock entry (the lock
/// granularity); SwissTM's 4. A power of two, so mapping an address is a
/// shift.
pub const WORDS_PER_LOCK: u64 = 4;

/// The global table of lock pairs.
#[derive(Debug)]
pub struct LockTable {
    entries: Box<[LockEntry]>,
    mask: u64,
}

impl LockTable {
    /// Builds a table from the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`TxConfig::validate`].
    pub fn new(config: &TxConfig) -> Self {
        config
            .validate()
            .expect("invalid TxConfig passed to LockTable::new");
        let len = 1usize << config.lock_table_bits;
        let mut entries = Vec::with_capacity(len);
        entries.resize_with(len, LockEntry::default);
        LockTable {
            entries: entries.into_boxed_slice(),
            mask: (len - 1) as u64,
        }
    }

    /// Number of entries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the table has no entries (never the case for a valid config).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maps a word address to its lock index (`map-addr-to-locks`).
    #[inline]
    pub fn index_for(&self, addr: WordAddr) -> LockIndex {
        const WORD_SHIFT: u32 = WORDS_PER_LOCK.trailing_zeros();
        LockIndex(((addr.index() >> WORD_SHIFT) & self.mask) as u32)
    }

    /// Returns the entry at a given index.
    #[inline]
    pub fn entry(&self, index: LockIndex) -> &LockEntry {
        &self.entries[index.0 as usize]
    }

    /// Maps a word address directly to its lock entry.
    #[inline]
    pub fn entry_for(&self, addr: WordAddr) -> &LockEntry {
        self.entry(self.index_for(addr))
    }

    /// Maps a word address to `(index, entry)`.
    #[inline]
    pub fn lookup(&self, addr: WordAddr) -> (LockIndex, &LockEntry) {
        let idx = self.index_for(addr);
        (idx, self.entry(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LockTable {
        LockTable::new(&TxConfig::small())
    }

    #[test]
    fn adjacent_words_share_a_lock() {
        let t = table();
        // With WORDS_PER_LOCK = 4, words 0..4 share an entry.
        assert_eq!(t.index_for(WordAddr::new(0)), t.index_for(WordAddr::new(3)));
        assert_ne!(t.index_for(WordAddr::new(0)), t.index_for(WordAddr::new(4)));
    }

    #[test]
    fn table_wraps_around_causing_false_sharing() {
        let t = table();
        let entries = t.len() as u64;
        let a = WordAddr::new(0);
        let b = WordAddr::new(entries * WORDS_PER_LOCK);
        assert_eq!(t.index_for(a), t.index_for(b));
    }

    #[test]
    fn version_lock_cycle() {
        let t = table();
        let e = t.entry_for(WordAddr::new(0));
        assert_eq!(e.version(), 0);
        assert!(!e.is_version_locked());
        let prev = e.lock_version();
        assert_eq!(prev, 0);
        assert!(e.is_version_locked());
        e.set_version(17);
        assert_eq!(e.version(), 17);
    }

    #[test]
    fn writer_acquire_release_cycle() {
        let t = table();
        let e = t.entry_for(WordAddr::new(8));
        let me = OwnerToken::from_id(1);
        let other = OwnerToken::from_id(2);
        assert!(e.try_acquire_writer(me).is_ok());
        assert_eq!(e.writer_token(), me);
        assert_eq!(e.try_acquire_writer(other), Err(me));
        assert!(!e.release_writer_if(other));
        assert!(e.release_writer_if(me));
        assert!(e.writer_token().is_unlocked());
        assert!(e.try_acquire_writer(other).is_ok());
        e.release_writer();
        assert!(e.writer_token().is_unlocked());
    }

    #[test]
    fn chain_is_reachable_through_entry() {
        let t = table();
        let e = t.entry_for(WordAddr::new(16));
        assert!(e.chain().is_empty());
    }

    #[test]
    fn lock_entry_is_exactly_one_cache_line() {
        // Pinned layout: any accidental field growth or padding regression
        // reintroduces false sharing between neighbouring entries and fails
        // here rather than silently costing throughput.
        assert_eq!(std::mem::size_of::<LockEntry>(), 64);
        assert_eq!(std::mem::align_of::<LockEntry>(), 64);
    }

    #[test]
    fn chains_are_lazily_allocated() {
        let t = table();
        let e = t.entry_for(WordAddr::new(32));
        assert!(!e.chain_allocated(), "fresh entries must carry no chain");
        assert!(e.try_chain().is_none(), "try_chain must not allocate");
        assert!(!e.chain_allocated());
        // First real chain access allocates, once.
        assert!(e.chain().is_empty());
        assert!(e.chain_allocated());
        assert!(e.try_chain().is_some());
        // The version/writer protocol never needs the chain.
        let f = t.entry_for(WordAddr::new(64));
        let me = OwnerToken::from_id(9);
        assert!(f.try_acquire_writer(me).is_ok());
        let _ = f.lock_version();
        f.set_version(3);
        f.release_writer();
        assert!(!f.chain_allocated());
    }

    #[test]
    fn lookup_is_consistent_with_index_for() {
        let t = table();
        for i in [0u64, 5, 100, 1023, 4096] {
            let (idx, entry) = t.lookup(WordAddr::new(i));
            assert_eq!(idx, t.index_for(WordAddr::new(i)));
            assert!(std::ptr::eq(entry, t.entry(idx)));
        }
    }
}
