//! The uniform transactional access trait.
//!
//! Transactional data structures (`txcollections`) and benchmark workloads are
//! written against [`TxMem`] so that the exact same code runs on the SwissTM
//! baseline and on TLSTM tasks. This mirrors the paper's methodology: both
//! systems execute identical benchmark code, only the runtime differs.

use crate::addr::WordAddr;
use crate::error::Abort;

/// Word-granularity transactional memory access.
///
/// Implementations are the SwissTM `Transaction` handle and the TLSTM
/// `TaskCtx` handle. All operations may fail with [`Abort`], which the caller
/// must propagate (`?`) so the runtime can roll back and re-execute.
pub trait TxMem {
    /// Transactionally reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] when the read would violate consistency and the
    /// enclosing transaction/task must roll back.
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort>;

    /// Transactionally writes `value` to the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] when the write loses a conflict and the enclosing
    /// transaction/task must roll back.
    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort>;

    /// Allocates a zero-initialised block of `words` words inside the
    /// transaction. Allocation survives aborts (the block is simply leaked on
    /// rollback), which matches the behaviour of research STM prototypes.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] (out-of-memory) if the heap is exhausted.
    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort>;

    // --- typed helpers -----------------------------------------------------

    /// Reads a word and interprets it as a signed integer.
    fn read_i64(&mut self, addr: WordAddr) -> Result<i64, Abort> {
        Ok(self.read(addr)? as i64)
    }

    /// Writes a signed integer.
    fn write_i64(&mut self, addr: WordAddr, value: i64) -> Result<(), Abort> {
        self.write(addr, value as u64)
    }

    /// Reads a word and interprets it as a reference (`NULL_ADDR` ⇒ `None`).
    fn read_ref(&mut self, addr: WordAddr) -> Result<Option<WordAddr>, Abort> {
        let raw = self.read(addr)?;
        if raw == crate::addr::NULL_ADDR {
            Ok(None)
        } else {
            Ok(Some(WordAddr::new(raw)))
        }
    }

    /// Writes a reference (`None` ⇒ `NULL_ADDR`).
    fn write_ref(&mut self, addr: WordAddr, target: Option<WordAddr>) -> Result<(), Abort> {
        self.write(addr, target.map_or(crate::addr::NULL_ADDR, |t| t.index()))
    }

    /// Reads a word and interprets it as a boolean (non-zero ⇒ `true`).
    fn read_bool(&mut self, addr: WordAddr) -> Result<bool, Abort> {
        Ok(self.read(addr)? != 0)
    }

    /// Writes a boolean as 0 / 1.
    fn write_bool(&mut self, addr: WordAddr, value: bool) -> Result<(), Abort> {
        self.write(addr, u64::from(value))
    }
}

/// A trivial, non-concurrent [`TxMem`] that applies operations directly to a
/// heap without any concurrency control.
///
/// It is used for non-transactional initialisation of benchmark data (the
/// paper's benchmarks also populate their data structures before starting the
/// measured phase) and as a reference implementation in tests of the
/// transactional collections.
#[derive(Debug)]
pub struct DirectMem<'h> {
    heap: &'h crate::heap::TxHeap,
}

impl<'h> DirectMem<'h> {
    /// Wraps a heap for direct access.
    pub fn new(heap: &'h crate::heap::TxHeap) -> Self {
        DirectMem { heap }
    }
}

impl TxMem for DirectMem<'_> {
    fn read(&mut self, addr: WordAddr) -> Result<u64, Abort> {
        Ok(self.heap.load_committed(addr))
    }

    fn write(&mut self, addr: WordAddr, value: u64) -> Result<(), Abort> {
        self.heap.store_committed(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> Result<WordAddr, Abort> {
        self.heap
            .alloc(words)
            .map_err(|_| Abort::new(crate::error::AbortReason::OutOfMemory))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TxConfig;
    use crate::heap::TxHeap;

    #[test]
    fn direct_mem_round_trips_words() {
        let heap = TxHeap::new(&TxConfig::small());
        let mut mem = DirectMem::new(&heap);
        let a = mem.alloc(2).unwrap();
        mem.write(a, 7).unwrap();
        assert_eq!(mem.read(a).unwrap(), 7);
        assert_eq!(heap.load_committed(a), 7);
    }

    #[test]
    fn typed_helpers_round_trip() {
        let heap = TxHeap::new(&TxConfig::small());
        let mut mem = DirectMem::new(&heap);
        let a = mem.alloc(4).unwrap();

        mem.write_i64(a, -5).unwrap();
        assert_eq!(mem.read_i64(a).unwrap(), -5);

        mem.write_bool(a.offset(1), true).unwrap();
        assert!(mem.read_bool(a.offset(1)).unwrap());
        mem.write_bool(a.offset(1), false).unwrap();
        assert!(!mem.read_bool(a.offset(1)).unwrap());

        mem.write_ref(a.offset(2), Some(a)).unwrap();
        assert_eq!(mem.read_ref(a.offset(2)).unwrap(), Some(a));
        mem.write_ref(a.offset(3), None).unwrap();
        assert_eq!(mem.read_ref(a.offset(3)).unwrap(), None);
    }

    #[test]
    fn fresh_word_reads_as_null_reference() {
        let heap = TxHeap::new(&TxConfig::small());
        let mut mem = DirectMem::new(&heap);
        let a = mem.alloc(1).unwrap();
        // Word 0 is reserved, so a zeroed reference field is a null reference.
        assert_eq!(mem.read_ref(a).unwrap(), None);
        assert!(!mem.read_bool(a).unwrap());
        assert_eq!(mem.read_i64(a).unwrap(), 0);
    }
}
