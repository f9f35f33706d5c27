//! # txcollections — transactional data structures
//!
//! Data structures stored in the transactional word heap and accessed through
//! the [`txmem::TxMem`] trait, so that exactly the same code runs on
//! the SwissTM baseline and on TLSTM tasks. The benchmarks of the TLSTM paper
//! are built from these structures:
//!
//! * [`TxRbTree`] — a red-black tree (the classic STM micro-benchmark, also
//!   the backing store of the Vacation reservation tables);
//! * [`TxSortedList`] — a sorted singly-linked list (customer reservation
//!   lists in Vacation, index lists in STMBench7);
//! * [`TxHashMap`] — a fixed-bucket chained hash map (the shards of
//!   `txkv`'s store).
//!
//! Every structure is a thin, `Copy` handle around the heap address of its
//! header block; the memory itself lives in the shared [`txmem::TxHeap`].
//!
//! ## Example
//!
//! ```rust
//! use txcollections::TxRbTree;
//! use txmem::{DirectMem, TxConfig, TxHeap, TxMem};
//!
//! let heap = TxHeap::new(&TxConfig::small());
//! let mut mem = DirectMem::new(&heap);
//! let tree = TxRbTree::create(&mut mem)?;
//! tree.insert(&mut mem, 10, 100)?;
//! tree.insert(&mut mem, 5, 50)?;
//! assert_eq!(tree.get(&mut mem, 5)?, Some(50));
//! assert_eq!(tree.len(&mut mem)?, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod hashmap;
pub mod list;
pub mod rbtree;

pub use hashmap::TxHashMap;
pub use list::TxSortedList;
pub use rbtree::TxRbTree;

pub use txmem::{Abort, TxMem, WordAddr};
