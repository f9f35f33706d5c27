//! Property-based tests: every transactional collection behaves exactly like
//! its `std` reference model under arbitrary operation sequences, and the
//! red-black tree keeps its balancing invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;

use txcollections::{TxHashMap, TxRbTree, TxSortedList};
use txmem::{DirectMem, TxConfig, TxHeap};

fn big_heap() -> TxHeap {
    let mut cfg = TxConfig::small();
    cfg.heap_capacity_words = 1 << 22;
    TxHeap::new(&cfg)
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn map_ops(key_space: u64, len: usize) -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..key_space, any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            (0..key_space).prop_map(MapOp::Remove),
            (0..key_space).prop_map(MapOp::Get),
        ],
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbtree_matches_btreemap(ops in map_ops(64, 400)) {
        let heap = big_heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let fresh = tree.insert(&mut mem, k, v).unwrap();
                    prop_assert_eq!(fresh, model.insert(k, v).is_none());
                }
                MapOp::Remove(k) => {
                    let removed = tree.remove(&mut mem, k).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(tree.get(&mut mem, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(tree.len(&mut mem).unwrap(), model.len() as u64);
        let contents = tree.to_vec(&mut mem).unwrap();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(contents, expected);
        // Structural invariants (panics internally on violation).
        tree.check_invariants(&mut mem).unwrap();
    }

    #[test]
    fn sorted_list_matches_btreemap(ops in map_ops(32, 200)) {
        let heap = big_heap();
        let mut mem = DirectMem::new(&heap);
        let list = TxSortedList::create(&mut mem).unwrap();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let fresh = list.insert(&mut mem, k, v).unwrap();
                    prop_assert_eq!(fresh, model.insert(k, v).is_none());
                }
                MapOp::Remove(k) => {
                    let removed = list.remove(&mut mem, k).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(list.get(&mut mem, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        let contents = list.to_vec(&mut mem).unwrap();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(contents, expected);
    }

    #[test]
    fn hashmap_matches_btreemap(ops in map_ops(128, 300), buckets in 1u64..16) {
        let heap = big_heap();
        let mut mem = DirectMem::new(&heap);
        let map = TxHashMap::create(&mut mem, buckets).unwrap();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    let fresh = map.insert(&mut mem, k, v).unwrap();
                    prop_assert_eq!(fresh, model.insert(k, v).is_none());
                }
                MapOp::Remove(k) => {
                    let removed = map.remove(&mut mem, k).unwrap();
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(map.get(&mut mem, k).unwrap(), model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(map.len(&mut mem).unwrap(), model.len() as u64);
        let mut contents = map.to_vec(&mut mem).unwrap();
        contents.sort_unstable();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(contents, expected);
    }

    /// Removal-heavy rb-tree sequences over a small key space, with the
    /// balancing invariants re-checked after *every* mutation — this drives
    /// the rebalance-on-delete paths (red sibling rotations, double-black
    /// propagation) that an insert-biased mix rarely reaches. The op vector
    /// shrinks element-by-element, so failures minimise to short sequences.
    #[test]
    fn rbtree_survives_removal_heavy_churn(
        ops in prop::collection::vec(
            prop_oneof![
                (0..24u64, 0..1000u64).prop_map(|(k, v)| MapOp::Insert(k, v)),
                (0..24u64).prop_map(MapOp::Remove),
                (0..24u64).prop_map(MapOp::Remove),
                (0..24u64).prop_map(MapOp::Get),
            ],
            1..120,
        )
    ) {
        let heap = big_heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        let mut model = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(
                        tree.insert(&mut mem, k, v).unwrap(),
                        model.insert(k, v).is_none()
                    );
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(
                        tree.remove(&mut mem, k).unwrap(),
                        model.remove(&k).is_some()
                    );
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(tree.get(&mut mem, k).unwrap(), model.get(&k).copied());
                }
            }
            tree.check_invariants(&mut mem).unwrap();
        }
        // Drain the remainder through remove as well, still checking balance.
        let keys: Vec<u64> = model.keys().copied().collect();
        for k in keys {
            prop_assert!(tree.remove(&mut mem, k).unwrap());
            tree.check_invariants(&mut mem).unwrap();
        }
        prop_assert!(tree.is_empty(&mut mem).unwrap());
    }
}
