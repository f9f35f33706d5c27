//! A transactional red-black tree.
//!
//! The classic STM benchmark data structure (and the backing store of the
//! Vacation reservation tables). Keys and values are `u64` words; the tree is
//! a standard CLRS red-black tree with parent pointers, stored entirely in the
//! transactional heap.
//!
//! Node layout (6 words): `key, value, left, right, parent, color`.
//! Header layout (2 words): `root, size`.

use txmem::{Abort, TxMem, WordAddr};

const NODE_WORDS: u64 = 6;
const OFF_KEY: u64 = 0;
const OFF_VALUE: u64 = 1;
const OFF_LEFT: u64 = 2;
const OFF_RIGHT: u64 = 3;
const OFF_PARENT: u64 = 4;
const OFF_COLOR: u64 = 5;

const HDR_WORDS: u64 = 2;
const HDR_ROOT: u64 = 0;
const HDR_SIZE: u64 = 1;

const RED: u64 = 0;
const BLACK: u64 = 1;

/// Handle to a transactional red-black tree (the address of its header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxRbTree {
    header: WordAddr,
}

impl TxRbTree {
    /// Allocates an empty tree.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure from the underlying memory.
    pub fn create<M: TxMem + ?Sized>(mem: &mut M) -> Result<Self, Abort> {
        let header = mem.alloc(HDR_WORDS)?;
        mem.write_ref(header.offset(HDR_ROOT), None)?;
        mem.write(header.offset(HDR_SIZE), 0)?;
        Ok(TxRbTree { header })
    }

    /// Re-creates a handle from a previously obtained header address.
    pub fn from_header(header: WordAddr) -> Self {
        TxRbTree { header }
    }

    /// The heap address of the tree header (for storing the handle inside
    /// other transactional structures).
    pub fn header(&self) -> WordAddr {
        self.header
    }

    /// Number of keys currently stored.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn len<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<u64, Abort> {
        mem.read(self.header.offset(HDR_SIZE))
    }

    /// `true` if the tree holds no keys.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn is_empty<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<bool, Abort> {
        Ok(self.len(mem)? == 0)
    }

    fn root<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<Option<WordAddr>, Abort> {
        mem.read_ref(self.header.offset(HDR_ROOT))
    }

    fn set_root<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        node: Option<WordAddr>,
    ) -> Result<(), Abort> {
        mem.write_ref(self.header.offset(HDR_ROOT), node)
    }

    /// Looks up `key` and returns its value, if present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn get<M: TxMem + ?Sized>(&self, mem: &mut M, key: u64) -> Result<Option<u64>, Abort> {
        let mut cur = self.root(mem)?;
        while let Some(node) = cur {
            let nkey = mem.read(node.offset(OFF_KEY))?;
            if key == nkey {
                return Ok(Some(mem.read(node.offset(OFF_VALUE))?));
            }
            cur = if key < nkey {
                mem.read_ref(node.offset(OFF_LEFT))?
            } else {
                mem.read_ref(node.offset(OFF_RIGHT))?
            };
        }
        Ok(None)
    }

    /// `true` if `key` is present.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn contains<M: TxMem + ?Sized>(&self, mem: &mut M, key: u64) -> Result<bool, Abort> {
        Ok(self.get(mem, key)?.is_some())
    }

    /// Inserts `key → value`. Returns `false` (and updates the value) if the
    /// key was already present, `true` if a new node was inserted.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn insert<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        key: u64,
        value: u64,
    ) -> Result<bool, Abort> {
        // Standard BST descent.
        let mut parent: Option<WordAddr> = None;
        let mut cur = self.root(mem)?;
        let mut went_left = false;
        while let Some(node) = cur {
            let nkey = mem.read(node.offset(OFF_KEY))?;
            if key == nkey {
                mem.write(node.offset(OFF_VALUE), value)?;
                return Ok(false);
            }
            parent = Some(node);
            if key < nkey {
                went_left = true;
                cur = mem.read_ref(node.offset(OFF_LEFT))?;
            } else {
                went_left = false;
                cur = mem.read_ref(node.offset(OFF_RIGHT))?;
            }
        }
        // Allocate and link the new red node.
        let node = mem.alloc(NODE_WORDS)?;
        mem.write(node.offset(OFF_KEY), key)?;
        mem.write(node.offset(OFF_VALUE), value)?;
        mem.write_ref(node.offset(OFF_LEFT), None)?;
        mem.write_ref(node.offset(OFF_RIGHT), None)?;
        mem.write_ref(node.offset(OFF_PARENT), parent)?;
        mem.write(node.offset(OFF_COLOR), RED)?;
        match parent {
            None => self.set_root(mem, Some(node))?,
            Some(p) => {
                let slot = if went_left { OFF_LEFT } else { OFF_RIGHT };
                mem.write_ref(p.offset(slot), Some(node))?;
            }
        }
        let size = mem.read(self.header.offset(HDR_SIZE))?;
        mem.write(self.header.offset(HDR_SIZE), size + 1)?;
        self.insert_fixup(mem, node)?;
        Ok(true)
    }

    fn color<M: TxMem + ?Sized>(&self, mem: &mut M, node: Option<WordAddr>) -> Result<u64, Abort> {
        match node {
            None => Ok(BLACK),
            Some(n) => mem.read(n.offset(OFF_COLOR)),
        }
    }

    fn set_color<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        node: WordAddr,
        color: u64,
    ) -> Result<(), Abort> {
        mem.write(node.offset(OFF_COLOR), color)
    }

    fn parent_of<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        node: WordAddr,
    ) -> Result<Option<WordAddr>, Abort> {
        mem.read_ref(node.offset(OFF_PARENT))
    }

    fn left_of<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        node: WordAddr,
    ) -> Result<Option<WordAddr>, Abort> {
        mem.read_ref(node.offset(OFF_LEFT))
    }

    fn right_of<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        node: WordAddr,
    ) -> Result<Option<WordAddr>, Abort> {
        mem.read_ref(node.offset(OFF_RIGHT))
    }

    fn rotate_left<M: TxMem + ?Sized>(&self, mem: &mut M, x: WordAddr) -> Result<(), Abort> {
        let y = self
            .right_of(mem, x)?
            .expect("rotate_left requires a right child");
        let y_left = self.left_of(mem, y)?;
        mem.write_ref(x.offset(OFF_RIGHT), y_left)?;
        if let Some(yl) = y_left {
            mem.write_ref(yl.offset(OFF_PARENT), Some(x))?;
        }
        let x_parent = self.parent_of(mem, x)?;
        mem.write_ref(y.offset(OFF_PARENT), x_parent)?;
        match x_parent {
            None => self.set_root(mem, Some(y))?,
            Some(p) => {
                if self.left_of(mem, p)? == Some(x) {
                    mem.write_ref(p.offset(OFF_LEFT), Some(y))?;
                } else {
                    mem.write_ref(p.offset(OFF_RIGHT), Some(y))?;
                }
            }
        }
        mem.write_ref(y.offset(OFF_LEFT), Some(x))?;
        mem.write_ref(x.offset(OFF_PARENT), Some(y))?;
        Ok(())
    }

    fn rotate_right<M: TxMem + ?Sized>(&self, mem: &mut M, x: WordAddr) -> Result<(), Abort> {
        let y = self
            .left_of(mem, x)?
            .expect("rotate_right requires a left child");
        let y_right = self.right_of(mem, y)?;
        mem.write_ref(x.offset(OFF_LEFT), y_right)?;
        if let Some(yr) = y_right {
            mem.write_ref(yr.offset(OFF_PARENT), Some(x))?;
        }
        let x_parent = self.parent_of(mem, x)?;
        mem.write_ref(y.offset(OFF_PARENT), x_parent)?;
        match x_parent {
            None => self.set_root(mem, Some(y))?,
            Some(p) => {
                if self.right_of(mem, p)? == Some(x) {
                    mem.write_ref(p.offset(OFF_RIGHT), Some(y))?;
                } else {
                    mem.write_ref(p.offset(OFF_LEFT), Some(y))?;
                }
            }
        }
        mem.write_ref(y.offset(OFF_RIGHT), Some(x))?;
        mem.write_ref(x.offset(OFF_PARENT), Some(y))?;
        Ok(())
    }

    fn insert_fixup<M: TxMem + ?Sized>(&self, mem: &mut M, mut z: WordAddr) -> Result<(), Abort> {
        loop {
            let parent = match self.parent_of(mem, z)? {
                Some(p) if self.color(mem, Some(p))? == RED => p,
                _ => break,
            };
            let grandparent = self
                .parent_of(mem, parent)?
                .expect("a red node always has a parent");
            if Some(parent) == self.left_of(mem, grandparent)? {
                let uncle = self.right_of(mem, grandparent)?;
                if self.color(mem, uncle)? == RED {
                    self.set_color(mem, parent, BLACK)?;
                    self.set_color(mem, uncle.expect("red uncle exists"), BLACK)?;
                    self.set_color(mem, grandparent, RED)?;
                    z = grandparent;
                } else {
                    if Some(z) == self.right_of(mem, parent)? {
                        z = parent;
                        self.rotate_left(mem, z)?;
                    }
                    let parent = self.parent_of(mem, z)?.expect("parent exists after rotate");
                    let grandparent = self
                        .parent_of(mem, parent)?
                        .expect("grandparent exists after rotate");
                    self.set_color(mem, parent, BLACK)?;
                    self.set_color(mem, grandparent, RED)?;
                    self.rotate_right(mem, grandparent)?;
                }
            } else {
                let uncle = self.left_of(mem, grandparent)?;
                if self.color(mem, uncle)? == RED {
                    self.set_color(mem, parent, BLACK)?;
                    self.set_color(mem, uncle.expect("red uncle exists"), BLACK)?;
                    self.set_color(mem, grandparent, RED)?;
                    z = grandparent;
                } else {
                    if Some(z) == self.left_of(mem, parent)? {
                        z = parent;
                        self.rotate_right(mem, z)?;
                    }
                    let parent = self.parent_of(mem, z)?.expect("parent exists after rotate");
                    let grandparent = self
                        .parent_of(mem, parent)?
                        .expect("grandparent exists after rotate");
                    self.set_color(mem, parent, BLACK)?;
                    self.set_color(mem, grandparent, RED)?;
                    self.rotate_left(mem, grandparent)?;
                }
            }
        }
        if let Some(root) = self.root(mem)? {
            self.set_color(mem, root, BLACK)?;
        }
        Ok(())
    }

    fn find_node<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        key: u64,
    ) -> Result<Option<WordAddr>, Abort> {
        let mut cur = self.root(mem)?;
        while let Some(node) = cur {
            let nkey = mem.read(node.offset(OFF_KEY))?;
            if key == nkey {
                return Ok(Some(node));
            }
            cur = if key < nkey {
                mem.read_ref(node.offset(OFF_LEFT))?
            } else {
                mem.read_ref(node.offset(OFF_RIGHT))?
            };
        }
        Ok(None)
    }

    fn minimum<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        mut node: WordAddr,
    ) -> Result<WordAddr, Abort> {
        while let Some(left) = self.left_of(mem, node)? {
            node = left;
        }
        Ok(node)
    }

    /// Replaces the subtree rooted at `u` with the subtree rooted at `v`
    /// (CLRS `RB-TRANSPLANT`); `v` may be absent.
    fn transplant<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        u: WordAddr,
        v: Option<WordAddr>,
    ) -> Result<(), Abort> {
        let u_parent = self.parent_of(mem, u)?;
        match u_parent {
            None => self.set_root(mem, v)?,
            Some(p) => {
                if self.left_of(mem, p)? == Some(u) {
                    mem.write_ref(p.offset(OFF_LEFT), v)?;
                } else {
                    mem.write_ref(p.offset(OFF_RIGHT), v)?;
                }
            }
        }
        if let Some(v) = v {
            mem.write_ref(v.offset(OFF_PARENT), u_parent)?;
        }
        Ok(())
    }

    /// Removes `key`. Returns `true` if the key was present.
    ///
    /// Uses the classic CLRS deletion rewritten without a sentinel node: the
    /// fix-up tracks an "absent" node through its parent.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn remove<M: TxMem + ?Sized>(&self, mem: &mut M, key: u64) -> Result<bool, Abort> {
        let z = match self.find_node(mem, key)? {
            Some(z) => z,
            None => return Ok(false),
        };
        // `fix_node`/`fix_parent` identify the position that takes over y's
        // original black height once the splice is done.
        let mut removed_color;
        let fix_node: Option<WordAddr>;
        let fix_parent: Option<WordAddr>;
        let z_left = self.left_of(mem, z)?;
        let z_right = self.right_of(mem, z)?;
        if z_left.is_none() {
            removed_color = self.color(mem, Some(z))?;
            fix_node = z_right;
            fix_parent = self.parent_of(mem, z)?;
            self.transplant(mem, z, z_right)?;
        } else if z_right.is_none() {
            removed_color = self.color(mem, Some(z))?;
            fix_node = z_left;
            fix_parent = self.parent_of(mem, z)?;
            self.transplant(mem, z, z_left)?;
        } else {
            let y = self.minimum(mem, z_right.expect("checked above"))?;
            removed_color = self.color(mem, Some(y))?;
            let y_right = self.right_of(mem, y)?;
            if self.parent_of(mem, y)? == Some(z) {
                fix_parent = Some(y);
                fix_node = y_right;
            } else {
                fix_parent = self.parent_of(mem, y)?;
                fix_node = y_right;
                self.transplant(mem, y, y_right)?;
                let zr = self.right_of(mem, z)?;
                mem.write_ref(y.offset(OFF_RIGHT), zr)?;
                if let Some(zr) = zr {
                    mem.write_ref(zr.offset(OFF_PARENT), Some(y))?;
                }
            }
            self.transplant(mem, z, Some(y))?;
            let zl = self.left_of(mem, z)?;
            mem.write_ref(y.offset(OFF_LEFT), zl)?;
            if let Some(zl) = zl {
                mem.write_ref(zl.offset(OFF_PARENT), Some(y))?;
            }
            let z_color = self.color(mem, Some(z))?;
            self.set_color(mem, y, z_color)?;
        }
        let size = mem.read(self.header.offset(HDR_SIZE))?;
        mem.write(self.header.offset(HDR_SIZE), size - 1)?;
        if removed_color == BLACK {
            self.remove_fixup(mem, fix_node, fix_parent)?;
        }
        // Note: the removed node's words are leaked, matching the allocation
        // model of the substrate (no transactional free).
        removed_color = BLACK;
        let _ = removed_color;
        Ok(true)
    }

    /// CLRS `RB-DELETE-FIXUP`, tracking a possibly-absent `x` through its
    /// parent.
    fn remove_fixup<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        mut x: Option<WordAddr>,
        mut parent: Option<WordAddr>,
    ) -> Result<(), Abort> {
        loop {
            let root = self.root(mem)?;
            if x == root || self.color(mem, x)? == RED {
                break;
            }
            let p = match parent {
                Some(p) => p,
                None => break,
            };
            if self.left_of(mem, p)? == x {
                let mut w = self
                    .right_of(mem, p)?
                    .expect("sibling exists while x is doubly black");
                if self.color(mem, Some(w))? == RED {
                    self.set_color(mem, w, BLACK)?;
                    self.set_color(mem, p, RED)?;
                    self.rotate_left(mem, p)?;
                    w = self
                        .right_of(mem, p)?
                        .expect("new sibling exists after rotation");
                }
                let w_left = self.left_of(mem, w)?;
                let w_right = self.right_of(mem, w)?;
                if self.color(mem, w_left)? == BLACK && self.color(mem, w_right)? == BLACK {
                    self.set_color(mem, w, RED)?;
                    x = Some(p);
                    parent = self.parent_of(mem, p)?;
                } else {
                    if self.color(mem, w_right)? == BLACK {
                        if let Some(wl) = w_left {
                            self.set_color(mem, wl, BLACK)?;
                        }
                        self.set_color(mem, w, RED)?;
                        self.rotate_right(mem, w)?;
                        w = self
                            .right_of(mem, p)?
                            .expect("sibling exists after rotation");
                    }
                    let p_color = self.color(mem, Some(p))?;
                    self.set_color(mem, w, p_color)?;
                    self.set_color(mem, p, BLACK)?;
                    if let Some(wr) = self.right_of(mem, w)? {
                        self.set_color(mem, wr, BLACK)?;
                    }
                    self.rotate_left(mem, p)?;
                    x = self.root(mem)?;
                    parent = None;
                }
            } else {
                let mut w = self
                    .left_of(mem, p)?
                    .expect("sibling exists while x is doubly black");
                if self.color(mem, Some(w))? == RED {
                    self.set_color(mem, w, BLACK)?;
                    self.set_color(mem, p, RED)?;
                    self.rotate_right(mem, p)?;
                    w = self
                        .left_of(mem, p)?
                        .expect("new sibling exists after rotation");
                }
                let w_left = self.left_of(mem, w)?;
                let w_right = self.right_of(mem, w)?;
                if self.color(mem, w_left)? == BLACK && self.color(mem, w_right)? == BLACK {
                    self.set_color(mem, w, RED)?;
                    x = Some(p);
                    parent = self.parent_of(mem, p)?;
                } else {
                    if self.color(mem, w_left)? == BLACK {
                        if let Some(wr) = w_right {
                            self.set_color(mem, wr, BLACK)?;
                        }
                        self.set_color(mem, w, RED)?;
                        self.rotate_left(mem, w)?;
                        w = self
                            .left_of(mem, p)?
                            .expect("sibling exists after rotation");
                    }
                    let p_color = self.color(mem, Some(p))?;
                    self.set_color(mem, w, p_color)?;
                    self.set_color(mem, p, BLACK)?;
                    if let Some(wl) = self.left_of(mem, w)? {
                        self.set_color(mem, wl, BLACK)?;
                    }
                    self.rotate_right(mem, p)?;
                    x = self.root(mem)?;
                    parent = None;
                }
            }
        }
        if let Some(x) = x {
            self.set_color(mem, x, BLACK)?;
        }
        Ok(())
    }

    /// Returns the smallest key ≥ `key`, with its value (range queries in the
    /// Vacation benchmark).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn ceiling<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        key: u64,
    ) -> Result<Option<(u64, u64)>, Abort> {
        let mut cur = self.root(mem)?;
        let mut best: Option<(u64, u64)> = None;
        while let Some(node) = cur {
            let nkey = mem.read(node.offset(OFF_KEY))?;
            if nkey == key {
                return Ok(Some((nkey, mem.read(node.offset(OFF_VALUE))?)));
            }
            if nkey > key {
                best = Some((nkey, mem.read(node.offset(OFF_VALUE))?));
                cur = mem.read_ref(node.offset(OFF_LEFT))?;
            } else {
                cur = mem.read_ref(node.offset(OFF_RIGHT))?;
            }
        }
        Ok(best)
    }

    /// Appends up to `limit` `(key, value)` pairs with keys in `lo..hi`, in
    /// ascending key order, to `out`.
    ///
    /// One pruned in-order traversal: O(log n) to reach `lo`, then O(1)
    /// amortised per returned entry — unlike repeated [`Self::ceiling`]
    /// calls, which pay a full root descent per entry.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn range_into<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        lo: u64,
        hi: u64,
        limit: u64,
        out: &mut Vec<(u64, u64)>,
    ) -> Result<(), Abort> {
        let mut taken = 0u64;
        let mut stack = Vec::new();
        // Descend towards `lo`, stacking every node whose key is in range
        // (the left spine of the candidate region).
        let mut cur = self.root(mem)?;
        while let Some(node) = cur {
            cur = if mem.read(node.offset(OFF_KEY))? >= lo {
                stack.push(node);
                self.left_of(mem, node)?
            } else {
                self.right_of(mem, node)?
            };
        }
        // Nodes now pop in ascending key order; stop at `hi` or `limit`.
        while let Some(node) = stack.pop() {
            let key = mem.read(node.offset(OFF_KEY))?;
            if key >= hi || taken >= limit {
                return Ok(());
            }
            out.push((key, mem.read(node.offset(OFF_VALUE))?));
            taken += 1;
            // In-order successor: right child, then its left spine (every
            // key there exceeds `key`, so no further `lo` pruning needed).
            let mut cur = self.right_of(mem, node)?;
            while let Some(n) = cur {
                stack.push(n);
                cur = self.left_of(mem, n)?;
            }
        }
        Ok(())
    }

    /// Collects all `(key, value)` pairs in ascending key order (used for
    /// validation in tests and by full traversal workloads).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn to_vec<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<Vec<(u64, u64)>, Abort> {
        let mut out = Vec::new();
        let mut stack = Vec::new();
        let mut cur = self.root(mem)?;
        loop {
            while let Some(node) = cur {
                stack.push(node);
                cur = self.left_of(mem, node)?;
            }
            let node = match stack.pop() {
                Some(n) => n,
                None => break,
            };
            out.push((
                mem.read(node.offset(OFF_KEY))?,
                mem.read(node.offset(OFF_VALUE))?,
            ));
            cur = self.right_of(mem, node)?;
        }
        Ok(out)
    }

    /// Checks the red-black invariants (test/diagnostic helper): root is
    /// black, no red node has a red child, and every root-to-leaf path has the
    /// same number of black nodes. Returns the tree's black height.
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    ///
    /// # Panics
    ///
    /// Panics if an invariant is violated.
    pub fn check_invariants<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<u64, Abort> {
        let root = self.root(mem)?;
        assert_eq!(self.color(mem, root)?, BLACK, "root must be black");
        self.check_subtree(mem, root, None, None)
    }

    fn check_subtree<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        node: Option<WordAddr>,
        min: Option<u64>,
        max: Option<u64>,
    ) -> Result<u64, Abort> {
        let node = match node {
            None => return Ok(1),
            Some(n) => n,
        };
        let key = mem.read(node.offset(OFF_KEY))?;
        if let Some(min) = min {
            assert!(key > min, "BST order violated");
        }
        if let Some(max) = max {
            assert!(key < max, "BST order violated");
        }
        let color = self.color(mem, Some(node))?;
        let left = self.left_of(mem, node)?;
        let right = self.right_of(mem, node)?;
        if color == RED {
            assert_eq!(
                self.color(mem, left)?,
                BLACK,
                "red node with red left child"
            );
            assert_eq!(
                self.color(mem, right)?,
                BLACK,
                "red node with red right child"
            );
        }
        let lh = self.check_subtree(mem, left, min, Some(key))?;
        let rh = self.check_subtree(mem, right, Some(key), max)?;
        assert_eq!(lh, rh, "black height mismatch");
        Ok(lh + u64::from(color == BLACK))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmem::{DirectMem, TxConfig, TxHeap};

    fn heap() -> TxHeap {
        let mut cfg = TxConfig::small();
        cfg.heap_capacity_words = 1 << 20;
        TxHeap::new(&cfg)
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let heap = heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        assert!(tree.is_empty(&mut mem).unwrap());
        assert!(tree.insert(&mut mem, 5, 50).unwrap());
        assert!(tree.insert(&mut mem, 3, 30).unwrap());
        assert!(tree.insert(&mut mem, 8, 80).unwrap());
        assert!(!tree.insert(&mut mem, 5, 55).unwrap(), "duplicate key");
        assert_eq!(tree.get(&mut mem, 5).unwrap(), Some(55));
        assert_eq!(tree.get(&mut mem, 3).unwrap(), Some(30));
        assert_eq!(tree.get(&mut mem, 9).unwrap(), None);
        assert_eq!(tree.len(&mut mem).unwrap(), 3);
        assert!(tree.remove(&mut mem, 3).unwrap());
        assert!(!tree.remove(&mut mem, 3).unwrap());
        assert_eq!(tree.get(&mut mem, 3).unwrap(), None);
        assert_eq!(tree.len(&mut mem).unwrap(), 2);
        tree.check_invariants(&mut mem).unwrap();
    }

    #[test]
    fn ascending_insertions_stay_balanced() {
        let heap = heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        for i in 0..256 {
            tree.insert(&mut mem, i, i * 2).unwrap();
        }
        let black_height = tree.check_invariants(&mut mem).unwrap();
        // A red-black tree with 256 nodes has black height well below 256.
        assert!(black_height <= 10);
        assert_eq!(tree.len(&mut mem).unwrap(), 256);
        let all = tree.to_vec(&mut mem).unwrap();
        assert_eq!(all.len(), 256);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn ceiling_finds_next_key() {
        let heap = heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        for k in [10u64, 20, 30, 40] {
            tree.insert(&mut mem, k, k).unwrap();
        }
        assert_eq!(tree.ceiling(&mut mem, 5).unwrap(), Some((10, 10)));
        assert_eq!(tree.ceiling(&mut mem, 20).unwrap(), Some((20, 20)));
        assert_eq!(tree.ceiling(&mut mem, 21).unwrap(), Some((30, 30)));
        assert_eq!(tree.ceiling(&mut mem, 41).unwrap(), None);
    }

    #[test]
    fn random_workload_matches_reference_model() {
        let heap = heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        let mut reference = std::collections::BTreeMap::new();
        let mut rng = tlstm_testutil::TestRng::new(42);
        for _ in 0..2000 {
            let key = rng.below(200);
            match rng.below(3) {
                0 => {
                    let value = rng.below(1000);
                    let inserted = tree.insert(&mut mem, key, value).unwrap();
                    assert_eq!(inserted, reference.insert(key, value).is_none());
                }
                1 => {
                    let removed = tree.remove(&mut mem, key).unwrap();
                    assert_eq!(removed, reference.remove(&key).is_some());
                }
                _ => {
                    assert_eq!(
                        tree.get(&mut mem, key).unwrap(),
                        reference.get(&key).copied()
                    );
                }
            }
        }
        assert_eq!(tree.len(&mut mem).unwrap(), reference.len() as u64);
        let all = tree.to_vec(&mut mem).unwrap();
        let expected: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(all, expected);
        tree.check_invariants(&mut mem).unwrap();
    }

    #[test]
    fn range_into_matches_filtered_to_vec() {
        let heap = heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        for i in 0..200u64 {
            tree.insert(&mut mem, (i * 37) % 301, i).unwrap();
        }
        let all = tree.to_vec(&mut mem).unwrap();
        for (lo, hi, limit) in [
            (0u64, 301u64, u64::MAX),
            (50, 150, u64::MAX),
            (50, 150, 7),
            (150, 50, u64::MAX), // empty range
            (300, 400, u64::MAX),
            (0, 1, 0), // zero limit
        ] {
            let mut got = Vec::new();
            tree.range_into(&mut mem, lo, hi, limit, &mut got).unwrap();
            let want: Vec<(u64, u64)> = all
                .iter()
                .filter(|(k, _)| (lo..hi).contains(k))
                .take(limit as usize)
                .copied()
                .collect();
            assert_eq!(got, want, "range [{lo}, {hi}) limit {limit}");
        }
        // Empty tree.
        let empty = TxRbTree::create(&mut mem).unwrap();
        let mut got = Vec::new();
        empty.range_into(&mut mem, 0, 100, 10, &mut got).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn remove_all_leaves_empty_tree() {
        let heap = heap();
        let mut mem = DirectMem::new(&heap);
        let tree = TxRbTree::create(&mut mem).unwrap();
        let keys: Vec<u64> = (0..64).map(|i| (i * 37) % 101).collect();
        for &k in &keys {
            tree.insert(&mut mem, k, k).unwrap();
        }
        for &k in &keys {
            assert!(tree.remove(&mut mem, k).unwrap());
            tree.check_invariants(&mut mem).unwrap();
        }
        assert!(tree.is_empty(&mut mem).unwrap());
        assert_eq!(tree.to_vec(&mut mem).unwrap(), Vec::new());
    }
}
