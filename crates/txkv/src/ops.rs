//! The key-value operation vocabulary shared by [`crate::KvStore`], the
//! sequential [`crate::RefStore`] oracle and the [`crate::KvServer`]
//! front-end.
//!
//! A *batch* is a list of [`KvOp`]s executed as one atomic transaction. Batch
//! execution is defined over a deterministic *plan* ([`plan_batch`]): the
//! operations are partitioned into `groups` shard-groups (by the shard of the
//! key they touch) and applied group by group, preserving submission order
//! inside each group. Under TLSTM each group becomes one speculative task, so
//! a long multi-key batch runs as parallel tasks that commit in plan order
//! (or, when its session claims no helper, as one solo transaction);
//! under SwissTM and in the reference oracle the plan is applied sequentially.
//! Because every execution path shares the same plan, identical batches
//! produce identical replies and identical committed state on all three.
//!
//! [`encode_op`]/[`decode_op`] are the one byte encoding of a [`KvOp`], for
//! the WAL's redo records (`crate::durable`) and `txnet`'s requests alike: a
//! tag byte — Put 1, Delete 2, Cas 3 (the WAL's since its first format), Get
//! 4, Scan 5 — then the keys as `u64`s and the values as word lists
//! ([`txlog::codec::put_words`]), little-endian.

use txlog::codec::{put_words, Cursor};

/// Number of hash shards is bounded so a shard directory always fits in one
/// small heap block.
pub const MAX_SHARDS: u64 = 1 << 16;

/// One key-value operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value of `key`.
    Get {
        /// The key to read.
        key: u64,
    },
    /// Insert or overwrite `key` with `value`.
    Put {
        /// The key to write.
        key: u64,
        /// The value, as whole words.
        value: Vec<u64>,
    },
    /// Remove `key`.
    Delete {
        /// The key to remove.
        key: u64,
    },
    /// Compare-and-swap: replace the value of `key` with `new` iff the
    /// current value equals `expected` (fails if the key is absent).
    Cas {
        /// The key to update.
        key: u64,
        /// The value the entry must currently hold.
        expected: Vec<u64>,
        /// The replacement value.
        new: Vec<u64>,
    },
    /// Ordered scan of keys in `lo..hi` (up to `limit` entries), returning
    /// `(key, checksum(value))` pairs.
    Scan {
        /// Inclusive lower bound.
        lo: u64,
        /// Exclusive upper bound.
        hi: u64,
        /// Maximum number of entries returned.
        limit: u64,
    },
}

impl KvOp {
    /// The key that determines which shard-group the operation is planned
    /// into. Scans span shards; they are planned by their lower bound.
    pub fn planning_key(&self) -> u64 {
        match self {
            KvOp::Get { key }
            | KvOp::Put { key, .. }
            | KvOp::Delete { key }
            | KvOp::Cas { key, .. } => *key,
            KvOp::Scan { lo, .. } => *lo,
        }
    }
}

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_CAS: u8 = 3;
const OP_GET: u8 = 4;
const OP_SCAN: u8 = 5;

/// Appends the encoding of `op` to `out`.
pub fn encode_op(out: &mut Vec<u8>, op: &KvOp) {
    match op {
        KvOp::Put { key, value } => {
            out.push(OP_PUT);
            out.extend_from_slice(&key.to_le_bytes());
            put_words(out, value);
        }
        KvOp::Delete { key } => {
            out.push(OP_DELETE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        KvOp::Cas { key, expected, new } => {
            out.push(OP_CAS);
            out.extend_from_slice(&key.to_le_bytes());
            put_words(out, expected);
            put_words(out, new);
        }
        KvOp::Get { key } => {
            out.push(OP_GET);
            out.extend_from_slice(&key.to_le_bytes());
        }
        KvOp::Scan { lo, hi, limit } => {
            out.push(OP_SCAN);
            for word in [lo, hi, limit] {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }
}

/// Why [`decode_op`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpDecodeError {
    /// The tag byte names no operation.
    UnknownTag(u8),
    /// The input ended inside the operation.
    Truncated,
}

/// Decodes the operation at the cursor. Never panics on arbitrary bytes.
///
/// # Errors
///
/// An unknown tag, or input that ends inside the operation.
pub fn decode_op(cur: &mut Cursor<'_>) -> Result<KvOp, OpDecodeError> {
    let tag = cur.u8().ok_or(OpDecodeError::Truncated)?;
    match tag {
        OP_PUT | OP_DELETE | OP_CAS | OP_GET | OP_SCAN => {
            decode_fields(tag, cur).ok_or(OpDecodeError::Truncated)
        }
        other => Err(OpDecodeError::UnknownTag(other)),
    }
}

/// The fields of an operation whose (known) tag was just read.
fn decode_fields(tag: u8, cur: &mut Cursor<'_>) -> Option<KvOp> {
    Some(match tag {
        OP_PUT => KvOp::Put {
            key: cur.u64()?,
            value: cur.words()?,
        },
        OP_DELETE => KvOp::Delete { key: cur.u64()? },
        OP_CAS => KvOp::Cas {
            key: cur.u64()?,
            expected: cur.words()?,
            new: cur.words()?,
        },
        OP_GET => KvOp::Get { key: cur.u64()? },
        _ => KvOp::Scan {
            lo: cur.u64()?,
            hi: cur.u64()?,
            limit: cur.u64()?,
        },
    })
}

/// The reply to one [`KvOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvReply {
    /// Reply to `Get`: the value, if the key was present.
    Value(Option<Vec<u64>>),
    /// Reply to `Put`: `true` if the key was newly inserted.
    Inserted(bool),
    /// Reply to `Delete`: `true` if the key was present.
    Removed(bool),
    /// Reply to `Cas`: `true` if the swap was applied.
    Swapped(bool),
    /// Reply to `Scan`: ascending `(key, checksum(value))` pairs.
    Scan(Vec<(u64, u64)>),
}

/// Maps a key to its shard. This deliberately uses a different mixing
/// constant than `TxHashMap`'s in-shard bucket hash, so shard choice and
/// bucket choice stay uncorrelated.
pub fn shard_of(key: u64, n_shards: u64) -> u64 {
    debug_assert!(n_shards > 0);
    key.wrapping_mul(0xD1B5_4A32_D192_ED03) % n_shards
}

/// Partitions the operations of one batch into `groups` shard-groups.
///
/// Returns one list of operation indices per group; concatenating the groups
/// yields the batch's *plan order* — the order in which the operations are
/// (logically) applied. Operations on the same key always land in the same
/// group, so per-key ordering within a batch is preserved.
pub fn plan_batch(ops: &[KvOp], n_shards: u64, groups: usize) -> Vec<Vec<usize>> {
    let groups = groups.max(1).min(ops.len().max(1));
    let mut plan: Vec<Vec<usize>> = vec![Vec::new(); groups];
    for (index, op) in ops.iter().enumerate() {
        let shard = shard_of(op.planning_key(), n_shards);
        plan[(shard % groups as u64) as usize].push(index);
    }
    plan
}

/// Splits the reply vector of a coalesced batch back into one reply list
/// per original request, given the per-request operation counts. Inverse of
/// concatenating the requests' operations: request order and operation order
/// within each request are preserved.
///
/// # Panics
///
/// Panics if `lens` does not sum to `replies.len()` (a coalescing bug — the
/// transaction produced one reply per operation by construction).
pub fn split_replies(lens: &[usize], replies: Vec<KvReply>) -> Vec<Vec<KvReply>> {
    assert_eq!(
        lens.iter().sum::<usize>(),
        replies.len(),
        "coalesced reply count diverges from the request plan"
    );
    let mut it = replies.into_iter();
    lens.iter()
        .map(|&n| it.by_ref().take(n).collect())
        .collect()
}

/// Seed of the per-value scan checksum.
pub const CHECKSUM_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// One step of the scan checksum fold (order-sensitive, so torn or reordered
/// values cannot cancel out). Streaming readers fold value words through this
/// directly; [`checksum`] is the whole-slice form.
#[inline]
pub fn checksum_word(acc: u64, word: u64) -> u64 {
    (acc.rotate_left(7) ^ word).wrapping_mul(0x1000_0000_01B3)
}

/// The word checksum scans report per entry.
pub fn checksum(value: &[u64]) -> u64 {
    value
        .iter()
        .fold(CHECKSUM_SEED, |acc, &w| checksum_word(acc, w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planning_key_is_the_touched_key() {
        assert_eq!(KvOp::Get { key: 7 }.planning_key(), 7);
        assert_eq!(
            KvOp::Put {
                key: 9,
                value: vec![1]
            }
            .planning_key(),
            9
        );
        assert_eq!(KvOp::Delete { key: 3 }.planning_key(), 3);
        assert_eq!(
            KvOp::Cas {
                key: 4,
                expected: vec![],
                new: vec![]
            }
            .planning_key(),
            4
        );
        assert_eq!(
            KvOp::Scan {
                lo: 10,
                hi: 20,
                limit: 5
            }
            .planning_key(),
            10
        );
    }

    #[test]
    fn plan_partitions_every_op_exactly_once() {
        let ops: Vec<KvOp> = (0..32).map(|k| KvOp::Get { key: k * 13 }).collect();
        let plan = plan_batch(&ops, 8, 4);
        assert_eq!(plan.len(), 4);
        let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..32).collect::<Vec<_>>());
        // Within a group, submission order is preserved.
        for group in &plan {
            assert!(group.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn same_key_ops_share_a_group() {
        let ops = vec![
            KvOp::Put {
                key: 42,
                value: vec![1],
            },
            KvOp::Get { key: 42 },
            KvOp::Delete { key: 42 },
        ];
        for groups in 1..=4 {
            let plan = plan_batch(&ops, 16, groups);
            let non_empty: Vec<_> = plan.iter().filter(|g| !g.is_empty()).collect();
            assert_eq!(non_empty.len(), 1, "groups={groups}");
            assert_eq!(*non_empty[0], vec![0, 1, 2]);
        }
    }

    #[test]
    fn plan_never_produces_more_groups_than_ops() {
        let ops = vec![KvOp::Get { key: 1 }];
        assert_eq!(plan_batch(&ops, 8, 4).len(), 1);
        assert_eq!(plan_batch(&[], 8, 4).len(), 1);
    }

    #[test]
    fn split_replies_inverts_concatenation() {
        let replies = vec![
            KvReply::Inserted(true),
            KvReply::Value(None),
            KvReply::Removed(false),
        ];
        let split = split_replies(&[1, 0, 2], replies.clone());
        assert_eq!(split.len(), 3);
        assert_eq!(split[0], vec![replies[0].clone()]);
        assert!(split[1].is_empty());
        assert_eq!(split[2], replies[1..].to_vec());
        assert!(split_replies(&[], Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "coalesced reply count")]
    fn split_replies_rejects_mismatched_plan() {
        let _ = split_replies(&[2], vec![KvReply::Inserted(true)]);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
        assert_ne!(checksum(&[]), checksum(&[0]));
        assert_eq!(checksum(&[5, 6, 7]), checksum(&[5, 6, 7]));
    }
}
