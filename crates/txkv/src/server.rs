//! The in-process serving front-end.
//!
//! A [`KvServer`] owns one [`TxRuntime`] and one [`KvStore`]; each client
//! obtains a [`KvSession`] (one per client thread) and submits single
//! operations or multi-operation batches. A batch executes as **one atomic
//! transaction** regardless of how many shards it touches.
//!
//! The server is generic over the runtime: every non-empty shard-group of a
//! batch plan (see [`crate::ops::plan_batch`]) becomes one task of a
//! [`TxSession::run_split`], which returns each group's replies (and group
//! 0's commit stamp) from its committed execution. Under TLSTM the groups
//! run as speculative tasks that commit in plan order whenever the session
//! holds a helper, and in order inside one transaction otherwise — the paper's
//! TLS-inside-transactions model applied to the canonical middleware
//! long-transaction, a multi-key read-modify-write batch. Sequential
//! runtimes (SwissTM, `seqref`) execute the identical plan in order inside
//! one transaction, which is what makes the runtimes directly comparable
//! (and conformance-testable against [`crate::RefStore::batch`]). The
//! in-memory and the durable server share this one path.
//!
//! A server is booted on a runtime by naming it:
//! `KvServer::<TlstmRuntime>::new(&config)`.

use txmem::{Abort, DirectMem, StatsSnapshot, TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

use std::sync::Arc;

use crate::ops::{plan_batch, KvOp, KvReply};
use crate::store::{KvStore, KvStoreParams};

/// Configuration of a [`KvServer`].
#[derive(Debug, Clone)]
pub struct KvServerConfig {
    /// Store sizing (shards, expected keys).
    pub store: KvStoreParams,
    /// Shard-groups a batch is planned into. Under a speculative runtime
    /// each non-empty group becomes one task; sequential runtimes execute
    /// the plan in order. All runtimes must use the same value to produce
    /// identical batch semantics.
    pub batch_tasks: usize,
    /// Substrate configuration (heap size, lock table, speculative depth).
    pub tx: TxConfig,
}

impl Default for KvServerConfig {
    fn default() -> Self {
        KvServerConfig {
            store: KvStoreParams::default(),
            batch_tasks: 4,
            tx: TxConfig::default(),
        }
    }
}

impl KvServerConfig {
    fn substrate(&self) -> TxConfig {
        TxConfig {
            spec_depth: self.tx.spec_depth.max(self.batch_tasks.max(1)),
            ..self.tx.clone()
        }
    }
}

/// A transactional key-value server: one runtime, one store, many sessions.
#[derive(Debug)]
pub struct KvServer<R: TxRuntime> {
    runtime: Arc<R>,
    store: KvStore,
    batch_tasks: usize,
}

impl<R: TxRuntime> KvServer<R> {
    /// Boots a server on runtime `R`. The substrate's speculative depth is
    /// raised to at least [`KvServerConfig::batch_tasks`], so sessions can
    /// always run a full batch plan as one split transaction.
    pub fn new(config: &KvServerConfig) -> Self {
        let runtime = R::new(config.substrate());
        let store = KvStore::create(&mut runtime.direct(), &config.store)
            .expect("KV store allocation failed");
        KvServer {
            runtime,
            store,
            batch_tasks: config.batch_tasks.max(1),
        }
    }

    /// The store handle (for direct inspection in tests).
    pub fn store(&self) -> KvStore {
        self.store
    }

    /// Shard-groups per batch.
    pub fn batch_tasks(&self) -> usize {
        self.batch_tasks
    }

    /// The runtime this server runs on (`"swisstm"`, `"tlstm"`, `"seqref"`).
    pub fn runtime_label(&self) -> &'static str {
        R::LABEL
    }

    /// Non-transactional direct access (initialisation and test inspection
    /// only — never while sessions are running).
    pub fn direct(&self) -> DirectMem<'_> {
        self.runtime.direct()
    }

    /// Loads `entries` into the store non-transactionally (pre-measurement
    /// population, as the paper's benchmarks do).
    pub fn populate(&self, entries: impl IntoIterator<Item = (u64, Vec<u64>)>) {
        let mut mem = self.direct();
        for (key, value) in entries {
            self.store
                .put(&mut mem, key, &value)
                .expect("populate cannot abort");
        }
    }

    /// The runtime's statistics counters accumulated so far.
    pub fn stats(&self) -> StatsSnapshot {
        self.runtime.stats()
    }

    /// Opens a session. Each client thread needs its own.
    pub fn session(&self) -> KvSession<R> {
        KvSession {
            session: self.runtime.session(),
            store: self.store,
            batch_tasks: self.batch_tasks,
        }
    }
}

/// A per-client handle: submits operations and batches to the server.
#[derive(Debug)]
pub struct KvSession<R: TxRuntime> {
    pub(crate) session: R::Session,
    store: KvStore,
    batch_tasks: usize,
}

impl<R: TxRuntime> KvSession<R> {
    /// Reads `key` in its own transaction.
    pub fn get(&mut self, key: u64) -> Option<Vec<u64>> {
        match self.batch_one(KvOp::Get { key }) {
            KvReply::Value(v) => v,
            other => unreachable!("get produced {other:?}"),
        }
    }

    /// Writes `key → value` in its own transaction. Returns `true` on fresh
    /// insert.
    pub fn put(&mut self, key: u64, value: Vec<u64>) -> bool {
        match self.batch_one(KvOp::Put { key, value }) {
            KvReply::Inserted(fresh) => fresh,
            other => unreachable!("put produced {other:?}"),
        }
    }

    /// Deletes `key` in its own transaction. Returns `true` if it existed.
    pub fn delete(&mut self, key: u64) -> bool {
        match self.batch_one(KvOp::Delete { key }) {
            KvReply::Removed(existed) => existed,
            other => unreachable!("delete produced {other:?}"),
        }
    }

    /// Compare-and-swap in its own transaction.
    pub fn cas(&mut self, key: u64, expected: Vec<u64>, new: Vec<u64>) -> bool {
        match self.batch_one(KvOp::Cas { key, expected, new }) {
            KvReply::Swapped(swapped) => swapped,
            other => unreachable!("cas produced {other:?}"),
        }
    }

    /// Ordered scan in its own transaction.
    pub fn scan(&mut self, lo: u64, hi: u64, limit: u64) -> Vec<(u64, u64)> {
        match self.batch_one(KvOp::Scan { lo, hi, limit }) {
            KvReply::Scan(hits) => hits,
            other => unreachable!("scan produced {other:?}"),
        }
    }

    fn batch_one(&mut self, op: KvOp) -> KvReply {
        self.batch(vec![op])
            .pop()
            .expect("single-op batch yields one reply")
    }

    /// Executes `ops` as one atomic transaction and returns one reply per
    /// operation, in submission order. Execution follows the batch plan (see
    /// [`crate::ops::plan_batch`]); under a speculative runtime each
    /// non-empty shard-group runs as its own task.
    pub fn batch(&mut self, ops: impl AsRef<[KvOp]>) -> Vec<KvReply> {
        self.execute(ops.as_ref(), None).0
    }

    /// Executes several independently-submitted sub-batches (typically one
    /// per client request) as **one** atomic transaction and splits the
    /// replies back per sub-batch — server-side coalescing: N requests share
    /// one plan, one commit.
    /// Request order and operation order within each request are preserved;
    /// empty sub-batches yield empty reply lists.
    pub fn batch_with_replies(&mut self, requests: Vec<Vec<KvOp>>) -> Vec<Vec<KvReply>> {
        let lens: Vec<usize> = requests.iter().map(Vec::len).collect();
        let replies = self.batch(requests.into_iter().flatten().collect::<Vec<_>>());
        crate::ops::split_replies(&lens, replies)
    }

    /// The one path from a batch to a transaction. With a `stamp` word, the
    /// transaction also reads and increments it and returns the value read:
    /// a **commit sequence number**, dense and ordered exactly as the STM
    /// serialises the commits of concurrent stamped batches — the property
    /// the durable front-end's redo log relies on. An empty batch runs no
    /// transaction and is never stamped.
    pub(crate) fn execute(
        &mut self,
        ops: &[KvOp],
        stamp: Option<WordAddr>,
    ) -> (Vec<KvReply>, Option<u64>) {
        if ops.is_empty() {
            return (Vec::new(), None);
        }
        let store = self.store;
        let groups: Vec<Vec<usize>> = plan_batch(ops, store.shards(), self.batch_tasks)
            .into_iter()
            .filter(|group| !group.is_empty())
            .collect();
        // Group 0 carries the stamp: its position inside the transaction is
        // irrelevant for the commit order it captures.
        let groups = &groups;
        let results = self.session.run_split(groups.len(), |i, mem| {
            let lsn = stamp_batch(mem, stamp.filter(|_| i == 0))?;
            Ok((lsn, apply_group(store, mem, ops, &groups[i])?))
        });
        let lsn = results[0].0;
        let filled = results.into_iter().flat_map(|(_, replies)| replies);
        (scatter(ops.len(), filled), lsn)
    }
}

/// Reads and increments the `stamp` word, if any, returning the value read.
fn stamp_batch<M: TxMem>(mem: &mut M, stamp: Option<WordAddr>) -> Result<Option<u64>, Abort> {
    let Some(seq) = stamp else {
        return Ok(None);
    };
    let lsn = mem.read(seq)?;
    mem.write(seq, lsn + 1)?;
    Ok(Some(lsn))
}

/// Applies one shard-group of the plan, returning its `(op index, reply)`
/// pairs.
fn apply_group<M: TxMem>(
    store: KvStore,
    mem: &mut M,
    ops: &[KvOp],
    group: &[usize],
) -> Result<Vec<(usize, KvReply)>, Abort> {
    let mut replies = Vec::with_capacity(group.len());
    for &index in group {
        replies.push((index, store.apply(mem, &ops[index])?));
    }
    Ok(replies)
}

/// Puts the `(op index, reply)` pairs of a committed plan back in submission
/// order.
fn scatter(len: usize, filled: impl IntoIterator<Item = (usize, KvReply)>) -> Vec<KvReply> {
    let mut replies: Vec<Option<KvReply>> = vec![None; len];
    for (index, reply) in filled {
        replies[index] = Some(reply);
    }
    replies
        .into_iter()
        .map(|r| r.expect("plan covers every op"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::checksum;
    use crate::RefStore;
    use swisstm::SwisstmRuntime;
    use tlstm::TlstmRuntime;
    use txmem::{SeqRefRuntime, TxConfig};

    fn test_config(batch_tasks: usize) -> KvServerConfig {
        KvServerConfig {
            store: KvStoreParams {
                shards: 8,
                expected_keys: 256,
            },
            batch_tasks,
            tx: TxConfig::small(),
        }
    }

    /// Runs `check` once per registered runtime (the pluggability the
    /// [`TxRuntime`] redesign exists to guarantee).
    fn on_every_runtime(batch_tasks: usize, check: impl Fn(&dyn ServerUnderTest)) {
        check(&KvServer::<SwisstmRuntime>::new(&test_config(batch_tasks)));
        check(&KvServer::<TlstmRuntime>::new(&test_config(batch_tasks)));
        check(&KvServer::<SeqRefRuntime>::new(&test_config(batch_tasks)));
    }

    /// Object-safe view of a server used to iterate heterogeneous
    /// `KvServer<R>` instantiations in tests.
    trait ServerUnderTest {
        fn label(&self) -> &'static str;
        fn groups(&self) -> usize;
        fn populate_range(&self, n: u64);
        fn run_batch(&self, ops: Vec<KvOp>) -> Vec<KvReply>;
        fn dump(&self) -> Vec<(u64, Vec<u64>)>;
        fn check(&self);
        fn single_op_round_trip(&self);
    }

    impl<R: TxRuntime> ServerUnderTest for KvServer<R> {
        fn label(&self) -> &'static str {
            self.runtime_label()
        }
        fn groups(&self) -> usize {
            self.batch_tasks()
        }
        fn populate_range(&self, n: u64) {
            self.populate((0..n).map(|k| (k, vec![k, k + 1])));
        }
        fn run_batch(&self, ops: Vec<KvOp>) -> Vec<KvReply> {
            self.session().batch(ops)
        }
        fn dump(&self) -> Vec<(u64, Vec<u64>)> {
            self.store().dump(&mut self.direct()).unwrap()
        }
        fn check(&self) {
            self.store().check_consistency(&mut self.direct()).unwrap();
        }
        fn single_op_round_trip(&self) {
            let label = self.runtime_label();
            let mut session = self.session();
            assert!(session.put(1, vec![10, 20]), "{label}");
            assert_eq!(session.get(1), Some(vec![10, 20]), "{label}");
            assert!(session.cas(1, vec![10, 20], vec![30, 40]), "{label}");
            assert!(!session.cas(1, vec![10, 20], vec![0, 0]), "{label}");
            assert_eq!(
                session.scan(0, 10, 10),
                vec![(1, checksum(&[30, 40]))],
                "{label}"
            );
            assert!(session.delete(1), "{label}");
            assert_eq!(session.get(1), None, "{label}");
        }
    }

    #[test]
    fn single_op_api_round_trips_on_every_runtime() {
        on_every_runtime(2, |server| server.single_op_round_trip());
    }

    #[test]
    fn batches_are_atomic_and_match_the_oracle() {
        on_every_runtime(4, |server| {
            let label = server.label();
            server.populate_range(32);
            let mut oracle = RefStore::new(8);
            for k in 0..32u64 {
                oracle.put(k, &[k, k + 1]);
            }
            let ops: Vec<KvOp> = (0..16u64)
                .map(|i| match i % 4 {
                    0 => KvOp::Get { key: i * 2 },
                    1 => KvOp::Put {
                        key: i * 2,
                        value: vec![i, i, i],
                    },
                    2 => KvOp::Cas {
                        key: i * 2,
                        expected: vec![i * 2, i * 2 + 1],
                        new: vec![99, 99],
                    },
                    _ => KvOp::Scan {
                        lo: i,
                        hi: i + 8,
                        limit: 4,
                    },
                })
                .collect();
            let got = server.run_batch(ops.clone());
            let want = oracle.batch(&ops, server.groups());
            assert_eq!(got, want, "{label} replies diverge from oracle");
            assert_eq!(
                server.dump(),
                oracle.dump(),
                "{label} committed state diverges from oracle"
            );
            server.check();
        });
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        on_every_runtime(2, |server| {
            assert!(
                server.run_batch(Vec::new()).is_empty(),
                "{}",
                server.label()
            );
        });
    }

    #[test]
    fn coalesced_requests_share_one_transaction_and_split_replies() {
        let server = KvServer::<SwisstmRuntime>::new(&test_config(4));
        server.populate((0..32u64).map(|k| (k, vec![k])));
        let mut oracle = RefStore::new(8);
        for k in 0..32u64 {
            oracle.put(k, &[k]);
        }
        // Three clients' requests, including an empty one.
        let requests: Vec<Vec<KvOp>> = vec![
            vec![
                KvOp::Put {
                    key: 3,
                    value: vec![100],
                },
                KvOp::Get { key: 7 },
            ],
            vec![],
            vec![
                KvOp::Delete { key: 11 },
                KvOp::Cas {
                    key: 13,
                    expected: vec![13],
                    new: vec![99],
                },
                KvOp::Scan {
                    lo: 0,
                    hi: 16,
                    limit: 32,
                },
            ],
        ];
        let committed_before = server.stats().tx_commits;
        let split = server.session().batch_with_replies(requests.clone());
        assert_eq!(
            server.stats().tx_commits - committed_before,
            1,
            "coalesced requests must share one transaction"
        );
        // Replies match running the concatenated batch on the oracle, split
        // back at the request boundaries.
        let concatenated: Vec<KvOp> = requests.iter().flatten().cloned().collect();
        let want = oracle.batch(&concatenated, server.batch_tasks());
        assert_eq!(split.len(), 3);
        assert_eq!(split[0], want[..2].to_vec());
        assert!(split[1].is_empty());
        assert_eq!(split[2], want[2..].to_vec());
    }

    #[test]
    fn tlstm_batches_actually_split_into_tasks() {
        let server = KvServer::<TlstmRuntime>::new(&test_config(4));
        server.populate((0..64u64).map(|k| (k, vec![k])));
        let mut session = server.session();
        // A batch over many keys lands in several shard-groups.
        let ops: Vec<KvOp> = (0..32u64).map(|k| KvOp::Get { key: k * 3 }).collect();
        // The plan always has several groups, and TLSTM runs each as its own
        // task on whichever lane claims it, on any host.
        assert_eq!(session.batch(ops).len(), 32);
        let stats = server.stats();
        assert!(
            stats.task_commits > stats.tx_commits,
            "a split batch commits more tasks than transactions (tasks={}, txns={})",
            stats.task_commits,
            stats.tx_commits
        );
    }

    #[test]
    fn generic_servers_expose_runtime_labels() {
        assert_eq!(
            KvServer::<SwisstmRuntime>::new(&test_config(1)).runtime_label(),
            "swisstm"
        );
        assert_eq!(
            KvServer::<TlstmRuntime>::new(&test_config(1)).runtime_label(),
            "tlstm"
        );
        assert_eq!(
            KvServer::<SeqRefRuntime>::new(&test_config(1)).runtime_label(),
            "seqref"
        );
    }
}
