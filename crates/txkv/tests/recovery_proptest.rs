//! Property-based crash-recovery conformance (ISSUE 5 satellite): random
//! seeded op streams — generated by the YCSB-style `workloads::kv` driver —
//! crossed with a random WAL crash point must always recover to a state
//! conformant with the oracle replay of an acknowledged batch-boundary
//! prefix. On failure, proptest shrinks toward a minimal failing stream.

use proptest::prelude::*;

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{TempDir, TestRng};
use tlstm_workloads::kv::{generate_batch, KeyDist, KvMix, KvParams};
use txkv::{
    CrashPoints, DurableKvConfig, DurableKvStore, FsyncPolicy, KvOp, KvServerConfig, KvStoreParams,
    RefStore, WalError,
};
use txlog::crash_points;
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};

const SHARDS: u64 = 4;
const GROUPS: usize = 2;

fn config(crash_points: CrashPoints) -> DurableKvConfig {
    DurableKvConfig {
        server: KvServerConfig {
            store: KvStoreParams {
                shards: SHARDS,
                expected_keys: 256,
            },
            batch_tasks: GROUPS,
            tx: TxConfig::small(),
        },
        fsync: FsyncPolicy::Always,
        crash_points,
        ..DurableKvConfig::default()
    }
}

fn workload_params() -> KvParams {
    KvParams {
        records: 64,
        value_words: 3,
        ops_per_txn: 6,
        shards: SHARDS,
        tasks_per_txn: GROUPS,
        ..KvParams::mix(KvMix::A)
    }
}

fn op_writes(op: &KvOp) -> bool {
    matches!(
        op,
        KvOp::Put { .. } | KvOp::Delete { .. } | KvOp::Cas { .. }
    )
}

/// One property case on runtime `R` (the vendored `prop_assert!` panics on
/// failure, so the caller just dispatches on a generated runtime index).
fn run_case<R: TxRuntime>(seed: u64, n_batches: usize, point_index: usize) {
    {
        // Only append-path points: rotation points never fire from `batch`.
        let point = crash_points::APPEND[point_index];
        let dir = TempDir::new("txkv-prop");
        let crash = CrashPoints::disabled();
        let store = DurableKvStore::<R>::boot(dir.path(), &config(crash.clone())).unwrap();
        let mut session = store.session();

        let params = workload_params();
        let dist = KeyDist::new(&params);
        let mut rng = TestRng::new(seed);

        // `logged[i]` is the i-th batch containing a write — its LSN is `i`
        // (single session ⇒ submission order is commit order). Read-only
        // batches never touch the log or the state.
        let mut logged: Vec<Vec<KvOp>> = Vec::new();
        let mut acked = 0usize;
        let mut crashed = false;
        for batch_no in 0..n_batches {
            if batch_no + 1 == n_batches {
                // Arm before the final batch so the stream crashes mid-run.
                crash.arm(point);
            }
            let ops = generate_batch(&mut rng, &dist, &params);
            let writes = ops.iter().any(op_writes);
            if writes {
                logged.push(ops.clone());
            }
            match session.batch(ops) {
                Ok(_) => {
                    if writes {
                        acked += 1;
                    }
                }
                Err(error) => {
                    // Crash points surface `Crashed`; the fault-injection
                    // proptest covers the storage variants.
                    prop_assert_eq!(error, WalError::Crashed);
                    crashed = true;
                    break;
                }
            }
        }
        // The armed point only fires on a *logged* batch; an all-read final
        // batch leaves the writer alive — and the post-fsync point kills the
        // writer while the batch itself still reports durable (`Ok`).
        if crashed {
            prop_assert!(store.is_dead());
        }
        drop(session);
        drop(store);

        let recovered =
            DurableKvStore::<R>::boot(dir.path(), &config(CrashPoints::disabled())).unwrap();
        let n = recovered.recovery().next_lsn as usize;
        prop_assert!(n >= acked, "acknowledged writes lost: {} < {}", n, acked);
        prop_assert!(n <= logged.len());
        let mut oracle = RefStore::new(SHARDS);
        for ops in &logged[..n] {
            oracle.batch(ops, GROUPS);
        }
        let got = recovered
            .store()
            .dump(&mut recovered.server().direct())
            .unwrap();
        prop_assert_eq!(
            got,
            oracle.dump(),
            "recovered state diverges from the oracle prefix (n = {})",
            n
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_stream_times_random_crash_point_recovers_conformantly(
        seed in any::<u64>(),
        n_batches in 1usize..10,
        point_index in 0usize..4,
        runtime_index in 0usize..3,
    ) {
        match runtime_index {
            0 => run_case::<SwisstmRuntime>(seed, n_batches, point_index),
            1 => run_case::<TlstmRuntime>(seed, n_batches, point_index),
            _ => run_case::<SeqRefRuntime>(seed, n_batches, point_index),
        }
    }
}
