//! Property-based fault-injection conformance (ISSUE 8): random seeded op
//! streams — generated by the YCSB-style `workloads::kv` driver — crossed
//! with random fault schedules (site × error × budget × short-write × arm
//! position) must always end in one of exactly two outcomes per batch: the
//! batch is acknowledged and survives recovery, or it fails with a typed
//! [`WalError`]. Recovery on a clean disk must match the [`RefStore`]
//! oracle replayed to a batch-boundary prefix containing every acknowledged
//! batch. Faults within the retry budget are absorbed entirely.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::{TempDir, TestRng};
use tlstm_workloads::kv::{generate_batch, KeyDist, KvMix, KvParams};
use txkv::{
    DurableKvConfig, DurableKvStore, Fault, FaultError, FaultFs, FsyncPolicy, Health, KvOp,
    KvServerConfig, KvStoreParams, RefStore, RetryPolicy, StorageOp, WalError,
};
use txmem::{SeqRefRuntime, TxConfig, TxRuntime};

const SHARDS: u64 = 4;
const GROUPS: usize = 2;

/// The fault sites a `session.batch` stream can hit (append path).
const SITES: [StorageOp; 2] = [StorageOp::Write, StorageOp::Fsync];
const ERRORS: [FaultError; 2] = [FaultError::Eio, FaultError::Enospc];

fn config(fs: &FaultFs) -> DurableKvConfig {
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
        crash_points: txkv::CrashPoints::disabled(),
        fs: Arc::new(fs.clone()),
        // Real retry policy (3 attempts), with a tiny backoff so absorbed
        // faults don't slow the property down.
        retry: RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_micros(10),
        },
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

/// Decodes the generated schedule code into (site, error, short, budget):
/// 2 sites × 2 errors × short on/off × {once, thrice, forever} = 24 shapes.
fn decode_schedule(code: usize) -> (StorageOp, FaultError, bool, Option<u32>) {
    let site = SITES[code % 2];
    let error = ERRORS[(code / 2) % 2];
    let short = (code / 4) % 2 == 1;
    let times = [Some(1), Some(3), None][(code / 8) % 3];
    (site, error, short, times)
}

/// One property case on runtime `R`: submit `n_batches`, arming the chosen
/// fault before batch `arm_at`; stop at the first error; recover on a clean
/// disk and compare against the oracle prefix.
fn run_case<R: TxRuntime>(seed: u64, n_batches: usize, schedule: usize, arm_at: usize) {
    {
        let (site, error, short, times) = decode_schedule(schedule);
        let dir = TempDir::new("txkv-fault-prop");
        let fs = FaultFs::new();
        let plan = fs.plan();
        let store = DurableKvStore::<R>::boot(dir.path(), &config(&fs)).unwrap();
        let mut session = store.session();

        let params = workload_params();
        let dist = KeyDist::new(&params);
        let mut rng = TestRng::new(seed);

        // `logged[i]` is the i-th batch containing a write — its LSN is `i`
        // (single session ⇒ submission order is commit order).
        let mut logged: Vec<Vec<KvOp>> = Vec::new();
        let mut acked = 0usize;
        let mut poisoned = false;
        for batch_no in 0..n_batches {
            if batch_no == arm_at {
                let mut fault = match times {
                    Some(n) => Fault::times(n, error),
                    None => Fault::forever(error),
                };
                if short {
                    fault = fault.short();
                }
                plan.arm(site, fault);
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
                    // The first failure must be the typed root cause, and
                    // only a *logged* batch can hit it.
                    prop_assert!(
                        matches!(error, WalError::Storage { .. }),
                        "first error must be WalError::Storage, got {:?}",
                        error
                    );
                    prop_assert!(writes);
                    poisoned = true;
                    break;
                }
            }
        }
        // Exactly-two-outcomes: every batch either acked (survives below) or
        // returned a typed error; a poisoned store degrades cleanly.
        if poisoned {
            prop_assert!(matches!(store.health(), Health::Degraded(_)));
            let mut probe = store.session();
            prop_assert_eq!(
                probe.put(u64::MAX, vec![1]).unwrap_err(),
                WalError::Degraded
            );
            prop_assert_eq!(probe.get(u64::MAX), None, "refused write must not apply");
        } else {
            // Within-budget faults (times ≤ retries on the write path, or a
            // budget that never fired) are absorbed: the store stays healthy.
            let fired = plan.fired_count(site) > 0;
            let absorbed = site == StorageOp::Write && times.is_some();
            prop_assert!(
                !fired || absorbed,
                "a surfaced {site:?} fault must poison the store"
            );
            prop_assert_eq!(store.health(), Health::Healthy);
        }
        drop(session);
        drop(store);

        let recovered = DurableKvStore::<R>::boot(dir.path(), &config(&FaultFs::new())).unwrap();
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
    fn random_stream_times_random_fault_schedule_recovers_conformantly(
        seed in any::<u64>(),
        n_batches in 1usize..10,
        // Decoded by `decode_schedule` into site × error × short × budget.
        schedule in 0usize..24,
        arm_at in 0usize..10,
        runtime_index in 0usize..3,
    ) {
        match runtime_index {
            0 => run_case::<SwisstmRuntime>(seed, n_batches, schedule, arm_at),
            1 => run_case::<TlstmRuntime>(seed, n_batches, schedule, arm_at),
            _ => run_case::<SeqRefRuntime>(seed, n_batches, schedule, arm_at),
        }
    }
}
