//! Regression test for the TLSTM `c64` single-core livelock collapse.
//!
//! 64 committers × 4 speculative tasks livelock on intra-batch conflicts
//! when they outnumber the cores: whole batches re-execute over and over
//! (hundreds of ops/s, ~10⁵ aborts) while SwissTM pushes a million. A
//! session (`TlstmRuntime::register_uthread_default`) therefore borrows its
//! lanes from a process-wide pool — all sessions together at most
//! `cores − 1` helpers — and the caller and those helpers claim a batch's
//! tasks in program order, which must keep TLSTM within an order of
//! magnitude of SwissTM — on one bounded core, where sessions get no helper
//! and the caller runs every task itself, and on the host as it is.
//!
//! The pinned test re-executes itself bound to CPU 0 with `taskset`;
//! `available_parallelism` honours the affinity mask, so sessions in the
//! child process are built exactly as on a real single-core host.

use std::sync::Mutex;
use std::time::Duration;

use tlstm::TlstmRuntime;
use tlstm_workloads::harness::WorkloadConfig;
use tlstm_workloads::kv::{self, FsyncPolicy, KvDurability, KvMix, KvParams};

/// Guard so the re-executed child does not recurse.
const PINNED_ENV: &str = "TLSTM_C64_PINNED";

/// One measurement at a time, the pinned child's included: two sharing the
/// host would skew the ratio.
static MEASURING: Mutex<()> = Mutex::new(());

fn c64_params() -> KvParams {
    KvParams {
        // Smaller key space than the bench row keeps population quick; the
        // collapse is driven by committers × tasks, not by table size.
        records: 4 * 1024,
        tasks_per_txn: 4,
        threads: 64,
        durable: Some(KvDurability {
            fsync: FsyncPolicy::None,
        }),
        ..KvParams::mix(KvMix::A)
    }
}

#[test]
fn c64_durable_tlstm_within_order_of_magnitude_of_swisstm() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    if txmem::pause::multi_core() && std::env::var_os(PINNED_ENV).is_none() {
        // Re-exec this very test bounded to one CPU. Skip (loudly) when no
        // taskset is available rather than fail on exotic CI hosts.
        let exe = std::env::current_exe().expect("test binary path");
        let status = match std::process::Command::new("taskset")
            .args(["-c", "0"])
            .arg(&exe)
            .args([
                "--exact",
                "c64_durable_tlstm_within_order_of_magnitude_of_swisstm",
            ])
            .env(PINNED_ENV, "1")
            .status()
        {
            Ok(status) => status,
            Err(err) => {
                eprintln!("skipping single-core c64 regression: taskset unavailable ({err})");
                return;
            }
        };
        assert!(status.success(), "pinned single-core c64 regression failed");
        return;
    }

    measure_within_order_of_magnitude("single-core");
}

#[test]
fn c64_durable_tlstm_within_order_of_magnitude_of_swisstm_unpinned() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    measure_within_order_of_magnitude("unpinned");
}

fn measure_within_order_of_magnitude(host: &str) {
    let params = c64_params();
    let config = WorkloadConfig {
        duration: Duration::from_millis(1000),
        repetitions: 1,
        seed: 0xC64,
    };
    let swisstm = kv::measure::<swisstm::SwisstmRuntime>(&params, &config);
    let tlstm = kv::measure::<TlstmRuntime>(&params, &config);
    let swisstm_ops = swisstm.throughput.ops_per_sec();
    let tlstm_ops = tlstm.throughput.ops_per_sec();
    eprintln!("c64 {host}: swisstm {swisstm_ops:.0} ops/s, tlstm {tlstm_ops:.0} ops/s");
    assert!(swisstm_ops > 0.0, "swisstm must make progress");
    assert!(
        tlstm_ops * 10.0 >= swisstm_ops,
        "tlstm c64 collapsed ({host}): {tlstm_ops:.0} ops/s vs swisstm {swisstm_ops:.0} ops/s"
    );
}
