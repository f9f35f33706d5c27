//! Speculative pipelining of *future* transactions.
//!
//! TLSTM can start executing the tasks of a user-thread's next transactions
//! while the current one is still active (§1 of the paper). This example
//! submits a whole batch of dependent transactions at once — each appends to a
//! transactional log — checks that program order is preserved exactly, and
//! times the batch against submitting the same transactions one at a time.
//!
//! Both halves run on one session (speculative depth 4, so two transactions'
//! tasks may be active at once): the serial half through the portable
//! [`TxSession`] API, the pipelined half through TLSTM's inherent
//! batch-submission interface, which is the one capability that deliberately
//! stays *outside* the runtime-agnostic trait (cross-transaction speculation
//! has no meaning on non-speculative runtimes).
//!
//! The printed ratio is a measurement, not a promise: only the read-only
//! prologues can overlap, since every append reads the previous one's
//! cursor, and on short transactions the hand-off to a helper can cost more
//! than the overlap saves. Three release runs on a 2-vCPU host printed
//! serial / pipelined times of 1.23×, 1.54× and 1.60×, with no task aborted.
//!
//! ```text
//! cargo run -p examples-app --release --bin speculative_pipeline
//! ```

use std::time::Instant;

use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
use txmem::{Abort, TxConfig, TxMem, TxRuntime, TxSession};

const BATCH: u64 = 200;
const WORK_PER_TASK: u64 = 400;

fn busy_reads<M: TxMem + ?Sized>(mem: &mut M, base: txmem::WordAddr, n: u64) -> Result<u64, Abort> {
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(mem.read(base.offset(i % 64))?);
    }
    Ok(acc)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runtime = TlstmRuntime::new(TxConfig {
        spec_depth: 4,
        ..TxConfig::default()
    });
    let log = runtime.heap().alloc(BATCH)?;
    let cursor = runtime.heap().alloc(1)?;
    let scratch = runtime.heap().alloc(64)?;

    // Serial submission through the portable session API: one transaction at
    // a time (no pipelining across transactions — the two tasks *inside* each
    // transaction may still overlap).
    let mut session = runtime.session();
    let started = Instant::now();
    for id in 0..BATCH {
        // Task 0: CPU/read-heavy prologue (independent work, parallelisable).
        // Task 1: appends the transaction id to the log (carries the true
        // data dependency between transactions).
        session.run_split(2, |task, mem| {
            if task == 0 {
                return busy_reads(mem, scratch, WORK_PER_TASK).map(|_| ());
            }
            let pos = mem.read(cursor)?;
            mem.write(log.offset(pos), id)?;
            mem.write(cursor, pos + 1)
        });
    }
    let serial = started.elapsed();
    runtime.heap().store_committed(cursor, 0);

    // Pipelined submission on the same session: the whole batch is handed to
    // the runtime at once via TLSTM's inherent interface, so tasks of future
    // transactions may run speculatively while earlier ones still commit.
    let make_txn = |id: u64| {
        let prologue =
            task(move |ctx: &mut TaskCtx<'_>| busy_reads(ctx, scratch, WORK_PER_TASK).map(|_| ()));
        let append = task(move |ctx: &mut TaskCtx<'_>| {
            let pos = ctx.read(cursor)?;
            ctx.write(log.offset(pos), id)?;
            ctx.write(cursor, pos + 1)?;
            Ok(())
        });
        TxnSpec::new(vec![prologue, append])
    };
    let started = Instant::now();
    let batch: Vec<TxnSpec> = (0..BATCH).map(make_txn).collect();
    session.execute(batch);
    let pipelined = started.elapsed();

    // Program order is preserved: the log lists the ids in submission order.
    for i in 0..BATCH {
        assert_eq!(runtime.heap().load_committed(log.offset(i)), i);
    }
    println!("transactions                  : {BATCH}");
    println!(
        "serial submission             : {:>8.1} ms",
        serial.as_secs_f64() * 1e3
    );
    println!(
        "pipelined (speculative) batch : {:>8.1} ms",
        pipelined.as_secs_f64() * 1e3
    );
    println!(
        "serial / pipelined time       : {:>8.2}x",
        serial.as_secs_f64() / pipelined.as_secs_f64()
    );
    println!("--- runtime statistics ---\n{}", runtime.stats());
    Ok(())
}
