//! Quickstart: one user-thread, one user-transaction, two speculative tasks —
//! written against the runtime-agnostic [`TxRuntime`]/[`TxSession`] API.
//!
//! ```text
//! cargo run -p examples-app --release --bin quickstart
//! ```

use tlstm::TlstmRuntime;
use txmem::{TxConfig, TxMem, TxRuntime, TxSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A runtime owns the transactional heap, the global lock table and the
    // commit clock. `spec_depth` bounds how many tasks of one user-thread
    // may run speculatively in parallel.
    let runtime = TlstmRuntime::new(TxConfig {
        spec_depth: 2,
        ..TxConfig::default()
    });

    // Allocate two shared words non-transactionally (setup phase).
    let account_a = runtime.heap().alloc(1)?;
    let account_b = runtime.heap().alloc(1)?;
    runtime.heap().store_committed(account_a, 100);
    runtime.heap().store_committed(account_b, 0);

    // A per-thread session is the handle transactions run through. On TLSTM
    // it registers a user-thread; other runtimes (SwissTM, seqref) hand out
    // sessions from the same method — the code below runs on any of them.
    let mut session = runtime.session();

    // A user-transaction split into two tasks: task 0 withdraws from
    // account A, task 1 deposits into account B *reading the speculative
    // state left by task 0*. On sequential runtimes the same tasks run in
    // order inside one transaction. Each task returns a value; `run_split`
    // hands back the committed execution's values in task order.
    let balances = session.run_split(2, |task, mem| {
        let a = mem.read(account_a)?;
        if task == 0 {
            mem.write(account_a, a - 40)?;
            return Ok(a - 40);
        }
        let b = mem.read(account_b)? + (100 - a); // a is 60, the speculative value
        mem.write(account_b, b)?;
        Ok(b)
    });
    assert_eq!(balances, [60, 40]);

    println!(
        "account A = {}, account B = {}",
        runtime.heap().load_committed(account_a),
        runtime.heap().load_committed(account_b)
    );
    println!("--- runtime statistics ---\n{}", runtime.stats());
    assert_eq!(runtime.heap().load_committed(account_a), 60);
    assert_eq!(runtime.heap().load_committed(account_b), 40);
    Ok(())
}
