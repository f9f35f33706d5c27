//! Concurrent bank-account transfers on every registered runtime.
//!
//! Several user-threads transfer money between random accounts; the total
//! balance must be conserved no matter how many conflicts and rollbacks
//! happen. One generic driver runs unchanged on the SwissTM baseline, on
//! TLSTM and on the sequential `seqref` reference runtime: each transfer is
//! split into a withdraw task and a deposit task that communicate through a
//! scratch word, run as speculative tasks on TLSTM and in order inside one
//! transaction on the other two.
//!
//! ```text
//! cargo run -p examples-app --release --bin bank_transfer
//! ```

use std::sync::Arc;
use std::time::Instant;

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use txmem::{SeqRefRuntime, TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

const ACCOUNTS: u64 = 64;
const INITIAL_BALANCE: u64 = 1_000;
const TRANSFERS_PER_THREAD: u64 = 2_000;
const THREADS: usize = 4;

fn pick_accounts(seed: &mut u64) -> (u64, u64) {
    // xorshift* — deterministic and cheap.
    let mut next = || {
        *seed ^= *seed >> 12;
        *seed ^= *seed << 25;
        *seed ^= *seed >> 27;
        seed.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let from = next() % ACCOUNTS;
    let mut to = next() % ACCOUNTS;
    if to == from {
        to = (to + 1) % ACCOUNTS;
    }
    (from, to)
}

fn total(heap: &txmem::TxHeap, base: WordAddr) -> u64 {
    (0..ACCOUNTS)
        .map(|i| heap.load_committed(base.offset(i)))
        .sum()
}

fn report(label: &str, transfers: u64, elapsed: std::time::Duration, grand_total: u64) {
    println!("== {label} ==");
    println!(
        "{transfers} transfers in {:.1} ms ({:.0} transfers/s)",
        elapsed.as_secs_f64() * 1e3,
        transfers as f64 / elapsed.as_secs_f64()
    );
    println!(
        "total balance: {grand_total} (expected {})",
        ACCOUNTS * INITIAL_BALANCE
    );
    assert_eq!(grand_total, ACCOUNTS * INITIAL_BALANCE);
}

/// One transfer as a 2-task transaction: the withdraw task parks the amount
/// in a per-thread scratch word, the deposit task reads it back (on TLSTM,
/// speculatively, before the withdraw task has committed).
fn transfer<S: TxSession>(
    session: &mut S,
    accounts: WordAddr,
    scratch: WordAddr,
    from: u64,
    to: u64,
) {
    session.run_split(2, |task, mem| {
        if task == 0 {
            let f = mem.read(accounts.offset(from))?;
            let amount = if f > 0 { 1 + f % 10 } else { 0 };
            mem.write(accounts.offset(from), f - amount)?;
            mem.write(scratch, amount)
        } else {
            let amount = mem.read(scratch)?;
            let bal = mem.read(accounts.offset(to))?;
            mem.write(accounts.offset(to), bal + amount)
        }
    });
}

/// The whole benchmark, generic over the runtime: the same driver code runs
/// on SwissTM, TLSTM and the sequential reference.
fn run<R: TxRuntime>() {
    let runtime = R::new(TxConfig {
        spec_depth: 2,
        ..TxConfig::default()
    });
    let accounts = runtime.heap().alloc(ACCOUNTS).unwrap();
    for i in 0..ACCOUNTS {
        runtime
            .heap()
            .store_committed(accounts.offset(i), INITIAL_BALANCE);
    }
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let runtime = Arc::clone(&runtime);
            scope.spawn(move || {
                let mut session = runtime.session();
                let mut seed = 0x1234_5678 + t as u64;
                // A scratch word per user-thread carries the withdrawn amount
                // from the first task to the second.
                let scratch = runtime.heap().alloc(1).unwrap();
                for _ in 0..TRANSFERS_PER_THREAD {
                    let (from, to) = pick_accounts(&mut seed);
                    transfer(&mut session, accounts, scratch, from, to);
                }
            });
        }
    });
    report(
        &format!("{} (2 tasks per transfer)", R::LABEL),
        THREADS as u64 * TRANSFERS_PER_THREAD,
        started.elapsed(),
        total(runtime.heap(), accounts),
    );
    println!("{}\n", runtime.stats());
}

fn main() {
    run::<SwisstmRuntime>();
    run::<TlstmRuntime>();
    run::<SeqRefRuntime>();
}
