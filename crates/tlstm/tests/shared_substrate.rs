//! Runtime handles sharing one substrate (`TxRuntime::with_substrate`).
//!
//! Every handle over one lock table draws its owner ids from the substrate,
//! so no two sessions mistake each other's w-locks for their own. Each test
//! here fails when handles number their owners independently: the ids
//! collide, a session takes another handle's lock for its own, and
//! increments are lost. The two sides increment their two words in opposite
//! orders, so they also meet in lock cycles, which SwissTM handles break only
//! by resolving each other's descriptors through the substrate's owner
//! registry (with a registry per handle, both sides wait forever).

use std::sync::Arc;

use swisstm::SwisstmRuntime;
use tlstm::TlstmRuntime;
use tlstm_testutil::with_default_watchdog;
use txmem::{SeqRefRuntime, TxConfig, TxMem, TxRuntime, TxSession, TxSubstrate, WORDS_PER_LOCK};

/// Words each transaction reads after its increments: they keep its w-locks
/// held long enough for the other side to run into them.
const TAIL_WORDS: u64 = 256;

#[test]
fn handles_of_every_kind_draw_distinct_owner_ids() {
    let substrate = Arc::new(TxSubstrate::new(TxConfig::small()));
    let swisstm = SwisstmRuntime::with_substrate(Arc::clone(&substrate));
    let tlstm = TlstmRuntime::with_substrate(Arc::clone(&substrate));
    let seqref = SeqRefRuntime::with_substrate(Arc::clone(&substrate));
    let ids = [
        swisstm.register_thread().id(),
        tlstm.register_uthread_default().ptid(),
        seqref.session().id(),
    ];
    for (i, a) in ids.iter().enumerate() {
        for b in &ids[i + 1..] {
            assert_ne!(a, b, "owner ids {ids:?} collide over one substrate");
        }
    }
}

/// Runs two handles of `R` over one substrate, one thread each. Each thread
/// runs `txns` transactions of `tasks` tasks that increment words `x` and `y`
/// once each — side 0 in the order x, y and side 1 in the order y, x, task
/// `i` taking every `tasks`-th increment from the `i`-th — and then read
/// [`TAIL_WORDS`] more words. Returns the final `[x, y]`.
fn opposite_increments<R: TxRuntime>(txns: u64, tasks: usize) -> [u64; 2] {
    let substrate = Arc::new(TxSubstrate::new(TxConfig::small()));
    // Each counter gets a lock of its own; the tail shares neither.
    let x = substrate.heap.alloc(WORDS_PER_LOCK).unwrap();
    let y = substrate.heap.alloc(WORDS_PER_LOCK).unwrap();
    let tail = substrate.heap.alloc(TAIL_WORDS).unwrap();
    assert_ne!(substrate.locks.index_for(x), substrate.locks.index_for(y));
    std::thread::scope(|scope| {
        for order in [[x, y], [y, x]] {
            let runtime = R::with_substrate(Arc::clone(&substrate));
            scope.spawn(move || {
                let mut session = runtime.session();
                for _ in 0..txns {
                    session.run_split(tasks, |task, mem| {
                        for &word in order.iter().skip(task).step_by(tasks) {
                            let v = mem.read(word)?;
                            mem.write(word, v + 1)?;
                        }
                        let mut sum = 0u64;
                        for i in 0..TAIL_WORDS {
                            sum = sum.wrapping_add(mem.read(tail.offset(i))?);
                        }
                        Ok(sum)
                    });
                }
            });
        }
    });
    [x, y].map(|word| substrate.heap.load_committed(word))
}

#[test]
fn two_swisstm_handles_lose_no_increment() {
    let totals = with_default_watchdog(|| opposite_increments::<SwisstmRuntime>(20_000, 1));
    assert_eq!(totals, [40_000, 40_000], "final [x, y]");
}

#[test]
fn two_tlstm_handles_lose_no_increment() {
    let totals = with_default_watchdog(|| opposite_increments::<TlstmRuntime>(5_000, 2));
    assert_eq!(totals, [10_000, 10_000], "final [x, y]");
}
