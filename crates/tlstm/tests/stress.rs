//! Stress tests of the TLSTM conflict machinery: deterministic forcing of
//! intra-thread WAR and WAW rollbacks, program-order commit under deep
//! speculation, and the task-aware contention manager under cross-thread
//! conflicts (SPECDEPTH >= 2 throughout).

use std::sync::Arc;
use std::time::Duration;

use tlstm::{task, TaskCtx, TlstmRuntime, TxnSpec};
use tlstm_testutil::{bounded_threads, with_default_watchdog, TestRng};
use txmem::{TxConfig, TxMem};

fn config(depth: usize) -> TxConfig {
    let mut cfg = TxConfig::small();
    cfg.heap_capacity_words = 1 << 20;
    cfg.spec_depth = depth;
    cfg
}

/// Intra-thread WAR: the later task reads a word from committed state before
/// the earlier task (delayed on purpose) writes it speculatively. `validate-
/// task` must roll the later task back individually and its re-execution must
/// observe the speculative value, so the committed result reflects program
/// order.
#[test]
fn intra_thread_war_rolls_back_and_reexecutes_the_reader() {
    with_default_watchdog(|| {
        let rt = TlstmRuntime::new(config(2));
        // Separate blocks so the read word and the derived word map to
        // different lock entries: the conflict is then only detectable by
        // `validate-task` (WAR), not by write-lock contention (WAW).
        let a = rt.heap().alloc(64).unwrap();
        let b = rt.heap().alloc(64).unwrap();
        let u = rt.register_uthread(2);
        let rounds = 20u64;
        for round in 0..rounds {
            // Task 1 stalls, then writes `a`. Task 2 reads `a` (almost
            // certainly from committed state, given the stall) and derives
            // `b` from it; program order requires b == (round+1) * 2.
            let writer = task(move |ctx: &mut TaskCtx<'_>| {
                std::thread::sleep(Duration::from_millis(2));
                ctx.write(a, round + 1)
            });
            let reader = task(move |ctx: &mut TaskCtx<'_>| {
                let v = ctx.read(a)?;
                ctx.write(b, v * 2)
            });
            u.run_transaction(vec![writer, reader]);
            assert_eq!(rt.heap().load_committed(a), round + 1);
            assert_eq!(
                rt.heap().load_committed(b),
                (round + 1) * 2,
                "reader task committed a stale value in round {round}"
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, rounds);
        // The stall makes the stale read near-deterministic; across 20 rounds
        // at least one WAR rollback must have been detected and resolved.
        assert!(
            stats.aborts_intra_war >= 1,
            "expected intra-thread WAR rollbacks, stats: {stats}"
        );
    });
}

/// Intra-thread WAW: the later task wins the write lock first; the delayed
/// earlier task must force it out (individual rollback) and the final
/// committed value must still be the later task's (program order).
#[test]
fn intra_thread_waw_rolls_back_the_future_writer() {
    with_default_watchdog(|| {
        let rt = TlstmRuntime::new(config(2));
        let a = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(2);
        let rounds = 20u64;
        for round in 0..rounds {
            let first = task(move |ctx: &mut TaskCtx<'_>| {
                std::thread::sleep(Duration::from_millis(2));
                ctx.write(a, round * 10 + 1)
            });
            let second = task(move |ctx: &mut TaskCtx<'_>| ctx.write(a, round * 10 + 2));
            u.run_transaction(vec![first, second]);
            assert_eq!(
                rt.heap().load_committed(a),
                round * 10 + 2,
                "program-order write did not win in round {round}"
            );
        }
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, rounds);
        // The future writer holds the lock when the past writer arrives, so
        // individual task rollbacks (signal or self-abort) must occur.
        assert!(
            stats.aborts_task_signal + stats.aborts_intra_waw >= 1,
            "expected intra-thread WAW rollbacks, stats: {stats}"
        );
    });
}

/// Deep speculation with every task touching the same word: commits must
/// still serialise in program order, observable through an append-only log.
#[test]
fn program_order_commit_under_deep_speculation() {
    with_default_watchdog(|| {
        let depth = 4;
        let rt = TlstmRuntime::new(config(depth));
        let n_txns = 40u64;
        let log = rt.heap().alloc(n_txns * 2).unwrap();
        let cursor = rt.heap().alloc(1).unwrap();
        let u = rt.register_uthread(depth);
        // Each transaction appends two entries from two different tasks; the
        // whole batch is submitted at once so tasks of future transactions
        // run speculatively alongside earlier ones.
        let batch: Vec<TxnSpec> = (0..n_txns)
            .map(|id| {
                let append = move |tag: u64| {
                    task(move |ctx: &mut TaskCtx<'_>| {
                        let pos = ctx.read(cursor)?;
                        ctx.write(log.offset(pos), id * 2 + tag)?;
                        ctx.write(cursor, pos + 1)
                    })
                };
                TxnSpec::new(vec![append(0), append(1)])
            })
            .collect();
        let outcomes = u.execute(batch);
        assert_eq!(outcomes.len(), n_txns as usize);
        assert_eq!(rt.heap().load_committed(cursor), n_txns * 2);
        let entries: Vec<u64> = (0..n_txns * 2)
            .map(|i| rt.heap().load_committed(log.offset(i)))
            .collect();
        let expected: Vec<u64> = (0..n_txns * 2).collect();
        assert_eq!(
            entries, expected,
            "commit order diverged from program order"
        );
    });
}

/// Task-aware contention management across user-threads: several uthreads run
/// multi-task read-modify-write transactions on one shared counter while also
/// appending to a private log. The counter must be exact (atomicity across
/// conflicts) and every private log must be in program order.
#[test]
fn task_aware_cm_preserves_atomicity_and_program_order_across_uthreads() {
    with_default_watchdog(|| {
        let n_threads = bounded_threads(4) as u64;
        let per_thread = 60u64;
        let rt = TlstmRuntime::new(config(2));
        let counter = rt.heap().alloc(1).unwrap();
        let logs = rt.heap().alloc(n_threads * per_thread).unwrap();
        let cursors = rt.heap().alloc(n_threads * 16).unwrap();
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let u = rt.register_uthread(2);
                    // Spread cursors across lock entries to avoid false
                    // sharing between uthreads' private state.
                    let cursor = cursors.offset(t * 16);
                    let log_base = logs.offset(t * per_thread);
                    for i in 0..per_thread {
                        let bump = task(move |ctx: &mut TaskCtx<'_>| {
                            let v = ctx.read(counter)?;
                            ctx.write(counter, v + 1)
                        });
                        let append = task(move |ctx: &mut TaskCtx<'_>| {
                            let pos = ctx.read(cursor)?;
                            ctx.write(log_base.offset(pos), i)?;
                            ctx.write(cursor, pos + 1)
                        });
                        u.run_transaction(vec![bump, append]);
                    }
                });
            }
        });
        assert_eq!(
            rt.heap().load_committed(counter),
            n_threads * per_thread,
            "increments lost or duplicated under contention"
        );
        for t in 0..n_threads {
            assert_eq!(rt.heap().load_committed(cursors.offset(t * 16)), per_thread);
            for i in 0..per_thread {
                assert_eq!(
                    rt.heap().load_committed(logs.offset(t * per_thread + i)),
                    i,
                    "uthread {t} log out of program order at {i}"
                );
            }
        }
        let stats = rt.stats();
        assert_eq!(stats.tx_commits, n_threads * per_thread);
        assert_eq!(stats.task_commits, 2 * n_threads * per_thread);
    });
}

/// A transaction rolled back as a whole (by the contention manager) must
/// restart all of its tasks together and still commit with consistent state.
#[test]
fn whole_transaction_rollbacks_keep_multi_word_invariants() {
    with_default_watchdog(|| {
        let n_threads = bounded_threads(3) as u64;
        let rt = TlstmRuntime::new(config(2));
        // Two words under (very likely) different locks, kept equal by every
        // transaction; any torn commit or partial restart breaks equality.
        let a = rt.heap().alloc(64).unwrap();
        let b = rt.heap().alloc(64).unwrap();
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let rt = Arc::clone(&rt);
                scope.spawn(move || {
                    let u = rt.register_uthread(2);
                    for i in 0..120u64 {
                        let stamp = t * 1_000_000 + i;
                        let t1 = task(move |ctx: &mut TaskCtx<'_>| {
                            let cur = ctx.read(a)?;
                            ctx.write(a, cur ^ stamp)
                        });
                        let t2 = task(move |ctx: &mut TaskCtx<'_>| {
                            let cur = ctx.read(b)?;
                            let target = ctx.read(a)?;
                            let _ = cur;
                            ctx.write(b, target)
                        });
                        u.run_transaction(vec![t1, t2]);
                    }
                });
            }
        });
        assert_eq!(
            rt.heap().load_committed(a),
            rt.heap().load_committed(b),
            "a/b invariant broken by a partial transaction restart"
        );
    });
}

/// Conflict-directed re-execution: a task that loses an intra-thread
/// conflict re-runs only after its whole past has completed, so it cannot
/// lose to its past a second time. On one user-thread (no inter-thread
/// rollbacks) running k-task transactions, the intra-thread aborts are
/// therefore bounded by (k − 1) per committed transaction.
///
/// The workload is the write traversal of STMBench7's tiny graph
/// (`Stmbench7Params::tiny()`: 9 base assemblies, each referencing 2 of 6
/// shared composite parts of 4 atomic parts), rebuilt here because this crate
/// cannot depend on `tlstm-workloads`: every task bumps the `date` of each
/// atomic part its bases reach, so sibling tasks truly depend on each other.
#[test]
fn a_task_loses_to_its_past_at_most_once() {
    const BASES: u64 = 9;
    const COMPOSITES_PER_BASE: u64 = 2;
    const POOL: u64 = 6;
    const ATOMICS: u64 = 4;
    // An atomic part's words; `date` sits where STMBench7 keeps it.
    const ATOMIC_WORDS: u64 = 5;
    const DATE: u64 = 3;
    with_default_watchdog(|| {
        for k in [2u64, 3] {
            let rt = TlstmRuntime::new(config(k as usize));
            let parts = rt.heap().alloc(POOL * ATOMICS * ATOMIC_WORDS).unwrap();
            let date_of = move |composite: u64, atomic: u64| {
                parts.offset((composite * ATOMICS + atomic) * ATOMIC_WORDS + DATE)
            };
            let mut rng = TestRng::new(0x57B7);
            let bases: Vec<Vec<u64>> = (0..BASES)
                .map(|_| (0..COMPOSITES_PER_BASE).map(|_| rng.below(POOL)).collect())
                .collect();
            let bases = Arc::new(bases);
            let u = rt.register_uthread(k as usize);
            let traversals = 300u64;
            for _ in 0..traversals {
                let tasks = (0..k)
                    .map(|t| {
                        let bases = Arc::clone(&bases);
                        task(move |ctx: &mut TaskCtx<'_>| {
                            // Task t owns every k-th base, as a subtree split does.
                            for base in bases.iter().skip(t as usize).step_by(k as usize) {
                                for &composite in base {
                                    for a in 0..ATOMICS {
                                        let v = ctx.read(date_of(composite, a))?;
                                        ctx.write(date_of(composite, a), v + 1)?;
                                    }
                                }
                            }
                            Ok(())
                        })
                    })
                    .collect();
                u.run_transaction(tasks);
            }
            // Sequential semantics: every reference to a composite bumped
            // each of its parts once per traversal.
            for composite in 0..POOL {
                let refs = bases.iter().flatten().filter(|&&c| c == composite).count() as u64;
                for a in 0..ATOMICS {
                    let date = rt.heap().load_committed(date_of(composite, a));
                    assert_eq!(date, refs * traversals);
                }
            }
            let stats = rt.stats();
            assert_eq!(stats.tx_commits, traversals);
            assert_eq!(stats.tx_aborts, 0, "one user-thread never rolls back whole");
            let intra = stats.aborts_intra_war + stats.aborts_intra_waw + stats.aborts_task_signal;
            assert!(
                intra <= (k - 1) * stats.tx_commits,
                "k = {k}: a task lost to its past more than once, stats: {stats}"
            );
            assert_eq!(
                stats.task_aborts, intra,
                "no other abort cause, stats: {stats}"
            );
        }
    });
}
