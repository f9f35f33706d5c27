//! `tx-long-swisstm` / `tx-long-tlstm`: STMBench7 long traversals, the
//! paper's Fig. 2b regime. One user thread runs the same seeded stream of
//! read-only (10 %) and write traversals on both runtimes; SwissTM runs each
//! as one transaction, TLSTM splits it into three speculative tasks, one per
//! root subtree. `ops_per_s(tx-long-tlstm) / ops_per_s(tx-long-swisstm)` is
//! the repo's reproduction number for the paper's claim.

use std::time::Instant;

use tlstm_workloads::stmbench7::{traverse, write_traversal_dates, Stmbench7, Stmbench7Params};
use txmem::{
    run_boxed_tasks, BoxedTaskBody, SeqRefRuntime, TxConfig, TxMem, TxRuntime, TxSession, WordAddr,
};

use crate::gen::{self, InputHash};
use crate::quantile::Recorder;
use crate::rep::{peak_rss_mib, Live, RepCtx, WindowCounters};

/// Tasks a TLSTM traversal is split into (one per root subtree).
pub const TASKS: usize = 3;
/// Read-only share of the traversal stream, in percent.
const READ_PCT: u64 = 10;
/// Decisions pre-generated per repetition; the stream cycles through them.
const RING: usize = 4096;
/// Write traversals of the post-window conformance check.
const CONFORMANCE_TRAVERSALS: u64 = 50;

pub fn params() -> Stmbench7Params {
    Stmbench7Params {
        read_pct: READ_PCT,
        tasks_per_txn: TASKS,
        threads: 1,
        ..Stmbench7Params::default()
    }
}

/// One traversal; returns the sum it computed.
fn traversal<R: TxRuntime>(
    session: &mut R::Session,
    params: &Stmbench7Params,
    root: WordAddr,
    subtrees: &[WordAddr],
    write: bool,
) -> u64 {
    if !R::SPECULATIVE {
        return session.run(|mem| traverse(mem, params, root, write));
    }
    let mut sums = vec![0u64; subtrees.len()];
    {
        let mut bodies: Vec<BoxedTaskBody<'_>> = subtrees
            .iter()
            .zip(sums.iter_mut())
            .map(|(&subtree, sum)| {
                // A re-executed task overwrites its slot: only the committed
                // execution's sum survives.
                Box::new(move |mem: &mut dyn TxMem| {
                    *sum = traverse(mem, params, subtree, write)?;
                    Ok(())
                }) as BoxedTaskBody<'_>
            })
            .collect();
        run_boxed_tasks(session, &mut bodies);
    }
    sums.into_iter().fold(0, u64::wrapping_add)
}

pub fn run<R: TxRuntime>(ctx: &RepCtx) -> Live {
    let params = params();
    let runtime = R::new(TxConfig {
        spec_depth: TASKS,
        ..TxConfig::default()
    });
    let bench = Stmbench7::populate(&mut runtime.direct(), &params).expect("populate cannot abort");
    let subtrees = bench
        .subtree_roots(&mut runtime.direct(), &params, 1)
        .expect("direct reads cannot abort");
    assert_eq!(subtrees.len(), TASKS);
    // Read-only traversals never see dates, so their sum is fixed at set-up.
    let read_sum = traverse(&mut runtime.direct(), &params, bench.root, false)
        .expect("direct reads cannot abort");
    let stream = gen::traversal_stream(ctx.seed, ctx.rep, RING, READ_PCT);
    let mut input_hash = InputHash::default();
    stream.iter().for_each(|w| input_hash.word(u64::from(*w)));
    let mut session = runtime.session();
    let mut latencies = Recorder::with_capacity(1 << 20);
    let setup = ctx.process_start.elapsed();

    let (t0, t1) = (ctx.warmup, ctx.warmup + ctx.window);
    let epoch = Instant::now();
    let (mut executed, mut window_ops, mut wrong_sums) = (0u64, 0u64, 0u64);
    let mut before = None;
    let mut counters = WindowCounters::default();
    loop {
        let t_send = epoch.elapsed();
        if before.is_none() && t_send >= t0 {
            if ctx.traced {
                txobs::set_tracing(true);
            }
            before = Some(runtime.stats());
        }
        if t_send >= t1 {
            counters.stm = runtime
                .stats()
                .delta_since(&before.expect("the window opened"));
            txobs::set_tracing(false);
            break;
        }
        let write = stream[executed as usize % RING];
        let sum = traversal::<R>(&mut session, &params, bench.root, &subtrees, write);
        let t_done = epoch.elapsed();
        executed += 1;
        if t_done >= t0 && t_done < t1 {
            window_ops += 1;
            latencies.record((t_done - t_send).as_nanos() as u64);
        }
        wrong_sums += u64::from(!write && sum != read_sum);
    }
    drop(session);
    let peak_rss_mib = peak_rss_mib();

    let mut notes = Vec::new();
    let mut failed = wrong_sums;
    if wrong_sums > 0 {
        notes.push(format!(
            "{wrong_sums} read-only traversals returned a wrong sum"
        ));
    }
    // After any number of write traversals the read-only sum must still hold
    // on the measured graph, and a fresh run of 50 write traversals must
    // leave the dates the sequential reference leaves.
    let after = traverse(&mut runtime.direct(), &params, bench.root, false)
        .expect("direct reads cannot abort");
    let conforms = write_traversal_dates::<R>(&params, CONFORMANCE_TRAVERSALS)
        == write_traversal_dates::<SeqRefRuntime>(&params, CONFORMANCE_TRAVERSALS);
    if after != read_sum || !conforms {
        failed += 1;
        notes.push(format!(
            "final graph check failed (read sum intact: {}, dates match seqref: {conforms})",
            after == read_sum
        ));
    }
    Live {
        input_hash: input_hash.0,
        attempted: executed,
        failed: failed.min(executed),
        notes,
        window_ops,
        window: ctx.window,
        latencies: latencies.finish(),
        setup,
        peak_rss_mib,
        counters,
        gen_idle_frac: None,
    }
}
