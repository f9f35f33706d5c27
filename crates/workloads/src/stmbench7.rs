//! A reduced, structurally faithful STMBench7 object graph and its
//! "long traversal" operations (Figures 2a and 2b).
//!
//! STMBench7 models a CAD-like module: a tree of *complex assemblies* with a
//! fan-out of three, whose leaves are *base assemblies*; each base assembly
//! references a few *composite parts* drawn from a shared pool, and each
//! composite part owns a graph of *atomic parts*. Because composite parts are
//! **shared between base assemblies of different subtrees**, write traversals
//! of different subtrees touch overlapping state — which is exactly what makes
//! the paper's write-dominated long traversals conflict heavily when TLSTM
//! splits them into per-subtree tasks.
//!
//! The only operation class the paper evaluates is the *long traversal*: a
//! full depth-first walk of the assembly tree that visits every atomic part,
//! either read-only (summing a field) or updating every atomic part's
//! `date` field. TLSTM splits a traversal into 3 tasks (one per root subtree)
//! or 9 tasks (one per depth-2 subtree).

use std::sync::atomic::Ordering;

use tlstm_testutil::TestRng;
use txmem::{Abort, TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

use crate::harness::{
    average_metrics, chunk_ranges, run_threads_metrics, RunMetrics, WorkloadConfig,
};

// Complex assembly node: [kind=0, child0, child1, child2]
// Base assembly node:    [kind=1, n_composites, comp_0, ...]
// Composite part:        [n_atomics, atomic_0, ...]
// Atomic part:           [id, x, y, date, build_date]
const KIND_COMPLEX: u64 = 0;
const KIND_BASE: u64 = 1;

const ATOMIC_WORDS: u64 = 5;
const ATOMIC_ID: u64 = 0;
const ATOMIC_X: u64 = 1;
const ATOMIC_Y: u64 = 2;
const ATOMIC_DATE: u64 = 3;
const ATOMIC_BUILD_DATE: u64 = 4;

/// Parameters of the STMBench7-style object graph.
#[derive(Debug, Clone)]
pub struct Stmbench7Params {
    /// Levels of complex assemblies (the root is level 1); base assemblies
    /// hang off the lowest complex-assembly level.
    pub assembly_levels: u32,
    /// Children per complex assembly (STMBench7 uses 3; the paper's task
    /// split relies on it).
    pub assembly_fanout: u64,
    /// Composite parts referenced by each base assembly.
    pub composites_per_base: u64,
    /// Size of the shared composite-part pool.
    pub composite_pool: u64,
    /// Atomic parts per composite part.
    pub atomics_per_composite: u64,
    /// Fraction of traversals that are read-only, in percent.
    pub read_pct: u64,
    /// Tasks a traversal is split into under TLSTM (1, 3 or 9).
    pub tasks_per_txn: usize,
    /// Number of user-threads.
    pub threads: usize,
}

impl Default for Stmbench7Params {
    fn default() -> Self {
        Stmbench7Params {
            assembly_levels: 4,
            assembly_fanout: 3,
            composites_per_base: 3,
            composite_pool: 60,
            atomics_per_composite: 20,
            read_pct: 90,
            tasks_per_txn: 3,
            threads: 1,
        }
    }
}

impl Stmbench7Params {
    /// Tiny graph for unit tests.
    pub fn tiny() -> Self {
        Stmbench7Params {
            assembly_levels: 3,
            assembly_fanout: 3,
            composites_per_base: 2,
            composite_pool: 6,
            atomics_per_composite: 4,
            read_pct: 50,
            tasks_per_txn: 3,
            threads: 1,
        }
    }

    fn substrate_config(&self) -> TxConfig {
        TxConfig {
            spec_depth: self.tasks_per_txn.max(1),
            ..TxConfig::default()
        }
    }

    /// Number of base assemblies in the graph.
    pub fn base_assemblies(&self) -> u64 {
        self.assembly_fanout.pow(self.assembly_levels - 1)
    }
}

/// The built object graph.
#[derive(Debug, Clone, Copy)]
pub struct Stmbench7 {
    /// The root complex assembly.
    pub root: WordAddr,
}

impl Stmbench7 {
    /// Builds and populates the object graph.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure.
    pub fn populate<M: TxMem + ?Sized>(
        mem: &mut M,
        params: &Stmbench7Params,
    ) -> Result<Self, Abort> {
        let mut rng = TestRng::new(0x57B7);
        // Shared pool of composite parts.
        let mut pool = Vec::with_capacity(params.composite_pool as usize);
        let mut next_atomic_id = 0u64;
        for _ in 0..params.composite_pool {
            let comp = mem.alloc(1 + params.atomics_per_composite)?;
            mem.write(comp, params.atomics_per_composite)?;
            for a in 0..params.atomics_per_composite {
                let atomic = mem.alloc(ATOMIC_WORDS)?;
                mem.write(atomic.offset(ATOMIC_ID), next_atomic_id)?;
                mem.write(atomic.offset(ATOMIC_X), rng.below(1000))?;
                mem.write(atomic.offset(ATOMIC_Y), rng.below(1000))?;
                mem.write(atomic.offset(ATOMIC_DATE), 0)?;
                mem.write(atomic.offset(ATOMIC_BUILD_DATE), rng.below(10_000))?;
                mem.write(comp.offset(1 + a), atomic.index())?;
                next_atomic_id += 1;
            }
            pool.push(comp);
        }
        let root = Self::build_assembly(mem, params, &mut rng, &pool, 1)?;
        Ok(Stmbench7 { root })
    }

    fn build_assembly<M: TxMem + ?Sized>(
        mem: &mut M,
        params: &Stmbench7Params,
        rng: &mut TestRng,
        pool: &[WordAddr],
        level: u32,
    ) -> Result<WordAddr, Abort> {
        if level == params.assembly_levels {
            // Base assembly referencing composite parts from the shared pool.
            let node = mem.alloc(2 + params.composites_per_base)?;
            mem.write(node, KIND_BASE)?;
            mem.write(node.offset(1), params.composites_per_base)?;
            for c in 0..params.composites_per_base {
                let comp = pool[rng.below(pool.len() as u64) as usize];
                mem.write(node.offset(2 + c), comp.index())?;
            }
            Ok(node)
        } else {
            let node = mem.alloc(1 + params.assembly_fanout)?;
            mem.write(node, KIND_COMPLEX)?;
            for c in 0..params.assembly_fanout {
                let child = Self::build_assembly(mem, params, rng, pool, level + 1)?;
                mem.write(node.offset(1 + c), child.index())?;
            }
            Ok(node)
        }
    }

    /// The addresses of the root's direct children (the 3-way task split) or
    /// grandchildren (the 9-way split).
    ///
    /// # Errors
    ///
    /// Propagates transactional aborts.
    pub fn subtree_roots<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        params: &Stmbench7Params,
        depth: u32,
    ) -> Result<Vec<WordAddr>, Abort> {
        let mut frontier = vec![self.root];
        for _ in 0..depth {
            let mut next = Vec::new();
            for node in frontier {
                let kind = mem.read(node)?;
                if kind == KIND_BASE {
                    next.push(node);
                    continue;
                }
                for c in 0..params.assembly_fanout {
                    next.push(WordAddr::new(mem.read(node.offset(1 + c))?));
                }
            }
            frontier = next;
        }
        Ok(frontier)
    }
}

/// Traverses the subtree rooted at `node`, visiting every atomic part.
///
/// In read-only mode the x fields are summed; in write mode every atomic
/// part's `date` field is bumped (the T2-style update of STMBench7) and the
/// sum is still returned.
///
/// # Errors
///
/// Propagates transactional aborts.
pub fn traverse<M: TxMem + ?Sized>(
    mem: &mut M,
    params: &Stmbench7Params,
    node: WordAddr,
    write: bool,
) -> Result<u64, Abort> {
    let kind = mem.read(node)?;
    let mut sum = 0u64;
    if kind == KIND_COMPLEX {
        for c in 0..params.assembly_fanout {
            let child = WordAddr::new(mem.read(node.offset(1 + c))?);
            sum = sum.wrapping_add(traverse(mem, params, child, write)?);
        }
        return Ok(sum);
    }
    // Base assembly: visit every atomic part of every referenced composite.
    let n_comp = mem.read(node.offset(1))?;
    for c in 0..n_comp {
        let comp = WordAddr::new(mem.read(node.offset(2 + c))?);
        let n_atomics = mem.read(comp)?;
        for a in 0..n_atomics {
            let atomic = WordAddr::new(mem.read(comp.offset(1 + a))?);
            sum = sum.wrapping_add(mem.read(atomic.offset(ATOMIC_X))?);
            if write {
                let date = mem.read(atomic.offset(ATOMIC_DATE))?;
                mem.write(atomic.offset(ATOMIC_DATE), date + 1)?;
            } else {
                sum = sum.wrapping_add(mem.read(atomic.offset(ATOMIC_BUILD_DATE))?);
            }
        }
    }
    Ok(sum)
}

/// The task count a runtime uses for this parameter set: one on a
/// sequential runtime, whose single task walks from the root.
fn tasks_for<R: TxRuntime>(params: &Stmbench7Params) -> usize {
    if R::SPECULATIVE {
        params.tasks_per_txn.max(1)
    } else {
        1
    }
}

/// Runs one long traversal on an open session as `tasks` tasks: a single
/// task walks the tree from the root, more split the subtree roots into
/// contiguous chunks (3 tasks → one root subtree each, 9 → one depth-2
/// subtree each).
fn run_traversal<S: TxSession>(
    session: &mut S,
    params: &Stmbench7Params,
    root: WordAddr,
    subtrees: &[WordAddr],
    tasks: usize,
    write: bool,
) {
    let starts = if tasks <= 1 {
        std::slice::from_ref(&root)
    } else {
        subtrees
    };
    let chunks = chunk_ranges(starts.len(), tasks);
    session.run_split(chunks.len(), |i, mem| {
        let (lo, hi) = chunks[i];
        for &node in &starts[lo..hi] {
            traverse(mem, params, node, write)?;
        }
        Ok(())
    });
}

/// Measures the long-traversal workload on any [`TxRuntime`], with
/// per-transaction latencies and the runtime's statistics breakdown. On a
/// speculative runtime each traversal is split into `params.tasks_per_txn`
/// per-subtree tasks.
pub fn measure<R: TxRuntime>(params: &Stmbench7Params, config: &WorkloadConfig) -> RunMetrics {
    let split_depth = if params.tasks_per_txn > 3 { 2 } else { 1 };
    average_metrics(config.repetitions, |rep| {
        let runtime = R::new(params.substrate_config());
        let bench =
            Stmbench7::populate(&mut runtime.direct(), params).expect("populate cannot abort");
        let subtrees = bench
            .subtree_roots(&mut runtime.direct(), params, split_depth)
            .expect("subtree discovery cannot abort");
        let (throughput, latency) = run_threads_metrics(
            params.threads,
            config.duration,
            |thread_index, stop, ops, hist| {
                let tasks = tasks_for::<R>(params);
                let mut session = runtime.session();
                let mut rng =
                    TestRng::new(config.seed ^ (thread_index as u64 + 1) ^ (u64::from(rep) << 32));
                while !stop.load(Ordering::Relaxed) {
                    let write = !rng.percent(params.read_pct);
                    let t0 = std::time::Instant::now();
                    run_traversal(&mut session, params, bench.root, &subtrees, tasks, write);
                    hist.record(t0.elapsed());
                    ops.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        RunMetrics::new(throughput, latency, runtime.stats())
    })
}

/// Conformance helper: applies `n` write traversals of the freshly populated
/// graph and returns every atomic part's final `date`, keyed (and ordered)
/// by atomic id. Sequential semantics make the result a pure function of
/// `(params, n)` — identical on every runtime and task split.
pub fn write_traversal_dates<R: TxRuntime>(params: &Stmbench7Params, n: u64) -> Vec<u64> {
    let split_depth = if params.tasks_per_txn > 3 { 2 } else { 1 };
    let runtime = R::new(params.substrate_config());
    let bench = Stmbench7::populate(&mut runtime.direct(), params).expect("populate cannot abort");
    let subtrees = bench
        .subtree_roots(&mut runtime.direct(), params, split_depth)
        .expect("subtree discovery cannot abort");
    let tasks = tasks_for::<R>(params);
    let mut session = runtime.session();
    for _ in 0..n {
        run_traversal(&mut session, params, bench.root, &subtrees, tasks, true);
    }
    drop(session);
    let mut dates = std::collections::BTreeMap::new();
    collect_dates_rec(&mut runtime.direct(), params, bench.root, &mut dates);
    dates.into_values().collect()
}

fn collect_dates_rec<M: TxMem + ?Sized>(
    mem: &mut M,
    params: &Stmbench7Params,
    node: WordAddr,
    out: &mut std::collections::BTreeMap<u64, u64>,
) {
    let kind = mem.read(node).expect("direct reads cannot abort");
    if kind == KIND_COMPLEX {
        for c in 0..params.assembly_fanout {
            let child = WordAddr::new(mem.read(node.offset(1 + c)).unwrap());
            collect_dates_rec(mem, params, child, out);
        }
        return;
    }
    let n_comp = mem.read(node.offset(1)).unwrap();
    for c in 0..n_comp {
        let comp = WordAddr::new(mem.read(node.offset(2 + c)).unwrap());
        let n_atomics = mem.read(comp).unwrap();
        for a in 0..n_atomics {
            let atomic = WordAddr::new(mem.read(comp.offset(1 + a)).unwrap());
            let id = mem.read(atomic.offset(ATOMIC_ID)).unwrap();
            let date = mem.read(atomic.offset(ATOMIC_DATE)).unwrap();
            out.insert(id, date);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swisstm::SwisstmRuntime;
    use tlstm::TlstmRuntime;
    use txmem::DirectMem;

    #[test]
    fn graph_has_expected_shape() {
        let params = Stmbench7Params::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let bench = Stmbench7::populate(&mut mem, &params).unwrap();
        assert_eq!(params.base_assemblies(), 9);
        let level1 = bench.subtree_roots(&mut mem, &params, 1).unwrap();
        assert_eq!(level1.len(), 3);
        let level2 = bench.subtree_roots(&mut mem, &params, 2).unwrap();
        assert_eq!(level2.len(), 9);
    }

    #[test]
    fn read_traversal_visits_every_atomic_part_at_least_once() {
        let params = Stmbench7Params::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let bench = Stmbench7::populate(&mut mem, &params).unwrap();
        let sum = traverse(&mut mem, &params, bench.root, false).unwrap();
        assert!(sum > 0, "a full traversal should accumulate field values");
    }

    #[test]
    fn write_traversal_bumps_dates() {
        let params = Stmbench7Params::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let bench = Stmbench7::populate(&mut mem, &params).unwrap();
        let before = traverse(&mut mem, &params, bench.root, false).unwrap();
        traverse(&mut mem, &params, bench.root, true).unwrap();
        let after = traverse(&mut mem, &params, bench.root, false).unwrap();
        // The read-only sum does not include dates, so it must be unchanged...
        assert_eq!(before, after);
        // ...but the composite pool's dates moved: verify through one subtree.
        // (A second write traversal bumps them again without error.)
        traverse(&mut mem, &params, bench.root, true).unwrap();
    }

    #[test]
    fn subtree_split_covers_the_whole_graph() {
        // The sum over per-subtree traversals must equal the full traversal
        // (composite parts shared across subtrees are counted per reference).
        let params = Stmbench7Params::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let bench = Stmbench7::populate(&mut mem, &params).unwrap();
        let full = traverse(&mut mem, &params, bench.root, false).unwrap();
        let subtrees = bench.subtree_roots(&mut mem, &params, 1).unwrap();
        let mut partial = 0u64;
        for s in subtrees {
            partial = partial.wrapping_add(traverse(&mut mem, &params, s, false).unwrap());
        }
        assert_eq!(full, partial);
    }

    #[test]
    fn every_runtime_completes_traversals() {
        let mut params = Stmbench7Params::tiny();
        params.threads = 1;
        let config = WorkloadConfig::quick();
        assert!(measure::<SwisstmRuntime>(&params, &config).throughput.ops > 0);
        assert!(
            measure::<txmem::SeqRefRuntime>(&params, &config)
                .throughput
                .ops
                > 0
        );
        params.tasks_per_txn = 3;
        assert!(measure::<TlstmRuntime>(&params, &config).throughput.ops > 0);
    }

    #[test]
    fn write_traversals_preserve_date_consistency_across_runtimes() {
        // After N write traversals every atomic part's date must equal N
        // times its reference count, regardless of the runtime and task
        // split (sequential semantics).
        let mut params = Stmbench7Params::tiny();
        params.read_pct = 0;
        let n = 5u64;

        let sw_dates = write_traversal_dates::<SwisstmRuntime>(&params, n);
        let tl_dates = write_traversal_dates::<TlstmRuntime>(&params, n);
        let sq_dates = write_traversal_dates::<txmem::SeqRefRuntime>(&params, n);
        assert_eq!(sw_dates, tl_dates, "swisstm and tlstm diverged");
        assert_eq!(sw_dates, sq_dates, "swisstm and seqref diverged");
        // Shared composite parts are visited once per referencing base
        // assembly, so dates are multiples of the traversal count.
        for d in &sw_dates {
            assert!(*d >= n, "every atomic part must have been updated");
            assert_eq!(*d % n, 0, "date must be a multiple of the traversal count");
        }
    }
}
