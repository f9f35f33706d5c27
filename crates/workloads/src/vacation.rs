//! A re-implementation of the STAMP *Vacation* travel-reservation OLTP
//! application, modified as in the TLSTM paper (Figure 1b).
//!
//! The system manages four relations (cars, flights, rooms, customers). The
//! paper modifies the original benchmark so that each client issues **eight
//! operations per transaction** (an "application-server transaction"), which
//! TLSTM then splits into **two tasks of four operations** each. Both the
//! low-contention and the high-contention parameterisations of the original
//! benchmark are retained.
//!
//! Every operation is generated ahead of the transaction (deterministically),
//! so re-executed tasks replay exactly the same logical operation and the
//! SwissTM and TLSTM runs execute identical operation streams.

use std::sync::atomic::Ordering;

use tlstm_testutil::TestRng;
use txcollections::{TxRbTree, TxSortedList};
use txmem::{Abort, TxConfig, TxMem, TxRuntime, TxSession, WordAddr};

use crate::harness::{
    average_metrics, chunk_ranges, run_threads_metrics, RunMetrics, WorkloadConfig,
};

/// The three reservable resource kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResKind {
    /// Rental cars.
    Car,
    /// Flight seats.
    Flight,
    /// Hotel rooms.
    Room,
}

impl ResKind {
    /// All kinds, in a fixed order.
    pub const ALL: [ResKind; 3] = [ResKind::Car, ResKind::Flight, ResKind::Room];

    fn index(self) -> u64 {
        match self {
            ResKind::Car => 0,
            ResKind::Flight => 1,
            ResKind::Room => 2,
        }
    }
}

/// Reservation-table record layout: `total, used, free, price`.
const REC_WORDS: u64 = 4;
const REC_TOTAL: u64 = 0;
const REC_USED: u64 = 1;
const REC_FREE: u64 = 2;
const REC_PRICE: u64 = 3;

/// Benchmark parameters (the `-n -q -u -r` knobs of STAMP Vacation).
#[derive(Debug, Clone)]
pub struct VacationParams {
    /// Rows in each reservation relation (`-r`).
    pub relations: u64,
    /// Number of customers.
    pub customers: u64,
    /// Items queried by each operation (`-n`).
    pub queries_per_op: u64,
    /// Percentage of the relation that queries may touch (`-q`); lower values
    /// concentrate the accesses and raise contention.
    pub query_range_pct: u64,
    /// Percentage of operations that are client reservations (`-u`); the rest
    /// are administrative (delete customer / update tables).
    pub user_op_pct: u64,
    /// Operations per client transaction (the paper uses 8).
    pub ops_per_txn: usize,
    /// Tasks the transaction is split into under TLSTM (the paper uses 2).
    pub tasks_per_txn: usize,
    /// Number of clients (user-threads).
    pub clients: usize,
}

impl VacationParams {
    /// The paper's low-contention configuration (STAMP `-n2 -q90 -u98`).
    pub fn low_contention() -> Self {
        VacationParams {
            relations: 4096,
            customers: 4096,
            queries_per_op: 2,
            query_range_pct: 90,
            user_op_pct: 98,
            ops_per_txn: 8,
            tasks_per_txn: 2,
            clients: 1,
        }
    }

    /// The paper's high-contention configuration (STAMP `-n4 -q60 -u90`).
    pub fn high_contention() -> Self {
        VacationParams {
            relations: 4096,
            customers: 4096,
            queries_per_op: 4,
            query_range_pct: 60,
            user_op_pct: 90,
            ops_per_txn: 8,
            tasks_per_txn: 2,
            clients: 1,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        VacationParams {
            relations: 64,
            customers: 64,
            queries_per_op: 2,
            query_range_pct: 90,
            user_op_pct: 90,
            ops_per_txn: 4,
            tasks_per_txn: 2,
            clients: 1,
        }
    }

    fn substrate_config(&self) -> TxConfig {
        TxConfig {
            spec_depth: self.tasks_per_txn.max(1),
            ..TxConfig::default()
        }
    }

    fn query_range(&self) -> u64 {
        ((self.relations * self.query_range_pct) / 100).max(1)
    }
}

/// Handles to the shared reservation system state.
#[derive(Debug, Clone, Copy)]
pub struct Manager {
    tables: [TxRbTree; 3],
    /// customer id → header of the customer's reservation list.
    customers: TxRbTree,
}

impl Manager {
    /// Builds and populates the reservation system.
    ///
    /// # Errors
    ///
    /// Propagates allocation failure.
    pub fn populate<M: TxMem + ?Sized>(
        mem: &mut M,
        params: &VacationParams,
    ) -> Result<Self, Abort> {
        let tables = [
            TxRbTree::create(mem)?,
            TxRbTree::create(mem)?,
            TxRbTree::create(mem)?,
        ];
        let customers = TxRbTree::create(mem)?;
        let mut rng = TestRng::new(0xFACADE);
        for kind in ResKind::ALL {
            for id in 0..params.relations {
                let record = mem.alloc(REC_WORDS)?;
                let capacity = 100 + rng.below(100);
                mem.write(record.offset(REC_TOTAL), capacity)?;
                mem.write(record.offset(REC_USED), 0)?;
                mem.write(record.offset(REC_FREE), capacity)?;
                mem.write(record.offset(REC_PRICE), 50 + rng.below(450))?;
                tables[kind.index() as usize].insert(mem, id, record.index())?;
            }
        }
        for cid in 0..params.customers {
            let list = TxSortedList::create(mem)?;
            customers.insert(mem, cid, list.header().index())?;
        }
        Ok(Manager { tables, customers })
    }

    fn table(&self, kind: ResKind) -> TxRbTree {
        self.tables[kind.index() as usize]
    }

    fn record<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        kind: ResKind,
        id: u64,
    ) -> Result<Option<WordAddr>, Abort> {
        Ok(self.table(kind).get(mem, id)?.map(WordAddr::new))
    }

    /// Total free units of `kind`/`id` (test helper).
    pub fn free_units<M: TxMem + ?Sized>(
        &self,
        mem: &mut M,
        kind: ResKind,
        id: u64,
    ) -> Result<Option<u64>, Abort> {
        match self.record(mem, kind, id)? {
            None => Ok(None),
            Some(rec) => Ok(Some(mem.read(rec.offset(REC_FREE))?)),
        }
    }

    /// Sums `used` over every record of every table (test invariant helper:
    /// must equal the total number of reservations held by customers).
    pub fn total_used<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<u64, Abort> {
        let mut sum = 0;
        for kind in ResKind::ALL {
            for (_, rec) in self.table(kind).to_vec(mem)? {
                sum += mem.read(WordAddr::new(rec).offset(REC_USED))?;
            }
        }
        Ok(sum)
    }

    /// Counts reservations across all customer lists (test invariant helper).
    pub fn total_reservations<M: TxMem + ?Sized>(&self, mem: &mut M) -> Result<u64, Abort> {
        let mut sum = 0;
        for (_, list_header) in self.customers.to_vec(mem)? {
            let list = TxSortedList::from_header(WordAddr::new(list_header));
            sum += list.len(mem)?;
        }
        Ok(sum)
    }
}

/// One pre-generated client/administrative operation.
#[derive(Debug, Clone)]
pub enum VacationOp {
    /// Query `queries` items and reserve the highest-priced available one for
    /// `customer`.
    MakeReservation {
        /// The reserving customer.
        customer: u64,
        /// `(kind, id)` pairs to query.
        queries: Vec<(ResKind, u64)>,
    },
    /// Remove a customer and release all of their reservations.
    DeleteCustomer {
        /// The customer to remove.
        customer: u64,
    },
    /// Administrative price/capacity updates.
    UpdateTables {
        /// `(kind, id, new_price)` updates; a price of 0 retires the item's
        /// free capacity instead.
        updates: Vec<(ResKind, u64, u64)>,
    },
}

/// Generates one operation.
fn generate_op(rng: &mut TestRng, params: &VacationParams) -> VacationOp {
    let range = params.query_range();
    if rng.percent(params.user_op_pct) {
        let customer = rng.below(params.customers);
        let queries = (0..params.queries_per_op)
            .map(|_| {
                let kind = ResKind::ALL[rng.below(3) as usize];
                (kind, rng.below(range))
            })
            .collect();
        VacationOp::MakeReservation { customer, queries }
    } else if rng.percent(50) {
        VacationOp::DeleteCustomer {
            customer: rng.below(params.customers),
        }
    } else {
        let updates = (0..params.queries_per_op)
            .map(|_| {
                let kind = ResKind::ALL[rng.below(3) as usize];
                (kind, rng.below(range), 50 + rng.below(450))
            })
            .collect();
        VacationOp::UpdateTables { updates }
    }
}

/// Generates the operations of one client transaction.
pub fn generate_txn(rng: &mut TestRng, params: &VacationParams) -> Vec<VacationOp> {
    (0..params.ops_per_txn)
        .map(|_| generate_op(rng, params))
        .collect()
}

/// Executes one operation against the shared state. Written once over
/// [`TxMem`], so SwissTM transactions and TLSTM tasks run identical code.
pub fn execute_op<M: TxMem + ?Sized>(
    mem: &mut M,
    manager: &Manager,
    op: &VacationOp,
) -> Result<(), Abort> {
    match op {
        VacationOp::MakeReservation { customer, queries } => {
            // Find the highest-priced item with free capacity among the
            // queried ones (the STAMP semantics).
            let mut best: Option<(ResKind, u64, WordAddr, u64)> = None;
            for &(kind, id) in queries {
                if let Some(rec) = manager.record(mem, kind, id)? {
                    let free = mem.read(rec.offset(REC_FREE))?;
                    let price = mem.read(rec.offset(REC_PRICE))?;
                    if free > 0 && best.as_ref().is_none_or(|b| price > b.3) {
                        best = Some((kind, id, rec, price));
                    }
                }
            }
            if let Some((kind, id, rec, price)) = best {
                let free = mem.read(rec.offset(REC_FREE))?;
                if free > 0 {
                    if let Some(list_header) = manager.customers.get(mem, *customer)? {
                        let list = TxSortedList::from_header(WordAddr::new(list_header));
                        let reservation_key = kind.index() << 32 | id;
                        // The customer list is keyed by item, so re-booking an
                        // already-held item only refreshes the stored price.
                        // Capacity must move in lockstep with list membership,
                        // otherwise `used` drifts ahead of the reservations
                        // that `DeleteCustomer` can ever release.
                        if list.insert(mem, reservation_key, price)? {
                            mem.write(rec.offset(REC_FREE), free - 1)?;
                            let used = mem.read(rec.offset(REC_USED))?;
                            mem.write(rec.offset(REC_USED), used + 1)?;
                        }
                    }
                }
            }
            Ok(())
        }
        VacationOp::DeleteCustomer { customer } => {
            if let Some(list_header) = manager.customers.get(mem, *customer)? {
                let list = TxSortedList::from_header(WordAddr::new(list_header));
                // Release every reservation the customer holds.
                for (reservation_key, _price) in list.to_vec(mem)? {
                    let kind = ResKind::ALL[(reservation_key >> 32) as usize];
                    let id = reservation_key & 0xFFFF_FFFF;
                    if let Some(rec) = manager.record(mem, kind, id)? {
                        let free = mem.read(rec.offset(REC_FREE))?;
                        mem.write(rec.offset(REC_FREE), free + 1)?;
                        let used = mem.read(rec.offset(REC_USED))?;
                        mem.write(rec.offset(REC_USED), used.saturating_sub(1))?;
                    }
                    list.remove(mem, reservation_key)?;
                }
            }
            Ok(())
        }
        VacationOp::UpdateTables { updates } => {
            for &(kind, id, new_price) in updates {
                if let Some(rec) = manager.record(mem, kind, id)? {
                    mem.write(rec.offset(REC_PRICE), new_price)?;
                }
            }
            Ok(())
        }
    }
}

/// Executes a slice of a client transaction's operations.
pub fn execute_ops<M: TxMem + ?Sized>(
    mem: &mut M,
    manager: &Manager,
    ops: &[VacationOp],
) -> Result<(), Abort> {
    for op in ops {
        execute_op(mem, manager, op)?;
    }
    Ok(())
}

/// Runs one client transaction on an open session, split into `tasks`
/// contiguous chunks of its operations (sequential runtimes run the chunks in
/// order inside one transaction).
pub fn run_txn<S: TxSession>(session: &mut S, manager: &Manager, txn: &[VacationOp], tasks: usize) {
    let chunks = chunk_ranges(txn.len(), tasks);
    session.run_split(chunks.len(), |i, mem| {
        let (lo, hi) = chunks[i];
        execute_ops(mem, manager, &txn[lo..hi])
    });
}

/// Measures Vacation on any [`TxRuntime`] with `params.clients` client
/// threads, with per-transaction latencies and the runtime's statistics
/// breakdown. Throughput is reported in client *operations* (not
/// transactions). Each client transaction is split into
/// `params.tasks_per_txn` tasks (the paper uses 2).
pub fn measure<R: TxRuntime>(params: &VacationParams, config: &WorkloadConfig) -> RunMetrics {
    average_metrics(config.repetitions, |rep| {
        let runtime = R::new(params.substrate_config());
        let manager =
            Manager::populate(&mut runtime.direct(), params).expect("populate cannot abort");
        let (throughput, latency) = run_threads_metrics(
            params.clients,
            config.duration,
            |client, stop, ops, hist| {
                let mut session = runtime.session();
                let mut rng =
                    TestRng::new(config.seed ^ (client as u64 + 1) ^ (u64::from(rep) << 32));
                while !stop.load(Ordering::Relaxed) {
                    let txn = generate_txn(&mut rng, params);
                    let t0 = std::time::Instant::now();
                    run_txn(&mut session, &manager, &txn, params.tasks_per_txn);
                    hist.record(t0.elapsed());
                    ops.fetch_add(txn.len() as u64, Ordering::Relaxed);
                }
            },
        );
        RunMetrics::new(throughput, latency, runtime.stats())
    })
}

/// Conformance helper: applies `txns` transactions of the deterministic
/// stream seeded with `seed` and returns the final total of used units. The
/// result is a pure function of `(params, txns, seed)` and must be identical
/// on every runtime.
pub fn stream_total_used<R: TxRuntime>(params: &VacationParams, txns: u64, seed: u64) -> u64 {
    let runtime = R::new(params.substrate_config());
    let manager = Manager::populate(&mut runtime.direct(), params).expect("populate cannot abort");
    let mut session = runtime.session();
    let mut rng = TestRng::new(seed);
    for _ in 0..txns {
        let txn = generate_txn(&mut rng, params);
        run_txn(&mut session, &manager, &txn, params.tasks_per_txn);
    }
    drop(session);
    manager
        .total_used(&mut runtime.direct())
        .expect("direct reads cannot abort")
}

#[cfg(test)]
mod tests {
    use super::*;
    use swisstm::SwisstmRuntime;
    use tlstm::TlstmRuntime;
    use txmem::DirectMem;

    #[test]
    fn populate_builds_all_tables() {
        let params = VacationParams::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let manager = Manager::populate(&mut mem, &params).unwrap();
        for kind in ResKind::ALL {
            assert_eq!(manager.table(kind).len(&mut mem).unwrap(), params.relations);
        }
        assert_eq!(manager.customers.len(&mut mem).unwrap(), params.customers);
        assert_eq!(manager.total_used(&mut mem).unwrap(), 0);
    }

    #[test]
    fn make_reservation_updates_capacity_and_customer_list() {
        let params = VacationParams::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let manager = Manager::populate(&mut mem, &params).unwrap();
        let before = manager
            .free_units(&mut mem, ResKind::Car, 3)
            .unwrap()
            .unwrap();
        let op = VacationOp::MakeReservation {
            customer: 1,
            queries: vec![(ResKind::Car, 3)],
        };
        execute_op(&mut mem, &manager, &op).unwrap();
        let after = manager
            .free_units(&mut mem, ResKind::Car, 3)
            .unwrap()
            .unwrap();
        assert_eq!(after, before - 1);
        assert_eq!(manager.total_used(&mut mem).unwrap(), 1);
        assert_eq!(manager.total_reservations(&mut mem).unwrap(), 1);
    }

    #[test]
    fn delete_customer_releases_reservations() {
        let params = VacationParams::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let manager = Manager::populate(&mut mem, &params).unwrap();
        for id in 0..3 {
            execute_op(
                &mut mem,
                &manager,
                &VacationOp::MakeReservation {
                    customer: 7,
                    queries: vec![(ResKind::Room, id)],
                },
            )
            .unwrap();
        }
        assert_eq!(manager.total_used(&mut mem).unwrap(), 3);
        execute_op(
            &mut mem,
            &manager,
            &VacationOp::DeleteCustomer { customer: 7 },
        )
        .unwrap();
        assert_eq!(manager.total_used(&mut mem).unwrap(), 0);
        assert_eq!(manager.total_reservations(&mut mem).unwrap(), 0);
    }

    #[test]
    fn update_tables_changes_prices() {
        let params = VacationParams::tiny();
        let substrate = txmem::TxSubstrate::new(params.substrate_config());
        let mut mem = DirectMem::new(&substrate.heap);
        let manager = Manager::populate(&mut mem, &params).unwrap();
        execute_op(
            &mut mem,
            &manager,
            &VacationOp::UpdateTables {
                updates: vec![(ResKind::Flight, 5, 777)],
            },
        )
        .unwrap();
        let rec = manager
            .record(&mut mem, ResKind::Flight, 5)
            .unwrap()
            .unwrap();
        assert_eq!(mem.read(rec.offset(REC_PRICE)).unwrap(), 777);
    }

    #[test]
    fn reservation_workload_commits_on_every_runtime() {
        // used units across tables must always equal reservations held by
        // customers, no matter which runtime executed the operations.
        let mut params = VacationParams::tiny();
        params.clients = 2;
        let config = WorkloadConfig::quick();
        assert!(measure::<SwisstmRuntime>(&params, &config).throughput.ops > 0);
        assert!(measure::<TlstmRuntime>(&params, &config).throughput.ops > 0);
        assert!(
            measure::<txmem::SeqRefRuntime>(&params, &config)
                .throughput
                .ops
                > 0
        );
    }

    #[test]
    fn all_runtimes_apply_the_same_deterministic_stream_identically() {
        let params = VacationParams::tiny();
        let sw_used = stream_total_used::<SwisstmRuntime>(&params, 25, 123);
        let tl_used = stream_total_used::<TlstmRuntime>(&params, 25, 123);
        let sq_used = stream_total_used::<txmem::SeqRefRuntime>(&params, 25, 123);
        assert_eq!(sw_used, tl_used, "swisstm and tlstm diverged");
        assert_eq!(sw_used, sq_used, "swisstm and seqref diverged");
    }
}
