//! Travel booking demo: drives the Vacation reservation system (the
//! application behind Figure 1b of the paper) with speculatively decomposed
//! client transactions and prints the resulting system state and runtime
//! statistics.
//!
//! ```text
//! cargo run -p examples-app --release --bin travel_booking
//! ```

use std::sync::Arc;

use tlstm::TlstmRuntime;
use tlstm_testutil::TestRng;
use tlstm_workloads::vacation::{generate_txn, run_txn, Manager, VacationParams};
use txmem::TxRuntime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = VacationParams::low_contention();
    let runtime = TlstmRuntime::new(txmem::TxConfig {
        spec_depth: params.tasks_per_txn,
        ..txmem::TxConfig::default()
    });
    let manager = Manager::populate(&mut runtime.direct(), &params)
        .expect("populating the reservation system cannot abort");

    // Three concurrent "application servers" (user-threads), each serving a
    // stream of clients; every client transaction bundles 8 reservation
    // operations and is split into two speculative tasks of 4 operations.
    let clients_per_server = 200;
    std::thread::scope(|scope| {
        for server in 0..3u64 {
            let runtime = Arc::clone(&runtime);
            let params = params.clone();
            scope.spawn(move || {
                let mut session = runtime.session();
                let mut rng = TestRng::new(0xB00C + server);
                for _ in 0..clients_per_server {
                    let ops = generate_txn(&mut rng, &params);
                    run_txn(&mut session, &manager, &ops, params.tasks_per_txn);
                }
            });
        }
    });

    let mut mem = runtime.direct();
    let used = manager
        .total_used(&mut mem)
        .expect("direct reads cannot abort");
    let held = manager
        .total_reservations(&mut mem)
        .expect("direct reads cannot abort");
    println!("reserved units across all tables : {used}");
    println!("reservations held by customers   : {held}");
    assert_eq!(used, held, "reservation book-keeping must balance");
    println!("--- runtime statistics ---\n{}", runtime.stats());
    Ok(())
}
