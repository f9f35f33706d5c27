//! Adaptive busy-wait helpers.
//!
//! Spinning only helps when the thread being waited on can make progress on
//! another core. On a single-core host every spin burns the exact CPU time
//! the other thread needs, so all wait loops in the runtimes consult
//! [`multi_core`] and fall straight through to `yield_now` when there is no
//! parallelism to exploit.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The host's units of parallelism, cached after the first call.
pub fn cores() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| cores_from(std::thread::available_parallelism()))
}

/// A core count from `available_parallelism`'s answer: 1 when the
/// parallelism cannot be determined, assuming no spare core (no helpers, no
/// spinning) rather than unbounded ones.
fn cores_from(parallelism: std::io::Result<NonZeroUsize>) -> usize {
    parallelism.map_or(1, NonZeroUsize::get)
}

/// `true` if the host exposes more than one unit of parallelism.
pub fn multi_core() -> bool {
    cores() > 1
}

/// How many busy-spin iterations a waiter performs before yielding the CPU.
pub const SPIN_BEFORE_YIELD: u32 = 64;

/// Backs off inside a wait loop: spins on the `iteration`-th call only while
/// that is useful (multi-core host and below [`SPIN_BEFORE_YIELD`]), otherwise
/// yields the CPU to the thread being waited on.
#[inline]
pub fn contention_pause(iteration: u32) {
    if multi_core() && iteration < SPIN_BEFORE_YIELD {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_parallelism_counts_as_one_core() {
        assert_eq!(cores_from(Err(std::io::Error::other("unknown"))), 1);
        assert_eq!(cores_from(Ok(NonZeroUsize::new(8).unwrap())), 8);
    }

    #[test]
    fn multi_core_is_stable() {
        assert_eq!(multi_core(), multi_core());
    }

    #[test]
    fn contention_pause_terminates() {
        for i in 0..200 {
            contention_pause(i);
        }
    }
}
