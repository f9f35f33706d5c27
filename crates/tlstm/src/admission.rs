//! Speculation admission from history: whether a default session's
//! transaction of `n` tasks may claim helper lanes.
//!
//! Run-ahead pays only when a transaction's tasks are independent. When a
//! task reads what its past writes, a helper that runs it ahead loses to that
//! past (intra-thread WAR or WAW, or an abort signal from a past writer) and
//! its work is thrown away. Block-STM schedules an incarnation from the
//! outcome of the last one (Gelashvili et al., PPoPP '23); here a
//! user-thread keeps, per task count `n`, whether its last speculative
//! transaction of that shape lost to its past. A shape that lost is
//! *closed*: its transactions run solo on the calling thread, where tasks
//! cannot lose to their past, and overhead stays off the work path (Cilk-5's
//! work-first principle, Frigo, Leiserson & Randall, PLDI '98). A closed
//! shape is re-probed after [`FIRST_PROBE_AFTER`] solo transactions; each
//! probe that loses doubles the interval, up to [`PROBE_INTERVAL_CAP`], and
//! each speculative transaction that does not lose halves it.
//!
//! The state is the `UThread`'s own, touched only by the thread that calls
//! `execute`: a loss is noted on the transaction's `TxnShared` on the abort
//! path, and `execute` folds it in after the batch.

/// Solo transactions a shape runs after its first loss before it is probed.
pub(crate) const FIRST_PROBE_AFTER: u32 = 128;

/// The longest interval between two probes of a closed shape.
pub(crate) const PROBE_INTERVAL_CAP: u32 = 4096;

/// The history of one task count.
#[derive(Clone, Copy, Debug, Default)]
struct Shape {
    /// Solo transactions left before the next probe; 0 while the shape is
    /// open or a probe is due.
    wait: u32,
    /// The probe interval the next loss starts from: 0 for a shape that has
    /// not lost lately.
    interval: u32,
}

/// Per task count, whether a user-thread's transactions may run ahead.
#[derive(Debug)]
pub(crate) struct Admission {
    shapes: Vec<Shape>,
}

impl Admission {
    /// Clean history for transactions of up to `spec_depth` tasks.
    pub(crate) fn new(spec_depth: usize) -> Self {
        Admission {
            shapes: vec![Shape::default(); spec_depth + 1],
        }
    }

    /// `true` if a transaction of `tasks` tasks may claim helpers: its shape
    /// is open, or due for a probe.
    pub(crate) fn admits(&self, tasks: usize) -> bool {
        self.shapes[tasks].wait == 0
    }

    /// Folds in a transaction of `tasks` tasks that ran speculatively and
    /// did (`lost`) or did not lose to its past.
    pub(crate) fn after_speculative(&mut self, tasks: usize, lost: bool) {
        let shape = &mut self.shapes[tasks];
        if lost {
            shape.interval = (shape.interval * 2).clamp(FIRST_PROBE_AFTER, PROBE_INTERVAL_CAP);
            shape.wait = shape.interval;
        } else {
            shape.interval /= 2;
        }
    }

    /// Counts a transaction of `tasks` tasks that ran solo toward its
    /// shape's next probe.
    pub(crate) fn after_solo(&mut self, tasks: usize) {
        let shape = &mut self.shapes[tasks];
        shape.wait = shape.wait.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs solo transactions of `tasks` tasks until the shape admits one,
    /// and returns how many ran.
    fn solo_until_probe(history: &mut Admission, tasks: usize) -> u32 {
        let mut solo = 0;
        while !history.admits(tasks) {
            history.after_solo(tasks);
            solo += 1;
        }
        solo
    }

    #[test]
    fn a_loss_closes_only_its_shape_and_losing_probes_back_off_to_the_cap() {
        let mut history = Admission::new(4);
        assert!((1..=4).all(|n| history.admits(n)));
        history.after_speculative(3, true);
        assert!(!history.admits(3));
        assert!(history.admits(2) && history.admits(4));
        let mut expected = FIRST_PROBE_AFTER;
        for _ in 0..8 {
            assert_eq!(solo_until_probe(&mut history, 3), expected);
            history.after_speculative(3, true);
            expected = (expected * 2).min(PROBE_INTERVAL_CAP);
        }
        assert_eq!(expected, PROBE_INTERVAL_CAP);
    }

    #[test]
    fn a_winning_probe_reopens_the_shape_and_wins_shrink_the_interval() {
        let mut history = Admission::new(2);
        history.after_speculative(2, true);
        solo_until_probe(&mut history, 2);
        history.after_speculative(2, true);
        assert_eq!(solo_until_probe(&mut history, 2), 2 * FIRST_PROBE_AFTER);
        history.after_speculative(2, false);
        assert!(history.admits(2), "a probe that did not lose reopens");
        // The next loss doubles the halved interval, and after a run of
        // wins a loss starts from the first interval again.
        history.after_speculative(2, true);
        assert_eq!(solo_until_probe(&mut history, 2), 2 * FIRST_PROBE_AFTER);
        for _ in 0..16 {
            history.after_speculative(2, false);
        }
        history.after_speculative(2, true);
        assert_eq!(solo_until_probe(&mut history, 2), FIRST_PROBE_AFTER);
    }
}
