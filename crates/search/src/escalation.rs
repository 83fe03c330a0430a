//! The k-NN escalation queue shared by [`crate::SearchEngine`] and
//! [`crate::DynamicIndex`].
//!
//! Algorithm 2 visits candidates in ascending `(bound, next stage, id)`
//! order and stops at the first bound above the live k-th distance. Every
//! tree enters with its stage-0 bound and next stage 1, but on a typical
//! query only a few hundred of them are ever popped. So the queue keeps
//! the two kinds of entry apart:
//!
//! * the **run**: every tree's stage-0 entry, sorted once by
//!   `(bound, id)` with a stable counting sort over the raw bounds and
//!   read through a cursor — O(n + max bound) to build, O(1) per pop;
//! * a small [`BinaryHeap`] holding only the entries re-pushed after a
//!   sharper stage (next stage ≥ 2).
//!
//! A pop takes the lexicographic minimum of the run head
//! `(bound · scale, 1, id)` and the heap top. Both sources are ordered by
//! the same key, so the pop sequence is exactly that of one heap over all
//! entries, ties included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queue entry: `(bound in cost units, next stage, tree raw id)`.
pub(crate) type Entry = (u64, usize, u32);

/// The escalation queue of one k-NN query; see the module docs.
#[derive(Debug)]
pub(crate) struct EscalationQueue {
    /// Stage-0 bounds in operation counts, indexed by tree raw id.
    bounds: Vec<u64>,
    /// Tree raw ids ascending by `(bounds[id], id)`.
    run: Vec<u32>,
    /// Next unpopped position in `run`.
    cursor: usize,
    /// Lower bounds count operations; one operation costs at least this.
    scale: u64,
    /// Entries re-pushed after a sharper stage.
    escalated: BinaryHeap<Reverse<Entry>>,
}

impl EscalationQueue {
    /// Queues every tree `id` with the entry `(bounds[id] · scale, 1, id)`.
    /// `scale` must be at least 1, so scaling keeps the run's order.
    pub(crate) fn new(bounds: Vec<u64>, scale: u64) -> Self {
        debug_assert!(scale >= 1, "bound scale must be at least 1");
        let run = sorted_by_bound(&bounds);
        EscalationQueue {
            bounds,
            run,
            cursor: 0,
            scale,
            escalated: BinaryHeap::new(),
        }
    }

    /// Removes and returns the smallest entry if its bound is at most
    /// `budget`. Otherwise the queue is left as it is and `None` comes
    /// back: no outstanding entry can then be within the budget.
    pub(crate) fn pop_within(&mut self, budget: u64) -> Option<Entry> {
        let head = self.unpopped_run().next();
        let top = self.escalated.peek().map(|&Reverse(entry)| entry);
        let from_run = match (head, top) {
            (Some(a), Some(b)) => a < b,
            (head, _) => head.is_some(),
        };
        let next = if from_run { head } else { top }?;
        if next.0 > budget {
            return None;
        }
        if from_run {
            self.cursor += 1;
        } else {
            self.escalated.pop();
        }
        Some(next)
    }

    /// Queues `id` again with a sharper `bound`, due at `next_stage ≥ 2`.
    pub(crate) fn push(&mut self, bound: u64, next_stage: usize, id: u32) {
        debug_assert!(next_stage >= 2, "stage-0 entries live in the run");
        self.escalated.push(Reverse((bound, next_stage, id)));
    }

    /// Number of trees never popped from the run: all of them were
    /// pruned by their stage-0 bound.
    pub(crate) fn unpopped_run_len(&self) -> usize {
        self.run.len() - self.cursor
    }

    /// The unpopped run entries, ascending.
    pub(crate) fn unpopped_run(&self) -> impl Iterator<Item = Entry> + '_ {
        self.run[self.cursor..]
            .iter()
            .map(|&id| (self.bounds[id as usize] * self.scale, 1, id))
    }

    /// The re-pushed entries still queued, in no particular order.
    pub(crate) fn remaining_escalated(&self) -> impl Iterator<Item = Entry> + '_ {
        self.escalated.iter().map(|&Reverse(entry)| entry)
    }
}

/// Tree ids `0..bounds.len()` sorted by `(bounds[id], id)`. A stable
/// counting sort over the bounds when the largest is at most the tree
/// count, so the count array stays O(n); otherwise (hostile huge trees)
/// an ordinary comparison sort on the same key.
fn sorted_by_bound(bounds: &[u64]) -> Vec<u32> {
    let n = bounds.len();
    let max = bounds.iter().copied().max().unwrap_or(0);
    if max > n as u64 {
        let mut run: Vec<u32> = (0..n as u32).collect();
        run.sort_unstable_by_key(|&id| (bounds[id as usize], id));
        return run;
    }
    // `starts[b]` becomes the first run slot of bound `b`; ids are
    // scattered in ascending order, so equal bounds keep id order.
    let mut starts = vec![0u32; max as usize + 2];
    for &bound in bounds {
        starts[bound as usize + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut run = vec![0u32; n];
    for (id, &bound) in bounds.iter().enumerate() {
        let slot = &mut starts[bound as usize];
        run[*slot as usize] = id as u32;
        *slot += 1;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: one heap over every entry, as the k-NN loops kept
    /// before the run split off.
    struct Oracle(BinaryHeap<Reverse<Entry>>);

    impl Oracle {
        fn new(bounds: &[u64], scale: u64) -> Self {
            Oracle(
                bounds
                    .iter()
                    .enumerate()
                    .map(|(id, &bound)| Reverse((bound * scale, 1, id as u32)))
                    .collect(),
            )
        }

        fn pop_within(&mut self, budget: u64) -> Option<Entry> {
            match self.0.peek() {
                Some(&Reverse(entry)) if entry.0 <= budget => {
                    self.0.pop();
                    Some(entry)
                }
                _ => None,
            }
        }
    }

    /// Drives the queue and the oracle through the same script: pop, and
    /// re-push the popped entry at a sharper bound for a later stage
    /// until it reaches `stages`. The budget falls as entries finish, as
    /// a k-NN budget does. Returns the pop sequences and leftovers.
    fn drive(
        bounds: &[u64],
        scale: u64,
        stages: usize,
        bumps: &[u64],
        finish_budget_after: usize,
    ) -> (Vec<Entry>, Vec<Entry>, Vec<Entry>, Vec<Entry>) {
        let mut queue = EscalationQueue::new(bounds.to_vec(), scale);
        let mut oracle = Oracle::new(bounds, scale);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut budget = u64::MAX;
        let mut finished = 0usize;
        let mut step = 0usize;
        loop {
            let popped = queue.pop_within(budget);
            let expected = oracle.pop_within(budget);
            got.extend(popped);
            want.extend(expected);
            let (Some((bound, next_stage, id)), Some(_)) = (popped, expected) else {
                break;
            };
            if next_stage < stages {
                let bump = bumps.get(step % bumps.len().max(1)).copied().unwrap_or(0);
                step += 1;
                let sharper = bound + bump * scale;
                queue.push(sharper, next_stage + 1, id);
                oracle.0.push(Reverse((sharper, next_stage + 1, id)));
            } else {
                finished += 1;
                if finished >= finish_budget_after {
                    budget = budget.min(bound + scale);
                }
            }
        }
        let mut left: Vec<Entry> = queue
            .unpopped_run()
            .chain(queue.remaining_escalated())
            .collect();
        let mut left_oracle: Vec<Entry> = oracle.0.iter().map(|&Reverse(e)| e).collect();
        left.sort_unstable();
        left_oracle.sort_unstable();
        (got, want, left, left_oracle)
    }

    #[test]
    fn empty_run_pops_nothing() {
        let mut queue = EscalationQueue::new(Vec::new(), 1);
        assert_eq!(queue.pop_within(u64::MAX), None);
        assert_eq!(queue.unpopped_run_len(), 0);
        assert_eq!(queue.unpopped_run().count(), 0);
    }

    #[test]
    fn counting_sort_and_fallback_agree() {
        let small = [3u64, 0, 3, 1, 0, 2];
        assert_eq!(sorted_by_bound(&small), vec![1, 4, 3, 5, 0, 2]);
        // The largest bound exceeds the tree count: comparison sort.
        let huge = [u64::MAX / 4, 0, 7, 7, u64::MAX / 4];
        assert_eq!(sorted_by_bound(&huge), vec![1, 2, 3, 0, 4]);
    }

    #[test]
    fn ties_pop_fewer_stages_left_first_then_smaller_id() {
        // Tree 2 re-pushed at bound 1 for stage 2 comes after every run
        // entry at bound 1 (next stage 1), however large their ids.
        let mut queue = EscalationQueue::new(vec![1, 1, 0, 1], 1);
        assert_eq!(queue.pop_within(u64::MAX), Some((0, 1, 2)));
        queue.push(1, 2, 2);
        let order: Vec<Entry> = std::iter::from_fn(|| queue.pop_within(u64::MAX)).collect();
        assert_eq!(order, vec![(1, 1, 0), (1, 1, 1), (1, 1, 3), (1, 2, 2)]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Heavy ties: bounds drawn from a tiny range, several stages.
        #[test]
        fn pops_in_heap_order_with_ties(
            bounds in prop::collection::vec(0u64..4, 0..60),
            bumps in prop::collection::vec(0u64..3, 1..8),
            stages in 1usize..5,
            scale in 1u64..4,
            finish in 1usize..6,
        ) {
            let (got, want, left, left_oracle) = drive(&bounds, scale, stages, &bumps, finish);
            prop_assert_eq!(got, want);
            prop_assert_eq!(left, left_oracle);
        }

        /// Bounds far above the tree count take the comparison-sort path.
        #[test]
        fn pops_in_heap_order_on_the_fallback(
            bounds in prop::collection::vec(0u64..1_000_000, 1..40),
            bumps in prop::collection::vec(0u64..50_000, 1..8),
            stages in 1usize..4,
            scale in 1u64..5,
            finish in 1usize..4,
        ) {
            let (got, want, left, left_oracle) = drive(&bounds, scale, stages, &bumps, finish);
            prop_assert_eq!(got, want);
            prop_assert_eq!(left, left_oracle);
        }
    }
}
