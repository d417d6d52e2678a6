//! The demand-marked block walk (paper Algorithm 3 running ahead of I/O,
//! §4.2, Figure 6) — written once.
//!
//! A [`ShardWalk`] visits a contiguous block range in multi-pass rotated
//! order. Each [`ShardWalk::step`] marks the next lookahead window under
//! the query's current [`SharedDemand`] and hands the window's unvisited
//! blocks to the caller as maximal runs: marked runs to read, unmarked
//! ones to account as skipped. Marked blocks are visited the moment they
//! are handed out and never offered again; skipped ones stay eligible for
//! later passes, when demand may have moved onto them.
//!
//! The walk decides *which blocks, in which order*. Its two drivers
//! decide everything else around `step`: FastMatch's sampling engine
//! ships each window's runs over a channel, a service quantum (which is
//! also how `ParallelMatch` runs) reads them up to its block budget and
//! comes back later. Who waits, merges and parks stays with them.

use std::ops::Range;

use fastmatch_store::bitmap::BitmapIndex;

use crate::exec::start_block;
use crate::policy::mark_lookahead;
use crate::shared::{DemandMode, SharedDemand};

/// Lookahead window of the service's shard walks, in blocks: long
/// enough that every cache line of a candidate's bitmap row is consumed
/// whole, short enough that demand is re-read often. FastMatch's window
/// is its `lookahead` option.
const MARK_WINDOW: usize = 256;

/// What one [`ShardWalk::step`] came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A window (or, under a `limit`, part of one) was handed out and the
    /// pass goes on.
    Window,
    /// The step completed a pass over the range.
    PassEnd {
        /// No block was handed out as marked since the pass began: under
        /// unchanged demand the next pass would find nothing either.
        fruitless: bool,
        /// The demand epoch read when the pass began (before any of its
        /// demand), so "has demand moved since?" cannot miss a
        /// publication.
        epoch: u64,
    },
    /// Every block of the range has been handed out as marked (at once
    /// for an empty range).
    Exhausted,
    /// Demand says `Stop`, or `on_run` declined to go on: the walk is
    /// over.
    Stop,
}

/// One resumable multi-pass walk over a contiguous block range.
#[derive(Debug)]
pub(crate) struct ShardWalk {
    /// First block of the range; everything below is range-local.
    lo: usize,
    /// Rotation offset: local block `(start + p) % n` is `p`-th in pass
    /// order, so different seeds draw different samples.
    start: usize,
    /// Position in pass order; `0` means a pass is about to begin.
    cursor: usize,
    visited: Vec<bool>,
    visited_count: usize,
    pass_epoch: u64,
    fruitless: bool,
    /// The mark window, reused by every step.
    marks: Vec<bool>,
    /// The active-candidate snapshot of the current window, reused too.
    active: Vec<u32>,
}

impl ShardWalk {
    /// A walk over `blocks`, beginning its passes at local offset `start`
    /// (taken modulo the range) and marking `window` blocks at a time
    /// against at most `num_candidates` candidates.
    pub fn new(blocks: Range<usize>, start: usize, window: usize, num_candidates: usize) -> Self {
        assert!(window > 0, "mark window must be positive");
        let n = blocks.len();
        ShardWalk {
            lo: blocks.start,
            start: if n == 0 { 0 } else { start % n },
            cursor: 0,
            visited: vec![false; n],
            visited_count: 0,
            pass_epoch: 0,
            fruitless: true,
            marks: vec![false; window],
            active: Vec::with_capacity(num_candidates),
        }
    }

    /// The walk of shard `shard` of a sharded query: [`MARK_WINDOW`]
    /// blocks at a time, from a start derived from the query's seed and
    /// the shard's index — repeated runs draw different samples,
    /// mirroring the random scan start of the sequential executors.
    pub fn for_shard(blocks: Range<usize>, shard: usize, seed: u64, num_candidates: usize) -> Self {
        let seed = seed.wrapping_add(shard as u64).wrapping_mul(0x9e37_79b9);
        let start = start_block(blocks.len(), seed);
        Self::new(blocks, start, MARK_WINDOW, num_candidates)
    }

    /// Whether every block of the range has been handed out as marked.
    pub fn exhausted(&self) -> bool {
        self.visited_count == self.visited.len()
    }

    /// Marks the next window under `demand` and hands each maximal run of
    /// its unvisited blocks to `on_run(blocks, marked)`, in pass order.
    /// Marked runs are cut so that one step hands out at most `limit`
    /// (> 0) marked blocks — the step then ends right behind the last of
    /// them, and the next one re-marks from there.
    pub fn step(
        &mut self,
        bitmap: &BitmapIndex,
        demand: &SharedDemand,
        limit: usize,
        mut on_run: impl FnMut(Range<usize>, bool) -> bool,
    ) -> Step {
        debug_assert!(limit > 0, "a step must be allowed to make progress");
        let n = self.visited.len();
        if self.exhausted() {
            return Step::Exhausted;
        }
        if self.cursor == 0 {
            self.pass_epoch = demand.epoch();
            self.fruitless = true;
        }
        // A pass is two contiguous segments, `start..n` then `0..start`;
        // a window ends at the wrap, so it is one bitmap range.
        let first_len = n - self.start;
        let (seg_off, seg_left) = if self.cursor < first_len {
            (self.start + self.cursor, first_len - self.cursor)
        } else {
            (self.cursor - first_len, n - self.cursor)
        };
        let win = self.marks.len().min(seg_left);
        let marks = &mut self.marks[..win];
        match demand.mode() {
            DemandMode::Stop => return Step::Stop,
            DemandMode::ReadAll => marks.fill(true),
            DemandMode::AnyActive => {
                marks.fill(false);
                demand.active_into(&mut self.active);
                mark_lookahead(bitmap, &self.active, self.lo + seg_off, marks);
            }
        }
        let (mut i, mut left) = (0, limit);
        while i < win && left > 0 {
            if self.visited[seg_off + i] {
                i += 1;
                continue;
            }
            let marked = marks[i];
            let mut end = run_end(marks, &self.visited, seg_off, i);
            if marked {
                end = i + (end - i).min(left);
                left -= end - i;
                self.visited[seg_off + i..seg_off + end].fill(true);
                self.visited_count += end - i;
                self.fruitless = false;
            }
            let run = self.lo + seg_off + i..self.lo + seg_off + end;
            i = end;
            if !on_run(run, marked) {
                return Step::Stop;
            }
        }
        self.cursor += i;
        if self.exhausted() {
            Step::Exhausted
        } else if self.cursor == n {
            self.cursor = 0;
            Step::PassEnd {
                fruitless: self.fruitless,
                epoch: self.pass_epoch,
            }
        } else {
            Step::Window
        }
    }
}

/// Where the run that starts at position `i` of a marked window ends:
/// the first position whose block is already visited or marked
/// differently from position `i`. `marks[i]` describes local block
/// `seg_off + i`, `visited` is indexed by local block, and position `i`
/// must be unvisited.
fn run_end(marks: &[bool], visited: &[bool], seg_off: usize, i: usize) -> usize {
    let tail = marks[i + 1..].iter().zip(&visited[seg_off + i + 1..]);
    i + 1 + tail.take_while(|&(&m, &v)| !v && m == marks[i]).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;

    impl ShardWalk {
        /// Address and capacity of the mark window and of the
        /// active-candidate buffer, for tests (here and in the service)
        /// asserting that steps allocate nothing.
        pub(crate) fn buffers(&self) -> [(usize, usize); 2] {
            [
                (self.marks.as_ptr() as usize, self.marks.capacity()),
                (self.active.as_ptr() as usize, self.active.capacity()),
            ]
        }
    }

    /// Candidates in the fixture; blocks hold two rows, so a block
    /// contains one or two of them and AnyActive has something to skip.
    const CANDIDATES: usize = 6;

    /// A bitmap over `blocks` two-row blocks of random candidates.
    fn bitmap(blocks: usize, rng: &mut StdRng) -> BitmapIndex {
        let z: Vec<u32> = (0..2 * blocks.max(1))
            .map(|_| rng.gen_range(0..CANDIDATES as u32))
            .collect();
        let table = Table::new(
            Schema::new(vec![AttrDef::new("z", CANDIDATES as u32)]),
            vec![z],
        );
        let layout = BlockLayout::new(table.n_rows(), 2);
        BitmapIndex::build(&table, 0, &layout)
    }

    /// Publishes AnyActive demand over a random candidate subset and
    /// returns the subset.
    fn publish_random(demand: &SharedDemand, rng: &mut StdRng) -> Vec<u32> {
        let remaining: Vec<u64> = (0..CANDIDATES)
            .map(|_| rng.gen_range(0..3u64) / 2)
            .collect();
        demand.publish(DemandMode::AnyActive, Some(&remaining));
        let active = (0..CANDIDATES as u32).filter(|&c| remaining[c as usize] > 0);
        active.collect()
    }

    /// Everything a sequence of steps did, run by run and step by step.
    #[derive(Debug, Default, PartialEq)]
    struct Trace {
        /// `(block, marked)` in hand-out order.
        blocks: Vec<(usize, bool)>,
        /// Every non-`Window` step result, in order.
        ends: Vec<Step>,
    }

    /// Steps `walk` to the end of the current pass (or its end of life),
    /// drawing each step's limit from `limits`, checking per run that it
    /// is non-empty, inside `range`, cut to the limit and not astride the
    /// rotation wrap.
    fn run_pass(
        walk: &mut ShardWalk,
        bitmap: &BitmapIndex,
        demand: &SharedDemand,
        range: &Range<usize>,
        mut limits: impl FnMut() -> usize,
        trace: &mut Trace,
    ) -> Step {
        let wrap = range.start + walk.start;
        loop {
            let limit = limits();
            let mut handed = 0usize;
            let step = walk.step(bitmap, demand, limit, |run, marked| {
                assert!(!run.is_empty(), "empty run");
                assert!(
                    range.start <= run.start && run.end <= range.end,
                    "{run:?} leaves {range:?}"
                );
                assert!(
                    !(run.start < wrap && wrap < run.end),
                    "{run:?} crosses the wrap at {wrap}"
                );
                handed += if marked { run.len() } else { 0 };
                trace.blocks.extend(run.map(|b| (b, marked)));
                true
            });
            assert!(
                handed <= limit,
                "{handed} marked blocks under limit {limit}"
            );
            if step != Step::Window {
                trace.ends.push(step);
                return step;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// ReadAll after an arbitrary AnyActive history: the marked runs
        /// are the rotated order of all still-unvisited blocks, each once,
        /// nothing is skipped, the walk is exhausted exactly when the
        /// last of them is handed out — and cutting steps by random
        /// limits changes none of it.
        #[test]
        fn read_all_hands_out_the_rotated_rest_once(
            n in 0usize..90,
            lo in 0usize..40,
            start in 0usize..200,
            window in 1usize..24,
            seed in 0u64..1_000_000,
        ) {
            let rng = &mut StdRng::seed_from_u64(seed);
            let range = lo..lo + n;
            let bitmap = bitmap(range.end + 3, rng);
            let history_passes = rng.gen_range(0..3usize);
            let history_seed = rng.gen_range(0..u64::MAX);

            let mut traces = Vec::new();
            for chopped in [false, true] {
                // Both walks live the same AnyActive history …
                let rng = &mut StdRng::seed_from_u64(history_seed);
                let demand = SharedDemand::new(CANDIDATES);
                let mut walk = ShardWalk::new(range.clone(), start, window, CANDIDATES);
                let mut history = Trace::default();
                for _ in 0..history_passes {
                    publish_random(&demand, rng);
                    run_pass(&mut walk, &bitmap, &demand, &range, || usize::MAX, &mut history);
                }
                let visited: Vec<usize> =
                    history.blocks.iter().filter(|&&(_, m)| m).map(|&(b, _)| b).collect();
                // … then read everything that is left, unbroken or chopped.
                demand.set_mode(DemandMode::ReadAll);
                let mut trace = Trace::default();
                let exhausted = walk.exhausted();
                let last = run_pass(
                    &mut walk,
                    &bitmap,
                    &demand,
                    &range,
                    || if chopped { rng.gen_range(1..2 * window + 2) } else { usize::MAX },
                    &mut trace,
                );
                prop_assert_eq!(last, Step::Exhausted);
                prop_assert!(walk.exhausted());
                prop_assert_eq!(exhausted, trace.blocks.is_empty());
                let rotated = (0..n).map(|p| lo + (start + p) % n.max(1));
                let expect: Vec<(usize, bool)> =
                    rotated.filter(|b| !visited.contains(b)).map(|b| (b, true)).collect();
                prop_assert_eq!(&trace.blocks, &expect);
                // Exhausted stays exhausted and hands out nothing more.
                let again = walk.step(&bitmap, &demand, 1, |_, _| panic!("run after exhaustion"));
                prop_assert_eq!(again, Step::Exhausted);
                traces.push((history, trace));
            }
            prop_assert_eq!(&traces[0], &traces[1]);
        }

        /// AnyActive under fixed demand, over several passes with the
        /// demand changing between them: each pass marks exactly the
        /// unvisited blocks holding an active candidate, offers exactly
        /// the other unvisited blocks as skips, in rotated order; a pass
        /// is fruitless iff it marked nothing; its epoch is the one
        /// current when it began, whatever is published meanwhile; and
        /// chopping by limits changes nothing.
        #[test]
        fn any_active_marks_exactly_the_demanded_blocks(
            n in 1usize..90,
            lo in 0usize..40,
            start in 0usize..200,
            window in 1usize..24,
            seed in 0u64..1_000_000,
        ) {
            let rng = &mut StdRng::seed_from_u64(seed);
            let range = lo..lo + n;
            let bitmap = bitmap(range.end + 3, rng);
            let demand = SharedDemand::new(CANDIDATES);
            let mut walk = ShardWalk::new(range.clone(), start, window, CANDIDATES);
            let mut visited = vec![false; n];
            for _ in 0..4 {
                let active = publish_random(&demand, rng);
                let epoch = demand.epoch();
                let mut steps = 0;
                let mut trace = Trace::default();
                let chopped = rng.gen_range(0..2u32) == 1;
                let last = run_pass(
                    &mut walk,
                    &bitmap,
                    &demand,
                    &range,
                    || {
                        // The same demand again, after the pass's first
                        // step: a new epoch mid-pass.
                        steps += 1;
                        if steps == 2 {
                            let same: Vec<u64> =
                                (0..CANDIDATES).map(|c| demand.remaining(c)).collect();
                            demand.publish(DemandMode::AnyActive, Some(&same));
                        }
                        if chopped { rng.gen_range(1..2 * window + 2) } else { usize::MAX }
                    },
                    &mut trace,
                );
                let rotated = (0..n).map(|p| (start + p) % n).filter(|&l| !visited[l]);
                let expect: Vec<(usize, bool)> = rotated
                    .map(|l| (lo + l, active.iter().any(|&c| bitmap.block_has(c, lo + l))))
                    .collect();
                let marked = expect.iter().filter(|&&(_, m)| m).count();
                for &(b, m) in &expect {
                    visited[b - lo] |= m;
                }
                if visited.iter().all(|&v| v) {
                    // The step that hands out the last block says so at
                    // once; blocks behind it in the pass are all visited.
                    prop_assert_eq!(last, Step::Exhausted);
                    let cut = trace.blocks.len();
                    prop_assert_eq!(&trace.blocks[..], &expect[..cut]);
                    prop_assert!(expect[cut..].iter().all(|&(_, m)| !m));
                    break;
                }
                prop_assert_eq!(&trace.blocks, &expect);
                prop_assert_eq!(last, Step::PassEnd { fruitless: marked == 0, epoch });
                prop_assert!(!walk.exhausted());
            }
        }
    }

    #[test]
    fn empty_range_is_exhausted_at_once() {
        let rng = &mut StdRng::seed_from_u64(1);
        let bitmap = bitmap(4, rng);
        let demand = SharedDemand::new(CANDIDATES);
        let mut walk = ShardWalk::new(2..2, 7, 8, CANDIDATES);
        assert!(walk.exhausted());
        let step = walk.step(&bitmap, &demand, 1, |_, _| panic!("run in an empty range"));
        assert_eq!(step, Step::Exhausted);
    }

    #[test]
    fn stop_is_observed_within_one_window() {
        let rng = &mut StdRng::seed_from_u64(2);
        let bitmap = bitmap(64, rng);
        let demand = SharedDemand::new(CANDIDATES);
        let mut walk = ShardWalk::new(0..64, 5, 8, CANDIDATES);
        let mut handed = 0;
        let count = |run: Range<usize>, _| {
            handed += run.len();
            true
        };
        assert_eq!(walk.step(&bitmap, &demand, usize::MAX, count), Step::Window);
        assert_eq!(handed, 8, "one step is one window");
        // Published Stop: the very next step hands out nothing.
        demand.set_mode(DemandMode::Stop);
        let step = walk.step(&bitmap, &demand, usize::MAX, |_, _| {
            panic!("run after Stop")
        });
        assert_eq!(step, Step::Stop);
        // A driver that declines a run ends the step on the spot.
        demand.set_mode(DemandMode::AnyActive); // nobody active: all skips
        let mut calls = 0;
        let step = walk.step(&bitmap, &demand, usize::MAX, |_, _| {
            calls += 1;
            false
        });
        assert_eq!((step, calls), (Step::Stop, 1));
    }

    #[test]
    fn run_end_splits_on_marks_and_visited() {
        let marks = [true, true, false, false, true, true];
        let mut visited = vec![false; 10];
        visited[3 + 5] = true; // window position 5
        assert_eq!(run_end(&marks, &visited, 3, 0), 2, "marks change");
        assert_eq!(run_end(&marks, &visited, 3, 2), 4);
        assert_eq!(
            run_end(&marks, &visited, 3, 4),
            5,
            "visited block ends the run"
        );
        assert_eq!(run_end(&marks[..5], &visited, 3, 4), 5, "window end");
    }
}
