//! The demand-marked block walk (paper Algorithm 3 running ahead of I/O,
//! §4.2, Figure 6) — written once.
//!
//! A [`ShardWalk`] visits a contiguous block range in multi-pass rotated
//! order, a lookahead window at a time, in two calls per window:
//! [`ShardWalk::mark`] marks the next window under HistSim's current
//! [`Demand`], read at the moment it marks, and [`ShardWalk::hand_out`]
//! hands the window's unvisited blocks to the caller as maximal runs:
//! marked runs to read, unmarked ones to account as skipped. Marked
//! blocks are visited the moment they are handed out and never offered
//! again; skipped ones stay eligible for later passes, when demand may
//! have moved onto them. The two calls are separate so that the caller's
//! run visitor may ingest into the very `HistSim` the marks were read
//! from.
//!
//! The walk decides *which blocks, in which order*. Its two drivers
//! decide everything else around it: FastMatch reads each window's
//! marked runs on the calling thread before it marks again, a service
//! quantum reads them up to its block budget and comes back later. When
//! to settle and what a fruitless pass means stays with them.
//!
//! The window, the visited set and the run extraction are bitsets.
//! Marking copies the window's visited bits into an `open` bitset (the
//! window's unvisited blocks) and marks with word ORs
//! ([`mark_lookahead`]: at most `⌈window/64⌉` per active candidate,
//! none once every open block is marked); runs are found by scanning
//! for the next bit that changes, and a marked run is set visited a
//! word at a time.

use std::ops::Range;

use fastmatch_core::histsim::Demand;
use fastmatch_store::bitmap::{or_bits, BitmapIndex};

use crate::exec::start_block;
use crate::policy::mark_lookahead;

/// Lookahead window of the service's walks, in blocks: four words
/// (32 bytes) of each active candidate's bitmap row, so marking it costs
/// at most four word ORs per active candidate. It is four default quanta
/// long; a quantum whose budget runs out mid-window ends there, and the
/// next one re-marks from its cursor, which at four words a candidate
/// is cheaper than keeping marks across quanta that demand may have
/// outdated. FastMatch's window is its `lookahead` option.
const MARK_WINDOW: usize = 256;

/// What a window's [`ShardWalk::mark`] or [`ShardWalk::hand_out`] came
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A window (or, under a `limit`, part of one) was handed out and the
    /// pass goes on.
    Window,
    /// The hand-out completed a pass over the range.
    PassEnd {
        /// No block was handed out as marked since the pass began: under
        /// unchanged demand the next pass would find nothing either.
        fruitless: bool,
    },
    /// Every block of the range has been handed out as marked (at once
    /// for an empty range).
    Exhausted,
    /// Demand is [`Demand::Finished`], or `on_run` declined to go on:
    /// the walk is over.
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
    /// Blocks in the range.
    len: usize,
    /// One bit per range-local block: handed out as marked.
    visited: Vec<u64>,
    visited_count: usize,
    fruitless: bool,
    /// Window length in blocks.
    window: usize,
    /// The marked window: its range-local first block and its length,
    /// which a pass's wrap may cut short of `window`.
    win_off: usize,
    win_len: usize,
    /// The mark window, a bitset reused by every window: bit `i` stands
    /// for the window's `i`-th block.
    marks: Vec<u64>,
    /// The window's unvisited blocks, in the same shape, reused too.
    open: Vec<u64>,
    /// The active candidates the window was marked for, reused too.
    active: Vec<u32>,
    /// Whether AnyActive marking also marks lone gaps
    /// ([`Self::reading_lone_gaps`]).
    lone_gaps: bool,
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
            len: n,
            visited: vec![0; n.div_ceil(64)],
            visited_count: 0,
            fruitless: true,
            window,
            win_off: 0,
            win_len: 0,
            marks: vec![0; window.div_ceil(64)],
            open: vec![0; window.div_ceil(64)],
            active: Vec::with_capacity(num_candidates),
            lone_gaps: false,
        }
    }

    /// This walk, marking under AnyActive also every *lone gap*: an
    /// unvisited block that no active candidate occurs in, between two
    /// marked unvisited blocks of the same window ([`fill_lone_gaps`]).
    /// Skipping such a block splits one read into two now, and if demand
    /// later moves onto it, costs a one-block read in a later pass;
    /// reading it costs one block of samples that are valid like any
    /// other. FastMatch, which marks one window at a time under fresh
    /// demand, walks this way.
    pub fn reading_lone_gaps(mut self) -> Self {
        self.lone_gaps = true;
        self
    }

    /// The walk of a served query over `blocks` blocks: [`MARK_WINDOW`]
    /// blocks at a time, from a start derived from the query's seed —
    /// repeated runs draw different samples, mirroring the random scan
    /// start of the sequential executors.
    pub fn served(blocks: usize, seed: u64, num_candidates: usize) -> Self {
        let start = start_block(blocks, seed.wrapping_mul(0x9e37_79b9));
        Self::new(0..blocks, start, MARK_WINDOW, num_candidates)
    }

    /// Whether every block of the range has been handed out as marked.
    pub fn exhausted(&self) -> bool {
        self.visited_count == self.len
    }

    /// Marks the next window under `demand`, HistSim's demand as of the
    /// caller's last advance: [`Demand::Stage1Uniform`] marks every block,
    /// [`Demand::PerCandidate`] the blocks holding a candidate whose
    /// count is above 0. Returns what the walk came to instead when it
    /// has nothing to hand out: [`Step::Exhausted`], or [`Step::Stop`]
    /// under [`Demand::Finished`]. Otherwise [`Self::hand_out`] hands the
    /// window out.
    pub fn mark(&mut self, bitmap: &BitmapIndex, demand: Demand<'_>) -> Option<Step> {
        let n = self.len;
        if self.exhausted() {
            return Some(Step::Exhausted);
        }
        if self.cursor == 0 {
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
        let win = self.window.min(seg_left);
        (self.win_off, self.win_len) = (seg_off, win);
        let words = win.div_ceil(64);
        let (marks, open) = (&mut self.marks[..words], &mut self.open[..words]);
        let remaining = match demand {
            Demand::Finished => return Some(Step::Stop),
            Demand::Stage1Uniform { .. } => None,
            Demand::PerCandidate { remaining } => Some(remaining),
        };
        // The window's unvisited blocks, clear past its end.
        open.fill(0);
        or_bits(&self.visited, seg_off, open);
        for w in open.iter_mut() {
            *w = !*w;
        }
        if win % 64 != 0 {
            open[words - 1] &= (1 << (win % 64)) - 1;
        }
        match remaining {
            None => marks.fill(!0),
            Some(remaining) => {
                marks.fill(0);
                self.active.clear();
                let active = remaining.iter().enumerate().filter(|&(_, &r)| r > 0);
                self.active.extend(active.map(|(c, _)| c as u32));
                mark_lookahead(bitmap, &self.active, self.lo + seg_off, open, marks);
                if self.lone_gaps {
                    fill_lone_gaps(marks, open);
                }
            }
        }
        None
    }

    /// Hands each maximal run of the window [`Self::mark`] marked last to
    /// `on_run(blocks, marked)`, in pass order. Marked runs are cut so
    /// that one call hands out at most `limit` (> 0) marked blocks — the
    /// call then ends right behind the last of them, and the next window
    /// is marked from there.
    pub fn hand_out(
        &mut self,
        limit: usize,
        mut on_run: impl FnMut(Range<usize>, bool) -> bool,
    ) -> Step {
        debug_assert!(limit > 0, "a hand-out must be allowed to make progress");
        let (seg_off, win) = (self.win_off, self.win_len);
        let words = win.div_ceil(64);
        let (marks, open) = (&self.marks[..words], &self.open[..words]);
        let (mut i, mut left) = (0, limit);
        while left > 0 {
            i = first_set(words, |w| open[w], i).min(win);
            if i == win {
                break;
            }
            let marked = marks[i / 64] >> (i % 64) & 1 == 1;
            let mut end = run_end(marks, open, i);
            if marked {
                end = i + (end - i).min(left);
                left -= end - i;
                set_bits(&mut self.visited, seg_off + i..seg_off + end);
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
        } else if self.cursor == self.len {
            self.cursor = 0;
            Step::PassEnd {
                fruitless: self.fruitless,
            }
        } else {
            Step::Window
        }
    }
}

/// Marks every open position of a window whose two neighbours are open
/// and marked, a word at a time; neighbours are read before any position
/// is filled, so two adjacent gaps stay unmarked. Positions past the
/// window must be clear in `open`.
fn fill_lone_gaps(marks: &mut [u64], open: &[u64]) {
    let mut below = 0;
    for w in 0..marks.len() {
        let m = marks[w] & open[w];
        let above = open.get(w + 1).map_or(0, |&o| marks[w + 1] & o & 1);
        let (left, right) = (m << 1 | below, m >> 1 | above << 63);
        below = m >> 63;
        marks[w] |= open[w] & !marks[w] & left & right;
    }
}

/// The first position at or after `i` whose bit is set in the bitset of
/// `len` words that `word(w)` yields, or `64 · len` if there is none.
fn first_set(len: usize, word: impl Fn(usize) -> u64, i: usize) -> usize {
    let mut w = i / 64;
    let mut bits = if w < len { word(w) & !0 << (i % 64) } else { 0 };
    while bits == 0 {
        w += 1;
        if w >= len {
            return 64 * len;
        }
        bits = word(w);
    }
    64 * w + bits.trailing_zeros() as usize
}

/// Where the run that starts at position `i` of a marked window ends:
/// the first position whose block is not open (already visited, or past
/// the window) or marked differently from position `i`. Bit `i` of
/// `open` must be set, and `open` must be clear past the window.
fn run_end(marks: &[u64], open: &[u64], i: usize) -> usize {
    // Blocks of the run's kind (open and marked as position `i` is) read
    // as zeros, so the run ends at the first set bit after `i`.
    let flip = if marks[i / 64] >> (i % 64) & 1 == 1 {
        0
    } else {
        !0
    };
    first_set(open.len(), |w| !(open[w] & (marks[w] ^ flip)), i)
}

/// Sets bits `r` of the bitset `bits`, a word at a time.
fn set_bits(bits: &mut [u64], r: Range<usize>) {
    let mut b = r.start;
    while b < r.end {
        let (w, lo) = (b / 64, b % 64);
        let hi = (r.end - 64 * w).min(64);
        bits[w] |= !0 >> (64 - (hi - lo)) << lo;
        b = 64 * w + hi;
    }
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
        /// Address and capacity of the mark and open windows and of the
        /// active-candidate buffer, for tests (here and in the service)
        /// asserting that marking and handing out allocate nothing.
        pub(crate) fn buffers(&self) -> [(usize, usize); 3] {
            [
                (self.marks.as_ptr() as usize, self.marks.capacity()),
                (self.open.as_ptr() as usize, self.open.capacity()),
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

    /// Per-candidate demand over a random candidate subset, as
    /// [`Demand::PerCandidate`] carries it: 0 or 1 per candidate.
    fn random_remaining(rng: &mut StdRng) -> Vec<u64> {
        (0..CANDIDATES)
            .map(|_| rng.gen_range(0..3u64) / 2)
            .collect()
    }

    /// One window: [`ShardWalk::mark`], then, if it leaves something to
    /// hand out, [`ShardWalk::hand_out`].
    fn step(
        walk: &mut ShardWalk,
        bitmap: &BitmapIndex,
        demand: Demand<'_>,
        limit: usize,
        on_run: impl FnMut(Range<usize>, bool) -> bool,
    ) -> Step {
        walk.mark(bitmap, demand)
            .unwrap_or_else(|| walk.hand_out(limit, on_run))
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
        demand: Demand<'_>,
        range: &Range<usize>,
        mut limits: impl FnMut() -> usize,
        trace: &mut Trace,
    ) -> Step {
        let wrap = range.start + walk.start;
        loop {
            let limit = limits();
            let mut handed = 0usize;
            let step = step(walk, bitmap, demand, limit, |run, marked| {
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

    /// Stage-1 demand after an arbitrary AnyActive history: the marked runs
    /// are the rotated order of all still-unvisited blocks, each once,
    /// nothing is skipped, the walk is exhausted exactly when the
    /// last of them is handed out — and cutting steps by random
    /// limits changes none of it.
    fn check_read_all(
        n: usize,
        lo: usize,
        start: usize,
        window: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let rng = &mut StdRng::seed_from_u64(seed);
        let range = lo..lo + n;
        let bitmap = bitmap(range.end + 3, rng);
        let history_passes = rng.gen_range(0..3usize);
        let history_seed = rng.gen_range(0..u64::MAX);

        let mut traces = Vec::new();
        for chopped in [false, true] {
            // Both walks live the same AnyActive history …
            let rng = &mut StdRng::seed_from_u64(history_seed);
            let mut walk = ShardWalk::new(range.clone(), start, window, CANDIDATES);
            let mut history = Trace::default();
            for _ in 0..history_passes {
                let remaining = random_remaining(rng);
                run_pass(
                    &mut walk,
                    &bitmap,
                    Demand::PerCandidate {
                        remaining: &remaining,
                    },
                    &range,
                    || usize::MAX,
                    &mut history,
                );
            }
            let visited: Vec<usize> = history
                .blocks
                .iter()
                .filter(|&&(_, m)| m)
                .map(|&(b, _)| b)
                .collect();
            // … then read everything that is left, unbroken or chopped.
            let demand = Demand::Stage1Uniform { remaining: 1 };
            let mut trace = Trace::default();
            let exhausted = walk.exhausted();
            let last = run_pass(
                &mut walk,
                &bitmap,
                demand,
                &range,
                || {
                    if chopped {
                        rng.gen_range(1..2 * window + 2)
                    } else {
                        usize::MAX
                    }
                },
                &mut trace,
            );
            prop_assert_eq!(last, Step::Exhausted);
            prop_assert!(walk.exhausted());
            prop_assert_eq!(exhausted, trace.blocks.is_empty());
            let rotated = (0..n).map(|p| lo + (start + p) % n.max(1));
            let expect: Vec<(usize, bool)> = rotated
                .filter(|b| !visited.contains(b))
                .map(|b| (b, true))
                .collect();
            prop_assert_eq!(&trace.blocks, &expect);
            // Exhausted stays exhausted and hands out nothing more.
            let again = step(&mut walk, &bitmap, demand, 1, |_, _| {
                panic!("run after exhaustion")
            });
            prop_assert_eq!(again, Step::Exhausted);
            traces.push((history, trace));
        }
        prop_assert_eq!(&traces[0], &traces[1]);
        Ok(())
    }

    /// AnyActive under fixed demand, over several passes with the
    /// demand changing between them: each pass marks exactly the
    /// unvisited blocks holding an active candidate, offers exactly
    /// the other unvisited blocks as skips, in rotated order; a pass
    /// is fruitless iff it marked nothing; and chopping by limits
    /// changes nothing.
    fn check_any_active(
        n: usize,
        lo: usize,
        start: usize,
        window: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let rng = &mut StdRng::seed_from_u64(seed);
        let range = lo..lo + n;
        let bitmap = bitmap(range.end + 3, rng);
        let mut walk = ShardWalk::new(range.clone(), start, window, CANDIDATES);
        let mut visited = vec![false; n];
        for _ in 0..4 {
            let remaining = random_remaining(rng);
            let active: Vec<u32> = (0..CANDIDATES as u32)
                .filter(|&c| remaining[c as usize] > 0)
                .collect();
            let mut trace = Trace::default();
            let chopped = rng.gen_range(0..2u32) == 1;
            let last = run_pass(
                &mut walk,
                &bitmap,
                Demand::PerCandidate {
                    remaining: &remaining,
                },
                &range,
                || {
                    if chopped {
                        rng.gen_range(1..2 * window + 2)
                    } else {
                        usize::MAX
                    }
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
            prop_assert_eq!(
                last,
                Step::PassEnd {
                    fruitless: marked == 0
                }
            );
            prop_assert!(!walk.exhausted());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// [`check_read_all`] over windows of up to 23 blocks.
        #[test]
        fn read_all_hands_out_the_rotated_rest_once(
            n in 0usize..90,
            lo in 0usize..40,
            start in 0usize..200,
            window in 1usize..24,
            seed in 0u64..1_000_000,
        ) {
            check_read_all(n, lo, start, window, seed)?;
        }

        /// [`check_any_active`] over windows of up to 23 blocks.
        #[test]
        fn any_active_marks_exactly_the_demanded_blocks(
            n in 1usize..90,
            lo in 0usize..40,
            start in 0usize..200,
            window in 1usize..24,
            seed in 0u64..1_000_000,
        ) {
            check_any_active(n, lo, start, window, seed)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The two properties above over windows of up to five words,
        /// unaligned to the visited set's words and to the bitmap's, and
        /// over ranges of up to twelve words: marking, the saturation
        /// exit and the run scan across word boundaries.
        #[test]
        fn wide_windows_keep_both_properties(
            n in 0usize..760,
            lo in 0usize..130,
            start in 0usize..900,
            window in 1usize..330,
            seed in 0u64..1_000_000,
        ) {
            check_read_all(n, lo, start, window, seed)?;
            check_any_active(n.max(1), lo, start, window, seed)?;
        }
    }

    #[test]
    fn empty_range_is_exhausted_at_once() {
        let rng = &mut StdRng::seed_from_u64(1);
        let bitmap = bitmap(4, rng);
        let mut walk = ShardWalk::new(2..2, 7, 8, CANDIDATES);
        assert!(walk.exhausted());
        let demand = Demand::Stage1Uniform { remaining: 1 };
        assert_eq!(walk.mark(&bitmap, demand), Some(Step::Exhausted));
    }

    #[test]
    fn stop_is_observed_within_one_window() {
        let rng = &mut StdRng::seed_from_u64(2);
        let bitmap = bitmap(64, rng);
        let mut walk = ShardWalk::new(0..64, 5, 8, CANDIDATES);
        let mut handed = 0;
        let count = |run: Range<usize>, _| {
            handed += run.len();
            true
        };
        let stage1 = Demand::Stage1Uniform { remaining: 1 };
        assert_eq!(walk.mark(&bitmap, stage1), None);
        assert_eq!(walk.hand_out(usize::MAX, count), Step::Window);
        assert_eq!(handed, 8, "one window at a time");
        // Finished demand: the very next window hands out nothing.
        assert_eq!(walk.mark(&bitmap, Demand::Finished), Some(Step::Stop));
        // A driver that declines a run ends the hand-out on the spot.
        let idle = [0; CANDIDATES]; // nobody active: all skips
        let demand = Demand::PerCandidate { remaining: &idle };
        assert_eq!(walk.mark(&bitmap, demand), None);
        let mut calls = 0;
        let step = walk.hand_out(usize::MAX, |_, _| {
            calls += 1;
            false
        });
        assert_eq!((step, calls), (Step::Stop, 1));
    }

    #[test]
    fn run_end_splits_on_marks_and_visited() {
        let marks = [0b11_0011];
        let open = [0b01_1111]; // window position 5 visited
        assert_eq!(run_end(&marks, &open, 0), 2, "marks change");
        assert_eq!(run_end(&marks, &open, 2), 4);
        assert_eq!(run_end(&marks, &open, 4), 5, "visited block ends the run");
        assert_eq!(run_end(&marks, &[0b1_1111], 4), 5, "window end");
        // Runs across word boundaries, to the window's last word.
        let (marks, open) = ([!0, 0b1, 0], [!0, !0, 0b11]);
        assert_eq!(run_end(&marks, &open, 3), 65);
        assert_eq!(run_end(&marks, &open, 65), 130);
        assert_eq!(run_end(&[!0, !0], &[!0, !0], 70), 128, "full window");
        assert_eq!(first_set(3, |w| open[w], 66), 66);
        let sparse = [0, 0b100, 0];
        assert_eq!(first_set(3, |w| sparse[w], 1), 66);
        assert_eq!(first_set(3, |w| sparse[w], 67), 192, "none left");
    }

    #[test]
    fn lone_gaps_are_marked_and_wider_gaps_are_not() {
        // Position by position: `m` marked and open, `.` open and
        // unmarked, `v` visited; the expected marks after the fill.
        let cases = [
            ("m.m", "mmm"),
            ("m..m", "m..m"),
            (".m.m.", ".mmm."),
            ("mv.m", "mv.m"),
            ("m.vm", "m.vm"),
            ("m.m.m", "mmmmm"),
        ];
        for (before, after) in cases {
            let (mut marks, mut open) = (vec![0u64], vec![0u64]);
            for (i, c) in before.chars().enumerate() {
                marks[0] |= u64::from(c == 'm') << i;
                open[0] |= u64::from(c != 'v') << i;
            }
            fill_lone_gaps(&mut marks, &open);
            let got: String = (0..before.len())
                .map(|i| match (open[0] >> i & 1, marks[0] >> i & 1) {
                    (0, _) => 'v',
                    (_, 1) => 'm',
                    _ => '.',
                })
                .collect();
            assert_eq!(got, after, "{before}");
        }
        // Across word boundaries, both ways.
        let open = [!0u64, !0, 0b111];
        let mut marks = [1 << 62, 1 << 0 | 1 << 63, 1 << 1];
        fill_lone_gaps(&mut marks, &open);
        assert_eq!(
            marks,
            [1 << 62 | 1 << 63, 1 << 0 | 1 << 63, 1 << 0 | 1 << 1]
        );
    }

    #[test]
    fn set_bits_sets_exactly_the_range() {
        for (lo, hi) in [
            (0, 0),
            (0, 64),
            (3, 9),
            (60, 70),
            (5, 192),
            (64, 128),
            (127, 191),
        ] {
            let mut bits = vec![0u64; 3];
            set_bits(&mut bits, lo..hi);
            for b in 0..192 {
                assert_eq!(
                    bits[b / 64] >> (b % 64) & 1 == 1,
                    (lo..hi).contains(&b),
                    "{lo}..{hi} b={b}"
                );
            }
        }
    }
}
