//! Property tests for the batched ingestion kernels.
//!
//! The validated-once `HistAccumulator::accumulate` batch path must
//! produce **bit-identical** accumulator state — counts, n, touched list,
//! tuples — to per-tuple `accumulate_one` over arbitrary batch streams,
//! including clear, re-dimension and reuse cycles (which exercise the
//! non-zero-cell lists that `clear` and the merge walk instead of whole
//! rows), at histogram widths from 1 to 97 groups. And the three ways
//! into `HistSim` — the fused `ingest_block` kernel settled every k
//! blocks, `accumulate` + `merge_ref`, per-tuple `ingest` — must leave
//! byte-identical state through all three stages.

use proptest::prelude::*;

use fastmatch_core::histsim::{HistAccumulator, HistSim, HistSimConfig, PhaseKind};

/// Histogram widths from one group to wider than most Table 3 queries.
fn width(i: usize) -> usize {
    [1, 2, 5, 24, 25, 97][i % 6]
}

/// Expands raw picks into domain-valid tuples.
fn stream_for(nc: usize, ng: usize, picks: &[(u32, u32)]) -> Vec<(u32, u32)> {
    picks
        .iter()
        .map(|&(a, b)| ((a as usize % nc) as u32, (b as usize % ng) as u32))
        .collect()
}

/// Asserts full logical-state equality between two accumulators.
fn assert_identical(batch: &HistAccumulator, per_tuple: &HistAccumulator) {
    assert_eq!(batch.tuples(), per_tuple.tuples());
    assert_eq!(batch.touched(), per_tuple.touched(), "touched order");
    for c in 0..batch.num_candidates() {
        assert_eq!(batch.n(c), per_tuple.n(c), "n[{c}]");
        assert_eq!(
            batch.candidate_counts(c),
            per_tuple.candidate_counts(c),
            "counts[{c}]"
        );
    }
    // The Debug repr dumps the logical state wholesale: a final
    // byte-identity check against representational drift.
    assert_eq!(format!("{batch:?}"), format!("{per_tuple:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One batch, arbitrary domain: batch kernel ≡ per-tuple loop.
    #[test]
    fn batch_equals_per_tuple_single_batch(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 0..200),
        nc in 1usize..40,
        ng in (0usize..6).prop_map(width),
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let zs: Vec<u32> = tuples.iter().map(|t| t.0).collect();
        let xs: Vec<u32> = tuples.iter().map(|t| t.1).collect();
        let mut batch = HistAccumulator::new(nc, ng);
        batch.accumulate(&zs, &xs);
        let mut per_tuple = HistAccumulator::new(nc, ng);
        for &(c, g) in &tuples {
            per_tuple.accumulate_one(c, g);
        }
        assert_identical(&batch, &per_tuple);
    }

    /// Many batches with interleaved clear-and-reuse cycles: after every
    /// batch — and after every clear — the two paths stay bit-identical,
    /// so a clear can never leave a stale cell or touched entry behind
    /// or drop a fresh one.
    #[test]
    fn batch_equals_per_tuple_across_clear_cycles(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 8..160),
        nc in 1usize..24,
        ng in (0usize..6).prop_map(width),
        batch_len in 1usize..16,
        clear_every in 1usize..5,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let mut batch = HistAccumulator::new(nc, ng);
        let mut per_tuple = HistAccumulator::new(nc, ng);
        for (i, chunk) in tuples.chunks(batch_len).enumerate() {
            let zs: Vec<u32> = chunk.iter().map(|t| t.0).collect();
            let xs: Vec<u32> = chunk.iter().map(|t| t.1).collect();
            batch.accumulate(&zs, &xs);
            for &(c, g) in chunk {
                per_tuple.accumulate_one(c, g);
            }
            assert_identical(&batch, &per_tuple);
            if (i + 1) % clear_every == 0 {
                batch.clear();
                per_tuple.clear();
                assert_identical(&batch, &per_tuple);
                prop_assert!(batch.is_empty());
            }
        }
    }

    /// Mixed-path merges: accumulators filled by the batch kernel and by
    /// the per-tuple loop, merged one after the other, leave `HistSim`
    /// byte-identical to one accumulator of all the tuples merged once.
    #[test]
    fn merge_is_path_agnostic(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 4..120),
        nc in 1usize..16,
        ng in (0usize..6).prop_map(width),
        split in 0usize..120,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let split = split.min(tuples.len());
        let (left, right) = tuples.split_at(split);

        // Left via the batch kernel, right per tuple.
        let mut a = HistAccumulator::new(nc, ng);
        a.accumulate(
            &left.iter().map(|t| t.0).collect::<Vec<_>>(),
            &left.iter().map(|t| t.1).collect::<Vec<_>>(),
        );
        let mut b = HistAccumulator::new(nc, ng);
        for &(c, g) in right {
            b.accumulate_one(c, g);
        }
        let mut joint = HistAccumulator::new(nc, ng);
        for &(c, g) in left.iter().chain(right) {
            joint.accumulate_one(c, g);
        }

        let target = vec![1.0; ng];
        let mk = || HistSim::new(HistSimConfig::default(), nc, ng, 1_000_000, &target).unwrap();
        let (mut split_merge, mut one_merge) = (mk(), mk());
        split_merge.merge_ref(&a);
        split_merge.merge_ref(&b);
        one_merge.merge_ref(&joint);
        prop_assert_eq!(format!("{split_merge:?}"), format!("{one_merge:?}"));
    }

    /// A reused accumulator is indistinguishable from a fresh one: after
    /// being filled (two batches, so the first-touch lists hold items
    /// from both) and cleared, it takes a second stream over other cells
    /// to exactly the state a new accumulator reaches, and merges into
    /// `HistSim` identically.
    #[test]
    fn reused_accumulator_equals_fresh(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 4..160),
        nc in 1usize..30,
        ng in (0usize..6).prop_map(width),
        split in 0usize..160,
        shift in 1u32..1000,
    ) {
        let split = split.min(picks.len());
        let cols = |part: &[(u32, u32)]| -> (Vec<u32>, Vec<u32>) {
            stream_for(nc, ng, part).into_iter().unzip()
        };

        let mut reused = HistAccumulator::new(nc, ng);
        let (zs, xs) = cols(&picks[..split]);
        reused.accumulate(&zs, &xs);
        let (zs, xs) = cols(&picks[split..]);
        reused.accumulate(&zs, &xs);
        reused.clear();
        let mut fresh = HistAccumulator::new(nc, ng);
        assert_identical(&reused, &fresh);

        let again: Vec<(u32, u32)> = picks.iter().map(|&(c, g)| (c + shift, g + shift)).collect();
        let (zs, xs) = cols(&again);
        reused.accumulate(&zs, &xs);
        fresh.accumulate(&zs, &xs);
        assert_identical(&reused, &fresh);

        let target = vec![1.0; ng];
        let mk = || HistSim::new(HistSimConfig::default(), nc, ng, 1_000_000, &target).unwrap();
        let (mut a, mut b) = (mk(), mk());
        a.merge_ref(&reused);
        b.merge_ref(&fresh);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused `ingest_block`, settled every `k` blocks ≡ `accumulate` of
    /// the same `k` blocks + one `merge_ref` ≡ per-tuple `ingest`: three
    /// runs fed the same blocks in lockstep stay byte-identical (`Debug`
    /// dumps the whole logical state) at every settlement and every
    /// phase transition, from stage 1 through stage 2's rounds and stage
    /// 3 to the output — for `k` ∈ {1, 3, 16, 64} (64 is the service's
    /// quantum) and a `k` drawn afresh after each settlement. At each
    /// settlement the three also agree on the active set, on the set of
    /// candidates deactivated so far in the phase and on the exact
    /// marks, whatever order each path met them in; at each phase
    /// transition, on every outstanding count. The fused settlement asks
    /// only about candidates that had demand left at the one before; a
    /// settlement after a single block goes through `settle_block` every
    /// other time.
    ///
    /// Phases end where a driver ends them: stage 1 as soon as its
    /// tuples are in (the fused kernel counts them as they come), stages
    /// 2 and 3 at the first settlement that meets their demand, after a
    /// sweep that marks exact whatever has been read out. The stream is
    /// built so that every stage is reached and every branch of the
    /// bookkeeping runs: candidate `nc − 1` is rare and gets pruned by
    /// stage 1 but keeps appearing afterwards (its tuples must count as
    /// read and add nothing else); candidate 1 has only `rows` rows, so
    /// it is read out part-way, with or without demand; candidate 0
    /// matches the uniform target and the rest sit on one group each, so
    /// stage 2 separates them in a few rounds; and settlements overshoot
    /// the outstanding demand, so the outstanding count floors at 0.
    /// Histogram widths are the narrow, medium and wide cases of Table 3
    /// plus 64.
    #[test]
    fn fused_block_equals_merge_equals_per_tuple_through_all_stages(
        seed in 0u64..u64::MAX,
        ng in (0usize..4).prop_map(|i| [2, 24, 64, 351][i]),
        nc in 4usize..10,
        block in 1usize..120,
        every in (0usize..5).prop_map(|i| [1, 3, 16, 64, 0][i]),
        rows in 100u64..3_000,
    ) {
        let config = HistSimConfig {
            k: 1,
            epsilon: 1.0,
            epsilon_reconstruction: Some(1.5),
            delta: 0.05,
            sigma: 0.05,
            stage1_samples: 400,
            ..HistSimConfig::default()
        };
        let target = vec![1.0; ng];
        let mk = || HistSim::new(config.clone(), nc, ng, 10_000_000, &target).unwrap();
        let (mut fused, mut merged, mut single) = (mk(), mk(), mk());
        let mut acc = HistAccumulator::new(nc, ng);

        let rare = (nc - 1) as u32;
        let lcg = |mut state: u64| {
            move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u32
            }
        };
        let mut next = lcg(seed | 1);
        let (mut drawn, mut ones) = (0u32, 0u64);
        let mut tuple = move || {
            drawn += 1;
            if drawn.is_multiple_of(100) {
                return (rare, next() % ng as u32);
            }
            let mut c = next() % rare;
            if c == 1 {
                ones += 1;
                if ones > rows {
                    c = 0;
                }
            }
            (c, if c == 0 { next() % ng as u32 } else { c % ng as u32 })
        };
        // The rows each candidate has: only candidate 1's run out.
        let unread = |c: u32, read: u64| {
            let total = if c == 1 { rows } else { u64::MAX };
            assert!(read <= total, "candidate {c}: {read} rows read of {total}");
            total - read
        };
        let mut cadence = lcg(seed.rotate_left(17) | 1);
        let mut settle_after = move || if every > 0 { every } else { 1 + cadence() as usize % 20 };

        let (mut stages, mut dropped, mut saturated) = (Vec::new(), false, false);
        let (mut blocks, mut unsettled, mut k) = (0, 0, settle_after());
        // Outstanding demand at the last settlement, from the per-tuple
        // run, whose counts are always current (the fused run's are only
        // when a settlement checks the candidate).
        let mut demand: Vec<u64> = single.remaining_slice().to_vec();
        while !fused.is_done() {
            blocks += 1;
            prop_assert!(blocks < 20_000, "run failed to terminate");
            let (zs, xs): (Vec<u32>, Vec<u32>) = (0..block).map(|_| tuple()).unzip();
            if stages.last() != Some(&fused.phase()) {
                stages.push(fused.phase());
            }
            dropped |= fused.is_pruned(rare) && zs.contains(&rare);

            fused.ingest_block(&zs, &xs);
            acc.accumulate(&zs, &xs);
            for (&c, &g) in zs.iter().zip(&xs) {
                single.ingest(c, g);
            }
            unsettled += 1;
            let stage1_met = fused.phase() == PhaseKind::Stage1 && fused.io_satisfied();
            if unsettled < k && !stage1_met {
                continue;
            }

            let stage1 = fused.phase() == PhaseKind::Stage1;
            // Every other single-block settlement goes through
            // `settle_block`, the path of executors that settle before
            // every block.
            let mut asked = Vec::new();
            let ask = |c: u32, read: u64| {
                asked.push(c);
                unread(c, read)
            };
            if unsettled == 1 && blocks % 2 == 0 {
                fused.settle_block(&zs, ask);
            } else {
                fused.settle(ask);
            }
            if !stage1 {
                for &c in &asked {
                    prop_assert!(demand[c as usize] > 0, "settlement asked about idle {c}");
                }
            }
            saturated |= acc
                .touched()
                .iter()
                .any(|&c| (1..acc.n(c as usize)).contains(&demand[c as usize]));
            merged.merge_ref(&acc);
            merged.settle(unread);
            single.settle(unread);
            acc.clear();
            (unsettled, k) = (0, settle_after());

            let want = format!("{single:?}");
            prop_assert_eq!(format!("{fused:?}"), want.clone());
            prop_assert_eq!(format!("{merged:?}"), want);
            let facts = |hs: &HistSim| {
                let mut deactivated = hs.deactivated().to_vec();
                deactivated.sort_unstable();
                let per = |f: &dyn Fn(u32) -> bool| (0..nc as u32).map(f).collect::<Vec<_>>();
                (deactivated, per(&|c| hs.is_active(c)), per(&|c| hs.is_exact(c)))
            };
            let want = facts(&single);
            prop_assert_eq!(facts(&fused), want.clone());
            prop_assert_eq!(facts(&merged), want);
            if fused.io_satisfied() {
                for hs in [&mut fused, &mut merged, &mut single] {
                    hs.sweep(unread);
                    hs.complete_io_phase(false).unwrap();
                }
                let want = format!("{single:?}");
                prop_assert_eq!(format!("{fused:?}"), want.clone());
                prop_assert_eq!(format!("{merged:?}"), want);
                let want = single.remaining_slice();
                prop_assert_eq!(fused.remaining_slice(), want);
                prop_assert_eq!(merged.remaining_slice(), want);
            }
            demand = single.remaining_slice().to_vec();
        }
        prop_assert_eq!(
            stages,
            vec![PhaseKind::Stage1, PhaseKind::Stage2, PhaseKind::Stage3]
        );
        prop_assert!(dropped, "no pruned candidate's tuple was ever offered");
        prop_assert!(saturated || block < 40, "no settlement overshot its demand");
        let want = format!("{:?}", single.output().unwrap());
        prop_assert_eq!(format!("{:?}", fused.output().unwrap()), want.clone());
        prop_assert_eq!(format!("{:?}", merged.output().unwrap()), want);
    }
}
