//! Property tests for the shard-accumulator ingestion path: splitting any
//! block stream across k shard accumulators and merging must be
//! indistinguishable — byte for byte — from sequential `ingest_block`.

use proptest::prelude::*;

use fastmatch_core::histsim::{HistAccumulator, HistSim, HistSimConfig, PhaseKind};

/// Expands seeds into a concrete tuple stream for a given domain.
fn stream_for(nc: usize, ng: usize, picks: &[(u32, u32)]) -> Vec<(u32, u32)> {
    picks
        .iter()
        .map(|&(a, b)| ((a as usize % nc) as u32, (b as usize % ng) as u32))
        .collect()
}

/// Splits `tuples` into blocks of `block` tuples and returns the column
/// slices of block `i`.
fn blocks_of(tuples: &[(u32, u32)], block: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    tuples
        .chunks(block.max(1))
        .map(|chunk| {
            (
                chunk.iter().map(|t| t.0).collect(),
                chunk.iter().map(|t| t.1).collect(),
            )
        })
        .collect()
}

/// Deterministic config exercising all three stages on small streams.
fn cfg(k: usize, stage1: u64) -> HistSimConfig {
    HistSimConfig {
        k,
        epsilon: 0.2,
        delta: 0.05,
        sigma: 0.0,
        stage1_samples: stage1,
        ..HistSimConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Within one I/O phase: any k-way shard split of a block stream,
    /// merged in any shard order, leaves HistSim byte-identical (Debug
    /// repr dumps every field) to sequential ingest_block.
    #[test]
    fn sharded_merge_is_byte_identical_within_phase(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 8..160),
        nc in 2usize..12,
        ng in 2usize..6,
        block in 1usize..16,
        k_shards in 1usize..6,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let blocks = blocks_of(&tuples, block);
        let make = || HistSim::new(cfg(1, 1_000_000), nc, ng, 1_000_000, &vec![1.0 / ng as f64; ng]).unwrap();

        // Sequential reference: one ingest_block per block.
        let mut seq = make();
        for (zs, xs) in &blocks {
            seq.ingest_block(zs, xs);
        }
        seq.settle(|_, _| u64::MAX);

        // Sharded: round-robin blocks over k accumulators, merge them in
        // reversed shard order (order must not matter).
        let mut shards: Vec<HistAccumulator> =
            (0..k_shards).map(|_| HistAccumulator::new(nc, ng)).collect();
        for (i, (zs, xs)) in blocks.iter().enumerate() {
            shards[i % k_shards].accumulate(zs, xs);
        }
        let mut par = make();
        for acc in shards.into_iter().rev() {
            par.merge(acc);
        }

        prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    /// Across phase boundaries and to completion: driving two runs with
    /// the same per-phase sample schedule — one per-block sequential, one
    /// shard-merged — produces byte-identical state at every phase
    /// transition and identical output.
    #[test]
    fn full_run_equivalence_across_phases(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 60..240),
        nc in 2usize..8,
        ng in 2usize..5,
        k_shards in 1usize..5,
        stage1 in 8u64..40,
    ) {
        let tuples = stream_for(nc, ng, &picks);
        let n = tuples.len() as u64;
        let target = vec![1.0 / ng as f64; ng];
        let make = || HistSim::new(cfg(1, stage1), nc, ng, n, &target).unwrap();
        let mut seq = make();
        let mut par = make();

        // Feed both runs the same stream in lockstep, phase by phase:
        // sequential ingests per block of 7, parallel accumulates the
        // same blocks round-robin into k shards and merges at each
        // demand-satisfaction point.
        let blocks = blocks_of(&tuples, 7);
        let mut next_block = 0usize;
        while !seq.is_done() && next_block < blocks.len() {
            // One I/O phase: deliver blocks until demand is satisfied or
            // the stream runs dry.
            let mut shards: Vec<HistAccumulator> =
                (0..k_shards).map(|_| HistAccumulator::new(nc, ng)).collect();
            let mut i = 0usize;
            while !seq.io_satisfied() && next_block < blocks.len() {
                let (zs, xs) = &blocks[next_block];
                next_block += 1;
                seq.ingest_block(zs, xs);
                seq.settle(|_, _| u64::MAX);
                shards[i % k_shards].accumulate(zs, xs);
                i += 1;
            }
            for acc in shards {
                par.merge(acc);
            }
            prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
            let exhausted = next_block >= blocks.len() && !seq.io_satisfied();
            seq.complete_io_phase(exhausted).unwrap();
            par.complete_io_phase(exhausted).unwrap();
            prop_assert_eq!(format!("{seq:?}"), format!("{par:?}"));
        }
        if seq.phase() == PhaseKind::Done {
            let a = seq.output().unwrap();
            let b = par.output().unwrap();
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// Merge-after-transition: a stale accumulator — filled by a shard
    /// worker under the *previous* phase's demand but merged only after
    /// the phase transition — must never resurrect a pruned candidate
    /// (neither its counts nor its demand) and must never *increase* any
    /// candidate's outstanding demand.
    #[test]
    fn stale_batch_after_transition_cannot_resurrect_pruned_candidates(
        picks in prop::collection::vec((0u32..1000, 0u32..1000), 10..80),
        nc in 3usize..10,
        ng in 2usize..5,
        rare_hits in 0u32..2,
    ) {
        // Stage-1 stream: candidate `rare` (= nc - 1) appears at most
        // once in 400 tuples while every other candidate appears often
        // (≥ 400/9 ≈ 44 times); under the null Nᵢ ≥ ⌈σN⌉ (expected count
        // σ·400 = 20) the hypergeometric test prunes exactly the rare
        // one.
        let rare = (nc - 1) as u32;
        let stage1: Vec<(u32, u32)> = (0..400u32)
            .map(|i| {
                if i == 0 && rare_hits > 0 {
                    (rare, 0)
                } else {
                    (i % (nc as u32 - 1), i % ng as u32)
                }
            })
            .collect();
        let config = HistSimConfig {
            k: 1,
            epsilon: 0.2,
            delta: 0.05,
            sigma: 0.05,
            stage1_samples: 400,
            ..HistSimConfig::default()
        };
        let mut hs = HistSim::new(config, nc, ng, 1_000_000, &vec![1.0 / ng as f64; ng]).unwrap();

        // A shard worker accumulates a batch during stage 1…
        let stale = {
            let mut acc = HistAccumulator::new(nc, ng);
            for &(a, b) in &picks {
                acc.accumulate_one(a % nc as u32, b % ng as u32);
            }
            // …always containing tuples of the soon-to-be-pruned rare
            // candidate.
            acc.accumulate_one(rare, 0);
            acc
        };

        // Meanwhile the statistics engine completes stage 1 from other
        // shards' data and transitions.
        let (zs, xs): (Vec<u32>, Vec<u32>) = stage1.into_iter().unzip();
        hs.ingest_block(&zs, &xs);
        hs.settle(|_, _| u64::MAX);
        hs.complete_io_phase(false).unwrap();
        prop_assume!(!hs.is_done());
        prop_assert!(hs.is_pruned(rare), "rare candidate must be pruned by stage 1");

        let samples_before = hs.samples();
        let kept = stale.tuples() - stale.n(rare as usize);
        let remaining_before: Vec<u64> = hs.remaining_slice().to_vec();

        // The stale batch lands after the transition.
        hs.merge(stale);

        // The pruned candidate stays dead: no samples, no demand.
        prop_assert_eq!(hs.samples(), samples_before + kept,
            "stale merge resurrected a pruned candidate's counts");
        prop_assert!(hs.is_pruned(rare));
        prop_assert_eq!(hs.remaining_slice()[rare as usize], 0u64);
        // Demand decrements saturate: no candidate's outstanding count
        // may grow from a merge, stale or not.
        for (c, (&after, &before)) in hs
            .remaining_slice()
            .iter()
            .zip(&remaining_before)
            .enumerate()
        {
            prop_assert!(after <= before,
                "candidate {c}: stale merge raised demand {before} -> {after}");
        }

        // The run still terminates cleanly after the stale merge, and the
        // pruned candidate never reappears in the output.
        let mut guard = 0;
        while !hs.is_done() {
            if hs.io_satisfied() {
                hs.complete_io_phase(false).unwrap();
            } else {
                let need: Vec<u32> = hs
                    .remaining_slice()
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r > 0)
                    .map(|(c, _)| c as u32)
                    .collect();
                let mut acc = HistAccumulator::new(nc, ng);
                for &c in &need {
                    for g in 0..ng as u32 {
                        for _ in 0..((hs.remaining_slice()[c as usize] / ng as u64) + 1) {
                            acc.accumulate_one(c, g);
                        }
                    }
                }
                hs.merge(acc);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "run failed to terminate");
        }
        let out = hs.output().unwrap();
        prop_assert!(
            !out.candidate_ids().contains(&rare),
            "pruned candidate resurfaced in the matched set"
        );
    }
}
