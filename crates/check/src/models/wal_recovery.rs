//! Model of the live table's WAL → seal → crash → recovery lifecycle
//! ([`fastmatch_store::live::wal`]).
//!
//! Appends log a WAL record *before* the row enters the memtable;
//! records become durable in order when a group fsync runs. A full
//! delta freezes and queues for the sealer, whose success makes the
//! segment durable atomically (`write_table_atomic`) and then rotates
//! the WAL with the *lag-one* base ([`rotation_base`]): the newest
//! sealed run's rows stay in the log so a torn last segment is still
//! recoverable; a seal that does not rotate fsyncs the log instead. A
//! crash may strike at any instant — optionally damaging any one
//! sealed file, not only the newest — after which recovery loads the
//! segment prefix up to the first damaged or missing file
//! ([`durable_prefix_rows`]), decides with [`open_verdict`], and on a
//! Replay verdict replays the WAL's surviving records
//! ([`replay_split`]). Named invariants (DESIGN.md § "Concurrency
//! protocols"):
//!
//! * `recovered-prefix-is-durable-prefix` — recovery yields exactly
//!   the longest contiguous prefix of rows that were durable at the
//!   crash: never a row more (no duplicates, no invention), never a
//!   reachable row less.
//! * `no-replayed-row-lost` — when the WAL connects to the recovered
//!   segment watermark (`base ≤ sealed`), every durably logged row is
//!   replayed; none are skipped past.
//! * `seal-truncation-never-drops-unsealed-rows` — WAL rotation at
//!   seal time never advances the base past the start of the newest
//!   durable run: unsealed rows *and* the run a torn last segment
//!   would lose all stay in the log.
//! * `open-is-lossless-or-refuses-unchanged` — an open either returns
//!   every row that was durable before the crash, a damaged file's
//!   rows included, or refuses and leaves the disk as it was; a crash
//!   that damaged nothing never refuses.
//!
//! The model imports the exact decision functions the real open/seal
//! paths run, so drift between implementation and model is a compile
//! error or a checker violation. Test-only mutations reintroduce the
//! plausible bugs: rotating without the lag, replay that skips its
//! rows, replay that re-appends already-sealed rows, recovery that
//! drops the log when a damaged file at any index ends the prefix
//! (the rule before `open_verdict`), and a seal that neither rotates
//! nor fsyncs the log; the `finds_*` tests assert the explorer catches
//! each one by name.

use std::collections::VecDeque;

use fastmatch_store::live::recover::{open_verdict, Verdict};
use fastmatch_store::live::wal::{durable_prefix_rows, replay_split, rotation_base};

use crate::explorer::{Model, Step, Violation};

/// One installed delta entry: `sealed` means its segment file is
/// durable on disk.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Entry {
    rows: usize,
    sealed: bool,
}

/// One WAL record: `rows` rows starting at global row `start`,
/// `synced` once a group fsync (or a rotation, which fsyncs) covered
/// it. Records are logged and synced in order, so the synced flags
/// always form a prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Rec {
    start: usize,
    rows: usize,
    synced: bool,
}

/// How the crash left the segment directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CrashKind {
    /// Every sealed file intact.
    Clean,
    /// The sealed file of entry `k` is damaged (lost sectors behind a
    /// completed rename, bit rot): recovery fails its checksum there.
    SegmentCorrupt(usize),
}

/// What recovery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Outcome {
    /// Opened with this many rows.
    Replayed(usize),
    /// Refused; the disk is left as the crash left it.
    Refused,
}

/// Full protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Ground-truth rows appended (each also logged to the WAL).
    appended: usize,
    /// Active delta rows.
    mem_rows: usize,
    entries: Vec<Entry>,
    /// Pending seal jobs (entry indexes, FIFO like the real sealer).
    seal_queue: VecDeque<usize>,
    /// First global row the WAL retains.
    wal_base: usize,
    /// The log's records, in order, contiguous from `wal_base`.
    records: Vec<Rec>,
    /// Set once the crash struck (no other actor runs afterwards).
    crashed: Option<CrashKind>,
    /// What the post-crash recovery did.
    recovered: Option<Outcome>,
}

/// Test-only protocol mutations (plausible bugs). The non-`None`
/// variants are only constructed by the `#[cfg(test)]`
/// `with_mutation`, which is what the dead-code allowance covers.
#[cfg_attr(not(test), allow(dead_code))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mutation {
    /// The real protocol.
    None,
    /// Rotate the WAL to the durable watermark itself — no lag-one
    /// retention, so a torn last segment loses its rows.
    NoRotationLag,
    /// Replay drops every row of each record (e.g. skip/take swapped).
    LossyReplay,
    /// Replay re-appends rows already covered by recovered segments.
    DoubleReplay,
    /// The rule before `open_verdict`: any damaged file ends the
    /// prefix as if torn, and a log whose base lies past it is dropped
    /// while the sealed rows are served.
    TornAtAnyIndex,
    /// A seal that does not rotate the log leaves it unsynced.
    NoSyncOnUnrotatedSeal,
}

/// The WAL/recovery model; see the [module docs](self).
#[derive(Debug)]
pub struct WalRecovery {
    /// Rows the appender writes in total.
    appends: usize,
    /// Freeze threshold (rows per delta).
    rows_per_delta: usize,
    mutation: Mutation,
}

impl WalRecovery {
    /// The real protocol.
    pub fn new(appends: usize, rows_per_delta: usize) -> Self {
        WalRecovery {
            appends,
            rows_per_delta,
            mutation: Mutation::None,
        }
    }

    #[cfg(test)]
    fn with_mutation(appends: usize, rows_per_delta: usize, mutation: Mutation) -> Self {
        WalRecovery {
            appends,
            rows_per_delta,
            mutation,
        }
    }

    /// Rows durably logged in the WAL (synced records are a prefix).
    fn synced_rows(s: &State) -> usize {
        s.records.iter().filter(|r| r.synced).map(|r| r.rows).sum()
    }

    /// The ghost truth recovery is judged against: the longest
    /// contiguous row prefix durable at the crash, given the segment
    /// prefix durable *before* any damage (a damaged file's rows were
    /// durable) and the WAL's synced coverage. Computed from the crash
    /// state alone — independently of the replay arithmetic under test.
    fn durable_truth(s: &State) -> usize {
        let sealed = durable_prefix_rows(s.entries.iter().map(|e| (e.rows, e.sealed)));
        if s.wal_base <= sealed {
            sealed.max(s.wal_base + Self::synced_rows(s))
        } else {
            sealed
        }
    }

    /// The disk's entry list as recovery will see it after the crash: a
    /// damaged file fails its checksum, so it reads as unsealed.
    fn disk_entries(s: &State, kind: CrashKind) -> Vec<(usize, bool)> {
        let mut disk: Vec<(usize, bool)> = s.entries.iter().map(|e| (e.rows, e.sealed)).collect();
        if let CrashKind::SegmentCorrupt(k) = kind {
            disk[k].1 = false;
        }
        disk
    }

    /// Recovery's scan: the rows loaded before the first damaged or
    /// missing file, and the segment files at or after it.
    fn scan(s: &State, kind: CrashKind) -> (usize, usize) {
        let disk = Self::disk_entries(s, kind);
        let stop = disk.iter().position(|(_, ok)| !ok).unwrap_or(disk.len());
        let dropped = s.entries[stop..].iter().filter(|e| e.sealed).count();
        (durable_prefix_rows(disk), dropped)
    }
}

/// Actor ids.
const APPENDER: usize = 0;
const SEALER: usize = 1;
const SYNCER: usize = 2;
const CRASHER: usize = 3;
const RECOVERY: usize = 4;

impl Model for WalRecovery {
    type State = State;

    fn name(&self) -> &'static str {
        "wal_recovery"
    }

    fn initial(&self) -> State {
        State {
            appended: 0,
            mem_rows: 0,
            entries: Vec::new(),
            seal_queue: VecDeque::new(),
            wal_base: 0,
            records: Vec::new(),
            crashed: None,
            recovered: None,
        }
    }

    fn enabled(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        if s.crashed.is_some() {
            if s.recovered.is_none() {
                steps.push(Step::new(RECOVERY, 0, "recover: scan segments, replay WAL"));
            }
            return steps;
        }
        if s.appended < self.appends {
            steps.push(Step::new(
                APPENDER,
                0,
                "append row (WAL first, then memtable)",
            ));
        }
        if !s.seal_queue.is_empty() {
            steps.push(Step::new(SEALER, 0, "seal ok: segment durable, rotate WAL"));
            steps.push(Step::new(SEALER, 1, "seal fails: entry stays in memory"));
        }
        if s.records.iter().any(|r| !r.synced) {
            steps.push(Step::new(
                SYNCER,
                0,
                "group fsync: all logged records durable",
            ));
        }
        steps.push(Step::new(CRASHER, 0, "crash (disk intact)"));
        for (k, e) in s.entries.iter().enumerate() {
            if e.sealed {
                steps.push(Step::new(
                    CRASHER,
                    1 + k,
                    format!("crash + sealed file of entry {k} corrupt"),
                ));
            }
        }
        steps
    }

    fn apply(&self, s: &State, step: &Step) -> State {
        let mut n = s.clone();
        match step.actor {
            APPENDER => {
                // One critical section, like append_inner: the WAL
                // record first, then the memtable row; freeze + queue
                // before the lock drops.
                n.records.push(Rec {
                    start: n.appended,
                    rows: 1,
                    synced: false,
                });
                n.mem_rows += 1;
                n.appended += 1;
                if n.mem_rows == self.rows_per_delta {
                    n.entries.push(Entry {
                        rows: n.mem_rows,
                        sealed: false,
                    });
                    n.seal_queue.push_back(n.entries.len() - 1);
                    n.mem_rows = 0;
                }
            }
            SEALER => {
                let job = n
                    .seal_queue
                    .pop_front()
                    .expect("seal enabled on empty queue");
                if step.id == 0 {
                    // write_table_atomic: the file is durable the
                    // instant the entry reads sealed.
                    n.entries[job].sealed = true;
                    // WAL rotation inside the same critical section,
                    // with the decision the real seal_run makes.
                    let durable = durable_prefix_rows(n.entries.iter().map(|e| (e.rows, e.sealed)));
                    let just = n.entries[job].rows;
                    let new_base = match self.mutation {
                        Mutation::NoRotationLag => (n.wal_base as u64).max(durable as u64),
                        _ => rotation_base(n.wal_base as u64, durable as u64, just as u64),
                    } as usize;
                    let rotates = new_base > n.wal_base
                        && durable == n.entries[..=job].iter().map(|e| e.rows).sum::<usize>();
                    if rotates {
                        // rotate_to: one rewritten, fully fsynced log
                        // covering every retained row (rebuilt from the
                        // sealed run + later memory — skipped when a
                        // seal-failure hole means those rows are only
                        // on disk, which the durable==prefix guard
                        // encodes).
                        n.wal_base = new_base;
                        n.records = vec![Rec {
                            start: new_base,
                            rows: n.appended - new_base,
                            synced: true,
                        }];
                    } else if self.mutation != Mutation::NoSyncOnUnrotatedSeal {
                        // sync_after_seal(): no rotation, so the log is fsynced
                        // in place through the sealed run.
                        for r in &mut n.records {
                            r.synced = true;
                        }
                    }
                }
                // Failure: the entry stays in memory, the WAL keeps
                // covering it — nothing else changes.
            }
            SYNCER => {
                for r in &mut n.records {
                    r.synced = true;
                }
            }
            CRASHER => {
                let kind = match step.id {
                    0 => CrashKind::Clean,
                    k => CrashKind::SegmentCorrupt(k - 1),
                };
                // Power loss: unsynced records never reached the
                // platter (a partial record fails its checksum and is
                // dropped whole — same outcome).
                n.records.retain(|r| r.synced);
                n.crashed = Some(kind);
            }
            RECOVERY => {
                let kind = s.crashed.expect("recovery enabled only after a crash");
                let (sealed, dropped) = Self::scan(s, kind);
                let verdict = match self.mutation {
                    Mutation::TornAtAnyIndex => Verdict::Replay,
                    _ => open_verdict(sealed as u64, dropped, Some(n.wal_base as u64)),
                };
                if verdict == Verdict::Refuse {
                    n.recovered = Some(Outcome::Refused);
                    return n;
                }
                let mut recovered = sealed;
                // replay(): records are contiguous from the base. Only
                // the old rule gets here with a base past the sealed
                // rows; it dropped the log and served the segments.
                if n.wal_base <= sealed {
                    let mut cursor = n.wal_base;
                    for rec in &n.records {
                        debug_assert_eq!(rec.start, cursor, "records are contiguous");
                        let (skip, take) = match self.mutation {
                            Mutation::LossyReplay => (rec.rows as u64, 0),
                            Mutation::DoubleReplay => (0, rec.rows as u64),
                            _ => replay_split(cursor as u64, rec.rows as u64, sealed as u64),
                        };
                        debug_assert!(
                            skip + take == rec.rows as u64 || self.mutation != Mutation::None
                        );
                        recovered += take as usize;
                        cursor += rec.rows;
                    }
                }
                n.recovered = Some(Outcome::Replayed(recovered));
            }
            other => unreachable!("unknown actor {other}"),
        }
        n
    }

    fn check(&self, s: &State) -> Result<(), Violation> {
        // seal-truncation-never-drops-unsealed-rows: at every instant
        // the WAL base sits at or before the start of the newest
        // durable run, so rows the durable prefix does not *redundantly*
        // cover — unsealed rows plus the one run a torn file would
        // lose — are all retained.
        let durable = durable_prefix_rows(s.entries.iter().map(|e| (e.rows, e.sealed)));
        let newest_run = s
            .entries
            .iter()
            .scan(true, |ok, e| {
                *ok &= e.sealed;
                ok.then_some(e.rows)
            })
            .last()
            .unwrap_or(0);
        if s.wal_base + newest_run > durable {
            return Err(Violation::new(
                "seal-truncation-never-drops-unsealed-rows",
                format!(
                    "WAL base {} past the newest durable run (durable {durable}, run {newest_run})",
                    s.wal_base
                ),
            ));
        }
        let Some(outcome) = s.recovered else {
            return Ok(());
        };
        let kind = s.crashed.expect("recovered implies crashed");
        let truth = Self::durable_truth(s);
        let recovered = match outcome {
            Outcome::Replayed(rows) => rows,
            // open-is-lossless-or-refuses-unchanged, refusal half: the
            // model's recovery changes nothing when it refuses, so what
            // is left to check is that a crash artifact is not refused.
            Outcome::Refused if kind == CrashKind::Clean => {
                return Err(Violation::new(
                    "open-is-lossless-or-refuses-unchanged",
                    "refused a directory the crash did not damage".to_string(),
                ));
            }
            Outcome::Refused => return Ok(()),
        };
        let (sealed, _) = Self::scan(s, kind);
        let synced = Self::synced_rows(s);
        // no-replayed-row-lost: when the log connects to the recovered
        // watermark, every durably logged row must be in the table.
        if s.wal_base <= sealed && recovered < s.wal_base + synced {
            return Err(Violation::new(
                "no-replayed-row-lost",
                format!(
                    "recovered {recovered} rows but the WAL durably held rows up to {}",
                    s.wal_base + synced
                ),
            ));
        }
        // open-is-lossless-or-refuses-unchanged: an open that succeeds
        // returns every durable row, a damaged file's included.
        if recovered < truth {
            return Err(Violation::new(
                "open-is-lossless-or-refuses-unchanged",
                format!("opened with {recovered} rows, {truth} were durable"),
            ));
        }
        // recovered-prefix-is-durable-prefix: exactly the ghost truth —
        // no invention or duplication either.
        if recovered != truth {
            return Err(Violation::new(
                "recovered-prefix-is-durable-prefix",
                format!("recovered {recovered} rows, durable prefix was {truth}"),
            ));
        }
        Ok(())
    }

    fn check_quiescent(&self, s: &State) -> Result<(), Violation> {
        // Quiescence without a crash means the run simply completed;
        // with one, recovery must have run (it is always enabled after
        // a crash, so anything else is an explorer bug).
        if s.crashed.is_some() && s.recovered.is_none() {
            return Err(Violation::new(
                "recovered-prefix-is-durable-prefix",
                "crashed but recovery never ran".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;

    #[test]
    fn current_lifecycle_is_clean() {
        // 5 appends at 2 rows/delta: two freezes, seal success and
        // failure, group fsyncs racing seals, clean crashes and crashes
        // that damage any one sealed file, at every reachable instant.
        let stats = Explorer::new(WalRecovery::new(5, 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn finds_missing_rotation_lag() {
        let failure = Explorer::new(WalRecovery::with_mutation(5, 2, Mutation::NoRotationLag))
            .explore()
            .expect_err("rotating without the lag must break retention");
        assert_eq!(
            failure.violation.invariant,
            "seal-truncation-never-drops-unsealed-rows"
        );
    }

    #[test]
    fn finds_lossy_replay() {
        let failure = Explorer::new(WalRecovery::with_mutation(5, 2, Mutation::LossyReplay))
            .explore()
            .expect_err("dropping replayed rows must lose durable data");
        assert_eq!(failure.violation.invariant, "no-replayed-row-lost");
    }

    #[test]
    fn finds_double_replay() {
        let failure = Explorer::new(WalRecovery::with_mutation(5, 2, Mutation::DoubleReplay))
            .explore()
            .expect_err("re-appending sealed rows must duplicate data");
        assert_eq!(
            failure.violation.invariant,
            "recovered-prefix-is-durable-prefix"
        );
    }

    #[test]
    fn finds_torn_at_any_index() {
        let failure = Explorer::new(WalRecovery::with_mutation(5, 2, Mutation::TornAtAnyIndex))
            .explore()
            .expect_err("dropping the log behind a damaged first file must lose rows");
        assert_eq!(
            failure.violation.invariant,
            "open-is-lossless-or-refuses-unchanged"
        );
    }

    #[test]
    fn finds_unsynced_log_behind_unrotated_seal() {
        let failure = Explorer::new(WalRecovery::with_mutation(
            5,
            2,
            Mutation::NoSyncOnUnrotatedSeal,
        ))
        .explore()
        .expect_err("a damaged first file with an unsynced log must lose rows");
        assert_eq!(
            failure.violation.invariant,
            "open-is-lossless-or-refuses-unchanged"
        );
    }

    #[test]
    fn walk_mode_agrees_with_exhaustion() {
        let stats = Explorer::new(WalRecovery::new(5, 2))
            .walk(0x11fe_c7c1e, 500)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 500);
        let failure = Explorer::new(WalRecovery::with_mutation(5, 2, Mutation::NoRotationLag))
            .walk(0x11fe_c7c1e, 500)
            .expect_err("soak mode must also find the retention bug");
        assert_eq!(
            failure.violation.invariant,
            "seal-truncation-never-drops-unsealed-rows"
        );
    }
}
