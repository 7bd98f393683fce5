//! Adaptive early stopping for the security campaigns.
//!
//! The exhaustive Table 4 campaign spends 500 trials per placement on
//! every cell, but most cells are statistically settled long before that:
//! a vulnerable cell shows `p1* ≈ 1, p2* ≈ 0` within a shard or two, and
//! a strongly defended cell pins `p1* ≈ p2*` well before the full budget.
//! This module adds a *sequential two-proportion test* that stops a
//! cell's trials as soon as its defended/vulnerable verdict is confident,
//! while keeping the campaign's two contracts intact:
//!
//! - **Agreement** — the test is conservative: it only stops early when a
//!   Hoeffding-bound confidence rectangle on `(p1*, p2*)` places the
//!   channel capacity entirely on one side of the defended threshold.
//!   Borderline cells run to the full budget, so the adaptive verdict for
//!   every cell equals the exhaustive run's verdict (pinned by
//!   `tests/adaptive_agreement.rs` on the golden Table 2 enumeration).
//! - **Determinism** — trials are only ever *truncated to a prefix* of
//!   the exhaustive trial sequence, scheduled in rounds of one
//!   [`TRIALS_PER_SHARD`]-sized shard per undecided cell. A cell's
//!   stopping point is a pure function of its own prefix measurements,
//!   never of worker scheduling, so any worker count (and any
//!   checkpoint/resume interleaving) produces identical measurements,
//!   identical verdicts, and identical trials-saved accounting.
//!
//! The round scheduler drives the fault-tolerant engine
//! ([`crate::resilience`]) for each round, so panic isolation,
//! quarantine, stall watchdogs, fault injection, and the resource budget
//! ([`crate::supervisor`]) all compose with early stopping. Checkpoints
//! are cell-granular ([`AdaptiveCellState`]) rather than shard-granular:
//! the file records each cell's merged prefix and whether it has been
//! decided.

use std::num::NonZeroUsize;
use std::time::Instant;

use sectlb_model::Vulnerability;
use sectlb_sim::machine::{MachineBuilder, TlbDesign};

use crate::capacity::binary_channel_capacity;
use crate::checkpoint::{Checkpoint, Record};
use crate::report::DEFENDED_THRESHOLD;
use crate::resilience::{
    cells_fingerprint, distribute_trial_counts, run_sharded_resilient, CampaignError, CellGap,
    CellOutcome, PoolStats, RunPolicy, Shard, ShardOutcome, StallEvent, TRIALS_PER_SHARD,
};
use crate::run::{run_trial_range, Measurement, TrialCell, TrialSettings};
use crate::supervisor::{BudgetPolicy, StopReason, Supervisor};
use crate::telemetry::{duration_ns, stop_reason_str, Event, Telemetry};

/// The `--adaptive[=ALPHA]` configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Confidence parameter of the sequential test: the per-decision
    /// error budget of the Hoeffding rectangle. Smaller is more
    /// conservative (later stops, stronger agreement margin).
    pub alpha: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> AdaptivePolicy {
        AdaptivePolicy { alpha: 0.01 }
    }
}

/// The Hoeffding radius: with probability at least `1 - alpha`, both
/// `p1` and `p2` lie within `eps` of their empirical estimates after
/// `trials` trials per placement (two-sided bound on each of the two
/// proportions, union-bounded — hence the 4).
pub fn hoeffding_radius(trials: u32, alpha: f64) -> f64 {
    if trials == 0 {
        return 1.0;
    }
    ((4.0 / alpha).ln() / (2.0 * f64::from(trials))).sqrt()
}

/// Confidence bounds on the channel capacity after `m.trials` trials.
///
/// The capacity `C(p1, p2)` is zero on the `p1 == p2` diagonal and
/// monotone moving away from it in either coordinate, so over the
/// confidence rectangle its maximum is attained at a corner, and its
/// minimum is zero iff the rectangle touches the diagonal (a corner
/// otherwise). Returns `(lo, hi)`.
pub fn capacity_bounds(m: &Measurement, alpha: f64) -> (f64, f64) {
    if m.trials == 0 {
        return (0.0, 1.0);
    }
    let eps = hoeffding_radius(m.trials, alpha);
    let (lo1, hi1) = ((m.p1() - eps).max(0.0), (m.p1() + eps).min(1.0));
    let (lo2, hi2) = ((m.p2() - eps).max(0.0), (m.p2() + eps).min(1.0));
    let corners = [(lo1, lo2), (lo1, hi2), (hi1, lo2), (hi1, hi2)];
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for (a, b) in corners {
        let c = binary_channel_capacity(a, b);
        lo = lo.min(c);
        hi = hi.max(c);
    }
    if lo1 <= hi2 && lo2 <= hi1 {
        lo = 0.0;
    }
    (lo, hi)
}

/// The sequential two-proportion test: decides a cell's verdict as soon
/// as the capacity's confidence interval clears the defended threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialTest {
    /// Error budget of the confidence rectangle.
    pub alpha: f64,
    /// The defended-capacity threshold the verdict is measured against
    /// (Table 4 uses [`DEFENDED_THRESHOLD`]).
    pub threshold: f64,
}

impl SequentialTest {
    /// The Table 4 test at confidence `alpha`.
    pub fn table4(alpha: f64) -> SequentialTest {
        SequentialTest {
            alpha,
            threshold: DEFENDED_THRESHOLD,
        }
    }

    /// `Some(true)` once the cell is confidently defended, `Some(false)`
    /// once confidently vulnerable, `None` while undecided.
    pub fn decide(&self, m: &Measurement) -> Option<bool> {
        if m.trials == 0 {
            return None;
        }
        let (lo, hi) = capacity_bounds(m, self.alpha);
        if hi <= self.threshold {
            Some(true)
        } else if lo > self.threshold {
            Some(false)
        } else {
            None
        }
    }
}

/// One cell's adaptive progress — the [`Record`] the cell-granular
/// checkpoint stores: the merged prefix measurement plus whether the
/// sequential test already settled the cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveCellState {
    /// Merged measurement of the cell's completed prefix.
    pub m: Measurement,
    /// Whether the cell is settled (early stop or full budget).
    pub decided: bool,
}

impl Record for AdaptiveCellState {
    fn encode(&self) -> String {
        format!("{} {}", self.m.encode(), u8::from(self.decided))
    }

    fn decode(line: &str) -> Option<AdaptiveCellState> {
        let (m, decided) = line.rsplit_once(' ')?;
        let decided = match decided {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some(AdaptiveCellState {
            m: Measurement::decode(m)?,
            decided,
        })
    }
}

/// The outcome of an adaptive campaign.
#[derive(Debug)]
pub struct AdaptiveOutcome {
    /// One outcome per cell, in input order. A decided cell is
    /// [`CellOutcome::Measured`] with its (possibly truncated-prefix)
    /// measurement; budget stops and quarantines are explicit, exactly
    /// as on the exhaustive engine.
    pub cells: Vec<CellOutcome>,
    /// Pool counters aggregated over every round, including
    /// [`PoolStats::trials_saved`].
    pub stats: PoolStats,
    /// Cells restored from a resume checkpoint (decided or in progress).
    pub resumed: usize,
    /// Watchdog reports from every round. `task` is remapped to the
    /// *cell* index (rounds renumber their shard lists).
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the campaign early, if it did.
    pub stop: Option<StopReason>,
    /// The exhaustive per-cell trial budget the campaign was truncating
    /// (`settings.trials`) — the baseline for trials-saved accounting.
    pub full_trials: u32,
}

impl AdaptiveOutcome {
    /// Per-placement trials the early stops avoided, per cell.
    pub fn saved_per_cell(&self) -> Vec<u32> {
        self.cells
            .iter()
            .map(|c| match c {
                CellOutcome::Measured(m) => self.full_trials.saturating_sub(m.trials),
                _ => 0,
            })
            .collect()
    }
}

/// The adaptive campaign's checkpoint fingerprint: the exhaustive
/// campaign's fingerprint chained with the test parameters, so an
/// adaptive checkpoint can never be resumed by (or resume) an exhaustive
/// run or a different-alpha run.
fn adaptive_fingerprint(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
    test: &SequentialTest,
) -> u64 {
    crate::checkpoint::fingerprint(
        cells_fingerprint(cells, settings),
        [0xada9_717e, test.alpha.to_bits(), test.threshold.to_bits()],
    )
}

/// [`crate::resilience::measure_cells_resilient`] with sequential early
/// stopping: identical trial prefixes, identical verdicts, fewer trials.
///
/// Rounds of one shard per undecided cell run through the engine; after
/// each round the sequential test retires every settled cell.
/// `policy.checkpoint`/`policy.resume` operate on the cell-granular
/// adaptive format; `policy.stop_after` is not meaningful here (rounds
/// renumber shards) and is ignored — reject it at the CLI.
///
/// `telemetry` receives the campaign start/stop envelope, a resume
/// restore, per-round shard-lifecycle events from the engine, an
/// [`Event::AdaptiveStop`] per settled cell, and checkpoint flushes. The
/// round runs themselves emit no nested campaign envelopes — they are
/// internal engine invocations.
pub fn measure_cells_adaptive(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
    adaptive: &AdaptivePolicy,
    telemetry: &Telemetry,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Result<AdaptiveOutcome, CampaignError> {
    let full = settings.trials;
    let test = SequentialTest::table4(adaptive.alpha);
    let fingerprint = adaptive_fingerprint(cells, settings, &test);
    if telemetry.is_armed() {
        telemetry.emit(Event::CampaignStart {
            driver: telemetry.driver().to_owned(),
            fingerprint,
            tasks: cells.len() as u64,
            workers: workers.get() as u64,
        });
    }
    let prepared: Vec<TrialCell> = cells
        .iter()
        .map(|(v, d)| TrialCell::new(v, *d, settings.config))
        .collect();

    let mut states: Vec<AdaptiveCellState> = vec![
        AdaptiveCellState {
            m: Measurement::ZERO,
            decided: false,
        };
        cells.len()
    ];
    // Terminal gaps (quarantine / timeout) are never checkpointed: a
    // resume retries those cells from their recorded prefix.
    let mut quarantined: Vec<Option<crate::resilience::ShardFailure>> = vec![None; cells.len()];
    let mut timed_out = vec![false; cells.len()];

    let mut resumed = 0usize;
    let mut prior = std::time::Duration::ZERO;
    if let Some(path) = &policy.resume {
        if path.exists() {
            let loaded = Checkpoint::load(path)?;
            loaded.validate(fingerprint, cells.len())?;
            prior = loaded.consumed;
            for (i, state) in loaded.decoded::<AdaptiveCellState>()? {
                states[i] = state;
                resumed += 1;
            }
            if telemetry.is_armed() {
                telemetry.emit(Event::Resume {
                    restored: resumed as u64,
                    consumed_ns: duration_ns(prior),
                });
            }
        }
    }

    // Wall-clock already consumed by the resume chain counts against the
    // whole-campaign deadline, exactly as on the exhaustive engine.
    let outer = Supervisor::with_consumed(policy.budget, prior);
    let mut stop: Option<StopReason> = None;
    let mut stats = PoolStats::default();
    let mut stalls: Vec<StallEvent> = Vec::new();
    let started = Instant::now();

    // Settles every cell whose current prefix decides it (also covers
    // resumed cells and the trials == full case), emitting exactly one
    // adaptive-stop event per newly settled cell.
    let settle = |states: &mut [AdaptiveCellState]| {
        for (i, state) in states.iter_mut().enumerate() {
            if !state.decided && (state.m.trials >= full || test.decide(&state.m).is_some()) {
                state.decided = true;
                if telemetry.is_armed() {
                    let (v, d) = &cells[i];
                    telemetry.emit(Event::AdaptiveStop {
                        cell: format!("{v} on {d} TLB"),
                        trials: u64::from(state.m.trials),
                        saved: u64::from(full.saturating_sub(state.m.trials)),
                    });
                }
            }
        }
    };

    loop {
        settle(&mut states);
        let live: Vec<usize> = (0..cells.len())
            .filter(|&i| !states[i].decided && quarantined[i].is_none() && !timed_out[i])
            .collect();
        if live.is_empty() {
            break;
        }
        if let Some(reason) = outer.should_stop() {
            stop = Some(reason);
            break;
        }
        // The whole-campaign deadline shrinks each round; the engine's
        // own supervisor then enforces the remainder at shard claims.
        let round_budget = BudgetPolicy {
            deadline: policy
                .budget
                .deadline
                .map(|d| d.saturating_sub(outer.elapsed())),
            cell_deadline: policy.budget.cell_deadline,
        };
        let round_policy = RunPolicy {
            checkpoint: None,
            resume: None,
            stop_after: None,
            budget: round_budget,
            ..policy.clone()
        };
        let tasks: Vec<Shard> = live
            .iter()
            .map(|&i| Shard {
                cell: i,
                lo: states[i].m.trials,
                hi: (states[i].m.trials + TRIALS_PER_SHARD).min(full),
            })
            .collect();
        let run = run_sharded_resilient(
            &tasks,
            workers,
            &round_policy,
            fingerprint,
            &|shard| {
                let (v, d) = &cells[shard.cell];
                format!(
                    "{v} on {d} TLB, trials {}..{} (adaptive)",
                    shard.lo, shard.hi
                )
            },
            telemetry,
            |shard| {
                run_trial_range(
                    &prepared[shard.cell],
                    settings,
                    shard.lo..shard.hi,
                    customize,
                )
            },
        )?;

        for (shard, outcome) in tasks.iter().zip(&run.results) {
            match outcome {
                ShardOutcome::Done(partial) => {
                    states[shard.cell].m = states[shard.cell].m.merge(*partial);
                }
                ShardOutcome::Quarantined(failure) => {
                    quarantined[shard.cell] = Some(failure.clone());
                }
                ShardOutcome::TimedOut(_) => timed_out[shard.cell] = true,
                ShardOutcome::Skipped(_) => {}
            }
        }
        let mut round_stats = run.stats.clone();
        let executed: Vec<Shard> = tasks
            .iter()
            .zip(&run.results)
            .filter(|(_, r)| r.is_done())
            .map(|(s, _)| *s)
            .collect();
        distribute_trial_counts(&mut round_stats, &executed);
        merge_round_stats(&mut stats, &round_stats);
        stalls.extend(run.stalls.iter().map(|s| StallEvent {
            worker: s.worker,
            task: tasks.get(s.task).map_or(s.task, |shard| shard.cell),
            waited: s.waited,
        }));
        if let Some(cp) = &policy.checkpoint {
            let mut ck = Checkpoint::new(fingerprint, cells.len());
            // Settle decisions before persisting so a resumed process
            // sees the same decided set this one would compute.
            settle(&mut states);
            for (i, state) in states.iter().enumerate() {
                if state.m.trials > 0 || state.decided {
                    ck.record(i, state);
                }
            }
            ck.consumed = outer.elapsed();
            ck.save(&cp.path)?;
            if telemetry.is_armed() {
                telemetry.emit(Event::CheckpointFlush {
                    path: cp.path.display().to_string(),
                    done: ck.done.len() as u64,
                    tasks: cells.len() as u64,
                });
            }
        }
        if let Some(reason) = run.stop {
            stop = Some(reason);
            break;
        }
    }
    stats.wall = started.elapsed();

    let outcomes: Vec<CellOutcome> = states
        .iter()
        .enumerate()
        .map(|(i, state)| {
            if let Some(failure) = quarantined[i].clone() {
                CellOutcome::Quarantined {
                    partial: state.m,
                    failure,
                }
            } else if timed_out[i] {
                CellOutcome::Partial {
                    partial: state.m,
                    gap: CellGap::Timeout,
                }
            } else if state.decided {
                CellOutcome::Measured(state.m)
            } else {
                CellOutcome::Partial {
                    partial: state.m,
                    gap: CellGap::Stopped(stop.unwrap_or(StopReason::Interrupted)),
                }
            }
        })
        .collect();
    stats.trials_saved = outcomes
        .iter()
        .map(|c| match c {
            CellOutcome::Measured(m) => u64::from(full.saturating_sub(m.trials)),
            _ => 0,
        })
        .sum();

    if telemetry.is_armed() {
        telemetry.emit(Event::CampaignStop {
            reason: stop.map_or("complete", stop_reason_str).to_owned(),
            completed: states.iter().filter(|s| s.decided).count() as u64,
            total: cells.len() as u64,
            wall_ns: duration_ns(stats.wall),
        });
        telemetry.flush();
    }

    Ok(AdaptiveOutcome {
        cells: outcomes,
        stats,
        resumed,
        stalls,
        stop,
        full_trials: full,
    })
}

/// Folds one round's pool counters into the campaign totals. Worker
/// vectors are merged index-wise (round `k`'s worker `w` is the same
/// logical slot as round `k+1`'s worker `w`); wall time accumulates when
/// the rounds run back to back.
fn merge_round_stats(total: &mut PoolStats, round: &PoolStats) {
    for (w, stats) in round.workers.iter().enumerate() {
        if w >= total.workers.len() {
            total.workers.push(*stats);
        } else {
            let slot = &mut total.workers[w];
            slot.shards += stats.shards;
            slot.trials += stats.trials;
            slot.simulated += stats.simulated;
            slot.busy += stats.busy;
            slot.retried += stats.retried;
            slot.stolen += stats.stolen;
        }
    }
    total.quarantined += round.quarantined;
    total.stalled += round.stalled;
    total.skipped += round.skipped;
    total.preempted += round.preempted;
}

/// Serial adaptive measurement of one cell — the early-stopping analogue
/// of [`crate::run::run_vulnerability`], used by the lighter drivers
/// (mitigation matrices, RF ablations) whose engine tasks are whole
/// rows or cells. The shard-prefix schedule matches the campaign engine's, so
/// the stopping point (and measurement) is identical to
/// [`measure_cells_adaptive`] on the same cell.
pub fn run_vulnerability_adaptive(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
    test: &SequentialTest,
) -> Measurement {
    run_vulnerability_adaptive_with_builder(vulnerability, design, settings, test, &|b| b)
}

/// [`run_vulnerability_adaptive`] with a machine-builder hook, for cells
/// that need a customized machine (flush policies, partition splits).
pub fn run_vulnerability_adaptive_with_builder(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
    test: &SequentialTest,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Measurement {
    let cell = TrialCell::new(vulnerability, design, settings.config);
    let mut m = Measurement::ZERO;
    while m.trials < settings.trials {
        if m.trials > 0 && test.decide(&m).is_some() {
            break;
        }
        let hi = (m.trials + TRIALS_PER_SHARD).min(settings.trials);
        m = m.merge(run_trial_range(&cell, settings, m.trials..hi, customize));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(trials: u32, mm: u32, nm: u32) -> Measurement {
        Measurement {
            trials,
            n_mapped_miss: mm,
            n_not_mapped_miss: nm,
        }
    }

    #[test]
    fn radius_shrinks_with_trials_and_grows_with_confidence() {
        assert!(hoeffding_radius(25, 0.01) > hoeffding_radius(100, 0.01));
        assert!(hoeffding_radius(100, 0.001) > hoeffding_radius(100, 0.01));
        assert_eq!(hoeffding_radius(0, 0.01), 1.0);
    }

    #[test]
    fn capacity_bounds_bracket_the_point_estimate() {
        for m in [meas(50, 49, 1), meas(200, 100, 98), meas(25, 25, 0)] {
            let (lo, hi) = capacity_bounds(&m, 0.01);
            let c = m.capacity();
            assert!(lo <= c + 1e-12, "lo {lo} > C* {c}");
            assert!(hi + 1e-12 >= c, "hi {hi} < C* {c}");
            assert!((0.0..=1.0).contains(&lo) && hi <= 1.0);
        }
    }

    #[test]
    fn clear_gap_decides_vulnerable_and_no_gap_stays_open_early() {
        let test = SequentialTest::table4(0.01);
        // A maximal-gap cell (the Table 4 vulnerable shape) settles on
        // the very first shard.
        assert_eq!(test.decide(&meas(25, 25, 0)), Some(false));
        // A diagonal cell can't be *confirmed* defended at 25 trials —
        // the rectangle still admits capacities above the threshold.
        assert_eq!(test.decide(&meas(25, 12, 12)), None);
        // ... but enough diagonal trials confirm it.
        assert_eq!(test.decide(&meas(400, 200, 200)), Some(true));
        assert_eq!(test.decide(&Measurement::ZERO), None);
    }

    #[test]
    fn decisions_are_conservative_about_the_threshold() {
        let test = SequentialTest::table4(0.01);
        for trials in [25u32, 50, 100, 200, 400] {
            for mm in 0..=trials {
                for nm in [0, trials / 4, trials / 2, trials] {
                    let m = meas(trials, mm, nm);
                    match test.decide(&m) {
                        Some(true) => assert!(
                            m.defends(test.threshold),
                            "claimed defended but C* = {} at {m:?}",
                            m.capacity()
                        ),
                        Some(false) => assert!(
                            !m.defends(test.threshold),
                            "claimed vulnerable but C* = {} at {m:?}",
                            m.capacity()
                        ),
                        None => {}
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_state_record_round_trips() {
        for state in [
            AdaptiveCellState {
                m: meas(75, 74, 2),
                decided: true,
            },
            AdaptiveCellState {
                m: Measurement::ZERO,
                decided: false,
            },
        ] {
            let line = state.encode();
            assert_eq!(AdaptiveCellState::decode(&line), Some(state), "{line}");
        }
        assert_eq!(AdaptiveCellState::decode("25 1 2 7"), None);
        assert_eq!(AdaptiveCellState::decode("junk"), None);
    }
}
