//! Driver-side glue for the campaign engine.
//!
//! Every campaign binary shares the same lifecycle: install the signal
//! handlers, run the task list through
//! [`sectlb_secbench::resilience::run_sharded_resilient`] with a
//! driver-specific fingerprint (one worker unless `--workers` says
//! otherwise), surface quarantined/stalled shards on stderr, and
//! translate the outcome into a process exit code — see [`crate::exit`]
//! for the full code table.
//!
//! A run the supervisor stopped early (wall-clock `--deadline` expiry or
//! SIGINT/SIGTERM) is **not** an error: the engine drains, flushes the
//! checkpoint, and returns with explicit [`ShardOutcome::Skipped`] /
//! [`ShardOutcome::TimedOut`] gaps, so the driver still renders its
//! (partial) table and exits [`crate::exit::EXIT_BUDGET`].

use std::num::NonZeroUsize;

use sectlb_secbench::checkpoint::{fingerprint, fingerprint_str, Record};
use sectlb_secbench::resilience::{
    run_sharded_resilient, CampaignError, PoolStats, RunPolicy, ShardOutcome, StallEvent,
};
use sectlb_secbench::supervisor::{self, StopReason};
use sectlb_secbench::telemetry::{duration_ns, stop_reason_str, Event, Telemetry};

use crate::exit::{EXIT_BUDGET, EXIT_OK, EXIT_QUARANTINED};

/// Whether the pool's throughput line belongs on stderr: only when the
/// invocation asked for the engine's features (`--workers` or any
/// campaign flag), so a default one-worker run prints exactly its table.
pub fn reports_pool(workers: Option<NonZeroUsize>, policy: &RunPolicy) -> bool {
    workers.is_some() || *policy != RunPolicy::default()
}

/// A completed driver campaign: per-task outcomes (quarantined shards
/// and budget gaps are explicit variants, never silent holes) plus the
/// pool counters, watchdog reports, and the early-stop reason if the
/// supervisor cut the run short.
#[derive(Debug)]
pub struct DriverCampaign<R> {
    /// One outcome per task, in task order.
    pub results: Vec<ShardOutcome<R>>,
    /// Pool timing plus retry/quarantine/stall/budget counters.
    pub stats: PoolStats,
    /// Tasks restored from the resume checkpoint.
    pub resumed: usize,
    /// Watchdog reports, if `--stall-deadline-ms` was configured.
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the run early, if it did.
    pub stop: Option<StopReason>,
    /// Whether [`DriverCampaign::eprint_summary`] prints the pool line
    /// (see [`reports_pool`]).
    pub report_pool: bool,
}

impl<R> DriverCampaign<R> {
    /// Number of quarantined tasks.
    pub fn quarantined(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.failure().is_some())
            .count()
    }

    /// Number of tasks the budget left unfinished (preempted or never
    /// claimed).
    pub fn budget_gaps(&self) -> usize {
        self.results.iter().filter(|r| r.is_budget_gap()).count()
    }

    /// Prints the resume/quarantine/stall/stop/pool summary to stderr
    /// (stdout is reserved for the table itself, which scripts diff). A
    /// clean default run prints nothing.
    pub fn eprint_summary(&self) {
        if self.resumed > 0 {
            eprintln!(
                "resumed: {} shard(s) restored from checkpoint",
                self.resumed
            );
        }
        for failure in self.results.iter().filter_map(|r| r.failure()) {
            eprintln!("{failure}");
        }
        for stall in &self.stalls {
            eprintln!(
                "stall: worker {} exceeded the watchdog deadline on shard {} (ran {:.2?})",
                stall.worker, stall.task, stall.waited
            );
        }
        if let Some(stop) = self.stop {
            eprintln!(
                "campaign stopped early: {stop} ({} of {} task(s) unfinished)",
                self.budget_gaps(),
                self.results.len()
            );
        }
        if self.report_pool {
            eprintln!("pool: {}", self.stats.render());
        }
    }

    /// The process exit code: [`EXIT_BUDGET`] when the supervisor cut the
    /// run short (the table is partial and a `--resume` can finish it),
    /// else [`EXIT_QUARANTINED`] when shards exhausted their retries,
    /// else [`EXIT_OK`].
    pub fn exit_code(&self) -> i32 {
        if self.stop.is_some() || self.budget_gaps() > 0 {
            EXIT_BUDGET
        } else if self.quarantined() > 0 {
            EXIT_QUARANTINED
        } else {
            EXIT_OK
        }
    }
}

/// Runs a driver's task list through the campaign engine on `workers`
/// workers (the `--workers` flag; one worker when absent).
///
/// Installs the SIGINT/SIGTERM handlers first, so an interrupted campaign
/// drains through the same flush-checkpoint-render-partial path as a
/// `--deadline` expiry. The campaign fingerprint — what a `--resume`
/// checkpoint must match — combines the driver `name` with the
/// driver-specific `coordinates` (trial counts, seeds, anything that
/// changes results). `telemetry` receives the campaign start/stop
/// envelope around the engine's per-shard event stream. On a
/// [`sectlb_secbench::resilience::CampaignError`] (checkpoint problems,
/// `--kill-after` interruption) the error is printed and the process
/// exits with the error's code.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign<T, R>(
    name: &str,
    coordinates: impl IntoIterator<Item = u64>,
    tasks: &[T],
    workers: Option<NonZeroUsize>,
    policy: &RunPolicy,
    telemetry: &Telemetry,
    label: &(dyn Fn(&T) -> String + Sync),
    f: impl Fn(&T) -> R + Sync,
) -> DriverCampaign<R>
where
    T: Sync,
    R: Send + Record,
{
    let report_pool = reports_pool(workers, policy);
    let workers = workers.unwrap_or(NonZeroUsize::MIN);
    supervisor::install_signal_handlers();
    let fp = fingerprint(fingerprint_str(name), coordinates);
    if telemetry.is_armed() {
        telemetry.emit(Event::CampaignStart {
            driver: telemetry.driver().to_owned(),
            fingerprint: fp,
            tasks: tasks.len() as u64,
            workers: workers.get() as u64,
        });
    }
    match run_sharded_resilient(tasks, workers, policy, fp, label, telemetry, f) {
        Ok(run) => {
            if telemetry.is_armed() {
                telemetry.emit(Event::CampaignStop {
                    reason: run.stop.map_or("complete", stop_reason_str).to_owned(),
                    completed: run.results.iter().filter(|r| r.is_done()).count() as u64,
                    total: run.results.len() as u64,
                    wall_ns: duration_ns(run.stats.wall),
                });
                telemetry.flush();
            }
            DriverCampaign {
                results: run.results,
                stats: run.stats,
                resumed: run.resumed,
                stalls: run.stalls,
                stop: run.stop,
                report_pool,
            }
        }
        Err(e) => {
            if telemetry.is_armed() {
                if let CampaignError::Interrupted {
                    completed, total, ..
                } = &e
                {
                    telemetry.emit(Event::CampaignStop {
                        reason: "kill-after".to_owned(),
                        completed: *completed as u64,
                        total: *total as u64,
                        wall_ns: 0,
                    });
                }
                telemetry.flush();
            }
            eprintln!("{e}");
            std::process::exit(e.exit_code());
        }
    }
}

/// The marker a driver should print for an aggregate row whose tasks did
/// not all complete: QUARANTINED dominates (those shards exhausted their
/// retries and will not finish on resume), then TIMEOUT (a cell's shard
/// overran `--cell-deadline-ms`), then PARTIAL (the budget stopped the
/// campaign before the cell was claimed). `None` when every task is done.
pub fn gap_marker<R>(outcomes: &[ShardOutcome<R>]) -> Option<&'static str> {
    if outcomes.iter().any(|r| r.failure().is_some()) {
        Some("QUARANTINED")
    } else if outcomes
        .iter()
        .any(|r| matches!(r, ShardOutcome::TimedOut(_)))
    {
        Some("TIMEOUT")
    } else if outcomes
        .iter()
        .any(|r| matches!(r, ShardOutcome::Skipped(_)))
    {
        Some("PARTIAL")
    } else {
        None
    }
}
