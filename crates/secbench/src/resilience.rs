//! The campaign engine: one function, [`run_sharded_resilient`], runs
//! every campaign's task list over scoped worker threads, with panic
//! isolation, deterministic retry, checkpoint/resume, a stall watchdog,
//! the resource budget, and a deterministic fault-injection harness.
//! A serial run is simply one worker.
//!
//! The paper's security evaluation is embarrassingly parallel: Table 4
//! alone is 24 vulnerability types × 3 designs × 2 placements × 500
//! trials = 72,000 independent machine simulations. The engine shards
//! that `(vulnerability, design, placement, trial-chunk)` space
//! ([`plan_shards`]) and merges the per-shard [`Measurement`]s with their
//! commutative [`Measurement::merge`].
//!
//! # Determinism contract
//!
//! Every trial's RFE seed is derived by [`crate::run::derive_trial_seed`]
//! from `(base_seed, vulnerability, design, placement, trial_index)` —
//! the trial's *coordinates*, never its schedule. Shard results land in
//! per-task slots and cells merge by component-wise sums. Together these
//! make a campaign's output **bitwise identical for any worker count**,
//! any steal schedule, and any interleaving of kills and resumes.
//!
//! # Failure handling
//!
//! - **Panic isolation + deterministic retry** — every shard executes
//!   under [`std::panic::catch_unwind`]. A failed shard is retried
//!   *identically* up to [`RunPolicy::max_retries`] times; a shard that
//!   keeps failing is **quarantined** — reported as a [`ShardFailure`]
//!   carrying its coordinates and panic payload — instead of killing the
//!   campaign.
//! - **Crash-safe checkpoint/resume** — completed shard results are
//!   periodically serialized via [`crate::checkpoint`] (CRC-framed,
//!   temp file + atomic rename, previous-generation fallback). A resumed
//!   run skips recorded shards and produces bitwise-identical output.
//! - **Watchdog** — an optional per-shard deadline; workers that exceed
//!   it are reported as [`StallEvent`]s and counted in
//!   [`PoolStats::stalled`].
//! - **Fault injection** — a deterministic [`FaultPlan`] (seeded by shard
//!   index, enabled only through test/CLI flags) makes chosen shards
//!   panic or stall, so the integration suite can *prove* the properties
//!   above.
//! - **Resource budget** — a [`BudgetPolicy`] ([`crate::supervisor`])
//!   stops the claim loop on deadline expiry or a latched SIGINT/SIGTERM,
//!   drains in-flight shards (preempting them at trial boundaries when a
//!   per-shard deadline is set), flushes the checkpoint, and returns a
//!   *partial* [`ResilientRun`] whose unexecuted shards are explicit
//!   [`ShardOutcome::Skipped`]/[`ShardOutcome::TimedOut`] entries.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use sectlb_model::Vulnerability;
use sectlb_sim::machine::{MachineBuilder, TlbDesign};

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointPolicy, Record, RecoveredLoad};
use crate::iofault::{IoFault, IoInjector};
use crate::run::{
    run_trial_range, splitmix64, vulnerability_code, Measurement, TrialCell, TrialSettings,
};
use crate::scheduler::StealQueues;
use crate::supervisor::{self, BudgetPolicy, ShardPreempted, StopReason, Supervisor};
use crate::telemetry::{duration_ns, stop_reason_str, Event, Telemetry};

/// Trials per shard. Small enough that 24×3 cells split into plenty of
/// shards for any sane worker count, large enough that per-shard
/// bookkeeping is noise. Results never depend on this value — only
/// scheduling does.
pub const TRIALS_PER_SHARD: u32 = 25;

/// What one worker did during a sharded run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerStats {
    /// Shards this worker completed.
    pub shards: usize,
    /// Trials (per placement) this worker executed.
    pub trials: u64,
    /// Trial pairs this worker actually simulated. Trails `trials` when
    /// seed-free shards credit one simulated pair to every trial (see
    /// [`crate::run::simulated_pairs`]).
    pub simulated: u64,
    /// Time this worker spent executing shards (excludes queue idling).
    pub busy: Duration,
    /// Shard attempts this worker retried after a caught panic.
    pub retried: usize,
    /// Shards this worker stole from another worker's deque.
    pub stolen: usize,
}

/// Timing, throughput, and resilience counters of one sharded run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Shards quarantined after exhausting their retry budget.
    pub quarantined: usize,
    /// Shards the watchdog flagged as exceeding their deadline.
    pub stalled: usize,
    /// Shards never claimed because the supervisor stopped the campaign
    /// (deadline expiry or graceful signal). Always 0 without a budget.
    pub skipped: usize,
    /// Shards preempted mid-flight by the per-shard `--cell-deadline-ms`
    /// bound. Always 0 without a budget.
    pub preempted: usize,
    /// Trials the adaptive early-stopping rule avoided running (always 0
    /// on exhaustive campaigns).
    pub trials_saved: u64,
}

impl PoolStats {
    /// Total shards executed.
    pub fn shards(&self) -> usize {
        self.workers.iter().map(|w| w.shards).sum()
    }

    /// Total trials (per placement) executed.
    pub fn trials(&self) -> u64 {
        self.workers.iter().map(|w| w.trials).sum()
    }

    /// Total trial pairs actually simulated (see
    /// [`WorkerStats::simulated`]).
    pub fn trials_simulated(&self) -> u64 {
        self.workers.iter().map(|w| w.simulated).sum()
    }

    /// Sum of busy time across workers — the serial-equivalent work.
    pub fn busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }

    /// Total shard attempts retried after a caught panic.
    pub fn retried(&self) -> usize {
        self.workers.iter().map(|w| w.retried).sum()
    }

    /// Total shards claimed from another worker's deque.
    pub fn stolen(&self) -> usize {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Trial *pairs* completed per second of wall-clock time.
    ///
    /// [`WorkerStats::trials`] counts per-placement trial indices, and
    /// every index runs as one mapped + one not-mapped placement pair, so
    /// a pair is the natural unit of completed work. An earlier revision
    /// multiplied by 2 here to count individual placements while
    /// `trials()` already described the same work — readers comparing the
    /// footer against `trials x 2 placements` saw a doubled rate. The
    /// pinned definition is `trials() / wall`, labeled "trial pairs/s".
    pub fn throughput(&self) -> f64 {
        self.trials() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Worker overlap: aggregate busy time divided by wall-clock time.
    ///
    /// Busy time is measured in wall time per shard, so this equals the
    /// effective speedup over a one-worker run only when the machine has
    /// at least as many free cores as workers; with oversubscribed
    /// workers the timeshared shards inflate the busy sum.
    pub fn speedup(&self) -> f64 {
        self.busy().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// One-line throughput summary for campaign footers.
    ///
    /// Resilience counters (retries, quarantined shards, watchdog stalls)
    /// are appended only when nonzero, so clean runs render one plain
    /// throughput line.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} workers, {} shards, {} trials x 2 placements in {:.2?} \
             ({:.0} trial pairs/s, {:.2}x worker overlap / speedup)",
            self.workers.len(),
            self.shards(),
            self.trials(),
            self.wall,
            self.throughput(),
            self.speedup(),
        );
        let retried = self.retried();
        if retried > 0 || self.quarantined > 0 || self.stalled > 0 {
            line.push_str(&format!(
                "; resilience: {retried} retried, {} quarantined, {} stalled",
                self.quarantined, self.stalled
            ));
        }
        if self.skipped > 0 || self.preempted > 0 {
            line.push_str(&format!(
                "; budget: {} shards skipped, {} preempted",
                self.skipped, self.preempted
            ));
        }
        if self.trials_saved > 0 {
            line.push_str(&format!(
                "; adaptive: {} trials x 2 placements saved",
                self.trials_saved
            ));
        }
        let stolen = self.stolen();
        if stolen > 0 {
            line.push_str(&format!("; work stealing: {stolen} shards stolen"));
        }
        line
    }
}

/// One chunk of trials for one campaign cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shard {
    pub(crate) cell: usize,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

/// Splits `cells` campaign cells of `trials` trials each into
/// [`TRIALS_PER_SHARD`]-sized shards, in cell order.
pub(crate) fn plan_shards(cells: usize, trials: u32) -> Vec<Shard> {
    let mut shards = Vec::new();
    for cell in 0..cells {
        let mut lo = 0;
        while lo < trials {
            let hi = (lo + TRIALS_PER_SHARD).min(trials);
            shards.push(Shard { cell, lo, hi });
            lo = hi;
        }
    }
    shards
}

/// Spreads the campaign's total trial count over the workers
/// proportionally to the shards each one completed (the queue hands out
/// equal-sized shards, so this matches what each worker actually ran up
/// to the final ragged shard).
pub(crate) fn distribute_trial_counts(stats: &mut PoolStats, shards: &[Shard]) {
    let total: u64 = shards.iter().map(|s| u64::from(s.hi - s.lo)).sum();
    let done: usize = stats.workers.iter().map(|w| w.shards).sum();
    if done == 0 {
        return;
    }
    let mut assigned = 0;
    let worker_count = stats.workers.len();
    for (i, w) in stats.workers.iter_mut().enumerate() {
        if i + 1 == worker_count {
            w.trials = total - assigned;
        } else {
            w.trials = total * w.shards as u64 / done as u64;
            assigned += w.trials;
        }
    }
}

/// Exit code drivers use when a campaign completed but quarantined at
/// least one shard (the results are explicit about which cells are
/// missing — never a silent abort).
pub const EXIT_QUARANTINED: i32 = 4;

/// One shard that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard's index in the campaign task list.
    pub index: usize,
    /// Human-readable coordinates ("what was this shard measuring").
    pub task: String,
    /// Attempts made (1 initial + retries) before quarantining.
    pub attempts: u32,
    /// The panic payload of the last attempt.
    pub payload: String,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} [{}] quarantined after {} attempt(s): {}",
            self.index, self.task, self.attempts, self.payload
        )
    }
}

impl std::error::Error for ShardFailure {}

/// A worker that exceeded the watchdog's per-shard deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// The stalled worker's id.
    pub worker: usize,
    /// The shard it was executing when flagged.
    pub task: usize,
    /// How long the shard had been running when flagged.
    pub waited: Duration,
}

/// Campaign-level failures — the typed errors that end a run before it
/// can report, propagated from the checkpoint layer and the kill switch
/// up to driver exit codes.
#[derive(Debug)]
pub enum CampaignError {
    /// Loading, validating, or writing a checkpoint failed.
    Checkpoint(CheckpointError),
    /// The run was deliberately interrupted (`--kill-after`) before every
    /// shard completed; a final checkpoint was written if one was
    /// configured.
    Interrupted {
        /// Shards completed before the interrupt (including resumed).
        completed: usize,
        /// Total shards in the campaign.
        total: usize,
        /// Where the final checkpoint was saved, if checkpointing was on.
        checkpoint: Option<PathBuf>,
    },
}

impl CampaignError {
    /// The process exit code a driver should use for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            CampaignError::Checkpoint(_) => 2,
            CampaignError::Interrupted { .. } => 3,
        }
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Checkpoint(e) => write!(f, "{e}"),
            CampaignError::Interrupted {
                completed,
                total,
                checkpoint,
            } => {
                write!(
                    f,
                    "campaign interrupted: {completed}/{total} shards complete"
                )?;
                match checkpoint {
                    Some(path) => write!(f, "; checkpoint saved to {}", path.display()),
                    None => write!(f, "; no checkpoint was configured — progress lost"),
                }
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Checkpoint(e) => Some(e),
            CampaignError::Interrupted { .. } => None,
        }
    }
}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> CampaignError {
        CampaignError::Checkpoint(e)
    }
}

/// A deterministic plan of injected faults, keyed by shard index.
///
/// Whether a given shard faults — and on which attempts — is a pure
/// function of `(seed, shard index, attempt)`, so an injected campaign is
/// exactly reproducible: the integration suite relies on this to prove
/// that retried shards converge to the fault-free results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Base seed of the plan.
    pub seed: u64,
    /// Per-mille of shards whose first [`FaultPlan::panic_attempts`]
    /// attempts panic (transient faults — retry recovers them).
    pub panic_per_mille: u16,
    /// How many leading attempts of a transiently faulty shard panic.
    pub panic_attempts: u32,
    /// Per-mille of shards that panic on *every* attempt (permanent
    /// faults — these end up quarantined).
    pub fatal_per_mille: u16,
    /// Per-mille of shards whose first attempt stalls for
    /// [`FaultPlan::stall`] before running (watchdog fodder).
    pub stall_per_mille: u16,
    /// Injected stall duration.
    pub stall: Duration,
    /// Per-mille of *trials* whose TLB gets one entry deterministically
    /// corrupted mid-run (`--inject-corruption`). Unlike the other knobs
    /// this is not a shard-level fault: drivers forward it to
    /// [`crate::oracle::OracleConfig`], which schedules the corruption
    /// inside the simulated machine where only the shadow oracle can
    /// catch it.
    pub corrupt_per_mille: u16,
    /// Storage fault injection (`--inject-io KIND:PM`): torn writes,
    /// short reads, ENOSPC, or failed renames on the durable-write seam
    /// under checkpoints. Rolls are keyed by
    /// [`FaultPlan::seed`] and a per-operation counter (see
    /// [`crate::iofault::IoInjector`]), so an injected run replays
    /// exactly.
    pub io: Option<IoFault>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xfa_017,
            panic_per_mille: 0,
            panic_attempts: 1,
            fatal_per_mille: 0,
            stall_per_mille: 0,
            stall: Duration::from_millis(100),
            corrupt_per_mille: 0,
            io: None,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_per_mille > 0
            || self.fatal_per_mille > 0
            || self.stall_per_mille > 0
            || self.corrupt_per_mille > 0
            || self.io.is_some()
    }

    /// The I/O fault injector this plan configures (disabled when
    /// `--inject-io` was not given).
    pub fn io_injector(&self) -> IoInjector {
        match self.io {
            Some(fault) => IoInjector::new(self.seed, fault),
            None => IoInjector::disabled(),
        }
    }

    fn roll(&self, index: usize, salt: u64) -> u16 {
        (splitmix64(splitmix64(self.seed ^ salt) ^ index as u64) % 1000) as u16
    }

    /// Whether the plan permanently fails shard `index`.
    pub fn is_fatal(&self, index: usize) -> bool {
        self.roll(index, 0xdead) < self.fatal_per_mille
    }

    /// Executes the planned fault for `(index, attempt)`, if any:
    /// sleeps for injected stalls, panics for injected faults.
    pub fn inject(&self, index: usize, attempt: u32) {
        if self.roll(index, 0x57a11) < self.stall_per_mille && attempt == 0 {
            std::thread::sleep(self.stall);
        }
        if self.is_fatal(index) {
            panic!("injected permanent fault in shard {index} (attempt {attempt})");
        }
        if self.roll(index, 0x9a71c) < self.panic_per_mille && attempt < self.panic_attempts {
            panic!("injected transient fault in shard {index} (attempt {attempt})");
        }
    }
}

/// How a resilient run behaves around failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPolicy {
    /// Retries per shard after the initial attempt (deterministic: the
    /// retried shard reruns with identical seeds).
    pub max_retries: u32,
    /// Per-shard watchdog deadline; `None` disables the watchdog.
    pub stall_deadline: Option<Duration>,
    /// Deterministic fault injection (test/CLI harness only).
    pub faults: Option<FaultPlan>,
    /// Halt the run after this many newly completed shards — a
    /// deterministic stand-in for `kill -9` used by the kill/resume
    /// integration tests and the CI smoke job.
    pub stop_after: Option<usize>,
    /// Periodic crash-safe checkpointing.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from this checkpoint (skip its recorded shards). A missing
    /// file is treated as a fresh start so resume flags are idempotent.
    pub resume: Option<PathBuf>,
    /// The resource budget (`--deadline` / `--cell-deadline-ms`) enforced
    /// by the [`crate::supervisor`]. Inactive by default.
    pub budget: BudgetPolicy,
}

impl Default for RunPolicy {
    fn default() -> RunPolicy {
        RunPolicy {
            max_retries: 2,
            stall_deadline: None,
            faults: None,
            stop_after: None,
            checkpoint: None,
            resume: None,
            budget: BudgetPolicy::default(),
        }
    }
}

/// What became of one shard under the fault-tolerant engine. Every task
/// gets exactly one outcome, in task order — quarantine, preemption, and
/// budget stops are explicit entries, never silent gaps.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome<R> {
    /// The shard completed and produced its result.
    Done(R),
    /// The shard exhausted its retry budget and was quarantined.
    Quarantined(ShardFailure),
    /// The shard overran the per-shard `--cell-deadline-ms` bound and was
    /// preempted at a trial boundary after running this long. Never
    /// checkpointed: a resume re-runs it in full.
    TimedOut(Duration),
    /// The shard was never claimed: the supervisor stopped the campaign
    /// first (deadline expiry or graceful signal).
    Skipped(StopReason),
}

impl<R> ShardOutcome<R> {
    /// The shard's result, if it completed.
    pub fn done(&self) -> Option<&R> {
        match self {
            ShardOutcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// The shard's quarantine report, if it was quarantined.
    pub fn failure(&self) -> Option<&ShardFailure> {
        match self {
            ShardOutcome::Quarantined(f) => Some(f),
            _ => None,
        }
    }

    /// Whether the shard completed.
    pub fn is_done(&self) -> bool {
        matches!(self, ShardOutcome::Done(_))
    }

    /// Whether the shard went unexecuted because of the resource budget
    /// (skipped at the claim boundary or preempted mid-flight).
    pub fn is_budget_gap(&self) -> bool {
        matches!(self, ShardOutcome::TimedOut(_) | ShardOutcome::Skipped(_))
    }

    /// Maps the completed result, preserving the gap variants.
    pub fn map<S>(self, f: impl FnOnce(R) -> S) -> ShardOutcome<S> {
        match self {
            ShardOutcome::Done(r) => ShardOutcome::Done(f(r)),
            ShardOutcome::Quarantined(q) => ShardOutcome::Quarantined(q),
            ShardOutcome::TimedOut(t) => ShardOutcome::TimedOut(t),
            ShardOutcome::Skipped(s) => ShardOutcome::Skipped(s),
        }
    }
}

/// The outcome of a resilient sharded run.
#[derive(Debug)]
pub struct ResilientRun<R> {
    /// One outcome per task, in task order.
    pub results: Vec<ShardOutcome<R>>,
    /// Pool timing plus resilience counters.
    pub stats: PoolStats,
    /// Tasks skipped because a resume checkpoint already recorded them.
    pub resumed: usize,
    /// Watchdog reports, if a deadline was configured.
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the run early, if it did. `Some` implies
    /// at least one [`ShardOutcome::Skipped`]/[`ShardOutcome::TimedOut`]
    /// entry; a run that drained to completion reports `None` even if a
    /// signal landed after the last claim.
    pub stop: Option<StopReason>,
}

impl<R> ResilientRun<R> {
    /// The quarantined shards, in task order.
    pub fn failures(&self) -> Vec<&ShardFailure> {
        self.results.iter().filter_map(|r| r.failure()).collect()
    }

    /// Whether every shard completed.
    pub fn is_clean(&self) -> bool {
        self.results.iter().all(|r| r.is_done())
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Per-worker watchdog bookkeeping: when (nanos since run start, +1 so 0
/// means idle) the worker started its current shard, and which shard.
struct WatchSlot {
    started: AtomicU64,
    task: AtomicUsize,
}

/// The run's delivered outcomes and checkpoint, shared by the workers.
struct Collector<R> {
    slots: Vec<Option<ShardOutcome<R>>>,
    ck: Option<Checkpoint>,
    since_checkpoint: usize,
    delivered: usize,
}

/// Runs `f` over every task on a panic-isolated pool of `workers` scoped
/// threads with deterministic retry, optional checkpoint/resume, an
/// optional stall watchdog, the resource budget, and optional fault
/// injection — the one engine every campaign runs on.
///
/// Results land in task order, and — provided `f` is a pure function of
/// its task — are bitwise identical for any worker count, any
/// interleaving of kills and resumes, and any transient-fault plan that
/// retry can absorb. `fingerprint` names the campaign (settings + driver
/// coordinates); checkpoints recording a different fingerprint or task
/// count are rejected rather than resumed. `label` renders a task's
/// coordinates for quarantine reports and telemetry.
///
/// `telemetry` receives the shard-lifecycle slice of the event schema —
/// resume restores, claim/complete/retry/quarantine/preempt/skip,
/// checkpoint flushes (pass [`Telemetry::disabled`] for none).
/// Campaign-level start/stop events belong to the *caller*, which knows
/// the driver identity; this also keeps the adaptive scheduler's
/// per-round engine runs from emitting nested campaign envelopes.
pub fn run_sharded_resilient<T, R, F>(
    tasks: &[T],
    workers: NonZeroUsize,
    policy: &RunPolicy,
    fingerprint: u64,
    label: &(dyn Fn(&T) -> String + Sync),
    telemetry: &Telemetry,
    f: F,
) -> Result<ResilientRun<R>, CampaignError>
where
    T: Sync,
    R: Send + Record,
    F: Fn(&T) -> R + Sync,
{
    let started = Instant::now();
    let injector = policy
        .faults
        .as_ref()
        .map(FaultPlan::io_injector)
        .unwrap_or_default();
    let mut slots: Vec<Option<ShardOutcome<R>>> =
        std::iter::repeat_with(|| None).take(tasks.len()).collect();
    // Results are encoded for the checkpoint only when one is written.
    let mut ck = policy
        .checkpoint
        .as_ref()
        .map(|_| Checkpoint::new(fingerprint, tasks.len()));
    let mut resumed = 0usize;
    let mut prior = Duration::ZERO;
    if let Some(path) = &policy.resume {
        // Corruption recovers (previous good generation, else a fresh
        // start — both resume bitwise-identically); a checkpoint that
        // belongs to a *different campaign* stays a hard error below,
        // because silently discarding it would mask an operator mistake.
        let loaded = match Checkpoint::load_recovering(path, &injector) {
            RecoveredLoad::Missing => None,
            RecoveredLoad::Current(ck) => Some(ck),
            RecoveredLoad::Previous { checkpoint, error } => {
                eprintln!(
                    "warning: checkpoint {} is corrupt ({error}); \
                     recovered from previous generation",
                    path.display()
                );
                if telemetry.is_armed() {
                    telemetry.emit(Event::CheckpointRecovered {
                        path: path.display().to_string(),
                        source: "previous".to_owned(),
                        error,
                    });
                }
                Some(checkpoint)
            }
            RecoveredLoad::Fresh { error } => {
                eprintln!(
                    "warning: checkpoint {} and its previous generation are \
                     both unreadable ({error}); starting fresh",
                    path.display()
                );
                if telemetry.is_armed() {
                    telemetry.emit(Event::CheckpointRecovered {
                        path: path.display().to_string(),
                        source: "fresh".to_owned(),
                        error,
                    });
                }
                None
            }
        };
        if let Some(loaded) = loaded {
            loaded.validate(fingerprint, tasks.len())?;
            prior = loaded.consumed;
            for (i, r) in loaded.decoded::<R>()? {
                if slots[i].is_none() {
                    resumed += 1;
                    if let Some(ck) = &mut ck {
                        ck.record(i, &r);
                    }
                    slots[i] = Some(ShardOutcome::Done(r));
                }
            }
            if telemetry.is_armed() {
                telemetry.emit(Event::Resume {
                    restored: resumed as u64,
                    consumed_ns: duration_ns(prior),
                });
            }
        }
    }
    // Wall-clock consumed by earlier runs in the resume chain counts
    // against `--deadline`: a resumed campaign gets the remainder of its
    // budget, never a fresh one.
    let supervisor = Supervisor::with_consumed(policy.budget, prior);
    let flush = |ck: &mut Checkpoint, cp: &CheckpointPolicy, when: &str| {
        ck.consumed = supervisor.elapsed();
        // A failed flush (disk full, injected fault) costs
        // recoverability, not the campaign: results so far live in
        // memory and the next flush retries.
        match ck.save_with(&cp.path, &injector) {
            Ok(()) => {
                if telemetry.is_armed() {
                    telemetry.emit(Event::CheckpointFlush {
                        path: cp.path.display().to_string(),
                        done: ck.done.len() as u64,
                        tasks: tasks.len() as u64,
                    });
                }
            }
            Err(e) => {
                eprintln!(
                    "warning: {when}checkpoint flush to {} failed: {e}",
                    cp.path.display()
                );
                if telemetry.is_armed() {
                    telemetry.emit(Event::CheckpointWriteFailed {
                        path: cp.path.display().to_string(),
                        error: e.to_string(),
                    });
                }
            }
        }
    };

    let pending: Vec<usize> = (0..tasks.len()).filter(|&i| slots[i].is_none()).collect();
    // The kill switch is enforced at claim time: with `stop_after: Some(n)`
    // exactly `min(n, pending)` shards execute, for any worker count and
    // any shard runtime — the kill point is deterministic, not a race
    // between the collector's halt flag and fast workers draining the
    // queue.
    let claim_cap = policy.stop_after.unwrap_or(usize::MAX);
    let worker_count = workers.get().min(pending.len().max(1));
    // Work-stealing deques over the pending task indices: each worker
    // drains its own contiguous chunk in index order and steals from
    // busier workers once idle. Claims are still counted globally so the
    // `stop_after` cap keeps its exact min(n, pending) semantics.
    let queues = StealQueues::seed(worker_count, &pending);
    let claims = AtomicUsize::new(0);
    let halt = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    // First supervisor stop observed at a claim boundary; set-once so the
    // reported reason is the one that actually stopped the claim loop.
    let stop_slot: OnceLock<StopReason> = OnceLock::new();
    let watch: Vec<WatchSlot> = (0..worker_count)
        .map(|_| WatchSlot {
            started: AtomicU64::new(0),
            task: AtomicUsize::new(0),
        })
        .collect();
    // One preemption flag per worker, shared with the monitor thread; the
    // worker arms its thread-local alias around each shard so the trial
    // loop's `preempt_point` can observe it.
    let preempt: Vec<Arc<AtomicBool>> = (0..worker_count)
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let cell_deadline = supervisor.cell_deadline();
    // Outcomes are delivered under one lock by the worker that produced
    // them. With no collector thread, a one-worker run executes entirely
    // on the calling thread, with no per-shard wakeups.
    let collector = Mutex::new(Collector {
        slots,
        ck,
        since_checkpoint: 0,
        delivered: 0,
    });
    let deliver = |i: usize, outcome: ShardOutcome<R>| {
        let mut guard = collector.lock().unwrap_or_else(PoisonError::into_inner);
        let c = &mut *guard;
        if let (ShardOutcome::Done(r), Some(ck), Some(cp)) =
            (&outcome, &mut c.ck, &policy.checkpoint)
        {
            // Only completed shards are checkpointed — a preempted shard
            // re-runs in full on resume, keeping the final output bitwise
            // identical.
            ck.record(i, r);
            c.since_checkpoint += 1;
            if c.since_checkpoint >= cp.every {
                flush(ck, cp, "");
                c.since_checkpoint = 0;
            }
        }
        debug_assert!(c.slots[i].is_none(), "task {i} produced twice");
        c.slots[i] = Some(outcome);
        c.delivered += 1;
        if policy.stop_after.is_some_and(|stop| c.delivered >= stop) {
            halt.store(true, Ordering::Release);
        }
    };

    let work = |w: usize| -> WorkerStats {
        let watch_slot = &watch[w];
        let preempt_flag = &preempt[w];
        let mut stats = WorkerStats::default();
        loop {
            if halt.load(Ordering::Acquire) {
                break;
            }
            // The budget is enforced here, at the claim boundary:
            // in-flight shards drain, new ones are not started.
            if let Some(reason) = supervisor.should_stop() {
                let _ = stop_slot.set(reason);
                break;
            }
            if claims.fetch_add(1, Ordering::Relaxed) >= claim_cap {
                break;
            }
            let Some(claim) = queues.claim(w) else { break };
            let i = claim.task;
            if claim.stolen {
                stats.stolen += 1;
            }
            let task = &tasks[i];
            if telemetry.is_armed() {
                telemetry.emit(Event::ShardClaim {
                    task: i as u64,
                    worker: w as u64,
                    label: label(task),
                });
            }
            watch_slot.task.store(i, Ordering::Release);
            watch_slot
                .started
                .store(started.elapsed().as_nanos() as u64 + 1, Ordering::Release);
            if cell_deadline.is_some() {
                // Re-arm after the watch slot is current, so a monitor
                // reading the *previous* shard's start time can at worst
                // preempt this shard a few trials early — never let it
                // run unbounded.
                preempt_flag.store(false, Ordering::Release);
                supervisor::set_preempt_flag(Some(preempt_flag.clone()));
            }
            let t0 = Instant::now();
            let simulated_before = crate::run::simulated_pairs();
            let mut attempt = 0u32;
            let outcome = loop {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(plan) = &policy.faults {
                        plan.inject(i, attempt);
                    }
                    f(task)
                }));
                match run {
                    Ok(r) => break ShardOutcome::Done(r),
                    Err(payload) => {
                        if payload.downcast_ref::<ShardPreempted>().is_some() {
                            // Preemption is not a fault: no retry, no
                            // quarantine — the shard simply ran out of
                            // time.
                            break ShardOutcome::TimedOut(t0.elapsed());
                        }
                        if attempt >= policy.max_retries {
                            break ShardOutcome::Quarantined(ShardFailure {
                                index: i,
                                task: label(task),
                                attempts: attempt + 1,
                                payload: panic_message(payload.as_ref()),
                            });
                        }
                        if telemetry.is_armed() {
                            telemetry.emit(Event::ShardRetry {
                                task: i as u64,
                                worker: w as u64,
                                attempt: u64::from(attempt),
                                error: panic_message(payload.as_ref()),
                            });
                        }
                        attempt += 1;
                        stats.retried += 1;
                    }
                }
            };
            if cell_deadline.is_some() {
                supervisor::set_preempt_flag(None);
            }
            watch_slot.started.store(0, Ordering::Release);
            stats.busy += t0.elapsed();
            stats.shards += 1;
            stats.simulated += crate::run::simulated_pairs() - simulated_before;
            if telemetry.is_armed() {
                match &outcome {
                    ShardOutcome::Done(_) => {
                        telemetry.emit(Event::ShardComplete {
                            task: i as u64,
                            worker: w as u64,
                            wall_ns: duration_ns(t0.elapsed()),
                        });
                    }
                    ShardOutcome::Quarantined(failure) => {
                        telemetry.emit(Event::ShardQuarantine {
                            task: i as u64,
                            worker: w as u64,
                            attempts: u64::from(failure.attempts),
                            error: failure.payload.clone(),
                        });
                    }
                    ShardOutcome::TimedOut(t) => {
                        telemetry.emit(Event::ShardPreempt {
                            task: i as u64,
                            worker: w as u64,
                            wall_ns: duration_ns(*t),
                        });
                    }
                    ShardOutcome::Skipped(_) => {}
                }
            }
            deliver(i, outcome);
        }
        stats
    };

    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(worker_count);
    let mut stalls: Vec<StallEvent> = Vec::new();
    std::thread::scope(|scope| {
        // Worker 0 is the calling thread; the others are scoped threads.
        let helpers: Vec<_> = (1..worker_count)
            .map(|w| {
                let work = &work;
                scope.spawn(move || work(w))
            })
            .collect();

        // One monitor thread serves the stall watchdog (report-only) and
        // the budget's cell deadline (preempting). Polling granularity
        // follows the tightest configured bound.
        let stall_deadline = policy.stall_deadline;
        let tightest = [stall_deadline, cell_deadline].into_iter().flatten().min();
        let monitor = tightest.map(|tightest| {
            let watch = &watch;
            let done = &done;
            let preempt = &preempt;
            scope.spawn(move || {
                let poll = (tightest / 8)
                    .max(Duration::from_millis(2))
                    .min(Duration::from_millis(200));
                let mut flagged: HashSet<(usize, usize)> = HashSet::new();
                let mut stalls = Vec::new();
                while !done.load(Ordering::Acquire) {
                    let now_ns = started.elapsed().as_nanos() as u64;
                    for (w, slot) in watch.iter().enumerate() {
                        let s = slot.started.load(Ordering::Acquire);
                        if s == 0 {
                            continue;
                        }
                        let elapsed = now_ns.saturating_sub(s - 1);
                        if let Some(deadline) = stall_deadline {
                            if elapsed > deadline.as_nanos() as u64 {
                                let task = slot.task.load(Ordering::Acquire);
                                if flagged.insert((w, task)) {
                                    let waited = Duration::from_nanos(elapsed);
                                    if telemetry.is_armed() {
                                        telemetry.emit(Event::WorkerStall {
                                            task: task as u64,
                                            worker: w as u64,
                                            label: label(&tasks[task]),
                                            wall_ns: duration_ns(waited),
                                        });
                                    }
                                    stalls.push(StallEvent {
                                        worker: w,
                                        task,
                                        waited,
                                    });
                                }
                            }
                        }
                        if let Some(deadline) = cell_deadline {
                            if elapsed > deadline.as_nanos() as u64 {
                                preempt[w].store(true, Ordering::Release);
                            }
                        }
                    }
                    std::thread::sleep(poll);
                }
                stalls
            })
        });

        worker_stats.push(work(0));
        for handle in helpers {
            // Workers isolate task panics internally; a join failure can
            // only come from an engine bug. Degrade to missing stats
            // rather than aborting the campaign.
            if let Ok(stats) = handle.join() {
                worker_stats.push(stats);
            }
        }
        done.store(true, Ordering::Release);
        if let Some(handle) = monitor {
            if let Ok(observed) = handle.join() {
                stalls = observed;
            }
        }
    });
    let Collector { slots, mut ck, .. } = collector
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);

    // Steal counters, summarized once per worker so event streams expose
    // rebalancing without a per-claim firehose.
    if telemetry.is_armed() {
        for (w, stats) in worker_stats.iter().enumerate() {
            if stats.stolen > 0 {
                telemetry.emit(Event::StealSummary {
                    worker: w as u64,
                    stolen: stats.stolen as u64,
                });
            }
        }
    }

    // A final write so the file always reflects the run's end state —
    // complete on success, maximal on interruption or budget stop. Like
    // the periodic flush, a failure degrades (the run's results are still
    // returned and rendered) rather than erroring a finished campaign.
    if let (Some(ck), Some(cp)) = (&mut ck, &policy.checkpoint) {
        flush(ck, cp, "final ");
    }

    let completed = slots.iter().filter(|s| s.is_some()).count();
    // A supervisor stop only counts if shards actually went unclaimed: a
    // signal that lands as the queue drains changes nothing, and the
    // campaign is reported complete.
    let stop = if completed < tasks.len() {
        stop_slot.get().copied()
    } else {
        None
    };
    if completed < tasks.len() && stop.is_none() {
        // The deterministic kill switch (`--kill-after`) keeps its
        // hard-interrupt semantics and exit code.
        return Err(CampaignError::Interrupted {
            completed,
            total: tasks.len(),
            checkpoint: policy.checkpoint.as_ref().map(|cp| cp.path.clone()),
        });
    }

    let results: Vec<ShardOutcome<R>> = slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(outcome) => outcome,
            None => {
                let reason = stop.expect("missing shards imply a supervisor stop");
                if telemetry.is_armed() {
                    telemetry.emit(Event::ShardSkip {
                        task: i as u64,
                        reason: stop_reason_str(reason).to_owned(),
                    });
                }
                ShardOutcome::Skipped(reason)
            }
        })
        .collect();
    let stats = PoolStats {
        wall: started.elapsed(),
        workers: worker_stats,
        quarantined: results.iter().filter(|r| r.failure().is_some()).count(),
        stalled: stalls.len(),
        skipped: results
            .iter()
            .filter(|r| matches!(r, ShardOutcome::Skipped(_)))
            .count(),
        preempted: results
            .iter()
            .filter(|r| matches!(r, ShardOutcome::TimedOut(_)))
            .count(),
        trials_saved: 0,
    };
    Ok(ResilientRun {
        results,
        stats,
        resumed,
        stalls,
        stop,
    })
}

/// Why a cell is missing trials under the resource budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellGap {
    /// At least one of the cell's shards overran the per-shard deadline
    /// and was preempted (rendered `TIMEOUT`).
    Timeout,
    /// The supervisor stopped the campaign before all of the cell's
    /// shards ran (rendered `PARTIAL`).
    Stopped(StopReason),
}

impl CellGap {
    /// The table marker for this gap.
    pub fn marker(&self) -> &'static str {
        match self {
            CellGap::Timeout => "TIMEOUT",
            CellGap::Stopped(_) => "PARTIAL",
        }
    }
}

/// The outcome of one campaign cell under the fault-tolerant engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// Every shard of the cell completed; the full measurement.
    Measured(Measurement),
    /// At least one shard was quarantined. The partial measurement covers
    /// the shards that did complete; `failure` is the first quarantined
    /// shard's report.
    Quarantined {
        /// Merged measurement of the cell's completed shards.
        partial: Measurement,
        /// The first quarantined shard of this cell.
        failure: ShardFailure,
    },
    /// The cell is missing trials because of the resource budget — the
    /// campaign stopped (or the cell's shards timed out) before it
    /// finished. The run is resumable; nothing was quarantined.
    Partial {
        /// Merged measurement of the cell's completed shards.
        partial: Measurement,
        /// Why trials are missing (selects the `TIMEOUT`/`PARTIAL`
        /// marker; a timeout wins when both apply, being the more
        /// specific diagnosis).
        gap: CellGap,
    },
}

impl CellOutcome {
    /// The full measurement, if the cell completed.
    pub fn measurement(&self) -> Option<Measurement> {
        match self {
            CellOutcome::Measured(m) => Some(*m),
            CellOutcome::Quarantined { .. } | CellOutcome::Partial { .. } => None,
        }
    }
}

/// A fault-tolerant campaign over `(vulnerability, design)` cells.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One outcome per cell, in input order. Cells are never silently
    /// dropped: a cell is either fully measured or explicitly
    /// quarantined.
    pub cells: Vec<CellOutcome>,
    /// Pool timing plus resilience counters.
    pub stats: PoolStats,
    /// Shards skipped via the resume checkpoint.
    pub resumed: usize,
    /// Watchdog reports.
    pub stalls: Vec<StallEvent>,
    /// Why the supervisor stopped the campaign early, if it did.
    pub stop: Option<StopReason>,
}

/// The campaign fingerprint of a cell list under `settings` — what a
/// checkpoint must match to be resumed.
pub fn cells_fingerprint(cells: &[(Vulnerability, TlbDesign)], settings: &TrialSettings) -> u64 {
    crate::checkpoint::fingerprint(
        crate::checkpoint::settings_fingerprint(settings),
        cells.iter().flat_map(|(v, d)| {
            [
                vulnerability_code(v),
                // EXTENDED so the temporal/multi-size columns fingerprint
                // distinctly; codes 0..=2 match the classic list, keeping
                // old checkpoints resumable.
                TlbDesign::EXTENDED
                    .iter()
                    .position(|&x| x == *d)
                    .unwrap_or(0) as u64,
            ]
        }),
    )
}

/// Measures `(vulnerability, design)` campaign cells on the engine: the
/// cells are split into [`TRIALS_PER_SHARD`]-trial shards, run through
/// [`run_sharded_resilient`], and merged back per cell. Worker panics
/// are isolated and retried, completed shards are checkpointed, and
/// shards that keep failing quarantine their cell instead of killing the
/// run. A clean cell's measurement is bitwise identical to
/// [`crate::run::run_vulnerability`]'s.
///
/// `telemetry` wraps the engine's shard-lifecycle events in the campaign
/// start/stop envelope (the driver identity comes from the handle).
pub fn measure_cells_resilient(
    cells: &[(Vulnerability, TlbDesign)],
    settings: &TrialSettings,
    workers: NonZeroUsize,
    policy: &RunPolicy,
    telemetry: &Telemetry,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Result<CampaignOutcome, CampaignError> {
    let prepared: Vec<TrialCell> = cells
        .iter()
        .map(|(v, d)| TrialCell::new(v, *d, settings.config))
        .collect();
    let shards = plan_shards(cells.len(), settings.trials);
    let fingerprint = cells_fingerprint(cells, settings);
    if telemetry.is_armed() {
        telemetry.emit(Event::CampaignStart {
            driver: telemetry.driver().to_owned(),
            fingerprint,
            tasks: shards.len() as u64,
            workers: workers.get() as u64,
        });
    }
    let run = run_sharded_resilient(
        &shards,
        workers,
        policy,
        fingerprint,
        &|shard| {
            let (v, d) = &cells[shard.cell];
            format!("{v} on {d} TLB, trials {}..{}", shard.lo, shard.hi)
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
    );
    let run = match run {
        Ok(run) => run,
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
            return Err(e);
        }
    };
    if telemetry.is_armed() {
        telemetry.emit(Event::CampaignStop {
            reason: run.stop.map_or("complete", stop_reason_str).to_owned(),
            completed: run.results.iter().filter(|r| r.is_done()).count() as u64,
            total: run.results.len() as u64,
            wall_ns: duration_ns(run.stats.wall),
        });
        telemetry.flush();
    }

    let mut merged = vec![Measurement::ZERO; cells.len()];
    let mut first_failure: Vec<Option<ShardFailure>> = vec![None; cells.len()];
    let mut gap: Vec<Option<CellGap>> = vec![None; cells.len()];
    for (shard, result) in shards.iter().zip(&run.results) {
        match result {
            ShardOutcome::Done(partial) => merged[shard.cell] = merged[shard.cell].merge(*partial),
            ShardOutcome::Quarantined(failure) => {
                if first_failure[shard.cell].is_none() {
                    first_failure[shard.cell] = Some(failure.clone());
                }
            }
            ShardOutcome::TimedOut(_) => gap[shard.cell] = Some(CellGap::Timeout),
            ShardOutcome::Skipped(reason) => {
                if gap[shard.cell].is_none() {
                    gap[shard.cell] = Some(CellGap::Stopped(*reason));
                }
            }
        }
    }
    let outcomes: Vec<CellOutcome> = merged
        .into_iter()
        .zip(first_failure)
        .zip(gap)
        .map(|((m, failure), gap)| match (failure, gap) {
            (Some(failure), _) => CellOutcome::Quarantined {
                partial: m,
                failure,
            },
            (None, Some(gap)) => CellOutcome::Partial { partial: m, gap },
            (None, None) => CellOutcome::Measured(m),
        })
        .collect();

    let mut stats = run.stats;
    // Trial accounting covers only the shards fully executed this run
    // (resumed shards did their trials in a previous process; preempted
    // shards discard theirs).
    let executed: Vec<_> = shards
        .iter()
        .zip(&run.results)
        .filter(|(_, r)| r.is_done())
        .map(|(s, _)| *s)
        .collect();
    distribute_trial_counts(&mut stats, &executed);
    Ok(CampaignOutcome {
        cells: outcomes,
        stats,
        resumed: run.resumed,
        stalls: run.stalls,
        stop: run.stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two() -> NonZeroUsize {
        NonZeroUsize::new(2).expect("nonzero")
    }

    fn off() -> Telemetry {
        Telemetry::disabled()
    }

    #[test]
    fn clean_run_returns_results_in_task_order() {
        let _latch = supervisor::latch_guard();
        let tasks: Vec<u64> = (0..60).collect();
        let policy = RunPolicy::default();
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &policy,
            1,
            &|t| format!("t{t}"),
            &off(),
            |&t| t * t,
        )
        .expect("clean run");
        assert!(run.is_clean());
        assert_eq!(run.stop, None);
        let values: Vec<u64> = run
            .results
            .into_iter()
            .map(|r| *r.done().expect("ok"))
            .collect();
        assert_eq!(values, tasks.iter().map(|t| t * t).collect::<Vec<_>>());
        assert_eq!(run.stats.quarantined, 0);
        assert_eq!(run.stats.retried(), 0);
        assert_eq!(run.stats.skipped, 0);
        assert_eq!(run.stats.preempted, 0);
    }

    #[test]
    fn fault_plan_is_deterministic() {
        let plan = FaultPlan {
            panic_per_mille: 250,
            fatal_per_mille: 100,
            ..FaultPlan::default()
        };
        for i in 0..100 {
            assert_eq!(plan.is_fatal(i), plan.is_fatal(i));
        }
        assert!((0..1000).any(|i| plan.is_fatal(i)));
        assert!(!(0..1000).all(|i| plan.is_fatal(i)));
    }

    #[test]
    fn transient_faults_retry_to_identical_results() {
        let _latch = supervisor::latch_guard();
        let tasks: Vec<u64> = (0..40).collect();
        let clean = run_sharded_resilient(
            &tasks,
            two(),
            &RunPolicy::default(),
            2,
            &|t| format!("t{t}"),
            &off(),
            |&t| t + 1,
        )
        .expect("clean");
        let faulty_policy = RunPolicy {
            faults: Some(FaultPlan {
                panic_per_mille: 400,
                panic_attempts: 2,
                ..FaultPlan::default()
            }),
            max_retries: 3,
            ..RunPolicy::default()
        };
        let faulty = run_sharded_resilient(
            &tasks,
            two(),
            &faulty_policy,
            2,
            &|t| format!("t{t}"),
            &off(),
            |&t| t + 1,
        )
        .expect("faulty converges");
        assert!(faulty.is_clean(), "retries absorb transient faults");
        assert!(faulty.stats.retried() > 0, "some shards were retried");
        let a: Vec<u64> = clean
            .results
            .into_iter()
            .map(|r| *r.done().expect("ok"))
            .collect();
        let b: Vec<u64> = faulty
            .results
            .into_iter()
            .map(|r| *r.done().expect("ok"))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn permanent_faults_quarantine_without_aborting() {
        let _latch = supervisor::latch_guard();
        let tasks: Vec<u64> = (0..50).collect();
        let plan = FaultPlan {
            fatal_per_mille: 200,
            ..FaultPlan::default()
        };
        let policy = RunPolicy {
            faults: Some(plan),
            max_retries: 1,
            ..RunPolicy::default()
        };
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &policy,
            3,
            &|t| format!("task {t}"),
            &off(),
            |&t| t,
        )
        .expect("run completes despite faults");
        let expected_fatal: Vec<usize> = (0..tasks.len()).filter(|&i| plan.is_fatal(i)).collect();
        assert!(!expected_fatal.is_empty(), "plan injects something");
        for (i, result) in run.results.iter().enumerate() {
            if expected_fatal.contains(&i) {
                let failure = result.failure().expect("quarantined");
                assert_eq!(failure.index, i);
                assert_eq!(failure.attempts, 2, "1 attempt + 1 retry");
                assert!(failure.payload.contains("injected permanent fault"));
                assert!(failure.task.contains(&format!("task {i}")));
            } else {
                assert!(result.is_done(), "shard {i} unaffected");
            }
        }
        assert_eq!(run.stats.quarantined, expected_fatal.len());
    }

    #[test]
    fn watchdog_reports_stalled_shards() {
        let _latch = supervisor::latch_guard();
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy {
            stall_deadline: Some(Duration::from_millis(10)),
            ..RunPolicy::default()
        };
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &policy,
            4,
            &|t| format!("t{t}"),
            &off(),
            |&t| {
                if t == 2 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                t
            },
        )
        .expect("completes");
        assert!(run.is_clean());
        assert!(run.stats.stalled >= 1, "stall detected");
        assert!(run.stalls.iter().any(|s| s.task == 2), "{:?}", run.stalls);
    }

    #[test]
    fn expired_deadline_skips_all_shards_gracefully() {
        let _latch = supervisor::latch_guard();
        let tasks: Vec<u64> = (0..20).collect();
        let policy = RunPolicy {
            budget: BudgetPolicy {
                deadline: Some(Duration::ZERO),
                cell_deadline: None,
            },
            ..RunPolicy::default()
        };
        supervisor::reset_interrupt();
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &policy,
            9,
            &|t| format!("t{t}"),
            &off(),
            |&t| t,
        )
        .expect("budget stop is a graceful Ok, not an error");
        assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
        assert_eq!(run.stats.skipped, tasks.len());
        assert!(run
            .results
            .iter()
            .all(|r| matches!(r, ShardOutcome::Skipped(StopReason::DeadlineExpired))));
    }

    #[test]
    fn tripped_signal_latch_stops_the_claim_loop() {
        let _latch = supervisor::latch_guard();
        let tasks: Vec<u64> = (0..20).collect();
        supervisor::trip_interrupt();
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &RunPolicy::default(),
            10,
            &|t| format!("t{t}"),
            &off(),
            |&t| t,
        )
        .expect("graceful drain");
        supervisor::reset_interrupt();
        assert_eq!(run.stop, Some(StopReason::Interrupted));
        assert!(!run.is_clean());
        assert!(run
            .results
            .iter()
            .all(|r| matches!(r, ShardOutcome::Skipped(StopReason::Interrupted))));
    }

    #[test]
    fn cell_deadline_preempts_an_overrunning_shard() {
        let _latch = supervisor::latch_guard();
        // Task 1 spins on preempt_point until the monitor flags it; the
        // other tasks are instant. The run completes with task 1 reported
        // TimedOut — not quarantined, not retried — and `stop` is None
        // because the overall campaign was never stopped.
        supervisor::reset_interrupt();
        let tasks: Vec<u64> = (0..4).collect();
        let policy = RunPolicy {
            budget: BudgetPolicy {
                deadline: None,
                cell_deadline: Some(Duration::from_millis(15)),
            },
            ..RunPolicy::default()
        };
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &policy,
            11,
            &|t| format!("t{t}"),
            &off(),
            |&t| {
                if t == 1 {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_secs(10) {
                        supervisor::preempt_point();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                t
            },
        )
        .expect("completes");
        assert_eq!(run.stop, None);
        assert_eq!(run.stats.preempted, 1);
        assert_eq!(run.stats.retried(), 0);
        assert!(matches!(run.results[1], ShardOutcome::TimedOut(_)));
        for i in [0usize, 2, 3] {
            assert!(run.results[i].is_done(), "shard {i} unaffected");
        }
    }

    #[test]
    fn empty_and_single_task_lists_run() {
        let run = run_sharded_resilient::<u32, u64, _>(
            &[],
            two(),
            &RunPolicy::default(),
            5,
            &|t| format!("t{t}"),
            &off(),
            |&t| u64::from(t),
        )
        .expect("empty run");
        assert!(run.results.is_empty());
        let eight = NonZeroUsize::new(8).expect("nonzero");
        let run = run_sharded_resilient(
            &[7u64],
            eight,
            &RunPolicy::default(),
            6,
            &|t| format!("t{t}"),
            &off(),
            |&t| t + 1,
        )
        .expect("single run");
        assert_eq!(run.results[0].done(), Some(&8));
        // Only as many workers as tasks are spawned.
        assert_eq!(run.stats.workers.len(), 1);
    }

    #[test]
    fn an_uneven_load_makes_idle_workers_steal() {
        let _latch = supervisor::latch_guard();
        // Worker 0 owns tasks 0..4 and parks on task 0; worker 1 drains
        // its own chunk quickly and must steal the rest of worker 0's.
        let tasks: Vec<u64> = (0..8).collect();
        let run = run_sharded_resilient(
            &tasks,
            two(),
            &RunPolicy::default(),
            7,
            &|t| format!("t{t}"),
            &off(),
            |&t| {
                if t == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                t * 10
            },
        )
        .expect("completes");
        let values: Vec<u64> = run.results.iter().map(|r| *r.done().expect("ok")).collect();
        assert_eq!(values, tasks.iter().map(|t| t * 10).collect::<Vec<_>>());
        assert!(
            run.stats.stolen() > 0,
            "expected steals, got {:?}",
            run.stats
        );
        assert!(run.stats.render().contains("work stealing"));
    }

    #[test]
    fn throughput_counts_trial_pairs_once() {
        let worker = |shards, trials| WorkerStats {
            shards,
            trials,
            busy: Duration::from_secs(1),
            ..WorkerStats::default()
        };
        let stats = PoolStats {
            wall: Duration::from_secs(2),
            workers: vec![worker(4, 100), worker(2, 50)],
            ..PoolStats::default()
        };
        // 150 trial pairs over 2 seconds: exactly 75 pairs/s, with no
        // doubling for the two placements each pair already contains.
        assert_eq!(stats.trials(), 150);
        assert!((stats.throughput() - 75.0).abs() < 1e-9);
        let text = stats.render();
        assert!(
            text.contains("trial pairs/s") && text.contains("speedup"),
            "{text}"
        );
    }

    #[test]
    fn measured_cells_match_the_reference_for_each_worker_count() {
        let _latch = supervisor::latch_guard();
        let vulns = sectlb_model::enumerate_vulnerabilities();
        let settings = TrialSettings {
            trials: 30,
            ..TrialSettings::default()
        };
        let cells: Vec<_> = [vulns[0], vulns[15]]
            .into_iter()
            .flat_map(|v| [(v, TlbDesign::Sa), (v, TlbDesign::Rf)])
            .collect();
        let reference: Vec<CellOutcome> = cells
            .iter()
            .map(|(v, d)| CellOutcome::Measured(crate::run::run_vulnerability(v, *d, &settings)))
            .collect();
        for workers in [1usize, 2, 4] {
            let w = NonZeroUsize::new(workers).expect("nonzero");
            let outcome = measure_cells_resilient(
                &cells,
                &settings,
                w,
                &RunPolicy::default(),
                &off(),
                &|b| b,
            )
            .expect("clean");
            assert_eq!(outcome.cells, reference, "workers={workers} diverged");
            assert_eq!(
                outcome.stats.trials(),
                u64::from(settings.trials) * cells.len() as u64
            );
        }
    }
}
