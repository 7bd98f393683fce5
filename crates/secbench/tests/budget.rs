//! Integration tests of the resource-budgeted supervisor.
//!
//! The acceptance contract: a campaign stopped by its wall-clock budget
//! is not an error — it drains, flushes its checkpoint, reports explicit
//! `PARTIAL` cells, and a `--resume` completes it **bitwise-identical**
//! to an uninterrupted run. A shard that overruns its cell deadline is
//! preempted between trials and reported `TIMEOUT`, on every trial loop.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sectlb_model::{enumerate_vulnerabilities, Vulnerability};
use sectlb_secbench::checkpoint::Checkpoint;
use sectlb_secbench::extended::{extended_benchmarks, run_extended, ExtDesign};
use sectlb_secbench::report::{build_table4, table4_cells};
use sectlb_secbench::resilience::{
    measure_cells_resilient, run_sharded_resilient, ResilientRun, RunPolicy, ShardOutcome,
};
use sectlb_secbench::run::{Measurement, TrialSettings};
use sectlb_secbench::supervisor::{BudgetPolicy, StopReason, EXIT_BUDGET};
use sectlb_secbench::telemetry::Telemetry;
use sectlb_secbench::CheckpointPolicy;
use sectlb_sim::machine::TlbDesign;

fn cells() -> Vec<(Vulnerability, TlbDesign)> {
    let vulns = enumerate_vulnerabilities();
    [vulns[0], vulns[12]]
        .into_iter()
        .flat_map(|v| TlbDesign::ALL.map(|d| (v, d)))
        .collect()
}

fn settings() -> TrialSettings {
    TrialSettings {
        trials: 30,
        ..TrialSettings::default()
    }
}

fn workers() -> NonZeroUsize {
    NonZeroUsize::new(3).expect("nonzero")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sectlb-budget-{}-{name}", std::process::id()));
    p
}

fn off() -> Telemetry {
    Telemetry::disabled()
}

/// Every cell's measurement, asserting that each one is complete.
fn measurements(run: &ResilientRun<Measurement>) -> Vec<Measurement> {
    (0..cells().len())
        .map(|c| match run.cell(c, settings().trials) {
            (m, None) => m,
            (_, Some(gap)) => panic!("cell {c} not measured: {gap:?}"),
        })
        .collect()
}

fn deadline_policy(deadline: Duration, path: &Path) -> RunPolicy {
    RunPolicy {
        checkpoint: Some(CheckpointPolicy {
            path: path.to_path_buf(),
            every: 1,
        }),
        budget: BudgetPolicy {
            deadline: Some(deadline),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    }
}

#[test]
fn expired_deadline_reports_partial_cells_then_resume_matches_bitwise() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("deadline-resume");
    let reference = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &RunPolicy::default(),
        &off(),
        &|b| b,
    )
    .expect("uninterrupted campaign");

    // An already-expired deadline: the supervisor stops the claim loop
    // before any shard runs. This is a graceful stop, not an error.
    let stopped = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &deadline_policy(Duration::ZERO, &path),
        &off(),
        &|b| b,
    )
    .expect("budget stop is not an error");
    assert_eq!(stopped.stop, Some(StopReason::DeadlineExpired));
    assert!(path.exists(), "checkpoint flushed on the budget stop");
    for c in 0..cells.len() {
        let (partial, gap) = stopped.cell(c, settings.trials);
        assert!(
            matches!(
                gap,
                Some(ShardOutcome::Skipped(StopReason::DeadlineExpired))
            ),
            "expected every cell Partial, got {gap:?}"
        );
        assert_eq!(partial.trials, 0, "nothing ran under a zero deadline");
    }

    // Resume without a budget: the completed campaign must be bitwise
    // identical to the uninterrupted reference.
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &resumed_policy,
        &off(),
        &|b| b,
    )
    .expect("resumed campaign completes");
    assert_eq!(resumed.stop, None);
    assert_eq!(measurements(&resumed), measurements(&reference));
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_campaign_deadline_still_resumes_bitwise_identical() {
    let cells = cells();
    let settings = settings();
    let path = tmp_path("mid-deadline");
    let reference = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &RunPolicy::default(),
        &off(),
        &|b| b,
    )
    .expect("uninterrupted campaign");

    // A deadline that lands mid-campaign on most machines. How many
    // shards finish is timing-dependent; the invariant under test is
    // that the resumed result is identical no matter where it landed.
    let run = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &deadline_policy(Duration::from_millis(10), &path),
        &off(),
        &|b| b,
    )
    .expect("budget stop is not an error");
    let resumed_policy = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let resumed = if run.stop.is_some() {
        measure_cells_resilient(
            &cells,
            &settings,
            workers(),
            &resumed_policy,
            &off(),
            &|b| b,
        )
        .expect("resumed campaign completes")
    } else {
        run // the machine beat the deadline; the run is already complete
    };
    assert_eq!(measurements(&resumed), measurements(&reference));
    std::fs::remove_file(&path).ok();
}

#[test]
fn budget_stopped_table4_renders_partial_markers_and_exits_budget_code() {
    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let policy = RunPolicy {
        budget: BudgetPolicy {
            deadline: Some(Duration::ZERO),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    };
    let report = build_table4(&TlbDesign::ALL, &settings, workers(), &policy, &off())
        .expect("budget stop still renders a report");
    assert_eq!(report.run.stop, Some(StopReason::DeadlineExpired));
    assert_eq!(report.partial.len(), table4_cells().len());
    assert_eq!(report.run.exit_code(), EXIT_BUDGET);
    let text = report.render();
    assert!(text.contains("PARTIAL"), "{text}");
    assert!(text.contains("incomplete (PARTIAL/TIMEOUT)"), "{text}");
    assert!(
        text.contains("campaign stopped early: wall-clock deadline expired"),
        "{text}"
    );
}

#[test]
fn resumed_campaigns_deduct_consumed_wall_clock_from_the_deadline() {
    // A prior run already spent two hours of a one-hour budget: the
    // checkpoint records the consumed wall clock, and the resumed
    // campaign must stop before claiming a single shard rather than
    // granting itself a fresh deadline.
    let fingerprint = 0x5eed;
    let tasks = [1u64, 2, 3, 4];
    let path = tmp_path("consumed-deadline");
    let mut ck = Checkpoint::new(fingerprint, tasks.len());
    ck.consumed = Duration::from_secs(2 * 3600);
    ck.save(&path).expect("checkpoint saved");

    let policy = RunPolicy {
        resume: Some(path.clone()),
        budget: BudgetPolicy {
            deadline: Some(Duration::from_secs(3600)),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    };
    let run = run_sharded_resilient(
        &tasks,
        workers(),
        &policy,
        fingerprint,
        &|&t| format!("task {t}"),
        &off(),
        |&t| t * 2,
    )
    .expect("budget stop is not an error");
    assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
    assert!(
        run.results
            .iter()
            .all(|r| matches!(r, ShardOutcome::Skipped(StopReason::DeadlineExpired))),
        "the exhausted budget must skip every shard"
    );

    // The same checkpoint without a deadline still resumes normally:
    // consumed time only matters when a budget is set.
    let unlimited = RunPolicy {
        resume: Some(path.clone()),
        ..RunPolicy::default()
    };
    let run = run_sharded_resilient(
        &tasks,
        workers(),
        &unlimited,
        fingerprint,
        &|&t| format!("task {t}"),
        &off(),
        |&t| t * 2,
    )
    .expect("unlimited resume completes");
    assert_eq!(run.stop, None);
    let done: Vec<u64> = run
        .results
        .iter()
        .filter_map(|r| r.done().copied())
        .collect();
    assert_eq!(done, vec![2, 4, 6, 8]);
    std::fs::remove_file(&path).ok();
}

#[test]
fn interrupted_runs_checkpoint_their_consumed_wall_clock() {
    // A zero deadline stops the campaign immediately; the flushed
    // checkpoint must carry the (tiny but real) consumed wall clock so a
    // later resume keeps deducting it.
    let cells = cells();
    let settings = settings();
    let path = tmp_path("consumed-persisted");
    let run = measure_cells_resilient(
        &cells,
        &settings,
        workers(),
        &deadline_policy(Duration::ZERO, &path),
        &off(),
        &|b| b,
    )
    .expect("budget stop is not an error");
    assert_eq!(run.stop, Some(StopReason::DeadlineExpired));
    let text = std::fs::read_to_string(&path).expect("checkpoint flushed");
    let ck = Checkpoint::parse_stored(&text).expect("checkpoint parses");
    assert!(
        ck.consumed > Duration::ZERO,
        "the stop path must persist the elapsed wall clock, got {:?}",
        ck.consumed
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn overrunning_extended_shard_times_out() {
    // The extended (Table 7) cells run through the same trial loop as
    // Table 4, so a cell deadline preempts them between trials too. An
    // RF cell's trials each draw a fresh seed; 200,000 of them take
    // about half a second, far longer than the 1 ms deadline.
    let bench = extended_benchmarks().swap_remove(0);
    let policy = RunPolicy {
        budget: BudgetPolicy {
            cell_deadline: Some(Duration::from_millis(1)),
            ..BudgetPolicy::default()
        },
        ..RunPolicy::default()
    };
    let run = run_sharded_resilient(
        &[ExtDesign::RfPrecise],
        NonZeroUsize::MIN,
        &policy,
        0xe7,
        &|d| d.label().to_owned(),
        &off(),
        |&d| run_extended(&bench, d, 200_000),
    )
    .expect("a timeout is not an error");
    assert!(
        matches!(run.results[..], [ShardOutcome::TimedOut(_)]),
        "the extended shard must be preempted, got {:?}",
        run.results
    );
    assert_eq!(run.stats.preempted, 1);
    assert_eq!(run.stats.trials(), 0, "a preempted shard credits no trials");
}
