//! Driver-side glue for the campaign engine.
//!
//! Every campaign binary shares the same lifecycle: install the signal
//! handlers, run the task list through
//! [`sectlb_secbench::resilience::run_sharded_resilient`] with a
//! driver-specific fingerprint (one worker unless `--workers` says
//! otherwise), and read everything else from the returned
//! [`ResilientRun`]: its per-task outcomes and their gap markers
//! (`ShardOutcome::marker`, `ShardOutcome::worst`), its stderr summary,
//! and its exit code — see [`crate::exit`] for the full code
//! table. The engine itself emits the campaign's telemetry envelope.
//!
//! A run the supervisor stopped early (wall-clock `--deadline` expiry or
//! SIGINT/SIGTERM) is **not** an error: the engine drains, flushes the
//! checkpoint, and returns with explicit `ShardOutcome::Skipped` /
//! `ShardOutcome::TimedOut` gaps, so the driver still renders its
//! (partial) table and exits [`crate::exit::EXIT_BUDGET`].

use std::num::NonZeroUsize;

use sectlb_secbench::checkpoint::{fingerprint, fingerprint_str, Record};
use sectlb_secbench::resilience::{run_sharded_resilient, ResilientRun, RunPolicy};
use sectlb_secbench::supervisor;
use sectlb_secbench::telemetry::Telemetry;

/// Whether the pool's throughput line belongs on stderr: only when the
/// invocation asked for the engine's features (`--workers` or any
/// campaign flag), so a default one-worker run prints exactly its table.
pub fn reports_pool(workers: Option<NonZeroUsize>, policy: &RunPolicy) -> bool {
    workers.is_some() || *policy != RunPolicy::default()
}

/// Runs a driver's task list through the campaign engine on `workers`
/// workers (the `--workers` flag; one worker when absent).
///
/// Installs the SIGINT/SIGTERM handlers first, so an interrupted campaign
/// drains through the same flush-checkpoint-render-partial path as a
/// `--deadline` expiry. The campaign fingerprint — what a `--resume`
/// checkpoint must match — combines the driver `name` with the
/// driver-specific `coordinates` (trial counts, seeds, anything that
/// changes results). On a
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
) -> ResilientRun<R>
where
    T: Sync,
    R: Send + Record,
{
    supervisor::install_signal_handlers();
    let fp = fingerprint(fingerprint_str(name), coordinates);
    let workers = workers.unwrap_or(NonZeroUsize::MIN);
    run_sharded_resilient(tasks, workers, policy, fp, label, telemetry, f).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.exit_code());
    })
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    use super::*;

    /// A `Write` sink the test can read back after the campaign.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_driver_campaign_emits_exactly_one_envelope() {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::armed("unit", Some(Box::new(buf.clone())));
        let tasks: Vec<u64> = (0..12).collect();
        let run = run_campaign(
            "unit",
            [7],
            &tasks,
            NonZeroUsize::new(2),
            &RunPolicy::default(),
            &telemetry,
            &|t| format!("task {t}"),
            |&t| t * 3,
        );
        assert_eq!(run.exit_code(), 0);
        let text = String::from_utf8(buf.0.lock().expect("buffer lock").clone()).expect("UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        let count = |event: &str| lines.iter().filter(|l| l.contains(event)).count();
        assert_eq!(count(r#""event":"campaign_start""#), 1, "{text}");
        assert_eq!(count(r#""event":"campaign_stop""#), 1, "{text}");
        assert!(lines[0].contains(r#""driver":"unit""#), "{text}");
        assert!(
            lines[lines.len() - 1].contains(r#""reason":"complete""#),
            "{text}"
        );
    }
}
