//! Schema tests for the structured observability layer.
//!
//! Two pins: a golden snapshot of the event stream an engine run emits
//! (field names, field order, sequence numbers — the whole canonical
//! line, with only the nondeterministic wall-clock values normalized),
//! and a property test that every representable event round-trips
//! through parse byte-identically. Together they freeze schema v1: any
//! serialization change breaks one of them and must bump
//! [`sectlb_secbench::telemetry::SCHEMA_VERSION`].
//!
//! A third test runs a real campaign and checks that the metrics snapshot
//! reports simulated trial pairs beside the credited ones.

use std::io::Write;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sectlb_secbench::resilience::{run_sharded_resilient, RunPolicy};
use sectlb_secbench::telemetry::{Envelope, Event, Telemetry};

/// A `Write` sink the test can read back after the engine is done.
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

/// Replaces every `"wall_ns":<digits>` value with `"wall_ns":0` — the
/// only nondeterministic bytes in the stream under test.
fn normalize_wall(line: &str) -> String {
    let key = "\"wall_ns\":";
    match line.find(key) {
        None => line.to_owned(),
        Some(at) => {
            let digits_from = at + key.len();
            let rest = &line[digits_from..];
            let digits = rest.chars().take_while(char::is_ascii_digit).count();
            format!("{}0{}", &line[..digits_from], &rest[digits..])
        }
    }
}

#[test]
fn single_worker_run_emits_the_golden_event_stream() {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::armed("golden", Some(Box::new(buf.clone())));
    let tasks = [5u64, 6, 7];
    let run = run_sharded_resilient(
        &tasks,
        NonZeroUsize::MIN,
        &RunPolicy::default(),
        0xabcd,
        &|&t| format!("task {t}"),
        &telemetry,
        |&t| t * 2,
    )
    .expect("campaign completes");
    assert_eq!(run.stop, None);
    telemetry.flush();

    let bytes = buf.0.lock().expect("buffer lock").clone();
    let text = String::from_utf8(bytes).expect("stream is UTF-8");
    let got: Vec<String> = text.lines().map(normalize_wall).collect();
    // One worker drains the queue in task order: claim/complete pairs,
    // strictly sequenced. No campaign envelope — that belongs to the
    // driver-side caller, not the engine.
    let expected = [
        r#"{"v":1,"seq":0,"event":"shard_claim","task":0,"worker":0,"label":"task 5"}"#,
        r#"{"v":1,"seq":1,"event":"shard_complete","task":0,"worker":0,"wall_ns":0}"#,
        r#"{"v":1,"seq":2,"event":"shard_claim","task":1,"worker":0,"label":"task 6"}"#,
        r#"{"v":1,"seq":3,"event":"shard_complete","task":1,"worker":0,"wall_ns":0}"#,
        r#"{"v":1,"seq":4,"event":"shard_claim","task":2,"worker":0,"label":"task 7"}"#,
        r#"{"v":1,"seq":5,"event":"shard_complete","task":2,"worker":0,"wall_ns":0}"#,
    ];
    assert_eq!(got, expected, "full stream:\n{text}");
    // Every emitted line is canonical: parse accepts it and re-renders
    // the identical bytes.
    for line in text.lines() {
        let envelope = Envelope::parse(line).expect("every emitted line parses");
        assert_eq!(envelope.render(), line);
    }
    // The handle collected one latency sample per completed shard.
    assert_eq!(telemetry.latencies().len(), tasks.len());
}

fn arb_event() -> impl Strategy<Value = Event> {
    let s = any::<String>();
    let n = any::<u64>();
    prop_oneof![
        (s.clone(), n, n, n).prop_map(|(driver, fingerprint, tasks, workers)| {
            Event::CampaignStart {
                driver,
                fingerprint,
                tasks,
                workers,
            }
        }),
        (n, n).prop_map(|(restored, consumed_ns)| Event::Resume {
            restored,
            consumed_ns,
        }),
        (n, n, s.clone()).prop_map(|(task, worker, label)| Event::ShardClaim {
            task,
            worker,
            label,
        }),
        (n, n, n).prop_map(|(task, worker, wall_ns)| Event::ShardComplete {
            task,
            worker,
            wall_ns,
        }),
        (n, n, n, s.clone()).prop_map(|(task, worker, attempt, error)| Event::ShardRetry {
            task,
            worker,
            attempt,
            error,
        }),
        (n, n, n, s.clone()).prop_map(|(task, worker, attempts, error)| {
            Event::ShardQuarantine {
                task,
                worker,
                attempts,
                error,
            }
        }),
        (n, n, n).prop_map(|(task, worker, wall_ns)| Event::ShardPreempt {
            task,
            worker,
            wall_ns,
        }),
        (n, s.clone()).prop_map(|(task, reason)| Event::ShardSkip { task, reason }),
        (s.clone(), n, n).prop_map(|(path, done, tasks)| Event::CheckpointFlush {
            path,
            done,
            tasks,
        }),
        (s.clone(), n, n).prop_map(|(cell, trials, saved)| Event::AdaptiveStop {
            cell,
            trials,
            saved,
        }),
        (s.clone(), s.clone())
            .prop_map(|(cell, violation)| Event::OracleViolation { cell, violation }),
        (s.clone(), n, n, n).prop_map(|(reason, completed, total, wall_ns)| {
            Event::CampaignStop {
                reason,
                completed,
                total,
                wall_ns,
            }
        }),
        s.clone().prop_map(|file| Event::ReplayStart { file }),
        (s.clone(), s.clone(), n).prop_map(|(file, verdict, ops)| Event::ReplayOutcome {
            file,
            verdict,
            ops,
        }),
        (n, n, s.clone(), n).prop_map(|(task, worker, label, wall_ns)| Event::WorkerStall {
            task,
            worker,
            label,
            wall_ns,
        }),
        (n, n).prop_map(|(worker, stolen)| Event::StealSummary { worker, stolen }),
        (s.clone(), s.clone(), s.clone()).prop_map(|(path, source, error)| {
            Event::CheckpointRecovered {
                path,
                source,
                error,
            }
        }),
        (s.clone(), s).prop_map(|(path, error)| Event::CheckpointWriteFailed { path, error }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_event_round_trips_byte_identically(seq in any::<u64>(), event in arb_event()) {
        let envelope = Envelope { seq, event };
        let line = envelope.render();
        prop_assert!(!line.contains('\n'), "one event, one line: {line}");
        let parsed = Envelope::parse(&line).unwrap_or_else(|e| panic!("{e} on {line}"));
        prop_assert_eq!(&parsed, &envelope);
        prop_assert_eq!(parsed.render(), line);
    }
}

#[test]
fn metrics_report_simulated_pairs_beside_credited_ones() {
    use sectlb_model::enumerate_vulnerabilities;
    use sectlb_secbench::resilience::measure_cells_resilient;
    use sectlb_secbench::run::TrialSettings;
    use sectlb_secbench::telemetry::{render_metrics, PhaseTimings};
    use sectlb_sim::machine::TlbDesign;

    let v = enumerate_vulnerabilities()[0];
    let cells = [(v, TlbDesign::Sa), (v, TlbDesign::Rf)];
    let settings = TrialSettings {
        trials: 50,
        ..TrialSettings::default()
    };
    for workers in [1, 2] {
        let outcome = measure_cells_resilient(
            &cells,
            &settings,
            NonZeroUsize::new(workers).expect("nonzero"),
            &RunPolicy::default(),
            &Telemetry::disabled(),
            &|b| b,
        )
        .expect("campaign completes");
        // Both cells credit all 50 trials. The seed-free SA cell
        // simulates one pair per 25-trial shard; RF simulates every trial.
        assert_eq!(outcome.stats.trials(), 100, "{workers} workers");
        assert_eq!(
            outcome.stats.trials_simulated(),
            2 + 50,
            "{workers} workers"
        );
        let json = render_metrics("table4", Some(&outcome.stats), PhaseTimings::default(), &[]);
        assert!(json.contains("\"trial_pairs\": 100,"), "{json}");
        assert!(json.contains("\"trial_pairs_simulated\": 52,"), "{json}");
    }
}
