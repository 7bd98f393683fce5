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
//! Further tests check that a Table 4 campaign carries exactly one
//! campaign envelope, also when `--kill-after` interrupts it, and run
//! real campaigns, over cells and over whole survey rows, to check that
//! the metrics snapshot reports simulated trial pairs beside the
//! credited ones.

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
    // The engine wraps the campaign in its start/stop envelope; inside
    // it, one worker drains the queue in task order: claim/complete
    // pairs, strictly sequenced.
    let expected = [
        r#"{"v":1,"seq":0,"event":"campaign_start","driver":"golden","fingerprint":"000000000000abcd","tasks":3,"workers":1}"#,
        r#"{"v":1,"seq":1,"event":"shard_claim","task":0,"worker":0,"label":"task 5"}"#,
        r#"{"v":1,"seq":2,"event":"shard_complete","task":0,"worker":0,"wall_ns":0}"#,
        r#"{"v":1,"seq":3,"event":"shard_claim","task":1,"worker":0,"label":"task 6"}"#,
        r#"{"v":1,"seq":4,"event":"shard_complete","task":1,"worker":0,"wall_ns":0}"#,
        r#"{"v":1,"seq":5,"event":"shard_claim","task":2,"worker":0,"label":"task 7"}"#,
        r#"{"v":1,"seq":6,"event":"shard_complete","task":2,"worker":0,"wall_ns":0}"#,
        r#"{"v":1,"seq":7,"event":"campaign_stop","reason":"complete","completed":3,"total":3,"wall_ns":0}"#,
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

/// The `event` names of a JSONL stream, in order.
fn event_names(text: &str) -> Vec<&str> {
    text.lines()
        .map(|line| {
            Envelope::parse(line).expect("every emitted line parses");
            line.split("\"event\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .expect("every line names its event")
        })
        .collect()
}

#[test]
fn a_table4_campaign_emits_exactly_one_envelope() {
    use sectlb_secbench::report::build_table4;
    use sectlb_secbench::resilience::CampaignError;
    use sectlb_secbench::run::TrialSettings;
    use sectlb_secbench::CheckpointPolicy;
    use sectlb_sim::machine::TlbDesign;

    let settings = TrialSettings {
        trials: 6,
        ..TrialSettings::default()
    };
    let workers = NonZeroUsize::new(2).expect("nonzero");
    let checkpoint =
        std::env::temp_dir().join(format!("sectlb-telemetry-envelope-{}", std::process::id()));
    let killed = RunPolicy {
        checkpoint: Some(CheckpointPolicy::new(checkpoint.clone())),
        stop_after: Some(20),
        ..RunPolicy::default()
    };
    for (policy, stop_reason) in [(RunPolicy::default(), "complete"), (killed, "kill-after")] {
        let buf = SharedBuf::default();
        let telemetry = Telemetry::armed("table4", Some(Box::new(buf.clone())));
        let built = build_table4(&TlbDesign::ALL, &settings, workers, &policy, &telemetry);
        match (&built, stop_reason) {
            (Ok(report), "complete") => assert_eq!(report.run.exit_code(), 0),
            (Err(CampaignError::Interrupted { .. }), "kill-after") => {}
            (other, _) => panic!("unexpected outcome {other:?}"),
        }
        let bytes = buf.0.lock().expect("buffer lock").clone();
        let text = String::from_utf8(bytes).expect("stream is UTF-8");
        let names = event_names(&text);
        let count = |name: &str| names.iter().filter(|n| **n == name).count();
        assert_eq!(count("campaign_start"), 1, "{stop_reason}:\n{text}");
        assert_eq!(count("campaign_stop"), 1, "{stop_reason}:\n{text}");
        assert_eq!(names.first(), Some(&"campaign_start"));
        assert_eq!(names.last(), Some(&"campaign_stop"));
        let last = text.lines().last().expect("stream is not empty");
        assert!(
            last.contains(&format!("\"reason\":\"{stop_reason}\"")),
            "{last}"
        );
    }
    std::fs::remove_file(&checkpoint).ok();
    std::fs::remove_file(sectlb_secbench::iofault::prev_path(&checkpoint)).ok();
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
    use sectlb_secbench::mitigations::{defended_count, Mitigation};
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

    // A mitigations-style campaign: each engine task is a whole survey
    // row of 24 cells, not a trial range. Its credited pairs are counted
    // where the trials run, so they are not 0.
    let settings = TrialSettings {
        trials: 10,
        ..settings
    };
    let rows = [Mitigation::AsidTags, Mitigation::RandomFill];
    for workers in [1, 2] {
        let run = run_sharded_resilient(
            &rows,
            NonZeroUsize::new(workers).expect("nonzero"),
            &RunPolicy::default(),
            0x5eed,
            &|m| m.label().to_owned(),
            &Telemetry::disabled(),
            |m| defended_count(*m, &settings, 0.06) as u64,
        )
        .expect("campaign completes");
        // 2 rows x 24 cells x 10 trials credited. The seed-free SA row
        // simulates one pair per cell; RF simulates every trial.
        assert_eq!(run.stats.trials(), 480, "{workers} workers");
        assert_eq!(run.stats.trials_simulated(), 24 + 240, "{workers} workers");
        let json = render_metrics(
            "mitigations",
            Some(&run.stats),
            PhaseTimings::default(),
            &[],
        );
        assert!(json.contains("\"trial_pairs\": 480,"), "{json}");
        assert!(json.contains("\"trial_pairs_simulated\": 264,"), "{json}");
    }
}
