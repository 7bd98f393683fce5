//! End-to-end tests of the drivers' flag error paths and exit codes.
//!
//! Each case spawns a real driver binary and pins (a) the exit code and
//! (b) the specific diagnostic — a malformed invocation must fail fast
//! with exit 2 and an actionable message, never start a campaign, and
//! `--help` must not be treated as an error.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn replay_help_prints_usage_to_stdout_and_exits_clean() {
    for flag in ["--help", "-h"] {
        let out = run(env!("CARGO_BIN_EXE_replay"), &[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag} is not an error");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: replay REPRO_FILE..."), "{stdout}");
        assert!(out.stderr.is_empty(), "usage belongs on stdout for --help");
    }
}

#[test]
fn replay_without_arguments_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_replay"), &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage: replay REPRO_FILE..."));
    assert!(out.stdout.is_empty(), "errors belong on stderr");
}

#[test]
fn zero_workers_fails_fast_with_a_specific_message() {
    let out = run(env!("CARGO_BIN_EXE_table5"), &["--workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--workers must be at least 1"), "{err}");
    assert!(out.stdout.is_empty(), "no campaign output before the error");
}

#[test]
fn zero_trials_fails_fast_with_a_specific_message() {
    for bin in [
        env!("CARGO_BIN_EXE_table4"),
        env!("CARGO_BIN_EXE_mitigations"),
        env!("CARGO_BIN_EXE_ablation_rf"),
        env!("CARGO_BIN_EXE_ablation_sp_ways"),
        env!("CARGO_BIN_EXE_table7_eval"),
    ] {
        let out = run(bin, &["--trials", "0"]);
        assert_eq!(out.status.code(), Some(2), "{bin}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("--trials must be at least 1"), "{bin}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{bin}: no campaign output before the error"
        );
    }
}

#[test]
fn attack_success_seeds_must_be_a_positive_number() {
    for (args, needle) in [
        (&["--seeds", "0"][..], "--seeds must be at least 1"),
        (&["--seeds", "many"], "--seeds needs a number, got \"many\""),
        (&["--seeds"], "--seeds needs a value"),
    ] {
        let out = run(env!("CARGO_BIN_EXE_attack_success"), args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no attack runs before the error"
        );
    }
}

#[test]
fn checkpoint_every_without_checkpoint_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_table5"), &["--checkpoint-every", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--checkpoint-every requires --checkpoint PATH"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_per_mille_rates_are_rejected() {
    for args in [
        &["--inject-corruption=1001"][..],
        &["--inject-corruption=abc"],
        &["--oracle=1001"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_table5"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("per-mille rate (0..=1000)"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn kill_after_without_checkpoint_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_attack_success"), &["--kill-after", "3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("--kill-after requires --checkpoint"), "{err}");
    assert!(err.contains("discards all completed work"), "{err}");
}

#[test]
fn kill_after_zero_is_rejected() {
    let out = run(
        env!("CARGO_BIN_EXE_attack_success"),
        &["--checkpoint", "ck.txt", "--kill-after", "0"],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--kill-after must be at least 1"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn malformed_budget_flags_are_rejected() {
    for (args, needle) in [
        (
            &["--deadline", "0"][..],
            "--deadline needs a positive number",
        ),
        (&["--deadline", "soon"], "--deadline needs a number"),
        (
            &["--cell-deadline-ms", "0"],
            "--cell-deadline-ms must be at least 1",
        ),
    ] {
        let out = run(env!("CARGO_BIN_EXE_table5"), args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

/// The eight drivers that parse their flags through `sectlb_bench::cli`.
const CAMPAIGN_DRIVERS: [&str; 8] = [
    env!("CARGO_BIN_EXE_table4"),
    env!("CARGO_BIN_EXE_table5"),
    env!("CARGO_BIN_EXE_mitigations"),
    env!("CARGO_BIN_EXE_ablation_rf"),
    env!("CARGO_BIN_EXE_ablation_sp_ways"),
    env!("CARGO_BIN_EXE_attack_success"),
    env!("CARGO_BIN_EXE_fig7"),
    env!("CARGO_BIN_EXE_table7_eval"),
];

#[test]
fn every_campaign_driver_rejects_retired_and_misspelt_flags() {
    // `--adaptive`, `--stall-deadline-ms` and `--inject-stall` are
    // retired flags; `--trail` a typo of `--trials`. Each must stop the
    // driver before it runs a campaign.
    for bin in CAMPAIGN_DRIVERS {
        for args in [
            &["--adaptive"][..],
            &["--stall-deadline-ms", "250"],
            &["--inject-stall", "100"],
            &["--trail", "50"],
        ] {
            let out = run(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let err = stderr(&out);
            assert!(
                err.contains(&format!("unknown argument {:?}", args[0])),
                "{bin} {args:?}: {err}"
            );
            assert!(
                out.stdout.is_empty(),
                "{bin} {args:?}: no output before the error"
            );
        }
    }
}

#[test]
fn preempted_shards_exit_budget_without_panic_reports() {
    // Every shard overruns a 1 ms cell deadline. Preemption is not a
    // fault: the cells render TIMEOUT, the driver exits 7, and stderr
    // carries no panic report.
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_ablation_rf"),
            &["--trials", "3000", "--cell-deadline-ms", "1"][..],
        ),
        (
            env!("CARGO_BIN_EXE_table7_eval"),
            &["--trials", "5000", "--oracle", "--cell-deadline-ms", "1"],
        ),
    ] {
        let out = run(bin, args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(7), "{bin}: {err}");
        assert!(!err.contains("panicked at"), "{bin}: {err}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("TIMEOUT"), "{bin}: {stdout}");
    }
}

#[test]
fn fig7_design_needs_a_known_value() {
    let out = run(env!("CARGO_BIN_EXE_fig7"), &["--quick", "--design"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--design needs a value"),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "no panels before the error");

    let out = run(env!("CARGO_BIN_EXE_fig7"), &["--quick", "--design", "xx"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--design: unknown design \"xx\""),
        "{}",
        stderr(&out)
    );
    assert!(out.stdout.is_empty(), "no panels before the error");
}
