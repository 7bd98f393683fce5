//! Reproduces the Section 2.3 survey: how many of the 24 vulnerability
//! types each pre-existing mitigation (and each of the paper's designs)
//! defends.
//!
//! Usage: `mitigations [--trials N] [--extended] [--workers N|auto]
//! [--checkpoint PATH] [--resume PATH] [--retries N]
//! [--kill-after N] [--inject-* ...] [--events PATH] [--metrics PATH]`
//!
//! `--extended` appends the temporal-partitioning designs (FS hardware
//! flush-on-switch, FT `fence.t` full clear) and the multi-page-size
//! TLB to the survey; the classic five rows keep their exact output.
//!
//! The survey runs on the campaign engine, one shard per mitigation: a
//! panicking survey row is retried deterministically and, if it keeps failing, reported as
//! quarantined instead of aborting the others.

use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::mitigations::{defended_count, Mitigation};
use sectlb_secbench::oracle;
use sectlb_secbench::run::TrialSettings;

/// The defended-capacity threshold this survey has always used.
const THRESHOLD: f64 = 0.06;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown(&args, &["--trials"], &["--extended"]);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    let survey: &[Mitigation] = if args.iter().any(|a| a == "--extended") {
        &Mitigation::EXTENDED
    } else {
        &Mitigation::ALL
    };
    let settings = TrialSettings {
        trials: cli::trials_flag(&args, 300),
        oracle: cli::oracle_flags(&args, &policy, "mitigations"),
        ..TrialSettings::default()
    };
    let mut obs = Observability::from_args("mitigations", &args, &policy);
    println!("Section 2.3: existing mitigations vs. the 24 vulnerability types");
    println!("({} trials per placement)\n", settings.trials);
    println!("{:<42} {:>10} {:>8}", "approach", "measured", "paper");
    let tasks: Vec<Mitigation> = survey.to_vec();
    obs.campaign_begin();
    let outcome = campaign::run_campaign(
        "mitigations",
        [u64::from(settings.trials), settings.base_seed],
        &tasks,
        workers,
        &policy,
        obs.telemetry(),
        &|m: &Mitigation| m.label().to_owned(),
        |m: &Mitigation| defended_count(*m, &settings, THRESHOLD) as u64,
    );
    obs.campaign_end();
    for (m, result) in tasks.iter().zip(&outcome.results) {
        match result.as_result() {
            Ok(measured) => println!(
                "{:<42} {:>7}/24 {:>5}/24",
                m.label(),
                measured,
                m.paper_defended_count()
            ),
            Err(marker) => println!(
                "{:<42} {:>10} {:>5}/24",
                m.label(),
                marker,
                m.paper_defended_count()
            ),
        }
    }
    print_reading();
    let summary = oracle::conclude("mitigations", Path::new("repro"));
    print_suspects(&summary);
    outcome.eprint_summary(campaign::reports_pool(workers, &policy));
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&outcome.stats));
    std::process::exit(summary.exit_code(outcome.exit_code()));
}

/// A mitigation row aggregates 24 vulnerabilities on a shared design, so
/// a violation cannot be pinned to one printed row; surface the affected
/// trial contexts as a table footer instead.
fn print_suspects(summary: &oracle::OracleSummary) {
    if summary.is_empty() {
        return;
    }
    println!(
        "\nWARNING: {} SUSPECT trial context(s) (shadow-oracle violation); counts above are \
         untrustworthy",
        summary.suspects.len()
    );
}

fn print_reading() {
    println!("\nFlushing on context switches (Sanctum/SGX) matches the SP TLB's");
    println!("coverage but pays the flush on every switch; the FA TLB removes");
    println!("the set-index channel entirely but leaks internal collisions;");
    println!("only the RF TLB defends everything.");
}
