//! Regenerates Table 4: the security evaluation of the SA, SP, and RF
//! TLBs — measured p1*, p2*, C* (500 trials per placement by default)
//! against the theoretical p1, p2, C.
//!
//! Usage: `table4 [--trials N] [--designs sa,sp,rf,fs,ft,ms]
//! [--workers N|auto] [--checkpoint PATH]
//! [--resume PATH] [--retries N] [--kill-after N] [--deadline SECS]
//! [--cell-deadline-ms MS] [--inject-* ...]
//! [--oracle[=RATE]] [--inject-corruption[=PM]]
//! [--events PATH] [--metrics PATH]`
//!
//! `--designs` picks the table's design columns; the default is the
//! paper's SA/SP/RF. `fs` (flush on switch) and `ft` (`fence.t` full
//! clear) are the temporal-partitioning designs, `ms` the
//! multi-page-size TLB.
//!
//! `--oracle` runs the shadow oracle in lockstep with the sampled trials;
//! a violated invariant renders the cell SUSPECT (like QUARANTINED),
//! writes a shrunk repro to `repro/`, and exits
//! [`sectlb_secbench::oracle::EXIT_SUSPECT`].
//!
//! The table is bitwise identical for every worker count; `--workers`
//! only shards the 24×3-cell campaign across threads (one worker by
//! default) and reports the pool's throughput counters. Worker panics are
//! isolated and deterministically retried, progress is checkpointed
//! crash-safely, and cells whose shards keep failing are quarantined in
//! the rendered table instead of aborting the run. The exit code and the
//! stderr summary come from the engine's run, as for every campaign
//! driver: 7 when the budget cut the campaign short, else 4 when a cell
//! was quarantined, else 0 (6 when the oracle found a SUSPECT cell).

use std::num::NonZeroUsize;
use std::path::Path;

use sectlb_bench::observe::Observability;
use sectlb_bench::{campaign, cli};
use sectlb_secbench::oracle;
use sectlb_secbench::report::build_table4;
use sectlb_secbench::run::TrialSettings;
use sectlb_secbench::supervisor;
use sectlb_sim::machine::TlbDesign;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    cli::reject_unknown(&args, &["--trials", "--designs"], &[]);
    let workers = cli::workers_flag(&args);
    let policy = cli::campaign_flags(&args);
    let designs = cli::designs_flag(&args).unwrap_or_else(|| TlbDesign::ALL.to_vec());
    let settings = TrialSettings {
        trials: cli::trials_flag(&args, TrialSettings::default().trials),
        oracle: cli::oracle_flags(&args, &policy, "table4"),
        ..TrialSettings::default()
    };
    let worker_count = workers.unwrap_or(NonZeroUsize::MIN);
    // A default invocation keeps its historical "(serial)" banner and no
    // pool line: it is one worker, and prints exactly its table.
    let report_pool = campaign::reports_pool(workers, &policy);
    eprintln!(
        "running {} trials x 2 placements x 24 vulnerabilities x {} designs ({}) ...",
        settings.trials,
        designs.len(),
        if report_pool {
            format!("{worker_count} workers, resilient engine")
        } else {
            "serial".to_owned()
        }
    );
    let mut obs = Observability::from_args("table4", &args, &policy);
    supervisor::install_signal_handlers();
    obs.campaign_begin();
    let built = build_table4(&designs, &settings, worker_count, &policy, obs.telemetry());
    obs.campaign_end();
    let report = match built {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            obs.finish(None);
            std::process::exit(e.exit_code());
        }
    };
    let summary = oracle::conclude("table4", Path::new("repro"));
    println!("{}", report.render_with_suspects(&summary));
    report.run.eprint_summary(report_pool);
    if !summary.is_empty() {
        println!(
            "WARNING: {} cell(s) SUSPECT; the TLB model misbehaved there",
            summary.suspects.len()
        );
    } else if !report.partial.is_empty() {
        println!(
            "WARNING: {} cell(s) incomplete (budget); resume to finish the verdicts",
            report.partial.len()
        );
    } else if report.quarantined.is_empty() && report.table.all_verdicts_match() {
        println!("all measured defense verdicts match the theoretical ones");
    } else if !report.quarantined.is_empty() {
        println!(
            "WARNING: {} cell(s) quarantined; verdicts incomplete",
            report.quarantined.len()
        );
    } else {
        println!("WARNING: some measured verdicts disagree with theory");
    }
    summary.eprint();
    obs.oracle_summary(&summary);
    obs.finish(Some(&report.run.stats));
    std::process::exit(summary.exit_code(report.run.exit_code()));
}
