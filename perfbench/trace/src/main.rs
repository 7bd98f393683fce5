//! The benchmark's traced run: replays one workload's cells through the
//! layers' public functions with a span around each call, and prints one
//! JSON object with per-layer times, simulated counters, each cell's
//! outcome as its driver prints it, and any entry/replay mismatch.
//!
//! Usage: `perfbench-trace --workload table4|survey|fig7-quick
//! [--seed S] [--spans PATH]`
//!
//! Without `--seed` the security trials use the drivers' own base seed,
//! so the outcomes can be checked against the drivers' outputs. With
//! `--seed S` they derive their seeds from `S` instead; the cells whose
//! seeds the drivers fix (Appendix B trials, Figure 7 cells) are
//! unchanged. `--spans PATH` writes every span as tab-separated lines.
//!
//! `perfbench-trace --probe` instead times the host-speed probe once and
//! prints its run time in seconds.

mod probe;
mod replay;
mod spans;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

use sectlb_secbench::run::TrialSettings;

use replay::Replay;
use spans::{entry_and_replayed_ns, layer_times, Name};

const USAGE: &str = "usage: perfbench-trace --workload table4|survey|fig7-quick \
                     [--seed S] [--spans PATH] | --probe";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn fail(message: &str) -> ! {
    eprintln!("perfbench-trace: {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--probe") {
        let started = Instant::now();
        std::hint::black_box(probe::kernel());
        println!("{:e}", started.elapsed().as_secs_f64());
        return;
    }
    let workload = flag(&args, "--workload").unwrap_or_else(|| fail(USAGE));
    let seed = flag(&args, "--seed").map(|s| {
        s.parse::<u64>()
            .unwrap_or_else(|_| fail(&format!("--seed needs a whole number, got {s:?}")))
    });
    let mut replay = Replay::new(seed.unwrap_or(TrialSettings::default().base_seed));
    let started = Instant::now();
    if let Err(e) = replay.run(workload) {
        fail(&e);
    }
    let wall_s = started.elapsed().as_secs_f64();
    if let Some(path) = flag(&args, "--spans") {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            replay.tracer.write_tsv(&mut out)?;
            out.flush()
        });
        if let Err(e) = written {
            fail(&format!("writing spans to {path}: {e}"));
        }
    }
    println!("{}", to_json(workload, seed, wall_s, &replay));
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn to_json(workload: &str, seed: Option<u64>, wall_s: f64, replay: &Replay) -> String {
    let spans = replay.tracer.spans();
    let layers: Vec<String> = layer_times(spans)
        .into_iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"count\": {}, \"total_s\": {:e}, \"self_s\": {:e}}}",
                quote(name.as_str()),
                t.count,
                t.total_ns as f64 * 1e-9,
                t.self_ns as f64 * 1e-9
            )
        })
        .collect();
    let (cell_ns, replayed_ns) = entry_and_replayed_ns(spans, Name::SecbenchCell);
    let counters: Vec<String> = replay
        .counters
        .named()
        .iter()
        .map(|(name, value)| format!("{}: {value}", quote(name)))
        .collect();
    let outcomes: Vec<String> = replay
        .outcomes
        .iter()
        .map(|(k, v)| format!("[{}, {}]", quote(k), quote(v)))
        .collect();
    let mismatches: Vec<String> = replay.mismatches.iter().map(|m| quote(m)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"wall_s\": {wall_s:e}, \"layers\": {{{}}}, \
         \"secbench_entry_s\": {:e}, \"secbench_replayed_s\": {:e}, \"counters\": {{{}}}, \
         \"outcomes\": [{}], \"mismatches\": [{}]}}",
        quote(workload),
        seed.map_or("null".to_owned(), |s| s.to_string()),
        layers.join(", "),
        cell_ns as f64 * 1e-9,
        replayed_ns as f64 * 1e-9,
        counters.join(", "),
        outcomes.join(", "),
        mismatches.join(", ")
    )
}
