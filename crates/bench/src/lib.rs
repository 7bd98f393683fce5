//! Benchmark harness regenerating every table and figure of *Secure TLBs*
//! (ISCA 2019).
//!
//! Binaries (run with `--release`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table2` | Table 2 — the 24 derived vulnerability types |
//! | `table4` | Table 4 — security evaluation of SA/SP/RF (use `--trials N`) |
//! | `table5` | Table 5 — FPGA area model vs. the paper |
//! | `table7` | Table 7 — extended invalidation vulnerabilities |
//! | `fig7`   | Figure 7(a)–(f) — IPC and MPKI across 19 TLB configurations |
//! | `attack_success` | Section 2.2/5.1 — TLBleed-style attack accuracy per design |
//!
//! Every campaign driver runs on the one campaign engine in
//! `sectlb_secbench::resilience`, on one worker by default. `--workers N`
//! (or `--workers auto`) shards its trial space across more threads;
//! outputs are bitwise identical for every worker count. See the [`cli`]
//! module for the shared flag parsing.
//!
//! Campaign drivers also accept the fault-tolerance flags
//! (`--checkpoint`, `--resume`, `--retries`, `--kill-after`,
//! `--stall-deadline-ms`, and the `--inject-*` fault-injection harness)
//! — see the [`campaign`] module for the shared driver glue, and the
//! [`exit`] module for the exit-code contract every driver honors.
//!
//! The resource-budget flags (`--deadline SECS`, `--cell-deadline-ms MS`)
//! bound a campaign's wall-clock time: on expiry — or on SIGINT/SIGTERM —
//! the drivers stop claiming work, drain, flush the checkpoint, render a
//! partial report with `PARTIAL`/`TIMEOUT` cell markers, and exit with
//! `sectlb_secbench::supervisor::EXIT_BUDGET`. Where supported,
//! `--adaptive[=ALPHA]` stops each cell's trials early once its verdict
//! is statistically settled, without ever changing a verdict.
//!
//! Every driver additionally accepts the observability flags
//! (`--events PATH` for the versioned JSONL event stream, `--metrics
//! PATH` for the aggregated `BENCH_<driver>.json` snapshot) — see the
//! [`observe`] module for the shared wiring. Both default off, and with
//! neither flag the text output is byte-identical to a run without the
//! telemetry layer.
//!
//! The [`perf`] module holds the Figure 7 machinery shared between the
//! `fig7` binary and the integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cli;
pub mod exit;
pub mod observe;
pub mod perf;
