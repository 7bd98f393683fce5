//! The trial harness of the security evaluation.
//!
//! Each vulnerability benchmark is run 500 times with the victim's secret
//! address mapped to the tested block and 500 times not mapped
//! (Section 5.3: "24 vulnerability types × 1,000 simulations = 24,000
//! runs"). Every trial runs on an identical copy of the cell's machine,
//! reseeded — empty TLB, a Random Fill Engine seeded from the trial's
//! coordinates — and observes the final step through the TLB-miss
//! counter. The counts of slow trials give the empirical probabilities
//! `p1*` and `p2*` and the channel capacity `C*`.
//!
//! # Why a reseeded copy equals a fresh machine
//!
//! A trial's machine depends on its seed only through the random-fill
//! engines. The OS, page tables, mappings, secure-region registers and
//! TLB geometry are the same for every trial of a cell, and setting them
//! up executes no instruction and draws no randomness. So the cell's
//! machine is built once per shard, and each trial runs on a
//! [`Clone`] of it followed by [`Machine::reseed`], which re-derives
//! every seed the builder hands out (L1, L2 and I-TLB engines, and the
//! oracle's recorded setup). The copy starts from exactly the state a
//! fresh build with the trial seed would have, so it runs the program
//! to exactly the same counters.
//!
//! When no TLB unit of the machine holds a random-fill engine
//! ([`Machine::is_seed_free`]), every trial of the cell is one
//! deterministic run. Unless the shadow oracle is configured (it samples
//! and corrupts per trial seed), each placement then runs once per shard
//! and its outcome is credited to every trial of the shard.

use std::cell::Cell;

use sectlb_model::state::State;
use sectlb_model::Vulnerability;
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_sim::os::OsError;
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::RandomFillEviction;

use crate::capacity::binary_channel_capacity;
use crate::generate::{generate_program, ATTACKER_ASID, VICTIM_ASID};
use crate::oracle::OracleConfig;
use crate::spec::{BenchmarkSpec, Placement};

/// Parameters of a measurement campaign.
#[derive(Debug, Clone, Copy)]
pub struct TrialSettings {
    /// Trials per placement (the paper uses 500).
    pub trials: u32,
    /// TLB geometry (the paper's 8-way 32-entry security setup).
    pub config: TlbConfig,
    /// Base seed; each trial derives its own RFE seed from it.
    pub base_seed: u64,
    /// RF random-fill eviction policy (the insecure `LruWay` variant is
    /// only used by the `ablation_rf` study).
    pub rf_eviction: RandomFillEviction,
    /// Shadow-oracle guardrails (`--oracle[=RATE]`,
    /// `--inject-corruption[=PM]`). `None` leaves the machines at their
    /// build-profile default and never installs a reporting context, so
    /// campaign output is unchanged. Whether a given trial is sampled or
    /// corrupted is a pure function of its seed, preserving the
    /// determinism contract.
    pub oracle: Option<OracleConfig>,
}

impl Default for TrialSettings {
    fn default() -> TrialSettings {
        TrialSettings {
            trials: 500,
            config: TlbConfig::security_eval(),
            base_seed: 0x7ab1e4,
            rf_eviction: RandomFillEviction::RandomWay,
            oracle: None,
        }
    }
}

/// One round of the splitmix64 output function (Steele–Lea–Flood); the
/// workhorse of the per-trial seed derivation.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stable numeric code for a vulnerability: the three pattern states'
/// positions in [`State::ALL`] as three base-10 digits. Independent of
/// hasher internals and of the row's position in any particular table.
pub fn vulnerability_code(v: &Vulnerability) -> u64 {
    let idx = |s: State| State::ALL.iter().position(|&t| t == s).expect("in ALL") as u64;
    idx(v.pattern.s1) * 100 + idx(v.pattern.s2) * 10 + idx(v.pattern.s3)
}

fn design_code(design: TlbDesign) -> u64 {
    // Position in EXTENDED: a stable append-only list, so the codes of
    // the paper's three designs (0..=2) — and with them every pinned
    // measurement — never move.
    TlbDesign::EXTENDED
        .iter()
        .position(|&d| d == design)
        .expect("in EXTENDED") as u64
}

fn placement_code(placement: Placement) -> u64 {
    match placement {
        Placement::Mapped => 0,
        Placement::NotMapped => 1,
    }
}

/// Derives the RFE seed of one trial from the campaign's base seed and
/// the trial's full coordinates, by chaining [`splitmix64`] over each
/// coordinate.
///
/// This is the determinism contract of the whole campaign engine: the
/// seed depends on *what* the trial is, never on *when* or *where* it
/// runs, so any sharding of the trial space — including the serial
/// degenerate case — produces bitwise-identical measurements.
pub fn derive_trial_seed(
    base_seed: u64,
    vulnerability: &Vulnerability,
    design: TlbDesign,
    placement: Placement,
    trial: u32,
) -> u64 {
    let mut s = splitmix64(base_seed);
    for coordinate in [
        vulnerability_code(vulnerability),
        design_code(design),
        placement_code(placement),
        u64::from(trial),
    ] {
        s = splitmix64(s ^ coordinate);
    }
    s
}

/// The measured outcome for one vulnerability on one TLB design — one cell
/// group of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Trials per placement.
    pub trials: u32,
    /// Slow (miss-observed) trials with the secret mapped (`n_{M,M}`).
    pub n_mapped_miss: u32,
    /// Slow trials with the secret not mapped (`n_{N,M}`).
    pub n_not_mapped_miss: u32,
}

impl Measurement {
    /// Empirical `p1*` — probability of a miss observation when mapped.
    pub fn p1(&self) -> f64 {
        f64::from(self.n_mapped_miss) / f64::from(self.trials)
    }

    /// Empirical `p2*` — probability of a miss observation when not
    /// mapped.
    pub fn p2(&self) -> f64 {
        f64::from(self.n_not_mapped_miss) / f64::from(self.trials)
    }

    /// Empirical channel capacity `C*`.
    pub fn capacity(&self) -> f64 {
        binary_channel_capacity(self.p1(), self.p2())
    }

    /// Whether the design defends this vulnerability, using the paper's
    /// reading of Table 4: a capacity of zero or "about 0".
    pub fn defends(&self, threshold: f64) -> bool {
        self.capacity() <= threshold
    }

    /// The empty measurement — the identity of [`Measurement::merge`].
    pub const ZERO: Measurement = Measurement {
        trials: 0,
        n_mapped_miss: 0,
        n_not_mapped_miss: 0,
    };

    /// Combines two disjoint shards of the same campaign cell.
    ///
    /// The merge is commutative and associative (component-wise sums), so
    /// shards may be aggregated in any order — the property the parallel
    /// engine relies on for thread-count-independent results.
    #[must_use]
    pub fn merge(self, other: Measurement) -> Measurement {
        Measurement {
            trials: self.trials + other.trials,
            n_mapped_miss: self.n_mapped_miss + other.n_mapped_miss,
            n_not_mapped_miss: self.n_not_mapped_miss + other.n_not_mapped_miss,
        }
    }
}

/// A machine-setup failure, annotated with the campaign cell that hit it.
///
/// Wraps the simulator's [`OsError`] (map/translate failures) with the
/// vulnerability, design, and setup stage, so a failure deep inside
/// `sectlb_sim` surfaces as "which cell of which table broke and why"
/// instead of a bare `expect` panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetupError {
    /// The vulnerability whose benchmark was being set up.
    pub vulnerability: String,
    /// The TLB design under test.
    pub design: TlbDesign,
    /// The setup stage that failed (e.g. `"map conflict region"`).
    pub stage: &'static str,
    /// The underlying OS/page-table error.
    pub source: OsError,
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "machine setup failed for cell [{} on {} TLB] while trying to {}: {}",
            self.vulnerability, self.design, self.stage, self.source
        )
    }
}

impl std::error::Error for SetupError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Builds a cell's machine: TLB design + geometry, victim and attacker
/// processes, their mapped regions, and the programmed secure region
/// (victim-ASID and `sbase`/`ssize` registers). The machine is left
/// unseeded; each trial runs on a [`Machine::reseed`]ed copy.
///
/// Setup failures (which a fresh machine should never produce, but a
/// customized one from an ablation hook can) are reported with the
/// vulnerability/design cell that hit them instead of panicking.
fn build_machine(
    spec: &BenchmarkSpec,
    design: TlbDesign,
    rf_eviction: RandomFillEviction,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Result<Machine, SetupError> {
    let cell_error = |stage: &'static str| {
        let vulnerability = spec.vulnerability.to_string();
        move |source: OsError| SetupError {
            vulnerability,
            design,
            stage,
            source,
        }
    };
    let builder = MachineBuilder::new()
        .design(design)
        .tlb_config(spec.config)
        .rf_eviction(rf_eviction);
    let mut m = customize(builder).build();
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    debug_assert_eq!(victim, VICTIM_ASID);
    debug_assert_eq!(attacker, ATTACKER_ASID);
    // The victim's secure region (also pre-generates PTEs for the RFE).
    m.protect_victim(victim, spec.region)
        .map_err(cell_error("protect the victim's secure region"))?;
    // Both actors can reach the conflict pages, the in-range page numbers
    // (numerically, in their own address spaces) and their filler page.
    for asid in [victim, attacker] {
        m.os_mut()
            .map_region(asid, spec.dbase, 64)
            .map_err(cell_error("map the conflict region"))?;
        m.os_mut()
            .map_region(asid, spec.region.base, spec.region.pages)
            .ok(); // victim's region is already mapped; attacker's is fresh
        m.os_mut()
            .map_page(asid, spec.filler)
            .map_err(cell_error("map the filler page"))?;
    }
    Ok(m)
}

/// The machines one shard of a cell copies its trials from: the cell's
/// machine as built, plus — only when the campaign configures the shadow
/// oracle — the same machine built with the oracle on, for the trials
/// the oracle arms.
struct TrialTemplate {
    plain: Machine,
    armed: Option<Machine>,
    oracle: Option<OracleConfig>,
}

impl TrialTemplate {
    /// Builds the template machines with `build(oracle_on)`.
    fn new(oracle: Option<OracleConfig>, build: impl Fn(bool) -> Machine) -> TrialTemplate {
        TrialTemplate {
            plain: build(false),
            armed: oracle.map(|_| build(true)),
            oracle,
        }
    }

    /// Whether one simulation per placement stands for every trial: the
    /// machine is seed-free and no oracle sampling or corruption
    /// injection (both chosen per trial seed) is configured.
    fn runs_once(&self) -> bool {
        self.oracle.is_none() && self.plain.is_seed_free()
    }

    /// The trial whose seed is `seed`: a reseeded copy of the template.
    /// When the oracle arms this trial, the copy comes from the armed
    /// template and gets a `tag|{cell}|placement|seed` reporting context
    /// plus the trial's planned corruption, if any.
    fn trial(&self, seed: u64, cell: impl FnOnce() -> String) -> Machine {
        let oracle = self.oracle.filter(|o| o.armed(seed));
        let mut m = match (oracle, &self.armed) {
            (Some(_), Some(armed)) => armed.clone(),
            _ => self.plain.clone(),
        };
        m.reseed(seed);
        if let Some(o) = oracle {
            m.set_oracle_context(format!("{}|{}|{:#x}", o.tag, cell(), seed));
            if let Some((op_index, selector, kind)) = o.corruption(seed) {
                m.schedule_corruption(op_index, selector, kind);
            }
        }
        m
    }

    /// A copy of the template for the single run of a
    /// [`TrialTemplate::runs_once`] template.
    fn once(&self) -> Machine {
        self.plain.clone()
    }
}

/// Runs one trial's program; returns `true` when the timed step was slow
/// (the miss counter advanced).
fn timed_step_slow(mut m: Machine, program: &[Instr]) -> bool {
    m.run_batch(program);
    let reads = &m.stats().counter_reads;
    assert_eq!(reads.len(), 2, "benchmark reads the counter exactly twice");
    reads[1] > reads[0]
}

/// Trial pairs (one mapped plus one not-mapped run) counted on one
/// thread by the trial loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct TrialPairs {
    /// Pairs whose outcome entered a measurement.
    pub(crate) credited: u64,
    /// Pairs actually simulated. A seed-free shard credits all its trials
    /// to one simulated pair, so this trails `credited`.
    pub(crate) simulated: u64,
}

thread_local! {
    /// This thread's running [`TrialPairs`] (see [`trial_pairs`]).
    static TRIAL_PAIRS: Cell<TrialPairs> = const {
        Cell::new(TrialPairs { credited: 0, simulated: 0 })
    };
}

/// The trial pairs this thread has credited and simulated so far. The
/// engine reads it around each shard to report both.
pub(crate) fn trial_pairs() -> TrialPairs {
    TRIAL_PAIRS.with(Cell::get)
}

/// The one trial loop: measures trials `range` of one cell, each placement
/// of each trial on a copy of the cell's machine.
///
/// `build(oracle_on)` builds the machine once (see [`TrialTemplate`]);
/// `seed(placement, trial)` gives a trial's seed, `context(placement)`
/// names the cell in an armed trial's oracle context, and
/// `slow(machine, placement)` runs one trial and reports whether its timed
/// step was slow. A seed-free machine with no oracle configured runs each
/// placement once and credits the outcome to the whole range.
pub(crate) fn run_trials(
    oracle: Option<OracleConfig>,
    build: impl Fn(bool) -> Machine,
    range: std::ops::Range<u32>,
    seed: impl Fn(Placement, u32) -> u64,
    context: impl Fn(Placement) -> String,
    slow: impl Fn(Machine, Placement) -> bool,
) -> Measurement {
    let trials = range.len() as u32;
    if trials == 0 {
        return Measurement::ZERO;
    }
    let template = TrialTemplate::new(oracle, build);
    let placements = [Placement::Mapped, Placement::NotMapped];
    let (misses, simulated) = if template.runs_once() {
        crate::supervisor::preempt_point();
        let misses = placements.map(|p| if slow(template.once(), p) { trials } else { 0 });
        (misses, 1)
    } else {
        let mut misses = [0u32; 2];
        for t in range {
            // Cooperative cell-deadline preemption: unwinds with a typed
            // payload the engine reports as TIMEOUT. A no-op unless the
            // engine armed this thread's flag. Sits between trials, so a
            // preemption never splits a trial's batch mid-run.
            crate::supervisor::preempt_point();
            for (count, placement) in misses.iter_mut().zip(placements) {
                let m = template.trial(seed(placement, t), || context(placement));
                if slow(m, placement) {
                    *count += 1;
                }
            }
        }
        (misses, u64::from(trials))
    };
    TRIAL_PAIRS.with(|c| {
        let p = c.get();
        c.set(TrialPairs {
            credited: p.credited + u64::from(trials),
            simulated: p.simulated + simulated,
        });
    });
    Measurement {
        trials,
        n_mapped_miss: misses[0],
        n_not_mapped_miss: misses[1],
    }
}

/// Measures one vulnerability on one design: the plain single-cell loop
/// over `0..settings.trials` — the reference every engine run of the
/// same cell reproduces bitwise.
pub fn run_vulnerability(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
) -> Measurement {
    run_vulnerability_with_builder(vulnerability, design, settings, |b| b)
}

/// [`run_vulnerability`] with a hook customizing the per-trial machine
/// (used by the ablation studies, e.g. to sweep the SP partition split).
pub fn run_vulnerability_with_builder(
    vulnerability: &Vulnerability,
    design: TlbDesign,
    settings: &TrialSettings,
    customize: impl Fn(MachineBuilder) -> MachineBuilder + Sync,
) -> Measurement {
    let cell = TrialCell::new(vulnerability, design, settings.config);
    run_trial_range(&cell, settings, 0..settings.trials, &customize)
}

/// One campaign cell ready to run: its benchmark specification plus the
/// mapped and not-mapped programs. The programs depend only on the spec
/// and the placement, so they are generated once per cell and shared by
/// every shard of it — the trial loop allocates nothing for them.
#[derive(Debug, Clone)]
pub struct TrialCell {
    /// The resolved benchmark.
    pub spec: BenchmarkSpec,
    /// The TLB design under test.
    pub design: TlbDesign,
    mapped: Vec<Instr>,
    not_mapped: Vec<Instr>,
}

impl TrialCell {
    /// Builds the cell of `vulnerability` on `design` with geometry
    /// `config`.
    pub fn new(vulnerability: &Vulnerability, design: TlbDesign, config: TlbConfig) -> TrialCell {
        let spec = BenchmarkSpec::build_with_config(vulnerability, design, config);
        TrialCell {
            mapped: generate_program(&spec, Placement::Mapped),
            not_mapped: generate_program(&spec, Placement::NotMapped),
            spec,
            design,
        }
    }
}

/// Measures a contiguous range of trial indices for one cell — the shard
/// unit of the campaign engine, also usable directly (the equivalence
/// proptests split campaigns at arbitrary boundaries with it). The result
/// covers `range.len()` trials per placement.
///
/// The cell's machine is built once per call and every trial runs on a
/// reseeded copy of it (see the module docs for why that equals a fresh
/// build). A seed-free machine with no oracle configured runs each
/// placement once and credits the outcome to the whole range.
///
/// A machine-setup failure panics with a [`SetupError`] message carrying
/// the full cell coordinates, which the engine's `catch_unwind` surfaces
/// verbatim in its quarantine report.
pub fn run_trial_range(
    cell: &TrialCell,
    settings: &TrialSettings,
    range: std::ops::Range<u32>,
    customize: &(dyn Fn(MachineBuilder) -> MachineBuilder + Sync),
) -> Measurement {
    let v = &cell.spec.vulnerability;
    run_trials(
        settings.oracle,
        |oracle_on| {
            build_machine(&cell.spec, cell.design, settings.rf_eviction, &|b| {
                let b = customize(b);
                if oracle_on {
                    b.oracle(true)
                } else {
                    b
                }
            })
            .unwrap_or_else(|e| panic!("{e}"))
        },
        range,
        |placement, t| derive_trial_seed(settings.base_seed, v, cell.design, placement, t),
        |placement| format!("{v}|{}|{placement:?}", cell.design),
        |m, placement| {
            let program = match placement {
                Placement::Mapped => &cell.mapped,
                Placement::NotMapped => &cell.not_mapped,
            };
            timed_step_slow(m, program)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sectlb_model::{enumerate_vulnerabilities, Strategy};

    fn settings() -> TrialSettings {
        TrialSettings {
            trials: 60,
            ..TrialSettings::default()
        }
    }

    fn row(strategy: Strategy, s1: &str) -> Vulnerability {
        *enumerate_vulnerabilities()
            .iter()
            .find(|v| v.strategy == strategy && v.pattern.s1.to_string() == s1)
            .expect("row exists")
    }

    #[test]
    fn sa_is_vulnerable_to_prime_probe() {
        let v = row(Strategy::PrimeProbe, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Sa, &settings());
        assert!(m.p1() > 0.95, "p1* = {}", m.p1());
        assert!(m.p2() < 0.05, "p2* = {}", m.p2());
        assert!(m.capacity() > 0.9);
    }

    #[test]
    fn sp_defends_prime_probe() {
        let v = row(Strategy::PrimeProbe, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Sp, &settings());
        assert!(m.defends(0.05), "C* = {}", m.capacity());
    }

    #[test]
    fn rf_defends_prime_probe() {
        let v = row(Strategy::PrimeProbe, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Rf, &settings());
        assert!(m.defends(0.05), "C* = {}", m.capacity());
    }

    #[test]
    fn sa_is_vulnerable_to_internal_collision() {
        let v = row(Strategy::InternalCollision, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Sa, &settings());
        // Hit-based: mapped trials are fast (p1* ~ 0), unmapped slow.
        assert!(m.p1() < 0.05, "p1* = {}", m.p1());
        assert!(m.p2() > 0.95, "p2* = {}", m.p2());
    }

    #[test]
    fn rf_defends_internal_collision_with_two_thirds_miss_rate() {
        let v = row(Strategy::InternalCollision, "A_d");
        let m = run_vulnerability(&v, TlbDesign::Rf, &settings());
        // Table 4: p1* ≈ p2* ≈ 0.67 (1 - 1/sec_range with 3 secure pages).
        assert!((m.p1() - 0.67).abs() < 0.15, "p1* = {}", m.p1());
        assert!((m.p2() - 0.67).abs() < 0.15, "p2* = {}", m.p2());
        assert!(m.defends(0.05), "C* = {}", m.capacity());
    }

    #[test]
    fn all_designs_defend_flush_reload() {
        // The ASID check alone defeats cross-process reloads.
        let v = row(Strategy::FlushReload, "A_d");
        for d in TlbDesign::ALL {
            let m = run_vulnerability(&v, d, &settings());
            assert!(m.p1() > 0.95 && m.p2() > 0.95, "{d}: {m:?}");
            assert!(m.defends(0.05), "{d}");
        }
    }

    #[test]
    fn sp_remains_vulnerable_to_bernstein() {
        let v = row(Strategy::Bernstein, "V_a");
        let m = run_vulnerability(&v, TlbDesign::Sp, &settings());
        assert!(m.capacity() > 0.9, "C* = {}", m.capacity());
    }

    #[test]
    fn temporal_measurements_match_the_closed_form_exactly() {
        // Every FS/FT theory cell is 0/1-deterministic, so simulation must
        // reproduce it exactly — not just within a statistical bound.
        let s = TrialSettings {
            trials: 12,
            ..TrialSettings::default()
        };
        let p = crate::theory::TheoryParams::default();
        for v in enumerate_vulnerabilities() {
            for d in [TlbDesign::Fs, TlbDesign::Ft] {
                let m = run_vulnerability(&v, d, &s);
                let t = crate::theory::paper_theory(&v, d, &p);
                assert_eq!(m.p1(), t.p1, "{v} on {d}: p1* != p1");
                assert_eq!(m.p2(), t.p2, "{v} on {d}: p2* != p2");
            }
        }
    }

    #[test]
    fn ms_measurements_equal_sa_bitwise() {
        // The campaign workloads issue only 4 KiB accesses and MS's base
        // class carries the evaluation geometry, so the split TLB measures
        // identically to SA on every row. Both machines are seed-free
        // (`Machine::is_seed_free`: no random-fill engine anywhere), so
        // differing trial seeds cannot perturb this.
        let s = TrialSettings {
            trials: 12,
            ..TrialSettings::default()
        };
        for v in enumerate_vulnerabilities() {
            for d in [TlbDesign::Sa, TlbDesign::Ms] {
                let spec = BenchmarkSpec::build_with_config(&v, d, s.config);
                let m = build_machine(&spec, d, s.rf_eviction, &|b| b).expect("builds");
                assert!(m.is_seed_free(), "{v} on {d}");
            }
            let sa = run_vulnerability(&v, TlbDesign::Sa, &s);
            let ms = run_vulnerability(&v, TlbDesign::Ms, &s);
            assert_eq!(sa, ms, "{v}: MS diverged from SA");
        }
    }

    #[test]
    fn measurements_are_deterministic_for_a_seed() {
        let v = row(Strategy::PrimeProbe, "A_a");
        let s = settings();
        let a = run_vulnerability(&v, TlbDesign::Rf, &s);
        let b = run_vulnerability(&v, TlbDesign::Rf, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn trial_seeds_are_unique_across_coordinates() {
        use std::collections::HashSet;
        let vulns = enumerate_vulnerabilities();
        let mut seeds = HashSet::new();
        for v in vulns.iter().take(4) {
            for design in TlbDesign::ALL {
                for placement in [Placement::Mapped, Placement::NotMapped] {
                    for trial in 0..50 {
                        seeds.insert(derive_trial_seed(0x7ab1e4, v, design, placement, trial));
                    }
                }
            }
        }
        assert_eq!(seeds.len(), 4 * 3 * 2 * 50, "seed collision");
    }

    #[test]
    fn trial_seeds_move_with_the_base_seed() {
        let v = row(Strategy::PrimeProbe, "A_a");
        let a = derive_trial_seed(1, &v, TlbDesign::Sa, Placement::Mapped, 0);
        let b = derive_trial_seed(2, &v, TlbDesign::Sa, Placement::Mapped, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_is_commutative_and_has_identity() {
        let a = Measurement {
            trials: 10,
            n_mapped_miss: 3,
            n_not_mapped_miss: 7,
        };
        let b = Measurement {
            trials: 5,
            n_mapped_miss: 1,
            n_not_mapped_miss: 0,
        };
        assert_eq!(a.merge(b), b.merge(a));
        assert_eq!(a.merge(Measurement::ZERO), a);
        assert_eq!(a.merge(b).trials, 15);
    }
}
