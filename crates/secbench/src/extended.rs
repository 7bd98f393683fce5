//! Security evaluation of the Appendix B (targeted invalidation) attacks.
//!
//! The paper enumerates the extra vulnerabilities that appear when an ISA
//! can invalidate a *specific* TLB entry (e.g. `mprotect()`-induced
//! shootdowns) but stops short of evaluating the secure designs against
//! them. This module does that evaluation — and it exposes a real gap:
//! the published RF TLB randomizes *fills* but not *invalidations*, so a
//! precise invalidation of a secure entry is deterministic and partially
//! observable. The [`InvalidationPolicy::RegionFlush`] extension (this
//! reproduction's addition) closes the gap by invalidating the whole
//! secure region in constant time whenever any secure page is invalidated.
//!
//! Final-step invalidations are timed through the *cycle* counter (an
//! invalidation of a present entry takes one extra cycle — the paper's
//! Flush + Flush discussion), while final-step accesses use the TLB-miss
//! counter as in the base benchmarks.
//!
//! [`InvalidationPolicy::RegionFlush`]: sectlb_tlb::InvalidationPolicy::RegionFlush

use sectlb_model::state::Actor;
use sectlb_sim::cpu::Instr;
use sectlb_sim::machine::{Machine, MachineBuilder, TlbDesign};
use sectlb_tlb::config::TlbConfig;
use sectlb_tlb::types::{SecureRegion, Vpn};
use sectlb_tlb::InvalidationPolicy;

use crate::generate::{ATTACKER_ASID, VICTIM_ASID};
use crate::oracle::OracleConfig;
use crate::run::{run_trials, Measurement};
use crate::spec::{Placement, SBASE};

/// One step of an extended benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtStep {
    /// Actor loads the known in-range address `a`.
    AccessA(Actor),
    /// The victim loads its secret address `u`.
    AccessU,
    /// The victim invalidates its secret page (`V_u^inv`).
    InvU,
    /// Actor invalidates the known address `a` in its own address space
    /// (`A_a^inv` / `V_a^inv`).
    InvA(Actor),
}

/// A representative extended vulnerability benchmark.
#[derive(Debug, Clone)]
pub struct ExtBenchmark {
    /// The Table 7 family this exercises.
    pub name: &'static str,
    /// The three-step pattern in the paper's notation.
    pub pattern: &'static str,
    /// Setup operations executed before the pattern (e.g. making the
    /// entry that step 1 invalidates resident in the first place).
    pub setup: Vec<ExtStep>,
    /// The three pattern steps; the last is the timed one.
    pub steps: [ExtStep; 3],
}

/// The evaluated design variants: the paper's three designs plus the RF
/// TLB with the region-flush invalidation extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtDesign {
    /// Standard set-associative TLB.
    Sa,
    /// Static-Partition TLB.
    Sp,
    /// Random-Fill TLB as published (precise invalidation).
    RfPrecise,
    /// Random-Fill TLB with the region-flush invalidation extension.
    RfRegionFlush,
}

impl ExtDesign {
    /// All evaluated variants.
    pub const ALL: [ExtDesign; 4] = [
        ExtDesign::Sa,
        ExtDesign::Sp,
        ExtDesign::RfPrecise,
        ExtDesign::RfRegionFlush,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ExtDesign::Sa => "SA",
            ExtDesign::Sp => "SP",
            ExtDesign::RfPrecise => "RF (precise inv)",
            ExtDesign::RfRegionFlush => "RF (region flush)",
        }
    }
}

/// The representative extended benchmarks, one per Table 7 family that
/// introduces new behavior (external variants that the ASID check already
/// kills are represented once).
pub fn extended_benchmarks() -> Vec<ExtBenchmark> {
    use Actor::{Attacker as A, Victim as V};
    use ExtStep::*;
    vec![
        ExtBenchmark {
            name: "TLB Flush + Probe (external)",
            pattern: "A_a ~> V_u^inv ~> A_a (slow)",
            setup: vec![AccessU],
            steps: [AccessA(A), InvU, AccessA(A)],
        },
        ExtBenchmark {
            name: "TLB Flush + Probe (internal)",
            pattern: "V_a ~> V_u^inv ~> V_a (slow)",
            setup: vec![AccessU],
            steps: [AccessA(V), InvU, AccessA(V)],
        },
        ExtBenchmark {
            name: "TLB Flush + Time (internal)",
            pattern: "V_u ~> V_a^inv ~> V_u (slow)",
            setup: vec![],
            steps: [AccessU, InvA(V), AccessU],
        },
        ExtBenchmark {
            name: "TLB Reload + Time (internal)",
            pattern: "V_u^inv ~> V_a ~> V_u (fast)",
            setup: vec![AccessU],
            steps: [InvU, AccessA(V), AccessU],
        },
        ExtBenchmark {
            name: "TLB Flush + Flush (internal)",
            pattern: "V_a ~> V_u^inv ~> V_a^inv (slow)",
            setup: vec![AccessU],
            steps: [AccessA(V), InvU, InvA(V)],
        },
        ExtBenchmark {
            name: "TLB Internal Collision (inv-primed)",
            pattern: "V_a^inv ~> V_u ~> V_a (fast)",
            setup: vec![AccessA(V)],
            steps: [InvA(V), AccessU, AccessA(V)],
        },
    ]
}

/// Secure region for the extended evaluation: 3 pages as in the base
/// non-contention benchmarks.
const SEC_PAGES: u64 = 3;

fn lower(step: ExtStep, u: Vpn, a: Vpn) -> Vec<Instr> {
    let asid = |actor| match actor {
        Actor::Victim => VICTIM_ASID,
        Actor::Attacker => ATTACKER_ASID,
    };
    match step {
        ExtStep::AccessA(actor) => vec![Instr::SetAsid(asid(actor)), Instr::Load(a.base_addr())],
        ExtStep::AccessU => vec![Instr::SetAsid(VICTIM_ASID), Instr::Load(u.base_addr())],
        ExtStep::InvU => vec![Instr::SetAsid(VICTIM_ASID), Instr::FlushPage(u.base_addr())],
        ExtStep::InvA(actor) => {
            vec![Instr::SetAsid(asid(actor)), Instr::FlushPage(a.base_addr())]
        }
    }
}

/// Builds the machine every trial of `design` copies: the design with
/// its invalidation policy, victim and attacker processes, and the
/// victim's secure region mapped into both address spaces.
fn build_machine(design: ExtDesign, oracle_on: bool) -> Machine {
    let (tlb_design, policy) = match design {
        ExtDesign::Sa => (TlbDesign::Sa, InvalidationPolicy::Precise),
        ExtDesign::Sp => (TlbDesign::Sp, InvalidationPolicy::Precise),
        ExtDesign::RfPrecise => (TlbDesign::Rf, InvalidationPolicy::Precise),
        ExtDesign::RfRegionFlush => (TlbDesign::Rf, InvalidationPolicy::RegionFlush),
    };
    let mut b = MachineBuilder::new()
        .design(tlb_design)
        .tlb_config(TlbConfig::security_eval())
        .rf_invalidation(policy);
    if oracle_on {
        b = b.oracle(true);
    }
    let mut m = b.build();
    let victim = m.os_mut().create_process();
    let attacker = m.os_mut().create_process();
    let region = SecureRegion::new(SBASE, SEC_PAGES);
    m.protect_victim(victim, region).expect("fresh machine");
    for asid in [victim, attacker] {
        m.os_mut().map_region(asid, SBASE, SEC_PAGES).ok();
    }
    m
}

/// Runs one extended trial on `m`; returns `true` when the timed step
/// was slow.
fn run_trial(mut m: Machine, bench: &ExtBenchmark, placement: Placement) -> bool {
    let a = SBASE;
    let u = match placement {
        Placement::Mapped => a,
        Placement::NotMapped => SBASE.offset(1),
    };
    for &s in bench.setup.iter().chain(&bench.steps[..2]) {
        for i in lower(s, u, a) {
            m.exec(i);
        }
    }
    // Timed step: accesses observe the miss counter; invalidations observe
    // the cycle counter (present entries cost one extra cycle).
    let timed = lower(bench.steps[2], u, a);
    let (ctx, op) = timed.split_at(timed.len() - 1);
    for &i in ctx {
        m.exec(i);
    }
    let misses_before = m.tlb_misses();
    let cycles_before = m.stats().cycles;
    m.exec(op[0]);
    match op[0] {
        Instr::FlushPage(_) => m.stats().cycles - cycles_before > 1,
        _ => m.tlb_misses() > misses_before,
    }
}

/// Measures one extended benchmark on one design variant (serially).
pub fn run_extended(bench: &ExtBenchmark, design: ExtDesign, trials: u32) -> Measurement {
    run_extended_oracle(bench, design, trials, None)
}

/// [`run_extended`] with optional shadow-oracle guardrails — the entry
/// point of the `table7_eval` driver's `--oracle` mode. The per-trial
/// seed depends only on the trial index.
///
/// The trials run through the same loop as
/// [`crate::run::run_trial_range`]: the design's machine is built once
/// and every trial runs on a reseeded copy, a seed-free machine with no
/// oracle configured runs each placement once, and a cell deadline can
/// preempt the run between trials. An armed trial runs the shadow
/// checker in lockstep with a `tag|benchmark|design|placement|seed`
/// reporting context, and gets its planned corruption if any.
pub fn run_extended_oracle(
    bench: &ExtBenchmark,
    design: ExtDesign,
    trials: u32,
    oracle: Option<OracleConfig>,
) -> Measurement {
    run_trials(
        oracle,
        |oracle_on| build_machine(design, oracle_on),
        0..trials,
        |placement, t| {
            let seed = (u64::from(t) << 4) ^ 0x0ec4_eded;
            match placement {
                Placement::Mapped => seed,
                Placement::NotMapped => seed ^ 1,
            }
        },
        |placement| format!("{}|{}|{placement:?}", bench.name, design.label()),
        |m, placement| run_trial(m, bench, placement),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRIALS: u32 = 120;

    fn capacity(name: &str, design: ExtDesign) -> f64 {
        let bench = extended_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no benchmark {name}"));
        run_extended(&bench, design, TRIALS).capacity()
    }

    #[test]
    fn external_flush_probe_is_defended_by_asids_everywhere() {
        for d in ExtDesign::ALL {
            let c = capacity("TLB Flush + Probe (external)", d);
            assert!(c < 0.05, "{}: C* = {c}", d.label());
        }
    }

    #[test]
    fn internal_flush_probe_breaks_sa_and_sp() {
        for d in [ExtDesign::Sa, ExtDesign::Sp] {
            let c = capacity("TLB Flush + Probe (internal)", d);
            assert!(c > 0.9, "{}: C* = {c}", d.label());
        }
    }

    #[test]
    fn precise_invalidation_leaks_on_the_published_rf() {
        // The gap: deterministic invalidation of a secure entry partially
        // re-correlates the attacker's observation with the secret.
        let c = capacity("TLB Flush + Probe (internal)", ExtDesign::RfPrecise);
        assert!(
            c > 0.05,
            "expected a measurable channel on precise-inv RF, got C* = {c}"
        );
    }

    #[test]
    fn region_flush_closes_the_invalidation_channels() {
        for name in [
            "TLB Flush + Probe (internal)",
            "TLB Flush + Time (internal)",
            "TLB Flush + Flush (internal)",
        ] {
            let c = capacity(name, ExtDesign::RfRegionFlush);
            assert!(c < 0.05, "{name}: C* = {c}");
        }
    }

    #[test]
    fn flush_flush_breaks_sa() {
        let c = capacity("TLB Flush + Flush (internal)", ExtDesign::Sa);
        assert!(c > 0.9, "C* = {c}");
    }

    #[test]
    fn inv_primed_collision_is_defended_by_rf_fill_randomization() {
        // Fill-path attacks stay defended even with precise invalidation:
        // the randomization the paper designed is doing its job.
        for d in [ExtDesign::RfPrecise, ExtDesign::RfRegionFlush] {
            let c = capacity("TLB Internal Collision (inv-primed)", d);
            assert!(c < 0.05, "{}: C* = {c}", d.label());
        }
        let c = capacity("TLB Internal Collision (inv-primed)", ExtDesign::Sa);
        assert!(c > 0.9, "SA should leak, C* = {c}");
    }

    #[test]
    fn six_families_are_covered() {
        assert_eq!(extended_benchmarks().len(), 6);
    }
}
