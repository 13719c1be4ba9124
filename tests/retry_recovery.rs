//! Retry recovery (DESIGN.md §8): with `RobustOptions::retries > 0`, a
//! job that an injected fault degraded is rerun on the coordinating
//! thread with a continuation ticket on its pooled checker, and a retry
//! that comes out clean replaces the degraded verdict. A fault-injected
//! run whose every fault is transient must therefore end with no degraded
//! job and the clean run's report, at any worker count.

use isa::Opcode;
use mc::FaultPlan;
use mupath::{ContextMode, SynthConfig};
use std::fmt::Write as _;
use synthlc::{synthesize_leakage, LeakConfig, LeakageReport, TxKind};

/// The minicache LW leak query (the §VII-A2 cache experiment's
/// configuration): one µPATH job and one IFT unit.
fn minicache_lw_cfg() -> LeakConfig {
    LeakConfig {
        mupath: SynthConfig {
            slots: vec![2],
            context: ContextMode::Any,
            bound: 24,
            conflict_budget: Some(2_000_000),
            max_shapes: 48,
        },
        transmitters: vec![Opcode::Lw],
        kinds: vec![TxKind::Static],
        bound: 24,
        conflict_budget: Some(2_000_000),
        threads: 1,
        budget_pool: None,
        slot_base: 1,
        max_sources: Some(1),
        coi: true,
        static_prune: true,
        robust: Default::default(),
    }
}

/// Every verdict of a leakage report: µPATH shapes and decisions,
/// signatures, and outcome accounting.
fn leak_fingerprint(r: &LeakageReport) -> String {
    let mut out = String::new();
    for i in &r.mupath {
        writeln!(
            out,
            "{} complete={} paths={:?} decisions={:?}",
            i.opcode, i.complete, i.paths, i.class_decisions
        )
        .unwrap();
    }
    for s in &r.signatures {
        writeln!(out, "sig {}", s.render()).unwrap();
    }
    writeln!(
        out,
        "candidates={:?} transponders={:?} transmitters={:?}",
        r.candidate_transponders, r.transponders, r.transmitters
    )
    .unwrap();
    for (tag, s) in [("mupath", &r.mupath_stats), ("ift", &r.ift_stats)] {
        writeln!(
            out,
            "{tag} p={} r={} u={} ud={}",
            s.properties, s.reachable, s.unreachable, s.undetermined
        )
        .unwrap();
    }
    out
}

#[test]
fn retries_recover_a_fault_injected_leakage_run_at_any_worker_count() {
    let design = uarch::cache::build_cache();
    let base = minicache_lw_cfg();
    let clean = synthesize_leakage(&design, &[Opcode::Lw], &base);
    assert_eq!(clean.degraded_jobs, 0);
    assert!(
        !clean.signatures.is_empty(),
        "the clean minicache run must find the LW^S leak"
    );
    // A seed whose plan faults the first attempt of both the µPATH job
    // and the IFT unit, and spares one of the next two attempts of each.
    let rate = 0.5;
    let transient = |plan: &FaultPlan, phase: &str| {
        plan.fault_for(phase, 0).is_some()
            && (1..=2).any(|attempt| plan.fault_for_attempt(phase, 0, attempt).is_none())
    };
    let seed = (0..1024u64)
        .find(|&s| {
            let plan = FaultPlan::new(s, rate);
            transient(&plan, "mupath") && transient(&plan, "ift")
        })
        .expect("some seed in 0..1024 faults both phases transiently");

    let mut single_shot = base.clone();
    single_shot.robust.faults = FaultPlan::new(seed, rate);
    let faulted = synthesize_leakage(&design, &[Opcode::Lw], &single_shot);
    assert!(
        faulted.degraded_jobs >= 1,
        "seed {seed} must degrade the run without retries"
    );

    for threads in [1, 2] {
        let mut cfg = single_shot.clone();
        cfg.threads = threads;
        cfg.robust.retries = 2;
        let r = synthesize_leakage(&design, &[Opcode::Lw], &cfg);
        assert_eq!(
            r.degraded_jobs, 0,
            "--jobs {threads}: every transient fault must be retried away"
        );
        assert!(
            r.retried_jobs >= 2,
            "--jobs {threads}: both the µPATH job and the IFT unit must retry, got {}",
            r.retried_jobs
        );
        assert_eq!(
            r.mupath_stats.degraded() + r.ift_stats.degraded(),
            0,
            "--jobs {threads}: no degraded verdict may survive a clean retry"
        );
        assert_eq!(
            leak_fingerprint(&r),
            leak_fingerprint(&clean),
            "--jobs {threads}: a recovered run must equal the clean run"
        );
    }
}
