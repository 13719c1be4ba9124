//! `Unrolling::extend_to` stability: growing an unrolling in place must be
//! indistinguishable from building it at the final bound directly.
//!
//! This is the property the whole incremental-solving layer rests on
//! (DESIGN.md §12): a pooled solver context extends its unrolling when a
//! deeper bound is requested, so the variable numbering of every already-
//! built frame has to stay stable across the extension and the CNF has to
//! grow strictly append-only — otherwise cached activation literals and
//! learnt clauses would silently refer to the wrong time frames.
//!
//! Checked two ways:
//! * structurally — stepwise `extend_to` through several stops yields the
//!   same per-(frame, signal) literals, the same variable count, and the
//!   same clause stream (each intermediate stop a strict prefix) as one
//!   direct build at the final bound;
//! * behaviourally — a `Checker` that solved queries at a shallow bound
//!   and then grew via `ensure_bound` returns the same verdicts as a
//!   fresh checker built at the deep bound, also when it declared a query
//!   interface and ran bounded variable elimination before growing.
//!
//! Property-checked over seeded fuzz-generated netlists plus the six
//! in-tree designs.

use fuzz::{build, sample_genome, GenConfig};
use mc::{Checker, InitMode, McConfig, Unrolling};
use netlist::{Netlist, Op, SignalId};
use prng::Rng;
use uarch::{build_core, build_tiny, CoreConfig};

fn in_tree_netlists() -> Vec<(&'static str, Netlist)> {
    vec![
        ("minicva6", build_core(&CoreConfig::default()).netlist),
        ("minicva6-mul", build_core(&CoreConfig::cva6_mul()).netlist),
        ("minicva6-op", build_core(&CoreConfig::cva6_op()).netlist),
        ("hardened", build_core(&CoreConfig::hardened()).netlist),
        ("tinycore", build_tiny().netlist),
        ("minicache", uarch::cache::build_cache().netlist),
    ]
}

/// Builds `nl` stepwise through `stops` and directly at the final stop,
/// then asserts variable-mapping identity and clause-stream prefix
/// stability.
fn assert_extension_stable(name: &str, nl: &Netlist, init: InitMode, stops: &[usize]) {
    let k = *stops.last().expect("at least one stop");
    let mut direct = Unrolling::new(nl, init);
    direct.gate().solver().set_clause_log(true);
    direct.extend_to(k);

    let mut step = Unrolling::new(nl, init);
    step.gate().solver().set_clause_log(true);
    let mut prefix_lens = Vec::new();
    for &s in stops {
        step.extend_to(s);
        prefix_lens.push(step.gate().solver_ref().logged_clauses().len());
    }
    assert_eq!(step.num_frames(), k, "{name}: wrong final frame count");
    assert_eq!(
        step.gate().num_vars(),
        direct.gate().num_vars(),
        "{name}: stepwise and direct builds allocated different variables"
    );
    for t in 0..k {
        for i in 0..nl.len() {
            let sig = SignalId(i as u32);
            assert_eq!(
                step.lits(t, sig),
                direct.lits(t, sig),
                "{name}: literal mapping of node {i} at frame {t} drifted"
            );
        }
    }
    let direct_log = direct.gate().solver_ref().logged_clauses().to_vec();
    let step_log = step.gate().solver_ref().logged_clauses().to_vec();
    assert_eq!(
        step_log, direct_log,
        "{name}: stepwise clause stream differs from the direct build"
    );
    // Each intermediate stop's CNF is a strict prefix of the final CNF:
    // extension only ever appends.
    for (&s, &len) in stops.iter().zip(prefix_lens.iter()) {
        assert_eq!(
            &step_log[..len],
            &direct_log[..len],
            "{name}: CNF at stop {s} is not a prefix of the direct build"
        );
    }
}

#[test]
fn in_tree_designs_extend_stably() {
    for (name, nl) in in_tree_netlists() {
        for init in [InitMode::Reset, InitMode::Free] {
            assert_extension_stable(name, &nl, init, &[2, 5, 8]);
        }
    }
}

#[test]
fn fuzz_generated_netlists_extend_stably() {
    let mut rng = Rng::new(0x5eed11);
    for case in 0..40 {
        let genome = sample_genome(&mut rng, &GenConfig::default());
        let d = build(&genome);
        assert_extension_stable(
            &format!("fuzz case {case}"),
            &d.netlist,
            InitMode::Reset,
            &[1, 3, 7],
        );
    }
}

/// A checker grown via `ensure_bound` (after already answering queries at
/// the shallow bound) must agree with a fresh checker built at the deep
/// bound — the verdict-level face of the same stability property.
#[test]
fn grown_checker_agrees_with_fresh_checker() {
    let mut rng = Rng::new(0x5eed22);
    let (shallow, deep) = (3usize, 7usize);
    let mut covered = 0u32;
    for _ in 0..60 {
        let genome = sample_genome(&mut rng, &GenConfig::default());
        let d = build(&genome);
        let cfg = |bound| McConfig {
            bound,
            bound_is_complete: true,
            ..Default::default()
        };
        let mut fresh = Checker::new(&d.netlist, cfg(deep));
        let want = fresh.check_cover(d.cover, &[]);

        let mut grown = Checker::new(&d.netlist, cfg(shallow));
        let at_shallow = grown.check_cover(d.cover, &[]);
        grown.ensure_bound(deep);
        let got = grown.check_cover(d.cover, &[]);
        assert_eq!(
            got.is_reachable(),
            want.is_reachable(),
            "grown checker flipped reachability vs fresh build at bound {deep}"
        );
        assert_eq!(got.is_unreachable(), want.is_unreachable());
        // Monotonicity sanity: growing the bound never loses a witness.
        if at_shallow.is_reachable() {
            assert!(got.is_reachable(), "witness lost by ensure_bound");
        }
        if want.is_reachable() {
            covered += 1;
        }
    }
    assert!(
        covered >= 5,
        "fuzz distribution degenerated: only {covered}/60 reachable covers"
    );
}

/// A checker that declares its query interface eliminates variables
/// before its first solve, at the shallow bound, and must then grow via
/// `ensure_bound` exactly like one that never eliminated: the frozen last
/// frame carries the new frames, the frozen interface carries the
/// activations. Verdicts must equal a fresh, undeclared checker's at the
/// deep bound, and every witness — read from the extended model — must
/// replay on the simulator signal for signal. The in-tree cache and core
/// are used because checkers skip elimination below a size floor that
/// the fuzz generator's designs never reach.
#[test]
fn eliminated_checker_grows_and_agrees_with_fresh_checker() {
    let (shallow, deep) = (12usize, 16usize);
    let cfg = |bound| McConfig {
        bound,
        bound_is_complete: true,
        ..Default::default()
    };
    let (mut eliminated, mut reachable) = (0u64, 0u32);
    for (name, nl) in in_tree_netlists()
        .into_iter()
        .filter(|(n, _)| ["minicache", "minicva6"].contains(n))
    {
        // Queries over a spread of the design's 1-bit state and logic:
        // each cover alone, then under each of two assumes.
        let bits: Vec<SignalId> = nl
            .iter()
            .filter(|(_, n)| n.width == 1 && !matches!(n.op, Op::Const(_) | Op::Input))
            .map(|(id, _)| id)
            .collect();
        let pick = |k: usize| bits[k * bits.len() / 7];
        let (covers, assumes) = ([pick(0), pick(2), pick(4), pick(6)], [pick(1), pick(5)]);
        let queries: Vec<(SignalId, Vec<SignalId>)> = covers
            .iter()
            .flat_map(|&c| {
                std::iter::once((c, Vec::new())).chain(assumes.iter().map(move |&a| (c, vec![a])))
            })
            .collect();
        let interface: Vec<SignalId> = covers.iter().chain(&assumes).copied().collect();

        let mut declared = Checker::new(&nl, cfg(shallow));
        declared.declare_interface(&interface);
        for (c, q) in &queries {
            declared.check_cover(*c, q);
        }
        eliminated += declared.solver_stats().1.eliminated_vars;
        declared.ensure_bound(deep);

        let mut fresh = Checker::new(&nl, cfg(deep));
        for (c, q) in &queries {
            let want = fresh.check_cover(*c, q);
            let got = declared.check_cover(*c, q);
            assert_eq!(
                (got.is_reachable(), got.is_unreachable()),
                (want.is_reachable(), want.is_unreachable()),
                "{name}: eliminated checker disagrees on cover {c:?} under {q:?}"
            );
            if let Some(trace) = got.trace() {
                reachable += 1;
                fuzz::replay_witness(&nl, trace, *c, None)
                    .unwrap_or_else(|e| panic!("{name}: witness does not replay: {e}"));
            }
        }
    }
    assert!(eliminated > 0, "elimination never fired");
    assert!(reachable >= 4, "only {reachable} reachable queries");
}
