//! RTL2MµPATH: multi-µPATH synthesis from RTL (the paper's first
//! contribution, §III and §V-B).
//!
//! Given an annotated design ([`uarch::Design`]: netlist + µFSM/IFR/commit
//! metadata), this crate finds a complete set of formally verified µPATHs
//! for each instruction:
//!
//! ```text
//! design ──► IuvHarness (visit monitors, §III-C) ──► Checker (BMC covers)
//!        ──► µPATH shapes + concrete witnesses ──► decisions (§IV-B)
//! ```
//!
//! Entry points:
//! * [`duv_pl_reachability`] — §V-B1 (design-wide PL pruning),
//! * [`synthesize_instr`] — §V-B2..5 (per-instruction µPATH enumeration,
//!   decisions, HB edges),
//! * [`dom_excl_relations`] — §V-B3 (dominates/exclusive cover templates),
//! * [`enumerate_revisit_counts`] — §V-B6 (e.g. divider occupancy range),
//! * [`synthesize_isa`] — the whole-ISA driver used by SynthLC.

mod harness;
mod synth;
pub mod uspec;

pub use harness::{
    build_harness, build_harness_multi, pl_class, ContextMode, HarnessConfig, IuvHarness,
    PlMonitors,
};
pub use synth::{
    class_view, dom_excl_relations, duv_pl_reachability, enumerate_revisit_counts,
    synthesize_instr, DomExclRelations, DuvPlReport, InstrSynthesis, SynthConfig,
};

use isa::Opcode;
use mc::CheckStats;
use std::sync::Arc;
use uarch::Design;

pub use mc::{EngineOptions, RobustOptions};

/// A stable fingerprint of a design, mixed into every journal key so a
/// journal written against one RTL revision can never replay onto another.
/// FNV-1a over the canonical netlist text plus the design name.
pub fn design_fingerprint(design: &Design) -> u64 {
    let mut h = netlist::fnv::Fnv1a::new();
    h.bytes(design.name.as_bytes());
    h.byte(0);
    h.bytes(netlist::text::emit(&design.netlist).as_bytes());
    h.finish()
}

/// Serializes the verdict counters of [`CheckStats`] for a journal
/// record: properties, reachable, unreachable, undetermined, and the
/// budget-exhausted share of undetermined. Telemetry (COI sizes, static
/// discharges, pool reuse) stays out, so adding a counter never
/// invalidates a journal, and so do the degradation reasons, which are
/// zero in every journaled (clean) record. Durations are dropped too —
/// they are nondeterministic, and resumed runs must reproduce the
/// uninterrupted run's report byte for byte.
pub fn encode_check_stats(s: &CheckStats) -> jsonio::Json {
    use jsonio::Json;
    Json::Obj(vec![
        ("p".into(), Json::Int(s.properties)),
        ("r".into(), Json::Int(s.reachable)),
        ("u".into(), Json::Int(s.unreachable)),
        ("ud".into(), Json::Int(s.undetermined)),
        ("udb".into(), Json::Int(s.undet_budget)),
    ])
}

/// Parses a journaled [`encode_check_stats`] record (every other counter
/// zero). Fields it does not read — such as the telemetry counters older
/// records carry — are ignored.
pub fn decode_check_stats(j: &jsonio::Json) -> Option<CheckStats> {
    Some(CheckStats {
        properties: j.field("p")?.as_u64()?,
        reachable: j.field("r")?.as_u64()?,
        unreachable: j.field("u")?.as_u64()?,
        undetermined: j.field("ud")?.as_u64()?,
        undet_budget: j.field("udb")?.as_u64()?,
        ..Default::default()
    })
}

/// Whole-ISA synthesis results.
#[derive(Clone, Debug)]
pub struct IsaSynthesis {
    /// Per-instruction results, in the order requested.
    pub instrs: Vec<InstrSynthesis>,
    /// Aggregate property statistics (the §VII-B3 accounting).
    pub stats: CheckStats,
    /// Jobs that degraded to an undetermined stand-in (panic, injected
    /// fault, or deadline) instead of completing.
    pub degraded_jobs: u64,
    /// Jobs replayed from the checkpoint journal instead of running.
    /// Records are keyed by canonical cone fingerprint, so these are
    /// *cone cache hits*: slots whose query cone (and knobs) matched a
    /// journaled verdict, including across design edits outside the cone.
    pub resumed_jobs: u64,
    /// Cone cache misses: jobs that had to solve because no cone-keyed
    /// record matched. Zero when no journal is configured (a run without
    /// a cache has no misses, only work).
    pub cone_misses: u64,
    /// Retry attempts spent recovering transiently failed jobs
    /// ([`RobustOptions::retries`]); counts attempts, not jobs, so two
    /// reruns of one job add two.
    pub retried_jobs: u64,
}

impl IsaSynthesis {
    /// The candidate transponders (>1 µPATH, §V-C).
    pub fn candidate_transponders(&self) -> Vec<Opcode> {
        self.instrs
            .iter()
            .filter(|i| i.is_candidate_transponder())
            .map(|i| i.opcode)
            .collect()
    }

    /// Looks up one instruction's synthesis.
    pub fn instr(&self, op: Opcode) -> Option<&InstrSynthesis> {
        self.instrs.iter().find(|i| i.opcode == op)
    }
}

/// Runs [`synthesize_instr`] for each requested instruction.
pub fn synthesize_isa(design: &Design, ops: &[Opcode], cfg: &SynthConfig) -> IsaSynthesis {
    synthesize_isa_with(design, ops, cfg, &EngineOptions::sequential())
}

/// The whole-ISA driver over the parallel property-evaluation engine.
///
/// The job queue holds one job per (instruction, fetch slot), but jobs no
/// longer own their solver: one multi-opcode harness is built per fetch
/// slot (the monitor logic is opcode-independent), and [`mc::run_pooled`]
/// keys one persistent checker per slot that every opcode's enumeration
/// checks out in turn, ticket-sequenced in job order — so the solver sees
/// an identical query stream for every worker count and results merge
/// byte-identically (the `tests/parallel_determinism.rs` bar); learnt
/// clauses and the unrolled transition relation carry across the whole
/// fleet.
///
/// Each slot is one replay group: its cached verdicts are only replayed
/// when every opcode of that slot is cached. A partial replay would make
/// the pooled solver's clause state depend on which subset resumed —
/// trading a little resume coverage for determinism.
pub fn synthesize_isa_with(
    design: &Design,
    ops: &[Opcode],
    cfg: &SynthConfig,
    opts: &EngineOptions,
) -> IsaSynthesis {
    if ops.is_empty() {
        return IsaSynthesis {
            instrs: Vec::new(),
            stats: CheckStats::default(),
            degraded_jobs: 0,
            resumed_jobs: 0,
            cone_misses: 0,
            retried_jobs: 0,
        };
    }
    let fp = design_fingerprint(design);
    // One shared harness per fetch slot; all opcodes ride on it.
    let harnesses: Vec<IuvHarness> = cfg
        .slots
        .iter()
        .map(|&slot| build_harness_multi(design, ops, slot, cfg.context))
        .collect();
    // PL table / classes / HB-edge candidates are opcode- and
    // slot-independent; compute them once for the whole run.
    let meta = match harnesses.first() {
        Some(h) => synth::slot_meta(design, h),
        None => {
            let h = build_harness_multi(design, ops, 0, cfg.context);
            synth::slot_meta(design, &h)
        }
    };
    let free_regs: Vec<netlist::SignalId> = {
        let ann = &design.annotations;
        ann.arf.iter().chain(ann.amem.iter()).copied().collect()
    };
    // The slot-wide query cone: everything the enumeration consumes. The
    // canonical fingerprint of this cone (with the free registers, whose
    // symbolic init is part of the query) keys both the journal records
    // and the pooled-solver checkout, so an edit outside a slot's cone
    // neither invalidates its cached verdicts nor perturbs its CNF.
    let slot_targets: Vec<Vec<netlist::SignalId>> =
        harnesses.iter().map(slot_query_universe).collect();
    let cone_fps: Vec<mc::ConeFingerprint> = harnesses
        .iter()
        .zip(&slot_targets)
        .map(|(h, t)| mc::ConeFingerprint::compute(&h.netlist, t, &free_regs))
        .collect();
    let coords: Vec<(usize, usize)> = (0..ops.len())
        .flat_map(|oi| (0..cfg.slots.len()).map(move |si| (oi, si)))
        .collect();
    let jobs: Vec<mc::PooledJob> = coords
        .iter()
        .map(|&(oi, si)| mc::PooledJob {
            key: mc::PoolKey::reset(
                fp ^ cone_fps[si].0 ^ (cfg.slots[si] as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ),
            record: opts
                .robust
                .journal
                .as_ref()
                .map(|_| slot_job_key(cone_fps[si], ops[oi], cfg.slots[si], cfg)),
            replay_group: si,
        })
        .collect();
    let run = mc::run_pooled(
        "mupath",
        opts,
        cfg.bound,
        &jobs,
        |ix| {
            let si = coords[ix].1;
            let h = &harnesses[si];
            // Slice to the slot-wide query cone. Sound here even though
            // the shape loop consumes witness data: every consumed signal
            // (covers, assumes, signature bits, `visit_now` monitors) is
            // a slice target, so the projection onto them is exact — and
            // the sliced CNF is a pure function of the cone, which is
            // what makes cone-keyed journal replays witness-identical to
            // fresh solves after an out-of-cone edit (`DESIGN.md` §14).
            let elab = Arc::new(mc::Elab::new(&h.netlist));
            let coi = Arc::new(mc::CoiSlice::compute(&h.netlist, &slot_targets[si]));
            let mut c = mc::Checker::with_coi(
                &h.netlist,
                mc::McConfig {
                    bound: 0,
                    ..cfg.mc_config()
                },
                &free_regs,
                elab,
                Some(coi),
            );
            // The enumeration covers `iuv_done` under the harness assumes
            // and one opcode's assume, and blocks shapes at the last
            // frame: everything else may be eliminated.
            let mut interface = vec![h.iuv_done];
            interface.extend_from_slice(&h.assumes);
            interface.extend(h.op_assumes.iter().map(|&(_, s)| s));
            c.declare_interface(&interface);
            c
        },
        |ix, checker| {
            let (oi, si) = coords[ix];
            synth::enumerate_slot(&harnesses[si], ops[oi], checker, cfg)
        },
    );
    let mut results = run.results.into_iter();
    let mut stats = CheckStats::default();
    let instrs = ops
        .iter()
        .map(|&op| {
            let r =
                synth::assemble_instr(op, results.by_ref().take(cfg.slots.len()).collect(), &meta);
            stats.absorb(&r.stats);
            r
        })
        .collect();
    IsaSynthesis {
        instrs,
        stats,
        degraded_jobs: run.degraded_jobs,
        resumed_jobs: run.resumed_jobs,
        cone_misses: run.cone_misses,
        retried_jobs: run.retried_jobs,
    }
}

/// The slot-wide query universe: every harness signal the µPATH shape
/// enumeration can reference — the done cover, the opcode-independent and
/// per-opcode assumes, and all monitor bits (the signature bits blocked
/// per shape plus the `visit_now` bits the witness extraction reads).
/// The cone of this set is the slot's verdict-determining region.
fn slot_query_universe(h: &IuvHarness) -> Vec<netlist::SignalId> {
    let mut t = vec![h.iuv_done, h.iuv_seen, h.iuv_pc];
    t.extend_from_slice(&h.assumes);
    t.extend(h.op_assumes.iter().map(|&(_, s)| s));
    for m in &h.monitors {
        t.extend([m.visit_now, m.visited, m.multi, m.noncons]);
    }
    t
}

/// The stable journal key of one (instruction, fetch-slot) job: the
/// slot's canonical cone fingerprint plus every configuration knob that
/// can change the verdict. Keying on the *cone* (not the whole design)
/// means a design edit outside the slot's cone leaves its cached
/// verdicts valid — see `DESIGN.md` §14.
fn slot_job_key(
    cone_fp: mc::ConeFingerprint,
    op: Opcode,
    slot: usize,
    cfg: &SynthConfig,
) -> String {
    format!(
        "mupath:{cone_fp}:{op:?}:{slot}:{:?}:{}:{:?}:{}",
        cfg.context, cfg.bound, cfg.conflict_budget, cfg.max_shapes
    )
}
