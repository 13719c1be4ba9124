//! The batch workloads: `mupath_core` (µPATH synthesis on MiniCva6) and
//! `leakage_cache` (leakage-signature synthesis on MiniCache), each one
//! call into the library per batch.

use crate::host::{self, shuffle, timed};
use crate::trace::Tracer;
use crate::{Layers, Run, Setup};
use isa::Opcode;
use mupath::{build_harness_multi, synthesize_isa_with, ContextMode, EngineOptions, SynthConfig};
use sat::BudgetPool;
use std::sync::Arc;
use std::time::Instant;
use synthlc::{build_leak_harness, synthesize_leakage, LeakConfig, LeakHarnessConfig, TxKind};
use uarch::Design;

/// Instructions of `mupath_core`: the quick scope's {add, div, lw, sw}
/// cut to one instruction, about 23 s per batch on two workers.
pub const CORE_OPS: [Opcode; 1] = [Opcode::Div];
/// Set-ups timed before each batch: a run of about nine batches spreads
/// its `setup_s` samples over the whole run.
const SETUP_BURST: usize = 3;
/// Transponders of `leakage_cache`: `lw` alone, about 5 s per batch on
/// two workers, so a run takes the median of several batches. (With `sw`
/// too, one 17-25 s batch per run spread 28% across ten runs on a 2-vCPU
/// VM.)
pub const CACHE_OPS: [Opcode; 1] = [Opcode::Lw];

/// The quick-scope µPATH configuration of the repository's perf report,
/// with its two fetch slots (one job each) in the given order.
pub fn core_config(slots: &[usize]) -> SynthConfig {
    SynthConfig {
        slots: slots.to_vec(),
        context: ContextMode::NoControlFlow,
        bound: 24,
        conflict_budget: Some(2_000_000),
        max_shapes: 64,
    }
}

/// The perf report's `cache_leak` configuration, reductions on.
pub fn cache_config(threads: usize, reductions: bool) -> LeakConfig {
    LeakConfig {
        mupath: SynthConfig {
            slots: vec![0, 1],
            context: ContextMode::Any,
            bound: 18,
            conflict_budget: Some(2_000_000),
            max_shapes: 64,
        },
        transmitters: vec![Opcode::Lw, Opcode::Sw],
        kinds: vec![TxKind::Intrinsic, TxKind::Static],
        bound: 20,
        conflict_budget: Some(1_000_000),
        threads,
        budget_pool: None,
        slot_base: 1,
        max_sources: Some(2),
        coi: reductions,
        static_prune: reductions,
        robust: Default::default(),
    }
}

/// One fingerprint entry: a key, its scheduling-independent content, and
/// the properties it accounts for (what a mismatch counts as failed).
pub type Entry = (String, String, u64);

fn instr_entries(prefix: &str, instrs: &[mupath::InstrSynthesis]) -> Vec<Entry> {
    instrs
        .iter()
        .map(|i| {
            let s = &i.stats;
            (
                format!("{prefix}{}", i.opcode.mnemonic()),
                format!(
                    "complete={} paths={:?} decisions={:?} classes={:?} p={} r={} u={} ud={}",
                    i.complete,
                    i.paths,
                    i.decisions,
                    i.class_decisions,
                    s.properties,
                    s.reachable,
                    s.unreachable,
                    s.undetermined
                ),
                s.properties,
            )
        })
        .collect()
}

fn leak_entries(r: &synthlc::LeakageReport) -> Vec<Entry> {
    let mut out = instr_entries("mupath.", &r.mupath);
    let ift = r.ift_stats.properties;
    let mut sigs: Vec<String> = r.signatures.iter().map(|s| s.render()).collect();
    sigs.sort();
    let mut cands = r.candidate_transponders.clone();
    cands.sort();
    out.push(("signatures".into(), sigs.join(" | "), ift));
    out.push((
        "sets".into(),
        format!(
            "candidates={cands:?} transponders={:?} transmitters={:?}",
            r.transponders, r.transmitters
        ),
        0,
    ));
    let s = &r.ift_stats;
    out.push((
        "ift".into(),
        format!(
            "p={} r={} u={} ud={}",
            s.properties, s.reachable, s.unreachable, s.undetermined
        ),
        0,
    ));
    out.sort();
    out
}

/// Outcome of one batch call: its fingerprint plus counters.
pub struct Batch {
    pub entries: Vec<Entry>,
    pub properties: u64,
    pub undetermined: u64,
    pub degraded: u64,
    pub pool: Arc<BudgetPool>,
    pub stats: mc::CheckStats,
    pub paths: u64,
    pub decisions: u64,
    pub signatures: u64,
    pub ift_properties: u64,
}

/// Runs one `mupath_core` batch with `ops` and `slots` in the given order.
pub fn run_core(design: &Design, ops: &[Opcode], slots: &[usize], threads: usize) -> Batch {
    let pool = Arc::new(BudgetPool::new(None));
    let opts = EngineOptions {
        threads,
        budget_pool: Some(Arc::clone(&pool)),
        robust: Default::default(),
    };
    let r = synthesize_isa_with(design, ops, &core_config(slots), &opts);
    let mut entries = instr_entries("", &r.instrs);
    entries.sort();
    Batch {
        entries,
        properties: r.stats.properties,
        undetermined: r.stats.undetermined,
        degraded: r.degraded_jobs + r.stats.degraded(),
        paths: r.instrs.iter().map(|i| i.paths.len() as u64).sum(),
        decisions: r.instrs.iter().map(|i| i.decisions.len() as u64).sum(),
        signatures: 0,
        ift_properties: 0,
        stats: r.stats,
        pool,
    }
}

/// Runs one `leakage_cache` batch: transponders and transmitters in the
/// given orders.
pub fn run_cache(
    design: &Design,
    ops: &[Opcode],
    transmitters: &[Opcode],
    threads: usize,
    reductions: bool,
) -> Batch {
    let pool = Arc::new(BudgetPool::new(None));
    let mut cfg = cache_config(threads, reductions);
    cfg.transmitters = transmitters.to_vec();
    cfg.budget_pool = Some(Arc::clone(&pool));
    let r = synthesize_leakage(design, ops, &cfg);
    let mut stats = r.mupath_stats;
    stats.absorb(&r.ift_stats);
    Batch {
        entries: leak_entries(&r),
        properties: stats.properties,
        undetermined: stats.undetermined,
        degraded: r.degraded_jobs + stats.degraded(),
        paths: r.mupath.iter().map(|i| i.paths.len() as u64).sum(),
        decisions: r.mupath.iter().map(|i| i.decisions.len() as u64).sum(),
        signatures: r.signatures.len() as u64,
        ift_properties: r.ift_stats.properties,
        stats,
        pool,
    }
}

/// Renders entries as golden-file lines.
pub fn render(entries: &[Entry]) -> String {
    entries
        .iter()
        .map(|(k, v, _)| format!("{k}\t{v}\n"))
        .collect()
}

/// Properties whose entry differs from the golden file's, plus
/// undetermined ones, capped at the batch's property count.
pub fn failures(b: &Batch, golden: &str) -> (u64, Vec<String>) {
    let want: std::collections::BTreeMap<&str, &str> =
        golden.lines().filter_map(|l| l.split_once('\t')).collect();
    let mut failed = b.undetermined + b.degraded;
    let mut bad = Vec::new();
    for (k, v, props) in &b.entries {
        if want.get(k.as_str()) != Some(&v.as_str()) {
            failed += (*props).max(1);
            bad.push(k.clone());
        }
    }
    if want.len() != b.entries.len() {
        failed += 1;
        bad.push("entry count".into());
    }
    (failed.min(b.properties.max(1)), bad)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Core,
    Cache,
}

impl Kind {
    pub fn design_file(self) -> &'static str {
        match self {
            Kind::Core => "minicva6.nl",
            Kind::Cache => "minicache.nl",
        }
    }

    pub fn ops(self) -> &'static [Opcode] {
        match self {
            Kind::Core => &CORE_OPS,
            Kind::Cache => &CACHE_OPS,
        }
    }

    /// One batch with instruction order and job order (fetch slots, or
    /// transmitters) drawn from `rng`.
    pub fn run(self, design: &Design, rng: &mut prng::Rng, threads: usize) -> Batch {
        let mut ops = self.ops().to_vec();
        shuffle(rng, &mut ops);
        match self {
            Kind::Core => {
                let mut slots = vec![0, 1];
                shuffle(rng, &mut slots);
                run_core(design, &ops, &slots, threads)
            }
            Kind::Cache => {
                let mut tx = cache_config(threads, true).transmitters;
                shuffle(rng, &mut tx);
                run_cache(design, &ops, &tx, threads, true)
            }
        }
    }
}

/// Drives one batch workload for about `seconds` of measured batches.
pub fn run(kind: Kind, setup: &Setup, run: &mut Run, seconds: f64, trace: bool) {
    let design = setup.design(kind.design_file());
    let golden = crate::golden(run.workload);
    let threads = host::nproc();
    let mut rng = prng::Rng::new(run.seed);
    let started = Instant::now();
    // Untraced batches give the end-to-end figures; a traced run makes
    // one untraced batch as its overhead baseline, then one traced batch.
    loop {
        crate::setups(run, SETUP_BURST, Setup::load);
        let (b, wall, cpu) = timed(|| kind.run(design, &mut rng, threads));
        account(run, &b, &golden, wall, cpu);
        // Peak memory of a process that made one call, as a CLI run does.
        // Later calls only add allocator fragmentation, by an amount that
        // depends on how many batches the host's speed allowed.
        run.peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        let elapsed = started.elapsed().as_secs_f64();
        if trace || elapsed + wall > seconds {
            break;
        }
    }
    let rest = crate::SETUP_REPS.saturating_sub(run.setup_s.len());
    crate::setups(run, rest, Setup::load);
    if trace {
        let mut t = Tracer::new(true, started);
        let (mupath_front, leak_front) = t.span("batch", Some("batch-0"), |t| {
            let file = kind.design_file();
            let spec = Front::batch(kind, kind.ops());
            let front = profile_front(t, &mut run.layers, &spec, setup.source(file), file);
            let b = t.span("synthesize", Some("batch-0"), |_| {
                kind.run(design, &mut rng, threads)
            });
            let (failed, bad) = failures(&b, &golden);
            if !bad.is_empty() {
                eprintln!("{}: traced batch: golden mismatch in {bad:?}", run.workload);
            }
            run.attempted += b.properties;
            run.failed += failed;
            batch_layers(&mut run.layers, &b);
            front
        });
        // `mupath_core` profiles the leakage front layers on its design
        // too, so every layer is timed on every workload, but its batch
        // does not run them: they are not part of its search estimate.
        let front = mupath_front + if kind == Kind::Cache { leak_front } else { 0.0 };
        let synth = t.total("synthesize");
        run.layers.put("sat.search_s", (synth - front).max(0.0));
        run.layers
            .put("trace.overhead_s", synth - host::median(&run.verdict_s));
        run.layers.put("trace.profile_s", mupath_front + leak_front);
        run.layers.put(
            "sat.search_share",
            (synth - front).max(0.0) / synth.max(1e-12),
        );
        run.tracer = Some(t);
    }
}

fn account(run: &mut Run, b: &Batch, golden: &str, wall: f64, cpu: f64) {
    let (failed, bad) = failures(b, golden);
    if !bad.is_empty() {
        eprintln!("{}: golden mismatch in {bad:?}", run.workload);
    }
    run.attempted += b.properties;
    run.failed += failed;
    run.verdict_s.push(wall);
    run.cpu_s.push(cpu);
    run.job_ms.push(wall * 1e3);
}

/// Per-layer counters of one batch, from its check statistics and budget
/// pool.
pub fn batch_layers(l: &mut Layers, b: &Batch) {
    let s = &b.stats;
    l.put("mc.coi.bits_before", s.coi_bits_before as f64);
    l.put("mc.coi.bits_after", s.coi_bits_after as f64);
    l.put("mc.coi.keep_ratio", s.coi_ratio());
    l.put("mc.properties", s.properties as f64);
    l.put("mc.reachable", s.reachable as f64);
    l.put("mc.unreachable", s.unreachable as f64);
    l.put("mc.undetermined", s.undetermined as f64);
    l.put("mc.check_max_s", s.max_time.as_secs_f64());
    l.put("mc.pool.ctx_reused", s.ctx_reused as f64);
    l.put("mc.pool.frames_extended", s.frames_extended as f64);
    l.put("mc.pool.frames_rebuilt", s.frames_rebuilt as f64);
    l.put("mc.pool.learnts_carried", s.learnts_carried as f64);
    l.sat(&b.pool, s);
    l.put("mupath.paths", b.paths as f64);
    l.put("mupath.decisions", b.decisions as f64);
    l.put("synthlc.signatures", b.signatures as f64);
    l.put("synthlc.sat_calls_avoided", s.discharged_static as f64);
    l.put(
        "synthlc.prune_ratio",
        s.discharged_static as f64 / (b.ift_properties.max(1)) as f64,
    );
}

/// What the front layers of one call look like: the µPATH harnesses
/// (opcodes, fetch slots, context, bound) and the leak harnesses.
pub struct Front {
    pub ops: Vec<Opcode>,
    pub slots: Vec<usize>,
    pub ctx: ContextMode,
    pub bound: usize,
    pub leak: Option<LeakFront>,
}

/// The leak harnesses of a leakage call: (transponder, transmitter) slot
/// pairings, transmitters, and the IFT bound.
pub struct LeakFront {
    pub pairings: Vec<(usize, usize)>,
    pub transmitters: Vec<Opcode>,
    pub bound: usize,
}

impl Front {
    fn batch(kind: Kind, ops: &[Opcode]) -> Front {
        let leak = cache_config(1, true);
        // Intrinsic pairs slot_base with itself; Static pairs the next
        // slot's transponder with it.
        let base = leak.slot_base;
        let pairings = vec![(base, base), (base + 1, base)];
        let mupath = match kind {
            Kind::Core => core_config(&[0, 1]),
            Kind::Cache => leak.mupath,
        };
        Front {
            ops: ops.to_vec(),
            slots: mupath.slots,
            ctx: mupath.context,
            bound: mupath.bound,
            leak: Some(LeakFront {
                pairings,
                transmitters: match kind {
                    Kind::Core => ops.to_vec(),
                    Kind::Cache => leak.transmitters,
                },
                bound: leak.bound,
            }),
        }
    }

    /// The front layers of one daemon `paths`/`leak` request, with the
    /// daemon's per-design defaults.
    pub fn serve(design: &Design, leak: bool, instr: &str) -> Front {
        let op = design
            .isa
            .iter()
            .copied()
            .find(|o| o.mnemonic().eq_ignore_ascii_case(instr))
            .expect("design implements the instruction");
        let bound = design.max_latency.min(16) + 8;
        let tx = design
            .isa
            .iter()
            .copied()
            .filter(|t| {
                matches!(
                    t,
                    Opcode::Add
                        | Opcode::Mul
                        | Opcode::Div
                        | Opcode::Lw
                        | Opcode::Sw
                        | Opcode::Beq
                        | Opcode::Jalr
                )
            })
            .collect();
        Front {
            ops: vec![op],
            slots: vec![0, 1],
            ctx: if design.type_values.is_empty() {
                ContextMode::NoControlFlow
            } else {
                ContextMode::Any
            },
            bound,
            leak: leak.then(|| LeakFront {
                pairings: vec![(0, 0), (1, 0), (0, 1)],
                transmitters: tx,
                bound,
            }),
        }
    }
}

/// Re-runs the front layers of one call from the benchmark's side, each
/// in its own span: parse, elaborate, build harnesses (and instrument),
/// slice and fingerprint the cones, unroll to the bound. Returns the
/// seconds the µPATH layers and the leakage layers took.
pub fn profile_front(
    t: &mut Tracer,
    layers: &mut Layers,
    spec: &Front,
    src: &str,
    file: &str,
) -> (f64, f64) {
    let t0 = Instant::now();
    let design = crate::parse_traced(t, layers, src, file);
    t.span("mc.elab", None, |_| mc::Elab::new(&design.netlist));
    for &slot in &spec.slots {
        let h = t.span("mupath.harness", None, |_| {
            build_harness_multi(&design, &spec.ops, slot, spec.ctx)
        });
        layers.add("mupath.harness.nodes", h.netlist.len() as f64);
        let mut targets = h.assumes.clone();
        targets.extend(h.op_assumes.iter().map(|(_, s)| *s));
        targets.extend([h.iuv_done, h.iuv_seen, h.iuv_pc]);
        let mut cones = Vec::new();
        for m in &h.monitors {
            let cone = vec![m.visit_now, m.visited, m.multi, m.noncons];
            targets.extend(&cone);
            cones.push(cone);
        }
        slice_and_unroll(t, layers, &h.netlist, &targets, &cones, spec.bound);
    }
    let mupath_s = t0.elapsed().as_secs_f64();
    if let Some(leak) = &spec.leak {
        let ann = &design.annotations;
        let iopts = ift::IftOptions {
            sources: ann.operand_regs.clone(),
            persistent: ann.persistent.clone(),
            blocked: ann.arf.iter().chain(&ann.amem).copied().collect(),
        };
        let inst = t.span("ift.instrument", None, |_| {
            ift::instrument(&design.netlist, &iopts)
        });
        layers.add("ift.nodes", inst.netlist.len() as f64);
        for &(slot_p, slot_t) in &leak.pairings {
            let h = t.span("synthlc.harness", None, |_| {
                build_leak_harness(
                    &design,
                    &LeakHarnessConfig {
                        slot_p,
                        slot_t,
                        p_opcodes: spec.ops.clone(),
                        t_opcodes: leak.transmitters.clone(),
                        no_cf_context: true,
                    },
                )
            });
            let mut targets = h.assume_signal_universe();
            let cones: Vec<Vec<netlist::SignalId>> = h
                .class_table()
                .ids()
                .map(|c| vec![h.class_tainted(c), h.class_now(c)])
                .collect();
            targets.extend(cones.iter().flatten());
            slice_and_unroll(t, layers, &h.netlist, &targets, &cones, leak.bound);
        }
    }
    (mupath_s, t0.elapsed().as_secs_f64() - mupath_s)
}

fn slice_and_unroll(
    t: &mut Tracer,
    layers: &mut Layers,
    nl: &netlist::Netlist,
    targets: &[netlist::SignalId],
    cones: &[Vec<netlist::SignalId>],
    bound: usize,
) {
    let slice = t.span("mc.coi", None, |_| mc::CoiSlice::compute(nl, targets));
    layers.add("mc.coi.bits_before", slice.total_bits as f64);
    layers.add("mc.coi.bits_after", slice.kept_bits as f64);
    t.span("netlist.cone.fingerprint", None, |_| {
        for c in cones {
            std::hint::black_box(netlist::cone::fingerprint(nl, c, &[]));
        }
    });
    layers.add("netlist.cone.cones", cones.len() as f64);
    let (vars, clauses) = t.span("mc.unroll", None, |_| {
        let mut u = mc::Unrolling::with_elab(nl, mc::InitMode::Reset, Arc::new(mc::Elab::new(nl)));
        u.set_coi(Some(Arc::new(slice)));
        u.gate().solver().set_clause_log(true);
        u.extend_to(bound);
        let clauses = u.gate().solver_ref().logged_clauses().len();
        (u.gate().num_vars(), clauses)
    });
    layers.add("mc.unroll.vars", vars as f64);
    layers.add("mc.unroll.clauses", clauses as f64);
}
