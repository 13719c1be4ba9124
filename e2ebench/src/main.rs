//! End-to-end and per-layer benchmark of the verifier, used as a library.
//!
//! ```text
//! e2ebench --workload <mupath_core|leakage_cache|serve_edit_mix|all>
//!          --seed N --seconds S --trace 0|1 [--bless]
//! ```
//!
//! Each workload runs with production settings (reductions on, workers =
//! available parallelism), checks every verdict against the golden files
//! in `e2ebench/golden/`, prints every metric with its unit, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; `--trace 1` makes a
//! separate traced pass and reports the per-layer ones, writes the spans
//! to `e2ebench/out/<workload>-seed<N>.spans.jsonl`, and prints a
//! self-time table. `--workload all` runs each workload in its own child
//! process, so peak memory is measured per workload. `--bless` rewrites
//! the golden files from the current code after cross-checking them (see
//! `e2ebench/README.md`).

mod batch;
mod bless;
mod host;
mod mix;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["mupath_core", "leakage_cache", "serve_edit_mix"];

/// End-to-end metrics, reported on every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// Per-layer metrics of the traced run, reported on every workload (0
/// where a layer does not take part).
const PER_LAYER: [(&str, &str); 50] = [
    ("netlist.text.parse_s", "s"),
    ("netlist.nodes", "count"),
    ("mc.elab_s", "s"),
    ("mupath.harness_s", "s"),
    ("mupath.harness.nodes", "count"),
    ("synthlc.harness_s", "s"),
    ("ift.instrument_s", "s"),
    ("ift.nodes", "count"),
    ("mc.coi.bits_before", "bits"),
    ("mc.coi.bits_after", "bits"),
    ("mc.coi.keep_ratio", "frac"),
    ("netlist.cone.fingerprint_s", "s"),
    ("netlist.cone.cones", "count"),
    ("mc.unroll_s", "s"),
    ("mc.unroll.vars", "count"),
    ("mc.unroll.clauses", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_conflict", "ratio"),
    ("sat.ns_per_prop", "ns"),
    ("sat.learnt_live", "count"),
    ("sat.clauses_deleted", "count"),
    ("sat.avg_lbd", "lbd"),
    ("sat.search_s", "s"),
    ("sat.search_share", "frac"),
    ("mc.properties", "count"),
    ("mc.reachable", "count"),
    ("mc.unreachable", "count"),
    ("mc.undetermined", "count"),
    ("mc.check_max_s", "s"),
    ("mc.pool.ctx_reused", "count"),
    ("mc.pool.frames_extended", "count"),
    ("mc.pool.frames_rebuilt", "count"),
    ("mc.pool.learnts_carried", "count"),
    ("mupath.paths", "count"),
    ("mupath.decisions", "count"),
    ("synthlc.signatures", "count"),
    ("synthlc.sat_calls_avoided", "count"),
    ("synthlc.prune_ratio", "frac"),
    ("serve.store.job_hits", "count"),
    ("serve.store.cone_hits", "count"),
    ("serve.store.cone_misses", "count"),
    ("serve.store.hit_ratio", "frac"),
    ("serve.store.size", "count"),
    ("serve.queue_pos_mean", "pos"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("serve.degraded", "count"),
    ("trace.overhead_s", "s"),
    ("trace.profile_s", "s"),
];

/// Span names whose total time becomes a `<layer>_s` metric.
const SPAN_METRICS: [(&str, &str); 7] = [
    ("netlist.text.parse", "netlist.text.parse_s"),
    ("mc.elab", "mc.elab_s"),
    ("mupath.harness", "mupath.harness_s"),
    ("synthlc.harness", "synthlc.harness_s"),
    ("ift.instrument", "ift.instrument_s"),
    ("netlist.cone.fingerprint", "netlist.cone.fingerprint_s"),
    ("mc.unroll", "mc.unroll_s"),
];

/// Per-layer values gathered in a traced run.
#[derive(Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn put(&mut self, k: &'static str, v: f64) {
        self.0.insert(k, v);
    }

    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_default() += v;
    }

    /// Search counters from a budget pool and the solver statistics.
    pub fn sat(&mut self, pool: &sat::BudgetPool, s: &mc::CheckStats) {
        self.add("sat.conflicts", pool.conflicts() as f64);
        self.add("sat.propagations", pool.propagations() as f64);
        self.add("sat.learnt_live", s.sat_learnt_live() as f64);
        self.add("sat.clauses_deleted", s.sat_clauses_deleted as f64);
        self.put("sat.avg_lbd", s.sat_avg_lbd());
    }

    fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}

/// Everything one workload run measured.
pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    pub setup_s: Vec<f64>,
    pub verdict_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub job_ms: Vec<f64>,
    /// Peak resident MiB taken during the run; `None` reads it at the end.
    pub peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub layers: Layers,
    pub tracer: Option<Tracer>,
    /// Host and load facts printed with the report.
    pub facts: Vec<(&'static str, String)>,
}

/// The repository root: the parent of this package.
pub fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Scratch output directory of the benchmark.
pub fn out_dir() -> PathBuf {
    let d = root().join("e2ebench/out");
    std::fs::create_dir_all(&d).expect("create e2ebench/out");
    d
}

pub fn golden_path(workload: &str) -> PathBuf {
    root().join(format!("e2ebench/golden/{workload}.txt"))
}

/// The golden verdict file of a workload.
pub fn golden(workload: &str) -> String {
    let p = golden_path(workload);
    std::fs::read_to_string(&p)
        .unwrap_or_else(|e| panic!("{}: {e} (run with --bless to create it)", p.display()))
}

/// The loaded example designs: `.nl` sources and the designs they parse to.
pub struct Setup {
    pub sources: BTreeMap<String, String>,
    pub designs: BTreeMap<String, uarch::Design>,
}

impl Setup {
    /// Reads and parses every `examples/*.nl`.
    pub fn load() -> Setup {
        let dir = root().join("examples");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".nl"))
            .collect();
        names.sort();
        let mut sources = BTreeMap::new();
        let mut designs = BTreeMap::new();
        for n in names {
            let src = std::fs::read_to_string(dir.join(&n)).expect("read example design");
            let (design, result) = uarch::frontend::parse_design(&src, &n);
            let design = design.unwrap_or_else(|| panic!("{n}: {}", result.report.summary()));
            designs.insert(n.clone(), design);
            sources.insert(n, src);
        }
        assert!(!designs.is_empty(), "no examples/*.nl designs");
        Setup { sources, designs }
    }

    pub fn design(&self, file: &str) -> &uarch::Design {
        &self.designs[file]
    }

    pub fn source(&self, file: &str) -> &str {
        &self.sources[file]
    }
}

/// Parses `.nl` text inside a `netlist.text.parse` span.
pub fn parse_traced(t: &mut Tracer, layers: &mut Layers, src: &str, file: &str) -> uarch::Design {
    let d = t.span("netlist.text.parse", None, |_| {
        uarch::frontend::parse_design(src, file)
            .0
            .expect("example design parses")
    });
    layers.add("netlist.nodes", d.netlist.len() as f64);
    d
}

/// Set-ups per run; `setup_s` is their median. They are spread over the
/// run, a burst before each batch or sequence and the rest at its end, so
/// the median does not hang on the host's speed at one moment.
pub const SETUP_REPS: usize = 21;

/// Times `n` set-ups made by `f` into `run.setup_s`; returns the last.
pub fn setups<T>(run: &mut Run, n: usize, mut f: impl FnMut() -> T) -> Option<T> {
    let mut last = None;
    for _ in 0..n {
        let t0 = Instant::now();
        last = Some(f());
        run.setup_s.push(t0.elapsed().as_secs_f64());
    }
    last
}

fn run_workload(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run {
        workload,
        seed,
        setup_s: Vec::new(),
        verdict_s: Vec::new(),
        cpu_s: Vec::new(),
        job_ms: Vec::new(),
        peak_rss_mb: None,
        attempted: 0,
        failed: 0,
        layers: Layers::default(),
        tracer: None,
        facts: vec![
            ("nproc", host::nproc().to_string()),
            ("workers", host::nproc().to_string()),
        ],
    };
    match workload {
        "serve_edit_mix" => mix::run(&mut run, seconds, trace),
        _ => {
            let kind = if workload == "mupath_core" {
                batch::Kind::Core
            } else {
                batch::Kind::Cache
            };
            let setup = setups(&mut run, 1, Setup::load).expect("one set-up");
            run.facts.push(("connections", "0".into()));
            batch::run(kind, &setup, &mut run, seconds, trace);
            // A batch workload's requests are its library calls.
            run.facts
                .push(("requests", run.verdict_s.len().to_string()));
        }
    }
    run
}

fn report(run: &mut Run, trace: bool) -> String {
    let mut out = String::new();
    let w = run.workload;
    for (k, v) in &run.facts {
        writeln!(out, "{w}: {k} = {v}").expect("write to String");
    }
    writeln!(
        out,
        "{w}: attempted = {}, failed = {}, failed_frac = {}",
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64
    )
    .expect("write to String");
    let metrics: Vec<(&str, &str, f64)> = if trace {
        let tr = run.tracer.as_ref().expect("traced run keeps its spans");
        for (span, metric) in SPAN_METRICS {
            if !run.layers.0.contains_key(metric) {
                run.layers.put(metric, tr.total(span));
            }
        }
        if !run.layers.0.contains_key("mc.coi.keep_ratio") {
            let before = run.layers.get("mc.coi.bits_before");
            run.layers.put(
                "mc.coi.keep_ratio",
                run.layers.get("mc.coi.bits_after") / before.max(1.0),
            );
        }
        let props = run.layers.get("sat.propagations");
        let confl = run.layers.get("sat.conflicts");
        run.layers
            .put("sat.props_per_conflict", props / confl.max(1.0));
        run.layers.put(
            "sat.ns_per_prop",
            run.layers.get("sat.search_s") * 1e9 / props.max(1.0),
        );
        out.push_str(&tr.table(w));
        let name = format!("{w}-seed{}.spans.jsonl", run.seed);
        std::fs::write(out_dir().join(&name), tr.jsonl(w)).expect("write spans");
        writeln!(out, "{w}: spans -> e2ebench/out/{name}").expect("write to String");
        PER_LAYER
            .iter()
            .map(|&(k, u)| (k, u, run.layers.get(k)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(k, u)| {
                let v = match k {
                    "setup_s" => host::median(&run.setup_s),
                    "verdict_s" => host::median(&run.verdict_s),
                    "cpu_s" => host::median(&run.cpu_s),
                    "peak_rss_mb" => run.peak_rss_mb.unwrap_or_else(host::peak_rss_mb),
                    "ok_frac" => 1.0 - run.failed as f64 / run.attempted.max(1) as f64,
                    "job_p50_ms" => host::percentile(&run.job_ms, 50.0),
                    // The highest percentile reported must have ten
                    // samples beyond it; with fewer (a few batches per
                    // run) p90 would be the slowest batch, so it falls
                    // back to the median.
                    "job_p90_ms" if run.job_ms.len() >= 100 => host::percentile(&run.job_ms, 90.0),
                    "job_p90_ms" => host::median(&run.job_ms),
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                (k, u, v)
            })
            .collect()
    };
    writeln!(out, "{w}: job latency samples = {}", run.job_ms.len()).expect("write");
    for (name, xs) in [("setup_s", &run.setup_s), ("verdict_s", &run.verdict_s)] {
        let xs: Vec<String> = xs.iter().map(|s| format!("{s:.4}")).collect();
        writeln!(out, "{w}: {name} samples = [{}]", xs.join(", ")).expect("write");
    }
    for (k, u, v) in &metrics {
        writeln!(out, "{w}: {k} = {v} {u}").expect("write to String");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, u, v)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    )
    .expect("write to String");
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Runs every workload in its own child process and sums their verdicts.
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let ix = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given");
        child_args[ix + 1] = w.to_owned();
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .output()
            .expect("run workload child process");
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let Some(last) = text
            .lines()
            .last()
            .and_then(|l| jsonio::Json::parse(l).ok())
        else {
            eprintln!("{w}: no result line (exit {:?})", out.status.code());
            return 1;
        };
        correct &= last.field("correct").and_then(jsonio::Json::as_bool) == Some(true);
        attempted += last
            .field("attempted")
            .and_then(jsonio::Json::as_u64)
            .unwrap_or(0);
        failed += last
            .field("failed")
            .and_then(jsonio::Json::as_u64)
            .unwrap_or(0);
        if let Some(jsonio::Json::Obj(fields)) = last.field("metrics") {
            for (k, v) in fields {
                metrics.push(format!("\"{w}.{k}\": {}", v.render_compact()));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    i32::from(!correct)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("{a} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse().expect("--seed needs an integer"),
            "--seconds" => seconds = val().parse().expect("--seconds needs a number"),
            "--trace" => trace = val() == "1",
            "--bless" => bless = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    let workload = workload.expect("--workload is required");
    if workload == "all" {
        std::process::exit(run_all(&args));
    }
    let Some(&w) = WORKLOADS.iter().find(|w| **w == workload) else {
        panic!("unknown workload `{workload}` (known: {WORKLOADS:?} or all)");
    };
    if bless {
        bless::bless(w);
        return;
    }
    let mut run = run_workload(w, seed, seconds, trace);
    print!("{}", report(&mut run, trace));
    if run.failed > 0 {
        std::process::exit(1);
    }
}
