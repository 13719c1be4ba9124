//! `serve_edit_mix`: a fresh `synthlc-serve` worker pool with a verdict
//! store, driven in-process by closed-loop connections replaying a seeded
//! sequence of `check`, first-time, repeated and edited-design requests.

use crate::batch::{profile_front, Front};
use crate::host::{self, shuffle};
use crate::trace::Tracer;
use crate::{root, Layers, Run, Setup, SETUP_REPS};
use jsonio::Json;
use serve::{Op, Request, Submit};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// How often each distinct request is asked. With 140 distinct requests
/// the sequence has 420, so p90 has 42 samples beyond it; two in three
/// are repeats, so the median request is a store hit, while about one in
/// six re-solves, so p90 lands among the solving requests.
const ASKS: usize = 3;
/// Set-ups timed before each sequence: a run makes two or three
/// sequences, so most `setup_s` samples are spread over the run.
const SETUP_BURST: usize = 7;
/// Edited variants per sequence: (design file, how many edit sites from
/// its pool). TinyCore uses every site (each re-solves its `paths`
/// requests); the seed picks one MiniCache site (answered from cones).
pub const EDITS: [(&str, usize); 2] = [("tinycore.nl", usize::MAX), ("minicache.nl", 1)];
/// The designs `paths`/`leak` requests ask about; every instruction of
/// each design's ISA is queried.
const QUERIED: [&str; 2] = ["tinycore.nl", "minicache.nl"];

/// One request of the sequence. `file` is the design's file name under
/// `examples/` or under the variant directory.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Req {
    pub op: &'static str,
    pub file: String,
    pub instr: Option<String>,
}

impl Req {
    /// The golden-file key: the same request always has the same key.
    pub fn key(&self) -> String {
        format!(
            "{} {} {}",
            self.op,
            self.file,
            self.instr.as_deref().unwrap_or("-")
        )
    }
}

/// The design file name of an edit: `tinycore.nl` + `wb_res` →
/// `tinycore+wb_res.nl`.
pub fn variant_name(base: &str, site: &str) -> String {
    format!("{}+{site}.nl", base.trim_end_matches(".nl"))
}

/// The edit-site pools recorded in the golden file: `pool\t<file>\t<regs>`.
pub fn pools(golden: &str) -> BTreeMap<String, Vec<String>> {
    golden
        .lines()
        .filter_map(|l| l.strip_prefix("pool\t"))
        .filter_map(|l| l.split_once('\t'))
        .map(|(f, regs)| (f.to_owned(), regs.split(',').map(str::to_owned).collect()))
        .collect()
}

/// The gate swap of a one-gate edit, if the operator has one.
fn swapped(op: netlist::BinOp) -> Option<netlist::BinOp> {
    use netlist::BinOp::*;
    Some(match op {
        And => Or,
        Or => And,
        Add => Sub,
        Sub => Add,
        Eq => Ne,
        Ne => Eq,
        _ => return None,
    })
}

/// The name an edit site goes by: the signal's name, or `_n<id>` for an
/// anonymous one (as the `.nl` text spells it).
pub fn site_name(nl: &netlist::Netlist, id: netlist::SignalId) -> String {
    nl.node(id)
        .name
        .clone()
        .unwrap_or_else(|| format!("_n{}", id.index()))
}

fn resolve(nl: &netlist::Netlist, name: &str) -> Option<netlist::SignalId> {
    nl.find(name).or_else(|| {
        let ix: u32 = name.strip_prefix("_n")?.parse().ok()?;
        Some(netlist::SignalId(ix)).filter(|id| id.index() < nl.len())
    })
}

/// Whether signal `id` can be edited: a register, or a swappable gate.
pub fn editable(nl: &netlist::Netlist, id: netlist::SignalId) -> bool {
    match nl.node(id).op {
        netlist::Op::Reg { .. } => true,
        netlist::Op::Binary(op, ..) => swapped(op).is_some(),
        _ => false,
    }
}

/// A one-gate edit in place (ids, names and widths unchanged): flip a
/// register's reset value, or swap a gate's operator (and/or, add/sub,
/// eq/ne).
pub fn edit(design: &uarch::Design, name: &str) -> uarch::Design {
    let nl = &design.netlist;
    let id = resolve(nl, name).unwrap_or_else(|| panic!("{}: no signal {name}", design.name));
    let op = match nl.node(id).op {
        netlist::Op::Reg { next, init } => netlist::Op::Reg {
            next,
            init: init ^ 1,
        },
        netlist::Op::Binary(op, a, b) => {
            netlist::Op::Binary(swapped(op).expect("an editable gate"), a, b)
        }
        _ => panic!("{name} is neither a register nor a gate"),
    };
    let mut edited = design.clone();
    edited.netlist = nl
        .with_op(id, op)
        .expect("a one-gate edit keeps the netlist valid");
    edited
}

/// Every paths/leak request on a design file: each instruction of the
/// design's ISA, both ops.
pub fn design_requests(file: &str, design: &uarch::Design) -> Vec<Req> {
    let mut out = Vec::new();
    for op in ["paths", "leak"] {
        for i in &design.isa {
            out.push(Req {
                op,
                file: file.to_owned(),
                instr: Some(i.mnemonic().to_owned()),
            });
        }
    }
    out
}

/// One step of the sequence: the request, and the earlier steps whose
/// answers it waits for.
#[derive(Clone, Debug)]
pub struct Step {
    pub req: Req,
    pub after: Vec<usize>,
    pub repeat: bool,
}

/// The seeded request sequence and the edit sites it uses.
pub fn sequence(
    seed: u64,
    setup: &Setup,
    pools: &BTreeMap<String, Vec<String>>,
) -> (Vec<Step>, Vec<(String, String)>) {
    let mut rng = prng::Rng::new(seed ^ 0x5e57_ed17);
    // First every unedited design is asked about, then the edits, each
    // part in seeded order: a user starts cold on the designs as they
    // are.
    let mut unique: Vec<Req> = setup
        .sources
        .keys()
        .map(|f| Req {
            op: "check",
            file: f.clone(),
            instr: None,
        })
        .collect();
    let mut edited = Vec::new();
    let mut edits = Vec::new();
    for (base, n) in EDITS {
        unique.extend(design_requests(base, setup.design(base)));
        let mut pool = pools[base].clone();
        shuffle(&mut rng, &mut pool);
        for site in pool.into_iter().take(n) {
            let file = variant_name(base, &site);
            edited.extend(design_requests(&file, setup.design(base)));
            edits.push((base.to_owned(), site));
        }
    }
    shuffle(&mut rng, &mut unique);
    shuffle(&mut rng, &mut edited);
    unique.extend(edited);
    let unedited = |r: &Req| Req {
        file: base_of(&r.file).to_owned(),
        ..r.clone()
    };
    // Every request is asked ASKS times; the repeats go anywhere after
    // its first asking. Fixed counts keep the latency bands the same size
    // for every seed.
    let mut seq = unique.clone();
    for r in &unique {
        for _ in 1..ASKS {
            let first = seq.iter().position(|x| x == r).expect("issued");
            let at = rng.range_usize(first + 1, seq.len() + 1);
            seq.insert(at, r.clone());
        }
    }
    // A step waits for the steps whose cones it reuses: the first asking
    // of the same request, the unedited design's request of an edit, and
    // the other op (paths or leak) on the same design and instruction if
    // that came first. Cache reuse then does not depend on timing.
    let position = |r: &Req| seq.iter().position(|x| x == r);
    let steps = seq
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let first = position(r).expect("present");
            let mut after = Vec::new();
            if first < i {
                after.push(first);
            } else if r.op != "check" {
                let base = unedited(r);
                let other = Req {
                    op: if r.op == "paths" { "leak" } else { "paths" },
                    ..r.clone()
                };
                after.extend(position(&base).filter(|_| base != *r));
                after.extend(position(&other).filter(|&j| j < i));
            }
            Step {
                req: r.clone(),
                after,
                repeat: first < i,
            }
        })
        .collect();
    (steps, edits)
}

/// Writes the edited variants and returns the variant directory.
pub fn write_variants(setup: &Setup, edits: &[(String, String)], dir: &Path) {
    std::fs::create_dir_all(dir).expect("create variant directory");
    for (base, reg) in edits {
        let edited = edit(setup.design(base), reg);
        let text = uarch::frontend::design_to_text(&edited);
        std::fs::write(dir.join(variant_name(base, reg)), text).expect("write variant");
    }
}

/// The path a request names: an example or a written variant.
fn design_path(file: &str, variants: &Path) -> PathBuf {
    let ex = root().join("examples").join(file);
    if ex.is_file() {
        ex
    } else {
        variants.join(file)
    }
}

/// A started daemon: the supervised worker pool `synthlc-serve` runs,
/// driven in-process.
pub struct Daemon {
    server: serve::Server,
}

impl Daemon {
    /// Starts the daemon with `workers` workers and, when `store` is
    /// given, a fresh verdict store at that path.
    pub fn start(workers: usize, store: Option<&Path>) -> Daemon {
        let store =
            store.map(|p| Arc::new(serve::VerdictStore::create(p).expect("create verdict store")));
        let cfg = serve::ServeConfig {
            workers,
            ..Default::default()
        };
        Daemon {
            server: serve::Server::start(cfg, store),
        }
    }

    /// Drains and joins the daemon, returning its final `stats` event.
    pub fn stop(self) -> Json {
        self.server.join();
        self.server.stats_json()
    }
}

/// The daemon request for a step.
pub fn encode(req: &Req, id: &str, client: &str, variants: &Path) -> Request {
    let path = design_path(&req.file, variants);
    let mut r = Request::new(match req.op {
        "check" => Op::Check,
        "paths" => Op::Paths,
        _ => Op::Leak,
    });
    r.id = id.to_owned();
    r.client = client.to_owned();
    if req.op == "check" {
        r.source = Some(std::fs::read_to_string(&path).expect("read design for check"));
    } else {
        r.design = Some(path.to_string_lossy().into_owned());
        r.instr = req.instr.clone();
    }
    r
}

/// What a client saw for one request.
pub struct Answer {
    pub ix: usize,
    pub latency_ms: f64,
    pub pos: Option<usize>,
    pub from_store: bool,
    /// The `done` result, or what came instead.
    pub payload: Result<String, String>,
}

/// Submits one request and waits for its terminal event.
pub fn ask(daemon: &Daemon, req: Request, ix: usize) -> Answer {
    let t0 = Instant::now();
    let (tx, rx) = mpsc::channel();
    let mut answer = Answer {
        ix,
        latency_ms: 0.0,
        pos: None,
        from_store: false,
        payload: Err("no terminal event".into()),
    };
    match daemon.server.submit(req, tx) {
        Submit::Accepted(pos) => answer.pos = Some(pos),
        refused => answer.payload = Err(format!("{refused:?}")),
    }
    for ev in rx {
        match ev.field("ev").and_then(Json::as_str).unwrap_or("") {
            "progress" => {
                answer.from_store |=
                    ev.field("note").and_then(Json::as_str) == Some("served from verdict store");
            }
            "done" => {
                let result = ev.field("result").expect("done carries a result");
                answer.payload = Ok(result.render_compact());
                break;
            }
            "accepted" => {}
            _ => {
                answer.payload = Err(ev.render_compact());
                break;
            }
        }
    }
    answer.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    answer
}

/// Everything the daemon set-up leaves for the sequence.
struct Ready {
    setup: Setup,
    steps: Vec<Step>,
    edits: Vec<(String, String)>,
    daemon: Daemon,
}

fn set_up(seed: u64, rep: usize, pools: &BTreeMap<String, Vec<String>>, work: &Path) -> Ready {
    let setup = Setup::load();
    let (steps, edits) = sequence(seed, &setup, pools);
    write_variants(&setup, &edits, work);
    let store = work.join(format!("store-{rep}.jsonl"));
    let daemon = Daemon::start(host::nproc(), Some(&store));
    Ready {
        setup,
        steps,
        edits,
        daemon,
    }
}

/// Per-sequence outcome.
struct Pass {
    wall: f64,
    cpu: f64,
    answers: Vec<Answer>,
    stats: Json,
    tracer: Tracer,
    /// Seconds the benchmark spent re-running front layers (traced only).
    profile_s: f64,
    /// Summed latency of first-time `paths`/`leak` requests.
    fresh_s: f64,
    /// Summed latency of every request.
    busy_s: f64,
}

/// Which steps are taken and which are answered. A connection takes the
/// first untaken step whose `after` steps are answered, so a step waiting
/// for an earlier answer does not hold its connection idle.
struct Sched {
    state: Mutex<(Vec<bool>, Vec<bool>)>,
    cv: Condvar,
}

impl Sched {
    fn new(n: usize) -> Sched {
        Sched {
            state: Mutex::new((vec![false; n], vec![false; n])),
            cv: Condvar::new(),
        }
    }

    /// The next ready step, or `None` once every step is taken.
    fn take(&self, steps: &[Step]) -> Option<usize> {
        let mut st = self.state.lock().expect("schedule");
        loop {
            let (taken, done) = &mut *st;
            if taken.iter().all(|&t| t) {
                return None;
            }
            let ready =
                (0..steps.len()).find(|&i| !taken[i] && steps[i].after.iter().all(|&d| done[d]));
            if let Some(i) = ready {
                taken[i] = true;
                return Some(i);
            }
            st = self.cv.wait(st).expect("schedule");
        }
    }

    fn finish(&self, ix: usize) {
        self.state.lock().expect("schedule").1[ix] = true;
        self.cv.notify_all();
    }
}

/// One closed-loop connection: takes the next ready step, sends it, and
/// waits for its answer before taking another.
fn client(
    c: usize,
    ready: &Ready,
    sched: &Sched,
    work: &Path,
    mut t: Tracer,
) -> (Vec<Answer>, Tracer, Layers, f64, f64) {
    let mut answers = Vec::new();
    let mut layers = Layers::default();
    let (mut profile_s, mut fresh_s) = (0.0, 0.0);
    while let Some(ix) = sched.take(&ready.steps) {
        let step = &ready.steps[ix];
        let req = &step.req;
        let id = format!("r{ix}");
        let wire = encode(req, &id, &format!("c{c}"), work);
        let first = req.op != "check" && !step.repeat;
        let a = t.span("request", Some(&id), |t| {
            if t.is_on() && first {
                let src =
                    std::fs::read_to_string(design_path(&req.file, work)).expect("read design");
                let design = ready.setup.design(base_of(&req.file));
                let instr = req
                    .instr
                    .as_deref()
                    .expect("paths/leak name an instruction");
                let spec = Front::serve(design, req.op == "leak", instr);
                let (m, l) = t.span("front", Some(&id), |t| {
                    profile_front(t, &mut layers, &spec, &src, &req.file)
                });
                profile_s += m + l;
            }
            t.span("serve.request", Some(&id), |_| ask(&ready.daemon, wire, ix))
        });
        sched.finish(ix);
        if first {
            fresh_s += a.latency_ms * 1e-3;
        }
        answers.push(a);
    }
    (answers, t, layers, profile_s, fresh_s)
}

fn replay(ready: Ready, work: &Path, trace: bool, layers: &mut Layers) -> Pass {
    let sched = Sched::new(ready.steps.len());
    let epoch = Instant::now();
    let cpu0 = host::cpu_seconds();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..host::nproc())
            .map(|c| {
                let (ready, sched) = (&ready, &sched);
                let t = Tracer::new(trace, epoch);
                s.spawn(move || client(c, ready, sched, work, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu0;
    let stats = ready.daemon.stop();
    let mut pass = Pass {
        wall,
        cpu,
        answers: Vec::new(),
        stats,
        tracer: Tracer::new(trace, epoch),
        profile_s: 0.0,
        fresh_s: 0.0,
        busy_s: 0.0,
    };
    for (a, t, l, p, f) in results {
        pass.answers.extend(a);
        pass.tracer.merge(t);
        for (k, v) in l.0 {
            layers.add(k, v);
        }
        pass.profile_s += p;
        pass.fresh_s += f;
    }
    pass.answers.sort_by_key(|a| a.ix);
    pass.busy_s = pass.answers.iter().map(|a| a.latency_ms * 1e-3).sum();
    pass
}

/// Checks each answer against the golden file and against the fresh
/// answer earlier in the same pass; returns (attempted, failed).
fn check(
    pass: &Pass,
    steps: &[Step],
    golden: &BTreeMap<String, String>,
    workload: &str,
) -> (u64, u64) {
    let mut fresh: BTreeMap<String, &str> = BTreeMap::new();
    let mut failed = 0;
    for a in &pass.answers {
        let key = steps[a.ix].req.key();
        let ok = match &a.payload {
            Err(e) => {
                eprintln!("{workload}: {key}: {e}");
                false
            }
            Ok(p) => {
                // A store-served answer must repeat the fresh one byte for
                // byte; the first answer for a key is the fresh one.
                let earlier = *fresh.entry(key.clone()).or_insert(p);
                let want = golden.get(&key);
                if want != Some(p) || earlier != p {
                    eprintln!("{workload}: {key}: got {p}, golden {want:?}, earlier {earlier}");
                }
                want == Some(p) && earlier == p && p.contains("\"exit\":0")
            }
        };
        failed += u64::from(!ok);
    }
    (pass.answers.len() as u64, failed)
}

pub fn run(run: &mut Run, seconds: f64, trace: bool) {
    let golden_text = crate::golden(run.workload);
    let pools = pools(&golden_text);
    let golden: BTreeMap<String, String> = golden_text
        .lines()
        .filter(|l| !l.starts_with("pool\t"))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
    let work = crate::out_dir().join(format!("mix-{}", std::process::id()));
    let run_seed = run.seed;
    let started = Instant::now();
    let mut sets = 0;
    let mut last_wall = 0.0;
    let mut passes = 0;
    let mut untraced = Vec::new();
    // Each sequence gets a freshly set-up daemon. Untraced runs replay
    // sequences until the time is used (at least one); a traced run
    // replays one untraced, then one traced sequence. Extra set-ups
    // without a sequence, a burst before each sequence and the rest at
    // the end, bring `setup_s` to SETUP_REPS samples.
    let mut set_up_timed = |run: &mut Run| {
        sets += 1;
        crate::setups(run, 1, || set_up(run_seed, sets, &pools, &work)).expect("one set-up")
    };
    loop {
        let more = if trace {
            passes < 2
        } else {
            passes == 0 || started.elapsed().as_secs_f64() + last_wall <= seconds
        };
        if !more {
            break;
        }
        for _ in 1..SETUP_BURST {
            set_up_timed(run).daemon.stop();
        }
        let ready = set_up_timed(run);
        let traced = trace && passes == 1;
        let steps = ready.steps.clone();
        if passes == 0 {
            run.facts.push(("edits", format!("{:?}", ready.edits)));
            run.facts.push(("requests", steps.len().to_string()));
            let repeats = steps.iter().filter(|s| s.repeat).count();
            run.facts.push(("repeats", repeats.to_string()));
        }
        let mut front = Layers::default();
        let pass = replay(ready, &work, traced, &mut front);
        let (att, fail) = check(&pass, &steps, &golden, run.workload);
        run.attempted += att;
        run.failed += fail;
        last_wall = pass.wall;
        passes += 1;
        if traced {
            serve_layers(&mut run.layers, &pass, front);
            let base = host::median(&untraced);
            run.layers
                .put("trace.overhead_s", pass.wall - pass.profile_s - base);
            run.layers.put("trace.profile_s", pass.profile_s);
            run.tracer = Some(pass.tracer);
        } else {
            run.verdict_s.push(pass.wall);
            run.cpu_s.push(pass.cpu);
            run.job_ms.extend(pass.answers.iter().map(|a| a.latency_ms));
            untraced.push(pass.wall);
        }
    }
    while run.setup_s.len() < SETUP_REPS {
        set_up_timed(run).daemon.stop();
    }
    let _ = std::fs::remove_dir_all(&work);
    run.facts.push(("connections", host::nproc().to_string()));
    run.facts.push(("sequences", passes.to_string()));
}

fn serve_layers(l: &mut Layers, pass: &Pass, front: Layers) {
    for (k, v) in front.0 {
        l.add(k, v);
    }
    let st = |k: &str| pass.stats.field(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let job_hits = pass.answers.iter().filter(|a| a.from_store).count() as f64;
    let (ch, cm) = (st("cone_hits"), st("cone_misses"));
    l.put("serve.store.job_hits", job_hits);
    l.put("serve.store.cone_hits", ch);
    l.put("serve.store.cone_misses", cm);
    l.put(
        "serve.store.hit_ratio",
        (job_hits + ch) / (pass.answers.len() as f64 + ch + cm).max(1.0),
    );
    l.put("serve.store.size", st("cache_size"));
    let pos: Vec<f64> = pass
        .answers
        .iter()
        .filter_map(|a| a.pos)
        .map(|p| p as f64)
        .collect();
    l.put(
        "serve.queue_pos_mean",
        pos.iter().sum::<f64>() / (pos.len().max(1) as f64),
    );
    l.put("serve.shed", st("shed"));
    l.put("serve.retried", st("retried"));
    l.put("serve.degraded", st("degraded"));
    let clients = pass
        .stats
        .field("clients")
        .and_then(Json::as_arr)
        .unwrap_or(&[]);
    for c in clients {
        let f = |k: &str| c.field(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        l.add("sat.conflicts", f("conflicts"));
        l.add("sat.propagations", f("propagations"));
    }
    // Verdict counters from the answers that were not served whole from
    // the store.
    for a in pass.answers.iter().filter(|a| !a.from_store) {
        let Ok(j) = Json::parse(a.payload.as_deref().unwrap_or("{}")) else {
            continue;
        };
        let g = |k: &str| j.field(k).and_then(Json::as_u64).unwrap_or(0) as f64;
        l.add("mc.properties", g("properties"));
        l.add("mc.undetermined", g("undetermined"));
        l.add("mupath.paths", g("mupaths"));
        let sigs = j
            .field("signatures")
            .and_then(Json::as_arr)
            .map_or(0, |s| s.len());
        l.add("synthlc.signatures", sigs as f64);
    }
    // The slowest first-time request bounds the slowest single check.
    let slowest = pass
        .answers
        .iter()
        .filter(|a| !a.from_store)
        .map(|a| a.latency_ms * 1e-3)
        .fold(0.0, f64::max);
    l.put("mc.check_max_s", slowest);
    // Search time: first-time solving requests minus the front layers the
    // benchmark re-ran for them; its share is of all request time.
    let search = (pass.fresh_s - pass.profile_s).max(0.0);
    l.put("sat.search_s", search);
    l.put("sat.search_share", search / pass.busy_s.max(1e-12));
}

/// The example a design file is, or was edited from.
fn base_of(file: &str) -> &str {
    match file.split_once('+') {
        Some((stem, _)) => QUERIED
            .into_iter()
            .find(|f| f.trim_end_matches(".nl") == stem)
            .expect("an edited example"),
        None => file,
    }
}
