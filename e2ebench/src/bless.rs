//! `--bless`: regenerate a workload's golden file from the current code,
//! after cross-checking the verdicts it is about to record.

use crate::batch::{self, Kind};
use crate::host;
use crate::mix::{self, Daemon, Req};
use crate::{golden_path, Setup};
use isa::Opcode;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// The seed the golden files were blessed with; any other seed must give
/// the same verdicts (batch) or draw from the same request universe
/// (serve).
pub const GOLDEN_SEED: u64 = 1;
/// The seed kept out of blessing and checked afterwards.
pub const HELD_OUT_SEED: u64 = 2;

pub fn bless(workload: &'static str) {
    let body = match workload {
        "mupath_core" => bless_batch(Kind::Core),
        "leakage_cache" => bless_batch(Kind::Cache),
        _ => bless_mix(),
    };
    let header = format!(
        "# golden verdicts of {workload}: blessed with seed {GOLDEN_SEED}, held-out seed \
         {HELD_OUT_SEED}; regenerate with --bless\n"
    );
    std::fs::write(golden_path(workload), header + &body).expect("write golden file");
    println!("{workload}: golden file written");
}

fn bless_batch(kind: Kind) -> String {
    let setup = Setup::load();
    let design = setup.design(kind.design_file());
    let fast = kind.run(design, &mut prng::Rng::new(GOLDEN_SEED), host::nproc());
    // Cross-check: one worker, reductions off, the reverse order.
    let mut ops = kind.ops().to_vec();
    ops.reverse();
    let slow = match kind {
        Kind::Core => batch::run_core(design, &ops, &[1, 0], 1),
        Kind::Cache => batch::run_cache(design, &ops, &[Opcode::Sw, Opcode::Lw], 1, false),
    };
    let golden = batch::render(&fast.entries);
    assert_eq!(
        golden,
        batch::render(&slow.entries),
        "reductions-off one-worker verdicts differ from the production run"
    );
    assert_eq!(
        fast.undetermined + fast.degraded,
        0,
        "no verdict may be undetermined"
    );
    let has = |key: &str, needle: &str| {
        fast.entries
            .iter()
            .any(|(k, v, _)| k == key && v.contains(needle))
    };
    let multi = |key: &str| {
        fast.entries.iter().any(|(k, v, _)| {
            k == key && v.contains("complete=true") && v.split("MuPath").count() > 2
        })
    };
    match kind {
        // results/fig8_quick.txt lists div as a candidate transponder
        // (more than one µPATH), and tests/leakage_end_to_end.rs flags it.
        Kind::Core => assert!(multi("div"), "div has several µPATHs"),
        // tests/cache_duv.rs: a load has hit and miss paths, and an earlier
        // load is a static transmitter for later loads.
        Kind::Cache => {
            assert!(multi("mupath.lw"), "lw has hit and miss µPATHs");
            assert!(has("sets", "transponders={Lw}"), "lw is a transponder");
            assert!(has("sets", "Static"), "a static transmitter is reported");
        }
    }
    golden
}

/// Answers every request on `daemon` over one closed-loop client per
/// worker.
fn answer_all(daemon: &Daemon, reqs: &[Req], work: &Path) -> BTreeMap<String, mix::Answer> {
    let next = Mutex::new(0usize);
    let answers = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for c in 0..host::nproc() {
            let (next, answers) = (&next, &answers);
            s.spawn(move || loop {
                let ix = {
                    let mut n = next.lock().expect("next index");
                    *n += 1;
                    *n - 1
                };
                let Some(req) = reqs.get(ix) else { break };
                let wire = mix::encode(req, &format!("b{ix}"), &format!("c{c}"), work);
                let a = mix::ask(daemon, wire, ix);
                eprintln!("bless: {} ({:.0} ms)", req.key(), a.latency_ms);
                answers.lock().expect("answers").insert(req.key(), a);
            });
        }
    });
    answers.into_inner().expect("answers")
}

/// Edit-site candidates per design: (file, how many candidates, keep
/// rule on the latencies of the variant's requests against a warm
/// store).
///
/// TinyCore sites (gates and registers) are kept when the edit lands
/// inside queried cones, so its `paths` requests re-solve; MiniCache
/// sites (memory-array cells) are kept when the cone cache answers every
/// request, since a MiniCache re-solve takes seconds.
const CANDIDATES: [(&str, usize, Keep); 2] = [
    ("tinycore.nl", usize::MAX, Keep::ResolvesPaths(20.0)),
    ("minicache.nl", 6, Keep::AllUnder(200.0)),
];

#[derive(Clone, Copy)]
enum Keep {
    /// Median `paths` latency at least this many ms.
    ResolvesPaths(f64),
    /// Every request under this many ms.
    AllUnder(f64),
}

fn bless_mix() -> String {
    let setup = Setup::load();
    let work = crate::out_dir().join("bless-mix");
    let checks: Vec<Req> = setup
        .sources
        .keys()
        .map(|f| Req {
            op: "check",
            file: f.clone(),
            instr: None,
        })
        .collect();
    let mut base = Vec::new();
    let mut variants = Vec::new();
    let mut edits = Vec::new();
    for (file, n, keep) in CANDIDATES {
        let design = setup.design(file);
        let nl = &design.netlist;
        let sites: Vec<String> = nl
            .iter()
            .filter(|&(id, _)| mix::editable(nl, id))
            .map(|(id, _)| mix::site_name(nl, id))
            .filter(|name| matches!(keep, Keep::ResolvesPaths(_)) || name.contains('['))
            .collect();
        let step = (sites.len() / n).max(1);
        base.extend(mix::design_requests(file, design));
        for site in sites.into_iter().step_by(step).take(n) {
            let reqs = mix::design_requests(&mix::variant_name(file, &site), design);
            variants.push((file, site.clone(), reqs));
            edits.push((file.to_owned(), site));
        }
    }
    mix::write_variants(&setup, &edits, &work);
    // Classify edit sites on a store-backed daemon: unedited designs
    // first, then each variant's requests against the warm store.
    let store = work.join("classify.jsonl");
    let warm = Daemon::start(host::nproc(), Some(&store));
    let mut warm_answers = answer_all(&warm, &base, &work);
    let mut pools: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut kept: Vec<Req> = checks.iter().chain(&base).cloned().collect();
    for (file, site, reqs) in &variants {
        let got = answer_all(&warm, reqs, &work);
        let ms = |op: &str| -> Vec<f64> {
            got.iter()
                .filter(|(k, _)| k.starts_with(op))
                .map(|(_, a)| a.latency_ms)
                .collect()
        };
        let keep = match CANDIDATES
            .iter()
            .find(|c| c.0 == *file)
            .expect("candidate")
            .2
        {
            Keep::ResolvesPaths(t) => host::median(&ms("paths")) >= t,
            Keep::AllUnder(t) => ms("").iter().all(|&m| m < t),
        };
        let clean = got
            .values()
            .all(|a| a.payload.as_ref().is_ok_and(|p| p.contains("\"exit\":0")));
        eprintln!(
            "bless: site {file} {site}: paths median {:.1} ms, keep {}",
            host::median(&ms("paths")),
            keep && clean
        );
        if keep && clean {
            pools.entry(file).or_default().push(site.clone());
            kept.extend(reqs.iter().cloned());
            warm_answers.extend(got);
        }
    }
    warm.stop();
    // The golden answers come from a daemon without a verdict store, and
    // must equal what the warm store and cone cache answered.
    let fresh = Daemon::start(host::nproc(), None);
    let answers = answer_all(&fresh, &kept, &work);
    fresh.stop();
    let _ = std::fs::remove_dir_all(&work);
    let mut out = String::new();
    for (file, pool) in &pools {
        writeln!(out, "pool\t{file}\t{}", pool.join(",")).expect("write to String");
    }
    for (key, a) in &answers {
        let p = a.payload.as_ref().unwrap_or_else(|e| panic!("{key}: {e}"));
        assert!(p.contains("\"exit\":0"), "{key}: not a clean verdict: {p}");
        if let Some(w) = warm_answers.get(key) {
            assert_eq!(
                w.payload.as_ref(),
                Ok(p),
                "{key}: cached answer differs from fresh"
            );
        }
        writeln!(out, "{key}\t{p}").expect("write to String");
    }
    // tests/cache_duv.rs: a cache read has hit and miss paths.
    let lw = answers["paths minicache.nl lw"]
        .payload
        .as_ref()
        .expect("lw answered");
    let paths = jsonio::Json::parse(lw)
        .ok()
        .and_then(|j| j.field("mupaths")?.as_u64());
    assert!(
        paths >= Some(2),
        "minicache lw has hit and miss µPATHs: {lw}"
    );
    for (file, n) in mix::EDITS {
        assert!(
            pools.get(file).map_or(0, Vec::len) >= n.min(4),
            "{file}: too few edit sites kept for the sequence: {pools:?}"
        );
    }
    out
}
