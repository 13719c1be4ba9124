//! Job supervision, deterministic fault injection, the checkpoint store
//! interface, and the pooled-job runner — the runtime half of DESIGN.md
//! §8.
//!
//! [`run_pooled`] is the one batch runner of both synthesis phases (the
//! µPATH slot jobs and the IFT unit jobs). It replays journaled verdicts,
//! hands every job that runs a dense checkout ticket on its pooled
//! [`Checker`], injects the planned fault, journals clean results, runs
//! the batch with each job under `catch_unwind`, retries failed or
//! degraded jobs on the coordinating thread, and replaces a job that
//! panicked on every attempt with a degraded stand-in
//! ([`UndeterminedReason::JobPanicked`]). The drivers supply only the
//! jobs' data, the pooled checker's constructor, and the per-job body.
//!
//! [`FaultPlan`] deterministically schedules injected faults (panics,
//! forced-Unknown queries, expired deadlines) from a seed and a rate, so a
//! failing fault-injected run replays from `SYNTHLC_FAULT_SEED` alone.
//!
//! [`JobStore`] is the narrow interface the runner checkpoints and replays
//! completed job verdicts through; `synthlc::journal::Journal` implements
//! it with an append-only, fsync'd, torn-tail-tolerant file.

use crate::engine::{CheckStats, Checker, UndeterminedReason};
use crate::par::run_jobs;
use crate::pool::{PoolKey, SolverPool};
use sat::{BudgetPool, CancelToken};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Runs `f` under `catch_unwind`, turning a panic into `Err` with the
/// panic payload's message.
fn supervised<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Like [`run_jobs`], but each job runs under `catch_unwind`: a panic in
/// job `ix` becomes `Err(payload message)` at index `ix` while every other job
/// completes normally. Result order and content are a pure function of
/// the job list, independent of worker count — the same merge-by-job-id
/// determinism contract as `run_jobs` itself.
pub(crate) fn run_jobs_supervised<J, R, F>(
    jobs: Vec<J>,
    threads: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    J: Send,
    R: Send,
    F: Fn(usize, J) -> R + Sync,
{
    run_jobs(jobs, threads, |ix, job| supervised(|| f(ix, job)))
}

/// Robustness knobs shared by the whole-ISA µPATH driver and SynthLC's
/// leakage driver (DESIGN.md §8). The default — no token, inactive fault
/// plan, no journal — adds no work and no nondeterminism to a run.
#[derive(Clone, Debug, Default)]
pub struct RobustOptions {
    /// Run-wide cancellation token (explicit cancel and/or wall-clock
    /// deadline). Queries that trip it degrade to
    /// `Undetermined(Deadline)`.
    pub cancel: Option<Arc<CancelToken>>,
    /// Deterministic fault-injection schedule (testing only).
    pub faults: FaultPlan,
    /// Checkpoint store for completed job verdicts; jobs whose key is
    /// already stored are replayed without running.
    pub journal: Option<Arc<dyn JobStore>>,
    /// How many times a transiently failed job (panic, injected fault,
    /// deadline, budget exhaustion) is rerun before its degraded verdict
    /// stands. Retries run sequentially on the coordinating thread in
    /// job order, so any worker count retries the same jobs in the same
    /// order. `0` (the default) keeps the single-shot behaviour.
    pub retries: u32,
}

/// Options for [`run_pooled`], shared by the whole-ISA µPATH driver and
/// SynthLC's leakage driver.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Worker threads; `0` selects [`crate::default_threads`] (the
    /// `SYNTHLC_THREADS` environment knob, falling back to the machine's
    /// available parallelism).
    pub threads: usize,
    /// A globally shared conflict/propagation account. Uncapped pools only
    /// aggregate statistics; capped pools cut off queries once the global
    /// cap is reached (at the cost of scheduling-dependent results — see
    /// `DESIGN.md` §6).
    pub budget_pool: Option<Arc<BudgetPool>>,
    /// Fault-tolerance knobs (cancellation, fault injection, journal).
    pub robust: RobustOptions,
}

impl EngineOptions {
    /// One worker, no shared budget: today's sequential behaviour.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            ..Default::default()
        }
    }

    /// The effective worker count (resolving `0` to the environment
    /// default).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            crate::default_threads()
        } else {
            self.threads
        }
    }
}

/// The verdict one [`run_pooled`] job produces, as the runner needs to
/// see it: its query statistics (whose [`CheckStats::degraded`] count
/// decides journaling and retries), its journal codec, and its stand-in.
pub trait JobRecord: Send + Sized {
    /// The job's query statistics.
    fn stats(&self) -> &CheckStats;
    /// Serializes the verdict for the journal.
    fn encode(&self) -> String;
    /// Parses a journaled verdict; `None` (a cache miss) on any mismatch.
    fn decode(record: &str) -> Option<Self>;
    /// The degraded stand-in for a job that panicked on every attempt:
    /// no findings, carrying `stats` (one property, undetermined for
    /// [`UndeterminedReason::JobPanicked`]).
    fn stand_in(stats: CheckStats) -> Self;
}

/// One job of a [`run_pooled`] batch.
#[derive(Clone, Debug)]
pub struct PooledJob {
    /// The pooled context the job checks out.
    pub key: PoolKey,
    /// The job's journal key; `None` when the run has no journal.
    pub record: Option<String>,
    /// Jobs with the same replay group are replayed from the journal all
    /// together or not at all. A partially replayed group would run its
    /// remaining jobs on a solver that skipped the replayed ones' queries,
    /// so a driver that needs the cold query stream (the µPATH slot jobs)
    /// groups every job of a pool key; a driver whose verdicts do not
    /// depend on solver history (the IFT units) gives each job its own.
    pub replay_group: usize,
}

/// The outcome of a [`run_pooled`] batch.
#[derive(Debug)]
pub struct PooledRun<R> {
    /// One verdict per job, in job order (stand-ins for jobs that
    /// panicked on every attempt).
    pub results: Vec<R>,
    /// Jobs whose final verdict is degraded (a stand-in, or a result with
    /// degraded statistics).
    pub degraded_jobs: u64,
    /// Jobs replayed from the journal instead of running (cone cache
    /// hits, since drivers key records by cone fingerprint).
    pub resumed_jobs: u64,
    /// Jobs that ran because no journal record matched; zero without a
    /// journal.
    pub cone_misses: u64,
    /// Retry attempts spent (attempts, not jobs).
    pub retried_jobs: u64,
}

/// Runs a batch of jobs over pooled checkers with the shared replay,
/// ticket, fault, journal, retry and stand-in policy (DESIGN.md §8, §12):
///
/// 1. journaled records are replayed on the calling thread, a whole
///    replay group at a time;
/// 2. every job that runs gets a dense checkout ticket on its pool key, in
///    job order, so each pooled solver sees the same query stream for
///    every worker count;
/// 3. each attempt rolls its fault from `opts.robust.faults` under
///    `phase`: a panic fires after checkout, a forced Unknown or an
///    expired deadline is set on the checker;
/// 4. only clean results (no fault, nothing degraded) are journaled;
/// 5. the batch runs on `opts` worker threads with every job under
///    `catch_unwind`; failed or degraded jobs are then rerun on the
///    calling thread, in job order, with continuation tickets, until they
///    come out clean, `opts.robust.retries` attempts are spent, or the
///    run-wide cancel token fires;
/// 6. a job that panicked on every attempt becomes [`JobRecord::stand_in`].
///
/// `build(ix)` constructs job `ix`'s checker at bound 0 when its pool key
/// has none yet (the runner attaches the budget pool and cancel token);
/// checkout grows it to `bound` frames. `body(ix, checker)` runs job `ix`.
pub fn run_pooled<'a, R, B, F>(
    phase: &str,
    opts: &EngineOptions,
    bound: usize,
    jobs: &[PooledJob],
    build: B,
    body: F,
) -> PooledRun<R>
where
    R: JobRecord,
    B: Fn(usize) -> Checker<'a> + Sync,
    F: Fn(usize, &mut Checker<'a>) -> R + Sync,
{
    let robust = &opts.robust;
    let journal = robust.journal.as_deref();
    // 1. Replay, group by group, on this thread.
    let mut replayed: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    let mut resumed_jobs = 0u64;
    if let Some(journal) = journal {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (ix, job) in jobs.iter().enumerate() {
            groups.entry(job.replay_group).or_default().push(ix);
        }
        for members in groups.values() {
            let records: Option<Vec<R>> = members
                .iter()
                .map(|&ix| R::decode(&journal.get(jobs[ix].record.as_deref()?)?))
                .collect();
            if let Some(records) = records {
                resumed_jobs += members.len() as u64;
                for (&ix, r) in members.iter().zip(records) {
                    replayed[ix] = Some(r);
                }
            }
        }
    }
    // 2. Dense tickets per pool key for the jobs that run; afterwards
    // `next_ticket` holds each key's first continuation ticket.
    let mut next_ticket: HashMap<PoolKey, usize> = HashMap::new();
    let tickets: Vec<usize> = jobs
        .iter()
        .zip(&replayed)
        .map(|(job, r)| match r {
            Some(_) => usize::MAX, // replayed: never checks out
            None => {
                let next = next_ticket.entry(job.key).or_default();
                *next += 1;
                *next - 1
            }
        })
        .collect();
    let pool = SolverPool::new();
    // 3 + 4. One attempt of one job.
    let run_attempt = |ix: usize, ticket: usize, attempt: u32| -> R {
        let fault = robust.faults.fault_for_attempt(phase, ix, attempt);
        let mut ctx = pool.checkout(jobs[ix].key, ticket, bound, || {
            let mut c = build(ix);
            if let Some(p) = &opts.budget_pool {
                c.set_budget_pool(Arc::clone(p));
            }
            if let Some(token) = &robust.cancel {
                c.set_cancel_token(Arc::clone(token));
            }
            c
        });
        // Injected panics fire after checkout so the guard's drop releases
        // the next ticket (discarding the checker; the key's next job
        // deterministically rebuilds it).
        match fault {
            Some(FaultKind::Panic) => panic!("injected fault: panic in {phase} job {ix}"),
            Some(FaultKind::ForceUnknown) => ctx.set_fault(UndeterminedReason::FaultInjected),
            Some(FaultKind::DeadlineExpired) => ctx.set_fault(UndeterminedReason::Deadline),
            None => {}
        }
        let r = body(ix, &mut ctx);
        drop(ctx);
        // Only clean verdicts are journaled: degraded jobs must rerun on
        // resume so an interrupted faulty run still converges to the
        // uninterrupted result.
        if fault.is_none() && r.stats().degraded() == 0 {
            if let (Some(j), Some(k)) = (journal, jobs[ix].record.as_deref()) {
                j.put(k, &r.encode());
            }
        }
        r
    };
    // 5. The supervised batch, then sequential retries in job order.
    let mut results = run_jobs_supervised(replayed, opts.effective_threads(), |ix, r| {
        r.unwrap_or_else(|| run_attempt(ix, tickets[ix], 0))
    });
    let mut retried_jobs = 0u64;
    for (ix, job) in jobs.iter().enumerate() {
        for attempt in 1..=robust.retries {
            let needs_retry = match &results[ix] {
                Ok(r) => r.stats().degraded() > 0,
                Err(_) => true,
            };
            // A tripped run-wide deadline can't be outrun by retrying.
            if !needs_retry || robust.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                break;
            }
            retried_jobs += 1;
            let next = next_ticket.entry(job.key).or_default();
            let ticket = *next;
            *next += 1;
            results[ix] = supervised(|| run_attempt(ix, ticket, attempt));
        }
    }
    // 6. Stand-ins for jobs that never completed.
    let mut degraded_jobs = 0u64;
    let results = results
        .into_iter()
        .map(|r| match r {
            Ok(r) => {
                degraded_jobs += u64::from(r.stats().degraded() > 0);
                r
            }
            Err(_) => {
                degraded_jobs += 1;
                let mut stats = CheckStats {
                    properties: 1,
                    ..Default::default()
                };
                stats.count_undetermined(UndeterminedReason::JobPanicked);
                R::stand_in(stats)
            }
        })
        .collect();
    PooledRun {
        results,
        degraded_jobs,
        resumed_jobs,
        cone_misses: if journal.is_some() {
            jobs.len() as u64 - resumed_jobs
        } else {
            0
        },
        retried_jobs,
    }
}

/// What an injected fault does to its job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The job panics mid-flight (exercises the supervisor).
    Panic,
    /// Every solver query in the job is forced to `Unknown` (exercises
    /// the forced-degradation path without burning solver time).
    ForceUnknown,
    /// The job runs under an already-expired deadline (exercises the
    /// cancellation plumbing end to end).
    DeadlineExpired,
}

/// What an injected fault does to one serve-loop step — the daemon-phase
/// fault points (worker supervision, queue scheduling, journal
/// persistence) that a synthesis job never sees.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeFault {
    /// The worker panics mid-job (exercises serve-side supervision and
    /// retry).
    WorkerPanic,
    /// The queue stalls before dispatching the job (exercises
    /// backpressure and shedding under latency, never verdicts).
    QueueStall,
    /// The journal append for this job's verdict is torn mid-write
    /// (exercises restart recovery of the verdict store).
    TornJournalWrite,
    /// The job runs under an already-expired watchdog deadline
    /// (exercises the retry-then-degrade path).
    DeadlineExpired,
}

/// A deterministic schedule of injected faults.
///
/// Whether job `ix` of a named phase faults — and how — is a pure
/// function of `(seed, phase, ix)`, so a run replays exactly from its
/// seed, at any worker count. A rate of `0.0` plans nothing and is the
/// zero-cost default.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
}

impl FaultPlan {
    /// A plan injecting faults at `rate` (a probability in `[0, 1]` per
    /// job) from `seed`.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The inactive plan: never faults.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this plan can fault at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The seed from `SYNTHLC_FAULT_SEED` (decimal), defaulting to 0.
    pub fn env_seed() -> u64 {
        std::env::var("SYNTHLC_FAULT_SEED")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    }

    /// The fault planned for job `ix` of `phase`, if any. Phases keep
    /// independent streams so e.g. µPATH slot jobs and IFT unit jobs
    /// fault independently under one seed.
    pub fn fault_for(&self, phase: &str, ix: usize) -> Option<FaultKind> {
        self.fault_for_attempt(phase, ix, 0)
    }

    /// Like [`fault_for`], but for retry attempt `attempt` of the job.
    /// Attempt 0 is byte-compatible with [`fault_for`] (pinned seeds from
    /// before retries existed keep their schedules); attempts beyond 0
    /// roll independently, so a retried job can recover from an injected
    /// fault instead of deterministically re-hitting it.
    ///
    /// [`fault_for`]: FaultPlan::fault_for
    pub fn fault_for_attempt(&self, phase: &str, ix: usize, attempt: u32) -> Option<FaultKind> {
        let mut rng = self.job_rng(phase, ix, attempt)?;
        if !rng.chance(self.rate) {
            return None;
        }
        Some(match rng.range(0, 3) {
            0 => FaultKind::Panic,
            1 => FaultKind::ForceUnknown,
            _ => FaultKind::DeadlineExpired,
        })
    }

    /// The serve-phase fault planned for step `ix` of `phase` at retry
    /// `attempt`, if any. Serve phases draw from their own kind set
    /// ([`ServeFault`]: worker panic, queue stall, torn journal write,
    /// expired watchdog) but use the same pure `(seed, phase, ix,
    /// attempt)` schedule, so a chaos-mode daemon run replays exactly
    /// from `SYNTHLC_FAULT_SEED`.
    pub fn serve_fault_for(&self, phase: &str, ix: usize, attempt: u32) -> Option<ServeFault> {
        let mut rng = self.job_rng(phase, ix, attempt)?;
        if !rng.chance(self.rate) {
            return None;
        }
        Some(match rng.range(0, 4) {
            0 => ServeFault::WorkerPanic,
            1 => ServeFault::QueueStall,
            2 => ServeFault::TornJournalWrite,
            _ => ServeFault::DeadlineExpired,
        })
    }

    /// The per-(phase, ix, attempt) PRNG stream behind every schedule:
    /// FNV-1a over the coordinates, decorrelated by the seed. `None` when
    /// the plan is inactive. Attempt 0 skips the attempt mix-in so the
    /// pre-retry streams are preserved byte for byte.
    fn job_rng(&self, phase: &str, ix: usize, attempt: u32) -> Option<prng::Rng> {
        if self.rate <= 0.0 {
            return None;
        }
        let mut h = netlist::fnv::Fnv1a::new();
        h.bytes(phase.as_bytes());
        h.word(ix as u64);
        if attempt > 0 {
            h.word(0xa5a5_0000 ^ attempt as u64);
        }
        Some(prng::Rng::new(
            h.finish() ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }
}

/// A persistent store of completed job results, keyed by stable
/// fingerprint strings — the interface drivers journal through without
/// depending on the journal's file format. Implementations must be safe
/// to call from parallel workers.
pub trait JobStore: std::fmt::Debug + Send + Sync {
    /// The stored record for `key`, if one was completed earlier.
    fn get(&self, key: &str) -> Option<String>;

    /// Durably persists `record` under `key`.
    fn put(&self, key: &str, record: &str);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_jobs_isolate_panics() {
        let jobs: Vec<usize> = (0..16).collect();
        for threads in [1, 4] {
            let out = run_jobs_supervised(jobs.clone(), threads, |_, j| {
                if j % 5 == 3 {
                    panic!("boom at {j}");
                }
                j * 2
            });
            assert_eq!(out.len(), 16);
            for (ix, r) in out.iter().enumerate() {
                if ix % 5 == 3 {
                    assert_eq!(*r.as_ref().unwrap_err(), format!("boom at {ix}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), ix * 2);
                }
            }
        }
    }

    #[test]
    fn supervised_results_match_across_thread_counts() {
        let jobs: Vec<usize> = (0..32).collect();
        let run = |threads| {
            run_jobs_supervised(jobs.clone(), threads, |_, j| {
                if j == 7 || j == 20 {
                    panic!("injected");
                }
                j + 100
            })
        };
        assert_eq!(run(1), run(6));
    }

    #[test]
    fn fault_plan_is_deterministic_and_phase_split() {
        let plan = FaultPlan::new(42, 0.5);
        let a: Vec<_> = (0..64).map(|ix| plan.fault_for("ift", ix)).collect();
        let b: Vec<_> = (0..64).map(|ix| plan.fault_for("ift", ix)).collect();
        assert_eq!(a, b, "same (seed, phase, ix) must plan the same fault");
        let c: Vec<_> = (0..64).map(|ix| plan.fault_for("mupath", ix)).collect();
        assert_ne!(a, c, "phases should have independent fault streams");
        let hits = a.iter().flatten().count();
        assert!(
            (10..60).contains(&hits),
            "rate 0.5 planned {hits}/64 faults"
        );
    }

    #[test]
    fn disabled_plan_never_faults() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_active());
        assert!((0..256).all(|ix| plan.fault_for("any", ix).is_none()));
    }

    #[test]
    fn attempt_zero_matches_legacy_schedule() {
        let plan = FaultPlan::new(42, 0.5);
        for ix in 0..64 {
            assert_eq!(
                plan.fault_for("ift", ix),
                plan.fault_for_attempt("ift", ix, 0),
                "attempt 0 must be byte-compatible with fault_for at ix {ix}"
            );
        }
    }

    #[test]
    fn retry_attempts_roll_independently() {
        let plan = FaultPlan::new(42, 0.5);
        let a0: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("p", ix, 0))
            .collect();
        let a1: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("p", ix, 1))
            .collect();
        let a2: Vec<_> = (0..64)
            .map(|ix| plan.fault_for_attempt("p", ix, 2))
            .collect();
        assert_ne!(a0, a1, "attempt 1 must not replay attempt 0's faults");
        assert_ne!(a1, a2, "attempt 2 must not replay attempt 1's faults");
        // A faulted job must be able to recover on retry somewhere in the
        // sweep — otherwise retries are pure waste under injection.
        assert!(
            (0..64).any(|ix| plan.fault_for_attempt("p", ix, 0).is_some()
                && plan.fault_for_attempt("p", ix, 1).is_none()),
            "no faulted job recovers on its first retry"
        );
    }

    #[test]
    fn serve_faults_are_deterministic_and_cover_all_kinds() {
        let plan = FaultPlan::new(7, 1.0);
        let a: Vec<_> = (0..64)
            .map(|ix| plan.serve_fault_for("serve-worker", ix, 0))
            .collect();
        let b: Vec<_> = (0..64)
            .map(|ix| plan.serve_fault_for("serve-worker", ix, 0))
            .collect();
        assert_eq!(
            a, b,
            "same (seed, phase, ix, attempt) must plan the same fault"
        );
        let kinds: std::collections::BTreeSet<String> =
            a.iter().flatten().map(|k| format!("{k:?}")).collect();
        assert_eq!(
            kinds.len(),
            4,
            "expected all four serve fault kinds: {kinds:?}"
        );
        assert!(
            FaultPlan::disabled()
                .serve_fault_for("serve-worker", 0, 0)
                .is_none(),
            "inactive plans must never fault the serve loop"
        );
    }

    #[test]
    fn fault_kinds_all_occur_at_high_rate() {
        let plan = FaultPlan::new(7, 1.0);
        let kinds: std::collections::BTreeSet<_> = (0..64)
            .filter_map(|ix| plan.fault_for("k", ix))
            .map(|k| format!("{k:?}"))
            .collect();
        assert_eq!(kinds.len(), 3, "expected all three fault kinds: {kinds:?}");
    }
}
