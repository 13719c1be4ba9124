//! The content-addressed verdict store: the daemon's answer cache, backed
//! by the crash-safe checkpoint journal ([`synthlc::Journal`]).
//!
//! Keys are pure functions of (job kind, design fingerprint, verdict-
//! relevant knobs) — never of deadlines, fault plans, or retry budgets,
//! which can only *widen* verdicts, not change clean ones. Only clean
//! (non-degraded) verdicts are stored, so everything the cache answers is
//! the verdict an uninterrupted fault-free run would produce. On restart
//! the journal replays (tolerating a torn tail, including a tear spliced
//! across two appends), so a killed daemon resumes answering byte for
//! byte identically.

use mc::JobStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use synthlc::Journal;

/// A journal-backed verdict cache with reuse counters.
#[derive(Debug)]
pub struct VerdictStore {
    journal: Journal,
    torn_writes: AtomicU64,
}

impl VerdictStore {
    /// Creates a fresh store at `path` (truncating any existing file).
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<VerdictStore> {
        Ok(VerdictStore {
            journal: Journal::create(path.into())?,
            torn_writes: AtomicU64::new(0),
        })
    }

    /// Reopens an existing store, replaying every intact record and
    /// truncating a torn tail (the restart path).
    pub fn resume(path: impl Into<PathBuf>) -> std::io::Result<VerdictStore> {
        Ok(VerdictStore {
            journal: Journal::resume(path.into())?,
            torn_writes: AtomicU64::new(0),
        })
    }

    /// The stored verdict for `key`, if a clean run completed it before.
    pub fn get(&self, key: &str) -> Option<String> {
        self.journal.get(key)
    }

    /// Durably stores a clean verdict.
    pub fn put(&self, key: &str, record: &str) {
        self.journal.put(key, record);
    }

    /// Fault injection ([`mc::ServeFault::TornJournalWrite`]): appends a
    /// *prefix* of the record's journal line — the on-disk shape a kill
    /// mid-append leaves behind. The record is not admitted to the
    /// in-memory map (it never durably completed), and the next
    /// [`resume`] must drop exactly this suffix.
    ///
    /// [`resume`]: VerdictStore::resume
    pub fn put_torn(&self, key: &str, record: &str) {
        self.torn_writes.fetch_add(1, Ordering::Relaxed);
        let line = jsonio::Json::obj([
            ("k", jsonio::Json::str(key)),
            ("r", jsonio::Json::str(record)),
        ])
        .render_compact();
        let torn = &line[..line.len() / 2];
        self.journal.append_raw(torn.as_bytes());
    }

    /// Cache hits served so far (the reuse counter).
    pub fn hits(&self) -> u64 {
        self.journal.hits()
    }

    /// Clean verdicts currently held.
    pub fn len(&self) -> usize {
        self.journal.len()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }

    /// Torn-write faults injected so far.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes.load(Ordering::Relaxed)
    }
}

/// The batch drivers' journal interface, so the daemon can hand the store
/// straight to `synthesize_isa_with`/`synthesize_leakage` as their
/// checkpoint journal. Job-level verdicts (`serve:` keys) and per-cone
/// records (`mupath:`/`ift:` keys) share one file; the namespaces are
/// disjoint. This is what makes the daemon's caching *cone-granular*: an
/// edited design resubmitted as a new job misses the job-level cache but
/// replays every cone the edit did not touch (`DESIGN.md` §14).
impl JobStore for VerdictStore {
    fn get(&self, key: &str) -> Option<String> {
        self.journal.get(key)
    }

    fn put(&self, key: &str, record: &str) {
        self.journal.put(key, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("synthlc-serve-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn torn_put_is_invisible_and_recovered_on_resume() {
        let path = tmp("torn-put");
        {
            let s = VerdictStore::create(&path).unwrap();
            s.put("serve:a", "{\"exit\":0}");
            s.put_torn("serve:b", "{\"exit\":0}");
            assert_eq!(s.torn_writes(), 1);
            assert_eq!(s.get("serve:b"), None, "a torn write never completed");
            // A put after the tear appends a well-formed line again, but a
            // reader must stop at the tear (append-only recovery drops the
            // suffix from the first bad record on).
            s.put("serve:c", "{\"exit\":0}");
        }
        let s = VerdictStore::resume(&path).unwrap();
        assert_eq!(s.get("serve:a").as_deref(), Some("{\"exit\":0}"));
        assert_eq!(s.get("serve:b"), None);
        assert_eq!(s.hits(), 1);
        // After recovery truncated the tear, new verdicts persist again.
        s.put("serve:d", "{\"exit\":2}");
        drop(s);
        let s2 = VerdictStore::resume(&path).unwrap();
        assert_eq!(s2.get("serve:d").as_deref(), Some("{\"exit\":2}"));
        std::fs::remove_file(path).unwrap();
    }
}
