//! Served answers kept on the snapshot they were computed from.
//!
//! The paper's kernel cache turns a repeated *key* into a lookup. A
//! catalog snapshot is immutable, so the same holds one level up: the
//! reply to a read on a snapshot is fixed the moment the snapshot is
//! published, and a repeat of the read can be answered from the bytes
//! the first one sent.
//!
//! - **Where answers live.** Each [`Snapshot`] owns an [`Answers`]
//!   slot. An answer is freed when its snapshot is: after a newer
//!   version (or a drop) has replaced it in the catalog and its last
//!   in-flight reader is done. Nothing is purged and no code compares
//!   versions.
//! - **The key** is the parsed request, not a `(name, version)` pair:
//!   a `QUERY`'s [`Algo`], or an `EXPR`'s spec plus the process-unique
//!   [`Snapshot::id`]s of its second operand and mask. Only `QUERY` and
//!   `EXPR` without `INTO` are answers; everything else writes or reads
//!   mutable state.
//! - **Resolve once.** The connection thread resolves the operands into
//!   a [`Read`], looks it up, and on a miss hands the same `Arc`s to a
//!   worker, which computes on them and files the answer in the slot of
//!   the snapshot it computed on.
//! - **Bounded.** Every answer is charged to its server's [`Budget`]
//!   and admitted only if it fits; its bytes return when it drops.

// Connection and worker hot path: no `unwrap`/`expect` (clippy.toml).
#![warn(clippy::disallowed_methods)]

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pygb_obs::Counter;

use crate::catalog::{Catalog, Snapshot};
use crate::query::{self, Algo, ExprSpec, QueryError, Request};

/// What an answer is filed under in its snapshot's slot.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum AnswerKey {
    /// `QUERY <graph> <algo>` on the slot's snapshot.
    Query(Algo),
    /// `EXPR <graph> ...` with the slot's snapshot as first operand.
    Expr {
        /// The request as parsed (never with `INTO`).
        spec: ExprSpec,
        /// [`Snapshot::id`] of the second operand.
        b: u64,
        /// [`Snapshot::id`] of the mask, if any.
        mask: Option<u64>,
    },
}

/// One `OK` reply: its payload and its `WARN` lines.
pub(crate) struct Answer {
    /// The reply payload.
    pub(crate) payload: String,
    /// The analyzer lints the computation raised.
    pub(crate) warnings: Vec<String>,
    /// Held while the answer is filed; returns its bytes on drop.
    _charge: Option<Charge>,
}

impl Answer {
    /// A reply that is not filed anywhere.
    pub(crate) fn unfiled(payload: String, warnings: Vec<String>) -> Answer {
        Answer {
            payload,
            warnings,
            _charge: None,
        }
    }
}

/// Bytes an answer keeps resident: its buffers plus a fixed estimate of
/// the entry around them.
fn footprint(payload: &str, warnings: &[String], key: &AnswerKey) -> usize {
    let spec = match key {
        AnswerKey::Query(_) => 0,
        AnswerKey::Expr { spec, .. } => [
            Some(&spec.a),
            Some(&spec.b),
            spec.mask.as_ref(),
            spec.semiring.as_ref(),
            spec.binop.as_ref(),
            spec.accum.as_ref(),
        ]
        .into_iter()
        .flatten()
        .map(String::len)
        .sum(),
    };
    payload.len() + warnings.iter().map(String::len).sum::<usize>() + spec + ENTRY_OVERHEAD
}

/// Per-entry bookkeeping beyond the buffers: the `Arc`'d answer, its
/// key and the map slot, rounded up.
const ENTRY_OVERHEAD: usize = 256;

/// The answers one snapshot has served, by request.
#[derive(Default)]
pub(crate) struct Answers(Mutex<HashMap<AnswerKey, Arc<Answer>>>);

impl fmt::Debug for Answers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Answers({})", self.0.lock().len())
    }
}

/// A byte budget shared by the answers one server files.
struct Budget {
    limit: usize,
    resident: AtomicUsize,
}

/// Bytes held against a [`Budget`], returned on drop.
struct Charge {
    budget: Arc<Budget>,
    bytes: usize,
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.budget
            .resident
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

impl Budget {
    /// Reserve `bytes` if they fit under the limit.
    fn charge(self: &Arc<Self>, bytes: usize) -> Option<Charge> {
        self.resident
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                held.checked_add(bytes).filter(|&total| total <= self.limit)
            })
            .ok()
            .map(|_| Charge {
                budget: Arc::clone(self),
                bytes,
            })
    }
}

/// The computation behind a [`Read`], with its operands resolved.
enum Operation {
    Query(Algo),
    Expr {
        spec: ExprSpec,
        b: Arc<Snapshot>,
        mask: Option<Arc<Snapshot>>,
    },
}

/// A cacheable read, resolved once on the connection thread: the
/// snapshot its answer is filed on, the key, and the operands the
/// computation runs on if the lookup misses.
pub(crate) struct Read {
    snap: Arc<Snapshot>,
    key: AnswerKey,
    op: Operation,
}

impl Read {
    /// The snapshot the answer belongs to (an `EXPR`'s first operand).
    pub(crate) fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// The wire verb, as [`Request::verb`] names it.
    pub(crate) fn verb(&self) -> &'static str {
        match self.op {
            Operation::Query(_) => "query",
            Operation::Expr { .. } => "expr",
        }
    }

    /// Compute the reply on the resolved snapshots. This is the code an
    /// uncached request runs; only the snapshot lookup is skipped.
    pub(crate) fn run(&self, catalog: &Catalog) -> Result<String, QueryError> {
        match &self.op {
            Operation::Query(algo) => query::run_algo(&self.snap, *algo),
            Operation::Expr { spec, b, mask } => {
                query::run_expr_on(catalog, spec, &self.snap, b, mask.as_ref())
            }
        }
    }
}

/// One server's answer cache: its budget and its counters.
pub(crate) struct AnswerCache {
    budget: Arc<Budget>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    refused: Arc<Counter>,
}

impl AnswerCache {
    /// A cache admitting up to `limit` resident bytes; 0 keeps nothing.
    /// Resolves the `serve/result_*` counters, so they are listed from
    /// startup.
    pub(crate) fn new(limit: usize) -> AnswerCache {
        let registry = pygb_obs::registry();
        AnswerCache {
            budget: Arc::new(Budget {
                limit,
                resident: AtomicUsize::new(0),
            }),
            hits: registry.counter("serve/result_hit"),
            misses: registry.counter("serve/result_miss"),
            refused: registry.counter("serve/result_refused"),
        }
    }

    /// Bytes currently held by the answers this cache filed.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.budget.resident.load(Ordering::Relaxed)
    }

    /// Resolve `req` into a [`Read`] when it is cacheable and every
    /// graph it names exists. `None` sends the request down the general
    /// path, which reports a missing graph as before. A read runs the
    /// same way whether the cache is on or off; only [`Self::lookup`]
    /// and [`Self::file`] look at the budget.
    pub(crate) fn resolve(&self, catalog: &Catalog, req: &Request) -> Option<Read> {
        match req {
            Request::Query { graph, algo } => Some(Read {
                snap: catalog.get(graph)?,
                key: AnswerKey::Query(*algo),
                op: Operation::Query(*algo),
            }),
            Request::Expr(spec) if spec.into.is_none() => {
                let snap = catalog.get(&spec.a)?;
                let b = catalog.get(&spec.b)?;
                let mask = match &spec.mask {
                    Some(name) => Some(catalog.get(name)?),
                    None => None,
                };
                Some(Read {
                    snap,
                    key: AnswerKey::Expr {
                        spec: spec.clone(),
                        b: b.id(),
                        mask: mask.as_ref().map(|m| m.id()),
                    },
                    op: Operation::Expr {
                        spec: spec.clone(),
                        b,
                        mask,
                    },
                })
            }
            _ => None,
        }
    }

    /// The answer `read`'s snapshot already holds, counted as a hit or
    /// a miss. A cache with no budget holds nothing and counts nothing.
    pub(crate) fn lookup(&self, read: &Read) -> Option<Arc<Answer>> {
        if self.budget.limit == 0 {
            return None;
        }
        let found = read.snap.answers().0.lock().get(&read.key).cloned();
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Wrap a computed reply and file it in `read`'s snapshot if it
    /// fits the budget (else count it refused; a cache with no budget
    /// files nothing and counts nothing). The payload is moved, not
    /// copied: the caller sends from the returned answer.
    pub(crate) fn file(
        &self,
        read: &Read,
        mut payload: String,
        warnings: Vec<String>,
    ) -> Arc<Answer> {
        if self.budget.limit == 0 {
            return Arc::new(Answer::unfiled(payload, warnings));
        }
        let Some(charge) = self
            .budget
            .charge(footprint(&payload, &warnings, &read.key))
        else {
            self.refused.inc();
            return Arc::new(Answer::unfiled(payload, warnings));
        };
        // Keep the bytes, not the renderer's reserve: a reply buffer is
        // sized from an upper bound and runs about twice its length.
        payload.shrink_to_fit();
        let answer = Arc::new(Answer {
            payload,
            warnings,
            _charge: Some(charge),
        });
        // A concurrent miss on the same key may have filed first; both
        // computed on this snapshot, so either answer is the answer.
        read.snap
            .answers()
            .0
            .lock()
            .entry(read.key.clone())
            .or_insert_with(|| Arc::clone(&answer));
        answer
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::query::parse;

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        for line in [
            "REGISTER g TRIPLES 3 3 fp64 0:1:1,1:2:1",
            "REGISTER m TRIPLES 3 3 fp64 0:0:1",
        ] {
            query::execute(&catalog, &parse(line).unwrap()).unwrap();
        }
        catalog
    }

    #[test]
    fn only_reads_without_into_resolve() {
        let catalog = catalog();
        let cache = AnswerCache::new(1 << 20);
        for line in ["QUERY g BFS 0", "EXPR g MXM g MASK m", "EXPR g EWADD g"] {
            assert!(
                cache.resolve(&catalog, &parse(line).unwrap()).is_some(),
                "{line}"
            );
        }
        for line in [
            "EXPR g MXM g INTO h",
            "UPDATE g ADD 0:0:1",
            "REGISTER h TRIPLES 1 1 fp64 0:0:1",
            "LIST",
            "QUERY ghost BFS 0",
            "EXPR g MXM ghost",
            "EXPR g MXM g MASK ghost",
        ] {
            assert!(
                cache.resolve(&catalog, &parse(line).unwrap()).is_none(),
                "{line}"
            );
        }
    }

    #[test]
    fn a_cache_with_no_budget_runs_the_same_read_but_keeps_nothing() {
        let catalog = catalog();
        let off = AnswerCache::new(0);
        let read = off
            .resolve(&catalog, &parse("QUERY g BFS 0").unwrap())
            .expect("a read resolves whether or not answers are kept");
        for _ in 0..2 {
            assert!(off.lookup(&read).is_none());
            let payload = read.run(&catalog).unwrap();
            off.file(&read, payload, Vec::new());
        }
        assert!(read.snapshot().answers().0.lock().is_empty());
        assert_eq!(off.resident_bytes(), 0);
    }

    #[test]
    fn a_filed_answer_is_found_and_its_bytes_return_with_its_snapshot() {
        let catalog = catalog();
        let cache = AnswerCache::new(1 << 20);
        let req = parse("QUERY g BFS 0").unwrap();
        let read = cache.resolve(&catalog, &req).unwrap();
        assert!(cache.lookup(&read).is_none());
        let payload = read.run(&catalog).unwrap();
        let sent = cache.file(&read, payload, Vec::new());
        let again = cache.resolve(&catalog, &req).unwrap();
        let hit = cache.lookup(&again).expect("filed answer is found");
        assert!(Arc::ptr_eq(&hit, &sent), "the hit sends the miss's bytes");
        assert!(cache.resident_bytes() > 0);

        // A new version has an empty slot; the old one's bytes go when
        // its last holder does.
        query::execute(
            &catalog,
            &parse("REGISTER g TRIPLES 3 3 fp64 0:2:1").unwrap(),
        )
        .unwrap();
        let fresh = cache.resolve(&catalog, &req).unwrap();
        assert!(cache.lookup(&fresh).is_none());
        drop((read, again, hit, sent));
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn an_answer_over_budget_is_sent_but_not_filed() {
        let catalog = catalog();
        let cache = AnswerCache::new(ENTRY_OVERHEAD);
        let read = cache
            .resolve(&catalog, &parse("QUERY g BFS 0").unwrap())
            .unwrap();
        let payload = read.run(&catalog).unwrap();
        let want = payload.clone();
        let sent = cache.file(&read, payload, Vec::new());
        assert_eq!(sent.payload, want);
        assert!(cache.lookup(&read).is_none());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn expr_answers_are_keyed_by_operand_snapshots() {
        let catalog = catalog();
        let cache = AnswerCache::new(1 << 20);
        let req = parse("EXPR g EWADD g MASK m").unwrap();
        let read = cache.resolve(&catalog, &req).unwrap();
        let payload = read.run(&catalog).unwrap();
        cache.file(&read, payload, Vec::new());
        assert!(cache
            .lookup(&cache.resolve(&catalog, &req).unwrap())
            .is_some());
        // Republishing only the mask changes the key, not the slot.
        query::execute(
            &catalog,
            &parse("REGISTER m TRIPLES 3 3 fp64 0:1:1").unwrap(),
        )
        .unwrap();
        let remasked = cache.resolve(&catalog, &req).unwrap();
        assert!(Arc::ptr_eq(remasked.snapshot(), read.snapshot()));
        assert!(cache.lookup(&remasked).is_none());
    }
}
