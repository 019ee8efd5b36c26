//! Request-scoped observability plumbing: ID minting, the slow-query
//! threshold, and the `EXPLAIN` capture store.
//!
//! Three small pieces that together make a single past request
//! diagnosable after the fact:
//!
//! * **Request IDs** — one process-wide monotone counter, minted per
//!   request line at admission and echoed on every `OK`/`ERR` frame as
//!   the trailing `ID rN` header token. The ID is the join key across
//!   every surface: the flight-recorder ring (`TAIL`/`SLOW`), the
//!   `Cat::Serve` span label, the runtime's tagged
//!   [`pygb_runtime::trace_report_for`] ring, and this module's
//!   `EXPLAIN` store.
//! * **Slow threshold** — `PYGB_SLOW_NS` (read once at first use) with
//!   a runtime override via the `SLOW THRESHOLD <ns>` verb. Mirrored
//!   into every metrics snapshot as the `tunables/slow_ns` counter so a
//!   scrape shows the threshold actually in effect.
//! * **Explain store** — requests whose execution exceeds the threshold
//!   capture their full `plan()` rendering (raw vs optimized DAG,
//!   sparsity facts, kernel hints) plus the per-node measured-ns trace
//!   report, into a bounded ring retrievable with `EXPLAIN rN` until
//!   evicted by newer captures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many slow-query captures are retained; older entries are
/// evicted. Each entry holds two rendered strings (plan + report), so
/// the store is bounded by roughly `CAP × plan size`.
pub const EXPLAIN_CAP: usize = 256;

/// Default slow threshold when `PYGB_SLOW_NS` is unset: 100 ms.
pub const DEFAULT_SLOW_NS: u64 = 100_000_000;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Mint the next request ID. Monotone process-wide; rendered `rN` on
/// the wire.
pub fn next_request_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

fn slow_ns_cell() -> &'static AtomicU64 {
    static SLOW_NS: OnceLock<AtomicU64> = OnceLock::new();
    SLOW_NS.get_or_init(|| {
        let ns = std::env::var("PYGB_SLOW_NS")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_SLOW_NS);
        mirror_slow_ns(ns);
        AtomicU64::new(ns)
    })
}

/// Publish the threshold into the metrics registry (`tunables/slow_ns`)
/// so snapshots and the Prometheus exposition carry the live value.
fn mirror_slow_ns(ns: u64) {
    pygb_obs::registry().counter("tunables/slow_ns").set(ns);
}

/// The slow-query threshold currently in effect, nanoseconds.
pub fn slow_ns() -> u64 {
    slow_ns_cell().load(Ordering::Relaxed)
}

/// Override the slow-query threshold at runtime (the
/// `SLOW THRESHOLD <ns>` verb). Takes effect for requests completing
/// after the call.
pub fn set_slow_ns(ns: u64) {
    slow_ns_cell().store(ns, Ordering::Relaxed);
    mirror_slow_ns(ns);
}

/// If a request [`pygb_obs::Scope`] is installed on the calling thread,
/// render the current pending op-DAG via `render` and store it in the
/// scope. Called by the expression path between enqueue and flush — the
/// only window where `plan()` can still see the request's nodes. A no-op
/// outside serving (plain library use, tests), so the render closure
/// never runs there.
pub fn offer_plan(render: impl FnOnce() -> String) {
    if let Some(scope) = pygb_obs::current_scope() {
        scope.offer_plan(render);
    }
}

// ---------------------------------------------------------------------
// The EXPLAIN store.
// ---------------------------------------------------------------------

/// One slow-query capture, rendered for `EXPLAIN rN`.
#[derive(Clone, Debug)]
pub struct ExplainEntry {
    /// The request ID.
    pub id: u64,
    /// Tenant that issued the request.
    pub tenant: String,
    /// Wire verb.
    pub verb: String,
    /// Nanoseconds queued before a worker picked the request up.
    pub queue_wait_ns: u64,
    /// Nanoseconds executing on the worker.
    pub exec_ns: u64,
    /// The pre-flush `plan()` rendering (raw vs optimized DAG, sparsity
    /// facts, kernel hints), when the request's path could capture one
    /// (`EXPR`; algorithm verbs flush inside library code).
    pub plan: Option<String>,
    /// The per-node measured-ns trace report of the request's last
    /// flush, when one was published.
    pub report: Option<String>,
}

impl ExplainEntry {
    /// Render the full `EXPLAIN` payload.
    pub fn render(&self) -> String {
        let mut out = format!(
            "request r{} tenant={} verb={} queue_wait={}ns exec={}ns\n",
            self.id, self.tenant, self.verb, self.queue_wait_ns, self.exec_ns
        );
        match &self.plan {
            Some(plan) => {
                out.push_str("--- plan (captured pre-flush) ---\n");
                out.push_str(plan);
                if !plan.ends_with('\n') {
                    out.push('\n');
                }
            }
            None => out.push_str(
                "--- plan unavailable (request flushed inside library code; \
                 per-node timings below cover its last flush) ---\n",
            ),
        }
        match &self.report {
            Some(report) => {
                out.push_str("--- execution (per-node measured ns) ---\n");
                out.push_str(report);
                if !report.ends_with('\n') {
                    out.push('\n');
                }
            }
            None => out.push_str("--- no execution report published ---\n"),
        }
        out
    }
}

static EXPLAINS: Mutex<VecDeque<ExplainEntry>> = Mutex::new(VecDeque::new());

/// Store one slow-query capture, evicting the oldest past
/// [`EXPLAIN_CAP`]. Re-capturing an ID replaces the earlier entry.
pub fn store_explain(entry: ExplainEntry) {
    let mut ring = match EXPLAINS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    ring.retain(|e| e.id != entry.id);
    if ring.len() >= EXPLAIN_CAP {
        ring.pop_front();
    }
    ring.push_back(entry);
}

/// Look up a capture by request ID.
pub fn get_explain(id: u64) -> Option<ExplainEntry> {
    let ring = match EXPLAINS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    ring.iter().find(|e| e.id == id).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotone() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(b > a);
    }

    #[test]
    fn explain_store_evicts_and_replaces() {
        // Use ids far above anything the other tests mint.
        let base = 1_000_000_000;
        for i in 0..EXPLAIN_CAP + 10 {
            store_explain(ExplainEntry {
                id: base + i as u64,
                tenant: "t".into(),
                verb: "expr".into(),
                queue_wait_ns: 1,
                exec_ns: 2,
                plan: None,
                report: None,
            });
        }
        assert!(get_explain(base).is_none(), "oldest must be evicted");
        assert!(get_explain(base + EXPLAIN_CAP as u64 + 9).is_some());
        // Replacing an id keeps one entry with the new content.
        store_explain(ExplainEntry {
            id: base + 100,
            tenant: "t2".into(),
            verb: "query".into(),
            queue_wait_ns: 3,
            exec_ns: 4,
            plan: Some("plan".into()),
            report: Some("report".into()),
        });
        let e = get_explain(base + 100).unwrap();
        assert_eq!(e.tenant, "t2");
        let text = e.render();
        assert!(text.contains("request r1000000100"), "{text}");
        assert!(text.contains("--- plan (captured pre-flush) ---"), "{text}");
        assert!(text.contains("--- execution"), "{text}");
    }

    #[test]
    fn plans_are_offered_to_the_installed_request_scope_only() {
        // No scope: the render closure must not run.
        offer_plan(|| unreachable!("no scope, no render"));
        let scope = pygb_obs::Scope::request(1);
        {
            let _in = scope.enter();
            offer_plan(|| "the plan".to_string());
        }
        offer_plan(|| unreachable!("uninstalled scope, no render"));
        assert_eq!(scope.take_plan().as_deref(), Some("the plan"));
    }
}
