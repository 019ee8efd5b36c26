//! The always-on request flight recorder: a fixed-capacity, lock-free
//! ring of per-request records that costs nothing to keep running.
//!
//! Serving turns the unit of diagnosis from a *process* into a
//! *request*: when a tenant reports one slow `QUERY`, a process-global
//! histogram says nothing about it. The flight recorder keeps the last
//! [`RECORDER_CAPACITY`] completed requests — tenant, verb, graph,
//! queue-wait, execution time, outcome, and opt/kernel counter deltas —
//! in a ring that is *always* recording, so the evidence for "what just
//! happened" exists before anyone thinks to ask.
//!
//! ## Hot-path contract
//!
//! [`FlightRecorder::record`] is called once per completed request on
//! the serve worker thread and must never allocate, lock, or syscall:
//!
//! * the ring and every slot are fixed at construction — recording is a
//!   `fetch_add` to claim a slot plus relaxed stores into preallocated
//!   atomics (string fields are copied byte-by-byte into fixed
//!   [`NAME_CAP`]-byte arrays, truncating);
//! * a seqlock-style per-slot sequence word (odd while a write is in
//!   flight) lets readers detect and discard torn records instead of
//!   writers waiting for readers;
//! * if two writers collide on one slot (the ring lapped itself within
//!   one write — requires ≥ [`RECORDER_CAPACITY`] concurrent writers),
//!   the loser drops its record and bumps a collision counter rather
//!   than spin.
//!
//! The `obs_overhead` bench asserts the zero-allocation property for
//! both the muted and the active path on every CI run.
//!
//! ## Readers
//!
//! [`FlightRecorder::tail`] and [`FlightRecorder::slow`] are cold-path
//! drains (the `TAIL` / `SLOW` wire verbs): they copy out every stable
//! slot, validate each against its sequence word, and sort. Records
//! overwritten mid-read are simply skipped — the ring never blocks the
//! writer.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Number of ring slots in the process-wide recorder. 4096 records at
/// ~128 bytes each is a fixed ~512 KiB — enough to hold several seconds
/// of history at saturation throughput, small enough to never matter.
pub const RECORDER_CAPACITY: usize = 4096;

/// Fixed byte budget for each recorded string field (tenant, verb,
/// graph). Longer names are truncated on record; every current verb and
/// the example tenants/graphs fit with room to spare.
pub const NAME_CAP: usize = 24;

/// How a recorded request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    /// Completed and produced an `OK` frame.
    Ok = 0,
    /// Completed with an `ERR` frame (bad request, execution failure).
    Error = 1,
    /// Shed at admission: the global in-flight ceiling was hit.
    ShedGlobal = 2,
    /// Shed at admission: the per-tenant ceiling was hit.
    ShedTenant = 3,
    /// Shed at submission: the worker-pool queue was full.
    ShedQueue = 4,
    /// Admitted but expired in the queue past its deadline.
    Timeout = 5,
}

impl Outcome {
    /// Stable wire/debug name for the outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Error => "error",
            Outcome::ShedGlobal => "shed-global",
            Outcome::ShedTenant => "shed-tenant",
            Outcome::ShedQueue => "shed-queue",
            Outcome::Timeout => "timeout",
        }
    }

    fn from_u8(v: u8) -> Outcome {
        match v {
            1 => Outcome::Error,
            2 => Outcome::ShedGlobal,
            3 => Outcome::ShedTenant,
            4 => Outcome::ShedQueue,
            5 => Outcome::Timeout,
            _ => Outcome::Ok,
        }
    }
}

/// The borrowed input to [`FlightRecorder::record`] — everything the
/// caller already has on hand, so recording copies bytes but never
/// allocates.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord<'a> {
    /// The request ID minted at admission (the `rN` echoed on the wire).
    pub id: u64,
    /// Tenant that issued the request (truncated to [`NAME_CAP`]).
    pub tenant: &'a str,
    /// Wire verb (`QUERY`, `EXPR`, ...; truncated to [`NAME_CAP`]).
    pub verb: &'a str,
    /// Graph the request touched, empty when none.
    pub graph: &'a str,
    /// Version of the graph snapshot served, 0 when not applicable.
    pub version: u64,
    /// Nanoseconds spent waiting in the worker-pool queue.
    pub queue_wait_ns: u64,
    /// Nanoseconds spent executing (0 for shed/expired requests).
    pub exec_ns: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// Kernel invocations this request made (its scope's count).
    pub kernel_delta: u64,
    /// Kernel launches the optimizer saved this request (its scope's
    /// count).
    pub opt_delta: u64,
}

/// An owned, validated copy of one ring slot, as drained by
/// [`FlightRecorder::tail`] / [`FlightRecorder::slow`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedRequest {
    /// Request ID (`rN` on the wire).
    pub id: u64,
    /// Tenant name (possibly truncated at record time).
    pub tenant: String,
    /// Wire verb.
    pub verb: String,
    /// Graph name, empty when the request had none.
    pub graph: String,
    /// Graph snapshot version, 0 when not applicable.
    pub version: u64,
    /// Nanoseconds queued before a worker picked the request up.
    pub queue_wait_ns: u64,
    /// Nanoseconds executing.
    pub exec_ns: u64,
    /// Final outcome.
    pub outcome: Outcome,
    /// Kernel dispatches attributed to this request.
    pub kernel_delta: u64,
    /// Optimizer launches saved for this request.
    pub opt_delta: u64,
}

/// One fixed-size name field: a length byte plus [`NAME_CAP`] data
/// bytes, all atomics so the slot needs no lock and no `unsafe`.
struct NameField {
    len: AtomicU8,
    bytes: [AtomicU8; NAME_CAP],
}

impl NameField {
    fn new() -> NameField {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU8 = AtomicU8::new(0);
        NameField {
            len: ZERO,
            bytes: [ZERO; NAME_CAP],
        }
    }

    /// Store `s` (truncated to a UTF-8 boundary within [`NAME_CAP`]).
    fn store(&self, s: &str) {
        let mut end = s.len().min(NAME_CAP);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        for (i, b) in s.as_bytes()[..end].iter().enumerate() {
            self.bytes[i].store(*b, Ordering::Relaxed);
        }
        self.len.store(end as u8, Ordering::Relaxed);
    }

    /// Copy the field out. Torn reads are possible here; the caller
    /// rejects them via the slot sequence word.
    fn load(&self) -> String {
        let len = (self.len.load(Ordering::Relaxed) as usize).min(NAME_CAP);
        let raw: Vec<u8> = self.bytes[..len]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        String::from_utf8_lossy(&raw).into_owned()
    }
}

/// One ring slot. `seq` is the seqlock word: 0 = never written, odd =
/// write in flight, even > 0 = stable. Writers bump it odd, fill the
/// fields, then publish with a release store of the next even value;
/// readers accept a slot only if `seq` is even, nonzero, and unchanged
/// across the field reads.
struct Slot {
    seq: AtomicU64,
    id: AtomicU64,
    tenant: NameField,
    verb: NameField,
    graph: NameField,
    version: AtomicU64,
    queue_wait_ns: AtomicU64,
    exec_ns: AtomicU64,
    outcome: AtomicU8,
    kernel_delta: AtomicU64,
    opt_delta: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            id: AtomicU64::new(0),
            tenant: NameField::new(),
            verb: NameField::new(),
            graph: NameField::new(),
            version: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            exec_ns: AtomicU64::new(0),
            outcome: AtomicU8::new(0),
            kernel_delta: AtomicU64::new(0),
            opt_delta: AtomicU64::new(0),
        }
    }
}

/// The lock-free bounded flight recorder. See the module docs for the
/// hot-path contract; construct one per process via [`recorder`] (tests
/// may build private instances with [`FlightRecorder::with_capacity`]).
pub struct FlightRecorder {
    slots: Vec<Slot>,
    /// Next logical write position; slot = `head % slots.len()`.
    head: AtomicU64,
    /// Total records accepted (not dropped by mute or collision).
    recorded: AtomicU64,
    /// Records dropped because another writer held the slot.
    collisions: AtomicU64,
    /// When true, [`FlightRecorder::record`] is one load + branch.
    muted: AtomicBool,
}

impl FlightRecorder {
    /// Build a recorder with `capacity` slots (rounded up to 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            muted: AtomicBool::new(false),
        }
    }

    /// Record one completed request. Never allocates, locks, or blocks:
    /// claim a slot with one `fetch_add`, mark it mid-write (odd seq),
    /// store the fields, publish (even seq). A concurrent writer on the
    /// same slot — only possible with ≥ capacity writers in flight —
    /// makes the later claimant drop the record and count a collision.
    pub fn record(&self, r: &RequestRecord<'_>) {
        if self.muted.load(Ordering::Relaxed) {
            return;
        }
        let pos = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[pos];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1 {
            // Another writer is mid-flight in this slot; drop ours.
            self.collisions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slot
            .seq
            .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.collisions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.id.store(r.id, Ordering::Relaxed);
        slot.tenant.store(r.tenant);
        slot.verb.store(r.verb);
        slot.graph.store(r.graph);
        slot.version.store(r.version, Ordering::Relaxed);
        slot.queue_wait_ns.store(r.queue_wait_ns, Ordering::Relaxed);
        slot.exec_ns.store(r.exec_ns, Ordering::Relaxed);
        slot.outcome.store(r.outcome as u8, Ordering::Relaxed);
        slot.kernel_delta.store(r.kernel_delta, Ordering::Relaxed);
        slot.opt_delta.store(r.opt_delta, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Validated copy of one slot, `None` if empty, mid-write, or torn.
    fn read_slot(&self, slot: &Slot) -> Option<RecordedRequest> {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let rec = RecordedRequest {
            id: slot.id.load(Ordering::Relaxed),
            tenant: slot.tenant.load(),
            verb: slot.verb.load(),
            graph: slot.graph.load(),
            version: slot.version.load(Ordering::Relaxed),
            queue_wait_ns: slot.queue_wait_ns.load(Ordering::Relaxed),
            exec_ns: slot.exec_ns.load(Ordering::Relaxed),
            outcome: Outcome::from_u8(slot.outcome.load(Ordering::Relaxed)),
            kernel_delta: slot.kernel_delta.load(Ordering::Relaxed),
            opt_delta: slot.opt_delta.load(Ordering::Relaxed),
        };
        // Acquire fence via re-load: if the slot was rewritten while we
        // copied, the sequence moved and the copy may be torn — discard.
        if slot.seq.load(Ordering::Acquire) != s1 {
            return None;
        }
        Some(rec)
    }

    /// Every currently-stable record, unordered. Cold path.
    fn drain(&self) -> Vec<RecordedRequest> {
        self.slots
            .iter()
            .filter_map(|s| self.read_slot(s))
            .collect()
    }

    /// The `n` most recent records, newest first (by request ID, which
    /// is minted monotonically at admission).
    pub fn tail(&self, n: usize) -> Vec<RecordedRequest> {
        let mut all = self.drain();
        all.sort_by_key(|r| std::cmp::Reverse(r.id));
        all.truncate(n);
        all
    }

    /// The `n` slowest records currently in the ring, by execution
    /// time, slowest first (ties broken newest-first).
    pub fn slow(&self, n: usize) -> Vec<RecordedRequest> {
        let mut all = self.drain();
        all.sort_by(|a, b| b.exec_ns.cmp(&a.exec_ns).then(b.id.cmp(&a.id)));
        all.truncate(n);
        all
    }

    /// Mute or unmute recording. Muted, [`FlightRecorder::record`] is a
    /// single relaxed load and a branch — the A/B lever `serve_bench`
    /// uses to price the recorder itself.
    pub fn set_muted(&self, muted: bool) {
        self.muted.store(muted, Ordering::Relaxed);
    }

    /// Whether recording is currently muted.
    pub fn muted(&self) -> bool {
        self.muted.load(Ordering::Relaxed)
    }

    /// Total records accepted into the ring.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records dropped to a same-slot writer collision.
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The process-wide flight recorder ([`RECORDER_CAPACITY`] slots),
/// built on first use.
pub fn recorder() -> &'static FlightRecorder {
    static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();
    RECORDER.get_or_init(|| FlightRecorder::with_capacity(RECORDER_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, exec_ns: u64) -> RequestRecord<'static> {
        RequestRecord {
            id,
            tenant: "t",
            verb: "QUERY",
            graph: "g",
            version: 1,
            queue_wait_ns: 10,
            exec_ns,
            outcome: Outcome::Ok,
            kernel_delta: 2,
            opt_delta: 1,
        }
    }

    #[test]
    fn record_and_tail_roundtrip() {
        let r = FlightRecorder::with_capacity(8);
        for i in 1..=5 {
            r.record(&rec(i, i * 100));
        }
        let tail = r.tail(3);
        assert_eq!(tail.iter().map(|t| t.id).collect::<Vec<_>>(), [5, 4, 3]);
        assert_eq!(tail[0].tenant, "t");
        assert_eq!(tail[0].verb, "QUERY");
        assert_eq!(tail[0].exec_ns, 500);
        assert_eq!(tail[0].outcome, Outcome::Ok);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.collisions(), 0);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::with_capacity(4);
        for i in 1..=10 {
            r.record(&rec(i, i));
        }
        let tail = r.tail(10);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.iter().map(|t| t.id).collect::<Vec<_>>(), [10, 9, 8, 7]);
    }

    #[test]
    fn slow_orders_by_exec_ns() {
        let r = FlightRecorder::with_capacity(8);
        r.record(&rec(1, 500));
        r.record(&rec(2, 10_000));
        r.record(&rec(3, 40));
        let slow = r.slow(2);
        assert_eq!(slow.iter().map(|s| s.id).collect::<Vec<_>>(), [2, 1]);
    }

    #[test]
    fn muted_records_nothing() {
        let r = FlightRecorder::with_capacity(4);
        r.set_muted(true);
        r.record(&rec(1, 1));
        assert!(r.muted());
        assert_eq!(r.recorded(), 0);
        assert!(r.tail(4).is_empty());
        r.set_muted(false);
        r.record(&rec(2, 2));
        assert_eq!(r.tail(4).len(), 1);
    }

    #[test]
    fn long_names_truncate_on_char_boundary() {
        let r = FlightRecorder::with_capacity(2);
        let long = "tenant-name-well-past-the-cap-àéîõü";
        r.record(&RequestRecord {
            tenant: long,
            ..rec(1, 1)
        });
        let t = &r.tail(1)[0].tenant;
        assert!(t.len() <= NAME_CAP);
        assert!(long.starts_with(t.as_str()));
    }

    #[test]
    fn outcome_round_trips() {
        for o in [
            Outcome::Ok,
            Outcome::Error,
            Outcome::ShedGlobal,
            Outcome::ShedTenant,
            Outcome::ShedQueue,
            Outcome::Timeout,
        ] {
            assert_eq!(Outcome::from_u8(o as u8), o);
            assert!(!o.as_str().is_empty());
        }
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        let id = t * 1_000_000 + i;
                        // Tenant encodes the id so a torn record is
                        // detectable as a field mismatch.
                        let tenant = format!("t{id}");
                        r.record(&RequestRecord {
                            id,
                            tenant: &tenant,
                            exec_ns: id,
                            ..rec(0, 0)
                        });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for got in r.tail(usize::MAX) {
            assert_eq!(got.tenant, format!("t{}", got.id), "torn record: {got:?}");
            assert_eq!(got.exec_ns, got.id);
        }
    }
}
