//! The TCP server: accept loop, connection protocol, request routing.
//!
//! Connection threads do only cheap work — framing, parsing, admission
//! — and answer catalog-metadata verbs inline. Graph work is handed to
//! the shared [`WorkerPool`] as a job carrying an `mpsc` reply channel;
//! the connection thread blocks on the reply, so slow queries exert
//! backpressure on their own socket while other connections proceed.
//!
//! Every request line is minted a stable request ID before parsing and
//! the ID is echoed as the trailing `ID rN` token on the response
//! frame, so even a `bad-request` reply is addressable. Every admitted
//! request runs under a [`pygb_obs::Cat::Serve`] span labeled with its
//! ID and feeds the `serve/*` metrics namespace — both the unlabeled
//! aggregate series and `tenant`/`verb`-labeled ones — so a trace
//! export of a busy server shows request lifecycles interleaved with
//! the kernel spans they fan out into. Heavy requests additionally
//! leave a record in the process-wide [`pygb_obs::FlightRecorder`]
//! (including shed and expired ones, attributed to their cause), and
//! requests slower than the [`crate::flightlog`] threshold capture
//! their plan and per-node timings for `EXPLAIN rN`.

// Worker/connection hot path: a panic here loses the request its
// reply, so `unwrap`/`expect` are forbidden (see clippy.toml). Panics
// in the library code a request calls are contained per request.
#![warn(clippy::disallowed_methods)]

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pygb_obs::{
    recorder, span_labeled, Cat, Census, Counter, Histogram, Outcome, RequestRecord, Scope,
};

use crate::admission::{Admission, AdmissionConfig, AdmitError};
use crate::catalog::Catalog;
use crate::flightlog;
use crate::pool::{Job, WorkerPool};
use crate::query::{self, Request};
use crate::wire::{self, ErrCode};

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. Use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads executing graph work.
    pub workers: usize,
    /// Bound on jobs waiting for a worker (beyond this: shed).
    pub queue_capacity: usize,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// How long a connection thread waits for its job's reply before
    /// giving up on it (covers queue wait plus execution).
    pub response_wait: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 512,
            admission: AdmissionConfig::default(),
            response_wait: Duration::from_secs(600),
        }
    }
}

struct Shared {
    catalog: Arc<Catalog>,
    admission: Admission,
    pool: WorkerPool,
    shutdown: AtomicBool,
    response_wait: Duration,
    queue_wait_ns: Arc<Histogram>,
    request_ns: Arc<Histogram>,
    worker_panics: Arc<Counter>,
}

/// A running `pygb-serve` instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `catalog` with the given config.
    pub fn start(catalog: Arc<Catalog>, config: ServerConfig) -> std::io::Result<Server> {
        // Force kernel registration so dispatch works on worker threads
        // and every snapshot lists the census and tunables series.
        let _ = pygb::runtime();
        // Read (and thereby mirror) the slow threshold eagerly so a
        // scrape sees `tunables/slow_ns` before the first heavy request.
        let _ = flightlog::slow_ns();
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            catalog,
            admission: Admission::new(config.admission.clone()),
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            shutdown: AtomicBool::new(false),
            response_wait: config.response_wait,
            queue_wait_ns: pygb_obs::registry().histogram("serve/queue_wait_ns"),
            request_ns: pygb_obs::registry().histogram("serve/request_ns"),
            worker_panics: pygb_obs::registry().counter("serve/worker_panics"),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("pygb-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// Start with an empty catalog and default config (ephemeral port).
    pub fn start_default() -> std::io::Result<Server> {
        Server::start(Arc::new(Catalog::new()), ServerConfig::default())
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served catalog — useful for in-process seeding and oracles.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.shared.catalog
    }

    /// Admitted-but-unfinished request count.
    pub fn inflight(&self) -> usize {
        self.shared.admission.inflight()
    }

    /// Stop accepting and join the accept thread. Existing connections
    /// finish their in-flight exchange and then error out.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok((stream, _peer)) = conn else { continue };
        // Every frame goes out in one `writev` (see `wire`), so NODELAY
        // sends a reply the moment it is written instead of holding a
        // short final segment for the client's delayed ACK (~40 ms).
        stream.set_nodelay(true).ok();
        let conn_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name("pygb-serve-conn".to_string())
            .spawn(move || {
                let _ = handle_connection(stream, conn_shared);
            });
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) -> std::io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut tenant = "anonymous".to_string();
    let requests = pygb_obs::registry().counter("serve/requests");

    while !shared.shutdown.load(Ordering::SeqCst) {
        let Some(line) = wire::read_line(&mut reader)? else {
            return Ok(()); // clean EOF
        };
        if line.trim().is_empty() {
            continue;
        }
        requests.inc();
        // Mint the request ID before parsing so even a `bad-request`
        // frame carries an `ID rN` token the client can report.
        let id = flightlog::next_request_id();
        let req = match query::parse(&line) {
            Ok(req) => req,
            Err((code, msg)) => {
                wire::write_err_tagged(&mut writer, code, &msg, Some(id))?;
                continue;
            }
        };
        match req {
            Request::Hello { tenant: t } => {
                tenant = t.clone();
                respond(
                    &mut writer,
                    query::execute(&shared.catalog, &Request::Hello { tenant: t }),
                    id,
                )?;
            }
            Request::Batch { count } => {
                let subs = match read_batch(&mut reader, count) {
                    Ok(subs) => subs,
                    Err((code, msg)) => {
                        wire::write_err_tagged(&mut writer, code, &msg, Some(id))?;
                        continue;
                    }
                };
                pygb_obs::registry().counter("serve/batches").inc();
                dispatch_heavy(&shared, &mut writer, &tenant, Work::Batch(subs), id)?;
            }
            req if req.is_heavy() => {
                dispatch_heavy(&shared, &mut writer, &tenant, Work::One(req), id)?;
            }
            req => {
                // Cheap metadata verbs answer inline on the connection
                // thread; they never touch graph data. They still echo
                // the ID but are not recorded in the flight ring, so
                // PING/TAIL polling cannot pollute the request history.
                respond(&mut writer, query::execute(&shared.catalog, &req), id)?;
            }
        }
    }
    Ok(())
}

/// Read and validate the `count` request lines following a `BATCH`.
fn read_batch(
    reader: &mut BufReader<TcpStream>,
    count: usize,
) -> Result<Vec<Request>, query::QueryError> {
    let mut subs = Vec::with_capacity(count);
    for _ in 0..count {
        let line = wire::read_line(reader)
            .map_err(|e| (ErrCode::BadRequest, format!("batch read failed: {e}")))?
            .ok_or((ErrCode::BadRequest, "batch truncated by EOF".to_string()))?;
        let sub = query::parse(&line)?;
        if !sub.is_heavy() {
            return Err((
                ErrCode::BadRequest,
                format!(
                    "only REGISTER/QUERY/UPDATE/EXPR allowed in a batch, got `{}`",
                    sub.verb()
                ),
            ));
        }
        subs.push(sub);
    }
    Ok(subs)
}

enum Work {
    One(Request),
    Batch(Vec<Request>),
    /// A request body that panics (containment tests).
    #[cfg(test)]
    Panic,
}

/// Admit, enqueue, and await one unit of heavy work, writing whatever
/// frame results (including the structured shed/timeout responses).
/// Every outcome — completion, error, shed at any of the three
/// ceilings, queue expiry — leaves one record in the flight ring under
/// the minted request ID.
fn dispatch_heavy(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    tenant: &str,
    work: Work,
    id: u64,
) -> std::io::Result<()> {
    let (verb, graph) = match &work {
        Work::One(req) => (req.verb().to_string(), req.graph_name().to_string()),
        Work::Batch(_) => ("BATCH".to_string(), String::new()),
        #[cfg(test)]
        Work::Panic => ("PANIC".to_string(), String::new()),
    };
    let record_shed = |outcome: Outcome, queue_wait_ns: u64| {
        recorder().record(&RequestRecord {
            id,
            tenant,
            verb: &verb,
            graph: &graph,
            version: 0,
            queue_wait_ns,
            exec_ns: 0,
            outcome,
            kernel_delta: 0,
            opt_delta: 0,
        });
    };

    let ticket = match shared.admission.admit(tenant) {
        Ok(t) => Arc::new(t),
        Err(e) => {
            record_shed(
                match e {
                    AdmitError::ServerFull { .. } => Outcome::ShedGlobal,
                    AdmitError::TenantFull { .. } => Outcome::ShedTenant,
                },
                0,
            );
            return wire::write_err_tagged(writer, ErrCode::Overloaded, &e.message(), Some(id));
        }
    };
    let (tx, rx) = mpsc::channel::<Result<Response, query::QueryError>>();
    let admitted_at = Instant::now();
    let deadline = admitted_at + shared.admission.config().queue_timeout;

    let run = {
        let shared = Arc::clone(shared);
        let tenant = tenant.to_string();
        let verb = verb.clone();
        let graph = graph.clone();
        let ticket = Arc::clone(&ticket);
        let tx = tx.clone();
        Box::new(move || {
            let _ticket = ticket;
            let queue_wait_ns = admitted_at.elapsed().as_nanos() as u64;
            shared.queue_wait_ns.record(queue_wait_ns);

            // One scope per request: it tags the flushed DAG's trace
            // report `rN`, forces per-node timing with tracing off,
            // holds the EXPR path's pre-flush plan, and counts exactly
            // this request's kernels and saved launches, on whichever
            // pool threads its waves run.
            let scope = Scope::request(id);
            let exec_start = Instant::now();
            let (result, version) = {
                let _in = scope.enter();
                execute_contained(&shared, &work, &tenant, id)
            };
            let exec_ns = exec_start.elapsed().as_nanos() as u64;

            if exec_ns >= flightlog::slow_ns() {
                pygb_obs::registry().counter("serve/slow_captured").inc();
                flightlog::store_explain(flightlog::ExplainEntry {
                    id,
                    tenant: tenant.clone(),
                    verb: verb.clone(),
                    queue_wait_ns,
                    exec_ns,
                    plan: scope.take_plan(),
                    report: pygb_runtime::trace_report_for(id).map(|r| r.to_string()),
                });
            }

            recorder().record(&RequestRecord {
                id,
                tenant: &tenant,
                verb: &verb,
                graph: &graph,
                version,
                queue_wait_ns,
                exec_ns,
                outcome: if result.is_ok() {
                    Outcome::Ok
                } else {
                    Outcome::Error
                },
                kernel_delta: scope.get(Census::Invocations),
                opt_delta: scope.get(Census::LaunchesSaved),
            });

            let labels = [("tenant", tenant.as_str()), ("verb", verb.as_str())];
            shared
                .request_ns
                .record(admitted_at.elapsed().as_nanos() as u64);
            pygb_obs::registry()
                .labeled_histogram("serve/request_ns", &labels)
                .record(admitted_at.elapsed().as_nanos() as u64);
            let outcome_name = if result.is_ok() {
                "serve/completed"
            } else {
                "serve/errors"
            };
            pygb_obs::registry().counter(outcome_name).inc();
            pygb_obs::registry()
                .labeled_counter(outcome_name, &labels)
                .inc();
            let _ = tx.send(result);
        })
    };
    let expire = {
        let ticket = Arc::clone(&ticket);
        let tenant = tenant.to_string();
        let verb = verb.clone();
        let graph = graph.clone();
        Box::new(move || {
            let _ticket = ticket;
            recorder().record(&RequestRecord {
                id,
                tenant: &tenant,
                verb: &verb,
                graph: &graph,
                version: 0,
                queue_wait_ns: admitted_at.elapsed().as_nanos() as u64,
                exec_ns: 0,
                outcome: Outcome::Timeout,
                kernel_delta: 0,
                opt_delta: 0,
            });
            let _ = tx.send(Err((
                ErrCode::Timeout,
                "request expired in queue before a worker picked it up".to_string(),
            )));
        })
    };
    drop(ticket);

    if let Err((_job, full)) = shared.pool.submit(Job {
        deadline,
        run,
        expire,
    }) {
        pygb_obs::registry().counter("serve/shed_overloaded").inc();
        pygb_obs::registry().counter("serve/shed_queue_full").inc();
        record_shed(Outcome::ShedQueue, 0);
        return wire::write_err_tagged(
            writer,
            ErrCode::Overloaded,
            &format!("worker queue at capacity ({})", full.capacity),
            Some(id),
        );
    }

    match rx.recv_timeout(shared.response_wait) {
        Ok(Ok(resp)) => wire::write_ok_tagged(writer, &resp.payload, &resp.warnings, Some(id)),
        Ok(Err((code, msg))) => wire::write_err_tagged(writer, code, &msg, Some(id)),
        // The job dropped its reply channel unanswered: it panicked
        // outside the contained request body.
        Err(mpsc::RecvTimeoutError::Disconnected) => wire::write_err_tagged(
            writer,
            ErrCode::Internal,
            "request failed without a reply",
            Some(id),
        ),
        // The worker (or expire hook) still owns the ring record; the
        // connection only reports the give-up to its client.
        Err(mpsc::RecvTimeoutError::Timeout) => wire::write_err_tagged(
            writer,
            ErrCode::Timeout,
            "request did not complete within the response window",
            Some(id),
        ),
    }
}

/// Run one unit of heavy work on the worker thread, returning its reply
/// and the catalog version it read. A panic in the library code it
/// calls is contained here: counted as `serve/worker_panics` and
/// answered `internal`, so the request still gets a reply and a flight
/// record and the worker keeps serving.
fn execute_contained(
    shared: &Shared,
    work: &Work,
    tenant: &str,
    id: u64,
) -> (Result<Response, query::QueryError>, u64) {
    let run = || match work {
        Work::One(req) => {
            let _span = span_labeled(Cat::Serve, || {
                format!("serve {} tenant={tenant} r{id}", req.verb())
            });
            // Drain lints a previous job may have left on this worker
            // thread so they cannot be misattributed.
            let _ = pygb::analyze::take_lints();
            let (out, version) = query::execute_versioned(&shared.catalog, req);
            let warnings = if matches!(
                req,
                Request::Query { .. } | Request::Expr(_) | Request::Update { .. }
            ) {
                pygb::analyze::take_lints()
            } else {
                let _ = pygb::analyze::take_lints();
                Vec::new()
            };
            (out.map(|payload| Response { payload, warnings }), version)
        }
        Work::Batch(subs) => {
            let _span = span_labeled(Cat::Serve, || format!("serve BATCH tenant={tenant} r{id}"));
            let out = run_batch(&shared.catalog, subs, tenant);
            let _ = pygb::analyze::take_lints();
            let out = out.map(|payload| Response {
                payload,
                warnings: Vec::new(),
            });
            (out, 0)
        }
        #[cfg(test)]
        Work::Panic => panic!("injected request panic"),
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        shared.worker_panics.inc();
        let msg = format!("request r{id} panicked; the worker recovered");
        (Err((ErrCode::Internal, msg)), 0)
    })
}

/// A successful heavy-request result: the payload plus any analyzer
/// lints the execution raised on the worker thread (surfaced to the
/// client as the frame's `WARN` section).
struct Response {
    payload: String,
    warnings: Vec<String>,
}

/// Execute batch members sequentially on the worker. The batch
/// succeeds as a frame even when members fail: each member reports
/// `{"ok":...}` or `{"err":{...}}` in order.
///
/// Runs of two or more consecutive `EXPR` members without `INTO` are
/// evaluated as one group — a single nonblocking scope and flush — so
/// the optimization pipeline sees them as one op-DAG and duplicate
/// expressions across members collapse via CSE into one kernel
/// dispatch. `INTO` publishes to the catalog (later members may read
/// the result), so it acts as a barrier, as does any other verb.
fn run_batch(
    catalog: &Catalog,
    subs: &[Request],
    tenant: &str,
) -> Result<String, query::QueryError> {
    let mut items = Vec::with_capacity(subs.len());
    let render = |result: Result<String, query::QueryError>| match result {
        Ok(payload) => format!("{{\"ok\":{payload}}}"),
        Err((code, msg)) => format!(
            "{{\"err\":{{\"code\":\"{}\",\"msg\":\"{}\"}}}}",
            code.name(),
            pygb_obs::json_escape(&msg)
        ),
    };
    let groupable = |r: &Request| matches!(r, Request::Expr(s) if s.into.is_none());

    let mut i = 0;
    while i < subs.len() {
        let mut j = i;
        while j < subs.len() && groupable(&subs[j]) {
            j += 1;
        }
        if j - i >= 2 {
            let specs: Vec<&query::ExprSpec> = subs[i..j]
                .iter()
                .map(|r| match r {
                    Request::Expr(s) => s,
                    _ => unreachable!("run delimited by groupable()"),
                })
                .collect();
            let _span = span_labeled(Cat::Serve, || {
                format!("serve batch:EXPRx{} tenant={tenant}", specs.len())
            });
            pygb_obs::registry()
                .counter("serve/expr_grouped")
                .add(specs.len() as u64);
            items.extend(
                query::run_expr_group(catalog, &specs)
                    .into_iter()
                    .map(|(result, _)| render(result)),
            );
            i = j;
            continue;
        }
        let sub = &subs[i];
        let _span = span_labeled(Cat::Serve, || {
            format!("serve batch:{} tenant={tenant}", sub.verb())
        });
        items.push(render(query::execute(catalog, sub)));
        i += 1;
    }
    Ok(format!("[{}]", items.join(",")))
}

fn respond(
    writer: &mut TcpStream,
    result: Result<String, query::QueryError>,
    id: u64,
) -> std::io::Result<()> {
    match result {
        Ok(payload) => wire::write_ok_tagged(writer, &payload, &[], Some(id)),
        Err((code, msg)) => wire::write_err_tagged(writer, code, &msg, Some(id)),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn a_request_that_panics_is_answered_internal_and_the_worker_survives() {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(Arc::new(Catalog::new()), config).unwrap();
        let panics = pygb_obs::registry().counter("serve/worker_panics");
        let before = panics.get();

        // A socket pair: the reply is written on one end, read here.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut writer, _) = listener.accept().unwrap();
        let id = flightlog::next_request_id();
        dispatch_heavy(&server.shared, &mut writer, "t", Work::Panic, id).unwrap();
        let (frame, echoed) = wire::read_frame_tagged(&mut BufReader::new(&client)).unwrap();
        assert!(
            matches!(&frame, wire::Frame::Err(ErrCode::Internal, _)),
            "{frame:?}"
        );
        assert_eq!(echoed, Some(id));
        assert!(panics.get() > before, "the contained panic is counted");
        let record = recorder()
            .tail(pygb_obs::RECORDER_CAPACITY)
            .into_iter()
            .find(|r| r.id == id)
            .expect("the panicked request left a flight record");
        assert_eq!(record.outcome, Outcome::Error);

        // The only worker is still serving.
        let mut c = crate::Client::connect(server.local_addr()).unwrap();
        c.request_ok("REGISTER g TRIPLES 3 3 fp64 0:1:1,1:2:1")
            .unwrap();
        let reply = c.request_ok("QUERY g BFS 0").unwrap();
        assert!(reply.contains("\"levels\""), "{reply}");
    }
}
