//! The HTTP front end: accept loop, routing, graceful shutdown.
//!
//! Thread-per-connection with keep-alive; the accept loop blocks in
//! `accept`, and shutdown sets a flag and wakes it with one loopback
//! connection, so no connection waits on a poll interval to be accepted.
//! Graceful shutdown stops accepting, waits for in-flight *requests*
//! (idle keep-alive connections are abandoned — their handler threads
//! exit on peer close), then stops the scheduler core with one final
//! state publish.

use crate::api::{
    ConfigReply, ConfigRequest, DrainReply, ErrorBody, JobsResponse, ObsReply, ObsRequest,
    SubmitReply,
};
use crate::core::{run_core, CoreMsg, CoreOptions};
use crate::http::{read_request, ReadError, Response};
use crate::state::{read_state, shared, SharedState};
use ones_simulator::ClusterBackend;
use ones_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use ones_sync::mpsc::{self, Receiver, SyncSender};
use ones_sync::Arc;
use ones_workload::WireJobSpec;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is served.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
    pub port: u16,
    /// Start with the core loop paused.
    pub paused: bool,
    /// Start draining (recovery from a drained snapshot).
    pub draining: bool,
    /// Host-time sleep between step batches.
    pub step_delay: Duration,
    /// Scheduling events advanced per core batch.
    pub events_per_batch: u64,
    /// Recovery snapshot file; `None` disables persistence.
    pub state_file: Option<std::path::PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 0,
            paused: false,
            draining: false,
            step_delay: Duration::ZERO,
            events_per_batch: 64,
            state_file: None,
        }
    }
}

/// A running daemon (accept loop + scheduler core).
pub struct ServerHandle {
    addr: SocketAddr,
    state: SharedState,
    core_tx: mpsc::Sender<CoreMsg>,
    shutdown: Arc<AtomicBool>,
    in_flight: Arc<AtomicUsize>,
    accept_join: Option<JoinHandle<()>>,
    core_join: Option<JoinHandle<Box<dyn ClusterBackend>>>,
}

impl ServerHandle {
    /// Address the daemon is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (for in-process observers and tests).
    #[must_use]
    pub fn state(&self) -> SharedState {
        Arc::clone(&self.state)
    }

    /// Asks the accept loop to stop without waiting.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the loop's blocking `accept` so it sees the flag. Refused
        // once the loop has exited and closed the listener.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish
    /// (bounded wait), stop the core. Returns the backend for final
    /// accounting, if the core exited cleanly.
    pub fn shutdown_and_wait(mut self) -> Option<Box<dyn ClusterBackend>> {
        self.request_shutdown();
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = self.core_tx.send(CoreMsg::Stop);
        self.core_join.take().and_then(|join| join.join().ok())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.request_shutdown();
        let _ = self.core_tx.send(CoreMsg::Stop);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        if let Some(join) = self.core_join.take() {
            let _ = join.join();
        }
    }
}

/// Boots the daemon: binds 127.0.0.1, spawns the scheduler core and the
/// accept loop, returns immediately.
///
/// # Errors
/// Propagates socket bind errors.
pub fn serve(
    backend: Box<dyn ClusterBackend>,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;

    let state = shared(backend.scheduler_name(), backend.occupancy(), opts.paused);
    let (core_tx, core_rx) = mpsc::channel::<CoreMsg>();
    let core_opts = CoreOptions {
        paused: opts.paused,
        draining: opts.draining,
        step_delay: opts.step_delay,
        events_per_batch: opts.events_per_batch.max(1),
        state_file: opts.state_file.clone(),
    };
    let core_state = Arc::clone(&state);
    let core_join = std::thread::Builder::new()
        .name("ones-d-core".into())
        .spawn(move || run_core(backend, core_state, &core_rx, core_opts))?;

    let shutdown = Arc::new(AtomicBool::new(false));
    let in_flight = Arc::new(AtomicUsize::new(0));
    let accept_state = Arc::clone(&state);
    let accept_tx = core_tx.clone();
    let accept_flag = Arc::clone(&shutdown);
    let accept_load = Arc::clone(&in_flight);
    let accept_join = std::thread::Builder::new()
        .name("ones-d-accept".into())
        .spawn(move || {
            accept_loop(
                &listener,
                &accept_state,
                &accept_tx,
                &accept_flag,
                &accept_load,
            );
        })?;

    Ok(ServerHandle {
        addr,
        state,
        core_tx,
        shutdown,
        in_flight,
        accept_join: Some(accept_join),
        core_join: Some(core_join),
    })
}

fn accept_loop(
    listener: &TcpListener,
    state: &SharedState,
    core_tx: &mpsc::Sender<CoreMsg>,
    shutdown: &Arc<AtomicBool>,
    in_flight: &Arc<AtomicUsize>,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let state = Arc::clone(state);
                let core_tx = core_tx.clone();
                let shutdown = Arc::clone(shutdown);
                let in_flight = Arc::clone(in_flight);
                // Handler threads are detached: they exit on peer close,
                // request error or shutdown.
                let _ = std::thread::Builder::new()
                    .name("ones-d-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &state, &core_tx, &shutdown, &in_flight);
                    });
            }
            // Transient failures (descriptor exhaustion, an aborted
            // handshake): back off briefly.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    state: &SharedState,
    core_tx: &mpsc::Sender<CoreMsg>,
    shutdown: &Arc<AtomicBool>,
    in_flight: &Arc<AtomicUsize>,
) {
    // Small JSON exchanges: never trade latency for coalescing.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => {
                let resp = Response::json(400, ErrorBody::json(msg));
                let _ = resp.write_to(&mut writer, false);
                return;
            }
        };
        in_flight.fetch_add(1, Ordering::SeqCst);
        let response = route(&request, state, core_tx);
        let closing = request.wants_close() || shutdown.load(Ordering::SeqCst);
        let wrote = response.write_to(&mut writer, !closing);
        in_flight.fetch_sub(1, Ordering::SeqCst);
        if wrote.is_err() || closing {
            return;
        }
    }
}

/// How long a handler waits for the core to answer a submission/config.
const CORE_REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn recv_reply<T>(rx: &Receiver<T>) -> Result<T, Response> {
    rx.recv_timeout(CORE_REPLY_TIMEOUT).map_err(|_| {
        Response::json(
            503,
            ErrorBody::json("scheduler core did not answer in time"),
        )
    })
}

fn reply_channel<T>() -> (SyncSender<T>, Receiver<T>) {
    mpsc::sync_channel(1)
}

fn json_ok<T: serde::Serialize>(status: u16, body: &T) -> Response {
    match serde_json::to_string(body) {
        Ok(text) => Response::json(status, text),
        Err(e) => Response::json(500, ErrorBody::json(format!("serialisation failed: {e}"))),
    }
}

/// Routes one request to a response. Pure apart from core round trips —
/// unit-testable without sockets.
pub fn route(
    req: &crate::http::Request,
    state: &SharedState,
    core_tx: &mpsc::Sender<CoreMsg>,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n".to_string()),
        ("GET", "/metrics") => Response::text(200, ones_obs::prometheus_text()),
        ("GET", "/v1/jobs") => {
            let st = read_state(state);
            let jobs = st.jobs.values().cloned().collect();
            json_ok(200, &JobsResponse { jobs })
        }
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let tail = &path["/v1/jobs/".len()..];
            let Ok(id) = tail.parse::<u64>() else {
                return Response::json(400, ErrorBody::json(format!("bad job id {tail:?}")));
            };
            let st = read_state(state);
            match st.jobs.get(&id) {
                Some(job) => json_ok(200, job),
                None => Response::json(404, ErrorBody::json(format!("no job {id}"))),
            }
        }
        ("POST", "/v1/jobs") => {
            // No drain fast path here: the core thread is the single
            // authority on draining, so a submit racing a drain is
            // rejected *by the core* with a recorded `rejected` event —
            // a handler-side check would answer 409 without leaving a
            // trace in the event stream.
            let body = match req.body_str() {
                Ok(b) => b,
                Err(e) => return Response::json(400, ErrorBody::json(e)),
            };
            let wire = match WireJobSpec::from_json(body) {
                Ok(w) => w,
                Err(e) => return Response::json(400, ErrorBody::json(e)),
            };
            let (tx, rx) = reply_channel::<Result<SubmitReply, String>>();
            if core_tx.send(CoreMsg::Submit { wire, reply: tx }).is_err() {
                return Response::json(503, ErrorBody::json("scheduler core stopped"));
            }
            match recv_reply(&rx) {
                Ok(Ok(reply)) => json_ok(201, &reply),
                Ok(Err(e)) => {
                    let status = if e.contains("draining") { 409 } else { 400 };
                    Response::json(status, ErrorBody::json(e))
                }
                Err(resp) => resp,
            }
        }
        ("GET", "/v1/cluster") => {
            let st = read_state(state);
            json_ok(200, &st.cluster_response())
        }
        ("GET", "/v1/events") => {
            let since = match req.query_param("since") {
                None => 0,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => {
                        return Response::json(
                            400,
                            ErrorBody::json(format!("bad since cursor {raw:?}")),
                        )
                    }
                },
            };
            let st = read_state(state);
            json_ok(200, &st.events.since(since))
        }
        ("POST", "/v1/config") => {
            let body = match req.body_str() {
                Ok(b) => b,
                Err(e) => return Response::json(400, ErrorBody::json(e)),
            };
            let parsed: Result<ConfigRequest, _> = serde_json::from_str(body);
            let config = match parsed {
                Ok(c) => c,
                Err(e) => return Response::json(400, ErrorBody::json(e.to_string())),
            };
            let (tx, rx) = reply_channel::<ConfigReply>();
            if core_tx
                .send(CoreMsg::Config {
                    req: config,
                    reply: tx,
                })
                .is_err()
            {
                return Response::json(503, ErrorBody::json("scheduler core stopped"));
            }
            match recv_reply(&rx) {
                Ok(reply) => json_ok(200, &reply),
                Err(resp) => resp,
            }
        }
        ("GET", "/v1/obs") => json_ok(200, &crate::api::obs_status()),
        ("POST", "/v1/obs") => {
            let body = match req.body_str() {
                Ok(b) => b,
                Err(e) => return Response::json(400, ErrorBody::json(e)),
            };
            let parsed: Result<ObsRequest, _> = serde_json::from_str(body);
            let obs_req = match parsed {
                Ok(r) => r,
                Err(e) => return Response::json(400, ErrorBody::json(e.to_string())),
            };
            // Reject a bad level before bothering the core: a typo must
            // 400, not half-apply.
            if let Some(level) = &obs_req.level {
                if ones_obs::ObsLevel::parse(level).is_none() {
                    return Response::json(
                        400,
                        ErrorBody::json(format!("unknown obs level {level:?} (off|counters|full)")),
                    );
                }
            }
            let (tx, rx) = reply_channel::<ObsReply>();
            if core_tx
                .send(CoreMsg::Obs {
                    req: obs_req,
                    reply: tx,
                })
                .is_err()
            {
                return Response::json(503, ErrorBody::json("scheduler core stopped"));
            }
            match recv_reply(&rx) {
                Ok(reply) => json_ok(200, &reply),
                Err(resp) => resp,
            }
        }
        ("POST", "/v1/drain") => {
            let (tx, rx) = reply_channel::<u64>();
            if core_tx.send(CoreMsg::Drain { reply: tx }).is_err() {
                return Response::json(503, ErrorBody::json("scheduler core stopped"));
            }
            match recv_reply(&rx) {
                Ok(outstanding) => json_ok(
                    200,
                    &DrainReply {
                        draining: true,
                        outstanding,
                    },
                ),
                Err(resp) => resp,
            }
        }
        ("GET" | "POST", _) => {
            Response::json(404, ErrorBody::json(format!("no route {}", req.path)))
        }
        _ => Response::json(
            405,
            ErrorBody::json(format!("method {} not allowed", req.method)),
        ),
    }
}
