//! `act-server`: a hardened, std-only HTTP/1.1 service exposing the ACT
//! carbon model — single footprints, JSON scenarios and fleet
//! Monte-Carlo (`/v1/scenario`, `/v1/fleet`), design-space sweeps and
//! Monte-Carlo runs — as NDJSON over `std::net::TcpListener`.
//!
//! The robustness contract, in order of what fails first under hostile
//! traffic:
//!
//! * **Deadlines** — every request gets a wall-clock budget: socket
//!   read/write timeouts bound the I/O, and [`act_dse::EvalBudget`] bounds
//!   the evaluation loops cooperatively. A sweep cut off mid-run streams
//!   the prefix it finished plus a `{"error":"deadline"}` trailer.
//! * **Backpressure** — admission is a bounded queue. When it is full the
//!   accept loop sheds the connection immediately with `503` and
//!   `Retry-After`, so memory stays bounded no matter the offered load.
//! * **Panic isolation** — each request runs under `catch_unwind`; a
//!   panicking handler costs one `500`, not the process. Worker threads
//!   that die anyway are respawned by a housekeeping thread.
//! * **Graceful shutdown** — on [`ShutdownHandle::request`] (wired to
//!   SIGTERM/ctrl-c by the CLI) the listener stops accepting, in-flight
//!   requests drain under a deadline, and [`Server::serve`] returns a
//!   final [`StatsSnapshot`] for the operator's last log line.
//! * **Fault injection** — a [`FaultPlan`] (off by default) deterministically
//!   injects slow reads, malformed bodies, handler panics, worker kills
//!   and eval delays, so the chaos harness can prove all of the above
//!   without real-world luck.
//!
//! ```no_run
//! use act_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! let stats = server.serve().unwrap();
//! println!("served {} requests", stats.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod http;
pub mod routes;
pub mod stats;

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use faults::{FaultDecision, FaultPlan};
use http::{HttpError, Status};
use routes::RouteOutcome;
use stats::{ServerStats, StatsSnapshot};

/// Everything tunable about the service; `Default` is a sane local setup.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed with 503.
    pub queue_capacity: usize,
    /// Per-request wall-clock budget (read + evaluate + write).
    pub request_deadline: Duration,
    /// How long shutdown waits for in-flight requests before giving up.
    pub drain_deadline: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Largest accepted sweep (points per request).
    pub max_sweep_points: usize,
    /// Largest accepted Monte-Carlo run (samples per request).
    pub max_mc_samples: usize,
    /// Whether `POST /admin/shutdown` stops the server (used by harnesses;
    /// off it answers 404).
    pub allow_remote_shutdown: bool,
    /// Deterministic fault injection; `None` disables every fault path.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: match "127.0.0.1:0".parse() {
                Ok(addr) => addr,
                Err(_) => SocketAddr::from(([127, 0, 0, 1], 0)),
            },
            workers: 4,
            queue_capacity: 64,
            request_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(15),
            max_body_bytes: 1024 * 1024,
            max_sweep_points: 1_000_000,
            max_mc_samples: 10_000_000,
            allow_remote_shutdown: false,
            faults: None,
        }
    }
}

/// Requests the accept loop to stop; cloneable and signal-safe (it only
/// flips an atomic).
#[derive(Clone, Debug)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Asks the server to stop accepting and start draining.
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// `true` once shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Recovers a usable guard from a poisoned mutex: the queue only holds
/// `TcpStream`s, which have no invariants a panicking worker could break.
fn lock_queue(queue: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    match queue.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The admission queue: bounded, closeable, condvar-signalled.
struct QueueState {
    jobs: VecDeque<(TcpStream, u64)>,
    closed: bool,
}

struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a connection, or returns it when the queue is full (shed)
    /// or closed (draining).
    fn push(&self, stream: TcpStream, conn_id: u64) -> Result<(), TcpStream> {
        let mut state = lock_queue(&self.state);
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(stream);
        }
        state.jobs.push_back((stream, conn_id));
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available or the queue is closed and empty.
    fn pop(&self) -> Option<(TcpStream, u64)> {
        let mut state = lock_queue(&self.state);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = match self.ready.wait_timeout(state, Duration::from_millis(100)) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Closes the queue: workers drain what is left, then exit.
    fn close(&self) {
        lock_queue(&self.state).closed = true;
        self.ready.notify_all();
    }

    fn len(&self) -> usize {
        lock_queue(&self.state).jobs.len()
    }
}

/// The bound, not-yet-running service.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: ShutdownHandle,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Binds the listener (blocking accept; workers start in
    /// [`serve`](Self::serve)).
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(config.addr)?;
        Ok(Self {
            listener,
            config,
            shutdown: ShutdownHandle(Arc::new(AtomicBool::new(false))),
            stats: Arc::new(ServerStats::default()),
        })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Panics
    ///
    /// Never in practice: a bound listener has a local address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        match self.listener.local_addr() {
            Ok(addr) => addr,
            Err(_) => self.config.addr,
        }
    }

    /// A handle that stops the server from another thread or a signal
    /// handler.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Live counters (shared with the serving threads).
    #[must_use]
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Runs the accept loop until shutdown, then drains and returns the
    /// final stats snapshot.
    ///
    /// The loop blocks in `accept`; a housekeeping thread respawns dead
    /// workers and, once shutdown is requested, opens one throwaway
    /// connection to wake the blocked `accept`.
    ///
    /// # Errors
    ///
    /// Propagates listener errors other than `Interrupted`.
    pub fn serve(self) -> std::io::Result<StatsSnapshot> {
        let queue = Arc::new(Queue::new(self.config.queue_capacity));
        let wake_addr = wake_addr(self.local_addr());
        let config = Arc::new(self.config);
        let housekeeper = {
            let (queue, config) = (Arc::clone(&queue), Arc::clone(&config));
            let (stats, shutdown) = (Arc::clone(&self.stats), self.shutdown.clone());
            std::thread::spawn(move || housekeep(&queue, &config, &stats, &shutdown, wake_addr))
        };

        let accepted = accept_loop(&self.listener, &queue, &self.stats, &self.shutdown);
        let workers = housekeeper.join().unwrap_or_default();

        // Drain: stop admitting, let workers finish what is queued.
        queue.close();
        let drain_start = Instant::now();
        loop {
            let idle = queue.len() == 0 && self.stats.in_flight.load(Ordering::SeqCst) == 0;
            if idle || drain_start.elapsed() > config.drain_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for worker in workers {
            let _ = worker.join();
        }
        self.stats.queued.store(0, Ordering::Relaxed);
        accepted.map(|()| self.stats.snapshot())
    }
}

/// How often the housekeeping thread looks for dead workers and for a
/// shutdown request.
const HOUSEKEEPING_TICK: Duration = Duration::from_millis(5);

/// Accepts connections until shutdown, admitting each to the queue or
/// shedding it with `503`.
fn accept_loop(
    listener: &TcpListener,
    queue: &Queue,
    stats: &ServerStats,
    shutdown: &ShutdownHandle,
) -> std::io::Result<()> {
    let mut conn_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => {
                // Let the housekeeper exit so its workers can be joined.
                shutdown.request();
                return Err(err);
            }
        };
        // Checked after `accept` so the housekeeper's wake-up connection
        // (or any connection racing shutdown) is dropped uncounted, which
        // keeps `accepted == finished`.
        if shutdown.is_requested() {
            return Ok(());
        }
        conn_id += 1;
        ServerStats::bump(&stats.accepted);
        match queue.push(stream, conn_id) {
            Ok(()) => stats.queued.store(queue.len() as u64, Ordering::Relaxed),
            Err(mut rejected) => {
                // Shed: bounded memory beats fairness.
                ServerStats::bump(&stats.shed);
                ServerStats::bump(&stats.finished);
                let _ = rejected.set_write_timeout(Some(Duration::from_secs(1)));
                let body = routes::error_line("overloaded", "admission queue is full");
                let _ = http::write_response_with_headers(
                    &mut rejected,
                    Status::Overloaded,
                    &["Retry-After: 1"],
                    &body,
                );
            }
        }
    }
}

/// The housekeeping thread: owns the workers and respawns any that died
/// (e.g. the kill-worker fault) until shutdown is requested, then wakes
/// the blocked `accept` and hands the workers back for the drain.
fn housekeep(
    queue: &Arc<Queue>,
    config: &Arc<ServerConfig>,
    stats: &Arc<ServerStats>,
    shutdown: &ShutdownHandle,
    wake_addr: SocketAddr,
) -> Vec<std::thread::JoinHandle<()>> {
    let mut workers: Vec<_> = (0..config.workers.max(1))
        .map(|_| spawn_worker(queue, config, stats, shutdown))
        .collect();
    while !shutdown.is_requested() {
        for slot in &mut workers {
            if slot.is_finished() {
                let dead =
                    std::mem::replace(slot, spawn_worker(queue, config, stats, shutdown));
                let _ = dead.join();
                ServerStats::bump(&stats.workers_respawned);
            }
        }
        std::thread::sleep(HOUSEKEEPING_TICK);
    }
    let _ = TcpStream::connect(wake_addr);
    workers
}

/// Where the wake-up connection goes: the listener's own address, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by the loopback of its family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Spawns one worker: pops admitted connections and handles them until
/// the queue closes (or the kill-worker fault fires).
fn spawn_worker(
    queue: &Arc<Queue>,
    config: &Arc<ServerConfig>,
    stats: &Arc<ServerStats>,
    shutdown: &ShutdownHandle,
) -> std::thread::JoinHandle<()> {
    let queue = Arc::clone(queue);
    let config = Arc::clone(config);
    let stats = Arc::clone(stats);
    let shutdown = shutdown.clone();
    std::thread::spawn(move || {
        while let Some((stream, conn_id)) = queue.pop() {
            stats.queued.store(queue.len() as u64, Ordering::Relaxed);
            stats.in_flight.fetch_add(1, Ordering::SeqCst);
            let died = handle_connection(stream, conn_id, &config, &stats, &shutdown);
            stats.in_flight.fetch_sub(1, Ordering::SeqCst);
            ServerStats::bump(&stats.finished);
            if died {
                // Simulated abrupt worker death: exit the loop; the
                // housekeeper notices is_finished() and respawns.
                return;
            }
        }
    })
}

/// Handles one connection end to end. Returns `true` when the kill-worker
/// fault fired and the worker thread should die.
fn handle_connection(
    mut stream: TcpStream,
    conn_id: u64,
    config: &ServerConfig,
    stats: &ServerStats,
    shutdown: &ShutdownHandle,
) -> bool {
    let deadline = Instant::now() + config.request_deadline;

    // Per-request I/O budget: reads and writes both time out well inside
    // the request deadline so a stalled peer cannot pin a worker.
    let io_timeout = config.request_deadline.min(Duration::from_secs(5));
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));

    // Decide this connection's faults before reading a byte.
    let fault = decide_fault(conn_id, config);
    if fault.kill_worker {
        // Abrupt death: no response, dropped connection, dead worker.
        return true;
    }

    let request = http::read_request(&mut stream, config.max_body_bytes, fault.slow_read);
    let mut request = match request {
        Ok(request) => request,
        Err(err) => {
            match err {
                HttpError::Timeout => ServerStats::bump(&stats.timeouts),
                _ => ServerStats::bump(&stats.bad_requests),
            }
            let body = routes::error_line(err.kind(), &err.to_string());
            let _ = http::write_response(&mut stream, err.status(), &body);
            return false;
        }
    };

    // An explicit X-Act-Fault header (honored only under a fault plan)
    // overrides the probabilistic roll.
    let fault = match request.header("x-act-fault") {
        Some(value) if config.faults.is_some() => {
            FaultPlan::from_header(value).unwrap_or(fault)
        }
        _ => fault,
    };
    if fault.kill_worker {
        return true;
    }
    if fault.malformed_body {
        faults::corrupt_body(&mut request.body);
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        routes::dispatch(&mut stream, &request, config, stats, deadline, &fault)
    }));
    match outcome {
        Ok(Ok(RouteOutcome::Completed | RouteOutcome::DeadlinePartial)) => {
            ServerStats::bump(&stats.completed);
        }
        Ok(Ok(RouteOutcome::ClientError)) => ServerStats::bump(&stats.bad_requests),
        Ok(Ok(RouteOutcome::ShutdownRequested)) => {
            ServerStats::bump(&stats.completed);
            shutdown.request();
        }
        Ok(Err(_write_error)) => {
            // Peer vanished mid-write; nothing to send it.
            ServerStats::bump(&stats.bad_requests);
        }
        Err(_panic) => {
            ServerStats::bump(&stats.panics_caught);
            let body = routes::error_line("internal", "handler panicked");
            let _ = http::write_response(&mut stream, Status::InternalError, &body);
        }
    }
    false
}

/// Rolls the fault plan for this connection (no plan → no faults).
fn decide_fault(conn_id: u64, config: &ServerConfig) -> FaultDecision {
    match &config.faults {
        Some(plan) => plan.decide(conn_id),
        None => FaultDecision::none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_when_full_and_drains_when_closed() {
        let queue = Queue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let b = TcpStream::connect(addr).expect("connect");
        assert!(queue.push(a, 1).is_ok());
        assert!(queue.push(b, 2).is_err(), "second push must shed");
        assert_eq!(queue.len(), 1);
        queue.close();
        let c = TcpStream::connect(addr).expect("connect");
        assert!(queue.push(c, 3).is_err(), "closed queue rejects");
        assert!(queue.pop().is_some(), "drain the admitted job");
        assert!(queue.pop().is_none(), "closed and empty ends the worker");
    }

    #[test]
    fn shutdown_handle_flips_once() {
        let handle = ShutdownHandle(Arc::new(AtomicBool::new(false)));
        assert!(!handle.is_requested());
        handle.clone().request();
        assert!(handle.is_requested());
    }

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback() {
        let wake = |addr: &str| wake_addr(addr.parse().expect("addr")).to_string();
        assert_eq!(wake("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(wake("[::]:8080"), "[::1]:8080");
        assert_eq!(wake("10.1.2.3:8080"), "10.1.2.3:8080");
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert!(config.queue_capacity >= 1);
        assert!(config.request_deadline > Duration::ZERO);
        assert!(config.faults.is_none());
        assert!(!config.allow_remote_shutdown);
    }
}
