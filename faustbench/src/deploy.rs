//! One FAUST deployment over loopback TCP, assembled from the public
//! constructors `faust serve` uses, and the closed-loop load that drives
//! it from two threads.

use crate::trace::{ClientTrace, ServerTrace, TracedBackend, TracedConn, TracedServerTransport};
use crate::util::{ns, value_header, write_value, Rng};
use faust_core::handle::{Event, FaustHandle, HandleConfig, SessionCore};
use faust_core::{FaustClient, FaustConfig};
use faust_crypto::sig::{KeySet, SigScheme};
use faust_net::{ClientTransport, TcpServerTransport};
use faust_store::{Durability, PersistentBackend, StoreConfig};
use faust_types::{ClientId, OpKind, Value};
use faust_ustor::{serve, MemoryBackend, ServerBackend, ServerEngine};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Key seed shared by every client of a deployment.
pub const KEY_SEED: &[u8] = b"faustbench";

/// How long one op may take before it counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// The clients that issue ops in the timed phase.
pub const ACTIVE: usize = 2;

/// `faust serve`'s default store policy: group commit of 64 records or
/// 2 ms, a snapshot every 1024 records.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        durability: Durability::group(),
        snapshot_every: 1024,
    }
}

/// One workload's deployment and load shape.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Clients in the deployment.
    pub n: usize,
    /// Whether the server keeps its state in a store directory.
    pub durable: bool,
    /// Ops in flight per active client.
    pub depth: usize,
    /// Share of writes, in percent; the rest read the peer's register.
    pub write_pct: u64,
    /// Bytes per written value.
    pub value_len: usize,
    pub config: HandleConfig,
}

/// `faust connect`'s defaults: immediate COMMIT, no probes or dummy
/// reads, pipeline 4, a 5 ms tick.
pub fn connect_config() -> HandleConfig {
    HandleConfig {
        faust: FaustConfig {
            probe_period: u64::MAX / 2,
            dummy_reads: false,
            pipeline: 4,
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(5),
        scheme: SigScheme::Hmac,
    }
}

/// A running server and the connected active clients.
pub struct Deployment {
    pub handles: Vec<FaustHandle>,
    pub client_traces: Vec<Arc<Mutex<ClientTrace>>>,
    pub server_trace: Option<Arc<Mutex<ServerTrace>>>,
    pub dir: Option<PathBuf>,
    pub keys: Arc<KeySet>,
    server: JoinHandle<()>,
}

fn session(keys: &KeySet, id: u32, n: usize, config: &HandleConfig) -> SessionCore {
    let keypair = keys.keypair(id).expect("id < n").clone();
    SessionCore::new(FaustClient::new(
        ClientId::new(id),
        n,
        keypair,
        keys.registry(),
        config.faust,
    ))
}

/// Binds, opens the store (or memory state), starts the serve thread,
/// pre-populates clients `2..n` (each connects, writes once and leaves,
/// at most two connections open), then connects the active clients and
/// has each write its register once, so every register holds a value
/// before the timed phase and every read has a write to check against.
pub fn setup(
    shape: &Shape,
    keys: &Arc<KeySet>,
    dir: Option<&Path>,
    seed: u64,
    traced: bool,
) -> Result<Deployment, String> {
    let n = shape.n;
    let transport = TcpServerTransport::bind("127.0.0.1:0", n).map_err(|e| format!("bind: {e}"))?;
    let addr = transport.local_addr();
    let backend: Box<dyn ServerBackend + Send> = match dir {
        Some(dir) => Box::new(PersistentBackend::new(dir, store_config())),
        None => Box::new(MemoryBackend),
    };
    let server_trace = traced.then(|| Arc::new(Mutex::new(ServerTrace::new(n, shape.durable))));
    let backend: Box<dyn ServerBackend + Send> = match &server_trace {
        Some(trace) => Box::new(TracedBackend {
            inner: backend,
            trace: Arc::clone(trace),
        }),
        None => backend,
    };
    let mut engine = ServerEngine::from_backend(n, backend.as_ref())
        .map_err(|e| format!("build server state: {e}"))?;
    let serve_trace = server_trace.clone();
    let server = std::thread::spawn(move || {
        let mut transport = transport;
        match serve_trace {
            Some(trace) => serve(
                &mut engine,
                &mut TracedServerTransport::new(transport, trace),
            ),
            None => serve(&mut engine, &mut transport),
        }
    });

    let prepopulated: Result<(), String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2u32)
            .map(|lane| {
                s.spawn(move || -> Result<(), String> {
                    for id in (ACTIVE as u32 + lane..n as u32).step_by(2) {
                        let conn = faust_net::tcp::connect(addr, ClientId::new(id))
                            .map_err(|e| format!("connect client {id}: {e}"))?;
                        let mut handle = FaustHandle::from_core(
                            session(keys, id, n, &shape.config),
                            shape.config.tick_interval,
                            0,
                            Box::new(conn),
                        );
                        let value = write_value(seed, id, 1, shape.value_len);
                        let ticket = handle.write(Value::new(value));
                        handle
                            .wait(ticket, OP_TIMEOUT)
                            .map_err(|e| format!("pre-populate client {id}: {e}"))?;
                        handle.disconnect();
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("pre-population thread panicked"))
    });
    let mut handles = Vec::new();
    let mut client_traces = Vec::new();
    let connected = prepopulated.and_then(|()| {
        for id in 0..ACTIVE as u32 {
            let conn = faust_net::tcp::connect(addr, ClientId::new(id))
                .map_err(|e| format!("connect client {id}: {e}"))?;
            let trace = Arc::new(Mutex::new(ClientTrace {
                client: id,
                ..ClientTrace::default()
            }));
            let conn: Box<dyn ClientTransport> = if traced {
                Box::new(TracedConn::new(conn, Arc::clone(&trace)))
            } else {
                Box::new(conn)
            };
            let mut handle = FaustHandle::from_core(
                session(keys, id, n, &shape.config),
                shape.config.tick_interval,
                0,
                conn,
            );
            let ticket = handle.write(Value::new(write_value(seed, id, 1, shape.value_len)));
            handle
                .wait(ticket, OP_TIMEOUT)
                .map_err(|e| format!("pre-populate client {id}: {e}"))?;
            handles.push(handle);
            client_traces.push(trace);
        }
        Ok(())
    });
    let deployment = Deployment {
        handles,
        client_traces,
        server_trace,
        dir: dir.map(Path::to_path_buf),
        keys: Arc::clone(keys),
        server,
    };
    match connected {
        Ok(()) => Ok(deployment),
        Err(e) => {
            // A failed set-up still leaves a serve thread that only ends
            // once every client has come and gone; it is left to process
            // exit, which follows the error.
            drop(deployment);
            Err(e)
        }
    }
}

impl Deployment {
    /// Disconnects the active clients and waits for the serve loop to
    /// end (the transport closes once every client has left).
    pub fn shutdown(mut self) -> Result<(), String> {
        for handle in &mut self.handles {
            handle.disconnect();
        }
        self.handles.clear();
        self.server
            .join()
            .map_err(|_| "serve thread panicked".to_string())
    }
}

/// One completed op of the timed phase.
#[derive(Debug, Clone)]
pub struct OpRecord {
    pub client: u32,
    pub ts: u64,
    pub write: bool,
    pub start: u64,
    pub end: u64,
    /// Client rows (ns): `core.submit`, `net.client_send`,
    /// `net.client_wait`, `core.deliver`; traced runs only.
    /// Boxed so that an untraced record stays small: the records of a
    /// segment count towards its peak RSS.
    pub rows: Option<Box<[u64; 4]>>,
}

impl OpRecord {
    pub fn latency_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// What the timed phase produced.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub ops: Vec<OpRecord>,
    /// `(completion, lag)` in ns: from an op's completion until a
    /// stability cut of every active client covers it.
    pub stable_lags_ns: Vec<(u64, u64)>,
    /// When the timed phase began (ns since the trace epoch).
    pub started_ns: u64,
    pub stable_events: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub wall: Duration,
    /// Each active client's last acknowledged write.
    pub last_writes: Vec<Vec<u8>>,
}

struct Pending {
    ticket: faust_core::handle::OpTicket,
    write: bool,
    write_seq: u64,
    /// For reads: the peer's last completed write when the read began.
    min_seq: u64,
    start: Instant,
    issue_end: Instant,
    submit_send: u64,
}

/// Runs the closed loop for `seconds` on both active clients: each keeps
/// `shape.depth` ops in flight, then drains them.
pub fn run_phase(
    shape: &Shape,
    deployment: &mut Deployment,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> PhaseOut {
    // Set-up already wrote each active register once (write #1, op 1).
    let completed: Vec<AtomicU64> = (0..ACTIVE).map(|_| AtomicU64::new(1)).collect();
    let issued: Vec<AtomicU64> = (0..ACTIVE).map(|_| AtomicU64::new(1)).collect();
    let barrier = Barrier::new(ACTIVE);
    let started = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let workers: Vec<_> = deployment
            .handles
            .iter_mut()
            .zip(&deployment.client_traces)
            .enumerate()
            .map(|(i, (handle, trace))| {
                let ctx = LoopCtx {
                    shape,
                    seed,
                    me: i,
                    completed: &completed,
                    issued: &issued,
                    trace: traced.then_some(trace.as_ref()),
                };
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let end_at = Instant::now() + Duration::from_secs_f64(seconds);
                    ctx.run(handle, end_at)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut out = PhaseOut::default();
    // Sized once, so merging does not leave a doubled buffer behind.
    out.ops
        .reserve_exact(outs.iter().map(|c| c.ops.len()).sum());
    out.stable_lags_ns
        .reserve_exact(outs.iter().map(|c| c.stable_lags_ns.len()).sum());
    let mut finish = started;
    for c in outs {
        out.ops.extend(c.ops);
        out.stable_lags_ns.extend(c.stable_lags_ns);
        out.stable_events += c.stable_events;
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.errors.extend(c.errors);
        out.last_writes.push(c.last_write);
        finish = finish.max(c.finished);
    }
    out.wall = finish - started;
    out.started_ns = ns(started);
    out
}

struct LoopCtx<'a> {
    shape: &'a Shape,
    seed: u64,
    me: usize,
    completed: &'a [AtomicU64],
    issued: &'a [AtomicU64],
    trace: Option<&'a Mutex<ClientTrace>>,
}

struct ClientOut {
    ops: Vec<OpRecord>,
    stable_lags_ns: Vec<(u64, u64)>,
    stable_events: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    last_write: Vec<u8>,
    finished: Instant,
}

impl LoopCtx<'_> {
    fn peer(&self) -> usize {
        1 - self.me
    }

    /// Resets the trace's send/receive accumulators and tags what
    /// follows with `ts`.
    fn mark(&self, ts: u64) -> (u64, u64) {
        match self.trace {
            Some(t) => {
                let mut t = t.lock().expect("trace lock");
                let out = (t.send_ns, t.recv_ns);
                t.send_ns = 0;
                t.recv_ns = 0;
                t.current_ts = ts;
                out
            }
            None => (0, 0),
        }
    }

    fn run(&self, handle: &mut FaustHandle, end_at: Instant) -> ClientOut {
        let me = self.me as u32;
        let mut rng = Rng::new(self.seed, u64::from(me) + 1);
        let mut out = ClientOut {
            ops: Vec::new(),
            stable_lags_ns: Vec::new(),
            stable_events: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            last_write: Vec::new(),
            finished: Instant::now(),
        };
        let mut inflight: VecDeque<Pending> = VecDeque::new();
        let mut unstable: VecDeque<(u64, Instant)> = VecDeque::new();
        let mut write_seq = 1u64;
        let mut next_ts = 2u64;
        let mut halted = false;
        loop {
            while !halted && inflight.len() < self.shape.depth && Instant::now() < end_at {
                let write = rng.percent(self.shape.write_pct);
                let (value, min_seq) = if write {
                    write_seq += 1;
                    self.issued[self.me].store(write_seq, Ordering::SeqCst);
                    let v = write_value(self.seed, me, write_seq, self.shape.value_len);
                    (Some(v), 0)
                } else {
                    (None, self.completed[self.peer()].load(Ordering::SeqCst))
                };
                self.mark(next_ts);
                let start = Instant::now();
                let ticket = match value {
                    Some(v) => handle.write(Value::new(v)),
                    None => handle.read(ClientId::new(self.peer() as u32)),
                };
                let issue_end = Instant::now();
                let (submit_send, _) = self.mark(0);
                out.attempted += 1;
                next_ts += 1;
                inflight.push_back(Pending {
                    ticket,
                    write,
                    write_seq,
                    min_seq,
                    start,
                    issue_end,
                    submit_send,
                });
            }
            let Some(op) = inflight.pop_front() else {
                break;
            };
            let ts = op.ticket.index() + 1;
            self.mark(ts);
            let wait_start = Instant::now();
            let result = handle.wait(op.ticket, OP_TIMEOUT);
            let end = Instant::now();
            let (wait_send, wait_recv) = self.mark(0);
            let done = match result {
                Ok(done) => done,
                Err(e) => {
                    out.failed += 1 + inflight.len() as u64;
                    out.errors
                        .push(format!("client {me}: {} failed: {e}", op.ticket));
                    break;
                }
            };
            let mut ok = done.timestamp == ts;
            if !ok {
                out.errors.push(format!(
                    "client {me}: {} completed with timestamp {}, expected {ts}",
                    op.ticket, done.timestamp
                ));
            }
            if op.write {
                ok &= done.kind == OpKind::Write;
                self.completed[self.me].store(op.write_seq, Ordering::SeqCst);
            } else if let Err(e) = self.check_read(&done.read_value, op.min_seq) {
                ok = false;
                out.errors.push(format!("client {me}: {}: {e}", op.ticket));
            }
            if !ok {
                out.failed += 1;
                halted = true;
            }
            let rows = self.trace.map(|_| {
                let issue = (op.issue_end - op.start).as_nanos() as u64;
                let wait = (end - wait_start).as_nanos() as u64;
                let submit = issue.saturating_sub(op.submit_send);
                let send = op.submit_send + wait_send;
                let deliver = wait.saturating_sub(wait_recv + wait_send);
                let latency = (end - op.start).as_nanos() as u64;
                let client_wait = latency.saturating_sub(submit + send + deliver);
                [submit, send, client_wait, deliver]
            });
            if let Some(t) = self.trace {
                let mut t = t.lock().expect("trace lock");
                let span = |name, parent, start: Instant, end: Instant| crate::trace::Span {
                    name,
                    parent,
                    start: ns(start),
                    end: ns(end),
                    client: me,
                    ts,
                };
                for s in [
                    span("op", "", op.start, end),
                    span("client.write", "op", op.start, op.issue_end),
                    span("client.wait", "op", wait_start, end),
                ] {
                    crate::trace::record(&mut t.spans, s);
                }
            }
            out.ops.push(OpRecord {
                client: me,
                ts,
                write: op.write,
                start: ns(op.start),
                end: ns(end),
                rows: rows.map(Box::new),
            });
            unstable.push_back((ts, end));
            for (_, event) in handle.poll() {
                match event {
                    Event::Stable { cut } => {
                        out.stable_events += 1;
                        let now = Instant::now();
                        let covered = cut.w.iter().take(ACTIVE).copied().min().unwrap_or(0);
                        while unstable.front().is_some_and(|&(t, _)| t <= covered) {
                            let (_, at) = unstable.pop_front().expect("checked");
                            out.stable_lags_ns
                                .push((ns(at), (now - at).as_nanos() as u64));
                        }
                    }
                    Event::Violation { reason } => {
                        out.failed += 1;
                        halted = true;
                        out.errors.push(format!("client {me}: violation: {reason}"));
                    }
                    Event::Disconnected { reason } => {
                        out.failed += 1;
                        halted = true;
                        out.errors
                            .push(format!("client {me}: disconnected: {reason}"));
                    }
                    _ => {}
                }
            }
        }
        out.finished = Instant::now();
        out.last_write = write_value(self.seed, me, write_seq, self.shape.value_len);
        out
    }

    /// A read must return a value the peer wrote, no older than the
    /// peer's last write that completed before the read began.
    fn check_read(&self, value: &Option<Option<Value>>, min_seq: u64) -> Result<(), String> {
        let peer = self.peer() as u32;
        let Some(value) = value else {
            return Err("read completed without a value".into());
        };
        let Some(value) = value else {
            return if min_seq == 0 {
                Ok(())
            } else {
                Err(format!(
                    "read ⊥ after the peer's write #{min_seq} completed"
                ))
            };
        };
        let bytes = value.as_bytes();
        let (writer, seq) = value_header(bytes).ok_or("read a value with no header")?;
        let issued = self.issued[self.peer()].load(Ordering::SeqCst);
        if writer != peer || seq < min_seq || seq > issued {
            return Err(format!(
                "read write #{seq} of client {writer}; expected client {peer}, #{min_seq}..=#{issued}"
            ));
        }
        if bytes != write_value(self.seed, peer, seq, self.shape.value_len) {
            return Err(format!("read corrupt bytes for write #{seq}"));
        }
        Ok(())
    }
}
