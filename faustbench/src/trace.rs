//! The traced run: timing decorators around the public trait objects a
//! deployment is made of, spans kept in memory, and the per-op stage
//! table built from them.
//!
//! Nothing inside the program is instrumented. Client spans come from
//! [`TracedConn`] (a [`ClientTransport`]) and from the load loop timing
//! its own `FaustHandle` calls; server spans come from
//! [`TracedServerTransport`] (a [`ServerTransport`]) and [`TracedServer`]
//! (the engine's `Box<dyn Server>`, installed through
//! [`TracedBackend`] so the engine is still built by
//! `ServerEngine::from_backend`).
//!
//! Every span carries the request id `(client, op timestamp)`. The
//! timestamp is the SUBMIT's, so server spans of an op join its client
//! spans. A correct server answers each client's SUBMITs in FIFO order;
//! that is how a released REPLY, which carries no timestamp, is matched
//! to the SUBMIT it answers.

use crate::util::ns;
use faust_net::{ClientTransport, Incoming, ServerTransport, TransportClosed};
use faust_types::{ClientId, CommitMsg, ReplyMsg, SubmitMsg, UstorMsg, Wire};
use faust_ustor::{Server, ServerBackend, SessionResume};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed interval. `parent` names the enclosing span of the same
/// request id (empty for a root).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub start: u64,
    pub end: u64,
    pub client: u32,
    pub ts: u64,
}

/// Spans each recorder keeps; the metrics come from per-op rows and
/// counters, so a long pipelined run only loses span-file detail.
pub const SPAN_CAP: usize = 100_000;

/// Appends `span` unless the recorder already holds [`SPAN_CAP`].
pub fn record(spans: &mut Vec<Span>, span: Span) {
    if spans.len() < SPAN_CAP {
        spans.push(span);
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a traced thread panicked while holding the trace")
}

/// Running sum and count of a size.
#[derive(Debug, Default, Clone, Copy)]
pub struct Avg {
    pub sum: u64,
    pub count: u64,
}

impl Avg {
    fn add(&mut self, v: u64) {
        self.sum += v;
        self.count += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// What one client's transport decorator saw.
#[derive(Debug, Default)]
pub struct ClientTrace {
    pub spans: Vec<Span>,
    pub client: u32,
    /// Timestamp of the op whose `write`/`read`/`wait` call is running
    /// (0 between calls); tags the transport spans.
    pub current_ts: u64,
    /// Send and receive time since the load loop last reset them.
    pub send_ns: u64,
    pub recv_ns: u64,
    pub submit_bytes: Avg,
    pub commit_bytes: Avg,
    pub reply_bytes: Avg,
    /// When set, the next REPLY to a read is kept for the micro-benches.
    pub capture: bool,
    pub captured: Option<UstorMsg>,
}

/// A [`ClientTransport`] that times `send` and `recv_timeout`.
pub struct TracedConn<T> {
    inner: T,
    trace: Arc<Mutex<ClientTrace>>,
}

impl<T> TracedConn<T> {
    pub fn new(inner: T, trace: Arc<Mutex<ClientTrace>>) -> Self {
        TracedConn { inner, trace }
    }
}

impl<T: ClientTransport> ClientTransport for TracedConn<T> {
    fn id(&self) -> ClientId {
        self.inner.id()
    }

    fn send(&self, msg: &UstorMsg) -> Result<(), TransportClosed> {
        let start = Instant::now();
        let out = self.inner.send(msg);
        let end = Instant::now();
        let mut t = lock(&self.trace);
        t.send_ns += (end - start).as_nanos() as u64;
        let (client, ts) = (t.client, t.current_ts);
        record(
            &mut t.spans,
            Span {
                name: "net.client_send",
                parent: "op",
                start: ns(start),
                end: ns(end),
                client,
                ts,
            },
        );
        match msg {
            UstorMsg::Submit(submit) => {
                t.submit_bytes.add(msg.encoded_len() as u64);
                if let Some(commit) = &submit.piggyback {
                    t.commit_bytes.add(commit.encoded_len() as u64);
                }
            }
            UstorMsg::Commit(_) => t.commit_bytes.add(msg.encoded_len() as u64),
            UstorMsg::Reply(_) => {}
        }
        out
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<UstorMsg>, TransportClosed> {
        let start = Instant::now();
        let out = self.inner.recv_timeout(timeout);
        let end = Instant::now();
        let mut t = lock(&self.trace);
        t.recv_ns += (end - start).as_nanos() as u64;
        let (client, ts) = (t.client, t.current_ts);
        record(
            &mut t.spans,
            Span {
                name: "net.client_recv",
                parent: "op",
                start: ns(start),
                end: ns(end),
                client,
                ts,
            },
        );
        if let Ok(Some(msg @ UstorMsg::Reply(reply))) = &out {
            t.reply_bytes.add(msg.encoded_len() as u64);
            if t.capture && reply.read.is_some() {
                t.capture = false;
                t.captured = Some(msg.clone());
            }
        }
        out
    }
}

/// The server-side path of one op, filled in as it passes the layers.
#[derive(Debug, Clone, Copy, Default)]
struct OpPath {
    client: u32,
    ts: u64,
    /// When the transport handed the SUBMIT to the engine.
    ingress: u64,
    /// Duration of the non-blocking receive that delivered it (0 when a
    /// blocking receive did: that wait is idle time, not work).
    recv: u64,
    submit_start: u64,
    submit_end: u64,
    /// Whether the op's own `on_submit` call released a batch.
    inline_flush: bool,
    flush_start: u64,
    flush_end: u64,
}

/// Per-op server rows, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerRow {
    pub client: u32,
    pub ts: u64,
    pub recv: u64,
    pub on_submit: u64,
    pub batch_wait: u64,
    pub flush: u64,
    pub send: u64,
    pub engine_self: u64,
}

/// What the server-side decorators saw; shared by the transport and the
/// `Server` decorator, both of which run on the serve thread.
#[derive(Debug, Default)]
pub struct ServerTrace {
    group_commit: bool,
    pub spans: Vec<Span>,
    arrived: Vec<VecDeque<OpPath>>,
    awaiting: Vec<VecDeque<OpPath>>,
    released: Vec<VecDeque<OpPath>>,
    pub rows: Vec<ServerRow>,
    /// The current serve round began with a `recv_deadline` timeout.
    timer_round: bool,
    round_msgs: u64,
    pub rounds: u64,
    pub round_msgs_total: u64,
    records_since_flush: u64,
    pub releasing_flushes: u64,
    pub timer_flushes: u64,
    pub records_flushed: u64,
    pub send_batches: u64,
    pub frames_sent: u64,
    /// Per-call durations (ns).
    pub try_recv_ns: Vec<f64>,
    pub on_submit_ns: Vec<f64>,
    pub on_commit_ns: Vec<f64>,
    pub flush_ns: Vec<f64>,
    pub send_ns: Vec<f64>,
}

impl ServerTrace {
    pub fn new(n: usize, group_commit: bool) -> Self {
        ServerTrace {
            group_commit,
            arrived: vec![VecDeque::new(); n],
            awaiting: vec![VecDeque::new(); n],
            released: vec![VecDeque::new(); n],
            ..ServerTrace::default()
        }
    }

    fn close_round(&mut self) {
        if self.round_msgs > 0 {
            self.rounds += 1;
            self.round_msgs_total += self.round_msgs;
        }
        self.round_msgs = 0;
    }

    fn arrive(&mut self, from: ClientId, msg: &UstorMsg, end: u64, recv: u64) {
        self.round_msgs += 1;
        if recv > 0 {
            self.try_recv_ns.push(recv as f64);
        }
        if let UstorMsg::Submit(submit) = msg {
            if let Some(queue) = self.arrived.get_mut(from.index()) {
                queue.push_back(OpPath {
                    client: from.as_u32(),
                    ts: submit.timestamp,
                    ingress: end,
                    recv,
                    ..OpPath::default()
                });
            }
        }
    }

    /// Matches released replies to the SUBMITs they answer. `flush` is
    /// the releasing call's interval when the replies come out of a
    /// group-commit flush, `None` when the server answered directly.
    fn release(&mut self, replies: &[(ClientId, ReplyMsg)], flush: Option<(u64, u64)>) {
        if let Some((start, end)) = flush {
            self.releasing_flushes += 1;
            self.timer_flushes += u64::from(self.timer_round);
            self.records_flushed += self.records_since_flush;
            self.records_since_flush = 0;
            self.flush_ns.push((end - start) as f64);
            record(
                &mut self.spans,
                Span {
                    name: "store.flush",
                    parent: "",
                    start,
                    end,
                    client: u32::MAX,
                    ts: 0,
                },
            );
        }
        for (to, _) in replies {
            let Some(mut op) = self
                .awaiting
                .get_mut(to.index())
                .and_then(VecDeque::pop_front)
            else {
                continue;
            };
            if let Some((start, end)) = flush {
                op.flush_start = start;
                op.flush_end = end;
            }
            if let Some(queue) = self.released.get_mut(to.index()) {
                queue.push_back(op);
            }
        }
    }

    fn finish(&mut self, op: OpPath, send_start: u64, send_end: u64) {
        let on_submit = if op.inline_flush {
            0
        } else {
            op.submit_end - op.submit_start
        };
        let flush = op.flush_end - op.flush_start;
        let batch_wait = if op.flush_end == 0 || op.inline_flush {
            0
        } else {
            op.flush_start.saturating_sub(op.submit_end)
        };
        let send = send_end - send_start;
        let total = send_end.saturating_sub(op.ingress);
        let engine_self = total.saturating_sub(on_submit + batch_wait + flush + send);
        let (client, ts) = (op.client, op.ts);
        let mut span = |name, start, end| {
            record(
                &mut self.spans,
                Span {
                    name,
                    parent: if name == "ustor.engine" {
                        "op"
                    } else {
                        "ustor.engine"
                    },
                    start,
                    end,
                    client,
                    ts,
                },
            )
        };
        span("ustor.engine", op.ingress, send_end);
        if op.recv > 0 {
            span("net.server_recv", op.ingress - op.recv, op.ingress);
        }
        if !op.inline_flush {
            span("ustor.on_submit", op.submit_start, op.submit_end);
        }
        if batch_wait > 0 {
            span("store.batch_wait", op.submit_end, op.flush_start);
        }
        if flush > 0 {
            span("store.flush", op.flush_start, op.flush_end);
        }
        span("net.server_send", send_start, send_end);
        self.rows.push(ServerRow {
            client,
            ts,
            recv: op.recv,
            on_submit,
            batch_wait,
            flush,
            send,
            engine_self,
        });
    }
}

/// A [`ServerTransport`] that times every receive and send.
pub struct TracedServerTransport<T> {
    inner: T,
    trace: Arc<Mutex<ServerTrace>>,
}

impl<T> TracedServerTransport<T> {
    pub fn new(inner: T, trace: Arc<Mutex<ServerTrace>>) -> Self {
        TracedServerTransport { inner, trace }
    }

    /// A blocking receive starts a new serve round.
    fn blocking(&mut self, recv: impl FnOnce(&mut T) -> Incoming) -> Incoming {
        lock(&self.trace).close_round();
        let out = recv(&mut self.inner);
        let end = ns(Instant::now());
        let mut t = lock(&self.trace);
        match &out {
            Incoming::Msg(from, msg) => {
                t.timer_round = false;
                t.arrive(*from, msg, end, 0);
            }
            Incoming::TimedOut => t.timer_round = true,
            Incoming::Idle | Incoming::Closed => {}
        }
        out
    }
}

impl<T: ServerTransport> ServerTransport for TracedServerTransport<T> {
    fn recv(&mut self) -> Incoming {
        self.blocking(T::recv)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Incoming {
        self.blocking(|inner| inner.recv_deadline(deadline))
    }

    fn try_recv(&mut self) -> Incoming {
        let start = Instant::now();
        let out = self.inner.try_recv();
        let end = Instant::now();
        if let Incoming::Msg(from, msg) = &out {
            let recv = ((end - start).as_nanos() as u64).max(1);
            lock(&self.trace).arrive(*from, msg, ns(end), recv);
        }
        out
    }

    fn send(&mut self, to: ClientId, msg: UstorMsg) {
        self.send_batch(to, vec![msg]);
    }

    fn send_batch(&mut self, to: ClientId, msgs: Vec<UstorMsg>) {
        let replies = msgs
            .iter()
            .filter(|m| matches!(m, UstorMsg::Reply(_)))
            .count();
        let frames = msgs.len() as u64;
        let start = Instant::now();
        self.inner.send_batch(to, msgs);
        let end = Instant::now();
        let (start, end) = (ns(start), ns(end));
        let mut t = lock(&self.trace);
        t.send_batches += 1;
        t.frames_sent += frames;
        t.send_ns.push((end - start) as f64);
        for _ in 0..replies {
            let Some(op) = t.released.get_mut(to.index()).and_then(VecDeque::pop_front) else {
                break;
            };
            t.finish(op, start, end);
        }
    }
}

/// The engine's `Server`, timed.
pub struct TracedServer {
    inner: Box<dyn Server + Send>,
    trace: Arc<Mutex<ServerTrace>>,
}

impl Server for TracedServer {
    fn on_submit(&mut self, client: ClientId, msg: SubmitMsg) -> Vec<(ClientId, ReplyMsg)> {
        let ts = msg.timestamp;
        let start = Instant::now();
        let replies = self.inner.on_submit(client, msg);
        let (start, end) = (ns(start), ns(Instant::now()));
        let mut t = lock(&self.trace);
        t.records_since_flush += u64::from(t.group_commit);
        let c = client.index();
        let mut op = match t.arrived.get_mut(c).and_then(VecDeque::pop_front) {
            Some(op) if op.ts == ts => op,
            _ => OpPath {
                client: client.as_u32(),
                ts,
                ingress: start,
                ..OpPath::default()
            },
        };
        op.submit_start = start;
        op.submit_end = end;
        let inline_flush = t.group_commit && !replies.is_empty();
        op.inline_flush = inline_flush;
        t.on_submit_ns.push((end - start) as f64);
        if let Some(queue) = t.awaiting.get_mut(c) {
            queue.push_back(op);
        }
        t.release(&replies, inline_flush.then_some((start, end)));
        replies
    }

    fn on_commit(&mut self, client: ClientId, msg: CommitMsg) -> Vec<(ClientId, ReplyMsg)> {
        let ts = msg
            .version
            .v()
            .as_slice()
            .get(client.index())
            .copied()
            .unwrap_or(0);
        let start = Instant::now();
        let replies = self.inner.on_commit(client, msg);
        let (start, end) = (ns(start), ns(Instant::now()));
        let mut t = lock(&self.trace);
        t.records_since_flush += u64::from(t.group_commit);
        t.on_commit_ns.push((end - start) as f64);
        record(
            &mut t.spans,
            Span {
                name: "ustor.on_commit",
                parent: "",
                start,
                end,
                client: client.as_u32(),
                ts,
            },
        );
        let inline_flush = t.group_commit && !replies.is_empty();
        t.release(&replies, inline_flush.then_some((start, end)));
        replies
    }

    fn flush(&mut self, force: bool) -> Vec<(ClientId, ReplyMsg)> {
        let start = Instant::now();
        let replies = self.inner.flush(force);
        if !replies.is_empty() {
            let (start, end) = (ns(start), ns(Instant::now()));
            lock(&self.trace).release(&replies, Some((start, end)));
        }
        replies
    }

    fn flush_deadline(&self) -> Option<Instant> {
        self.inner.flush_deadline()
    }

    fn flush_deadline_at(&self) -> Option<u64> {
        self.inner.flush_deadline_at()
    }

    fn resume_sessions(&mut self) -> Vec<SessionResume> {
        self.inner.resume_sessions()
    }
}

/// A [`ServerBackend`] whose servers come out wrapped in [`TracedServer`].
pub struct TracedBackend {
    pub inner: Box<dyn ServerBackend + Send>,
    pub trace: Arc<Mutex<ServerTrace>>,
}

impl ServerBackend for TracedBackend {
    fn build(&self, n: usize) -> std::io::Result<Box<dyn Server + Send>> {
        Ok(Box::new(TracedServer {
            inner: self.inner.build(n)?,
            trace: Arc::clone(&self.trace),
        }))
    }
}
