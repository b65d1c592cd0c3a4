//! Thread-per-client runtime for the *full* FAUST stack: USTOR through a
//! server engine thread, plus direct client-to-client channels standing in
//! for the offline communication method — the complete Figure 1 topology
//! on real OS threads.
//!
//! The server side is the transport-agnostic engine of `faust-ustor`
//! behind a [`faust_net`] transport, so the same runtime runs over
//! in-process channels ([`run_threaded_faust`]) or loopback TCP with
//! length-prefixed frames ([`run_threaded_faust_tcp`]). The deterministic
//! simulator remains the reference environment for experiments; these
//! runtimes demonstrate that the same sans-io protocol state machines run
//! unchanged under genuine concurrency, and that detection and stability
//! behave identically there.

use crate::client::{FaustClient, FaustConfig, UserOp};
use crate::events::{FailReason, Notification};
use crate::handle::{offline_mesh, Event, FaustHandle, SessionCore};
use faust_crypto::sig::{KeySet, SigScheme};
use faust_net::{channel, tcp, ClientConn, TcpServerTransport};
use faust_types::ClientId;
use faust_ustor::Server;
use std::time::Duration;

/// Configuration of a threaded FAUST run.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedFaustConfig {
    /// FAUST layer tuning (probe period is interpreted in milliseconds).
    pub faust: FaustConfig,
    /// Interval between protocol ticks.
    pub tick_interval: Duration,
    /// Wall-clock duration of the run after workloads are submitted.
    pub run_for: Duration,
    /// Signature scheme for the run's keys, derived from the same
    /// `key_seed` on every thread. [`SigScheme::Ed25519`] makes the
    /// registry public-key-only, so it can also be handed to a server
    /// engine for sound ingress verification; [`SigScheme::Hmac`] is the
    /// fast path.
    pub scheme: SigScheme,
}

impl Default for ThreadedFaustConfig {
    fn default() -> Self {
        ThreadedFaustConfig {
            faust: FaustConfig {
                probe_period: 50, // ms of wall time
                dummy_reads: true,
                commit_mode: faust_ustor::CommitMode::Immediate,
                pipeline: 1,
            },
            tick_interval: Duration::from_millis(10),
            run_for: Duration::from_millis(600),
            scheme: SigScheme::Hmac,
        }
    }
}

/// Outcome of a threaded FAUST run.
#[derive(Debug)]
pub struct ThreadedFaustReport {
    /// Notifications per client in arrival order (with ms offsets).
    pub notifications: Vec<Vec<(u64, Notification)>>,
    /// Clients that emitted `fail`, with reasons.
    pub failures: Vec<(ClientId, FailReason)>,
    /// Final engine statistics from the server thread.
    pub engine_stats: faust_ustor::EngineStats,
}

impl ThreadedFaustReport {
    /// Completed user operations at `client`.
    pub fn completions(&self, client: ClientId) -> usize {
        self.notifications[client.index()]
            .iter()
            .filter(|(_, n)| matches!(n, Notification::Completed(_)))
            .count()
    }

    /// The last stability cut reported by `client`.
    pub fn last_cut(&self, client: ClientId) -> Option<Vec<u64>> {
        self.notifications[client.index()]
            .iter()
            .rev()
            .find_map(|(_, n)| match n {
                Notification::Stable(cut) => Some(cut.w.clone()),
                _ => None,
            })
    }
}

/// Runs `n` FAUST clients on threads against `server` (on its own engine
/// thread) over the in-process channel transport, with direct inter-client
/// channels as the offline medium.
///
/// Each client first submits its entire workload, then keeps ticking
/// (dummy reads + probes) until `config.run_for` elapses.
///
/// # Panics
///
/// Panics if `workloads.len() != n` or a thread panics.
pub fn run_threaded_faust(
    n: usize,
    workloads: Vec<Vec<UserOp>>,
    server: Box<dyn Server + Send>,
    config: ThreadedFaustConfig,
    key_seed: &[u8],
) -> ThreadedFaustReport {
    let (transport, conns) = channel::pair(n);
    let engine_thread = crate::runtime::spawn_engine(n, server, transport);
    run_threaded_faust_over(n, workloads, conns, config, key_seed, engine_thread)
}

/// [`run_threaded_faust`] with the engine behind loopback TCP: every
/// client↔server message crosses a real socket as a length-prefixed
/// frame. The offline client-to-client channel remains in-process (the
/// paper models it as a separate medium anyway).
///
/// # Errors
///
/// Propagates socket errors from binding or connecting.
///
/// # Panics
///
/// Panics if `workloads.len() != n` or a thread panics.
pub fn run_threaded_faust_tcp(
    n: usize,
    workloads: Vec<Vec<UserOp>>,
    server: Box<dyn Server + Send>,
    config: ThreadedFaustConfig,
    key_seed: &[u8],
) -> std::io::Result<ThreadedFaustReport> {
    let transport = TcpServerTransport::bind("127.0.0.1:0", n)?;
    let addr = transport.local_addr();
    let engine_thread = crate::runtime::spawn_engine(n, server, transport);
    let conns = (0..n)
        .map(|i| tcp::connect(addr, ClientId::new(i as u32)))
        .collect::<std::io::Result<Vec<_>>>()?;
    Ok(run_threaded_faust_over(
        n,
        workloads,
        conns,
        config,
        key_seed,
        engine_thread,
    ))
}

/// The transport-independent core: runs the client threads over pre-built
/// connections; the engine runs behind `engine_thread` (see
/// [`crate::runtime::spawn_engine_with`] for custom engine setups such as
/// ingress verification).
///
/// # Panics
///
/// Panics if `workloads.len() != n`, the connections are not in client
/// order, or a thread panics.
pub fn run_threaded_faust_over(
    n: usize,
    workloads: Vec<Vec<UserOp>>,
    conns: Vec<ClientConn>,
    config: ThreadedFaustConfig,
    key_seed: &[u8],
    engine_thread: std::thread::JoinHandle<faust_ustor::EngineStats>,
) -> ThreadedFaustReport {
    let session = FaustSession::new(n, &config, key_seed);
    run_faust_session(session, workloads, conns, config, engine_thread).0
}

/// The FAUST client side of a deployment, detached from any particular
/// server incarnation — protocol state machines plus a continuing
/// protocol clock.
///
/// A session can be run against a server, paused (clients disconnect,
/// the server engine winds down), and **resumed** against a *new* server
/// incarnation with all client state — version vectors, stability
/// machinery, detected failures — intact. That is exactly what a
/// kill-and-restart of the server looks like from the clients' side, and
/// what makes the crash-recovery end-to-end tests honest: whether the
/// restarted server is caught must depend on the server's *state*, not
/// on clients having forgotten what they had seen.
pub struct FaustSession {
    clients: Vec<FaustClient>,
    clock_ms: u64,
}

impl FaustSession {
    /// Builds `n` fresh FAUST clients with keys derived from `key_seed`
    /// under `config.scheme`, protocol-tuned by `config.faust`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, config: &ThreadedFaustConfig, key_seed: &[u8]) -> Self {
        assert!(n > 0, "at least one client");
        let keys = KeySet::generate_with(config.scheme, n, key_seed);
        let clients = (0..n)
            .map(|i| {
                FaustClient::new(
                    ClientId::new(i as u32),
                    n,
                    keys.keypair(i as u32).expect("generated").clone(),
                    keys.registry(),
                    config.faust,
                )
            })
            .collect();
        FaustSession {
            clients,
            clock_ms: 0,
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// The session's protocol clock: milliseconds of run time consumed
    /// so far. Resumed runs continue from here, so client-side timers
    /// (probe periods, stability bookkeeping) never see time move
    /// backwards across a server restart.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Read access to a client's protocol state (diagnostics and tests).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn client(&self, id: ClientId) -> &FaustClient {
        &self.clients[id.index()]
    }
}

/// Runs one phase of a [`FaustSession`] against whatever server the
/// caller stood up behind `conns`/`engine_thread`, then hands the
/// session back for the next phase.
///
/// Each client thread is a [`FaustHandle`] event loop over its
/// connection (the public client API — the harness is a thin wrapper):
/// the phase workload is submitted up front as pipelined tickets, then
/// the handle keeps ticking (probes, dummy reads) until `config.run_for`
/// elapses; `config.scheme`/`config.faust` are ignored here — they were
/// fixed when the session was created. The in-process offline medium is
/// an [`offline_mesh`].
///
/// # Panics
///
/// Panics if `workloads.len()` or `conns.len()` disagree with the
/// session's client count, connections are out of client order, or a
/// thread panics.
pub fn run_faust_session(
    mut session: FaustSession,
    workloads: Vec<Vec<UserOp>>,
    conns: Vec<ClientConn>,
    config: ThreadedFaustConfig,
    engine_thread: std::thread::JoinHandle<faust_ustor::EngineStats>,
) -> (ThreadedFaustReport, FaustSession) {
    let n = session.num_clients();
    let clock_base = session.clock_ms;

    assert_eq!(workloads.len(), n, "one workload per client");
    assert_eq!(conns.len(), n, "one connection per client");
    let links = offline_mesh(n);

    let mut handles = Vec::with_capacity(n);
    let clients = std::mem::take(&mut session.clients);
    for (i, (((workload, conn), proto), link)) in workloads
        .into_iter()
        .zip(conns)
        .zip(clients)
        .zip(links)
        .enumerate()
    {
        let id = ClientId::new(i as u32);
        assert_eq!(conn.id(), id, "connections must be in client order");
        let cfg = config;

        handles.push(std::thread::spawn(move || {
            let mut handle = FaustHandle::from_core(
                SessionCore::new(proto),
                cfg.tick_interval,
                clock_base,
                Box::new(conn),
            )
            .with_offline(link);
            // Submit the whole workload up front; the session pipelines
            // what fits its window and queues the rest.
            for op in workload {
                match op {
                    UserOp::Write(value) => handle.write(value),
                    UserOp::Read(register) => handle.read(register),
                };
            }
            let events = handle.run_for(cfg.run_for);
            let (core, end_ms) = handle.into_core();
            let log: Vec<(u64, Notification)> = events
                .into_iter()
                .filter_map(|(t, event)| {
                    let note = match event {
                        Event::Completed { completion, .. } => Notification::Completed(completion),
                        Event::Stable { cut } => Notification::Stable(cut),
                        Event::Violation { reason } => Notification::Failed(reason),
                        // The engine outlives the phase; a disconnect can
                        // only be the phase ending.
                        Event::Disconnected { .. }
                        | Event::Reconnecting { .. }
                        | Event::Resumed => return None,
                    };
                    Some((t, note))
                })
                .collect();
            (log, core.into_client(), end_ms)
        }));
    }

    let mut notifications = Vec::with_capacity(n);
    let mut failures = Vec::new();
    let mut clock_ms = clock_base + config.run_for.as_millis() as u64;
    for (i, handle) in handles.into_iter().enumerate() {
        let (log, proto, end_ms) = handle.join().expect("client thread panicked");
        notifications.push(log);
        // A failure sticks to the client (it halted), so a resumed
        // session reports it again in every subsequent phase.
        if let Some(reason) = proto.failure().cloned() {
            failures.push((ClientId::new(i as u32), reason));
        }
        clock_ms = clock_ms.max(end_ms);
        session.clients.push(proto);
    }
    session.clock_ms = clock_ms;
    let engine_stats = engine_thread.join().expect("server thread panicked");
    (
        ThreadedFaustReport {
            notifications,
            failures,
            engine_stats,
        },
        session,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::HandleConfig;
    use faust_types::Value;
    use faust_ustor::adversary::SplitBrainServer;
    use faust_ustor::UstorServer;

    fn c(i: u32) -> ClientId {
        ClientId::new(i)
    }

    #[test]
    fn threaded_faust_completes_and_stabilizes() {
        use faust_store::{Durability, PersistentBackend, PersistentServer, StoreConfig};
        use faust_ustor::ServerBackend;

        // A volatile server, then durable ones (no fsync, then group
        // commit, whose held replies the serve loop releases on the
        // flush deadline).
        let durable = |name: &str, durability| {
            let config = StoreConfig {
                durability,
                snapshot_every: 0,
            };
            Some((faust_store::testutil::scratch_dir(name), config))
        };
        let stores = [
            None,
            durable("threaded-durable", Durability::Never),
            durable(
                "threaded-group",
                Durability::Group {
                    max_records: 8,
                    max_wait: Duration::from_millis(2),
                },
            ),
        ];
        for store in stores {
            let server: Box<dyn Server + Send> = match &store {
                None => Box::new(UstorServer::new(3)),
                Some((dir, config)) => PersistentBackend::new(dir, config.clone())
                    .build(3)
                    .expect("fresh store"),
            };
            let workloads = vec![
                vec![
                    UserOp::Write(Value::from("a1")),
                    UserOp::Write(Value::from("a2")),
                ],
                vec![UserOp::Read(c(0))],
                vec![UserOp::Write(Value::from("c1"))],
            ];
            let report = run_threaded_faust(
                3,
                workloads,
                server,
                ThreadedFaustConfig::default(),
                b"threaded-faust",
            );
            assert!(report.failures.is_empty(), "{:?}", report.failures);
            assert_eq!(report.completions(c(0)), 2);
            assert_eq!(report.completions(c(1)), 1);
            // Stability spreads: C0's ops become stable w.r.t. everyone.
            let cut = report.last_cut(c(0)).expect("cuts issued");
            assert!(
                cut.iter().all(|&w| w >= 2),
                "expected full stability, got {cut:?}"
            );
            // The engine carried every user op: one SUBMIT and, in
            // immediate commit mode, one COMMIT each (plus dummy reads).
            let stats = &report.engine_stats;
            assert!(stats.submits >= 4 && stats.commits >= 4, "{stats:?}");
            if let Some((dir, config)) = store {
                // Every acknowledged message is in the log, and recovery
                // resumes exactly after it.
                let recovered = PersistentServer::recover(&dir, 3, config).expect("clean recovery");
                assert_eq!(recovered.next_seq(), stats.submits + stats.commits);
                std::fs::remove_dir_all(&dir).ok();
            }
        }

        // Heavy interleaving: eight clients, 25 ops each, every third a
        // read of the neighbour's register.
        let n = 8;
        let heavy = (0..n as u32)
            .map(|i| {
                (0..25)
                    .map(|s| {
                        if s % 3 == 0 {
                            UserOp::Read(c((i + 1) % n as u32))
                        } else {
                            UserOp::Write(Value::unique(i, s))
                        }
                    })
                    .collect()
            })
            .collect();
        let report = run_threaded_faust(
            n,
            heavy,
            Box::new(UstorServer::new(n)),
            ThreadedFaustConfig {
                run_for: Duration::from_millis(1500),
                ..ThreadedFaustConfig::default()
            },
            b"heavy",
        );
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        for i in 0..n as u32 {
            assert_eq!(report.completions(c(i)), 25, "client {i}");
        }
    }

    /// Wait-freedom in wall-clock time: C1 sleeps 300 ms between its two
    /// writes, and C0's 20 sequential writes must not take anywhere near
    /// that long — the server answers each SUBMIT without waiting for
    /// anybody's COMMIT.
    #[test]
    fn slow_client_does_not_delay_fast_clients() {
        let n = 2;
        let (transport, conns) = channel::pair(n);
        let engine = crate::runtime::spawn_engine(n, Box::new(UstorServer::new(n)), transport);
        let timeout = Duration::from_secs(5);
        let mut handles = conns.into_iter().enumerate().map(|(i, conn)| {
            FaustHandle::new(
                c(i as u32),
                n,
                b"slow-test",
                &HandleConfig::default(),
                Box::new(conn),
            )
        });
        let (mut fast, mut slow) = (handles.next().unwrap(), handles.next().unwrap());
        let slow_thread = std::thread::spawn(move || {
            let first = slow.write(Value::unique(1, 0));
            slow.wait(first, timeout).expect("first slow write");
            std::thread::sleep(Duration::from_millis(300));
            let second = slow.write(Value::unique(1, 1));
            slow.wait(second, timeout).expect("second slow write");
        });
        let begun = std::time::Instant::now();
        for i in 0..20 {
            let ticket = fast.write(Value::unique(0, i));
            fast.wait(ticket, timeout).expect("fast write");
        }
        let elapsed = begun.elapsed();
        slow_thread.join().expect("slow client thread");
        drop(fast);
        engine.join().expect("engine thread");
        assert!(
            elapsed < Duration::from_millis(200),
            "wait-freedom violated: fast client took {elapsed:?}"
        );
    }

    #[test]
    fn threaded_faust_detects_forks() {
        let server = SplitBrainServer::new(2, vec![vec![c(0)], vec![c(1)]], 0);
        let workloads = vec![
            vec![UserOp::Write(Value::from("a"))],
            vec![UserOp::Write(Value::from("b"))],
        ];
        let report = run_threaded_faust(
            2,
            workloads,
            Box::new(server),
            ThreadedFaustConfig::default(),
            b"threaded-fork",
        );
        assert_eq!(
            report.failures.len(),
            2,
            "both clients must detect the fork: {:?}",
            report.failures
        );
    }
}
