//! End-to-end tests over real loopback TCP: the same FAUST protocol stack
//! the deterministic simulator exercises, with every client↔server
//! message crossing a socket as a length-prefixed frame.
//!
//! Two claims are checked: a correct server serves a write/read workload
//! with *no* `fail` notifications (failure-detection accuracy survives a
//! real transport), and a forked (split-brain) server is detected by
//! every client (detection completeness does too).

use faust::core::runtime::spawn_engine_with;
use faust::core::threaded_faust::{
    run_threaded_faust_over, run_threaded_faust_tcp, ThreadedFaustConfig,
};
use faust::core::{Notification, UserOp};
use faust::crypto::{KeySet, SigScheme};
use faust::net::{tcp, ClientConn, TcpServerTransport};
use faust::types::{ClientId, Value};
use faust::ustor::adversary::SplitBrainServer;
use faust::ustor::{IngressVerification, ServerEngine, UstorServer};
use std::sync::Arc;
use std::time::Duration;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// A config generous enough for CI machines: probes every 50 ms, runs for
/// just over a second of wall time.
fn config() -> ThreadedFaustConfig {
    ThreadedFaustConfig {
        run_for: Duration::from_millis(1200),
        ..ThreadedFaustConfig::default()
    }
}

#[test]
fn three_clients_over_loopback_tcp_complete_without_failures() {
    let n = 3;
    let workloads = vec![
        vec![
            UserOp::Write(Value::from("a1")),
            UserOp::Write(Value::from("a2")),
            UserOp::Read(c(1)),
        ],
        vec![UserOp::Write(Value::from("b1")), UserOp::Read(c(0))],
        vec![UserOp::Read(c(0)), UserOp::Write(Value::from("c1"))],
    ];
    let report = run_threaded_faust_tcp(
        n,
        workloads,
        Box::new(UstorServer::new(n)),
        config(),
        b"tcp-e2e",
    )
    .expect("loopback TCP available");

    // Accuracy: a correct server is never blamed, even over TCP.
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    // Every user operation completed.
    assert_eq!(report.completions(c(0)), 3);
    assert_eq!(report.completions(c(1)), 2);
    assert_eq!(report.completions(c(2)), 2);
    // Reads carried values: C1's read of register 0 saw a2 or an earlier
    // consistent state, never garbage (any completed read suffices here —
    // value correctness is the simulator tests' job; this checks the
    // transport didn't corrupt anything en route).
    let read_completions: usize = (0..n as u32)
        .map(|i| {
            report.notifications[i as usize]
                .iter()
                .filter(|(_, note)| {
                    matches!(note, Notification::Completed(done) if done.read_value.is_some())
                })
                .count()
        })
        .sum();
    assert_eq!(read_completions, 3, "all three reads completed");
    // Stability spread across the TCP deployment.
    let cut = report.last_cut(c(0)).expect("stability cuts issued");
    assert!(
        cut.iter().all(|&w| w >= 2),
        "C0's writes should become globally stable, got {cut:?}"
    );
    // The engine actually carried the traffic.
    assert!(report.engine_stats.submits >= 7);
    assert_eq!(report.engine_stats.rejected, 0);
}

#[test]
fn forked_server_over_tcp_is_detected_by_every_client() {
    let n = 2;
    let server = SplitBrainServer::new(n, vec![vec![c(0)], vec![c(1)]], 0);
    let workloads = vec![
        vec![UserOp::Write(Value::from("left"))],
        vec![UserOp::Write(Value::from("right"))],
    ];
    let report = run_threaded_faust_tcp(n, workloads, Box::new(server), config(), b"tcp-fork")
        .expect("loopback TCP available");
    assert_eq!(
        report.failures.len(),
        2,
        "both clients must detect the fork over TCP: {:?}",
        report.failures
    );
}

/// Batched SUBMIT verification at ingress serves a TCP deployment
/// untouched, under both signature schemes.
///
/// * Ed25519 is the sound deployment of docs/trust-model.md: clients
///   hold Ed25519 signing keys, the server engine holds *only the
///   public-key registry* — which grants it no forging power — and the
///   full FAUST layer (stability, failure detection) behaves exactly as
///   with HMAC keys.
/// * With HMAC keys the same configuration is a benchmarking device, not
///   a sound deployment.
#[test]
fn batched_ingress_verification_serves_tcp_clients() {
    let n = 3;
    let key_seed = b"tcp-verified";
    for scheme in [SigScheme::Hmac, SigScheme::Ed25519] {
        let registry = KeySet::generate_with(scheme, n, key_seed).registry();
        assert_eq!(
            registry.is_public(),
            scheme == SigScheme::Ed25519,
            "only Ed25519 keeps signing keys off the server"
        );

        let transport = TcpServerTransport::bind("127.0.0.1:0", n).expect("bind loopback");
        let addr = transport.local_addr();
        let engine = ServerEngine::new(n, Box::new(UstorServer::new(n)))
            .with_verification(IngressVerification::Batched(Arc::new(registry)));
        let engine_thread = spawn_engine_with(engine, transport);
        let conns: Vec<ClientConn> = (0..n)
            .map(|i| tcp::connect(addr, c(i as u32)).expect("connect"))
            .collect();

        let workloads = vec![
            vec![
                UserOp::Write(Value::from("v1")),
                UserOp::Write(Value::from("v2")),
            ],
            vec![UserOp::Read(c(0))],
            vec![UserOp::Write(Value::from("w1")), UserOp::Read(c(0))],
        ];
        let config = ThreadedFaustConfig { scheme, ..config() };
        let report = run_threaded_faust_over(n, workloads, conns, config, key_seed, engine_thread);

        assert!(
            report.failures.is_empty(),
            "{scheme:?}: {:?}",
            report.failures
        );
        assert_eq!(
            report.engine_stats.rejected, 0,
            "{scheme:?}: honest traffic must pass batched ingress verification"
        );
        assert_eq!(report.completions(c(0)), 2);
        assert_eq!(report.completions(c(1)), 1);
        assert_eq!(report.completions(c(2)), 2);
        assert!(report.engine_stats.submits >= 5);
    }
}
