//! Transport benchmark: end-to-end operation throughput of `FaustHandle`
//! clients through the server engine over the in-process channel
//! transport and over loopback TCP with length-prefixed framing — the
//! cost of putting a real network edge in front of the same engine.

use faust_core::runtime::spawn_engine;
use faust_core::{FaustConfig, FaustHandle, HandleConfig};
use faust_net::{channel, tcp, ClientConn, TcpServerTransport};
use faust_types::{ClientId, Value};
use faust_ustor::{EngineStats, UstorServer};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const OPS_PER_CLIENT: u64 = 400;

/// What a run produced: completed operations, whether any client halted
/// on a violation, and the engine's final statistics.
struct Report {
    completions: u64,
    failed: bool,
    engine_stats: EngineStats,
}

/// One sequential client per thread, each op awaited before the next
/// (no background dummy reads, so every SUBMIT is a measured op).
fn run_clients(n: usize, conns: Vec<ClientConn>, engine: JoinHandle<EngineStats>) -> Report {
    let config = HandleConfig {
        faust: FaustConfig {
            dummy_reads: false,
            ..FaustConfig::default()
        },
        ..HandleConfig::default()
    };
    let workers: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(i, conn)| {
            let id = ClientId::new(i as u32);
            std::thread::spawn(move || {
                let mut handle = FaustHandle::new(id, n, b"bench-net", &config, Box::new(conn));
                let mut completions = 0;
                for s in 0..OPS_PER_CLIENT {
                    let ticket = if s % 4 == 3 && n > 1 {
                        handle.read(ClientId::new(((i as u32) + 1) % n as u32))
                    } else {
                        handle.write(Value::unique(i as u32, s))
                    };
                    if handle.wait(ticket, Duration::from_secs(30)).is_err() {
                        break;
                    }
                    completions += 1;
                }
                (completions, handle.failure().is_some())
            })
        })
        .collect();
    let (mut completions, mut failed) = (0, false);
    for worker in workers {
        let (done, halted) = worker.join().expect("client thread panicked");
        completions += done;
        failed |= halted;
    }
    Report {
        completions,
        failed,
        engine_stats: engine.join().expect("server thread panicked"),
    }
}

fn run_channel(n: usize) -> Report {
    let (transport, conns) = channel::pair(n);
    let engine = spawn_engine(n, Box::new(UstorServer::new(n)), transport);
    run_clients(n, conns, engine)
}

fn run_tcp(n: usize) -> Report {
    let transport = TcpServerTransport::bind("127.0.0.1:0", n).expect("bind loopback");
    let addr = transport.local_addr();
    let engine = spawn_engine(n, Box::new(UstorServer::new(n)), transport);
    let conns: Vec<ClientConn> = (0..n)
        .map(|i| tcp::connect(addr, ClientId::new(i as u32)).expect("connect"))
        .collect();
    run_clients(n, conns, engine)
}

/// Times `f` three times and reports the best ops/s (threaded runs are
/// long enough that best-of is stable).
fn measure(name: &str, n: usize, f: impl Fn(usize) -> Report) {
    let total_ops = n as u64 * OPS_PER_CLIENT;
    let mut best = f64::MIN;
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let report = f(n);
        let secs = start.elapsed().as_secs_f64();
        assert!(!report.failed, "faults during bench");
        assert_eq!(report.completions, total_ops);
        best = best.max(total_ops as f64 / secs);
        last = Some(report);
    }
    let report = last.expect("three runs");
    println!(
        "{:<44} {:>12.0} ops/s   (max batch {})",
        name, best, report.engine_stats.max_batch
    );
}

fn main() {
    println!("\n== engine throughput by transport ({OPS_PER_CLIENT} ops/client) ==");
    for n in [1usize, 4, 8] {
        measure(&format!("channel_transport/n{n}"), n, run_channel);
    }
    for n in [1usize, 4, 8] {
        measure(&format!("tcp_loopback_transport/n{n}"), n, run_tcp);
    }
}
