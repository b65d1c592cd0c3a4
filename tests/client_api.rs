//! Acceptance tests for the public fail-aware client API: everything
//! here drives [`faust::client::FaustHandle`] / [`Event`] only — no
//! simulator internals, no direct `ServerEngine` access on the client side.
//!
//! * A seeded property: a pipelined handle deployment over the channel
//!   transport completes the same operations (kinds, targets,
//!   fail-aware timestamps) and converges to the same stability cuts as
//!   the equivalent script in deterministic simulation (`run_sim`).
//! * A kill-and-restart end-to-end over real TCP with persistence and
//!   group commit: an honest restart is invisible through the handle
//!   (reconnect, cross-restart read), while a truncated log surfaces as
//!   [`Event::Violation`] — and, over seeded random truncation points,
//!   exactly the clients an oracle predicts flag the rollback.

use faust::client::{offline_mesh, Event, FaustHandle, HandleConfig, WaitError};
use faust::core::runtime::spawn_engine;
use faust::core::{random_faust_workloads, run_sim, FaustConfig, FaustWorkloadOp, SimScenario};
use faust::sim::SmallRng;
use faust::store::log::{Wal, WAL_FILE};
use faust::store::{
    testutil, truncate_tail_records, Durability, LogRecord, PersistentBackend, StoreConfig,
};
use faust::types::{ClientId, OpKind, Timestamp, Value};
use faust::ustor::{ServerBackend, UstorServer};
use std::time::{Duration, Instant};

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// (kind, target, timestamp) — the completion facts that are
/// deterministic regardless of interleaving.
type CompletionFacts = Vec<(OpKind, ClientId, Timestamp)>;

#[test]
fn pipelined_handles_match_the_driver_script() {
    let n = 3;
    let ops_per_client = 4u64;
    for seed in 0..2u64 {
        let workloads = random_faust_workloads(n, ops_per_client as usize, 0.5, seed);

        // Reference: the deterministic simulation of the same script,
        // run to quiescence and full stability.
        let reference = run_sim(&SimScenario::new(seed, workloads.clone(), 60_000));
        assert!(reference.failures.is_empty(), "seed {seed}");
        let reference_facts: Vec<CompletionFacts> = (0..n)
            .map(|i| {
                reference
                    .completions(c(i as u32))
                    .into_iter()
                    .map(|done| (done.kind, done.target, done.timestamp))
                    .collect()
            })
            .collect();
        // Timestamps count every USTOR operation including background
        // dummy reads, whose number is runtime-dependent — so "the same
        // stability cuts" means both runs converge to cuts dominating
        // the whole user workload (every user op stable w.r.t. every
        // client), which is the interleaving-independent statement.
        let user_stable = |w: &[Timestamp]| w.iter().all(|&x| x >= ops_per_client);
        for i in 0..n {
            assert!(
                user_stable(&reference.last_cut(c(i as u32)).expect("cuts issued").w),
                "seed {seed}: the simulation reaches full user-op stability"
            );
        }

        // The same script through live pipelined handles over the
        // channel transport (dummy reads + probes spread stability).
        let (transport, conns) = faust::net::channel::pair(n);
        let engine = spawn_engine(n, Box::new(UstorServer::new(n)), transport);
        let config = HandleConfig {
            faust: FaustConfig {
                probe_period: 50,
                pipeline: 3,
                ..FaustConfig::default()
            },
            tick_interval: Duration::from_millis(5),
            ..HandleConfig::default()
        };
        let mut links = offline_mesh(n);
        links.reverse();
        let workers: Vec<_> = conns
            .into_iter()
            .zip(workloads)
            .enumerate()
            .map(|(i, (conn, workload))| {
                let link = links.pop().expect("one link per client");
                std::thread::spawn(move || {
                    let mut handle = FaustHandle::new(
                        c(i as u32),
                        n,
                        b"client-api-prop",
                        &config,
                        Box::new(conn),
                    )
                    .with_offline(link);
                    for op in workload {
                        match op {
                            FaustWorkloadOp::Write(value) => handle.write(value),
                            FaustWorkloadOp::Read(register) => handle.read(register),
                            _ => unreachable!("random workloads are reads and writes"),
                        };
                    }
                    // Pump until everything completed AND this client's
                    // ops are stable with respect to everyone.
                    let deadline = Instant::now() + Duration::from_secs(20);
                    let mut events = Vec::new();
                    while Instant::now() < deadline {
                        events.extend(handle.run_for(Duration::from_millis(20)));
                        let cut = handle.stability_cut();
                        if handle.backlog() == 0 && cut.w.iter().all(|&x| x >= ops_per_client) {
                            break;
                        }
                    }
                    let facts: CompletionFacts = events
                        .iter()
                        .filter_map(|(_, e)| match e {
                            Event::Completed { completion, .. } => {
                                Some((completion.kind, completion.target, completion.timestamp))
                            }
                            _ => None,
                        })
                        .collect();
                    let cut = handle.stability_cut();
                    assert!(handle.failure().is_none(), "correct server, client {i}");
                    (facts, cut)
                })
            })
            .collect();
        for (i, worker) in workers.into_iter().enumerate() {
            let (facts, cut) = worker.join().expect("client thread");
            assert_eq!(
                facts, reference_facts[i],
                "seed {seed}: client {i} completions must match the simulation"
            );
            assert!(
                user_stable(&cut.w),
                "seed {seed}: client {i} converges to the same user-op \
                 stability cut, got {cut}"
            );
        }
        engine.join().expect("engine thread");
    }
}

/// Config shared by the kill-and-restart tests: quiet handles (the
/// restart story is about reads/writes, not probes), a pipeline window,
/// group commit at production-ish CI scale.
fn restart_config() -> HandleConfig {
    HandleConfig {
        faust: FaustConfig {
            probe_period: u64::MAX / 2,
            dummy_reads: false,
            pipeline: 2,
            ..FaustConfig::default()
        },
        tick_interval: Duration::from_millis(5),
        ..HandleConfig::default()
    }
}

fn group_store() -> StoreConfig {
    StoreConfig {
        durability: Durability::Group {
            max_records: 8,
            max_wait: Duration::from_millis(2),
        },
        snapshot_every: 0,
    }
}

/// Stands up one server incarnation from `backend` on a fresh loopback
/// socket; returns its address and engine thread.
fn incarnation(
    backend: &PersistentBackend,
    n: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<faust::ustor::EngineStats>,
) {
    let transport = faust::net::TcpServerTransport::bind("127.0.0.1:0", n).expect("bind");
    let addr = transport.local_addr();
    let server = backend.build(n).expect("backend builds/recovers");
    (addr, spawn_engine(n, server, transport))
}

#[test]
fn honest_kill_and_restart_is_invisible_through_the_handle() {
    let n = 2;
    let wait = Duration::from_secs(10);
    let dir = testutil::scratch_dir("handle-e2e-honest");
    let backend = PersistentBackend::new(&dir, group_store());
    let config = restart_config();

    // Incarnation 1.
    let (addr, engine) = incarnation(&backend, n);
    let mut h0 = FaustHandle::connect_tcp(addr, c(0), n, b"handle-e2e", &config).expect("connect");
    let mut h1 = FaustHandle::connect_tcp(addr, c(1), n, b"handle-e2e", &config).expect("connect");
    let a1 = h0.write(Value::from("a1"));
    let a2 = h0.write(Value::from("a2"));
    assert_eq!(h0.wait(a1, wait).expect("completes").timestamp, 1);
    assert_eq!(h0.wait(a2, wait).expect("completes").timestamp, 2);
    let b1 = h1.write(Value::from("b1"));
    h1.wait(b1, wait).expect("completes");
    // Quiescent: disconnect, and the incarnation dies with the sockets.
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");

    // Incarnation 2: recovered from the log on a fresh socket; the same
    // handles reconnect with all session state intact.
    let (addr, engine) = incarnation(&backend, n);
    h0.reconnect(Box::new(
        faust::net::tcp::connect(addr, c(0)).expect("redial"),
    ));
    h1.reconnect(Box::new(
        faust::net::tcp::connect(addr, c(1)).expect("redial"),
    ));

    // The read crossing the restart sees the last pre-crash value...
    let r = h1.read(c(0));
    let done = h1.wait(r, wait).expect("cross-restart read");
    assert_eq!(done.read_value, Some(Some(Value::from("a2"))));
    // ...writes continue with the next timestamps...
    let a3 = h0.write(Value::from("a3"));
    assert_eq!(h0.wait(a3, wait).expect("completes").timestamp, 3);
    // ...and no violation (or stray disconnect) was ever reported.
    for handle in [&mut h0, &mut h1] {
        assert!(handle.failure().is_none());
        let events = handle.poll();
        assert!(
            !events
                .iter()
                .any(|(_, e)| matches!(e, Event::Violation { .. } | Event::Disconnected { .. })),
            "honest restart must be invisible: {events:?}"
        );
    }
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_log_raises_a_violation_event() {
    let n = 2;
    let wait = Duration::from_secs(10);
    let dir = testutil::scratch_dir("handle-e2e-truncated");
    let backend = PersistentBackend::new(&dir, group_store());
    let config = restart_config();

    let (addr, engine) = incarnation(&backend, n);
    let mut h0 =
        FaustHandle::connect_tcp(addr, c(0), n, b"handle-rollback", &config).expect("connect");
    let mut h1 =
        FaustHandle::connect_tcp(addr, c(1), n, b"handle-rollback", &config).expect("connect");
    let a1 = h0.write(Value::from("a1"));
    let a2 = h0.write(Value::from("a2"));
    h0.wait(a1, wait).expect("completes");
    h0.wait(a2, wait).expect("completes");
    let b1 = h1.write(Value::from("b1"));
    h1.wait(b1, wait).expect("completes");
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");

    // While the server is down its log loses acknowledged records — the
    // rollback attack (or a disk that lied about fsync). Five of the six
    // records go, so an acknowledged *submit* (C0's a2) is among them:
    // losing only trailing commits would be legitimately invisible (a
    // COMMIT is a garbage-collection expedient, not an acknowledgement).
    let kept = truncate_tail_records(&dir, 5).expect("tamper with the log");
    assert!(kept > 0, "a rollback, not a wipe");

    let (addr, engine) = incarnation(&backend, n);
    h0.reconnect(Box::new(
        faust::net::tcp::connect(addr, c(0)).expect("redial"),
    ));
    h1.reconnect(Box::new(
        faust::net::tcp::connect(addr, c(1)).expect("redial"),
    ));
    // C0's next operation hits the rolled-back schedule: the wait
    // surfaces the violation, and the event stream carries it.
    let a3 = h0.write(Value::from("a3"));
    let err = h0.wait(a3, wait).expect_err("rollback must be detected");
    assert!(matches!(err, WaitError::Violation(_)), "got {err:?}");
    let events = h0.poll();
    assert!(
        events
            .iter()
            .any(|(_, e)| matches!(e, Event::Violation { .. })),
        "expected Event::Violation, got {events:?}"
    );
    assert!(h0.failure().is_some());
    // The engine winds down once both handles depart (h1 took no part
    // in phase 2, but its connection counts).
    h0.disconnect();
    h1.disconnect();
    engine.join().expect("engine thread");
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte-for-byte copy of a (flat) store directory.
fn copy_store(src: &std::path::Path, dst: &std::path::Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("readdir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy");
    }
}

/// The seeded generalisation of the test above: **random truncation
/// points**. Each iteration runs a pinned round-robin write schedule
/// (every wait observed, so each op's log position is known exactly),
/// then cuts the log back to just before a random client's SUBMIT of a
/// random round ≥ 2. The oracle is computed from the log and the cut
/// point alone. Strict recovery accepts the shortened log — a
/// boundary truncation is locally undetectable — so the recovered
/// history is the prefix below the cut. A reconnecting resilient
/// session *replays its latest COMMIT* (the resend window retains it
/// as the Algorithm 1 line 41 anchor), which re-anchors the client's
/// own history on the rolled-back server — so plain version regression
/// is no longer visible to a write; a tail rollback whose evidence was
/// entirely superseded heals silently (reads that could observe lost
/// data still detect, which `tests/crash_recovery.rs` and
/// `tests/chaos.rs` exercise against shared incarnations). What a
/// write still proves is a surviving-but-uncovered pending SUBMIT whose
/// signature cannot verify at the healed version's expected timestamp;
/// the oracle below predicts exactly those flags. Every other client
/// must stay clean: fail-aware detection is accurate, not just
/// complete.
///
/// The oracle reads the sequence numbers back from the log rather than
/// assuming a schedule: the waits pin each *client's* record order, but
/// a COMMIT can legitimately be overtaken by the next client's SUBMIT.
#[test]
fn random_truncation_points_recover_into_flagged_rollbacks() {
    let wait = Duration::from_secs(10);
    // 16 seeds cover all-clean, all-flagged and mixed verdicts.
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(0x5A_D0 ^ seed);
        let n = rng.gen_range_inclusive(2, 4) as usize;
        let rounds = rng.gen_range_inclusive(2, 3) as usize;
        let dir = testutil::scratch_dir(&format!("handle-truncation-prop-{seed}"));
        let backend = PersistentBackend::new(&dir, group_store());
        let config = restart_config();

        // Phase 1: `rounds` round-robin writes per client, strictly
        // sequential; each op logs its SUBMIT and then its COMMIT.
        let (addr, engine) = incarnation(&backend, n);
        let mut handles: Vec<FaustHandle> = (0..n)
            .map(|i| {
                FaustHandle::connect_tcp(addr, c(i as u32), n, b"handle-trunc-prop", &config)
                    .expect("connect")
            })
            .collect();
        for r in 0..rounds {
            for (i, h) in handles.iter_mut().enumerate() {
                let ticket = h.write(Value::from(vec![b'v', i as u8, r as u8]));
                let done = h.wait(ticket, wait).expect("phase-1 write completes");
                assert_eq!(done.timestamp, (r + 1) as u64, "seed {seed}");
            }
        }
        for h in &mut handles {
            h.disconnect();
        }
        engine.join().expect("engine thread");

        // Ground truth before tampering: every record's sequence number,
        // per client, alternating SUBMIT (even index) and COMMIT (odd).
        let mut logs: Vec<Vec<u64>> = vec![Vec::new(); n];
        for scanned in Wal::scan(&dir.join(WAL_FILE)).expect("scan log").records {
            let log = &mut logs[scanned.record.from().index()];
            let is_submit = matches!(scanned.record, LogRecord::Submit { .. });
            assert_eq!(is_submit, log.len().is_multiple_of(2), "seed {seed}");
            log.push(scanned.seq);
        }
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(log.len(), 2 * rounds, "seed {seed}, client {i}");
        }

        // The attack: cut the log back to just before client `m`'s
        // SUBMIT of round `r` (r >= 2), dropping it and everything
        // sequenced after it.
        let m = rng.gen_index(n);
        let r = rng.gen_range_inclusive(2, rounds as u64) as usize;
        let first_hole = logs[m][2 * (r - 1)];
        let total = (2 * n * rounds) as u64;
        let kept = truncate_tail_records(&dir, (total - first_hole) as usize)
            .expect("tamper with the log");
        assert_eq!(kept, first_hole as usize, "a rollback, not a wipe");

        // The oracle, from the logged sequence numbers and the cut
        // point. What the recovered server still holds, per client:
        // SUBMIT records sit at even indices of its log, COMMITs at odd
        // (one client's own stream is never reordered).
        let submits = |i: usize| logs[i].iter().copied().step_by(2);
        let commits = |i: usize| logs[i].iter().copied().skip(1).step_by(2);
        let effective: Vec<usize> = (0..n)
            .map(|i| submits(i).filter(|&s| s < first_hole).count())
            .collect();
        let eff_commits: Vec<usize> = (0..n)
            .map(|i| commits(i).filter(|&s| s < first_hole).count())
            .collect();
        // The version committed for client m's op r: entry i counts i's
        // SUBMITs processed up to m's r-th SUBMIT (its own included).
        // All versions along one schedule are totally ordered, so an
        // entry-wise comparison identifies the dominant one.
        let version_at = |m: usize, r: usize| -> Vec<usize> {
            let pivot = logs[m][2 * (r - 1)];
            (0..n)
                .map(|i| submits(i).filter(|&s| s <= pivot).count())
                .collect()
        };
        let dominates = |a: &[usize], b: &[usize]| a.iter().zip(b).all(|(x, y)| x >= y);
        // The dominant surviving commit version: recovery replays the
        // surviving COMMITs in log order and `on_commit` keeps the
        // greatest.
        let v_surviving = (0..n)
            .flat_map(|m| (1..=rounds).map(move |r| (m, r)))
            .filter(|&(m, r)| logs[m][2 * r - 1] < first_hole)
            .map(|(m, r)| version_at(m, r))
            .reduce(|a, b| if dominates(&b, &a) { b } else { a })
            .expect("a round-1 commit always survives");
        // Phase-2 oracle under resilient-session semantics: client j's
        // reconnect replays its final COMMIT, so the reply it folds
        // starts from the dominant of {best surviving version, j's own
        // final version} — plain version regression is re-anchored, not
        // flagged. What remains visible is a surviving-but-uncovered
        // pending SUBMIT (a COMMIT that fell past the cut while its
        // SUBMIT survived — possible exactly because a COMMIT may be
        // overtaken by the next client's SUBMIT): the fold checks each
        // pending tuple's SUBMIT-signature at the healed version's
        // expected timestamp, and a healed entry that moved past the
        // tuple's true timestamp cannot verify.
        //
        // Which pending tuples the reply folds depends on the replayed
        // COMMIT's pruning (Algorithm 2 lines 118–121): the replay
        // advances the schedule head only if j's final version is the
        // dominant one, and it prunes (j's covered tuple and everything
        // queued before it) only if the covered tuple is actually in L —
        // i.e. j's own uncovered SUBMIT is its *final* one. Otherwise
        // nothing is pruned, and j's own stale pending tuple — expected
        // at the healed `rounds + 1` but signed at its true timestamp —
        // always flags.
        let pend = |k: usize| effective[k] == eff_commits[k] + 1;
        // Log position of client k's surviving pending SUBMIT.
        let pend_seq = |k: usize| logs[k][2 * (effective[k] - 1)];
        let must_flag: Vec<bool> = (0..n)
            .map(|j| {
                let own = version_at(j, rounds);
                let own_dominant = dominates(&own, &v_surviving);
                assert!(
                    own_dominant || dominates(&v_surviving, &own),
                    "seed {seed}: schedule versions are totally ordered"
                );
                let heal = if own_dominant { &own } else { &v_surviving };
                let prunes = pend(j) && own_dominant && effective[j] == rounds;
                let own_folds = pend(j) && !prunes;
                let peer_folds =
                    |k: usize| pend(k) && (!prunes || pend_seq(k) > logs[j][2 * (rounds - 1)]);
                own_folds
                    || (0..n)
                        .filter(|&k| k != j)
                        .any(|k| peer_folds(k) && heal[k] != eff_commits[k])
            })
            .collect();

        // Freeze the tampered log: each client gets its verdict against
        // a pristine copy, so one client's post-rollback SUBMIT (logged,
        // replayed as pending, folded into candidates) cannot mask the
        // regression the next client would otherwise see.
        let copies: Vec<std::path::PathBuf> = (0..n)
            .map(|j| {
                let copy = dir.with_file_name(format!(
                    "{}-client{j}",
                    dir.file_name().unwrap().to_string_lossy()
                ));
                copy_store(&dir, &copy);
                copy
            })
            .collect();

        // Phase 2: each client reconnects to its own recovered
        // incarnation and writes once. Exactly the predicted clients
        // flag the rollback; the rest stay clean.
        for (j, h) in handles.iter_mut().enumerate() {
            let (addr, engine) = incarnation(&PersistentBackend::new(&copies[j], group_store()), n);
            // The transport serves exactly n client slots; fill the
            // others with idle connections so the engine can retire.
            let fillers: Vec<_> = (0..n)
                .filter(|&k| k != j)
                .map(|k| faust::net::tcp::connect(addr, c(k as u32)).expect("filler"))
                .collect();
            h.reconnect(Box::new(
                faust::net::tcp::connect(addr, c(j as u32)).expect("redial"),
            ));
            let ticket = h.write(Value::from(vec![b'p', j as u8]));
            if must_flag[j] {
                let err = h.wait(ticket, wait).expect_err("rollback must be detected");
                assert!(
                    matches!(err, WaitError::Violation(_)),
                    "seed {seed}, client {j}: got {err:?}"
                );
                assert!(
                    h.poll()
                        .iter()
                        .any(|(_, e)| matches!(e, Event::Violation { .. })),
                    "seed {seed}, client {j}: expected Event::Violation"
                );
                assert!(h.failure().is_some(), "seed {seed}, client {j}");
            } else {
                let done = h.wait(ticket, wait).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}, client {j}, cut before seq {first_hole}: detection \
                         must be accurate, but the clean client saw {e:?}"
                    )
                });
                // The session kept its own clock: the replayed COMMIT
                // re-anchored the server, and the write lands at the
                // client's true next timestamp, rolled-back tail or not.
                assert_eq!(done.timestamp, rounds as u64 + 1, "seed {seed}");
                assert!(h.failure().is_none(), "seed {seed}, client {j}");
            }
            h.disconnect();
            drop(fillers);
            engine.join().expect("engine thread");
            std::fs::remove_dir_all(&copies[j]).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
