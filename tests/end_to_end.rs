//! Cross-crate integration tests: the complete FAUST stack against the
//! paper's scenarios and every adversary, with histories validated by the
//! consistency checkers.

use faust::baseline::{LsDriver, LsWorkloadOp};
use faust::consistency::{
    check_causal_consistency, check_fork_linearizability, check_linearizability,
    check_weak_fork_linearizability, Budget, Verdict,
};
use faust::core::{
    check_oracles, random_faust_workloads, run_sim, Adversary, FaustConfig, FaustWorkloadOp,
    Notification, ServerSpec, SimScenario,
};
use faust::sim::{DelayModel, SimConfig};
use faust::types::{ClientId, Value};
use faust::ustor::adversary::Tamper;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// Figure 2, mechanically: Alice receives exactly stable_Alice([10,8,3])
/// and — after Carlos reconnects — eventually stable_Alice([10,10,10]).
#[test]
fn figure_2_stability_cut() {
    const ALICE: ClientId = ClientId::new(0);
    const BOB: ClientId = ClientId::new(1);
    const CARLOS: ClientId = ClientId::new(2);

    let workloads = vec![
        vec![
            FaustWorkloadOp::Write(Value::from("alice rev 1")),
            FaustWorkloadOp::Write(Value::from("alice rev 2")),
            FaustWorkloadOp::Write(Value::from("alice rev 3")),
            FaustWorkloadOp::Pause(100),
            FaustWorkloadOp::Read(CARLOS),
            FaustWorkloadOp::Write(Value::from("alice rev 4")),
            FaustWorkloadOp::Write(Value::from("alice rev 5")),
            FaustWorkloadOp::Write(Value::from("alice rev 6")),
            FaustWorkloadOp::Write(Value::from("alice rev 7")),
            FaustWorkloadOp::Pause(150),
            FaustWorkloadOp::Read(BOB),
            FaustWorkloadOp::Write(Value::from("alice rev 8")),
        ],
        vec![FaustWorkloadOp::Pause(230), FaustWorkloadOp::Read(ALICE)],
        vec![
            FaustWorkloadOp::Pause(55),
            FaustWorkloadOp::Read(ALICE),
            FaustWorkloadOp::Disconnect(8_000),
        ],
    ];
    let result = run_sim(&SimScenario {
        faust: FaustConfig {
            probe_period: 2_000,
            dummy_reads: false,
            ..FaustConfig::default()
        },
        offline_delay: DelayModel::Fixed(20),
        ..SimScenario::new(2, workloads, 30_000)
    });
    assert!(result.failures.is_empty(), "{:?}", result.failures);

    let cuts: Vec<Vec<u64>> = result.notifications[ALICE.index()]
        .iter()
        .filter_map(|(_, n)| match n {
            Notification::Stable(cut) => Some(cut.w.clone()),
            _ => None,
        })
        .collect();
    assert!(
        cuts.contains(&vec![10, 8, 3]),
        "expected the Figure 2 cut [10,8,3] among {cuts:?}"
    );
    let last = cuts.last().expect("cuts were issued");
    assert!(
        last.iter().all(|&w| w >= 10),
        "eventual stability: {last:?}"
    );
    // Integrity (Definition 5 property 4): Alice's timestamps increase.
    let stamps: Vec<u64> = result
        .completions(ALICE)
        .iter()
        .map(|done| done.timestamp)
        .collect();
    assert_eq!(stamps, (1..=10).collect::<Vec<u64>>());
}

/// The full FAUST stack on a correct server: linearizable, wait-free, no
/// false accusations, histories pass every checker.
#[test]
fn faust_correct_server_properties() {
    let budget = Budget::default();
    for seed in 0..5 {
        let result = run_sim(&SimScenario {
            link_delay: DelayModel::Uniform(1, 10),
            offline_delay: DelayModel::Uniform(20, 60),
            ..SimScenario::new(seed, random_faust_workloads(3, 5, 0.5, seed), 20_000)
        });
        assert!(result.failures.is_empty(), "seed {seed}");
        let incomplete = result
            .history
            .ops()
            .iter()
            .filter(|o| !o.is_complete())
            .count();
        assert_eq!(incomplete, 0, "wait-freedom, seed {seed}");
        assert_eq!(
            check_linearizability(&result.history, &budget),
            Verdict::Satisfied,
            "seed {seed}"
        );
    }
}

/// Every adversary type ends in either detection or, for pure liveness
/// attacks, silence — never a false accusation and never an undetected
/// *consistency* violation. Every run also passes the simulator's
/// oracles: views stay weakly fork-linearizable and the exported history
/// decodes and audits under every adversary.
#[test]
fn adversary_matrix() {
    let byzantine = ServerSpec::Byzantine;
    let cases = [
        (
            byzantine(Adversary::SplitBrain {
                groups: vec![vec![c(0)], vec![c(1), c(2)]],
                fork_after: 0,
            }),
            true,
            "split-brain",
        ),
        (
            byzantine(Adversary::Fig3 {
                writer: c(0),
                reader: c(1),
            }),
            true,
            "fig3",
        ),
        (
            byzantine(Adversary::Tamper {
                victim: c(1),
                after_submits: 1,
                kind: Tamper::CorruptCommitSig,
            }),
            true,
            "corrupt-commit-sig",
        ),
        (
            byzantine(Adversary::Tamper {
                victim: c(1),
                after_submits: 2,
                kind: Tamper::RegressToInitialVersion,
            }),
            true,
            "regress-version",
        ),
        (
            byzantine(Adversary::Mute { after: 4 }),
            false,
            "mute-server",
        ),
        (ServerSpec::Volatile, false, "correct"),
    ];
    for (server, expect_detection, name) in cases {
        let workloads = (0..3u32)
            .map(|i| {
                vec![
                    FaustWorkloadOp::Write(Value::unique(i, 1)),
                    FaustWorkloadOp::Pause(30 * (i as u64 + 1)),
                    FaustWorkloadOp::Read(c((i + 1) % 3)),
                    FaustWorkloadOp::Write(Value::unique(i, 2)),
                ]
            })
            .collect();
        let scenario = SimScenario {
            server,
            ..SimScenario::new(0, workloads, 30_000)
        };
        let result = run_sim(&scenario);
        if let Err(violation) = check_oracles(&scenario, &result) {
            panic!("{name}: {violation}");
        }
        if expect_detection {
            // Detection by one client reaches every client.
            assert_eq!(
                result.failures.len(),
                3,
                "{name}: expected every client to detect, got {:?}",
                result.failures
            );
        } else {
            assert!(
                result.failures.is_empty(),
                "{name}: false accusation {:?}",
                result.failures
            );
        }
    }
}

/// The lock-step baseline produces linearizable (hence fork-linearizable)
/// histories when the server is correct.
#[test]
fn lockstep_histories_linearizable() {
    let budget = Budget::default();
    for seed in 0..5 {
        let mut d = LsDriver::new(
            3,
            SimConfig {
                seed,
                link_delay: DelayModel::Uniform(1, 10),
                offline_delay: DelayModel::Fixed(50),
            },
            b"ls-lin",
        );
        for i in 0..3u32 {
            for s in 0..4u64 {
                if s % 2 == 0 {
                    d.push_op(c(i), LsWorkloadOp::Write(Value::unique(i, s)));
                } else {
                    d.push_op(c(i), LsWorkloadOp::Read(c((i + 1) % 3)));
                }
            }
        }
        let r = d.run();
        assert!(r.faults.is_empty());
        assert_eq!(r.incomplete_ops, 0);
        assert_eq!(
            check_linearizability(&r.history, &budget),
            Verdict::Satisfied,
            "seed {seed}"
        );
        assert_eq!(
            check_fork_linearizability(&r.history, &budget),
            Verdict::Satisfied,
            "seed {seed}"
        );
    }
}

/// Histories under the forking adversaries satisfy exactly the paper's
/// guaranteed notions: causal consistency and weak fork-linearizability.
#[test]
fn forked_faust_histories_meet_the_guarantees() {
    let budget = Budget::default();
    let workloads = (0..4u32)
        .map(|i| {
            vec![
                FaustWorkloadOp::Write(Value::unique(i, 1)),
                FaustWorkloadOp::Pause(20),
                FaustWorkloadOp::Read(c((i + 1) % 4)),
            ]
        })
        .collect();
    let result = run_sim(&SimScenario {
        server: ServerSpec::Byzantine(Adversary::SplitBrain {
            groups: vec![vec![c(0), c(1)], vec![c(2), c(3)]],
            fork_after: 2,
        }),
        faust: FaustConfig {
            // Long probe period: the user ops complete before
            // detection halts the clients.
            probe_period: 5_000,
            dummy_reads: false,
            ..FaustConfig::default()
        },
        ..SimScenario::new(0, workloads, 2_000)
    });
    assert_eq!(
        check_causal_consistency(&result.history, &budget),
        Verdict::Satisfied,
        "causality holds under forks: {:?}",
        result.history
    );
    let weak = check_weak_fork_linearizability(&result.history, &budget);
    assert!(
        weak == Verdict::Satisfied || matches!(weak, Verdict::Unknown(_)),
        "weak fork-linearizability: {weak:?}"
    );
}

/// FAUST on top of piggybacked commits (Section 5 optimization): same
/// guarantees, one message fewer per operation.
#[test]
fn faust_with_piggybacked_commits() {
    let budget = Budget::default();
    let result = run_sim(&SimScenario {
        faust: FaustConfig {
            commit_mode: faust::ustor::CommitMode::Piggyback,
            ..FaustConfig::default()
        },
        ..SimScenario::new(0, random_faust_workloads(3, 5, 0.5, 9), 10_000)
    });
    assert!(result.failures.is_empty(), "{:?}", result.failures);
    let incomplete = result
        .history
        .ops()
        .iter()
        .filter(|o| !o.is_complete())
        .count();
    assert_eq!(incomplete, 0);
    assert_eq!(
        check_linearizability(&result.history, &budget),
        Verdict::Satisfied
    );
    // Stability still works without separate commits: dummy reads carry
    // the piggybacked commits to the server.
    for i in 0..3u32 {
        let cut = result.last_cut(c(i)).expect("stability advanced");
        assert!(cut.w.iter().any(|&w| w > 0), "client {i}: {cut:?}");
    }
}

/// A fork is still detected when commits are piggybacked.
#[test]
fn piggybacked_faust_still_detects_forks() {
    let workloads = vec![
        vec![FaustWorkloadOp::Write(Value::from("a"))],
        vec![FaustWorkloadOp::Write(Value::from("b"))],
    ];
    let result = run_sim(&SimScenario {
        server: ServerSpec::Byzantine(Adversary::SplitBrain {
            groups: vec![vec![c(0)], vec![c(1)]],
            fork_after: 0,
        }),
        faust: FaustConfig {
            commit_mode: faust::ustor::CommitMode::Piggyback,
            ..FaustConfig::default()
        },
        ..SimScenario::new(0, workloads, 20_000)
    });
    assert_eq!(result.failures.len(), 2, "{:?}", result.failures);
}
