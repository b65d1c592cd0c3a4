//! Failure-notification gossip: once any client has proof of server
//! misbehaviour, *every* correct client eventually halts — even clients
//! the detector never talks to again, and even when the detector crashes
//! immediately after broadcasting (the offline channel is reliable).

use faust_core::{
    random_faust_workloads, run_sim, Adversary, FaustConfig, FaustWorkloadOp, ServerSpec,
    SimScenario,
};
use faust_sim::DelayModel;
use faust_types::{ClientId, Value};
use faust_ustor::adversary::Tamper;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

/// A tampered reply to one victim propagates `fail` to all five clients.
#[test]
fn one_detection_halts_everyone() {
    let n = 5;
    let workloads = (0..n as u32)
        .map(|i| {
            vec![
                FaustWorkloadOp::Write(Value::unique(i, 1)),
                FaustWorkloadOp::Pause(40),
                FaustWorkloadOp::Write(Value::unique(i, 2)),
            ]
        })
        .collect();
    let result = run_sim(&SimScenario {
        server: ServerSpec::Byzantine(Adversary::Tamper {
            victim: c(2),
            after_submits: 3,
            kind: Tamper::CorruptCommitSig,
        }),
        ..SimScenario::new(0, workloads, 30_000)
    });
    assert_eq!(
        result.failures.len(),
        n,
        "every client must learn of the failure: {:?}",
        result.failures
    );
    // The victim detects first; the others follow via FAILURE messages.
    let victim_time = result.failure_time(c(2)).expect("victim detected");
    for i in 0..n as u32 {
        let t = result.failure_time(c(i)).expect("all detected");
        assert!(t >= victim_time, "C{i} cannot detect before the victim");
    }
}

/// The detector crashes right after broadcasting FAILURE; the broadcast
/// still reaches everyone (reliable offline channel).
#[test]
fn detector_crash_does_not_lose_the_alarm() {
    // C0 triggers the tamper with its second op, then crashes. The crash
    // lands after detection (the FAILURE messages are already in flight)
    // but long before delivery (offline delay 40).
    let workloads = vec![
        vec![
            FaustWorkloadOp::Write(Value::unique(0, 1)),
            FaustWorkloadOp::Write(Value::unique(0, 2)),
            FaustWorkloadOp::Crash,
        ],
        vec![FaustWorkloadOp::Write(Value::unique(1, 1))],
        vec![FaustWorkloadOp::Write(Value::unique(2, 1))],
    ];
    let result = run_sim(&SimScenario {
        server: ServerSpec::Byzantine(Adversary::Tamper {
            victim: c(0),
            after_submits: 1,
            kind: Tamper::CorruptCommitSig,
        }),
        link_delay: DelayModel::Fixed(2),
        offline_delay: DelayModel::Fixed(40),
        ..SimScenario::new(4, workloads, 30_000)
    });
    // C0 detected (and is now crashed); C1 and C2 must still have been
    // alerted by the in-flight broadcast.
    assert!(
        result.failure_time(c(1)).is_some() && result.failure_time(c(2)).is_some(),
        "in-flight FAILURE messages must survive the detector's crash: {:?}",
        result.failures
    );
}

/// Failure notifications never fire spuriously even with aggressive
/// probing and tiny tick periods (accuracy under stress).
#[test]
fn aggressive_probing_stays_accurate() {
    let n = 4;
    let result = run_sim(&SimScenario {
        tick_period: 5,
        faust: FaustConfig {
            probe_period: 10, // probe constantly
            ..FaustConfig::default()
        },
        link_delay: DelayModel::Uniform(1, 30),
        offline_delay: DelayModel::Uniform(1, 10),
        ..SimScenario::new(9, random_faust_workloads(n, 6, 0.5, 13), 5_000)
    });
    assert!(result.failures.is_empty(), "{:?}", result.failures);
}
