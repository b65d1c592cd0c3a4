//! E5/E7/E8 companion: wall-clock cost of whole simulated executions —
//! USTOR vs. the lock-step baseline, and a full FAUST run with detection.
//! The *virtual-time* series these scenarios produce are printed by the
//! `experiments` binary; these benches measure the harness itself.

use faust_baseline::{LsDriver, LsWorkloadOp};
use faust_bench::timing::{bench, section};
use faust_core::{run_sim, Adversary, FaustWorkloadOp, ServerSpec, SimScenario};
use faust_sim::SimConfig;
use faust_types::{ClientId, Value};
use faust_ustor::{Driver, UstorServer, WorkloadOp};
use std::hint::black_box;

fn c(i: u32) -> ClientId {
    ClientId::new(i)
}

fn main() {
    section("simulated USTOR runs (10 writes per client)");
    for n in [4usize, 16] {
        bench(&format!("sim_ustor_run/n{n}"), || {
            let mut d = Driver::new(
                n,
                Box::new(UstorServer::new(n)),
                SimConfig::default(),
                b"bench",
            );
            for i in 0..n {
                for s in 0..10u64 {
                    d.push_op(c(i as u32), WorkloadOp::Write(Value::unique(i as u32, s)));
                }
            }
            black_box(d.run());
        });
    }

    section("simulated lock-step baseline runs");
    for n in [4usize, 16] {
        bench(&format!("sim_lockstep_run/n{n}"), || {
            let mut d = LsDriver::new(n, SimConfig::default(), b"bench");
            for i in 0..n {
                for s in 0..10u64 {
                    d.push_op(c(i as u32), LsWorkloadOp::Write(Value::unique(i as u32, s)));
                }
            }
            black_box(d.run());
        });
    }

    section("full FAUST fork-detection run");
    bench("sim_faust_fork_detection", || {
        let workloads = (0..4)
            .map(|i| vec![FaustWorkloadOp::Write(Value::unique(i, 0))])
            .collect();
        black_box(run_sim(&SimScenario {
            server: ServerSpec::Byzantine(Adversary::SplitBrain {
                groups: vec![vec![c(0), c(1)], vec![c(2), c(3)]],
                fork_after: 0,
            }),
            ..SimScenario::new(0, workloads, 5_000)
        }));
    });
}
