//! FAUST — the Fail-Aware Untrusted STorage service of Cachin, Keidar,
//! and Shraer (DSN 2009), layered on the USTOR protocol.
//!
//! A *fail-aware untrusted service* (Definition 5) extends a shared
//! functionality with timestamps on responses and two asynchronous
//! notifications:
//!
//! * `stable_i(W)` — a **stability cut**: all operations of client `C_i`
//!   with timestamps `≤ W[j]` are guaranteed to be in a common view with
//!   client `C_j`; operations stable w.r.t. *all* clients are
//!   linearizable.
//! * `fail_i` — **accurate failure detection**: emitted only when the
//!   server demonstrably violated its specification (forked views,
//!   tampered data, forged history).
//!
//! With a correct server the service is linearizable and wait-free;
//! causal consistency holds always; every inconsistency is eventually
//! either resolved into stability or detected as a failure
//! (completeness), using dummy reads through the server and PROBE /
//! VERSION / FAILURE messages on an offline client-to-client channel.
//!
//! * [`FaustClient`] — the sans-io protocol state machine.
//! * [`OfflineMsg`] — the signed offline messages.
//! * [`FaustHandle`] — the live client API: one [`SessionCore`] per
//!   client over a real transport, and the only threaded client runtime
//!   ([`threaded_faust`] runs a whole deployment of them).
//! * [`sim`] — deterministic whole-system simulation (clients + server +
//!   both channels, with fault plans and oracles), used by the tests,
//!   examples, and the experiment harness.
//! * [`runtime`] — spawns a server engine thread over any transport.
//!
//! # Example
//!
//! ```
//! use faust_core::{run_sim, FaustWorkloadOp, SimScenario};
//! use faust_types::{ClientId, Value};
//!
//! let workloads = vec![
//!     vec![FaustWorkloadOp::Write(Value::from("hello"))],
//!     vec![FaustWorkloadOp::Read(ClientId::new(0))],
//!     vec![],
//! ];
//! let report = run_sim(&SimScenario::new(0, workloads, 5_000));
//! assert!(report.failures.is_empty());
//! assert_eq!(report.completed_ops(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod events;
pub mod handle;
pub mod offline;
pub mod persist;
pub mod runtime;
pub mod sim;
pub mod threaded_faust;

pub use client::{Actions, FaustClient, FaustClientState, FaustConfig, UserOp};
pub use events::{FailReason, FaustCompletion, Notification, StabilityCut};
pub use handle::{
    offline_mesh, DisconnectCause, Event, FaustHandle, HandleConfig, HandleStats, OfflineLink,
    OpTicket, ReconnectPolicy, SessionCore, SessionOutput, SessionState, WaitError,
};
pub use offline::OfflineMsg;
pub use persist::{checkpoint_session, load_session, save_session};
pub use sim::{
    check_determinism, check_oracles, gen_scenario, investigate, random_faust_workloads,
    run_and_check, run_sim, Adversary, CrashSpec, FaultClause, FaultPlan, FaustWorkloadOp,
    ServerSpec, SimDurability, SimFailure, SimRunReport, SimScenario, WalTamper,
};
pub use threaded_faust::{
    run_faust_session, run_threaded_faust, run_threaded_faust_over, run_threaded_faust_tcp,
    FaustSession, ThreadedFaustConfig, ThreadedFaustReport,
};
