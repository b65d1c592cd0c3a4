//! Server engine threads: the transport-agnostic [`ServerEngine`] of
//! `faust-ustor` running [`serve`] on its own OS thread over any
//! [`faust_net`] transport (in-process channels, loopback or real TCP).
//!
//! The client side of a threaded deployment is [`crate::FaustHandle`]
//! (one per client, see [`crate::threaded_faust`] for a whole
//! deployment); the thread returned here joins with the engine's final
//! statistics once every client has disconnected.

use faust_ustor::{serve, Server, ServerEngine};

/// Spawns a server engine thread serving `server` over `transport`.
pub fn spawn_engine<T>(
    n: usize,
    server: Box<dyn Server + Send>,
    transport: T,
) -> std::thread::JoinHandle<faust_ustor::EngineStats>
where
    T: faust_net::ServerTransport + Send + 'static,
{
    spawn_engine_with(ServerEngine::new(n, server), transport)
}

/// [`spawn_engine`] for a pre-configured engine (e.g. with ingress
/// verification enabled).
pub fn spawn_engine_with<T>(
    mut engine: ServerEngine,
    mut transport: T,
) -> std::thread::JoinHandle<faust_ustor::EngineStats>
where
    T: faust_net::ServerTransport + Send + 'static,
{
    std::thread::spawn(move || {
        serve(&mut engine, &mut transport);
        engine.stats().clone()
    })
}
