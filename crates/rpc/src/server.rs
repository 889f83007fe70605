//! TCP servers fronting an [`RpcService`].
//!
//! [`RpcServer`] — the shipped server — runs the epoll reactor from
//! [`crate::reactor`]: one event-loop thread multiplexing every
//! connection, a bounded worker pool executing dispatch, zero-copy frame
//! slicing and slow-reader backpressure. A connection's requests dispatch
//! in arrival order but a client may keep many in flight — responses carry
//! the request's correlation id, so the client needs no lockstep
//! (pipelining per §5.1's batching spirit: the wire stays full).
//!
//! [`BlockingServer`] is the old thread-per-connection design, kept as the
//! explicitly-labeled baseline the reactor bench compares against. Both
//! servers speak the identical wire protocol over the identical
//! [`Router`]; only the I/O model differs.
//!
//! The same server can expose both services; the shipped binaries run them
//! separately (`tell_sn` serves storage, `tell_cm` serves commit managers)
//! the way the paper separates SNs from the commit manager.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::Mutex;
use tell_commitmgr::CommitService;
use tell_common::{Error, Result};
use tell_obs::Counter;
use tell_store::StoreCluster;

use crate::reactor::Reactor;
pub use crate::reactor::ReactorConfig;
pub use crate::service::Services;
use crate::service::{dispatch_frame, Router, RpcService};
use crate::wire::{read_frame, write_frame};

/// A running tell-rpc server over the epoll reactor. Dropping it shuts it
/// down.
pub struct RpcServer {
    addr: SocketAddr,
    reactor: Reactor,
}

impl RpcServer {
    /// Bind `addr` and serve `services` with default reactor tuning. Pass
    /// port 0 to let the OS choose; the bound address is available from
    /// [`RpcServer::local_addr`].
    pub fn serve(addr: impl ToSocketAddrs, services: Services) -> Result<RpcServer> {
        RpcServer::serve_with(addr, services, ReactorConfig::default())
    }

    /// [`RpcServer::serve`] with explicit reactor tuning (worker count,
    /// write-buffer cap).
    pub fn serve_with(
        addr: impl ToSocketAddrs,
        services: Services,
        config: ReactorConfig,
    ) -> Result<RpcServer> {
        RpcServer::serve_service(addr, Arc::new(Router::new(services)), config)
    }

    /// Serve an arbitrary [`RpcService`] — the seam a custom deployment
    /// (or a test) plugs its own handler into.
    pub fn serve_service(
        addr: impl ToSocketAddrs,
        service: Arc<dyn RpcService>,
        config: ReactorConfig,
    ) -> Result<RpcServer> {
        // Any serving process keeps a telemetry history for
        // `Request::Telemetry` to page out.
        tell_obs::timeseries::ensure_wall_driver();
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Unavailable(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Unavailable(format!("no local address: {e}")))?;
        let reactor = Reactor::start(listener, service, config)?;
        Ok(RpcServer { addr, reactor })
    }

    /// Serve only storage requests.
    pub fn serve_store(addr: impl ToSocketAddrs, store: Arc<StoreCluster>) -> Result<RpcServer> {
        RpcServer::serve(addr, Services { store: Some(store), commit: None })
    }

    /// Serve only commit-manager requests.
    pub fn serve_commit(
        addr: impl ToSocketAddrs,
        commit: Arc<dyn CommitService>,
    ) -> Result<RpcServer> {
        RpcServer::serve(addr, Services { store: None, commit: Some(commit) })
    }

    /// The address the server accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request frames served so far, across all connections. A `Batch` of
    /// N operations counts as one frame, so comparing this against logical
    /// op counts measures what §5.1's batching saves.
    pub fn frames_served(&self) -> u64 {
        self.reactor.frames_served()
    }

    /// Stop the reactor, sever every open connection and join the event
    /// loop plus workers. Idempotent; called automatically on drop. The
    /// wakeup is the reactor's eventfd — no throwaway self-connection.
    pub fn shutdown(&mut self) {
        self.reactor.shutdown();
    }
}

// ---------------------------------------------------------------------------
// BlockingServer: the thread-per-connection baseline.

struct BlockingShared {
    service: Arc<dyn RpcService>,
    shutting_down: AtomicBool,
    frames: AtomicU64,
    /// Live connections keyed by peer address, so `shutdown` can sever
    /// them. Each handler removes its own entry when it exits; leaving
    /// dead clones here would hold the socket open (no FIN to the peer)
    /// and leak a descriptor per connection.
    conns: Mutex<HashMap<SocketAddr, TcpStream>>,
}

/// Thread-per-connection blocking server over the same [`Router`] and wire
/// protocol as [`RpcServer`]. This is the pre-reactor design, kept as the
/// measured baseline for `BENCH_rpc_reactor.json`: every connection costs
/// a thread and two blocking syscall round trips per request.
pub struct BlockingServer {
    addr: SocketAddr,
    shared: Arc<BlockingShared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl BlockingServer {
    /// Bind `addr` and serve `services`, one thread per connection.
    pub fn serve(addr: impl ToSocketAddrs, services: Services) -> Result<BlockingServer> {
        tell_obs::timeseries::ensure_wall_driver();
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Unavailable(format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Unavailable(format!("no local address: {e}")))?;
        let shared = Arc::new(BlockingShared {
            service: Arc::new(Router::new(services)),
            shutting_down: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name(format!("tell-rpc-blk-accept-{}", addr.port()))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| Error::Unavailable(format!("spawn failed: {e}")))?;
        Ok(BlockingServer { addr, shared, accept: Some(accept) })
    }

    /// The address the server accepts connections on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request frames served so far (same semantics as
    /// [`RpcServer::frames_served`]).
    pub fn frames_served(&self) -> u64 {
        self.shared.frames.load(Ordering::SeqCst)
    }

    /// Stop accepting, sever every open connection and join the accept
    /// loop. The blocking accept call has no eventfd to poke, so this
    /// keeps the legacy unblock: a throwaway self-connection.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for BlockingServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<BlockingShared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let Ok(peer) = stream.peer_addr() else { continue };
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(peer, clone);
        }
        let conn_shared = Arc::clone(&shared);
        let _ = thread::Builder::new()
            .name("tell-rpc-blk-conn".into())
            .spawn(move || handle_connection(stream, peer, conn_shared));
    }
}

fn handle_connection(stream: TcpStream, peer: SocketAddr, shared: Arc<BlockingShared>) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    // The writer is shared with the per-frame reply closure (which must be
    // `Send + 'static` per the `ReplySink` contract); dispatch here is
    // synchronous, so the closure always fires before the next read.
    let writer = Arc::new(Mutex::new(stream));
    let broken = Arc::new(AtomicBool::new(false));
    while let Ok(Some((corr_id, ctx, body))) = read_frame(&mut reader) {
        shared.frames.fetch_add(1, Ordering::SeqCst);
        tell_obs::incr(Counter::RpcServerFramesIn);
        tell_obs::add(Counter::RpcServerBytesIn, body.len() as u64);
        let injected = crate::fault::server_action();
        if injected == crate::fault::ServerFault::Drop {
            break;
        }
        if let crate::fault::ServerFault::DelayUs(us) = injected {
            thread::sleep(std::time::Duration::from_micros(us));
        }
        let duplicate = injected == crate::fault::ServerFault::Duplicate;
        let reply_writer = Arc::clone(&writer);
        let reply_broken = Arc::clone(&broken);
        dispatch_frame(
            shared.service.as_ref(),
            duplicate,
            Some(peer),
            ctx,
            &body,
            move |response| {
                let out = response.encode();
                tell_obs::incr(Counter::RpcServerFramesOut);
                tell_obs::add(Counter::RpcServerBytesOut, out.len() as u64);
                if write_frame(&mut *reply_writer.lock(), corr_id, ctx, &out).is_err() {
                    reply_broken.store(true, Ordering::SeqCst);
                }
            },
        );
        if broken.load(Ordering::SeqCst) {
            break;
        }
    }
    // Drop our registration and actively close: the clone held for
    // `shutdown` must not outlive the handler, or the peer never sees EOF.
    shared.conns.lock().remove(&peer);
    let _ = writer.lock().shutdown(std::net::Shutdown::Both);
}
