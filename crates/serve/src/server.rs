//! The TCP shell: newline-delimited JSON over a thread-per-connection
//! listener. All protocol logic lives in [`Service::handle`]; this module
//! only frames lines and manages connection threads.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use cumulon_core::error::CoreError;
use cumulon_core::Result;

use crate::service::{Service, ServiceConfig};

/// Accepted connections: a dup of each stream (so `stop` can half-close
/// the socket from outside) plus its handler thread.
type ConnList = Arc<Mutex<Vec<(TcpStream, std::thread::JoinHandle<()>)>>>;

/// A listening `cumulon serve` daemon.
///
/// Bind to port 0 to let the OS pick (tests do this), then hand clients
/// [`Server::addr`]. Each connection gets its own thread; a connection
/// may pipeline any number of request lines and receives responses in
/// order. [`Server::stop`] drains in-flight runs before returning, and
/// does not wait for idle clients: it half-closes every connection's
/// read side, so a client that holds its socket open cannot wedge the
/// shutdown (in-flight responses still flush on the write side).
pub struct Server {
    service: Arc<ServiceHolder>,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    conns: ConnList,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

/// Connections share the service, but `stop` must drain and retire it
/// exactly once; this holder lets `stop` take it out from under them
/// after every handler has quiesced. Handlers take the read side so
/// connections dispatch concurrently — [`Service::handle`] is internally
/// synchronized, and a fast-lane `plan`/`optimize` on one connection
/// must never serialize behind another connection's blocking `run`.
struct ServiceHolder {
    service: std::sync::RwLock<Option<Service>>,
}

impl ServiceHolder {
    fn handle(&self, line: &str) -> Option<String> {
        let guard = self.service.read().unwrap();
        guard.as_ref().map(|s| s.handle(line))
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn start(addr: &str, config: ServiceConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| CoreError::Invariant(format!("cannot bind {addr}: {e}")))?;
        let bound = listener
            .local_addr()
            .map_err(|e| CoreError::Invariant(format!("no local addr: {e}")))?;
        let service = Arc::new(ServiceHolder {
            service: std::sync::RwLock::new(Some(Service::start(config))),
        });
        let stopping = Arc::new(AtomicBool::new(false));
        let conns: ConnList = Arc::new(Mutex::new(Vec::new()));
        let accept_service = Arc::clone(&service);
        let accept_stop = Arc::clone(&stopping);
        let accept_conns = Arc::clone(&conns);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Replies are written whole and flushed; Nagle's algorithm
                // could only hold one back. Best effort: a socket that
                // refuses the option still serves, slower.
                let _ = stream.set_nodelay(true);
                let Ok(dup) = stream.try_clone() else {
                    continue;
                };
                let service = Arc::clone(&accept_service);
                let handler = std::thread::spawn(move || serve_connection(stream, &service));
                accept_conns.lock().unwrap().push((dup, handler));
            }
        });
        Ok(Server {
            service,
            addr: bound,
            stopping,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight runs, and joins every thread.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept loop with a no-op connection, and join
        // it first — after that no new handler can appear in `conns`.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Half-close every connection's read side. A handler idle in its
        // read wakes with EOF and exits; one mid-request finishes, flushes
        // its response over the still-open write side, then sees the EOF.
        // Without this, a client that keeps its socket open would wedge
        // the handler joins below.
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for (stream, _) in &conns {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, handler) in conns {
            let _ = handler.join();
        }
        if let Some(mut service) = self.service.service.write().unwrap().take() {
            service.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn serve_connection(stream: TcpStream, service: &ServiceHolder) {
    let Ok(peer_write) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(peer_write);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // A `None` here means the server is mid-stop; drop the
        // connection rather than answer from a dead service.
        let Some(response) = service.handle(&line) else {
            break;
        };
        if writer.write_all(response.as_bytes()).is_err() || writer.flush().is_err() {
            break;
        }
    }
}
