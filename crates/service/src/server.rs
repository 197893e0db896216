//! The blocking HTTP server: accept loop + thread-per-connection handling.
//!
//! [`Server`] is deliberately small and embeddable: bind a [`Router`] to an
//! address, call [`Server::start`], and every accepted connection is served
//! on its own thread with keep-alive. Connection threads are bounded by
//! the read timeout (an idle keep-alive connection closes itself), and the
//! accept loop exits when the configured stop predicate turns true — the
//! app's `/shutdown` handler raises its flag and self-connects to wake the
//! loop.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::http::{read_request, ReadError, Response};
use crate::json::Json;
use crate::router::Router;

/// How long an idle keep-alive connection is held open.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

type StopPredicate = Arc<dyn Fn() -> bool + Send + Sync>;

/// Invoked once per response written — including framing-level `400`/`413`
/// rejections and router-level `404`/`405`s that never reach a handler —
/// so response counters can be complete.
pub type ResponseObserver = Arc<dyn Fn(&Response) + Send + Sync>;

/// A bound-but-not-yet-started HTTP server.
pub struct Server {
    listener: TcpListener,
    router: Arc<Router>,
    max_body: usize,
    stop: StopPredicate,
    observer: Option<ResponseObserver>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server({:?})", self.listener.local_addr())
    }
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) and prepares to serve
    /// `router`, rejecting request bodies beyond `max_body` bytes.
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(addr: &str, router: Router, max_body: usize) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            router: Arc::new(router),
            max_body,
            stop: Arc::new(|| false),
            observer: None,
        })
    }

    /// Installs a [`ResponseObserver`] called for every response written.
    pub fn observe(mut self, observer: impl Fn(&Response) + Send + Sync + 'static) -> Server {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Installs a stop predicate: the accept loop exits as soon as it
    /// observes `true` (it is checked once per accepted connection, so
    /// raisers should self-connect to force a prompt check).
    pub fn stop_when(mut self, stop: impl Fn() -> bool + Send + Sync + 'static) -> Server {
        self.stop = Arc::new(stop);
        self
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Starts the accept loop on a background thread.
    pub fn start(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("bound listener has an address");
        let active = Arc::new(AtomicUsize::new(0));
        let accept_active = Arc::clone(&active);
        let accept = std::thread::Builder::new()
            .name("stochsynth-accept".to_string())
            .spawn(move || {
                for stream in self.listener.incoming() {
                    if (self.stop)() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let router = Arc::clone(&self.router);
                    let observer = self.observer.clone();
                    let max_body = self.max_body;
                    spawn_counted(
                        &accept_active,
                        move || serve_connection(stream, &router, observer.as_ref(), max_body),
                        |body| {
                            std::thread::Builder::new()
                                .name("stochsynth-conn".to_string())
                                .spawn(body)
                                .map(drop)
                        },
                    );
                }
            })
            .expect("spawn accept thread");
        ServerHandle {
            addr,
            active,
            accept: Some(accept),
        }
    }
}

/// A thread body, as handed to a spawner.
type ThreadBody = Box<dyn FnOnce() + Send>;

/// Runs `serve` on a thread started by `spawn`, counted in `active` from
/// now until `serve` returns. The body owns the count's guard, so a failed
/// spawn, which drops the body unrun, gives the count back too.
fn spawn_counted(
    active: &Arc<AtomicUsize>,
    serve: impl FnOnce() + Send + 'static,
    spawn: impl FnOnce(ThreadBody) -> std::io::Result<()>,
) {
    active.fetch_add(1, Ordering::SeqCst);
    let guard = ActiveGuard(Arc::clone(active));
    let _ = spawn(Box::new(move || {
        let _guard = guard;
        serve();
    }));
}

/// One live connection thread in the server's `active` count, counted out
/// when dropped.
struct ActiveGuard(Arc<AtomicUsize>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running server.
pub struct ServerHandle {
    addr: SocketAddr,
    active: Arc<AtomicUsize>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandle({})", self.addr)
    }
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wakes the accept loop so it re-checks its stop predicate. Callers
    /// flip the predicate's state first (see
    /// [`ServiceHandle::shutdown`](crate::ServiceHandle::shutdown)).
    pub fn stop(&self) {
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    /// Joins the accept thread and waits briefly for in-flight connection
    /// threads to retire.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Connection threads are short-lived (bounded by the read timeout);
        // give responses in flight a moment to finish writing.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.active.load(Ordering::SeqCst) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Serves one connection: request → dispatch → response, looping for
/// keep-alive until the peer closes, errors, or asks to close.
fn serve_connection(
    stream: TcpStream,
    router: &Router,
    observer: Option<&ResponseObserver>,
    max_body: usize,
) {
    let Ok(peer) = stream.peer_addr() else { return };
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut send = |response: Response, close: bool| -> std::io::Result<()> {
        if let Some(observer) = observer {
            observer(&response);
        }
        response.write_to(&mut write_half, close)
    };
    let (status, error) = loop {
        match read_request(&mut reader, max_body) {
            Ok(request) => {
                let close = request.wants_close();
                let response = router.dispatch(&request, peer);
                if send(response, close).is_err() || close {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::TooLarge { limit }) => {
                break (413, format!("request body exceeds {limit} bytes"))
            }
            Err(ReadError::Malformed(message)) => {
                break (400, format!("malformed request: {message}"))
            }
        }
    };
    // A framing error echoes request bytes, so its body goes through the
    // JSON writer, which escapes them.
    let body = Json::object([("error", Json::str(error))]).render();
    let _ = send(Response::json(status, body), true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_connection_spawn_gives_its_count_back() {
        let active = Arc::new(AtomicUsize::new(0));
        spawn_counted(
            &active,
            || unreachable!("a failed spawn never runs its body"),
            |_| Err(std::io::Error::other("no threads left")),
        );
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_connection_is_counted_until_its_body_returns() {
        let active = Arc::new(AtomicUsize::new(0));
        let mut spawned = None;
        spawn_counted(
            &active,
            || {},
            |body| {
                spawned = Some(body);
                Ok(())
            },
        );
        assert_eq!(active.load(Ordering::SeqCst), 1);
        spawned.expect("the spawner got the body")();
        assert_eq!(active.load(Ordering::SeqCst), 0);
    }
}
