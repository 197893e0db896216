//! A small blocking HTTP client for the service's own protocol.
//!
//! [`Client`] is one connection per request (`connection: close`), JSON
//! bodies only. It serves `stochsynth-cli`, the integration tests and the
//! benchmark's closed loop. It does not pool: a keep-alive client lets the
//! benchmark's load generator complete more requests, and the generator
//! keeps a sample per request, so the process's peak memory would grow
//! with the generator's bookkeeping rather than with the daemons'.
//!
//! The fabric coordinator does keep persistent connections to its workers
//! (see `fabric.rs`). Both send through [`exchange`], which writes one
//! request and reads one `content-length`-framed reply with
//! [`http::read_response`], so the framing code lives in one place.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::{self, HttpReply, ReadError};

/// An open connection: the socket together with its read buffer. They
/// travel together, because the buffer may hold bytes the socket already
/// delivered.
pub(crate) type Connection = BufReader<TcpStream>;

/// Why an [`exchange`] failed.
#[derive(Debug)]
pub(crate) enum ExchangeError {
    /// No byte of a reply arrived: the send failed, or the peer closed the
    /// connection first. On a reused keep-alive connection that is a
    /// server which closed it while idle, and the request may be sent
    /// again on a new connection.
    NoReply(String),
    /// Anything else: a read timeout, or a reply that broke off or was
    /// malformed.
    Failed(String),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExchangeError::NoReply(message) | ExchangeError::Failed(message) => {
                f.write_str(message)
            }
        }
    }
}

/// Writes one rendered request on `conn` and reads one reply. A reply that
/// keeps the connection alive leaves `conn` positioned at the next reply.
///
/// # Errors
///
/// [`ExchangeError::NoReply`] when nothing of a reply arrived (a read
/// timeout excepted), [`ExchangeError::Failed`] otherwise.
pub(crate) fn exchange(conn: &mut Connection, request: &str) -> Result<HttpReply, ExchangeError> {
    if let Err(e) = conn.get_mut().write_all(request.as_bytes()) {
        return Err(ExchangeError::NoReply(format!("send failed: {e}")));
    }
    match conn.fill_buf() {
        Ok([]) => return Err(ExchangeError::NoReply("connection closed".to_string())),
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return Err(ExchangeError::Failed(format!("read failed: {e}"))),
        Err(e) => return Err(ExchangeError::NoReply(format!("read failed: {e}"))),
    }
    http::read_response(conn).map_err(|e| {
        ExchangeError::Failed(match e {
            ReadError::Malformed(m) => format!("malformed response: {m}"),
            ReadError::Io(e) => format!("read failed: {e}"),
            ReadError::Closed => "connection closed".to_string(),
            ReadError::TooLarge { limit } => format!("response exceeds {limit} bytes"),
        })
    })
}

/// `true` for the errors a socket read timeout surfaces as.
fn is_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A blocking JSON-over-HTTP client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addrs: Vec<SocketAddr>,
    timeout: Duration,
    connect_timeout: Duration,
}

impl Client {
    /// Creates a client for `addr` (anything resolvable, e.g.
    /// `"127.0.0.1:8080"`) with a 600-second I/O timeout — long enough for
    /// `wait: true` submissions of heavyweight jobs — and a 10-second
    /// connect timeout.
    ///
    /// Every resolved address is kept, and each connect tries them in
    /// resolution order until one answers: a name resolving to `[::1,
    /// 127.0.0.1]` still reaches a server listening only on IPv4, instead
    /// of failing on the first (IPv6) candidate as the old single-address
    /// client did.
    ///
    /// # Errors
    ///
    /// Returns a message when the address does not resolve.
    pub fn new(addr: impl ToSocketAddrs) -> Result<Client, String> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve server address: {e}"))?
            .collect();
        if addrs.is_empty() {
            return Err("server address resolved to nothing".to_string());
        }
        Ok(Client {
            addrs,
            timeout: Duration::from_secs(600),
            connect_timeout: Duration::from_secs(10),
        })
    }

    /// Overrides the per-request I/O timeout. Also tightens the connect
    /// timeout to at most this value, so a client configured for fast
    /// failure never spends longer connecting than it would reading.
    pub fn timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self.connect_timeout = self.connect_timeout.min(timeout);
        self
    }

    /// Overrides the per-address connect timeout.
    pub fn connect_timeout(mut self, timeout: Duration) -> Client {
        self.connect_timeout = timeout;
        self
    }

    /// The first server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Opens a connection with this client's I/O timeouts, trying each
    /// resolved address in order.
    pub(crate) fn connect(&self) -> Result<Connection, String> {
        let mut last_error = String::new();
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(self.timeout))
                        .map_err(|e| e.to_string())?;
                    stream
                        .set_write_timeout(Some(self.timeout))
                        .map_err(|e| e.to_string())?;
                    return Ok(BufReader::new(stream));
                }
                Err(e) => last_error = format!("cannot connect to {addr}: {e}"),
            }
        }
        Err(last_error)
    }

    /// Sends `GET path`.
    ///
    /// # Errors
    ///
    /// Returns a transport-level message; HTTP error statuses are returned
    /// as replies, not errors.
    pub fn get(&self, path: &str) -> Result<HttpReply, String> {
        self.request("GET", path, None)
    }

    /// Sends `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// See [`Client::get`].
    pub fn post(&self, path: &str, body: &str) -> Result<HttpReply, String> {
        self.request("POST", path, Some(body))
    }

    /// Sends `DELETE path`.
    ///
    /// # Errors
    ///
    /// See [`Client::get`].
    pub fn delete(&self, path: &str) -> Result<HttpReply, String> {
        self.request("DELETE", path, None)
    }

    /// Renders a request to this client's server. `close` asks the server
    /// to close the connection after its reply; without it the connection
    /// stays open for the next request.
    pub(crate) fn render(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_headers: &[(&str, &str)],
        close: bool,
    ) -> Result<String, String> {
        let body = body.unwrap_or("");
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n",
            self.addrs[0],
            body.len()
        );
        if close {
            request.push_str("connection: close\r\n");
        }
        for (name, value) in extra_headers {
            if name.contains(['\r', '\n']) || value.contains(['\r', '\n']) {
                return Err(format!("header `{name}` contains CR/LF"));
            }
            request.push_str(name);
            request.push_str(": ");
            request.push_str(value);
            request.push_str("\r\n");
        }
        request.push_str("\r\n");
        request.push_str(body);
        Ok(request)
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<HttpReply, String> {
        let request = self.render(method, path, body, &[], true)?;
        let mut conn = self.connect()?;
        exchange(&mut conn, &request).map_err(|e| e.to_string())
    }
}
