//! Minimal HTTP/1.1 message framing over blocking byte streams.
//!
//! This is deliberately not a general web server: it implements exactly the
//! subset the service needs — request and reply parsing from any
//! [`BufRead`], `Content-Length`-framed bodies, keep-alive connections and
//! response serialisation — with no dependencies. Both directions share one
//! header reader, so the server and the client frame messages the same way:
//! a parse consumes exactly one message and nothing past its body, which is
//! what lets a keep-alive connection carry the next one. Chunked transfer
//! encoding, multipart bodies and TLS are out of scope; callers that need
//! them terminate HTTP in front of the service.

use std::io::{BufRead, Read, Write};

use crate::json::{self, Json};

/// The HTTP methods the service routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

impl Method {
    /// Parses a request-line method token.
    pub fn parse(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// The canonical token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The request path, without query string.
    pub path: String,
    /// The raw query string (text after `?`), if any.
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names are lower-cased at parse time.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// Looks a header up by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Returns `true` when the client asked for the connection to close.
    pub fn wants_close(&self) -> bool {
        says_close(&self.headers)
    }
}

/// Looks a header up by (case-insensitive) name among parsed headers.
fn find_header<'a>(headers: &'a Headers, name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// `true` when the headers say the connection closes after this message.
fn says_close(headers: &Headers) -> bool {
    find_header(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// Why reading a request or a reply failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection cleanly before a message started.
    Closed,
    /// The bytes on the wire were not a well-formed HTTP/1.1 message.
    Malformed(String),
    /// The declared body length exceeds the configured limit.
    TooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// An underlying socket error (including read timeouts).
    Io(std::io::Error),
}

/// Reads one request, consuming nothing past the end of its body.
///
/// # Errors
///
/// [`ReadError::Closed`] on clean EOF before any request bytes,
/// [`ReadError::Malformed`] on framing errors, [`ReadError::TooLarge`] when
/// the declared `Content-Length` exceeds `max_body`, and [`ReadError::Io`]
/// for socket failures.
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, ReadError> {
    let request_line = read_line(reader)?;
    if request_line.is_empty() {
        return Err(ReadError::Closed);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| ReadError::Malformed(format!("unsupported method in `{request_line}`")))?;
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".to_string()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".to_string()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };
    let (headers, declared_length) = read_headers(reader)?;
    let content_length = declared_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::TooLarge { limit: max_body });
    }
    let body = read_body(reader, content_length, "request")?;
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// One received HTTP response.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl HttpReply {
    /// Looks a header up by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Parses the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns the JSON parser's message.
    pub fn json(&self) -> Result<Json, String> {
        json::parse(&self.body)
    }

    /// `true` for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// `true` unless the server said it closes the connection after this
    /// reply.
    pub fn keeps_alive(&self) -> bool {
        !says_close(&self.headers)
    }
}

/// Reads one reply, consuming nothing past the end of its body. Every
/// reply must carry a `Content-Length`: reading an unframed body to EOF
/// would block a keep-alive connection for its whole I/O timeout.
///
/// # Errors
///
/// [`ReadError::Closed`] on clean EOF before any reply bytes,
/// [`ReadError::Malformed`] on framing errors (a missing `Content-Length`
/// included) and [`ReadError::Io`] for socket failures, a body cut short
/// included.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<HttpReply, ReadError> {
    let status_line = read_line(reader)?;
    if status_line.is_empty() {
        return Err(ReadError::Closed);
    }
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next().map(str::parse::<u16>)) {
        (Some(version), Some(Ok(status))) if version.starts_with("HTTP/1.") => status,
        _ => {
            return Err(ReadError::Malformed(format!(
                "malformed status line `{status_line}`"
            )))
        }
    };
    let (headers, declared_length) = read_headers(reader)?;
    let length = declared_length.ok_or_else(|| {
        ReadError::Malformed("response has no content-length; refusing to read to EOF".to_string())
    })?;
    let body = read_body(reader, length, "response")?;
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

/// Header `(name, value)` pairs, names lower-cased.
type Headers = Vec<(String, String)>;

/// Reads a header section up to its blank line: the headers and the
/// declared `Content-Length`, if any.
fn read_headers<R: BufRead>(reader: &mut R) -> Result<(Headers, Option<usize>), ReadError> {
    let mut headers = Vec::new();
    let mut declared_length: Option<usize> = None;
    loop {
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::Malformed(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok((headers, declared_length));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("malformed header `{line}`")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            let parsed: usize = value
                .parse()
                .map_err(|_| ReadError::Malformed(format!("bad content-length `{value}`")))?;
            // Duplicate `Content-Length` headers with different values are
            // the classic request-smuggling vector: a front proxy and this
            // server disagreeing on which one wins desynchronises the
            // connection. RFC 7230 §3.3.2 lets identical repeats collapse;
            // anything else is rejected, never silently last-write-wins.
            match declared_length {
                Some(previous) if previous != parsed => {
                    return Err(ReadError::Malformed(format!(
                        "conflicting content-length headers ({previous} vs {parsed})"
                    )));
                }
                _ => declared_length = Some(parsed),
            }
        }
        headers.push((name, value));
    }
}

/// Bodies are read into a buffer that grows with the bytes that arrive,
/// from at most this much up front, so a hostile `Content-Length` costs no
/// more memory than the bytes actually sent.
const BODY_PREALLOCATION: usize = 64 * 1024;

/// Reads exactly `length` body bytes as UTF-8 text.
fn read_body<R: BufRead>(reader: &mut R, length: usize, what: &str) -> Result<String, ReadError> {
    let mut body = Vec::with_capacity(length.min(BODY_PREALLOCATION));
    reader
        .take(length as u64)
        .read_to_end(&mut body)
        .map_err(ReadError::Io)?;
    if body.len() < length {
        return Err(ReadError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("{what} body ended after {} of {length} bytes", body.len()),
        )));
    }
    String::from_utf8(body).map_err(|_| ReadError::Malformed(format!("{what} body is not UTF-8")))
}

/// Request/header lines past 8 KiB are hostile input, not HTTP.
const MAX_LINE_BYTES: usize = 8192;

/// A header section with more entries than this is hostile input.
const MAX_HEADERS: usize = 128;

/// Reads one CRLF-terminated line, enforcing [`MAX_LINE_BYTES`] *while*
/// reading — an attacker streaming an endless unterminated line is cut off
/// at the cap instead of growing a buffer without bound. Replies are read
/// the same way, against hostile *servers*.
fn read_line<R: BufRead>(reader: &mut R) -> Result<String, ReadError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buffer = reader.fill_buf().map_err(ReadError::Io)?;
        if buffer.is_empty() {
            break; // EOF: return whatever arrived (empty = clean close).
        }
        let newline = buffer.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buffer.len(), |i| i + 1);
        if line.len() + take > MAX_LINE_BYTES {
            return Err(ReadError::Malformed("header line too long".to_string()));
        }
        line.extend_from_slice(&buffer[..take]);
        reader.consume(take);
        if newline.is_some() {
            break;
        }
    }
    while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
        line.pop();
    }
    String::from_utf8(line)
        .map_err(|_| ReadError::Malformed("header line is not UTF-8".to_string()))
}

/// One HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Extra header `(name, value)` pairs beyond the framing headers.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// Builds a JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Builds a plain-text response with the given status (used by the
    /// Prometheus-style `/metrics?format=text` exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![(
                "content-type".to_string(),
                "text/plain; charset=utf-8".to_string(),
            )],
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Looks a response header up by (case-insensitive) name.
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises the response onto `stream`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to<W: Write>(&self, stream: &mut W, close: bool) -> std::io::Result<()> {
        // `application/json` is the protocol default; a response that set
        // its own `content-type` header (the text metrics exposition)
        // overrides it instead of sending two.
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\n",
            self.status,
            status_text(self.status),
            self.body.len()
        );
        if self.header_value("content-type").is_none() {
            out.push_str("content-type: application/json\r\n");
        }
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str(if close {
            "connection: close\r\n\r\n"
        } else {
            "connection: keep-alive\r\n\r\n"
        });
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())?;
        stream.flush()
    }
}

/// The reason phrase for the status codes the service emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips one request/response pair over a real socket.
    fn exchange(raw_request: &str, max_body: usize) -> Result<Request, ReadError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw_request.to_string();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // Ignore write errors: the server may cut hostile input off
            // before the client finishes sending.
            let _ = stream.write_all(raw.as_bytes());
            let _ = stream.flush();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let result = read_request(&mut reader, max_body);
        client.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let request = exchange(
            "POST /simulate?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            1024,
        )
        .unwrap();
        assert_eq!(request.method, Method::Post);
        assert_eq!(request.path, "/simulate");
        assert_eq!(request.query.as_deref(), Some("wait=1"));
        assert_eq!(request.body, "{\"a\":1}");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert!(!request.wants_close());
    }

    #[test]
    fn rejects_oversized_bodies() {
        let err = exchange("POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 10).unwrap_err();
        assert!(matches!(err, ReadError::TooLarge { limit: 10 }));
    }

    #[test]
    fn unterminated_lines_are_cut_off_at_the_cap() {
        // 64 KiB with no newline: rejected once the cap is hit, not
        // buffered indefinitely.
        let flood = "G".repeat(64 * 1024);
        let err = exchange(&flood, 1024).unwrap_err();
        assert!(matches!(err, ReadError::Malformed(m) if m.contains("too long")));
    }

    #[test]
    fn rejects_unbounded_header_sections() {
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..200 {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = exchange(&raw, 1024).unwrap_err();
        assert!(matches!(err, ReadError::Malformed(m) if m.contains("headers")));
    }

    #[test]
    fn rejects_conflicting_duplicate_content_lengths() {
        // Smuggling hygiene: two different lengths must kill the request…
        let err = exchange(
            "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 4\r\n\r\n{\"a\":1}",
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, ReadError::Malformed(m) if m.contains("conflicting")));
        // …while identical repeats collapse per RFC 7230 §3.3.2.
        let request = exchange(
            "POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
            1024,
        )
        .unwrap();
        assert_eq!(request.body, "{\"a\":1}");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            exchange("NOPE /x HTTP/1.1\r\n\r\n", 10).unwrap_err(),
            ReadError::Malformed(_)
        ));
        assert!(matches!(
            exchange("GET /x SPDY/9\r\n\r\n", 10).unwrap_err(),
            ReadError::Malformed(_)
        ));
    }

    #[test]
    fn response_serialises_with_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::json(200, "{\"ok\":true}")
                .header("cache", "hit")
                .write_to(&mut stream, true)
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("cache: hit\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("content-type: application/json\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn explicit_content_type_overrides_the_json_default() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            Response::text(200, "a 1\n")
                .write_to(&mut stream, true)
                .unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        server.join().unwrap();
        assert!(text.contains("content-type: text/plain; charset=utf-8\r\n"));
        assert!(!text.contains("application/json"), "{text}");
        assert!(text.ends_with("a 1\n"));
    }
}
