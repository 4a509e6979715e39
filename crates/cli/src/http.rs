//! A deliberately minimal HTTP/1.1 layer for `aarc serve`, hand-rolled
//! over `std::net` — the offline build environment has no HTTP crates, and
//! the daemon's JSON API needs nothing beyond request lines, a
//! `Content-Length` body and `Connection: close` responses.
//!
//! Supported subset:
//!
//! * request line `METHOD SP PATH SP HTTP/1.x`, headers terminated by an
//!   empty line, optional body sized by `Content-Length` (chunked bodies
//!   are rejected with `411 Length Required` semantics at the call site);
//! * request headers are captured (lower-cased names) so the router can
//!   read `X-Api-Key` for tenant resolution;
//! * responses are always `Connection: close`: one request per
//!   connection, which every HTTP client (curl included) handles and
//!   which keeps the daemon free of keep-alive bookkeeping; responses may
//!   carry extra headers (`Retry-After`, `Deprecation`, ...). A body is
//!   sized by `Content-Length`, or close-delimited when the daemon streams
//!   it (`/metrics`) — the client then reads it to EOF;
//! * hard caps on header block (16 KiB) and body (8 MiB) so a misbehaving
//!   client cannot balloon daemon memory.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Largest accepted header block, bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body, bytes (scenario specs are a few KiB).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Request path with the query string stripped.
    pub path: String,
    /// Raw query string (without the `?`); empty when the target has none.
    pub query: String,
    /// Request headers as `(lowercase-name, trimmed-value)` pairs, in
    /// arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up a query parameter by name in `key=value&...` form.
    /// Returns the raw value (no percent-decoding — the API's parameters
    /// are plain integers); a bare `key` without `=` yields `""`.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            (key == name).then_some(value)
        })
    }

    /// Looks up a request header by name (case-insensitive). Returns the
    /// first occurrence's trimmed value.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A malformed or oversized request, reported to the client as 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Reads one request from `stream`. Returns `Ok(None)` when the peer
/// closed the connection before sending anything (a clean disconnect, not
/// an error).
///
/// # Errors
///
/// Returns [`BadRequest`] for malformed request lines, truncated bodies
/// and requests exceeding the header/body caps; I/O errors surface as
/// `BadRequest` too (the connection is torn down either way).
pub fn read_request(stream: &mut TcpStream) -> Result<Option<Request>, BadRequest> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Read until the blank line terminating the header block.
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(BadRequest("header block exceeds 16 KiB".into()));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| BadRequest(format!("read failed: {e}")))?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(BadRequest("connection closed mid-header".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let header_text = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| BadRequest("header block is not valid utf-8".into()))?;
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| BadRequest("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| BadRequest("request line has no path".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| BadRequest("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(BadRequest(format!("unsupported protocol `{version}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_owned(), query.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: usize = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_owned();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| BadRequest(format!("bad content-length `{value}`")))?;
        } else if name == "transfer-encoding" {
            return Err(BadRequest(
                "chunked transfer encoding is not supported; send Content-Length".into(),
            ));
        }
        headers.push((name, value));
    }
    if content_length > MAX_BODY_BYTES {
        return Err(BadRequest("body exceeds 8 MiB".into()));
    }

    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| BadRequest(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(BadRequest("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One HTTP response, written with `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (`Retry-After`, `Deprecation`, ...) as
    /// `(name, value)` pairs, emitted after `Content-Type`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body,
        }
    }

    /// Adds an extra response header (builder-style).
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.headers.push((name, value));
        self
    }

    /// The first value of an extra header, if present (case-insensitive).
    /// Test-only: production code writes headers out, it never reads them
    /// back.
    #[cfg(test)]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the response (status line, headers, body) onto `stream`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (the peer may already be gone; callers
    /// typically ignore the failure and drop the connection).
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        self.write_head(stream, Some(self.body.len()))?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }

    /// Writes the status line and headers, ending with the blank line. With
    /// `content_length` `None` the body that follows is close-delimited:
    /// the client reads it until the connection closes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors, like [`Response::write_to`].
    pub fn write_head(
        &self,
        stream: &mut TcpStream,
        content_length: Option<usize>,
    ) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
        );
        if let Some(length) = content_length {
            head.push_str(&format!("Content-Length: {length}\r\n"));
        }
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("Connection: close\r\n\r\n");
        stream.write_all(head.as_bytes())
    }
}

/// The reason phrase of the status codes the API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected local socket pair for driving the parser.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn roundtrip(raw: &[u8]) -> Result<Option<Request>, BadRequest> {
        let (mut client, mut server) = pair();
        client.write_all(raw).unwrap();
        drop(client); // EOF so truncated bodies are detectable
        read_request(&mut server)
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let req = roundtrip(
            b"POST /scenarios HTTP/1.1\r\nContent-Type: text/yaml\r\nContent-Length: 11\r\n\r\nname: hello",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/scenarios");
        assert_eq!(req.body, b"name: hello");
    }

    #[test]
    fn strips_query_and_uppercases_method() {
        let req = roundtrip(b"get /sessions/3?verbose=1 HTTP/1.0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/sessions/3");
        assert_eq!(req.query, "verbose=1");
    }

    #[test]
    fn headers_are_captured_case_insensitively() {
        let req = roundtrip(b"GET /metrics HTTP/1.1\r\nX-Api-Key:  tenant-key \r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.header("x-api-key"), Some("tenant-key"));
        assert_eq!(req.header("X-Api-Key"), Some("tenant-key"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn query_params_are_retrievable() {
        let req = roundtrip(b"GET /debug/events?limit=16&flag&x=a=b HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.query_param("limit"), Some("16"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("x"), Some("a=b"));
        assert_eq!(req.query_param("absent"), None);

        let bare = roundtrip(b"GET /metrics HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(bare.query, "");
        assert_eq!(bare.query_param("limit"), None);
    }

    #[test]
    fn clean_disconnect_is_none() {
        assert_eq!(roundtrip(b"").unwrap(), None);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(roundtrip(b"NOT-HTTP\r\n\r\n").is_err());
        assert!(roundtrip(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").is_err(),
            "body shorter than content-length"
        );
        assert!(roundtrip(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        assert!(
            roundtrip(b"GET / HTTP/1.1\r\nne").is_err(),
            "mid-header EOF"
        );
    }

    #[test]
    fn response_serializes_with_connection_close() {
        let (mut client, mut server) = pair();
        Response::json(201, "{\"ok\":true}".into())
            .write_to(&mut server)
            .unwrap();
        drop(server);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 201 Created\r\n"), "{raw}");
        assert!(raw.contains("Content-Length: 11\r\n"));
        assert!(raw.contains("Connection: close\r\n"));
        assert!(raw.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn extra_headers_are_emitted_before_connection_close() {
        let (mut client, mut server) = pair();
        Response::json(429, "{}".into())
            .with_header("Retry-After", "2".into())
            .with_header("Deprecation", "true".into())
            .write_to(&mut server)
            .unwrap();
        drop(server);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("Retry-After: 2\r\n"));
        assert!(raw.contains("Deprecation: true\r\n"));
        let headers_end = raw.find("\r\n\r\n").unwrap();
        assert!(raw[..headers_end].ends_with("Connection: close"));
    }
}
