//! A minimal, hardened HTTP/1.1 reader/writer over `std::net::TcpStream`.
//!
//! This is not a general HTTP implementation — it is exactly the subset
//! `act-server` speaks, built for hostile peers: every read is bounded by
//! the socket read timeout the caller configured, header and body sizes
//! are capped, and every failure is a typed [`HttpError`] that maps to one
//! status code and one parseable NDJSON error line.
//!
//! Connections persist: a [`Request`] says whether its side allows
//! another request on the connection, and a [`Connection`] carries the
//! server's decision into the handlers so that every response's
//! `Connection: keep-alive` / `Connection: close` header matches what the
//! worker does next. A fixed response goes out in one `write_all` (head
//! and body in one buffer): with two writes, Nagle's algorithm holds the
//! body until the client's delayed ACK of the head, ~21 ms per request on
//! a kept connection. NDJSON streams are close-delimited and buffered.
//!
//! An idle kept connection can be closed by the server (shutdown, or a
//! new connection that needs its worker) just as the client sends its
//! next request; that request is then dropped unread and the client
//! reads EOF or a reset. A client retries an idempotent request that
//! fails that way on a reused connection, and sends a request it cannot
//! retry on a new connection, which is never idle.

use std::fmt::Write as _;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line plus all headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Buffer size of a streamed response: a 16k-point sweep goes out in
/// 64 KiB writes instead of one syscall per line.
const STREAM_BUFFER_BYTES: usize = 64 * 1024;

/// A parsed request: method, path, headers, body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, e.g. `/v1/footprint` (query strings included
    /// verbatim; the service does not use them).
    pub path: String,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client side allows another request on the connection:
    /// HTTP/1.1, no `Connection: close`, no `Transfer-Encoding` (chunked
    /// bodies are not read, so their framing is unknown), and no bytes
    /// read past this request (pipelining is not supported, so such a
    /// connection closes rather than lose its framing).
    pub keep_alive: bool,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read; each variant maps to one HTTP status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header syntax, or body framing.
    BadRequest(String),
    /// The socket read timed out (slowloris or stalled peer).
    Timeout,
    /// The peer closed the connection before a full request arrived.
    Disconnected,
    /// Request line + headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeded the configured body cap.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// A `POST` without a `Content-Length` header.
    LengthRequired,
    /// Any other socket error.
    Io(String),
}

impl HttpError {
    /// The HTTP status this error is reported as.
    #[must_use]
    pub fn status(&self) -> Status {
        match self {
            Self::BadRequest(_) => Status::BadRequest,
            Self::Timeout => Status::RequestTimeout,
            Self::Disconnected | Self::Io(_) => Status::BadRequest,
            Self::HeadTooLarge => Status::HeaderTooLarge,
            Self::BodyTooLarge { .. } => Status::PayloadTooLarge,
            Self::LengthRequired => Status::LengthRequired,
        }
    }

    /// Stable machine-readable kind for the NDJSON error line.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::BadRequest(_) => "bad-request",
            Self::Timeout => "timeout",
            Self::Disconnected => "disconnected",
            Self::HeadTooLarge => "head-too-large",
            Self::BodyTooLarge { .. } => "body-too-large",
            Self::LengthRequired => "length-required",
            Self::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
            Self::Timeout => f.write_str("timed out reading the request"),
            Self::Disconnected => f.write_str("peer disconnected mid-request"),
            Self::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            Self::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit}-byte limit")
            }
            Self::LengthRequired => f.write_str("POST requires a Content-Length header"),
            Self::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// The status codes the service emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 408
    RequestTimeout,
    /// 411
    LengthRequired,
    /// 413
    PayloadTooLarge,
    /// 431
    HeaderTooLarge,
    /// 500
    InternalError,
    /// 503
    Overloaded,
}

impl Status {
    /// `"200 OK"`-style status line tail.
    #[must_use]
    pub fn line(self) -> &'static str {
        match self {
            Self::Ok => "200 OK",
            Self::BadRequest => "400 Bad Request",
            Self::NotFound => "404 Not Found",
            Self::MethodNotAllowed => "405 Method Not Allowed",
            Self::RequestTimeout => "408 Request Timeout",
            Self::LengthRequired => "411 Length Required",
            Self::PayloadTooLarge => "413 Payload Too Large",
            Self::HeaderTooLarge => "431 Request Header Fields Too Large",
            Self::InternalError => "500 Internal Server Error",
            Self::Overloaded => "503 Service Unavailable",
        }
    }

    /// The numeric code.
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            Self::Ok => 200,
            Self::BadRequest => 400,
            Self::NotFound => 404,
            Self::MethodNotAllowed => 405,
            Self::RequestTimeout => 408,
            Self::LengthRequired => 411,
            Self::PayloadTooLarge => 413,
            Self::HeaderTooLarge => 431,
            Self::InternalError => 500,
            Self::Overloaded => 503,
        }
    }
}

/// Classifies an I/O failure from a timed-out socket.
fn classify_io(err: &std::io::Error) -> HttpError {
    match err.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset | ErrorKind::BrokenPipe => {
            HttpError::Disconnected
        }
        _ => HttpError::Io(err.to_string()),
    }
}

/// Reads one full request (head + body) from `stream`.
///
/// The caller is responsible for having set the socket read timeout; this
/// function turns timeout/EOF conditions into typed errors instead of
/// blocking forever. `max_body_bytes` caps the accepted `Content-Length`.
/// `read_delay` injects an artificial pause before every read — the
/// fault-injection hook for exercising the timeout path deterministically.
///
/// # Errors
///
/// Returns an [`HttpError`] naming the first framing/size/socket problem.
pub fn read_request(
    stream: &mut TcpStream,
    max_body_bytes: usize,
    read_delay: Option<Duration>,
) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    // Read until the blank line that ends the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        if let Some(delay) = read_delay {
            std::thread::sleep(delay);
        }
        let n = stream.read(&mut chunk).map_err(|e| classify_io(&e))?;
        if n == 0 {
            return Err(if buf.is_empty() {
                HttpError::BadRequest("empty request".to_owned())
            } else {
                HttpError::Disconnected
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_owned()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!("malformed request line `{request_line}`")));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("malformed request line `{request_line}`")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let wants_close = headers.iter().any(|(name, value)| {
        name == "connection" && value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"))
    });
    // Chunked bodies are not read, so a request with `Transfer-Encoding`
    // is framed by `Content-Length` (or as empty) and its chunk bytes may
    // still be in flight: RFC 9112 §6.1 requires closing such a
    // connection, or those bytes would be parsed as the next request.
    let transfer_encoded = headers.iter().any(|(name, _)| name == "transfer-encoding");
    let mut request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body: Vec::new(),
        keep_alive: version == "HTTP/1.1" && !wants_close && !transfer_encoded,
    };

    let content_length = parse_content_length(&request.headers)?;
    let declared = match content_length {
        Some(n) => n,
        None if request.method == "POST" => return Err(HttpError::LengthRequired),
        None => 0,
    };
    if declared > max_body_bytes {
        return Err(HttpError::BodyTooLarge { declared, limit: max_body_bytes });
    }

    // The body: whatever arrived after the head, then read the remainder.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    // Defensive cap on the first chunk too: a peer may send more than it
    // declared; never buffer beyond the declared length. Bytes past it
    // belong to a pipelined request, which ends the connection.
    let mut read_past = body.len() > declared;
    body.truncate(declared);
    while body.len() < declared {
        if let Some(delay) = read_delay {
            std::thread::sleep(delay);
        }
        let n = stream.read(&mut chunk).map_err(|e| classify_io(&e))?;
        if n == 0 {
            return Err(HttpError::Disconnected);
        }
        let take = (declared - body.len()).min(n);
        read_past |= n > take;
        body.extend_from_slice(&chunk[..take]);
    }
    request.body = body;
    request.keep_alive &= !read_past;
    Ok(request)
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Extracts and validates the `Content-Length` from lower-cased header
/// pairs, per RFC 9110 §8.6: the value is `1*DIGIT` — `+5`, `0x10`, empty,
/// or signed values Rust's `usize::from_str` tolerates are rejected, since
/// a lax reading here and a strict reading at a proxy is exactly the
/// request-smuggling setup. Duplicate `Content-Length` headers must agree;
/// conflicting duplicates are rejected outright.
///
/// # Errors
///
/// Returns [`HttpError::BadRequest`] (→ 400) for any non-`1*DIGIT` value,
/// a value overflowing `usize`, or conflicting duplicates.
fn parse_content_length(headers: &[(String, String)]) -> Result<Option<usize>, HttpError> {
    let mut declared: Option<usize> = None;
    for (_, raw) in headers.iter().filter(|(name, _)| name == "content-length") {
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return Err(HttpError::BadRequest(format!("bad Content-Length `{raw}`")));
        }
        let value = raw
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("bad Content-Length `{raw}`")))?;
        match declared {
            None => declared = Some(value),
            Some(previous) if previous != value => {
                return Err(HttpError::BadRequest(format!(
                    "conflicting Content-Length headers ({previous} vs {value})"
                )));
            }
            Some(_) => {}
        }
    }
    Ok(declared)
}

/// Writes a complete response with a known body in one `write_all`:
/// status line, `Content-Length`, the `Connection` header `keep_alive`
/// selects, `extra_headers` (each a full `Name: value` line without the
/// CRLF), then the body.
///
/// # Errors
///
/// Propagates socket errors; the caller usually just drops the connection.
pub fn write_response(
    out: &mut impl Write,
    status: Status,
    extra_headers: &[&str],
    keep_alive: bool,
    body: &str,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = String::with_capacity(160 + body.len());
    let _ = write!(
        response,
        "HTTP/1.1 {}\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        status.line(),
        body.len(),
    );
    for header in extra_headers {
        response.push_str(header);
        response.push_str("\r\n");
    }
    response.push_str("\r\n");
    response.push_str(body);
    out.write_all(response.as_bytes())?;
    out.flush()
}

/// One request's view of its connection: the socket plus whether the
/// response may leave it open for the next request. Handlers respond only
/// through it, so the `Connection` header they send is the decision the
/// worker acts on afterwards.
pub struct Connection<'a> {
    stream: &'a mut TcpStream,
    keep_alive: bool,
}

impl<'a> Connection<'a> {
    /// Wraps `stream`; `keep_alive` is the worker's decision before the
    /// handler runs.
    pub fn new(stream: &'a mut TcpStream, keep_alive: bool) -> Self {
        Self { stream, keep_alive }
    }

    /// Whether the connection stays open after this response.
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Closes the connection after this response.
    pub fn close(&mut self) {
        self.keep_alive = false;
    }

    /// Writes a complete response in one write. Any status but `200`
    /// closes the connection.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn respond(&mut self, status: Status, body: &str) -> std::io::Result<()> {
        self.keep_alive &= status == Status::Ok;
        write_response(self.stream, status, &[], self.keep_alive, body)
    }

    /// Starts a streamed NDJSON response and returns its buffered writer:
    /// status plus headers, no `Content-Length` — the body is delimited by
    /// connection close, which is the HTTP/1.1 contract when the producer
    /// cannot know the length up front (a sweep cut off by its deadline,
    /// for instance). The caller flushes the writer after the last line.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn stream(&mut self, status: Status) -> std::io::Result<BufWriter<&mut TcpStream>> {
        self.keep_alive = false;
        let mut out = BufWriter::with_capacity(STREAM_BUFFER_BYTES, &mut *self.stream);
        write!(
            out,
            "HTTP/1.1 {}\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
            status.line(),
        )?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn statuses_map_to_lines_and_codes() {
        assert_eq!(Status::Ok.line(), "200 OK");
        assert_eq!(Status::Overloaded.code(), 503);
        assert_eq!(HttpError::Timeout.status(), Status::RequestTimeout);
        assert_eq!(
            HttpError::BodyTooLarge { declared: 10, limit: 5 }.status(),
            Status::PayloadTooLarge
        );
        assert_eq!(HttpError::LengthRequired.kind(), "length-required");
    }

    /// Reads one request sent as `raw` over a loopback connection.
    fn read_raw(raw: &[u8]) -> Request {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(raw).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        read_request(&mut server, 1024, None).unwrap()
    }

    #[test]
    fn keep_alive_needs_http11_no_close_and_no_bytes_past_the_request() {
        let keep = |raw: &str| read_raw(raw.as_bytes()).keep_alive;
        assert!(keep("GET / HTTP/1.1\r\nHost: t\r\n\r\n"));
        assert!(keep("GET / HTTP/1.1\r\nConnection: keep-alive\r\n\r\n"));
        assert!(keep("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"));
        assert!(!keep("GET / HTTP/1.0\r\nHost: t\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!keep("GET / HTTP/1.1\r\nConnection: Upgrade, Close\r\n\r\n"));
        // Pipelined: the next request's bytes arrived with this one.
        assert!(!keep("GET / HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\n\r\n"));
        assert!(!keep("POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET"));
        // Transfer-Encoding: the chunk bytes may follow in a later segment.
        assert!(!keep("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"));
        assert!(!keep(
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}"
        ));
    }

    /// A writer that records each `write` call.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_fixed_response_is_one_write() {
        let mut out = Writes::default();
        write_response(&mut out, Status::Ok, &[], true, "{\"ok\":true}\n").unwrap();
        assert_eq!(out.0.len(), 1, "head and body in one write");
        assert_eq!(
            String::from_utf8(out.0.remove(0)).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nContent-Length: 12\r\n\
             Connection: keep-alive\r\n\r\n{\"ok\":true}\n"
        );
        let mut out = Writes::default();
        write_response(&mut out, Status::Overloaded, &["Retry-After: 1"], false, "x").unwrap();
        assert_eq!(out.0.len(), 1);
        let text = String::from_utf8(out.0.remove(0)).unwrap();
        assert!(text.contains("Connection: close\r\nRetry-After: 1\r\n\r\nx"), "{text}");
    }

    #[test]
    fn error_messages_render() {
        let err = HttpError::BodyTooLarge { declared: 100, limit: 50 };
        assert!(err.to_string().contains("100"));
        assert!(err.to_string().contains("50"));
        assert!(HttpError::Timeout.to_string().contains("timed out"));
    }

    /// Header pairs as `read_request` stores them: lower-cased, trimmed.
    fn headers(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect()
    }

    #[test]
    fn content_length_accepts_canonical_digit_values() {
        assert_eq!(parse_content_length(&headers(&[])).unwrap(), None);
        assert_eq!(
            parse_content_length(&headers(&[("content-length", "0")])).unwrap(),
            Some(0)
        );
        assert_eq!(
            parse_content_length(&headers(&[("content-length", "12345")])).unwrap(),
            Some(12345)
        );
        // Leading zeros are still 1*DIGIT per the RFC grammar.
        assert_eq!(
            parse_content_length(&headers(&[("content-length", "007")])).unwrap(),
            Some(7)
        );
        // Other headers are ignored.
        assert_eq!(
            parse_content_length(&headers(&[("x-other", "+5"), ("content-length", "5")]))
                .unwrap(),
            Some(5)
        );
    }

    /// Regression: `usize::from_str` tolerates a leading `+`, so `+5` used
    /// to be accepted — RFC 9110 requires 1*DIGIT.
    #[test]
    fn content_length_rejects_non_digit_values_with_400() {
        for raw in ["+5", "-5", " 5", "5 ", "", "0x10", "5.0", "1e3", "٥", "5,5", "+"] {
            let err = parse_content_length(&headers(&[("content-length", raw)]))
                .expect_err(&format!("Content-Length `{raw}` accepted"));
            assert!(matches!(err, HttpError::BadRequest(_)), "wrong error for `{raw}`");
            assert_eq!(err.status(), Status::BadRequest);
        }
        // Overflow past usize is also a 400, not a panic or wrap.
        let huge = "9".repeat(40);
        let err = parse_content_length(&headers(&[("content-length", &huge)])).unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)));
    }

    #[test]
    fn conflicting_duplicate_content_lengths_are_rejected() {
        let err =
            parse_content_length(&headers(&[("content-length", "5"), ("content-length", "6")]))
                .unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)));
        assert!(err.to_string().contains("conflicting"));
        // Agreeing duplicates are tolerated (RFC 9110 §8.6 allows folding
        // identical values).
        assert_eq!(
            parse_content_length(&headers(
                &[("content-length", "8"), ("content-length", "8"),]
            ))
            .unwrap(),
            Some(8)
        );
        // A bad duplicate is rejected even when the first copy is clean.
        assert!(parse_content_length(&headers(&[
            ("content-length", "8"),
            ("content-length", "+8"),
        ]))
        .is_err());
    }
}
