//! A small HTTP/1.1 client that times each phase of a request.
//!
//! It speaks exactly what the benchmark needs: one request at a time per
//! connection, bodies framed by `Content-Length`, by chunked encoding, or
//! by connection close. A connection is kept for the next request only
//! when the server allows it, so a server-side keep-alive change shows up
//! as fewer connects per request without any change here.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on one response head, in bytes.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// How a response body was delimited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Framing {
    /// `Content-Length: n`.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
    /// Read until the server closed the connection.
    Close,
}

/// One parsed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// The decoded body.
    pub body: Vec<u8>,
    /// How the body was delimited.
    pub framing: Framing,
    /// Whether the connection may carry another request.
    pub reusable: bool,
}

/// Client-side timestamps of one exchange.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Before connecting (or before writing, on a reused connection).
    pub start: Instant,
    /// The connection is established.
    pub connected: Instant,
    /// The whole request is written.
    pub sent: Instant,
    /// The first response byte arrived.
    pub first_byte: Instant,
    /// The last response byte arrived.
    pub last_byte: Instant,
    /// Whether a kept-alive connection carried the request.
    pub reused: bool,
}

/// Reads one response from `reader`, calling `on_first_byte` as soon as
/// any byte of it is available.
///
/// # Errors
///
/// `InvalidData` for a malformed head or chunk, `UnexpectedEof` for a
/// body cut short, and any read error.
pub fn read_response<R: BufRead>(
    reader: &mut R,
    mut on_first_byte: impl FnMut(),
) -> io::Result<Response> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    if reader.fill_buf()?.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "no response"));
    }
    on_first_byte();

    let mut head = Vec::new();
    loop {
        let before = head.len();
        reader.read_until(b'\n', &mut head)?;
        if head.len() == before {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response head cut short",
            ));
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(invalid("response head too large"));
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = head.lines();
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or_default();
    let status: u16 = parts
        .next()
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut length = None;
    let mut chunked = false;
    let mut close = version == "HTTP/1.0";
    for line in lines.filter(|line| !line.is_empty()) {
        let (name, value) = line.split_once(':').ok_or_else(|| invalid("malformed header"))?;
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                length = Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
            }
            "transfer-encoding" => chunked = value.eq_ignore_ascii_case("chunked"),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            _ => {}
        }
    }

    let (body, framing) = if chunked {
        (read_chunked(reader)?, Framing::Chunked)
    } else if let Some(length) = length {
        let mut body = vec![0; length];
        reader.read_exact(&mut body)?;
        (body, Framing::Length(length))
    } else {
        let mut body = Vec::new();
        reader.read_to_end(&mut body)?;
        (body, Framing::Close)
    };
    let reusable = !close && framing != Framing::Close;
    Ok(Response { status, body, framing, reusable })
}

fn read_chunked<R: BufRead>(reader: &mut R) -> io::Result<Vec<u8>> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut body = Vec::new();
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line)?;
        let size_text = size_line.trim().split(';').next().unwrap_or_default();
        let size =
            usize::from_str_radix(size_text, 16).map_err(|_| invalid("bad chunk size"))?;
        if size == 0 {
            // Trailer section: header lines up to an empty line.
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
                    return Ok(body);
                }
            }
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(invalid("chunk not followed by CRLF"));
        }
    }
}

/// One client connection slot: connects on demand and keeps the
/// connection only while the server allows reuse.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for `addr` whose every socket operation times out after
    /// `timeout`.
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        Self { addr, timeout, conn: None, connects: 0 }
    }

    fn connect(&mut self) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        Ok(BufReader::with_capacity(64 * 1024, stream))
    }

    /// Sends one request and reads the whole response.
    ///
    /// # Errors
    ///
    /// Socket and framing errors. A failure on a reused connection before
    /// any response byte is retried once on a fresh connection (the server
    /// may have closed an idle connection).
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Timing)> {
        let reused = self.conn.is_some();
        match self.exchange(method, path, body) {
            Err(_) if reused => self.exchange(method, path, body),
            other => other,
        }
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, Timing)> {
        let start = Instant::now();
        let (mut conn, reused) = match self.conn.take() {
            Some(conn) => (conn, true),
            None => (self.connect()?, false),
        };
        let connected = Instant::now();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: act-benchmark\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()?;
        let sent = Instant::now();
        let mut first_byte = sent;
        let response = read_response(&mut conn, || first_byte = Instant::now())?;
        let last_byte = Instant::now();
        if response.reusable {
            self.conn = Some(conn);
        }
        Ok((response, Timing { start, connected, sent, first_byte, last_byte, reused }))
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Cursor, Read};
    use std::net::TcpListener;

    use super::*;

    fn parse(raw: &str) -> io::Result<Response> {
        read_response(&mut Cursor::new(raw.as_bytes().to_vec()), || {})
    }

    #[test]
    fn content_length_framing_stops_at_the_declared_length() {
        let raw =
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello trailing";
        let response = parse(raw).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"hello");
        assert_eq!(response.framing, Framing::Length(5));
        assert!(!response.reusable, "Connection: close forbids reuse");
        let keep = parse("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert!(keep.reusable, "HTTP/1.1 defaults to a persistent connection");
    }

    #[test]
    fn close_delimited_body_reads_to_eof() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n{\"i\":0}\n{\"done\":true}\n";
        let response = parse(raw).unwrap();
        assert_eq!(response.framing, Framing::Close);
        assert_eq!(response.body, b"{\"i\":0}\n{\"done\":true}\n");
        assert!(!response.reusable);
    }

    #[test]
    fn chunked_body_is_decoded() {
        let raw = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n3;x=y\r\nefg\r\n0\r\n\r\n";
        let response = parse(raw).unwrap();
        assert_eq!(response.body, b"abcdefg");
        assert_eq!(response.framing, Framing::Chunked);
        assert!(response.reusable);
    }

    #[test]
    fn malformed_and_truncated_responses_are_errors() {
        assert!(parse("").is_err());
        assert!(parse("HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort").is_err());
        assert!(parse("HTTP/1.1 200 OK\r\nContent-Length").is_err());
    }

    /// Serves `responses` one per request; all on one connection when
    /// `keep_alive`, else one connection per response.
    fn fake_server(
        responses: Vec<&'static str>,
        keep_alive: bool,
    ) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut pending = responses.into_iter().peekable();
            while pending.peek().is_some() {
                let (stream, _) = listener.accept().unwrap();
                accepted += 1;
                let mut reader = BufReader::new(stream);
                for response in pending.by_ref() {
                    // Read one request: head, then Content-Length bytes.
                    let mut length = 0;
                    loop {
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        if let Some(value) =
                            line.to_ascii_lowercase().strip_prefix("content-length:")
                        {
                            length = value.trim().parse().unwrap();
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let mut body = vec![0; length];
                    reader.read_exact(&mut body).unwrap();
                    reader.get_mut().write_all(response.as_bytes()).unwrap();
                    if !keep_alive {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn connection_is_reused_only_when_the_server_allows_it() {
        let ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let (addr, server) = fake_server(vec![ok, ok, ok], true);
        let mut client = Client::new(addr, Duration::from_secs(5));
        let reused: Vec<bool> = (0..3)
            .map(|_| {
                let (response, timing) = client.send("POST", "/x", b"{}").unwrap();
                assert_eq!(response.body, b"ok");
                timing.reused
            })
            .collect();
        assert_eq!(reused, vec![false, true, true]);
        assert_eq!(client.connects, 1);
        assert_eq!(server.join().unwrap(), 1);

        let closing = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        let (addr, server) = fake_server(vec![closing, closing], false);
        let mut client = Client::new(addr, Duration::from_secs(5));
        for _ in 0..2 {
            let (_, timing) = client.send("GET", "/healthz", b"").unwrap();
            assert!(!timing.reused);
            assert!(timing.start <= timing.connected && timing.sent <= timing.first_byte);
            assert!(timing.first_byte <= timing.last_byte);
        }
        assert_eq!(client.connects, 2);
        assert_eq!(server.join().unwrap(), 2);
    }
}
