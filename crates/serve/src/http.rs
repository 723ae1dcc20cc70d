//! The wire layer: a hand-rolled, std-only HTTP/1.1 implementation.
//!
//! This is deliberately not a general-purpose HTTP library — it is the
//! minimal, *hostile-input-hardened* subset the validation service
//! needs: request-line and header parsing with hard size caps,
//! `Content-Length` and `chunked` body framing exposed as an
//! [`std::io::Read`] so bodies stream straight into the chunked
//! validation path without ever being buffered whole, absolute
//! per-request read deadlines (a slowloris client dripping one byte per
//! write runs out of *deadline*, not out of server patience), and
//! keep-alive with pipelining (unread pipelined requests simply wait in
//! the connection buffer).
//!
//! Each exchange costs one syscall per direction where the peer allows:
//! a response's head and body leave in one vectored write, socket reads
//! land straight in the connection's reused buffer (or, for a
//! `Content-Length` body with nothing buffered, in the reader's slice),
//! and the socket's read timeout is set once per connection rather than
//! before every read.
//!
//! Every protocol violation maps to a typed [`HttpError`] so the
//! connection handler can answer 400/408 deterministically; nothing in
//! this module panics on any byte sequence a socket can deliver.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard cap on the request line, in bytes.
pub const MAX_REQUEST_LINE: usize = 8 << 10;
/// Hard cap on a single header line, in bytes.
pub const MAX_HEADER_LINE: usize = 8 << 10;
/// Hard cap on the number of headers per request.
pub const MAX_HEADERS: usize = 100;
/// Hard cap on a chunk-size line (hex digits plus extensions).
pub const MAX_CHUNK_LINE: usize = 1 << 10;

/// How reading a request failed; decides the response (if any).
#[derive(Debug)]
pub enum HttpError {
    /// The bytes violate the protocol; answer 400 and close.
    Malformed(&'static str),
    /// The per-request read deadline passed; answer 408 and close.
    Timeout,
    /// The peer closed the connection; nothing to answer.
    Closed,
    /// Transport failure; nothing to answer.
    Io(io::Error),
}

impl HttpError {
    /// Converts into the `io::Error` a body [`Read`] must surface.
    fn into_io(self) -> io::Error {
        match self {
            HttpError::Malformed(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
            HttpError::Timeout => io::ErrorKind::TimedOut.into(),
            HttpError::Closed => io::ErrorKind::UnexpectedEof.into(),
            HttpError::Io(e) => e,
        }
    }
}

/// Longest a single socket read waits. Reads run in slices of at most
/// this much, so the socket's read timeout stays unchanged (no
/// `setsockopt`) until the last slice before a deadline, and a drain
/// flag or an absolute deadline is re-checked at least this often.
const READ_SLICE: Duration = Duration::from_millis(100);

/// Free space guaranteed after the buffered bytes before a buffered read.
const READ_CHUNK: usize = 8 << 10;

/// One accepted connection: the stream plus its read buffer. The buffer
/// outlives individual requests, which is what makes pipelining work —
/// bytes of the *next* request read together with the current one just
/// wait their turn.
pub struct Conn {
    stream: TcpStream,
    /// Zero-initialised region that socket reads land in directly,
    /// reused for the connection's lifetime; `buf[start..end]` holds the
    /// unconsumed bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The read timeout last set on the socket.
    read_timeout: Option<Duration>,
    /// Response heads are formatted here, reused for every response.
    head: Vec<u8>,
}

impl Conn {
    /// Wraps an accepted stream; `write_deadline` bounds every write for
    /// the connection's lifetime.
    pub fn new(stream: TcpStream, write_deadline: Duration) -> Conn {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(write_deadline.max(Duration::from_millis(1))));
        Conn {
            stream,
            buf: Vec::new(),
            start: 0,
            end: 0,
            read_timeout: None,
            head: Vec::new(),
        }
    }

    /// The unconsumed buffered bytes.
    pub fn buffered(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.end);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Makes at least [`READ_CHUNK`] bytes of room after the buffered
    /// bytes: first by sliding them to the front, then by growing the
    /// region.
    fn reserve_spare(&mut self) {
        if self.buf.len() - self.end >= READ_CHUNK {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
    }

    /// Sets the socket's read timeout, skipping the syscall when it is
    /// already `slice`.
    fn set_read_slice(&mut self, slice: Duration) -> Result<(), HttpError> {
        let slice = slice.max(Duration::from_millis(1));
        if self.read_timeout != Some(slice) {
            self.stream
                .set_read_timeout(Some(slice))
                .map_err(HttpError::Io)?;
            self.read_timeout = Some(slice);
        }
        Ok(())
    }

    /// One read from the socket, waiting at most `slice`: into `out`
    /// when given, else into the buffer. `Ok(0)` is EOF; a timeout is
    /// `Err(HttpError::Timeout)`.
    fn fill_once(&mut self, slice: Duration, out: Option<&mut [u8]>) -> Result<usize, HttpError> {
        self.set_read_slice(slice)?;
        match out {
            Some(out) => recv(&mut self.stream, out),
            None => {
                self.reserve_spare();
                let n = recv(&mut self.stream, &mut self.buf[self.end..])?;
                self.end += n;
                Ok(n)
            }
        }
    }

    /// One read (into `out` or the buffer, as [`Conn::fill_once`])
    /// bounded by the absolute `deadline`: waits in slices of at most
    /// [`READ_SLICE`] and re-checks the deadline after each, so it is
    /// overrun by less than one slice.
    fn fill(&mut self, deadline: Instant, mut out: Option<&mut [u8]>) -> Result<usize, HttpError> {
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(HttpError::Timeout)?;
            match self.fill_once(remaining.min(READ_SLICE), out.as_deref_mut()) {
                Err(HttpError::Timeout) => continue,
                done => return done,
            }
        }
    }

    /// Waits for the next request's first byte: up to `idle` total, in
    /// [`READ_SLICE`]s so a drain flag flipped mid-wait is noticed within
    /// ~100ms. Returns `true` when bytes are available; `false` on EOF,
    /// idle expiry, or drain (already-buffered bytes still count as
    /// available — a request accepted before the drain began is served).
    pub fn wait_for_data(&mut self, idle: Duration, draining: &AtomicBool) -> bool {
        if !self.buffered().is_empty() {
            return true;
        }
        let end = Instant::now() + idle;
        loop {
            match self.fill_once(READ_SLICE, None) {
                Ok(0) => return false,
                Ok(_) => return true,
                Err(HttpError::Timeout) => {
                    if draining.load(Ordering::Acquire) || Instant::now() >= end {
                        return false;
                    }
                }
                Err(_) => return false,
            }
        }
    }

    /// Reads one CRLF- (or bare-LF-) terminated line, excluding the
    /// terminator, enforcing `max` bytes. The line borrows the buffer.
    fn read_line(&mut self, max: usize, deadline: Instant) -> Result<&str, HttpError> {
        // bytes already searched for the terminator, relative to `start`
        let mut scanned = 0;
        loop {
            if let Some(i) = self.buffered()[scanned..].iter().position(|&b| b == b'\n') {
                let i = scanned + i;
                if i > max {
                    return Err(HttpError::Malformed("line too long"));
                }
                let at = self.start;
                // consuming never overwrites the bytes, only the next fill does
                self.consume(i + 1);
                let line = &self.buf[at..at + i];
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                return std::str::from_utf8(line)
                    .map_err(|_| HttpError::Malformed("line is not UTF-8"));
            }
            scanned = self.buffered().len();
            if scanned > max {
                return Err(HttpError::Malformed("line too long"));
            }
            if self.fill(deadline, None)? == 0 {
                return Err(HttpError::Closed);
            }
        }
    }

    /// Reads up to `out.len()` body bytes: buffered bytes first; with the
    /// buffer empty, `direct` reads from the socket straight into `out`.
    /// `Ok(0)` only at EOF.
    fn read_some(
        &mut self,
        out: &mut [u8],
        deadline: Instant,
        direct: bool,
    ) -> Result<usize, HttpError> {
        if self.buffered().is_empty() {
            if direct {
                return self.fill(deadline, Some(out));
            }
            if self.fill(deadline, None)? == 0 {
                return Ok(0);
            }
        }
        let avail = self.buffered();
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }

    /// Writes one complete response (see [`write_response`]), formatting
    /// the head in the connection's reused buffer.
    pub fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        write_response(
            &mut self.stream,
            &mut self.head,
            status,
            content_type,
            body,
            keep_alive,
        )
    }
}

/// One `read` into `out`, with the socket's errors mapped to
/// [`HttpError`]s (a read timeout becomes [`HttpError::Timeout`]).
fn recv(stream: &mut TcpStream, out: &mut [u8]) -> Result<usize, HttpError> {
    loop {
        match stream.read(out) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionReset
                    || e.kind() == io::ErrorKind::ConnectionAborted
                    || e.kind() == io::ErrorKind::BrokenPipe =>
            {
                return Err(HttpError::Closed)
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// A parsed request head. Header names are lowercased at parse time.
#[derive(Debug)]
pub struct Request {
    /// The method verb, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The path component of the request target (query string stripped).
    pub path: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// `(lowercased-name, value)` in arrival order.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection may be reused after this exchange
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides either way).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'!' | b'#' | b'$' | b'%' | b'&')
}

/// Reads and parses one request head. The caller supplies the absolute
/// per-request `deadline`; a client that cannot deliver its headers in
/// time gets [`HttpError::Timeout`] no matter how steadily it drips.
pub fn parse_request(conn: &mut Conn, deadline: Instant) -> Result<Request, HttpError> {
    let line = conn.read_line(MAX_REQUEST_LINE, deadline)?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed("bad request line")),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Malformed("unsupported HTTP version")),
    };
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("bad request target"));
    }
    let path = target
        .split(['?', '#'])
        .next()
        .unwrap_or(target)
        .to_string();
    let method = method.to_string();
    let mut headers = Vec::new();
    loop {
        let line = conn.read_line(MAX_HEADER_LINE, deadline)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        // a space before the colon is the classic request-smuggling vector
        if name.is_empty() || !name.bytes().all(is_token_byte) {
            return Err(HttpError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        http11,
        headers,
    })
}

/// How the request's body bytes are delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// No body (no framing headers present).
    None,
    /// `Content-Length: n`.
    Length(u64),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

/// Determines the body framing, rejecting the ambiguous combinations
/// (duplicate or conflicting framing headers) outright.
pub fn framing(req: &Request) -> Result<Framing, HttpError> {
    let lengths: Vec<&str> = req
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    let te = req.header("transfer-encoding");
    match (te, lengths.as_slice()) {
        (Some(te), []) if te.eq_ignore_ascii_case("chunked") => Ok(Framing::Chunked),
        (Some(_), _) => Err(HttpError::Malformed("bad transfer-encoding")),
        (None, []) => Ok(Framing::None),
        (None, [one]) => {
            if one.is_empty() || !one.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed("bad content-length"));
            }
            one.parse::<u64>()
                .map(Framing::Length)
                .map_err(|_| HttpError::Malformed("bad content-length"))
        }
        (None, _) => Err(HttpError::Malformed("conflicting content-length")),
    }
}

enum BodyState {
    /// Fixed-length body: bytes left to deliver.
    Length(u64),
    /// Chunked body: bytes left in the current chunk (`0` = a size line
    /// is due next; `first` suppresses the chunk-terminating CRLF read).
    Chunk {
        remaining: u64,
        first: bool,
    },
    Done,
}

/// A request body as an [`io::Read`]: the adapter that lets a socket
/// body stream straight into `validate_streaming_reader` without ever
/// being resident. Timeouts surface as [`io::ErrorKind::TimedOut`],
/// framing violations as [`io::ErrorKind::InvalidData`], a peer that
/// vanished mid-body as [`io::ErrorKind::UnexpectedEof`].
pub struct Body<'c> {
    conn: &'c mut Conn,
    deadline: Instant,
    state: BodyState,
    consumed: u64,
}

impl<'c> Body<'c> {
    /// Wraps `conn` for one request's body under `framing`.
    pub fn new(conn: &'c mut Conn, framing: Framing, deadline: Instant) -> Body<'c> {
        let state = match framing {
            Framing::None | Framing::Length(0) => BodyState::Done,
            Framing::Length(n) => BodyState::Length(n),
            Framing::Chunked => BodyState::Chunk {
                remaining: 0,
                first: true,
            },
        };
        Body {
            conn,
            deadline,
            state,
            consumed: 0,
        }
    }

    /// Whether every body byte has been consumed (connection reusable).
    pub fn finished(&self) -> bool {
        matches!(self.state, BodyState::Done)
    }

    /// Payload bytes delivered so far (framing overhead excluded).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes the remaining body, up to `cap` bytes. Returns `true`
    /// when the body ended within the cap — the connection can then
    /// carry another request; `false` means the caller must close.
    pub fn drain(&mut self, cap: usize) -> bool {
        let mut left = cap;
        let mut sink = [0u8; 4096];
        while !self.finished() && left > 0 {
            let want = sink.len().min(left);
            match self.read(&mut sink[..want]) {
                Ok(0) => break,
                Ok(n) => left -= n,
                Err(_) => return false,
            }
        }
        self.finished()
    }

    /// Advances chunked framing to the next data chunk (or `Done`).
    fn next_chunk(&mut self, first: bool) -> io::Result<()> {
        if !first {
            // the CRLF that terminates the previous chunk's data
            let sep = self
                .conn
                .read_line(2, self.deadline)
                .map_err(HttpError::into_io)?;
            if !sep.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "missing chunk terminator",
                ));
            }
        }
        let line = self
            .conn
            .read_line(MAX_CHUNK_LINE, self.deadline)
            .map_err(HttpError::into_io)?;
        let size_part = line.split(';').next().unwrap_or("").trim();
        if size_part.is_empty() || !size_part.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"));
        }
        let size = u64::from_str_radix(size_part, 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            // trailer section: lines until the empty one
            loop {
                let line = self
                    .conn
                    .read_line(MAX_HEADER_LINE, self.deadline)
                    .map_err(HttpError::into_io)?;
                if line.is_empty() {
                    break;
                }
            }
            self.state = BodyState::Done;
        } else {
            self.state = BodyState::Chunk {
                remaining: size,
                first: false,
            };
        }
        Ok(())
    }
}

impl Read for Body<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.state {
                BodyState::Done => return Ok(0),
                BodyState::Length(remaining) => {
                    let want = out.len().min(remaining.min(usize::MAX as u64) as usize);
                    let n = self
                        .conn
                        .read_some(&mut out[..want], self.deadline, true)
                        .map_err(HttpError::into_io)?;
                    if n == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    self.consumed += n as u64;
                    let left = remaining - n as u64;
                    self.state = if left == 0 {
                        BodyState::Done
                    } else {
                        BodyState::Length(left)
                    };
                    return Ok(n);
                }
                BodyState::Chunk {
                    remaining: 0,
                    first,
                } => self.next_chunk(first)?,
                BodyState::Chunk { remaining, .. } => {
                    let want = out.len().min(remaining.min(usize::MAX as u64) as usize);
                    let n = self
                        .conn
                        .read_some(&mut out[..want], self.deadline, false)
                        .map_err(HttpError::into_io)?;
                    if n == 0 {
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    self.consumed += n as u64;
                    self.state = BodyState::Chunk {
                        remaining: remaining - n as u64,
                        first: false,
                    };
                    return Ok(n);
                }
            }
        }
    }
}

/// Every status this server emits: the code, its decimal form and its
/// reason phrase.
const STATUSES: [(u16, &str, &str); 11] = [
    (200, "200", "OK"),
    (201, "201", "Created"),
    (400, "400", "Bad Request"),
    (404, "404", "Not Found"),
    (405, "405", "Method Not Allowed"),
    (408, "408", "Request Timeout"),
    (411, "411", "Length Required"),
    (413, "413", "Payload Too Large"),
    (422, "422", "Unprocessable Entity"),
    (500, "500", "Internal Server Error"),
    (503, "503", "Service Unavailable"),
];

/// The standard reason phrase for the codes this server emits.
pub fn reason(status: u16) -> &'static str {
    STATUSES
        .iter()
        .find(|s| s.0 == status)
        .map_or("Unknown", |s| s.2)
}

/// `status` in decimal as a static string, for the codes this server
/// emits (a metric label that costs no allocation).
pub fn status_code(status: u16) -> Option<&'static str> {
    STATUSES.iter().find(|s| s.0 == status).map(|s| s.1)
}

/// Writes one complete response. Always emits `Content-Length` and an
/// explicit `Connection` header, so the client never has to guess where
/// the body ends or whether to reuse the socket. The head is formatted
/// into `head` (cleared first, so a caller can reuse it) and goes out
/// with the body in one vectored write: the body is never copied, and a
/// socket writer sends the whole response in one syscall unless the
/// send buffer fills.
pub fn write_response<W: Write>(
    w: &mut W,
    head: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    head.clear();
    write!(
        head,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    let mut parts = [IoSlice::new(head), IoSlice::new(body)];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const HELLO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
        Content-Length: 5\r\nConnection: keep-alive\r\n\r\nhello";

    fn hello<W: Write>(w: &mut W) -> io::Result<()> {
        write_response(w, &mut Vec::new(), 200, "text/plain", b"hello", true)
    }

    /// Accepts every byte of every call, counting the calls.
    #[derive(Default)]
    struct Counting {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            bufs.iter().for_each(|b| self.out.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Accepts at most 3 bytes per call, across slice boundaries.
    #[derive(Default)]
    struct ThreeBytes(Vec<u8>);

    impl Write for ThreeBytes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for b in bufs {
                let n = b.len().min(3 - taken);
                self.0.extend_from_slice(&b[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn head_and_body_go_out_in_one_write() {
        let mut w = Counting::default();
        let mut head = Vec::new();
        for _ in 0..2 {
            // the second response reuses (and must clear) the head buffer
            w.out.clear();
            w.calls = 0;
            write_response(&mut w, &mut head, 200, "text/plain", b"hello", true).unwrap();
            assert_eq!(w.calls, 1);
            assert_eq!(w.out, HELLO);
        }
        w.out.clear();
        write_response(&mut w, &mut head, 503, "application/json", b"", false).unwrap();
        assert_eq!(
            w.out,
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Content-Length: 0\r\nConnection: close\r\n\r\n"
        );
    }

    #[test]
    fn partial_writes_resume_byte_for_byte() {
        let mut w = ThreeBytes::default();
        hello(&mut w).unwrap();
        assert_eq!(w.0, HELLO);
    }

    #[test]
    fn a_writer_that_accepts_nothing_fails_with_write_zero() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = hello(&mut Zero).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn an_interrupted_write_is_retried() {
        struct InterruptOnce(bool, Counting);
        impl Write for InterruptOnce {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                if !std::mem::replace(&mut self.0, true) {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.1.write_vectored(bufs)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = InterruptOnce(false, Counting::default());
        hello(&mut w).unwrap();
        assert_eq!(w.1.out, HELLO);
        assert_eq!(w.1.calls, 1);
    }

    /// A server-side `Conn` and the client end of a loopback connection.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (Conn::new(server, Duration::from_secs(5)), client)
    }

    #[test]
    fn pipelined_heads_longer_than_a_read_chunk_parse_in_order() {
        let (mut conn, mut client) = pair();
        let filler = "x".repeat(READ_CHUNK - 100);
        let mut wire = Vec::new();
        for i in 0..3 {
            write!(
                wire,
                "POST /r{i}?q HTTP/1.1\r\nX-Filler: {filler}\r\nContent-Length: 4\r\n\r\nbod{i}"
            )
            .unwrap();
        }
        client.write_all(&wire).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        for i in 0..3 {
            let req = parse_request(&mut conn, deadline).unwrap();
            assert_eq!(
                (req.method.as_str(), req.path.as_str()),
                ("POST", &*format!("/r{i}"))
            );
            assert_eq!(req.header("x-filler"), Some(filler.as_str()));
            let mut body = Body::new(&mut conn, framing(&req).unwrap(), deadline);
            let mut got = String::new();
            body.read_to_string(&mut got).unwrap();
            assert_eq!(got, format!("bod{i}"));
        }
        assert!(conn.buffered().is_empty());
        assert!(conn.buf.len() <= 2 * READ_CHUNK, "{}", conn.buf.len());
    }

    #[test]
    fn large_bodies_arrive_intact_and_the_read_timeout_is_set_once() {
        let (mut conn, mut client) = pair();
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let head = format!(
            "PUT / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        let sent = payload.clone();
        let writer = std::thread::spawn(move || {
            client.write_all(head.as_bytes()).unwrap();
            // arrive in pieces, so most body reads find the buffer empty
            for piece in sent.chunks(30_000) {
                client.write_all(piece).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            client
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let req = parse_request(&mut conn, deadline).unwrap();
        let mut body = Body::new(&mut conn, framing(&req).unwrap(), deadline);
        let mut got = Vec::new();
        body.read_to_end(&mut got).unwrap();
        assert!(body.finished());
        assert_eq!(got, payload);
        assert_eq!(conn.read_timeout, Some(READ_SLICE));
        drop(writer.join().unwrap());
    }
}
