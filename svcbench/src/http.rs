//! The load generator's side of HTTP/1.1: pre-encoded requests and a
//! response reader. Deliberately independent of `serve::http`, so a
//! framing bug in the server cannot be mirrored by the client.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Head {
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// Bytes of status line and headers, terminator included.
    pub head_bytes: usize,
}

/// Largest response head accepted before the reader gives up.
const MAX_HEAD: usize = 16 << 10;

/// Reads responses off one connection. Bytes past the end of one
/// response stay buffered for the next.
pub struct ResponseReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for ResponseReader {
    fn default() -> Self {
        ResponseReader {
            buf: vec![0; 32 << 10],
            start: 0,
            end: 0,
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl ResponseReader {
    /// Reads one complete response from `r`; the body replaces the
    /// contents of `body`. The server always sends `Content-Length`.
    pub fn read<R: Read>(&mut self, r: &mut R, body: &mut Vec<u8>) -> io::Result<Head> {
        let head_end = loop {
            if let Some(i) = find(&self.buf[self.start..self.end], b"\r\n\r\n") {
                break self.start + i + 4;
            }
            if self.end - self.start >= MAX_HEAD {
                return Err(bad("response head too long"));
            }
            if self.end == self.buf.len() {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let n = r.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.end += n;
        };
        let head = std::str::from_utf8(&self.buf[self.start..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        if parts.next() != Some("HTTP/1.1") {
            return Err(bad("not an HTTP/1.1 status line"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status code"))?;
        let mut length = None;
        let mut close = false;
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header line"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| bad("bad content-length"))?,
                );
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        let head_bytes = head_end - self.start;
        self.start = head_end;
        body.clear();
        let have = (self.end - self.start).min(length);
        body.extend_from_slice(&self.buf[self.start..self.start + have]);
        self.start += have;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if have < length {
            body.resize(length, 0);
            r.read_exact(&mut body[have..])?;
        }
        Ok(Head {
            status,
            close,
            head_bytes,
        })
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The full bytes of a request with a `Content-Length` body (or none).
pub fn encode(method: &str, path: &str, body: &[u8], close: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    head_into(&mut out, method, path, close);
    if !body.is_empty() || method == "POST" {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// The full bytes of a request whose body is sent with chunked framing,
/// split at the given chunk sizes (the last chunk takes the rest).
pub fn encode_chunked(method: &str, path: &str, body: &[u8], sizes: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 64 + sizes.len() * 8);
    head_into(&mut out, method, path, false);
    out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
    let mut at = 0;
    let mut sizes = sizes.iter();
    while at < body.len() {
        let n = sizes
            .next()
            .copied()
            .unwrap_or(body.len())
            .clamp(1, body.len() - at);
        out.extend_from_slice(format!("{n:x}\r\n").as_bytes());
        out.extend_from_slice(&body[at..at + n]);
        out.extend_from_slice(b"\r\n");
        at += n;
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

fn head_into(out: &mut Vec<u8>, method: &str, path: &str, close: bool) {
    out.extend_from_slice(format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n").as_bytes());
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
}

/// A client connection with its reader.
pub struct Client {
    pub stream: TcpStream,
    pub reader: ResponseReader,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            reader: ResponseReader::default(),
        })
    }

    /// Sends `wire` and reads the response into `body`.
    pub fn exchange(&mut self, wire: &[u8], body: &mut Vec<u8>) -> io::Result<Head> {
        self.stream.write_all(wire)?;
        self.reader.read(&mut self.stream, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out at most `step` bytes per call.
    struct Drip<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const TWO: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\
Connection: keep-alive\r\n\r\nok\nHTTP/1.1 422 Unprocessable Entity\r\ncontent-length: 5\r\n\
connection: close\r\n\r\n{\"a\"}";

    #[test]
    fn reads_back_to_back_responses_at_any_read_size() {
        for step in [1, 2, 7, 64, 4096] {
            let mut src = Drip { data: TWO, step };
            let mut reader = ResponseReader::default();
            let mut body = Vec::new();
            let a = reader.read(&mut src, &mut body).unwrap();
            assert_eq!((a.status, a.close), (200, false), "step {step}");
            assert_eq!(body, b"ok\n");
            assert_eq!(a.head_bytes, 88);
            let b = reader.read(&mut src, &mut body).unwrap();
            assert_eq!((b.status, b.close), (422, true), "step {step}");
            assert_eq!(body, b"{\"a\"}");
            assert!(
                reader.read(&mut src, &mut body).is_err(),
                "EOF after the last"
            );
        }
    }

    #[test]
    fn large_bodies_and_malformed_heads() {
        let mut raw = b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'x', 100_000));
        let mut body = Vec::new();
        let head = ResponseReader::default()
            .read(
                &mut Drip {
                    data: &raw,
                    step: 1000,
                },
                &mut body,
            )
            .unwrap();
        assert_eq!((head.status, body.len()), (200, 100_000));
        for bad in [
            &b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n"[..],
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
        ] {
            let mut src = Drip { data: bad, step: 5 };
            assert!(ResponseReader::default().read(&mut src, &mut body).is_err());
        }
    }

    #[test]
    fn chunked_encoding_round_trips() {
        let body = b"<a>hello chunked world</a>";
        let wire = encode_chunked("POST", "/v1/validate/x", body, &[3, 5, 1]);
        let text = String::from_utf8(wire).unwrap();
        let (head, rest) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Transfer-Encoding: chunked"));
        assert_eq!(
            rest,
            "3\r\n<a>\r\n5\r\nhello\r\n1\r\n \r\n11\r\nchunked world</a>\r\n0\r\n\r\n"
        );
        let plain = String::from_utf8(encode("GET", "/healthz", b"", true)).unwrap();
        assert_eq!(
            plain,
            "GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        );
    }
}
