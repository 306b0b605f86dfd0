//! Minimal hardened HTTP/1.1 layer over `std::net`.
//!
//! This is deliberately not a general HTTP implementation: it parses
//! exactly the subset the service speaks, under explicit byte budgets, and
//! treats everything else as a typed protocol error. The parser is a pure
//! function over a byte buffer (`parse_head`), so every rejection path is
//! unit-testable without sockets; the socket-facing reader
//! ([`read_request`]) adds the *time* budget — an absolute deadline
//! enforced by shrinking `set_read_timeout` as the deadline approaches,
//! which is what defeats slowloris drips.
//!
//! Budgets and failures:
//!
//! | condition                         | error                    | status |
//! |-----------------------------------|--------------------------|--------|
//! | head larger than [`Limits::max_head_bytes`] | `HeadTooLarge` | 431 |
//! | body larger than [`Limits::max_body_bytes`] | `BodyTooLarge` | 413 |
//! | malformed request line / headers  | `Malformed`              | 400    |
//! | unsupported method                | `MethodNotAllowed`       | 405    |
//! | chunked/unknown transfer encoding | `Unsupported`            | 501    |
//! | read deadline exceeded            | `Timeout`                | 408    |
//! | peer reset / EOF mid-request      | `Disconnected`           | —      |

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Byte budgets for a single request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max bytes for the request line + headers (incl. the blank line).
    pub max_head_bytes: usize,
    /// Max bytes for the declared body.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// Typed protocol failure; maps 1:1 onto a response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Headers exceeded the byte budget.
    HeadTooLarge,
    /// Declared or actual body exceeded the byte budget.
    BodyTooLarge,
    /// Bytes that are not a well-formed HTTP/1.1 request.
    Malformed(&'static str),
    /// A verb the service does not speak.
    MethodNotAllowed,
    /// A feature (chunked encoding, HTTP/2 preface, …) we refuse.
    Unsupported(&'static str),
    /// The per-socket read deadline expired before a full request arrived.
    Timeout,
    /// The peer vanished (EOF or reset) before a full request arrived.
    Disconnected,
}

impl HttpError {
    /// Status code this error answers with (`Disconnected` has none — the
    /// socket is gone).
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::HeadTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::Malformed(_) => Some(400),
            HttpError::MethodNotAllowed => Some(405),
            HttpError::Unsupported(_) => Some(501),
            HttpError::Timeout => Some(408),
            HttpError::Disconnected => None,
        }
    }

    /// Short machine-readable reason used in JSON error bodies.
    pub fn reason(&self) -> &'static str {
        match self {
            HttpError::HeadTooLarge => "head-too-large",
            HttpError::BodyTooLarge => "body-too-large",
            HttpError::Malformed(_) => "malformed",
            HttpError::MethodNotAllowed => "method-not-allowed",
            HttpError::Unsupported(_) => "unsupported",
            HttpError::Timeout => "timeout",
            HttpError::Disconnected => "disconnected",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::Unsupported(what) => write!(f, "unsupported: {what}"),
            other => f.write_str(other.reason()),
        }
    }
}

impl std::error::Error for HttpError {}

/// The only verbs the service speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read-only endpoints (`/healthz`, `/readyz`, `/statz`).
    Get,
    /// Inference (`/assign`) and control (`/shutdown`).
    Post,
}

/// A parsed request head plus its (already length-checked) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Parsed verb.
    pub method: Method,
    /// Request target, e.g. `/assign` (query strings are not split off —
    /// no endpoint takes one).
    pub path: String,
    /// Declared body length (0 when absent).
    pub content_length: usize,
    /// The body bytes, exactly `content_length` long.
    pub body: Vec<u8>,
    /// Sanitized `x-request-id` header, when the client sent a valid one
    /// (≤ [`MAX_REQUEST_ID_LEN`] chars of `[A-Za-z0-9._-]`). Echoed back
    /// on responses and attached to trace exemplars.
    pub request_id: Option<String>,
}

/// Longest client request id accepted; longer or invalid ids are
/// ignored rather than rejected (the id is observability metadata, not
/// an input).
pub const MAX_REQUEST_ID_LEN: usize = 64;

/// Validates a client-supplied request id: 1..=64 chars, each
/// alphanumeric or `.`/`_`/`-`.
fn valid_request_id(value: &str) -> bool {
    !value.is_empty()
        && value.len() <= MAX_REQUEST_ID_LEN
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// What [`parse_head`] concluded about a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum HeadParse {
    /// Not enough bytes yet — keep reading (buffer is still within budget).
    Incomplete,
    /// A complete head: parsed request plus the byte offset where the body
    /// starts in the buffer.
    Complete {
        /// Parsed request with an empty body (caller fills it).
        request: Request,
        /// Offset of the first body byte within the scanned buffer.
        body_start: usize,
    },
}

/// Scans `buf` for a complete `\r\n\r\n`-terminated head and validates it.
/// Pure function: no I/O, no clock. `Incomplete` is only returned while
/// the buffer is under `limits.max_head_bytes`; once over, the verdict is
/// `HeadTooLarge` regardless of content.
///
/// # Errors
///
/// Any [`HttpError`] variant except `Timeout`/`Disconnected` (those are
/// I/O-level, not parse-level).
pub fn parse_head(buf: &[u8], limits: &Limits) -> Result<HeadParse, HttpError> {
    // Find the head terminator within budget. Scanning is capped so a
    // gigantic buffer costs at most max_head_bytes + 3 comparisons.
    let scan_end = buf.len().min(limits.max_head_bytes + 3);
    let head_end = buf
        .get(..scan_end)
        .unwrap_or(buf)
        .windows(4)
        .position(|w| w == b"\r\n\r\n");
    let head_end = match head_end {
        Some(pos) => pos,
        None => {
            if buf.len() > limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            return Ok(HeadParse::Incomplete);
        }
    };
    if head_end + 4 > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge);
    }
    let head = buf.get(..head_end).ok_or(HttpError::Malformed("head bounds"))?;
    let head = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8"))?;

    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let verb = parts.next().ok_or(HttpError::Malformed("missing method"))?;
    let path = parts.next().ok_or(HttpError::Malformed("missing target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("missing version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("request line has extra fields"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed("unknown HTTP version"));
    }
    let method = match verb {
        "GET" => Method::Get,
        "POST" => Method::Post,
        // Well-formed verbs we refuse get 405; line noise gets 400.
        "PUT" | "DELETE" | "HEAD" | "OPTIONS" | "PATCH" | "TRACE" | "CONNECT" => {
            return Err(HttpError::MethodNotAllowed)
        }
        _ => return Err(HttpError::Malformed("unrecognized method token")),
    };
    if !path.starts_with('/') {
        return Err(HttpError::Malformed("target must be origin-form"));
    }

    let mut content_length: usize = 0;
    let mut request_id: Option<String> = None;
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        let name = name.trim();
        let value = value.trim();
        if name.is_empty() || name.contains(|c: char| c.is_ascii_whitespace()) {
            return Err(HttpError::Malformed("bad header name"));
        }
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("unparseable content-length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Unsupported("transfer-encoding"));
        } else if name.eq_ignore_ascii_case("expect") {
            return Err(HttpError::Unsupported("expect"));
        } else if name.eq_ignore_ascii_case("x-request-id") && valid_request_id(value) {
            request_id = Some(value.to_string());
        }
    }
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    if method == Method::Get && content_length != 0 {
        return Err(HttpError::Malformed("GET with a body"));
    }
    Ok(HeadParse::Complete {
        request: Request {
            method,
            path: path.to_string(),
            content_length,
            body: Vec::new(),
            request_id,
        },
        body_start: head_end + 4,
    })
}

/// Translates an I/O failure during a socket read into a protocol error.
fn read_err(e: &std::io::Error) -> HttpError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Disconnected,
    }
}

/// Arms the socket's read timeout with whatever time remains until
/// `deadline`, or fails with `Timeout` when none does.
fn arm_deadline(stream: &TcpStream, deadline: Instant) -> Result<(), HttpError> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or(HttpError::Timeout)?;
    stream
        .set_read_timeout(Some(remaining))
        .map_err(|_| HttpError::Disconnected)
}

/// Reads one full request from the stream under byte *and* time budgets.
///
/// The deadline is absolute: a client dripping one byte per second makes
/// no progress against it, which is the slowloris defence. Reads happen in
/// small chunks so the budget check runs often.
///
/// # Errors
///
/// All [`HttpError`] variants.
pub fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
    deadline: Instant,
) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 2048];
    loop {
        match parse_head(&buf, limits)? {
            HeadParse::Complete {
                mut request,
                body_start,
            } => {
                let mut body: Vec<u8> = buf.get(body_start..).unwrap_or(&[]).to_vec();
                if body.len() > request.content_length {
                    // Pipelined extra bytes: refuse rather than desync.
                    return Err(HttpError::Malformed("bytes beyond declared body"));
                }
                while body.len() < request.content_length {
                    arm_deadline(stream, deadline)?;
                    let want = (request.content_length - body.len()).min(chunk.len());
                    let dst = chunk.get_mut(..want).ok_or(HttpError::Disconnected)?;
                    match stream.read(dst) {
                        Ok(0) => return Err(HttpError::Disconnected),
                        Ok(n) => body.extend_from_slice(dst.get(..n).unwrap_or(&[])),
                        Err(e) => return Err(read_err(&e)),
                    }
                }
                request.body = body;
                return Ok(request);
            }
            HeadParse::Incomplete => {
                arm_deadline(stream, deadline)?;
                match stream.read(&mut chunk) {
                    Ok(0) => {
                        return Err(if buf.is_empty() {
                            HttpError::Disconnected
                        } else {
                            HttpError::Malformed("EOF mid-head")
                        })
                    }
                    Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                    Err(e) => return Err(read_err(&e)),
                }
            }
        }
    }
}

/// Serializes and sends a response. Body is always sent with an exact
/// `Content-Length` and `Connection: close` — the service is deliberately
/// one-request-per-connection, which keeps the parser state machine
/// trivial and leak-free.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // Bound the write too: a peer that stops draining must not wedge a
    // worker forever.
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits {
            max_head_bytes: 256,
            max_body_bytes: 64,
        }
    }

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_head(buf, &limits()).unwrap() {
            HeadParse::Complete {
                request,
                body_start,
            } => (request, body_start),
            HeadParse::Incomplete => panic!("expected complete head"),
        }
    }

    #[test]
    fn parses_minimal_get() {
        let (req, body_start) = complete(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.content_length, 0);
        assert_eq!(body_start, 34);
    }

    #[test]
    fn parses_post_with_length() {
        let (req, _) = complete(b"POST /assign HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.content_length, 10);
    }

    #[test]
    fn incomplete_until_terminator() {
        assert_eq!(
            parse_head(b"GET /healthz HTT", &limits()).unwrap(),
            HeadParse::Incomplete
        );
        assert_eq!(
            parse_head(b"GET /x HTTP/1.1\r\nhost: y\r\n", &limits()).unwrap(),
            HeadParse::Incomplete
        );
    }

    #[test]
    fn oversized_head_rejected_even_without_terminator() {
        let big = vec![b'A'; 300];
        assert_eq!(parse_head(&big, &limits()), Err(HttpError::HeadTooLarge));
        // And with a terminator but past budget:
        let mut long = b"GET /x HTTP/1.1\r\npad: ".to_vec();
        long.extend(std::iter::repeat_n(b'p', 250));
        long.extend(b"\r\n\r\n");
        assert_eq!(parse_head(&long, &limits()), Err(HttpError::HeadTooLarge));
    }

    #[test]
    fn oversized_declared_body_rejected_before_reading_it() {
        let buf = b"POST /assign HTTP/1.1\r\ncontent-length: 9999\r\n\r\n";
        assert_eq!(parse_head(buf, &limits()), Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn garbage_is_malformed_not_panic() {
        for bad in [
            &b"\x00\xffgarbage\r\n\r\n"[..],
            &b"NOT-HTTP AT ALL\r\n\r\n"[..],
            &b"GET\r\n\r\n"[..],
            &b"GET /x\r\n\r\n"[..],
            &b"GET /x HTTP/9.9\r\n\r\n"[..],
            &b"GET /x HTTP/1.1 extra\r\n\r\n"[..],
            &b"GET x HTTP/1.1\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\n: empty-name\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\ncontent-length: -4\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\ncontent-length: abc\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\ncontent-length: 5\r\n\r\n"[..],
        ] {
            match parse_head(bad, &limits()) {
                Err(HttpError::Malformed(_)) => {}
                other => panic!("{:?} -> {:?}", String::from_utf8_lossy(bad), other),
            }
        }
    }

    #[test]
    fn unknown_verbs_distinguish_known_from_noise() {
        assert_eq!(
            parse_head(b"DELETE /x HTTP/1.1\r\n\r\n", &limits()),
            Err(HttpError::MethodNotAllowed)
        );
        assert!(matches!(
            parse_head(b"BLAH /x HTTP/1.1\r\n\r\n", &limits()),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn chunked_encoding_refused() {
        assert_eq!(
            parse_head(
                b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                &limits()
            ),
            Err(HttpError::Unsupported("transfer-encoding"))
        );
    }

    #[test]
    fn error_status_mapping_is_total() {
        assert_eq!(HttpError::HeadTooLarge.status(), Some(431));
        assert_eq!(HttpError::BodyTooLarge.status(), Some(413));
        assert_eq!(HttpError::Malformed("x").status(), Some(400));
        assert_eq!(HttpError::MethodNotAllowed.status(), Some(405));
        assert_eq!(HttpError::Unsupported("x").status(), Some(501));
        assert_eq!(HttpError::Timeout.status(), Some(408));
        assert_eq!(HttpError::Disconnected.status(), None);
    }
}
