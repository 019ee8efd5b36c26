//! The `pygb-wire/1` framing layer.
//!
//! The protocol is a line-oriented request/response exchange over a
//! byte stream (TCP in practice, anything `Read + Write` in tests).
//! Requests are single LF-terminated lines of whitespace-separated
//! tokens; the one exception is `BATCH <k>`, which is followed by `k`
//! request lines that are answered as a unit.
//!
//! Responses are length-prefixed so payloads may contain anything but
//! are still parseable without lookahead:
//!
//! ```text
//! OK <nbytes>\n<payload bytes>\n
//! OK <nbytes> WARN <k>\n<payload bytes>\n<lint line> ×k
//! OK <nbytes> [WARN <k>] ID r<N>\n...
//! ERR <code> <nbytes> [ID r<N>]\n<message bytes>\n
//! ```
//!
//! `<nbytes>` counts the payload only, not the trailing newline. The
//! optional `WARN <k>` section carries `k` single-line analyzer lints
//! after the payload — advisory findings that did not fail the request
//! (a `replace` with no mask, a complemented empty mask, a lossy
//! cast). Error codes are the closed set of [`ErrCode`] names; clients
//! switch on the code, not the message.
//!
//! The optional trailing `ID r<N>` token echoes the server-minted
//! request ID, the handle the observability verbs (`EXPLAIN rN`,
//! `TAIL`, `SLOW`) use to name a past request. It is strictly the last
//! header token, so `pygb-wire/1` stays backward compatible: parsers
//! that know the token read it via [`read_frame_tagged`]; the framing
//! of payload and warnings is unchanged either way.
//!
//! A frame goes out in one write: the header is built in a small
//! buffer and sent together with the payload (not copied) and the
//! trailing newline and warning lines through one `write_vectored`,
//! which on a socket is one `writev` and, with `TCP_NODELAY`, one
//! segment for a reply that fits in one. Partial writes resume where
//! they stopped. [`crate::client::Client`] sends each request line and
//! its newline the same way.
//!
//! Payloads are JSON. A float that is not finite is spelled as the JSON
//! string `"NaN"`, `"inf"` or `"-inf"` wherever a number would stand
//! (a `QUERY` distance or rank, an `EXPR` triple's value); every finite
//! value is the bare number `Display` writes.

// Reply path: no `unwrap`/`expect` (clippy.toml), no `format!` per part.
#![warn(
    clippy::disallowed_methods,
    clippy::format_collect,
    clippy::format_push_string
)]

use std::fmt;
use std::io::{self, BufRead, IoSlice, Read, Write};

use crate::reply::push_uint;

/// Protocol identifier sent back on `HELLO`.
pub const PROTOCOL: &str = "pygb-wire/1";

/// Hard cap on a request line (bytes), to bound memory per connection.
pub const MAX_LINE: usize = 1 << 20;

/// Hard cap on a response payload we are willing to read back.
pub const MAX_PAYLOAD: usize = 1 << 26;

/// The closed set of structured error codes a server can return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// The request line did not parse or referenced an unsupported verb.
    BadRequest,
    /// A named graph (or batch member graph) does not exist.
    NotFound,
    /// The server or tenant queue is at capacity; retry later.
    Overloaded,
    /// The request was admitted but waited past its deadline.
    Timeout,
    /// Execution failed server-side (semantics error, kernel error...).
    Internal,
}

impl ErrCode {
    /// Wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrCode::BadRequest => "bad-request",
            ErrCode::NotFound => "not-found",
            ErrCode::Overloaded => "overloaded",
            ErrCode::Timeout => "timeout",
            ErrCode::Internal => "internal",
        }
    }

    /// Parse a wire name back into a code.
    pub fn from_name(s: &str) -> Option<ErrCode> {
        Some(match s {
            "bad-request" => ErrCode::BadRequest,
            "not-found" => ErrCode::NotFound,
            "overloaded" => ErrCode::Overloaded,
            "timeout" => ErrCode::Timeout,
            "internal" => ErrCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One parsed response frame, as seen by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// `OK` with its payload.
    Ok(String),
    /// `OK` with a payload plus analyzer lints (`WARN` section).
    OkWarn(String, Vec<String>),
    /// `ERR` with code and message.
    Err(ErrCode, String),
}

impl Frame {
    /// Unwrap into `Result`, mapping `ERR` to `(code, message)`.
    /// Warnings are advisory, so `OkWarn` unwraps to its payload.
    pub fn into_result(self) -> Result<String, (ErrCode, String)> {
        match self {
            Frame::Ok(p) | Frame::OkWarn(p, _) => Ok(p),
            Frame::Err(c, m) => Err((c, m)),
        }
    }

    /// The analyzer lints attached to this frame (empty unless
    /// `OkWarn`).
    pub fn warnings(&self) -> &[String] {
        match self {
            Frame::OkWarn(_, w) => w,
            _ => &[],
        }
    }
}

/// Write an `OK` frame.
pub fn write_ok(w: &mut impl Write, payload: &str) -> io::Result<()> {
    write_ok_tagged(w, payload, &[], None)
}

/// Write an `OK` frame with a `WARN` section. Each warning becomes one
/// LF-terminated line after the payload; embedded newlines are
/// flattened so the frame stays parseable.
pub fn write_ok_warn(w: &mut impl Write, payload: &str, warnings: &[String]) -> io::Result<()> {
    write_ok_tagged(w, payload, warnings, None)
}

/// Write an `OK` frame carrying optional warnings and an optional
/// request-ID echo (`ID r<N>`, strictly the last header token).
pub fn write_ok_tagged(
    w: &mut impl Write,
    payload: &str,
    warnings: &[String],
    id: Option<u64>,
) -> io::Result<()> {
    let mut head = String::with_capacity(HEAD_CAPACITY);
    head.push_str("OK ");
    push_uint(&mut head, payload.len() as u64);
    if !warnings.is_empty() {
        head.push_str(" WARN ");
        push_uint(&mut head, warnings.len() as u64);
    }
    push_id(&mut head, id);
    // The payload's terminator, then one flattened line per warning.
    let mut tail = String::from("\n");
    for warning in warnings {
        tail.push_str(&warning.replace(['\n', '\r'], " "));
        tail.push('\n');
    }
    write_parts(
        w,
        &mut [
            IoSlice::new(head.as_bytes()),
            IoSlice::new(payload.as_bytes()),
            IoSlice::new(tail.as_bytes()),
        ],
    )
}

/// Write an `ERR` frame.
pub fn write_err(w: &mut impl Write, code: ErrCode, msg: &str) -> io::Result<()> {
    write_err_tagged(w, code, msg, None)
}

/// Write an `ERR` frame with an optional request-ID echo.
pub fn write_err_tagged(
    w: &mut impl Write,
    code: ErrCode,
    msg: &str,
    id: Option<u64>,
) -> io::Result<()> {
    let mut head = String::with_capacity(HEAD_CAPACITY);
    head.push_str("ERR ");
    head.push_str(code.name());
    head.push(' ');
    push_uint(&mut head, msg.len() as u64);
    push_id(&mut head, id);
    write_parts(
        w,
        &mut [
            IoSlice::new(head.as_bytes()),
            IoSlice::new(msg.as_bytes()),
            IoSlice::new(b"\n"),
        ],
    )
}

/// Room for the longest header: `ERR bad-request <n> ID r<N>\n`.
const HEAD_CAPACITY: usize = 64;

/// End a header: the optional ` ID r<N>` echo, then its newline.
fn push_id(head: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        head.push_str(" ID r");
        push_uint(head, id);
    }
    head.push('\n');
}

/// Send `parts` back to back with vectored writes — one call when the
/// sink takes everything — resuming after partial writes, then flush.
pub(crate) fn write_parts(w: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    IoSlice::advance_slices(&mut parts, 0); // drop leading empty parts
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one LF-terminated request line. Returns `None` on a clean EOF
/// before any byte, an error on oversized or EOF-truncated lines.
pub fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = r
        .by_ref()
        .take(MAX_LINE as u64)
        .read_line(&mut line)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if n == 0 {
        return Ok(None);
    }
    if !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            if n >= MAX_LINE {
                "request line too long"
            } else {
                "truncated request line"
            },
        ));
    }
    line.truncate(line.trim_end_matches(['\n', '\r']).len());
    Ok(Some(line))
}

/// Read one response frame (client side), discarding any request-ID
/// echo. See [`read_frame_tagged`] to observe it.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Frame> {
    read_frame_tagged(r).map(|(frame, _)| frame)
}

/// Parse a trailing `ID r<N>` token, which must be the last header
/// token. `Ok(None)` when `tok` is `None` (no echo present).
fn parse_id_tail<'a>(
    mut toks: impl Iterator<Item = &'a str>,
    tok: Option<&str>,
) -> io::Result<Option<u64>> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    match tok {
        None => Ok(None),
        Some("ID") => {
            let id = toks
                .next()
                .and_then(|t| t.strip_prefix('r'))
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("malformed ID token"))?;
            if toks.next().is_some() {
                return Err(bad("trailing tokens after ID"));
            }
            Ok(Some(id))
        }
        Some(_) => Err(bad("malformed frame header")),
    }
}

/// Read one response frame plus the server's request-ID echo, if the
/// header carried one (`ID r<N>`).
pub fn read_frame_tagged(r: &mut impl BufRead) -> io::Result<(Frame, Option<u64>)> {
    let header = read_line(r)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))?;
    let mut toks = header.split_ascii_whitespace();
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    match toks.next() {
        Some("OK") => {
            let n: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("malformed OK header"))?;
            let mut nwarn: usize = 0;
            let tail = match toks.next() {
                Some("WARN") => {
                    nwarn = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("malformed WARN count"))?;
                    toks.next()
                }
                other => other,
            };
            let id = parse_id_tail(&mut toks, tail)?;
            let payload = read_payload(r, n)?;
            if nwarn == 0 {
                return Ok((Frame::Ok(payload), id));
            }
            let mut warnings = Vec::with_capacity(nwarn);
            for _ in 0..nwarn {
                warnings.push(read_line(r)?.ok_or_else(|| bad("WARN section truncated by EOF"))?);
            }
            Ok((Frame::OkWarn(payload, warnings), id))
        }
        Some("ERR") => {
            let code = toks
                .next()
                .and_then(ErrCode::from_name)
                .ok_or_else(|| bad("malformed ERR code"))?;
            let n: usize = toks
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad("malformed ERR header"))?;
            let tail = toks.next();
            let id = parse_id_tail(&mut toks, tail)?;
            Ok((Frame::Err(code, read_payload(r, n)?), id))
        }
        _ => Err(bad("unknown frame type")),
    }
}

fn read_payload(r: &mut impl BufRead, n: usize) -> io::Result<String> {
    if n > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "payload too large",
        ));
    }
    let mut buf = vec![0u8; n + 1]; // payload + trailing '\n'
    r.read_exact(&mut buf)?;
    if buf.pop() != Some(b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "missing frame terminator",
        ));
    }
    String::from_utf8(buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn ok_frame_roundtrip() {
        let mut buf = Vec::new();
        write_ok(&mut buf, "{\"x\":1}\nline2").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame::Ok("{\"x\":1}\nline2".into())
        );
    }

    #[test]
    fn warn_frame_roundtrip() {
        let mut buf = Vec::new();
        write_ok_warn(
            &mut buf,
            "{\"x\":1}",
            &["lint one".to_string(), "lint\ntwo".to_string()],
        )
        .unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame::OkWarn(
                "{\"x\":1}".into(),
                vec!["lint one".into(), "lint two".into()]
            )
        );
        // No warnings degrades to a plain OK frame.
        let mut buf = Vec::new();
        write_ok_warn(&mut buf, "p", &[]).unwrap();
        assert_eq!(
            read_frame(&mut BufReader::new(&buf[..])).unwrap(),
            Frame::Ok("p".into())
        );
    }

    #[test]
    fn tagged_frames_roundtrip_and_stay_compatible() {
        // OK + ID.
        let mut buf = Vec::new();
        write_ok_tagged(&mut buf, "pong", &[], Some(42)).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame_tagged(&mut r).unwrap(),
            (Frame::Ok("pong".into()), Some(42))
        );
        // The ID-less reader still parses the frame (the echo is
        // strictly additive framing).
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Ok("pong".into()));

        // OK + WARN + ID: ID comes last.
        let mut buf = Vec::new();
        write_ok_tagged(&mut buf, "p", &["lint".to_string()], Some(7)).unwrap();
        assert!(buf.starts_with(b"OK 1 WARN 1 ID r7\n"));
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame_tagged(&mut r).unwrap(),
            (Frame::OkWarn("p".into(), vec!["lint".into()]), Some(7))
        );

        // ERR + ID.
        let mut buf = Vec::new();
        write_err_tagged(&mut buf, ErrCode::Timeout, "late", Some(9)).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame_tagged(&mut r).unwrap(),
            (Frame::Err(ErrCode::Timeout, "late".into()), Some(9))
        );

        // Untagged frames read back with no ID.
        let mut buf = Vec::new();
        write_ok(&mut buf, "x").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_frame_tagged(&mut r).unwrap().1, None);

        // Malformed ID tokens are rejected.
        for header in ["OK 1 ID x1\n1\n", "OK 1 ID r1 junk\n1\n", "OK 1 BOGUS\n1\n"] {
            let mut r = BufReader::new(header.as_bytes());
            assert!(read_frame_tagged(&mut r).is_err(), "accepted: {header:?}");
        }
    }

    /// A sink that counts write calls and accepts at most `per_call`
    /// bytes in each.
    struct Counting {
        bytes: Vec<u8>,
        calls: usize,
        per_call: usize,
    }

    impl Counting {
        fn new(per_call: usize) -> Counting {
            Counting {
                bytes: Vec::new(),
                calls: 0,
                per_call,
            }
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.per_call;
            for buf in bufs {
                let n = buf.len().min(room);
                self.bytes.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.per_call - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write_call() {
        let warnings = ["lint one".to_string(), "lint\ntwo".to_string()];
        let mut ok = Counting::new(usize::MAX);
        write_ok_tagged(&mut ok, "{\"x\":1}", &warnings, Some(12)).unwrap();
        assert_eq!(ok.calls, 1);
        assert_eq!(
            ok.bytes,
            b"OK 7 WARN 2 ID r12\n{\"x\":1}\nlint one\nlint two\n".to_vec()
        );

        let mut err = Counting::new(usize::MAX);
        write_err_tagged(&mut err, ErrCode::NotFound, "no graph", Some(3)).unwrap();
        assert_eq!(err.calls, 1);
        assert_eq!(err.bytes, b"ERR not-found 8 ID r3\nno graph\n".to_vec());

        // A sink that takes 7 bytes a call still gets the exact frames.
        let mut slow = Counting::new(7);
        write_ok_tagged(&mut slow, "{\"x\":1}", &warnings, Some(12)).unwrap();
        assert_eq!(slow.bytes, ok.bytes);
        let mut slow = Counting::new(7);
        write_err_tagged(&mut slow, ErrCode::NotFound, "no graph", Some(3)).unwrap();
        assert_eq!(slow.bytes, err.bytes);
        assert_eq!(slow.calls, err.bytes.len().div_ceil(7));

        // An empty payload is still framed.
        let mut empty = Counting::new(usize::MAX);
        write_ok(&mut empty, "").unwrap();
        assert_eq!((empty.calls, &empty.bytes[..]), (1, &b"OK 0\n\n"[..]));
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_an_error() {
        let mut stuck = Counting::new(0);
        let err = write_ok(&mut stuck, "p").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn err_frame_roundtrip() {
        let mut buf = Vec::new();
        write_err(&mut buf, ErrCode::Overloaded, "queue full").unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(
            read_frame(&mut r).unwrap(),
            Frame::Err(ErrCode::Overloaded, "queue full".into())
        );
    }

    #[test]
    fn every_code_roundtrips_by_name() {
        for code in [
            ErrCode::BadRequest,
            ErrCode::NotFound,
            ErrCode::Overloaded,
            ErrCode::Timeout,
            ErrCode::Internal,
        ] {
            assert_eq!(ErrCode::from_name(code.name()), Some(code));
        }
    }

    #[test]
    fn read_line_strips_crlf_and_detects_eof() {
        let mut r = BufReader::new(&b"LIST\r\n"[..]);
        assert_eq!(read_line(&mut r).unwrap(), Some("LIST".to_string()));
        assert_eq!(read_line(&mut r).unwrap(), None);
    }

    #[test]
    fn truncated_line_is_an_error() {
        let mut r = BufReader::new(&b"PING"[..]);
        assert!(read_line(&mut r).is_err());
    }
}
