//! Minimal blocking client for `pygb-wire/1`.
//!
//! Used by the example, the integration tests, and the closed-loop
//! load generator. One request in flight per connection; open several
//! clients for concurrency.

use std::io::{self, BufReader, IoSlice, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{self, ErrCode, Frame};

/// A connected `pygb-wire/1` client.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    last_id: Option<u64>,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            last_id: None,
        })
    }

    /// The request ID (`rN`) the server echoed on the most recent
    /// response, if any — the handle to pass to `EXPLAIN`.
    pub fn last_request_id(&self) -> Option<u64> {
        self.last_id
    }

    /// Bound how long a single exchange may block on the socket.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_write_timeout(timeout)?;
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one request line and read the response frame.
    pub fn request(&mut self, line: &str) -> io::Result<Frame> {
        debug_assert!(!line.contains('\n'), "request lines are single lines");
        // Line and newline in one write, so the server wakes once.
        wire::write_parts(
            &mut self.writer,
            &mut [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")],
        )?;
        let (frame, id) = wire::read_frame_tagged(&mut self.reader)?;
        self.last_id = id;
        Ok(frame)
    }

    /// Like [`Client::request`] but maps `ERR` frames to `Err`.
    /// Analyzer warnings, if any, are discarded — use
    /// [`Client::request_with_warnings`] to observe them.
    pub fn request_ok(&mut self, line: &str) -> io::Result<String> {
        self.request_with_warnings(line).map(|(payload, _)| payload)
    }

    /// Send one request and split the response into its payload and
    /// the analyzer lints from the frame's `WARN` section (empty when
    /// the server raised none), mapping `ERR` frames to `Err`.
    pub fn request_with_warnings(&mut self, line: &str) -> io::Result<(String, Vec<String>)> {
        match self.request(line)? {
            Frame::Ok(payload) => Ok((payload, Vec::new())),
            Frame::OkWarn(payload, warnings) => Ok((payload, warnings)),
            Frame::Err(code, msg) => Err(io::Error::other(format!("{code}: {msg}"))),
        }
    }

    /// Identify this connection's tenant.
    pub fn hello(&mut self, tenant: &str) -> io::Result<String> {
        self.request_ok(&format!("HELLO {tenant}"))
    }

    /// Liveness check.
    pub fn ping(&mut self) -> io::Result<String> {
        self.request_ok("PING")
    }

    /// Catalog listing (JSON array of snapshot descriptors).
    pub fn list(&mut self) -> io::Result<String> {
        self.request_ok("LIST")
    }

    /// Metrics snapshot (JSON).
    pub fn stats(&mut self) -> io::Result<String> {
        self.request_ok("STATS")
    }

    /// Send a `BATCH` of request lines, answered as one frame.
    pub fn batch(&mut self, lines: &[&str]) -> io::Result<Frame> {
        let mut msg = format!("BATCH {}\n", lines.len());
        for line in lines {
            debug_assert!(!line.contains('\n'));
            msg.push_str(line);
            msg.push('\n');
        }
        self.writer.write_all(msg.as_bytes())?;
        self.writer.flush()?;
        let (frame, id) = wire::read_frame_tagged(&mut self.reader)?;
        self.last_id = id;
        Ok(frame)
    }
}

/// Convenience: did this frame shed load (overloaded or timeout)?
pub fn is_shed(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::Err(ErrCode::Overloaded, _) | Frame::Err(ErrCode::Timeout, _)
    )
}
