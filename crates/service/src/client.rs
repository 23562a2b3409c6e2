//! A minimal blocking client for the `sqipd` protocol, used by the
//! loader, the integration tests, and anyone scripting a server.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use sqip::{ExperimentSpec, RunRecord};

use crate::protocol::{from_line, read_bounded_line, to_line, LineRead, Request, Response};
use crate::server::MAX_REQUEST_LINE;

/// The longest response line [`Connection::recv`] reads, newline
/// included. A response echoes at most a request's job id and one
/// request-derived string (a bad workload name, say) in its reason, and
/// JSON escaping never lengthens a string it re-serializes, so four
/// request lines' worth leaves margin; rows are a few hundred bytes.
pub const MAX_RESPONSE_LINE: usize = 4 * MAX_REQUEST_LINE;

/// One blocking protocol connection.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// How a submitted job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Ran to completion; every row arrived.
    Done,
    /// Admission control turned it away (retryable).
    Rejected(String),
    /// Cancelled (client cancel, timeout, disconnect, shutdown).
    Cancelled(String),
    /// Validation or simulation failure.
    Failed(String),
}

/// Everything a job streamed back.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Terminal status (`Done` only if the `done` response arrived).
    pub status: Option<JobStatus>,
    /// Cell count promised by the `accepted` response.
    pub cells: Option<usize>,
    /// Streamed rows in arrival order, as `(cell index, record)`.
    pub rows: Vec<(usize, RunRecord)>,
    /// Completion sequence number from `done`.
    pub seq: u64,
    /// Server-side wall milliseconds from `done`.
    pub wall_ms: u64,
}

impl JobOutcome {
    /// Whether the job completed with exactly its promised rows, each
    /// cell index appearing exactly once.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        if self.status != Some(JobStatus::Done) {
            return false;
        }
        let Some(cells) = self.cells else {
            return false;
        };
        if self.rows.len() != cells {
            return false;
        }
        let mut seen = vec![false; cells];
        for (index, _) in &self.rows {
            if *index >= cells || seen[*index] {
                return false;
            }
            seen[*index] = true;
        }
        true
    }
}

impl Connection {
    /// Connects to a `sqipd` server.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Bounds how long [`recv`](Self::recv) blocks; `None` restores
    /// blocking reads. A timed-out read surfaces as an `io::Error` of
    /// kind `WouldBlock`/`TimedOut`.
    ///
    /// # Errors
    ///
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let line = to_line(request);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Receives the next response line (blocking).
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server closed the connection;
    /// `InvalidData` for unparseable lines and for lines longer than
    /// [`MAX_RESPONSE_LINE`] (which are read and dropped, so the next
    /// call sees the next line); other socket errors as-is.
    pub fn recv(&mut self) -> io::Result<Response> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut line = Vec::new();
        loop {
            match read_bounded_line(&mut self.reader, &mut line, MAX_RESPONSE_LINE)? {
                LineRead::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                LineRead::TooLong => {
                    return Err(invalid(format!(
                        "response line longer than {MAX_RESPONSE_LINE} bytes"
                    )));
                }
                LineRead::Line => {}
            }
            let text = std::str::from_utf8(&line).map_err(|err| invalid(err.to_string()))?;
            if text.trim().is_empty() {
                continue;
            }
            return from_line(text).map_err(|err| invalid(err.to_string()));
        }
    }

    /// Submits one job and blocks until its terminal response, folding
    /// every streamed row into the returned [`JobOutcome`]. Responses
    /// for other job ids on this connection are ignored, so reserve a
    /// connection per in-flight job when using this helper.
    ///
    /// # Errors
    ///
    /// Propagates socket and framing failures.
    pub fn run_job(
        &mut self,
        id: &str,
        spec: &ExperimentSpec,
        timeout_ms: Option<u64>,
    ) -> io::Result<JobOutcome> {
        self.send(&Request::Submit {
            id: id.to_string(),
            spec: spec.clone(),
            timeout_ms,
        })?;
        let mut outcome = JobOutcome::default();
        loop {
            match self.recv()? {
                Response::Accepted { id: rid, cells } if rid == id => {
                    outcome.cells = Some(cells);
                }
                Response::Row {
                    id: rid,
                    index,
                    record,
                } if rid == id => outcome.rows.push((index, record)),
                Response::Done {
                    id: rid,
                    seq,
                    wall_ms,
                    ..
                } if rid == id => {
                    outcome.status = Some(JobStatus::Done);
                    outcome.seq = seq;
                    outcome.wall_ms = wall_ms;
                    return Ok(outcome);
                }
                Response::Rejected { id: rid, reason } if rid == id => {
                    outcome.status = Some(JobStatus::Rejected(reason));
                    return Ok(outcome);
                }
                Response::Cancelled { id: rid, reason } if rid == id => {
                    outcome.status = Some(JobStatus::Cancelled(reason));
                    return Ok(outcome);
                }
                Response::Error { id: rid, reason } if rid == id || rid.is_empty() => {
                    outcome.status = Some(JobStatus::Failed(reason));
                    return Ok(outcome);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot peer that writes `bytes` to the first connection and
    /// closes it.
    fn serve_bytes(bytes: Vec<u8>) -> (Connection, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&bytes).unwrap();
        });
        (Connection::connect(addr).unwrap(), peer)
    }

    #[test]
    fn recv_refuses_an_over_long_line_and_keeps_framing() {
        let mut bytes = vec![b'x'; MAX_RESPONSE_LINE];
        bytes.extend_from_slice(b"\n");
        bytes.extend_from_slice(to_line(&Response::Pong).as_bytes());
        bytes.extend_from_slice(b"\n");
        let (mut conn, peer) = serve_bytes(bytes);
        let err = conn.recv().expect_err("over-long line must not parse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("longer than"), "{err}");
        assert_eq!(
            conn.recv().unwrap(),
            Response::Pong,
            "the next line still reads"
        );
        peer.join().unwrap();
        let eof = conn.recv().expect_err("peer closed");
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }
}
