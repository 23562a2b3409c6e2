//! The `sqipd` wire protocol: JSON-lines framing over TCP.
//!
//! Every message is one compact JSON object on one `\n`-terminated line,
//! tagged by a `"type"` field. Requests flow client → server, responses
//! server → client; responses carrying an `"id"` echo the job id of the
//! submit they answer, so a client may pipeline many jobs on one
//! connection and demultiplex by id.
//!
//! The payload types are the `sqip` crate's own serialized forms: a
//! submit carries an [`ExperimentSpec`] (the versioned wire schema), and
//! each `row` response carries a [`RunRecord`] — byte-identical to the
//! row the batch `ResultSet` serialization would hold, so streamed rows
//! reassemble into exactly the offline artifact.

use std::io::{self, BufRead};

use serde::{Deserialize, Serialize, Value};
use sqip::{ExperimentSpec, RunRecord};

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one experiment as a job.
    Submit {
        /// Client-chosen job id, echoed on every response for this job.
        id: String,
        /// What to simulate.
        spec: ExperimentSpec,
        /// Per-job wall-clock budget in milliseconds; `None` uses the
        /// server's default. `0` means no timeout.
        timeout_ms: Option<u64>,
    },
    /// Cooperatively cancel a previously submitted job.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Request a [`Response::Stats`] snapshot.
    Stats,
    /// Ask the server to shut down (drains nothing: queued and running
    /// jobs are cancelled).
    Shutdown,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // one message per protocol event, far off the hot path; boxing would ripple through the wire API
pub enum Response {
    /// The job passed validation and entered the queue.
    Accepted {
        /// The job id.
        id: String,
        /// How many sweep cells (= result rows) the job will produce.
        cells: usize,
    },
    /// Admission control turned the job away (queue full, job too large,
    /// or server shutting down). The connection stays usable; resubmit
    /// later.
    Rejected {
        /// The job id.
        id: String,
        /// Why the job was not admitted.
        reason: String,
    },
    /// One finished cell's result row, streamed while the job is still
    /// running. `record` is bit-identical to the row the final batch
    /// `ResultSet` holds at `index`.
    Row {
        /// The job id.
        id: String,
        /// The cell's index in the experiment's cell order.
        index: usize,
        /// The cell's result row.
        record: RunRecord,
    },
    /// The job ran to completion; all rows have been streamed.
    Done {
        /// The job id.
        id: String,
        /// Total rows streamed (= the job's cell count).
        rows: usize,
        /// The server's global completion sequence number (monotonic
        /// across all jobs — observable scheduling order).
        seq: u64,
        /// Wall-clock milliseconds from acceptance to completion.
        wall_ms: u64,
    },
    /// The job stopped early: client cancel, timeout, disconnect, or
    /// server shutdown ( `reason` says which).
    Cancelled {
        /// The job id.
        id: String,
        /// Why the job stopped.
        reason: String,
    },
    /// The request failed (malformed line, spec that does not validate,
    /// unknown job id, or a job whose simulation failed). `id` is empty
    /// for errors not attributable to a job.
    Error {
        /// The job id (may be empty).
        id: String,
        /// The failure.
        reason: String,
    },
    /// Answer to [`Request::Ping`].
    Pong,
    /// A point-in-time server statistics snapshot.
    Stats(StatsSnapshot),
    /// Acknowledgement of [`Request::Shutdown`].
    ShuttingDown,
}

/// A point-in-time view of the server's counters (the observable side of
/// the bounded-queue admission story).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Jobs submitted (valid or not).
    pub submitted: u64,
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs turned away by admission control.
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled (client cancel, timeout, disconnect, shutdown).
    pub cancelled: u64,
    /// Jobs that failed in simulation or validation.
    pub failed: u64,
    /// Jobs queued right now.
    pub queue_len: u64,
    /// The queue's capacity (the admission bound).
    pub queue_capacity: u64,
    /// Peak queue occupancy since start — never exceeds
    /// `queue_capacity`; the memory-boundedness observable.
    pub queue_high_water: u64,
    /// Jobs executing right now (bounded by `workers`).
    pub running: u64,
    /// Worker threads configured — with `queue_capacity`, the sizing a
    /// load generator needs to provoke admission control.
    pub workers: u64,
    /// Submits turned away by per-client rate limiting (a subset of
    /// `rejected`). Always `0` when the server has no `--rate`.
    pub rate_limited: u64,
    /// Per-client token buckets currently tracked (one per connection
    /// that has submitted under a rate limit; dropped on disconnect).
    pub rate_clients: u64,
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// Checks that `value` (an object) holds no keys beyond `known` —
/// protocol messages are rejected, not silently pruned, when they carry
/// fields this build does not understand.
fn reject_unknown(value: &Value, what: &str, known: &[&str]) -> Result<(), serde::Error> {
    let Value::Object(fields) = value else {
        return Err(serde::Error::custom(format!("{what}: expected an object")));
    };
    for (key, _) in fields {
        if !known.contains(&key.as_str()) {
            return Err(serde::Error::custom(format!(
                "unknown field `{key}` in {what} (known: {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

fn tag(value: &Value) -> Result<&str, serde::Error> {
    match value.get("type") {
        Some(Value::Str(t)) => Ok(t),
        _ => Err(serde::Error::custom("message has no string `type` field")),
    }
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        match self {
            Request::Submit {
                id,
                spec,
                timeout_ms,
            } => {
                let mut fields = vec![
                    ("type", s("submit")),
                    ("id", s(id)),
                    ("spec", spec.serialize()),
                ];
                if let Some(ms) = timeout_ms {
                    fields.push(("timeout_ms", Value::U64(*ms)));
                }
                obj(fields)
            }
            Request::Cancel { id } => obj(vec![("type", s("cancel")), ("id", s(id))]),
            Request::Ping => obj(vec![("type", s("ping"))]),
            Request::Stats => obj(vec![("type", s("stats"))]),
            Request::Shutdown => obj(vec![("type", s("shutdown"))]),
        }
    }
}

impl Deserialize for Request {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        match tag(value)? {
            "submit" => {
                reject_unknown(value, "submit", &["type", "id", "spec", "timeout_ms"])?;
                Ok(Request::Submit {
                    id: serde::field(value, "id")?,
                    spec: serde::field(value, "spec")?,
                    timeout_ms: match value.get("timeout_ms") {
                        None | Some(Value::Null) => None,
                        Some(v) => Some(u64::deserialize(v)?),
                    },
                })
            }
            "cancel" => {
                reject_unknown(value, "cancel", &["type", "id"])?;
                Ok(Request::Cancel {
                    id: serde::field(value, "id")?,
                })
            }
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(serde::Error::custom(format!(
                "unknown request type `{other}`"
            ))),
        }
    }
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        match self {
            Response::Accepted { id, cells } => obj(vec![
                ("type", s("accepted")),
                ("id", s(id)),
                ("cells", Value::U64(*cells as u64)),
            ]),
            Response::Rejected { id, reason } => obj(vec![
                ("type", s("rejected")),
                ("id", s(id)),
                ("reason", s(reason)),
            ]),
            Response::Row { id, index, record } => obj(vec![
                ("type", s("row")),
                ("id", s(id)),
                ("index", Value::U64(*index as u64)),
                ("record", record.serialize()),
            ]),
            Response::Done {
                id,
                rows,
                seq,
                wall_ms,
            } => obj(vec![
                ("type", s("done")),
                ("id", s(id)),
                ("rows", Value::U64(*rows as u64)),
                ("seq", Value::U64(*seq)),
                ("wall_ms", Value::U64(*wall_ms)),
            ]),
            Response::Cancelled { id, reason } => obj(vec![
                ("type", s("cancelled")),
                ("id", s(id)),
                ("reason", s(reason)),
            ]),
            Response::Error { id, reason } => obj(vec![
                ("type", s("error")),
                ("id", s(id)),
                ("reason", s(reason)),
            ]),
            Response::Pong => obj(vec![("type", s("pong"))]),
            Response::Stats(snapshot) => {
                let mut all = vec![("type".to_string(), s("stats"))];
                if let Value::Object(mut fields) = snapshot.serialize() {
                    all.append(&mut fields);
                }
                Value::Object(all)
            }
            Response::ShuttingDown => obj(vec![("type", s("shutting-down"))]),
        }
    }
}

impl Deserialize for Response {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        match tag(value)? {
            "accepted" => Ok(Response::Accepted {
                id: serde::field(value, "id")?,
                cells: serde::field(value, "cells")?,
            }),
            "rejected" => Ok(Response::Rejected {
                id: serde::field(value, "id")?,
                reason: serde::field(value, "reason")?,
            }),
            "row" => Ok(Response::Row {
                id: serde::field(value, "id")?,
                index: serde::field(value, "index")?,
                record: serde::field(value, "record")?,
            }),
            "done" => Ok(Response::Done {
                id: serde::field(value, "id")?,
                rows: serde::field(value, "rows")?,
                seq: serde::field(value, "seq")?,
                wall_ms: serde::field(value, "wall_ms")?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                id: serde::field(value, "id")?,
                reason: serde::field(value, "reason")?,
            }),
            "error" => Ok(Response::Error {
                id: serde::field(value, "id")?,
                reason: serde::field(value, "reason")?,
            }),
            "pong" => Ok(Response::Pong),
            "stats" => Ok(Response::Stats(StatsSnapshot::deserialize(value)?)),
            "shutting-down" => Ok(Response::ShuttingDown),
            other => Err(serde::Error::custom(format!(
                "unknown response type `{other}`"
            ))),
        }
    }
}

/// Renders a message as one protocol line (no trailing newline; compact
/// JSON never contains one).
pub fn to_line<T: Serialize>(message: &T) -> String {
    serde_json::to_string(message).unwrap_or_else(|_| {
        // Only non-finite floats can fail serialization. Emit a
        // well-formed error line instead of panicking the writer
        // thread mid-connection.
        "{\"type\":\"error\",\"id\":\"\",\"reason\":\"internal: unserializable message\"}"
            .to_string()
    })
}

/// Parses one protocol line.
///
/// # Errors
///
/// Returns the parse/shape error for malformed lines.
pub fn from_line<T: Deserialize>(line: &str) -> Result<T, serde::Error> {
    serde_json::from_str(line.trim())
}

/// What [`read_bounded_line`] found.
pub(crate) enum LineRead {
    /// A line (possibly unterminated at end of stream) is in the buffer.
    Line,
    /// The line was longer than the limit; it was read and dropped.
    TooLong,
    /// The stream ended.
    Eof,
}

/// Reads one `\n`-terminated line into `buf`, keeping at most `limit`
/// bytes, newline included: the rest of a longer line is read a bounded
/// chunk at a time and dropped, so the stream stays framed after it.
/// Every line reader in this crate goes through here (the request
/// reader, [`Connection::recv`](crate::Connection::recv) and journal
/// replay), so no peer or file can make one buffer without bound.
pub(crate) fn read_bounded_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> io::Result<LineRead> {
    let cap = limit as u64;
    buf.clear();
    if io::Read::take(&mut *reader, cap).read_until(b'\n', buf)? == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.len() < limit || buf.ends_with(b"\n") {
        return Ok(LineRead::Line);
    }
    loop {
        buf.clear();
        if io::Read::take(&mut *reader, cap).read_until(b'\n', buf)? == 0 || buf.ends_with(b"\n") {
            buf.clear();
            return Ok(LineRead::TooLong);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqip::ExperimentSpec;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                id: "j1".into(),
                spec: ExperimentSpec::new(["gzip"], ["ideal-oracle"]),
                timeout_ms: Some(500),
            },
            Request::Submit {
                id: "j2".into(),
                spec: ExperimentSpec::new(["mix:1:10k"], ["indexed-3-fwd+dly"]),
                timeout_ms: None,
            },
            Request::Cancel { id: "j1".into() },
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = to_line(&req);
            assert!(!line.contains('\n'));
            assert_eq!(from_line::<Request>(&line).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Accepted {
                id: "j".into(),
                cells: 4,
            },
            Response::Rejected {
                id: "j".into(),
                reason: "queue full".into(),
            },
            Response::Done {
                id: "j".into(),
                rows: 4,
                seq: 17,
                wall_ms: 250,
            },
            Response::Cancelled {
                id: "j".into(),
                reason: "timeout".into(),
            },
            Response::Error {
                id: String::new(),
                reason: "bad line".into(),
            },
            Response::Pong,
            Response::Stats(StatsSnapshot {
                submitted: 3,
                queue_capacity: 16,
                ..StatsSnapshot::default()
            }),
            Response::ShuttingDown,
        ];
        for resp in resps {
            assert_eq!(from_line::<Response>(&to_line(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_types_and_fields_error() {
        assert!(from_line::<Request>(r#"{"type":"frobnicate"}"#).is_err());
        assert!(from_line::<Request>(r#"{"id":"x"}"#).is_err());
        assert!(from_line::<Request>(r#"{"type":"cancel","id":"x","extra":1}"#).is_err());
        assert!(from_line::<Response>(r#"{"type":"nope"}"#).is_err());
        assert!(from_line::<Request>("not json").is_err());
    }
}
