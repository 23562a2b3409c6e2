//! The persistent job journal: crash-safe accounting of what `sqipd`
//! has promised to run.
//!
//! The server's queue is in-memory; without a journal, killing the
//! process silently drops every queued and running job. With one, each
//! admitted job appends an `admitted` line (its [`ExperimentSpec`], id
//! and timeout) and each *settled* job — completed, failed, timed out,
//! cancelled by its client, or orphaned by a disconnect — appends a
//! `settled` line. A job cancelled *by server shutdown* (or never
//! reached because the process died) is deliberately **not** settled:
//! that is precisely the work a restarted server owes, and
//! [`Journal::open`] hands it back as [`PendingJob`]s for re-admission.
//!
//! The format is append-only JSON lines, one event per line, matched by
//! a monotonic per-journal sequence number. Replay is tolerant of a
//! torn final line (the crash may have interrupted an append); anything
//! else malformed is an error — a journal that cannot be trusted should
//! fail loudly, not replay partially.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};
use sqip::ExperimentSpec;

use crate::protocol::{read_bounded_line, LineRead};
use crate::server::MAX_REQUEST_LINE;

/// The longest journal line replay reads, newline included. An
/// `admitted` line carries the spec of a request line no longer than
/// [`MAX_REQUEST_LINE`], re-serialized and then escaped as a JSON string
/// (at most doubling it), plus a short envelope. A longer line is never
/// written, and replay refuses a journal that holds one.
const MAX_JOURNAL_LINE: usize = 4 * MAX_REQUEST_LINE;

/// One journal line. `admitted` carries the job; `settled` refers back
/// to it by sequence number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Line {
    /// `"admitted"` or `"settled"`.
    event: String,
    /// The per-journal job sequence number both events share.
    seq: u64,
    /// The client-chosen job id (admitted only).
    id: Option<String>,
    /// The job's timeout request (admitted only).
    timeout_ms: Option<u64>,
    /// The job's spec, as its own canonical JSON (admitted only).
    spec: Option<String>,
}

/// An admitted-but-never-settled job recovered from a journal: what a
/// restarted server re-queues.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The journal sequence number the job keeps across restarts, so
    /// settling it after recovery marks the original admission.
    pub seq: u64,
    /// The job id the original client chose.
    pub id: String,
    /// The job's wall-clock budget request.
    pub timeout_ms: Option<u64>,
    /// What to simulate.
    pub spec: ExperimentSpec,
}

/// An append-only journal of admitted and settled jobs.
pub struct Journal {
    path: PathBuf,
    next_seq: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replaying its
    /// history: returns the journal positioned for appending plus every
    /// admitted job no `settled` line accounts for, in admission order.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption anywhere except a torn final line.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<(Journal, Vec<PendingJob>)> {
        let path = path.into();
        // Create the file up front so replay and later appends see the
        // same journal even if nothing has been admitted yet.
        OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let (pending, next_seq) = replay(&path)?;
        Ok((
            Journal {
                path,
                next_seq: AtomicU64::new(next_seq),
            },
            pending,
        ))
    }

    /// The journal's backing file.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records an admission, returning the sequence number to settle
    /// with. The line is flushed to the OS before this returns.
    pub fn admit(&self, id: &str, spec: &ExperimentSpec, timeout_ms: Option<u64>) -> u64 {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        self.append(&Line {
            event: "admitted".to_string(),
            seq,
            id: Some(id.to_string()),
            timeout_ms,
            spec: Some(spec.to_json()),
        });
        seq
    }

    /// Records that the admission with sequence number `seq` settled —
    /// ran to completion, failed, timed out, or was cancelled for any
    /// reason that is *not* a server shutdown. A settled job is never
    /// recovered. Idempotent: duplicate settles are harmless.
    pub fn settle(&self, seq: u64) {
        self.append(&Line {
            event: "settled".to_string(),
            seq,
            id: None,
            timeout_ms: None,
            spec: None,
        });
    }

    fn append(&self, line: &Line) {
        let mut text = match serde_json::to_string(line) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("sqipd: journal line did not serialize: {err}");
                return;
            }
        };
        text.push('\n');
        if text.len() > MAX_JOURNAL_LINE {
            // Replay would refuse the whole journal over this one line;
            // losing one job's crash recovery is the smaller harm.
            eprintln!(
                "sqipd: journal line of {} bytes not written (limit {MAX_JOURNAL_LINE})",
                text.len()
            );
            return;
        }
        // One whole line per `write` syscall on an `O_APPEND` fd: the
        // kernel serializes concurrent appenders, so no lock is held
        // across the write. Best-effort durability — a journal write
        // failure must not take the serving path down, but it should
        // be loud.
        let written = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .and_then(|mut file| {
                file.write_all(text.as_bytes())?;
                file.sync_data()
            });
        if let Err(err) = written {
            eprintln!("sqipd: journal append failed: {err}");
        }
    }
}

/// Replays `path`: pending admissions (in admission order) and the next
/// free sequence number.
fn replay(path: &Path) -> std::io::Result<(Vec<PendingJob>, u64)> {
    let corrupt = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut reader = BufReader::new(File::open(path)?);
    let mut pending: Vec<PendingJob> = Vec::new();
    let mut next_seq = 0u64;
    let (mut buf, mut lookahead) = (Vec::new(), Vec::new());
    let mut number = 0usize;
    loop {
        match read_bounded_line(&mut reader, &mut buf, MAX_JOURNAL_LINE)? {
            LineRead::Eof => break,
            LineRead::TooLong => {
                return Err(corrupt(format!(
                    "journal {} line {}: longer than {MAX_JOURNAL_LINE} bytes",
                    path.display(),
                    number + 1
                )));
            }
            LineRead::Line => number += 1,
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|err| corrupt(format!("journal {} line {number}: {err}", path.display())))?;
        if line.trim().is_empty() {
            continue;
        }
        let parsed: Line = match serde_json::from_str(line) {
            Ok(parsed) => parsed,
            // A torn *final* line is the expected shape of a crash
            // mid-append; anywhere else, refuse to trust the journal.
            Err(err)
                if matches!(
                    read_bounded_line(&mut reader, &mut lookahead, MAX_JOURNAL_LINE)?,
                    LineRead::Eof
                ) =>
            {
                eprintln!(
                    "sqipd: journal {}: ignoring torn final line: {err}",
                    path.display()
                );
                break;
            }
            Err(err) => {
                return Err(corrupt(format!(
                    "journal {} line {number}: {err}",
                    path.display()
                )));
            }
        };
        next_seq = next_seq.max(parsed.seq + 1);
        match parsed.event.as_str() {
            "admitted" => {
                let (id, spec) = match (parsed.id, parsed.spec) {
                    (Some(id), Some(spec)) => (id, spec),
                    _ => {
                        return Err(corrupt(format!(
                            "journal {} line {number}: admitted line without id/spec",
                            path.display()
                        )));
                    }
                };
                let spec = ExperimentSpec::from_json(&spec).map_err(|err| {
                    corrupt(format!(
                        "journal {} line {number}: bad spec: {err}",
                        path.display()
                    ))
                })?;
                // Duplicate admissions of one seq (a recovery re-admit)
                // collapse to the latest.
                pending.retain(|p| p.seq != parsed.seq);
                pending.push(PendingJob {
                    seq: parsed.seq,
                    id,
                    timeout_ms: parsed.timeout_ms,
                    spec,
                });
            }
            "settled" => pending.retain(|p| p.seq != parsed.seq),
            other => {
                return Err(corrupt(format!(
                    "journal {} line {number}: unknown event `{other}`",
                    path.display()
                )));
            }
        }
    }
    Ok((pending, next_seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqip-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::new(["gzip"], ["associative-3"])
    }

    #[test]
    fn admit_settle_replay_round_trips() {
        let path = scratch("roundtrip");
        {
            let (journal, pending) = Journal::open(&path).unwrap();
            assert!(pending.is_empty());
            let a = journal.admit("job-a", &spec(), Some(5_000));
            let b = journal.admit("job-b", &spec(), None);
            assert_ne!(a, b);
            journal.settle(a);
        }
        let (journal, pending) = Journal::open(&path).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].id, "job-b");
        assert_eq!(pending[0].timeout_ms, None);
        assert_eq!(pending[0].spec, spec());

        // Settling the recovered job empties the journal's debt.
        journal.settle(pending[0].seq);
        drop(journal);
        let (_, pending) = Journal::open(&path).unwrap();
        assert!(pending.is_empty());
    }

    #[test]
    fn sequence_numbers_survive_restarts() {
        let path = scratch("seqs");
        let first = {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.admit("early", &spec(), None)
        };
        let (journal, _) = Journal::open(&path).unwrap();
        let second = journal.admit("late", &spec(), None);
        assert!(second > first, "seqs stay monotonic across restarts");
    }

    #[test]
    fn torn_final_line_is_ignored_earlier_corruption_is_fatal() {
        let path = scratch("torn");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.admit("kept", &spec(), None);
        }
        // Simulate a crash mid-append: a torn trailing line.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"event\":\"admitted\",\"seq\":9,\"i")
                .unwrap();
        }
        let (_, pending) = Journal::open(&path).unwrap();
        assert_eq!(pending.len(), 1, "torn tail dropped, history kept");

        // The same garbage mid-file is corruption, not a crash artifact.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("not json at all\n{text}")).unwrap();
        assert!(Journal::open(&path).is_err());
    }

    #[test]
    fn an_over_long_line_refuses_the_journal() {
        let path = scratch("long");
        {
            let (journal, _) = Journal::open(&path).unwrap();
            journal.admit("kept", &spec(), None);
        }
        // A line past the limit anywhere — even last, where a torn line
        // would be forgiven — is refused, without buffering all of it.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut long = "x".repeat(MAX_JOURNAL_LINE);
        long.push('\n');
        for contents in [format!("{text}{long}"), format!("{long}{text}")] {
            std::fs::write(&path, contents).unwrap();
            let err = Journal::open(&path).expect_err("over-long line must refuse");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("longer than"), "{err}");
        }

        // One byte shorter (newline included) is a line like any other:
        // here, torn garbage at the end, which replay forgives.
        long.truncate(MAX_JOURNAL_LINE - 1);
        long.push('\n');
        std::fs::write(&path, format!("{text}{long}")).unwrap();
        let (_, pending) = Journal::open(&path).unwrap();
        assert_eq!(pending.len(), 1);
    }
}
