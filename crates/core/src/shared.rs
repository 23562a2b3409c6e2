//! The shared oracle pass: compute each record's [`OracleFwd`] **once**
//! for a stream that several consumers read through a
//! [`sqip_isa::TraceTee`].
//!
//! Every [`Processor`](crate::Processor) ingests its record stream into
//! its own [`OracleBuilder`]; sweeps run each cell alone, so that is the
//! whole analysis a sweep pays. [`oracle_tap`] is the building block for
//! a hand-built fan-out, where the analysis would otherwise repeat per
//! consumer: the tap wraps the *upstream* source (before the tee),
//! renumbers and analyses each record as it is pulled, and publishes the
//! per-record oracle info in a bounded ring that [`OracleFeed`] handles
//! read. perfbench's layer probes time the tap and the tee this way.
//!
//! The feed ring is sized past the tee window, so an entry lives at least
//! as long as the teed record it describes; consumers read a record's
//! info exactly when they pull the record.

use std::cell::RefCell;
use std::rc::Rc;

use sqip_isa::{IsaError, TraceRecord, TraceSource};
use sqip_types::Seq;

use crate::oracle::{OracleBuilder, OracleFwd};

struct FwdBuf {
    ring: Vec<Option<OracleFwd>>,
    mask: u64,
    /// Records analysed so far (== the tap's pull frontier).
    pushed: u64,
}

/// A [`TraceSource`] adapter that renumbers records in pull order, runs
/// the incremental oracle over them, and publishes each record's
/// [`OracleFwd`] for [`OracleFeed`] readers. Built by [`oracle_tap`];
/// place it *upstream* of a [`sqip_isa::TraceTee`].
pub struct OracleTap<'s> {
    source: Box<dyn TraceSource + 's>,
    oracle: OracleBuilder,
    buf: Rc<RefCell<FwdBuf>>,
}

/// A consumer-side handle onto a shared oracle pass: answers "what is
/// record `seq`'s forwarding info" from the tap's ring, within the
/// sliding window the tee guarantees.
#[derive(Clone)]
pub struct OracleFeed {
    buf: Rc<RefCell<FwdBuf>>,
}

/// Builds a shared oracle pass over `source` for consumers that stay
/// within `window` records of each other (use the tee ring capacity; the
/// feed ring is sized with slack past it).
///
/// # Example
///
/// ```
/// use sqip_core::{oracle_tap, OracleFwd};
/// use sqip_isa::{ProgramBuilder, ProgramSource, Reg, TraceSource, TraceTee};
/// use sqip_types::{DataSize, Seq};
///
/// let mut b = ProgramBuilder::new();
/// b.load_imm(Reg::new(1), 7);
/// b.store(DataSize::Quad, Reg::new(1), Reg::ZERO, 0x100);
/// b.load(DataSize::Quad, Reg::new(2), Reg::ZERO, 0x100);
/// b.halt();
///
/// let (tap, feed) = oracle_tap(ProgramSource::new(b.build()?, 100), 64);
/// let (_tee, mut cursors) = TraceTee::new(tap, 1, 64);
/// let mut cursor = cursors.pop().unwrap();
/// let mut fwds = 0;
/// while let Some(rec) = cursor.next_record()? {
///     if feed.fwd(rec.seq).is_some() {
///         fwds += 1;
///     }
/// }
/// assert_eq!(fwds, 1, "the load's producer was analysed once, upstream");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn oracle_tap<'s>(source: impl TraceSource + 's, window: usize) -> (OracleTap<'s>, OracleFeed) {
    // Twice the consumer window: an entry is overwritten only once the
    // pull frontier is a full ring past it, which the tee's own bound
    // keeps strictly ahead of the slowest consumer.
    let cap = (window.max(1) * 2).next_power_of_two();
    let buf = Rc::new(RefCell::new(FwdBuf {
        ring: vec![None; cap],
        mask: cap as u64 - 1,
        pushed: 0,
    }));
    let feed = OracleFeed {
        buf: Rc::clone(&buf),
    };
    (
        OracleTap {
            source: Box::new(source),
            oracle: OracleBuilder::new(),
            buf,
        },
        feed,
    )
}

impl TraceSource for OracleTap<'_> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        let Some(mut rec) = self.source.next_record()? else {
            return Ok(None);
        };
        let mut buf = self.buf.borrow_mut();
        // Renumber in pull order — the numbering every consumer applies —
        // so the oracle's store sequence numbers match what consumers see.
        rec.seq = Seq(buf.pushed);
        let fwd = self.oracle.ingest(&rec);
        let slot = (buf.pushed & buf.mask) as usize;
        buf.ring[slot] = fwd;
        buf.pushed += 1;
        Ok(Some(rec))
    }

    /// Block pull: one upstream block pull and one feed-ring borrow
    /// amortised over the whole span; renumbering and analysis are
    /// record-by-record identical to the scalar path.
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        let n = self.source.next_block(out)?;
        if n == 0 {
            return Ok(0);
        }
        let mut buf = self.buf.borrow_mut();
        let buf = &mut *buf;
        for rec in &mut out[..n] {
            rec.seq = Seq(buf.pushed);
            let fwd = self.oracle.ingest(rec);
            buf.ring[(buf.pushed & buf.mask) as usize] = fwd;
            buf.pushed += 1;
        }
        Ok(n)
    }

    fn len_hint(&self) -> Option<u64> {
        self.source.len_hint()
    }
}

impl std::fmt::Debug for OracleTap<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleTap")
            .field("analysed", &self.buf.borrow().pushed)
            .finish()
    }
}

impl OracleFeed {
    /// The forwarding info of record `seq`, as computed by the shared
    /// pass when the record was first pulled from the upstream source.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `seq` is within the feed window (not yet
    /// analysed, or already overwritten) — a scheduler bug, since the tee
    /// hands a consumer a record only while its info is live.
    #[must_use]
    pub fn fwd(&self, seq: Seq) -> Option<OracleFwd> {
        let buf = self.buf.borrow();
        debug_assert!(
            seq.0 < buf.pushed && seq.0 + buf.mask + 1 >= buf.pushed,
            "record {} outside the shared oracle window (analysed {})",
            seq.0,
            buf.pushed
        );
        buf.ring[(seq.0 & buf.mask) as usize]
    }

    /// Records analysed by the shared pass so far.
    #[must_use]
    pub fn analysed(&self) -> u64 {
        self.buf.borrow().pushed
    }
}

impl std::fmt::Debug for OracleFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleFeed")
            .field("analysed", &self.analysed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleInfo;
    use sqip_isa::{trace_program, ProgramBuilder, Reg, TraceTee};
    use sqip_types::DataSize;

    #[test]
    fn shared_pass_matches_the_batch_oracle() {
        let mut b = ProgramBuilder::new();
        let (v, t, ctr) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(v, 7);
        b.load_imm(ctr, 12);
        let top = b.label("top");
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.store(DataSize::Word, v, Reg::ZERO, 0x104);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        let program = b.build().unwrap();
        let trace = trace_program(&program, 10_000).unwrap();
        let golden = OracleInfo::analyze(&trace);

        let (tap, feed) = oracle_tap(trace.stream(), 32);
        let (_tee, mut cursors) = TraceTee::new(tap, 2, 32);
        let mut b_cur = cursors.pop().unwrap();
        let mut a_cur = cursors.pop().unwrap();
        // Interleaved consumption; both consumers read identical info.
        loop {
            let ra = a_cur.next_record().unwrap();
            let rb = b_cur.next_record().unwrap();
            assert_eq!(ra, rb);
            let Some(rec) = ra else { break };
            assert_eq!(feed.fwd(rec.seq), golden.fwd(rec.seq), "seq {}", rec.seq.0);
        }
    }
}
