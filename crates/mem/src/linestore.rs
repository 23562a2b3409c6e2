//! The sparse line store behind [`MemImage`](crate::MemImage) and the
//! simulator's streaming dependence oracle: memory shadowed one 64-B
//! line at a time, found through an index of 4 KiB frames.

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Range;

use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Bytes of memory per line: one cache line, the store's unit of
/// allocation.
pub const LINE_BYTES: usize = 64;

/// Bytes of memory per frame: one 4 KiB page, the store's unit of
/// indexing.
pub const FRAME_BYTES: usize = 4096;

/// Lines per frame.
const FRAME_LINES: usize = FRAME_BYTES / LINE_BYTES;

/// The highest frame number a span can reach: the line after the last
/// line of the address space ([`line_parts`] does not wrap) sits in it.
const MAX_FRAME: u64 = u64::MAX / FRAME_BYTES as u64 + 1;

/// Splits the `n`-byte span at `base` into its (line number, byte range)
/// parts: one, or two when the span crosses a line boundary (`n` is at
/// most [`LINE_BYTES`]).
pub fn line_parts(base: u64, n: usize) -> impl Iterator<Item = (u64, Range<usize>)> {
    let line = base / LINE_BYTES as u64;
    let off = (base % LINE_BYTES as u64) as usize;
    let end = off + n;
    let first = (line, off..end.min(LINE_BYTES));
    let second = (end > LINE_BYTES).then(|| (line + 1, 0..end - LINE_BYTES));
    std::iter::once(first).chain(second)
}

/// A sparse array of 64-B lines of type `L`, keyed by line number
/// (address / 64) and allocated (as `L::default()`) on first write.
///
/// Two levels find a line. A keyed hash index maps a 4 KiB frame number
/// to a frame of 64 `u32` line slots, each the 1-based position of its
/// line in the line arena or 0 for absent. So a touched frame costs
/// 256 B of slots and a touched line costs one `L`, where a page table
/// of 4 KiB pages cost a whole page per touched frame. The hash is
/// std's keyed SipHash, because addresses can come from untrusted trace
/// files.
///
/// Frames and lines live in chunked arenas that grow one fixed-size
/// chunk at a time and never move what they hold, so growing the store
/// costs no reallocation or copy and its peak footprint is its live
/// footprint.
///
/// A small direct-mapped cache of recently resolved frames, absent ones
/// included, short-circuits the hash lookup for traffic that moves among
/// a few frames (a stack, a few arrays, a chase ring), so such an access
/// costs one multiply and one compare. Frames and lines are never
/// deallocated, so a cached position stays valid for the store's
/// lifetime, and a write that allocates a frame replaces its cached
/// absence. (Frame numbers are at most 2^52, so `u64::MAX` doubles as the
/// empty sentinel.)
#[derive(Debug, Clone)]
pub struct LineStore<L> {
    /// Frame number -> position in `frames`.
    index: HashMap<u64, u32>,
    /// Per frame, per line, the 1-based position of the line in `lines`
    /// (0 = absent).
    frames: Chunked<[u32; FRAME_LINES]>,
    lines: Chunked<L>,
    /// Recently resolved (frame number, position in `frames`), one per
    /// [`LineStore::recent`] slot.
    recent: [Cell<(u64, u32)>; RECENT],
}

/// Frames the lookup cache holds (a power of two).
const RECENT: usize = 8;

/// The empty lookup-cache entry.
const NO_FRAME: (u64, u32) = (u64::MAX, 0);

/// A cached position meaning "no such frame": reads of untouched memory
/// are cached too, until a write allocates the frame.
const ABSENT: u32 = u32::MAX;

impl<L> Default for LineStore<L> {
    fn default() -> LineStore<L> {
        LineStore::new()
    }
}

impl<L> LineStore<L> {
    /// An empty store: every line reads as absent until written.
    #[must_use]
    pub fn new() -> LineStore<L> {
        LineStore {
            index: HashMap::new(),
            frames: Chunked::new(),
            lines: Chunked::new(),
            recent: [const { Cell::new(NO_FRAME) }; RECENT],
        }
    }

    /// The lookup-cache slot of `frame_no`. A multiplicative hash spreads
    /// frame numbers that differ only in their high bits (aligned regions)
    /// over the slots.
    #[inline]
    fn recent(&self, frame_no: u64) -> &Cell<(u64, u32)> {
        let h = frame_no.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RECENT.trailing_zeros());
        &self.recent[h as usize]
    }

    /// Number of lines that have been touched by writes.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of 4 KiB frames that hold a touched line.
    #[must_use]
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// The line `line_no`, if resident (reads never allocate).
    #[inline]
    #[must_use]
    pub fn line(&self, line_no: u64) -> Option<&L> {
        let frame_no = line_no / FRAME_LINES as u64;
        let cached = self.recent(frame_no);
        let (lf, lp) = cached.get();
        let pos = if lf == frame_no {
            lp
        } else {
            let pos = self.index.get(&frame_no).copied().unwrap_or(ABSENT);
            cached.set((frame_no, pos));
            pos
        };
        if pos == ABSENT {
            return None;
        }
        match self.frames.get(pos as usize)[(line_no % FRAME_LINES as u64) as usize] {
            0 => None,
            id => Some(self.lines.get(id as usize - 1)),
        }
    }
}

impl<L: Default> LineStore<L> {
    /// The line `line_no`, allocated (as `L::default()`) on first touch.
    #[inline]
    pub fn line_mut_or_alloc(&mut self, line_no: u64) -> &mut L {
        let frame_no = line_no / FRAME_LINES as u64;
        let (lf, lp) = self.recent(frame_no).get();
        let pos = if lf == frame_no && lp != ABSENT {
            lp
        } else {
            let next = u32::try_from(self.frames.len())
                .ok()
                .filter(|&next| next != ABSENT)
                .expect("fewer than 2^32 - 1 frames");
            let pos = *self.index.entry(frame_no).or_insert(next);
            if pos == next {
                self.frames.push([0; FRAME_LINES]);
            }
            self.recent(frame_no).set((frame_no, pos));
            pos
        };
        let slot = &mut self.frames.get_mut(pos as usize)[(line_no % FRAME_LINES as u64) as usize];
        if *slot == 0 {
            *slot = u32::try_from(self.lines.len() + 1).expect("fewer than 2^32 lines");
            self.lines.push(L::default());
        }
        self.lines.get_mut(*slot as usize - 1)
    }
}

impl<L: Snapshot> Snapshot for LineStore<L> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // Lines in arena order (the slots name them by position), each in
        // its line type's own layout; then the frames in ascending frame
        // number, each its number and its 64 slots, so the encoding is
        // independent of HashMap iteration order.
        w.put_u64(self.lines.len() as u64);
        for line in self.lines.iter() {
            line.save(w)?;
        }
        let mut frames: Vec<(u64, u32)> = self.index.iter().map(|(&f, &p)| (f, p)).collect();
        frames.sort_unstable();
        w.put_u64(frames.len() as u64);
        for (frame_no, pos) in frames {
            w.put_u64(frame_no);
            for &id in self.frames.get(pos as usize) {
                w.put_u32(id);
            }
        }
        Ok(())
    }

    fn load(r: &mut SnapReader) -> Result<LineStore<L>, SnapError> {
        // Each count is checked against the bytes left before anything is
        // allocated for it; the arenas then grow only as items decode.
        let n_lines = r.get_len(1)?;
        let mut lines = Chunked::new();
        for _ in 0..n_lines {
            lines.push(L::load(r)?);
        }
        let n_frames = r.get_len(8 + 4 * FRAME_LINES)?;
        let corrupt = |detail: String| Err(SnapError::Corrupt(detail));
        let mut index = HashMap::with_capacity(n_frames);
        let mut frames = Chunked::new();
        let mut named = vec![false; n_lines];
        let mut prev = None;
        for pos in 0..n_frames as u32 {
            let frame_no = r.get_u64()?;
            if frame_no > MAX_FRAME || prev.is_some_and(|p| frame_no <= p) {
                return corrupt(format!("line frame {frame_no:#x} out of order or range"));
            }
            prev = Some(frame_no);
            let mut slots = [0u32; FRAME_LINES];
            for slot in &mut slots {
                *slot = r.get_u32()?;
            }
            for &id in slots.iter().filter(|&&id| id != 0) {
                match named.get_mut(id as usize - 1) {
                    None => return corrupt(format!("slot names line {id} of {n_lines}")),
                    Some(seen) if *seen => {
                        return corrupt(format!("line {id} sits in two slots"));
                    }
                    Some(seen) => *seen = true,
                }
            }
            if slots.iter().all(|&id| id == 0) {
                return corrupt(format!("line frame {frame_no:#x} holds no line"));
            }
            index.insert(frame_no, pos);
            frames.push(slots);
        }
        if let Some(id) = named.iter().position(|&seen| !seen) {
            return corrupt(format!("line {} sits in no slot", id + 1));
        }
        Ok(LineStore {
            index,
            frames,
            lines,
            // The lookup cache is a pure accelerator; restore it empty.
            recent: [const { Cell::new(NO_FRAME) }; RECENT],
        })
    }
}

/// Items per arena chunk.
const CHUNK: usize = 64;

/// A growable list allocated in chunks of [`CHUNK`] items, so growing it
/// never moves or copies what it holds (a `Vec` doubling would copy
/// every item and briefly hold both copies).
#[derive(Debug)]
struct Chunked<T> {
    /// Every chunk has capacity [`CHUNK`]; all but the last are full.
    chunks: Vec<Vec<T>>,
}

impl<T> Chunked<T> {
    fn new() -> Chunked<T> {
        Chunked { chunks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    fn push(&mut self, item: T) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(item),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(item);
                self.chunks.push(chunk);
            }
        }
    }

    #[inline]
    fn get(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

impl<T: Clone> Clone for Chunked<T> {
    fn clone(&self) -> Chunked<T> {
        // Keep every chunk's full capacity, so the clone's last chunk
        // fills in place too.
        let chunks = self
            .chunks
            .iter()
            .map(|c| {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.extend_from_slice(c);
                chunk
            })
            .collect();
        Chunked { chunks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small line type for the store's own tests.
    type Line = [u8; 16];

    #[test]
    fn reads_never_allocate_and_writes_do() {
        let mut s: LineStore<Line> = LineStore::new();
        assert!(s.line(3).is_none());
        assert_eq!((s.resident_lines(), s.resident_frames()), (0, 0));
        s.line_mut_or_alloc(3)[7] = 99;
        assert_eq!((s.resident_lines(), s.resident_frames()), (1, 1));
        assert_eq!(s.line(3).unwrap()[7], 99);
        assert_eq!(s.line(3).unwrap()[8], 0, "untouched entries read empty");
        assert!(s.line(4).is_none(), "a frame's other lines stay absent");
        assert_eq!(s.resident_lines(), 1);
    }

    #[test]
    fn frame_cache_survives_interleaving_and_growth() {
        // Lines across 40 frames, several per frame, enough to fill
        // more than one chunk of lines and of frames.
        let mut s: LineStore<Line> = LineStore::new();
        let lines: Vec<u64> = (0..40u64)
            .flat_map(|f| [f * 64, f * 64 + 5, f * 64 + 63])
            .collect();
        for (i, &l) in lines.iter().enumerate() {
            s.line_mut_or_alloc(l)[0] = i as u8;
        }
        for (i, &l) in lines.iter().enumerate().rev() {
            assert_eq!(s.line(l).unwrap()[0], i as u8);
        }
        assert_eq!((s.resident_lines(), s.resident_frames()), (120, 40));
    }

    #[test]
    fn the_frame_cache_agrees_with_a_plain_map() {
        // Seeded reads and writes over 48 frames, which share the cache's
        // slots, so reads of absent frames, cached absences and evictions
        // all interleave with allocation; each read must agree with a
        // plain map of the writes.
        let mut s: LineStore<Line> = LineStore::new();
        let mut model = std::collections::HashMap::new();
        let mut state = 0x5eed_u64;
        for step in 0..20_000u32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let line = (state >> 40) % 48 * 1024 + (state >> 20) % 3;
            if state >> 63 == 1 {
                s.line_mut_or_alloc(line)[0] = step as u8;
                model.insert(line, step as u8);
            } else {
                assert_eq!(s.line(line).map(|l| l[0]), model.get(&line).copied());
            }
        }
        assert_eq!(s.resident_lines(), model.len());
    }

    #[test]
    fn line_parts_split_only_across_a_line_boundary() {
        let parts = |base, n| line_parts(base, n).collect::<Vec<_>>();
        assert_eq!(parts(0x40, 8), vec![(1, 0..8)]);
        assert_eq!(parts(0x7c, 8), vec![(1, 60..64), (2, 0..4)]);
        assert_eq!(parts(0xfff, 2), vec![(63, 63..64), (64, 0..1)]);
        assert_eq!(parts(u64::MAX, 1), vec![(u64::MAX / 64, 63..64)]);
    }

    fn snapshot_bytes<S: Snapshot>(value: &S) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w).unwrap();
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        bytes
    }

    fn sample() -> LineStore<Line> {
        let mut s: LineStore<Line> = LineStore::new();
        for (i, l) in [9u64, 2, 1 << 40, 3, 70, 64].into_iter().enumerate() {
            s.line_mut_or_alloc(l)[i] = i as u8 + 1;
        }
        s
    }

    #[test]
    fn a_store_round_trips_through_a_snapshot() {
        let s = sample();
        let bytes = snapshot_bytes(&s);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        let back = LineStore::<Line>::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((back.resident_lines(), back.resident_frames()), (6, 3));
        for (i, l) in [9u64, 2, 1 << 40, 3, 70, 64].into_iter().enumerate() {
            assert_eq!(back.line(l).unwrap()[i], i as u8 + 1);
        }
        assert!(back.line(4).is_none());
        assert_eq!(snapshot_bytes(&back), bytes, "save -> load -> save");
    }

    /// Loads a store from `lines` and `frames` written by hand.
    fn load_raw(
        lines: &[Line],
        frames: &[(u64, [u32; FRAME_LINES])],
    ) -> Result<LineStore<Line>, SnapError> {
        let mut w = SnapWriter::new();
        w.put_u64(lines.len() as u64);
        for line in lines {
            w.put_bytes(line);
        }
        w.put_u64(frames.len() as u64);
        for (frame_no, slots) in frames {
            w.put_u64(*frame_no);
            for &id in slots {
                w.put_u32(id);
            }
        }
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        let mut r = SnapReader::new(&mut bytes.as_slice())?;
        LineStore::load(&mut r)
    }

    #[test]
    fn a_malformed_store_is_refused() {
        let lines = [[1u8; 16], [2; 16]];
        let mut slots = [0u32; FRAME_LINES];
        slots[3] = 2;
        slots[9] = 1;
        let good = load_raw(&lines, &[(5, slots)]).expect("a well-formed store loads");
        assert_eq!(good.line(5 * 64 + 3).unwrap()[0], 2);

        let corrupt = |res: Result<LineStore<Line>, SnapError>, what: &str| match res {
            Err(SnapError::Corrupt(detail)) => assert!(detail.contains(what), "{detail}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        };
        let mut dup = slots;
        dup[10] = 2;
        corrupt(load_raw(&lines, &[(5, dup)]), "line 2 sits in two slots");
        let mut high = slots;
        high[10] = 3;
        corrupt(load_raw(&lines, &[(5, high)]), "names line 3 of 2");
        let (mut a, mut b) = ([0u32; FRAME_LINES], [0u32; FRAME_LINES]);
        a[0] = 1;
        b[0] = 2;
        corrupt(load_raw(&lines, &[(5, a), (5, b)]), "out of order");
        corrupt(load_raw(&lines, &[(6, a), (5, b)]), "out of order");
        corrupt(
            load_raw(&lines, &[(MAX_FRAME + 1, a)]),
            "out of order or range",
        );
        corrupt(load_raw(&lines, &[(5, a)]), "line 2 sits in no slot");
        corrupt(
            load_raw(&lines, &[(5, slots), (7, [0; FRAME_LINES])]),
            "holds no line",
        );
    }

    #[test]
    fn inflated_counts_are_truncated_before_allocating() {
        let s = sample();
        let bytes = snapshot_bytes(&s);
        // The line count is the payload's first field (after the 24-byte
        // container header); the frame count follows the six lines.
        for at in [24, 24 + 8 + 6 * 16] {
            let mut payload = bytes[24..].to_vec();
            payload[at - 24..at - 24 + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            let mut w = SnapWriter::new();
            w.put_bytes(&payload);
            let mut framed = Vec::new();
            w.finish(&mut framed).unwrap();
            let mut r = SnapReader::new(&mut framed.as_slice()).unwrap();
            match LineStore::<Line>::load(&mut r) {
                Err(SnapError::Truncated { needed, available }) => {
                    assert!(
                        needed >= u64::MAX / 2 && available < 1024,
                        "{needed} {available}"
                    );
                }
                other => panic!("count at {at}: expected Truncated, got {other:?}"),
            }
        }
    }
}
