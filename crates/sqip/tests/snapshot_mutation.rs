//! A seeded mutation harness for the version-5 snapshot of a processor
//! checkpointed mid-way through a pointer chase.
//!
//! The snapshot holds two line stores: the commit-time memory image and
//! the dependence oracle. The harness finds each one in the payload by
//! rebuilding it from the trace (the commit image is the committed
//! stores applied in order; the oracle has ingested every pulled
//! record), then mutates the bytes: bit flips, truncation, inflated
//! counts, and duplicated or out-of-range line slots. Every mutation
//! must give a typed [`SnapError`], never a panic, and an inflated count
//! must be refused before anything is allocated for it. A counting
//! allocator checks the last part: a refused restore allocates no more
//! than a good one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sqip::generator::pointer_chase;
use sqip::{
    OracleBuilder, Processor, SimConfig, SnapError, SnapWriter, Snapshot, SqDesign, StepOutcome,
    TraceSource,
};
use sqip_isa::ProgramSource;
use sqip_mem::MemImage;

/// Counts the bytes each thread asks the allocator for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialised thread-local `Cell` that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// The container header: magic, version, payload length, checksum.
const HEADER: usize = 24;

/// 1024 nodes 64 bytes apart: 1,024 node lines in 16 frames.
fn source() -> ProgramSource {
    pointer_chase(1024, 64, 20_000)
        .source()
        .expect("the chase builds")
}

/// SplitMix64: a seeded stream with no dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value's snapshot payload, without the container header.
fn payload_of<S: Snapshot>(value: &S) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.save(&mut w).unwrap();
    let mut bytes = Vec::new();
    w.finish(&mut bytes).unwrap();
    bytes.split_off(HEADER)
}

/// Frames `payload` with a correct header, so the mutation reaches the
/// loaders instead of the checksum.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_bytes(payload);
    let mut bytes = Vec::new();
    w.finish(&mut bytes).unwrap();
    bytes
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn find(haystack: &[u8], needle: &[u8]) -> usize {
    let mut hits = haystack
        .windows(needle.len())
        .enumerate()
        .filter(|(_, w)| *w == needle)
        .map(|(at, _)| at);
    let at = hits.next().expect("the section is in the payload");
    assert_eq!(hits.next(), None, "the section is unique");
    at
}

/// Where one line store sits in the payload.
#[derive(Debug, Clone, Copy)]
struct Section {
    /// Offset of the line count.
    lines_at: usize,
    n_lines: u64,
    /// Offset of the frame count; frame `k` follows at
    /// `frames_at + 8 + k * FRAME_RECORD`.
    frames_at: usize,
    n_frames: u64,
}

/// Bytes per saved frame: its number and 64 `u32` slots.
const FRAME_RECORD: usize = 8 + 64 * 4;

impl Section {
    /// Reads the section's layout at `lines_at`, stepping over each line
    /// with `line_len(payload, offset)`.
    fn parse(payload: &[u8], lines_at: usize, line_len: impl Fn(&[u8], usize) -> usize) -> Section {
        let n_lines = u64_at(payload, lines_at);
        let mut at = lines_at + 8;
        for _ in 0..n_lines {
            at += line_len(payload, at);
        }
        Section {
            lines_at,
            n_lines,
            frames_at: at,
            n_frames: u64_at(payload, at),
        }
    }

    fn slot_at(&self, frame: u64, slot: u64) -> usize {
        self.frames_at + 8 + frame as usize * FRAME_RECORD + 8 + slot as usize * 4
    }

    fn slot(&self, payload: &[u8], frame: u64, slot: u64) -> u32 {
        let at = self.slot_at(frame, slot);
        u32::from_le_bytes(payload[at..at + 4].try_into().unwrap())
    }

    fn end(&self) -> usize {
        self.frames_at + 8 + self.n_frames as usize * FRAME_RECORD
    }
}

/// A processor checkpointed mid-chase, with its two line stores located.
struct Fixture {
    snap: Vec<u8>,
    memory: Section,
    oracle: Section,
}

fn fixture() -> Fixture {
    let cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    let mut p = Processor::from_source(cfg, source());
    while p.stats().committed < 12_000 {
        assert_eq!(p.step().unwrap(), StepOutcome::Running);
    }
    let mut snap = Vec::new();
    p.checkpoint(&mut snap).unwrap();
    let committed = p.stats().committed;
    let payload = &snap[HEADER..];
    // The configuration string, then the records pulled so far.
    let pulled = u64_at(payload, 8 + u64_at(payload, 0) as usize);

    let mut commit_image = MemImage::new();
    let mut oracle = OracleBuilder::new();
    let mut records = source();
    for n in 0..pulled {
        let rec = records.next_record().unwrap().expect("the chase runs on");
        if n < committed && rec.is_store() {
            commit_image.write(rec.mem_addr(), rec.size, rec.result);
        }
        oracle.ingest(&rec);
    }
    let memory_at = find(payload, &payload_of(&commit_image));
    let oracle_at = find(payload, &payload_of(&oracle));
    let memory = Section::parse(payload, memory_at, |_, _| 64);
    // An oracle line: 64 owner bytes, a writer count, 16 B per writer.
    let oracle = Section::parse(payload, oracle_at, |p, at| {
        64 + 8 + 16 * u64_at(p, at + 64) as usize
    });
    assert!(
        memory.n_lines >= 1024 && memory.n_frames >= 16,
        "{memory:?}"
    );
    assert!(
        oracle.n_lines >= 1024 && oracle.n_frames >= 16,
        "{oracle:?}"
    );
    Fixture {
        snap,
        memory,
        oracle,
    }
}

/// Restores `bytes`, counting what the attempt allocates.
fn restore(bytes: &[u8]) -> (Result<(), SnapError>, u64) {
    let src = source();
    allocated_by(|| Processor::restore(&mut &bytes[..], src).map(drop))
}

/// Restores a payload mutation, which must be refused.
fn refused(payload: &[u8], what: &str) -> (SnapError, u64) {
    match restore(&reframe(payload)) {
        (Err(e), bytes) => (e, bytes),
        (Ok(()), _) => panic!("{what}: the mutated snapshot restored"),
    }
}

#[test]
fn a_mid_chase_snapshot_refuses_every_mutation_with_a_typed_error() {
    let fx = fixture();
    let (good, good_bytes) = restore(&fx.snap);
    good.expect("the unmutated snapshot restores");
    let payload = &fx.snap[HEADER..];
    let mut rng = 0x5eed_u64;

    // Bit flips anywhere in the file: the header's checks or the
    // payload checksum refuse each one.
    for _ in 0..64 {
        let mut bytes = fx.snap.clone();
        let bit = splitmix(&mut rng) as usize % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        match restore(&bytes).0 {
            Err(
                SnapError::BadMagic { .. }
                | SnapError::UnsupportedVersion { .. }
                | SnapError::Truncated { .. }
                | SnapError::ChecksumMismatch { .. },
            ) => {}
            other => panic!("bit {bit}: expected a container error, got {other:?}"),
        }
    }

    // Truncation: dense over the header, then through both line stores.
    let cuts = (0..HEADER + 8)
        .chain((fx.memory.lines_at..fx.memory.end()).step_by(997))
        .chain((fx.oracle.lines_at..fx.oracle.end()).step_by(1009));
    for cut in cuts {
        let cut = cut.min(fx.snap.len() - 1);
        match restore(&fx.snap[..cut]).0 {
            Err(SnapError::Truncated { .. }) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }

    for (name, sec) in [("memory", fx.memory), ("oracle", fx.oracle)] {
        // Inflated counts: refused by the up-front check, before a line
        // or frame is allocated, so the attempt allocates less than a
        // good restore.
        for _ in 0..16 {
            let r = splitmix(&mut rng);
            let (at, count) = if r & 1 == 0 {
                (sec.lines_at, sec.n_lines)
            } else {
                (sec.frames_at, sec.n_frames)
            };
            let inflated = count + (1u64 << (24 + (r >> 8) % 39));
            let mut bad = payload.to_vec();
            bad[at..at + 8].copy_from_slice(&inflated.to_le_bytes());
            let what = format!("{name} count at {at} inflated to {inflated}");
            match refused(&bad, &what) {
                (SnapError::Truncated { needed, available }, bytes) => {
                    assert!(needed >= inflated && available < needed, "{what}");
                    assert!(bytes <= good_bytes, "{what}: {bytes} > {good_bytes} bytes");
                }
                (other, _) => panic!("{what}: expected Truncated, got {other:?}"),
            }
        }

        // Duplicated and out-of-range line slots.
        let occupied: Vec<(u64, u64)> = (0..sec.n_frames)
            .flat_map(|f| (0..64).map(move |s| (f, s)))
            .filter(|&(f, s)| sec.slot(payload, f, s) != 0)
            .collect();
        for _ in 0..16 {
            let r = splitmix(&mut rng);
            let (f, s) = occupied[r as usize % occupied.len()];
            let (into_f, into_s) = ((r >> 20) % sec.n_frames, (r >> 40) % 64);
            if (into_f, into_s) == (f, s) {
                continue;
            }
            let mut bad = payload.to_vec();
            let id = sec.slot(payload, f, s);
            let at = sec.slot_at(into_f, into_s);
            bad[at..at + 4].copy_from_slice(&id.to_le_bytes());
            let what = format!("{name} line {id} copied into frame {into_f} slot {into_s}");
            match refused(&bad, &what).0 {
                SnapError::Corrupt(d) if d.contains("two slots") || d.contains("no slot") => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }

            let beyond = sec.n_lines as u32 + 1 + (r >> 50) as u32 % 1000;
            let mut bad = payload.to_vec();
            bad[at..at + 4].copy_from_slice(&beyond.to_le_bytes());
            let what = format!("{name} frame {into_f} slot {into_s} names line {beyond}");
            match refused(&bad, &what).0 {
                SnapError::Corrupt(d) if d.contains("names line") => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }

        // A bit flip in any slot moves, duplicates, orphans or overruns
        // a line: always corrupt.
        for _ in 0..32 {
            let r = splitmix(&mut rng);
            let (f, s, bit) = (r % sec.n_frames, (r >> 20) % 64, (r >> 40) % 32);
            let mut bad = payload.to_vec();
            bad[sec.slot_at(f, s) + bit as usize / 8] ^= 1 << (bit % 8);
            let what = format!("{name} frame {f} slot {s} bit {bit} flipped");
            match refused(&bad, &what).0 {
                SnapError::Corrupt(_) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }

        // A bit flip anywhere else in the section may leave a valid
        // store (a data byte, a frame number that keeps its order), but
        // never panics.
        for _ in 0..32 {
            let r = splitmix(&mut rng);
            let at = sec.lines_at + r as usize % (sec.end() - sec.lines_at);
            let mut bad = payload.to_vec();
            bad[at] ^= 1 << ((r >> 32) % 8);
            let _ = restore(&reframe(&bad));
        }
    }
}

#[test]
fn a_version_4_snapshot_is_refused() {
    let fx = fixture();
    let mut bytes = fx.snap.clone();
    bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
    match restore(&bytes).0 {
        Err(SnapError::UnsupportedVersion { found: 4, .. }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// A checkpoint's configuration and its policy state must name the same
/// design: renaming the configured design to another registered one of
/// the same length (so only the checksum needs mending) must not resume
/// the old policy under the new name.
#[test]
fn a_policy_of_another_design_is_refused() {
    let fx = fixture();
    let mut payload = fx.snap[HEADER..].to_vec();
    let at = find(&payload, SqDesign::Indexed3FwdDly.name().as_bytes());
    let renamed = b"indexed-5-fwd+dly";
    assert_eq!(renamed.len(), SqDesign::Indexed3FwdDly.name().len());
    payload[at..at + renamed.len()].copy_from_slice(renamed);
    match refused(&payload, "a renamed design").0 {
        SnapError::Corrupt(msg) => assert!(msg.contains("indexed-5-fwd+dly"), "{msg}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// The payload with its configuration string replaced by `cfg`'s JSON
/// (the string is length-prefixed, so the rest of the payload follows
/// unchanged).
fn with_config(payload: &[u8], cfg: &SimConfig) -> Vec<u8> {
    let old_len = u64_at(payload, 0) as usize;
    let json = serde_json::to_string(cfg).expect("the configuration serializes");
    let mut out = (json.len() as u64).to_le_bytes().to_vec();
    out.extend_from_slice(json.as_bytes());
    out.extend_from_slice(&payload[8 + old_len..]);
    out
}

/// A checkpoint's configuration is untrusted input: rewriting any nested
/// memory-hierarchy or branch-predictor field to a degenerate value, with
/// the checksum mended, must be refused as corrupt by name — never reach
/// the constructor that would panic on it.
#[test]
fn a_degenerate_nested_geometry_is_refused() {
    let fx = fixture();
    let payload = &fx.snap[HEADER..];
    let cfg_len = u64_at(payload, 0) as usize;
    let cfg: SimConfig =
        serde_json::from_str(std::str::from_utf8(&payload[8..8 + cfg_len]).unwrap()).unwrap();
    // The unmutated configuration round-trips through the rewrite.
    assert!(restore(&reframe(&with_config(payload, &cfg))).0.is_ok());

    type Rewrite = (&'static str, fn(&mut SimConfig));
    let rewrites: [Rewrite; 19] = [
        ("hierarchy.l1", |c| c.hierarchy.l1.capacity_bytes = 0),
        ("hierarchy.l1", |c| c.hierarchy.l1.ways = 0),
        ("hierarchy.l1", |c| c.hierarchy.l1.line_bytes = 0),
        ("hierarchy.l1.hit_latency", |c| {
            c.hierarchy.l1.hit_latency = u64::MAX
        }),
        ("hierarchy.l2", |c| {
            c.hierarchy.l2.capacity_bytes = usize::MAX
        }),
        ("hierarchy.l2", |c| c.hierarchy.l2.ways = usize::MAX),
        ("hierarchy.l2", |c| c.hierarchy.l2.line_bytes = 100),
        ("hierarchy.l2.hit_latency", |c| {
            c.hierarchy.l2.hit_latency = u64::MAX
        }),
        ("hierarchy.tlb", |c| c.hierarchy.tlb.entries = 0),
        ("hierarchy.tlb", |c| c.hierarchy.tlb.ways = 0),
        ("hierarchy.tlb.page_bytes", |c| {
            c.hierarchy.tlb.page_bytes = 3000
        }),
        ("hierarchy.tlb.miss_latency", |c| {
            c.hierarchy.tlb.miss_latency = u64::MAX
        }),
        ("hierarchy.memory_latency", |c| {
            c.hierarchy.memory_latency = u64::MAX
        }),
        ("branch.direction_entries", |c| {
            c.branch.direction_entries = 3
        }),
        ("branch.btb", |c| c.branch.btb_entries = 0),
        ("branch.btb", |c| c.branch.btb_ways = 0),
        ("branch.ras_depth", |c| c.branch.ras_depth = 0),
        ("branch.ras_depth", |c| c.branch.ras_depth = usize::MAX),
        ("branch.history_bits", |c| c.branch.history_bits = 64),
    ];
    for (field, rewrite) in rewrites {
        let mut bad = cfg.clone();
        rewrite(&mut bad);
        match refused(&with_config(payload, &bad), field).0 {
            SnapError::Corrupt(msg) => assert!(msg.contains(field), "{field}: {msg}"),
            other => panic!("{field}: expected Corrupt, got {other:?}"),
        }
    }
}
