//! Property-based tests: the sparse memory image must behave exactly like
//! a flat byte map under arbitrary read/write sequences.

use proptest::prelude::*;
use sqip_mem::{MemImage, FRAME_BYTES, LINE_BYTES};
use sqip_types::{Addr, DataSize};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
enum Op {
    Write(u64, DataSize, u64),
    Read(u64, DataSize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let size = prop_oneof![
        Just(DataSize::Byte),
        Just(DataSize::Half),
        Just(DataSize::Word),
        Just(DataSize::Quad),
    ];
    prop_oneof![
        (0u64..16_384, size.clone(), any::<u64>()).prop_map(|(a, s, v)| Op::Write(a, s, v)),
        (0u64..16_384, size).prop_map(|(a, s)| Op::Read(a, s)),
    ]
}

proptest! {
    #[test]
    fn image_matches_reference_byte_map(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut image = MemImage::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for op in ops {
            match op {
                Op::Write(a, s, v) => {
                    image.write(Addr::new(a), s, v);
                    for (i, b) in Addr::new(a).span(s).byte_addrs().enumerate() {
                        reference.insert(b.0, (v >> (8 * i)) as u8);
                    }
                }
                Op::Read(a, s) => {
                    let mut want = 0u64;
                    for (i, b) in Addr::new(a).span(s).byte_addrs().enumerate() {
                        want |= u64::from(*reference.get(&b.0).unwrap_or(&0)) << (8 * i);
                    }
                    prop_assert_eq!(image.read(Addr::new(a), s), want);
                }
            }
        }
    }

    #[test]
    fn write_read_round_trip(a in 0u64..1_000_000, v in any::<u64>()) {
        let mut image = MemImage::new();
        for s in DataSize::ALL {
            image.write(Addr::new(a), s, v);
            prop_assert_eq!(image.read(Addr::new(a), s), s.truncate(v));
        }
    }

    #[test]
    fn image_matches_a_byte_model_across_lines_and_frames(
        ops in proptest::collection::vec(boundary_op_strategy(), 1..300)
    ) {
        let mut image = MemImage::new();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Write(a, s, v) => {
                    image.write(Addr::new(a), s, v);
                    for (i, b) in Addr::new(a).span(s).byte_addrs().enumerate() {
                        model.insert(b.0, (v >> (8 * i)) as u8);
                    }
                }
                Op::Read(a, s) => {
                    let resident = (image.resident_lines(), image.resident_frames());
                    let mut want = 0u64;
                    for (i, b) in Addr::new(a).span(s).byte_addrs().enumerate() {
                        want |= u64::from(model.get(&b.0).copied().unwrap_or(0)) << (8 * i);
                    }
                    prop_assert_eq!(image.read(Addr::new(a), s), want);
                    prop_assert_eq!(
                        u64::from(image.read_byte(Addr::new(a))),
                        want & 0xff
                    );
                    prop_assert_eq!(
                        (image.resident_lines(), image.resident_frames()),
                        resident,
                        "reads never allocate"
                    );
                }
            }
            // The image holds exactly the lines and frames the model's
            // bytes touch.
            let lines: std::collections::BTreeSet<u64> =
                model.keys().map(|b| b / LINE_BYTES as u64).collect();
            let frames: std::collections::BTreeSet<u64> =
                model.keys().map(|b| b / FRAME_BYTES as u64).collect();
            prop_assert_eq!(image.resident_lines(), lines.len());
            prop_assert_eq!(image.resident_frames(), frames.len());
        }
    }
}

/// Reads and writes of every size at addresses that land anywhere in a
/// few frames (two adjacent, one far, one near the top of the address
/// space), half of them within 7 bytes of a line or frame boundary, so
/// spans straddle lines and frames.
fn boundary_op_strategy() -> impl Strategy<Value = Op> {
    let size = prop_oneof![
        Just(DataSize::Byte),
        Just(DataSize::Half),
        Just(DataSize::Word),
        Just(DataSize::Quad),
    ];
    let frame = prop_oneof![
        Just(0x1000u64),
        Just(0x2000u64),
        Just(0x7654_3000u64),
        Just(0xffff_ffff_ffff_e000u64),
    ];
    let frame_bytes = FRAME_BYTES as u64;
    let line_bytes = LINE_BYTES as u64;
    let offset = prop_oneof![
        0u64..frame_bytes,
        (0u64..frame_bytes / line_bytes, 0u64..14).prop_map(move |(l, k)| (l * line_bytes
            + line_bytes
            - 7
            + k)
            % frame_bytes),
        (0u64..14).prop_map(move |k| frame_bytes - 7 + k),
    ];
    let addr = (frame, offset).prop_map(|(f, o)| f + o);
    prop_oneof![
        (addr.clone(), size.clone(), any::<u64>()).prop_map(|(a, s, v)| Op::Write(a, s, v)),
        (addr, size).prop_map(|(a, s)| Op::Read(a, s)),
    ]
}
