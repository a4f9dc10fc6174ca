//! Property tests for the fleet wire codec: hostile bytes decode to
//! typed [`WireError`]s, never panics, and every well-formed frame
//! round-trips exactly — the same discipline `pgmp-observe`'s trace
//! reader pins for its JSONL codec, applied to the socket protocol.

use pgmp_profiled::wire::{ByeInfo, Frame, WireError, MAX_FRAME_LEN};
use pgmp_profiled::{Ack, Delta, EpochUpdate, Hello, Role};
use pgmp_syntax::SourceObject;
use proptest::prelude::*;

/// Printable-ASCII labels including `"` and `\`, exercising JSON string
/// escaping in control frames.
const LABEL: &str = "[ -~]{0,16}";

fn arb_point() -> impl Strategy<Value = SourceObject> {
    ("[a-z/.%\"\\\\-]{1,12}", 0u32..10_000, 0u32..10_000)
        .prop_map(|(file, bfp, len)| SourceObject::new(&file, bfp, bfp.saturating_add(len)))
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (
            (any::<bool>(), 0u64..1 << 48),
            (0u64..1 << 48, 0u32..10_000),
            proptest::collection::vec(arb_point(), 0..8)
        )
            .prop_map(|((publisher, pid), (inst, sampled_hz), points)| {
                Frame::Hello(Hello {
                    role: if publisher {
                        Role::Publisher
                    } else {
                        Role::Subscriber
                    },
                    pid,
                    inst,
                    sampled_hz,
                    points,
                })
            }),
        (0u32..1000, 0u64..1 << 48, 0u64..1 << 48).prop_map(|(dataset, epoch, inst)| Frame::Ack(
            Ack {
                dataset,
                epoch,
                inst
            }
        )),
        LABEL.prop_map(Frame::Error),
        (
            0u64..1 << 48,
            proptest::collection::vec((any::<u32>(), any::<u64>()), 0..32)
        )
            .prop_map(|(epoch, counts)| Frame::Delta(Delta { epoch, counts })),
        (
            (0u64..1 << 48, 0u64..1 << 48, 0u32..64, 0u32..10_000),
            (0u32..4096, 0u32..1025, LABEL, LABEL)
        )
            .prop_map(
                |((epoch, inst, datasets, points), (l1_8ths, tv_1024ths, path, profile))| {
                    // Dyadic drift values are exact in binary, so float
                    // round-trips through JSON are the identity.
                    Frame::Epoch(EpochUpdate {
                        epoch,
                        inst,
                        datasets,
                        points,
                        l1: f64::from(l1_8ths) / 8.0,
                        tv: f64::from(tv_1024ths) / 1024.0,
                        path,
                        profile,
                    })
                }
            ),
        (0u64..1 << 48, 0u64..1 << 48)
            .prop_map(|(inst, epoch)| Frame::Bye(ByeInfo { inst, epoch })),
        Just(Frame::Bye(ByeInfo::default())),
        Just(Frame::Shutdown),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let bytes = frame.encode();
        let (back, used) = Frame::decode(&bytes).expect("decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn frames_self_delimit_in_a_stream(frames in proptest::collection::vec(arb_frame(), 0..6)) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut decoded = Vec::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let (f, used) = Frame::decode(rest).expect("stream decode");
            decoded.push(f);
            rest = &rest[used..];
        }
        prop_assert_eq!(decoded, frames);
    }

    #[test]
    fn truncation_is_typed_never_a_panic(frame in arb_frame(), cut_permille in 0u32..1000) {
        let bytes = frame.encode();
        let cut = (bytes.len() * cut_permille as usize) / 1000;
        if cut < bytes.len() {
            prop_assert!(matches!(
                Frame::decode(&bytes[..cut]),
                Err(WireError::Truncated)
            ));
        }
    }

    #[test]
    fn single_bit_flips_never_panic(frame in arb_frame(), bit in any::<u32>()) {
        let mut bytes = frame.encode();
        let n = bytes.len() as u32 * 8;
        let bit = bit % n.max(1);
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        // Whatever happens — a different valid frame, or any typed
        // error — decode must return, not panic or over-allocate.
        match Frame::decode(&bytes) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(
                WireError::Truncated
                | WireError::BadLength(_)
                | WireError::UnknownKind(_)
                | WireError::BadPayload(_)
                | WireError::BadVersion(_),
            ) => {}
            Err(WireError::Io(e)) => prop_assert!(false, "pure decode returned Io: {e}"),
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        match Frame::decode(&bytes) {
            Ok((_, used)) => prop_assert!(used <= bytes.len()),
            Err(WireError::Io(e)) => prop_assert!(false, "pure decode returned Io: {e}"),
            Err(_) => {}
        }
    }

    #[test]
    fn length_header_is_capped_before_allocation(len in any::<u32>(), kind in any::<u8>()) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(kind);
        // However hostile the header, decode must not trust it into a
        // huge allocation: zero/oversized lengths are typed errors, and
        // everything within the cap is at worst Truncated/Unknown.
        match Frame::decode(&bytes) {
            Err(WireError::BadLength(n)) => {
                prop_assert!(n == 0 || n > MAX_FRAME_LEN);
            }
            Err(_) => prop_assert!((1..=MAX_FRAME_LEN).contains(&len)),
            Ok(_) => prop_assert_eq!(len, 1), // only an empty-payload frame fits in 5 bytes
        }
    }
}
