//! Decoder robustness: arbitrary bytes must never panic, and valid
//! frames must round trip regardless of how the stream is chunked.

use bytes::{BufMut, Bytes};
use proptest::prelude::*;
use rmp_proto::{FrameAccumulator, FrameHeader, Framed, Message, Opcode};
use rmp_types::{Page, StoreKey, PAGE_SIZE};

/// Runs `data` through both entry points of the decoder — the
/// whole-frame wrapper over an owned payload, cut short where `data` is,
/// and the accumulator's borrowed-slice path. Neither may panic, and when
/// `data` holds a whole frame both must make the same thing of it.
fn decode_both_ways(data: &[u8]) {
    let mut acc = FrameAccumulator::new();
    acc.extend(data);
    let streamed = acc.next_frame();
    let mut buf: &[u8] = data;
    let Ok(hdr) = FrameHeader::decode(&mut buf) else {
        assert!(
            streamed.is_err() || data.len() < rmp_proto::wire::HEADER_LEN,
            "the accumulator passed a header the decoder refused"
        );
        return;
    };
    let take = (hdr.len as usize).min(buf.len());
    let whole = Message::decode(hdr.opcode, Bytes::copy_from_slice(&buf[..take]));
    if take == hdr.len as usize {
        assert_eq!(streamed.ok().flatten(), whole.ok());
    } else {
        assert_eq!(streamed.expect("an incomplete frame waits"), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: header decode either fails cleanly or yields
    /// a header whose payload decode also either fails cleanly or yields
    /// a message — no panics, no unbounded allocations.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..9000)) {
        decode_both_ways(&data);
    }

    /// Corrupting any single byte of a valid frame is detected (either a
    /// clean decode error, or a decode to a *different* message — never a
    /// crash, and never an out-of-bounds read).
    #[test]
    fn single_byte_corruption_is_safe(
        key in any::<u64>(),
        seed in any::<u64>(),
        corrupt_at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let msg = Message::PageOut {
            id: StoreKey(key),
            checksum: Page::deterministic(seed).checksum(),
            page: Page::deterministic(seed),
        };
        let mut bytes = msg.encode().to_vec();
        let at = corrupt_at.index(bytes.len());
        bytes[at] ^= xor;
        decode_both_ways(&bytes);
    }

    /// A page frame whose payload is a unit, a page or neither, under a
    /// valid header: it decodes exactly when `Page::unit` takes the bytes
    /// after the key and the checksum, and fails cleanly otherwise — cut
    /// short or corrupted anywhere, it never panics.
    #[test]
    fn page_frames_of_any_length_decode_or_fail_cleanly(
        pick in any::<u64>(),
        seed in any::<u64>(),
        corrupt_at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let shift = (pick / 4) % 9;
        let len = match pick % 4 {
            0 => PAGE_SIZE >> shift,
            1 => (PAGE_SIZE >> shift) + 32,
            2 => (PAGE_SIZE >> shift) - 16,
            _ => (pick / 64) as usize % (PAGE_SIZE + 64),
        };
        let op = if seed.is_multiple_of(2) { Opcode::PageOut } else { Opcode::PageInReply };
        let page = Page::deterministic(seed);
        let bytes: Vec<u8> = page.as_ref().iter().cycle().take(len).copied().collect();
        let mut frame = Vec::new();
        frame.put_u16_le(rmp_proto::MAGIC);
        frame.put_u8(rmp_proto::VERSION);
        frame.put_u8(op as u8);
        frame.put_u32_le((16 + len) as u32);
        frame.put_u64_le(seed);
        frame.put_u64_le(page.checksum());
        frame.put_slice(&bytes);
        decode_both_ways(&frame);
        let decoded = Message::decode_from(op, &frame[rmp_proto::wire::HEADER_LEN..]);
        prop_assert_eq!(decoded.is_ok(), Page::unit(&bytes).is_some());
        decode_both_ways(&frame[..corrupt_at.index(frame.len())]);
        let at = corrupt_at.index(frame.len());
        frame[at] ^= xor;
        decode_both_ways(&frame);
    }

    /// A pipelined stream of valid frames decodes identically however the
    /// reader chunks it (the transport must handle short reads).
    #[test]
    fn chunked_streams_decode_identically(
        keys in prop::collection::vec(any::<u64>(), 1..8),
        chunk in 1usize..64,
    ) {
        let messages: Vec<Message> = keys
            .iter()
            .map(|&k| Message::PageIn { id: StoreKey(k) })
            .collect();
        let mut stream = Vec::new();
        for m in &messages {
            stream.extend_from_slice(&m.encode());
        }
        // A reader that returns at most `chunk` bytes per read.
        struct Chunked {
            data: Vec<u8>,
            pos: usize,
            chunk: usize,
        }
        impl std::io::Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "end",
                    ));
                }
                let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        impl std::io::Write for Chunked {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut framed = Framed::new(Chunked {
            data: stream,
            pos: 0,
            chunk,
        });
        for expect in &messages {
            let got = framed.recv().expect("chunked frame decodes");
            prop_assert_eq!(&got, expect);
        }
    }

    /// Every opcode byte either maps to a stable opcode or errors.
    #[test]
    fn opcode_mapping_is_total(byte in any::<u8>()) {
        if let Ok(op) = Opcode::from_u8(byte) {
            prop_assert_eq!(op as u8, byte);
        } else {
            prop_assert!(byte == 0 || byte > 22);
        }
    }
}

/// Opcodes 23, 24 and 25 are reserved (see `wire.rs`): a well-formed
/// frame bearing one is a typed protocol error, not a panic and not a
/// message.
#[test]
fn reserved_opcode_23_is_a_protocol_error() {
    for reserved in [23, 24, 25] {
        let mut frame = bytes::BytesMut::new();
        frame.put_u16_le(rmp_proto::MAGIC);
        frame.put_u8(rmp_proto::VERSION);
        frame.put_u8(reserved);
        frame.put_u32_le(0);
        let err = FrameHeader::decode(&mut frame.freeze()).expect_err("reserved opcode");
        assert!(
            matches!(err, rmp_types::RmpError::Protocol(_)),
            "opcode {reserved}: got {err:?}"
        );
    }
}
