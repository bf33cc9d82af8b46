//! Frame header layout and opcodes.

use bytes::{Buf, BufMut};
use rmp_types::{Result, RmpError};

/// Magic bytes opening every frame (`"RM"`).
pub const MAGIC: u16 = 0x524D;

/// Protocol version carried by every frame. Version 2 added the
/// end-to-end page checksum to `PageOut`/`PageInReply`/`PageOutDelta`;
/// version 3 changed the function behind it ([`rmp_types::Page::checksum`]
/// became four interleaved lanes), which both ends must agree on — a
/// version-2 peer's sums would fail every check, so it is refused at the
/// first header instead. Version 4 lets a `PageOut` or `PageInReply`
/// carry a stripe unit of `PAGE_SIZE / k` bytes in place of a whole page,
/// which a version-3 peer rejects as truncated.
pub const VERSION: u8 = 4;

/// Size of the encoded frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame payload, checked when a header is decoded so
/// that a corrupt or hostile length field cannot trigger an unbounded
/// allocation. What needs the room is a `StatsReply` — a server's whole
/// metrics snapshot as JSON, up to [`crate::MAX_STATS_JSON`], which is
/// this minus the length prefix; the largest data frame, a `Windowed`
/// page with its key and checksum, is a page and 36 bytes. A sender
/// sizes its frames by it and a receiver refuses by it, so the value is
/// part of [`VERSION`] and does not move without it.
pub const MAX_PAYLOAD: usize = 525_888;

/// Operation codes of the RMP protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Opcode {
    /// Client asks the server to reserve swap frames.
    Alloc = 1,
    /// Server grants (possibly partially) or denies an allocation.
    AllocReply = 2,
    /// Client ships a page to the server.
    PageOut = 3,
    /// Server acknowledges a pageout.
    PageOutAck = 4,
    /// Client requests a page back.
    PageIn = 5,
    /// Server returns page contents.
    PageInReply = 6,
    /// Server does not hold the requested page.
    PageInMiss = 7,
    /// Client releases a page (e.g. reclaimed parity group member).
    Free = 8,
    /// Server acknowledges a free.
    FreeAck = 9,
    /// Client asks for the server's memory/CPU load.
    LoadQuery = 10,
    /// Server reports its load.
    LoadReport = 11,
    /// Client enumerates the page ids the server holds (recovery/migration).
    ListPages = 12,
    /// Server returns a chunk of page ids.
    ListPagesReply = 13,
    /// Fault injection: server drops all state and aborts connections.
    InjectCrash = 14,
    /// Orderly shutdown of the per-client session.
    Shutdown = 15,
    /// Generic error reply with a message.
    Error = 16,
    /// Basic-parity pageout: store the page and return the XOR of the old
    /// and new contents so the client can update the parity server
    /// (Section 2.2, the two-step parity update).
    PageOutDelta = 17,
    /// Reply to [`Opcode::PageOutDelta`] carrying the old-XOR-new delta.
    PageOutDeltaReply = 18,
    /// XOR the carried page into the page stored under the given id
    /// (creating a zero page if absent) — the parity-server update.
    XorInto = 19,
    /// Acknowledgement of [`Opcode::XorInto`].
    XorAck = 20,
    /// Client asks the server for its metrics snapshot (observability).
    GetStats = 21,
    /// Server returns a JSON metrics snapshot (schema `rmp-metrics-v1`).
    StatsReply = 22,
    // 23, 24 and 25 are reserved and must not be reassigned: a peer built
    // before their removal (the batch frames: `PageOutBatch`, then
    // `PageInBatch` / `BatchReply`) may still send them. They decode to a
    // typed `Protocol` error like any unknown opcode.
    /// Client opens a windowed session, advertising the request window
    /// it wants (sent first on a fresh connection).
    Hello = 26,
    /// Server grants a request window: the minimum of the client's ask
    /// and its own per-session cap.
    HelloReply = 27,
    /// Envelope carrying one seq-tagged inner frame of a windowed
    /// session; the reply echoes the same seq, so many requests can be
    /// outstanding and answered out of order on one connection.
    Windowed = 28,
}

impl Opcode {
    /// Decodes a raw opcode byte.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Protocol`] for unknown opcodes.
    pub fn from_u8(b: u8) -> Result<Opcode> {
        Ok(match b {
            1 => Opcode::Alloc,
            2 => Opcode::AllocReply,
            3 => Opcode::PageOut,
            4 => Opcode::PageOutAck,
            5 => Opcode::PageIn,
            6 => Opcode::PageInReply,
            7 => Opcode::PageInMiss,
            8 => Opcode::Free,
            9 => Opcode::FreeAck,
            10 => Opcode::LoadQuery,
            11 => Opcode::LoadReport,
            12 => Opcode::ListPages,
            13 => Opcode::ListPagesReply,
            14 => Opcode::InjectCrash,
            15 => Opcode::Shutdown,
            16 => Opcode::Error,
            17 => Opcode::PageOutDelta,
            18 => Opcode::PageOutDeltaReply,
            19 => Opcode::XorInto,
            20 => Opcode::XorAck,
            21 => Opcode::GetStats,
            22 => Opcode::StatsReply,
            26 => Opcode::Hello,
            27 => Opcode::HelloReply,
            28 => Opcode::Windowed,
            other => return Err(RmpError::Protocol(format!("unknown opcode {other}"))),
        })
    }
}

/// Decoded frame header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameHeader {
    /// Operation carried by the frame.
    pub opcode: Opcode,
    /// Payload length in bytes.
    pub len: u32,
}

impl FrameHeader {
    /// Encodes the header into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(self.opcode as u8);
        buf.put_u32_le(self.len);
    }

    /// Decodes a header from exactly [`HEADER_LEN`] bytes.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Protocol`] on bad magic, version mismatch,
    /// unknown opcode, or oversized payload length.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<FrameHeader> {
        if buf.remaining() < HEADER_LEN {
            return Err(RmpError::Protocol("short frame header".into()));
        }
        let magic = buf.get_u16_le();
        if magic != MAGIC {
            return Err(RmpError::Protocol(format!("bad magic {magic:#06x}")));
        }
        let version = buf.get_u8();
        if version != VERSION {
            return Err(RmpError::Protocol(format!(
                "version mismatch: got {version}, want {VERSION}"
            )));
        }
        let opcode = Opcode::from_u8(buf.get_u8())?;
        let len = buf.get_u32_le();
        if len as usize > MAX_PAYLOAD {
            return Err(RmpError::Protocol(format!(
                "payload length {len} exceeds maximum {MAX_PAYLOAD}"
            )));
        }
        Ok(FrameHeader { opcode, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use rmp_types::PAGE_SIZE;

    #[test]
    fn header_round_trip() {
        let hdr = FrameHeader {
            opcode: Opcode::PageOut,
            len: PAGE_SIZE as u32 + 8,
        };
        let mut buf = BytesMut::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let decoded = FrameHeader::decode(&mut buf.freeze()).expect("decodes");
        assert_eq!(decoded, hdr);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(0xDEAD);
        buf.put_u8(VERSION);
        buf.put_u8(Opcode::Alloc as u8);
        buf.put_u32_le(0);
        assert!(FrameHeader::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION + 1);
        buf.put_u8(Opcode::Alloc as u8);
        buf.put_u32_le(0);
        assert!(FrameHeader::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn rejects_unknown_opcode() {
        assert!(Opcode::from_u8(0).is_err());
        assert!(Opcode::from_u8(200).is_err());
    }

    #[test]
    fn rejects_oversized_payload() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u8(Opcode::PageOut as u8);
        buf.put_u32_le(u32::MAX);
        assert!(FrameHeader::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn rejects_truncated_header() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        assert!(FrameHeader::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn all_opcodes_round_trip() {
        let reserved = 23..=25u8;
        for code in (1..=28u8).filter(|c| !reserved.contains(c)) {
            let op = Opcode::from_u8(code).expect("valid opcode");
            assert_eq!(op as u8, code);
        }
        for code in reserved {
            assert!(Opcode::from_u8(code).is_err(), "{code} is reserved");
        }
        assert!(Opcode::from_u8(29).is_err());
    }
}
