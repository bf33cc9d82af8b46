//! Protocol messages and their binary encoding.

use bytes::{Buf, BufMut, Bytes};
use rmp_types::{ErrorCode, Page, Result, RmpError, StoreKey, PAGE_SIZE};

use crate::wire::{FrameHeader, Opcode, HEADER_LEN};

/// Server load condition piggy-backed on acknowledgements.
///
/// Implements Section 2.1's advisory mechanism: when native
/// memory-demanding processes start on a server, the server tells the
/// client to stop sending pages; the client then migrates to another server
/// or falls back to its local disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LoadHint {
    /// The server has plenty of free memory.
    #[default]
    Ok,
    /// The server is under memory pressure; prefer other servers.
    Pressure,
    /// The server wants the client to stop sending pages and migrate away.
    StopSending,
}

impl LoadHint {
    fn to_u8(self) -> u8 {
        match self {
            LoadHint::Ok => 0,
            LoadHint::Pressure => 1,
            LoadHint::StopSending => 2,
        }
    }

    fn from_u8(b: u8) -> Result<LoadHint> {
        Ok(match b {
            0 => LoadHint::Ok,
            1 => LoadHint::Pressure,
            2 => LoadHint::StopSending,
            other => return Err(RmpError::Protocol(format!("bad load hint {other}"))),
        })
    }
}

/// A protocol message (request or reply).
#[derive(Clone, PartialEq, Debug)]
pub enum Message {
    /// Reserve `pages` swap frames on the server.
    Alloc {
        /// Number of page frames requested.
        pages: u32,
    },
    /// Grant of `granted` frames (zero means the allocation was denied —
    /// the server "runs out of memory and denies further swap space
    /// allocation requests").
    AllocReply {
        /// Frames actually reserved; may be less than requested.
        granted: u32,
        /// Current load condition.
        hint: LoadHint,
    },
    /// Store `page` under `id`.
    PageOut {
        /// Page identifier within this client's swap space.
        id: StoreKey,
        /// FNV checksum of `page`, stamped by the writer and carried
        /// end-to-end so either side can detect payload corruption.
        checksum: u64,
        /// Page contents: a whole page, or an erasure-coded stripe's unit.
        page: Page,
    },
    /// Pageout acknowledged.
    PageOutAck {
        /// Identifier echoed back.
        id: StoreKey,
        /// Current load condition (the advisory channel).
        hint: LoadHint,
    },
    /// Fetch the page stored under `id`.
    PageIn {
        /// Page identifier to fetch.
        id: StoreKey,
    },
    /// Page contents returned by the server.
    PageInReply {
        /// Identifier echoed back.
        id: StoreKey,
        /// FNV checksum of `page` as computed by the server over the
        /// stored bytes; lets the client detect both wire and
        /// store-level corruption.
        checksum: u64,
        /// Page contents, at the length they were stored.
        page: Page,
    },
    /// The server holds no page under the requested id.
    PageInMiss {
        /// Identifier echoed back.
        id: StoreKey,
    },
    /// Release the page stored under `id`.
    Free {
        /// Page identifier to release.
        id: StoreKey,
    },
    /// Free acknowledged (idempotent: freeing an absent page succeeds).
    FreeAck {
        /// Identifier echoed back.
        id: StoreKey,
    },
    /// Ask for the server's current load.
    LoadQuery,
    /// Server load report, the information the paper's servers provide
    /// "periodically to the client concerning the memory load of its host".
    LoadReport {
        /// Free page frames available for new allocations.
        free_pages: u64,
        /// Pages currently stored for this client.
        stored_pages: u64,
        /// Server host CPU utilization, per-mille (0..=1000).
        cpu_permille: u16,
        /// Current load condition.
        hint: LoadHint,
    },
    /// Enumerate stored page ids starting from `start` (inclusive).
    ListPages {
        /// First key to include; resume with `last_returned + 1`.
        start: StoreKey,
        /// Maximum ids to return.
        limit: u32,
    },
    /// A chunk of stored page ids, ascending.
    ListPagesReply {
        /// Page ids, strictly ascending.
        ids: Vec<StoreKey>,
        /// Whether more ids remain after the last one returned.
        more: bool,
    },
    /// Fault injection: simulate a workstation crash.
    InjectCrash,
    /// Orderly session shutdown.
    Shutdown,
    /// Error reply: a typed failure reason plus human-readable context.
    Error {
        /// Typed failure reason driving client-side handling.
        code: ErrorCode,
        /// Description of the failure (diagnostics only).
        message: String,
    },
    /// Basic-parity pageout: store `page` under `id`, reply with the XOR of
    /// the previous and new contents (Section 2.2's first parity step,
    /// with the delta routed back through the client).
    PageOutDelta {
        /// Page identifier within this client's swap space.
        id: StoreKey,
        /// FNV checksum of `page`, stamped by the writer.
        checksum: u64,
        /// New page contents.
        page: Page,
    },
    /// Reply to [`Message::PageOutDelta`] carrying `old XOR new`; if the
    /// server held no previous version the delta equals the new page.
    PageOutDeltaReply {
        /// Identifier echoed back.
        id: StoreKey,
        /// XOR of old and new contents.
        delta: Page,
        /// Current load condition.
        hint: LoadHint,
    },
    /// XOR `page` into the page stored under `id` (the parity update);
    /// the server creates a zero page first if `id` is absent.
    XorInto {
        /// Identifier of the parity page.
        id: StoreKey,
        /// Delta to fold in.
        page: Page,
    },
    /// Acknowledgement of [`Message::XorInto`].
    XorAck {
        /// Identifier echoed back.
        id: StoreKey,
    },
    /// Ask the server for its metrics snapshot (observability pull).
    GetStats,
    /// Metrics snapshot reply: a JSON document in the `rmp-metrics-v1`
    /// schema (see `OBSERVABILITY.md`). The server keeps the snapshot
    /// under [`MAX_STATS_JSON`] bytes so it fits a single frame.
    StatsReply {
        /// The JSON snapshot text.
        json: String,
    },
    /// Opens a windowed session: the client advertises how many
    /// seq-tagged frames it wants outstanding at once. Sent first on a
    /// fresh connection, before any [`Message::Windowed`] traffic.
    Hello {
        /// Requested window (outstanding-frame limit), at least 1.
        window: u32,
    },
    /// Grants a request window: the minimum of the client's ask and the
    /// server's per-session cap, never below 1.
    HelloReply {
        /// Granted window.
        window: u32,
    },
    /// One seq-tagged frame of a windowed session. `inner` is a complete
    /// ordinary message (its own header included on the wire); the reply
    /// echoes `seq`, so the client can keep a window of requests in
    /// flight and match replies arriving out of order. Envelopes do not
    /// nest.
    Windowed {
        /// Client-chosen tag echoed by the reply.
        seq: u32,
        /// The enveloped request or reply.
        inner: Box<Message>,
    },
}

/// Largest JSON payload a [`Message::StatsReply`] can carry and still fit
/// [`crate::wire::MAX_PAYLOAD`] (the 4 remaining bytes hold the length
/// prefix). Snapshot producers must stay under this or send a stub.
pub const MAX_STATS_JSON: usize = crate::wire::MAX_PAYLOAD - 4;

impl Message {
    /// Returns the opcode of this message.
    pub fn opcode(&self) -> Opcode {
        match self {
            Message::Alloc { .. } => Opcode::Alloc,
            Message::AllocReply { .. } => Opcode::AllocReply,
            Message::PageOut { .. } => Opcode::PageOut,
            Message::PageOutAck { .. } => Opcode::PageOutAck,
            Message::PageIn { .. } => Opcode::PageIn,
            Message::PageInReply { .. } => Opcode::PageInReply,
            Message::PageInMiss { .. } => Opcode::PageInMiss,
            Message::Free { .. } => Opcode::Free,
            Message::FreeAck { .. } => Opcode::FreeAck,
            Message::LoadQuery => Opcode::LoadQuery,
            Message::LoadReport { .. } => Opcode::LoadReport,
            Message::ListPages { .. } => Opcode::ListPages,
            Message::ListPagesReply { .. } => Opcode::ListPagesReply,
            Message::InjectCrash => Opcode::InjectCrash,
            Message::Shutdown => Opcode::Shutdown,
            Message::Error { .. } => Opcode::Error,
            Message::PageOutDelta { .. } => Opcode::PageOutDelta,
            Message::PageOutDeltaReply { .. } => Opcode::PageOutDeltaReply,
            Message::XorInto { .. } => Opcode::XorInto,
            Message::XorAck { .. } => Opcode::XorAck,
            Message::GetStats => Opcode::GetStats,
            Message::StatsReply { .. } => Opcode::StatsReply,
            Message::Hello { .. } => Opcode::Hello,
            Message::HelloReply { .. } => Opcode::HelloReply,
            Message::Windowed { .. } => Opcode::Windowed,
        }
    }

    /// Whether this request moves page data (pageouts, pageins, frees,
    /// parity updates) as opposed to control chatter (load
    /// probes, allocations, stats, listings).
    ///
    /// The pool's failure detector only lets a Suspect server earn trust
    /// back through clean *data-path* calls: a server that answers
    /// `GetStats` promptly while dropping every `PageIn` must not be
    /// re-promoted on the strength of its stats endpoint.
    pub fn is_data_op(&self) -> bool {
        if let Message::Windowed { inner, .. } = self {
            return inner.is_data_op();
        }
        matches!(
            self,
            Message::PageOut { .. }
                | Message::PageIn { .. }
                | Message::Free { .. }
                | Message::PageOutDelta { .. }
                | Message::XorInto { .. }
        )
    }

    /// Flips one bit of the page payload this message carries (reply
    /// corruption hook for fault injection): the page of a
    /// [`Message::PageInReply`] or the delta of a
    /// [`Message::PageOutDeltaReply`]. The frame checksum fields are left
    /// untouched, so the receiver's end-to-end verification sees exactly
    /// what on-wire corruption looks like. Returns `false` when the
    /// message carries no page payload.
    pub fn flip_payload_bit(&mut self, byte: usize, bit: u8) -> bool {
        let flip = |page: &mut Page| {
            let buf = page.as_mut();
            let idx = byte % buf.len();
            buf[idx] ^= 1 << (bit % 8);
        };
        match self {
            Message::PageInReply { page, .. } => {
                flip(page);
                true
            }
            Message::PageOutDeltaReply { delta, .. } => {
                flip(delta);
                true
            }
            Message::Windowed { inner, .. } => inner.flip_payload_bit(byte, bit),
            _ => false,
        }
    }

    /// Encodes the message (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Bytes {
        let mut frame = Vec::new();
        self.encode_into(&mut frame);
        Bytes::from(frame)
    }

    /// Bytes [`Message::encode_into`] is about to append, to within a few
    /// for the small frames: what it reserves before the first one.
    fn frame_len_hint(&self) -> usize {
        HEADER_LEN
            + match self {
                Message::PageOut { page, .. }
                | Message::PageInReply { page, .. }
                | Message::PageOutDelta { page, .. }
                | Message::PageOutDeltaReply { delta: page, .. }
                | Message::XorInto { page, .. } => 17 + page.as_ref().len(),
                Message::ListPagesReply { ids, .. } => 5 + ids.len() * 8,
                Message::Error { message: text, .. } | Message::StatsReply { json: text } => {
                    5 + text.len()
                }
                Message::Windowed { inner, .. } => 4 + inner.frame_len_hint(),
                _ => 24,
            }
    }

    /// Bytes [`Message::encode_windowed_into`] is about to append for this
    /// message, as closely as [`Message::encode_into`] knows its own: what
    /// the sender of a burst reserves once for all its frames, so that a
    /// fresh connection's buffer is allocated at the burst's size and not
    /// doubled up to it.
    pub fn windowed_len_hint(&self) -> usize {
        HEADER_LEN + 4 + self.frame_len_hint()
    }

    /// Appends the encoded frame (header + payload) to `out`: the one
    /// encoder. Every byte is written once, straight into the caller's
    /// buffer — the header goes first with its length left open and is
    /// patched when the payload's end is known, and an envelope encodes
    /// its inner frame in place — so a buffer reused from frame to frame
    /// makes encoding allocation-free.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.frame_len_hint());
        let frame = open_frame(self.opcode(), out);
        match self {
            Message::Alloc { pages } => out.put_u32_le(*pages),
            Message::AllocReply { granted, hint } => {
                out.put_u32_le(*granted);
                out.put_u8(hint.to_u8());
            }
            Message::PageOut { id, checksum, page }
            | Message::PageInReply { id, checksum, page }
            | Message::PageOutDelta { id, checksum, page } => {
                out.put_u64_le(id.0);
                out.put_u64_le(*checksum);
                out.put_slice(page.as_ref());
            }
            Message::PageOutAck { id, hint } => {
                out.put_u64_le(id.0);
                out.put_u8(hint.to_u8());
            }
            Message::PageIn { id }
            | Message::PageInMiss { id }
            | Message::Free { id }
            | Message::FreeAck { id }
            | Message::XorAck { id } => out.put_u64_le(id.0),
            Message::LoadQuery | Message::InjectCrash | Message::Shutdown | Message::GetStats => {}
            Message::LoadReport {
                free_pages,
                stored_pages,
                cpu_permille,
                hint,
            } => {
                out.put_u64_le(*free_pages);
                out.put_u64_le(*stored_pages);
                out.put_u16_le(*cpu_permille);
                out.put_u8(hint.to_u8());
            }
            Message::ListPages { start, limit } => {
                out.put_u64_le(start.0);
                out.put_u32_le(*limit);
            }
            Message::ListPagesReply { ids, more } => {
                out.put_u32_le(ids.len() as u32);
                out.put_u8(u8::from(*more));
                for id in ids {
                    out.put_u64_le(id.0);
                }
            }
            Message::Error { code, message } => {
                let bytes = message.as_bytes();
                out.put_u8(code.to_u8());
                out.put_u32_le(bytes.len() as u32);
                out.put_slice(bytes);
            }
            Message::XorInto { id, page } => {
                out.put_u64_le(id.0);
                out.put_slice(page.as_ref());
            }
            Message::PageOutDeltaReply { id, delta, hint } => {
                out.put_u64_le(id.0);
                out.put_u8(hint.to_u8());
                out.put_slice(delta.as_ref());
            }
            Message::StatsReply { json } => {
                let bytes = json.as_bytes();
                out.put_u32_le(bytes.len() as u32);
                out.put_slice(bytes);
            }
            Message::Hello { window } | Message::HelloReply { window } => {
                out.put_u32_le(*window);
            }
            Message::Windowed { seq, inner } => {
                out.put_u32_le(*seq);
                inner.encode_into(out);
            }
        }
        close_frame(frame, out);
    }

    /// Appends the windowed envelope of `inner` under `seq` to `out` —
    /// what [`Message::encode_into`] writes for the equivalent
    /// [`Message::Windowed`], without building (and boxing) one. The
    /// session loop and the reactor put every frame on the wire this way.
    pub fn encode_windowed_into(seq: u32, inner: &Message, out: &mut Vec<u8>) {
        out.reserve(inner.windowed_len_hint());
        let frame = open_frame(Opcode::Windowed, out);
        out.put_u32_le(seq);
        inner.encode_into(out);
        close_frame(frame, out);
    }

    /// Decodes a message payload of kind `opcode` from `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Protocol`] on truncated or malformed payloads.
    pub fn decode(opcode: Opcode, buf: Bytes) -> Result<Message> {
        Message::decode_from(opcode, &buf)
    }

    /// Decodes a message payload of kind `opcode` from a borrowed slice:
    /// the one decoder. Nothing is copied but what the message keeps — a
    /// page goes from `payload` into its [`Page`] in one pass.
    ///
    /// A `PageOut` or `PageInReply` carries a whole page or a stripe unit:
    /// its page is whatever the frame holds after the key and the checksum,
    /// as long as that is a length [`Page::unit`] takes. The delta and XOR
    /// frames carry whole pages only.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Protocol`] on truncated or malformed payloads.
    pub fn decode_from(opcode: Opcode, payload: &[u8]) -> Result<Message> {
        fn get_page(buf: &mut &[u8]) -> Result<Page> {
            let page = (buf.get(..PAGE_SIZE).and_then(Page::from_slice)).ok_or_else(|| {
                RmpError::Protocol(format!("truncated page payload: {} bytes", buf.len()))
            })?;
            buf.advance(PAGE_SIZE);
            Ok(page)
        }
        fn get_unit(buf: &mut &[u8]) -> Result<Page> {
            let unit = Page::unit(buf).ok_or_else(|| {
                RmpError::Protocol(format!(
                    "a {}-byte payload is neither a page nor a unit of one",
                    buf.len()
                ))
            })?;
            *buf = &[];
            Ok(unit)
        }
        fn get_text(buf: &mut &[u8], len: usize, what: &str) -> Result<String> {
            need(buf, len, what)?;
            let text = String::from_utf8(buf[..len].to_vec())
                .map_err(|_| RmpError::Protocol(format!("{what} not UTF-8")))?;
            buf.advance(len);
            Ok(text)
        }
        let mut buf = payload;
        let msg = match opcode {
            Opcode::Alloc => {
                need(buf, 4, "Alloc")?;
                Message::Alloc {
                    pages: buf.get_u32_le(),
                }
            }
            Opcode::AllocReply => {
                need(buf, 5, "AllocReply")?;
                Message::AllocReply {
                    granted: buf.get_u32_le(),
                    hint: LoadHint::from_u8(buf.get_u8())?,
                }
            }
            Opcode::PageOut => {
                need(buf, 16, "PageOut")?;
                let id = StoreKey(buf.get_u64_le());
                let checksum = buf.get_u64_le();
                Message::PageOut {
                    id,
                    checksum,
                    page: get_unit(&mut buf)?,
                }
            }
            Opcode::PageOutAck => {
                need(buf, 9, "PageOutAck")?;
                Message::PageOutAck {
                    id: StoreKey(buf.get_u64_le()),
                    hint: LoadHint::from_u8(buf.get_u8())?,
                }
            }
            Opcode::PageIn => {
                need(buf, 8, "PageIn")?;
                Message::PageIn {
                    id: StoreKey(buf.get_u64_le()),
                }
            }
            Opcode::PageInReply => {
                need(buf, 16, "PageInReply")?;
                let id = StoreKey(buf.get_u64_le());
                let checksum = buf.get_u64_le();
                Message::PageInReply {
                    id,
                    checksum,
                    page: get_unit(&mut buf)?,
                }
            }
            Opcode::PageInMiss => {
                need(buf, 8, "PageInMiss")?;
                Message::PageInMiss {
                    id: StoreKey(buf.get_u64_le()),
                }
            }
            Opcode::Free => {
                need(buf, 8, "Free")?;
                Message::Free {
                    id: StoreKey(buf.get_u64_le()),
                }
            }
            Opcode::FreeAck => {
                need(buf, 8, "FreeAck")?;
                Message::FreeAck {
                    id: StoreKey(buf.get_u64_le()),
                }
            }
            Opcode::LoadQuery => Message::LoadQuery,
            Opcode::LoadReport => {
                need(buf, 19, "LoadReport")?;
                Message::LoadReport {
                    free_pages: buf.get_u64_le(),
                    stored_pages: buf.get_u64_le(),
                    cpu_permille: buf.get_u16_le(),
                    hint: LoadHint::from_u8(buf.get_u8())?,
                }
            }
            Opcode::ListPages => {
                need(buf, 12, "ListPages")?;
                Message::ListPages {
                    start: StoreKey(buf.get_u64_le()),
                    limit: buf.get_u32_le(),
                }
            }
            Opcode::ListPagesReply => {
                need(buf, 5, "ListPagesReply")?;
                let count = buf.get_u32_le() as usize;
                let more = buf.get_u8() != 0;
                need(buf, count * 8, "ListPagesReply ids")?;
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    ids.push(StoreKey(buf.get_u64_le()));
                }
                Message::ListPagesReply { ids, more }
            }
            Opcode::InjectCrash => Message::InjectCrash,
            Opcode::Shutdown => Message::Shutdown,
            Opcode::Error => {
                need(buf, 5, "Error")?;
                let code = ErrorCode::from_u8(buf.get_u8());
                let len = buf.get_u32_le() as usize;
                let message = get_text(&mut buf, len, "error message")?;
                Message::Error { code, message }
            }
            Opcode::PageOutDelta => {
                need(buf, 16, "PageOutDelta")?;
                let id = StoreKey(buf.get_u64_le());
                let checksum = buf.get_u64_le();
                Message::PageOutDelta {
                    id,
                    checksum,
                    page: get_page(&mut buf)?,
                }
            }
            Opcode::PageOutDeltaReply => {
                need(buf, 9, "PageOutDeltaReply")?;
                let id = StoreKey(buf.get_u64_le());
                let hint = LoadHint::from_u8(buf.get_u8())?;
                Message::PageOutDeltaReply {
                    id,
                    delta: get_page(&mut buf)?,
                    hint,
                }
            }
            Opcode::XorInto => {
                need(buf, 8, "XorInto")?;
                let id = StoreKey(buf.get_u64_le());
                Message::XorInto {
                    id,
                    page: get_page(&mut buf)?,
                }
            }
            Opcode::XorAck => {
                need(buf, 8, "XorAck")?;
                Message::XorAck {
                    id: StoreKey(buf.get_u64_le()),
                }
            }
            Opcode::GetStats => Message::GetStats,
            Opcode::StatsReply => {
                need(buf, 4, "StatsReply")?;
                let len = buf.get_u32_le() as usize;
                let json = get_text(&mut buf, len, "stats json")?;
                Message::StatsReply { json }
            }
            Opcode::Hello => {
                need(buf, 4, "Hello")?;
                Message::Hello {
                    window: buf.get_u32_le(),
                }
            }
            Opcode::HelloReply => {
                need(buf, 4, "HelloReply")?;
                Message::HelloReply {
                    window: buf.get_u32_le(),
                }
            }
            Opcode::Windowed => {
                let (seq, inner) = Message::decode_windowed(buf)?;
                buf = &[];
                Message::Windowed {
                    seq,
                    inner: Box::new(inner),
                }
            }
        };
        if buf.has_remaining() {
            return Err(RmpError::Protocol(format!(
                "{} trailing bytes after {:?}",
                buf.remaining(),
                opcode
            )));
        }
        Ok(msg)
    }

    /// Decodes the payload of a [`Opcode::Windowed`] frame into its seq
    /// and the message it envelopes — the envelope opened without being
    /// built, which is how the session loop and the reactor read every
    /// frame ([`Message::decode_from`] boxes the same pair into a
    /// [`Message::Windowed`]).
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Protocol`] on a truncated, malformed or nested
    /// envelope, and whatever the inner payload fails with.
    pub fn decode_windowed(mut payload: &[u8]) -> Result<(u32, Message)> {
        need(payload, 4 + HEADER_LEN, "Windowed")?;
        let seq = payload.get_u32_le();
        let hdr = FrameHeader::decode(&mut payload)?;
        if hdr.opcode == Opcode::Windowed {
            return Err(RmpError::Protocol("nested windowed envelope".into()));
        }
        if payload.len() != hdr.len as usize {
            return Err(RmpError::Protocol(format!(
                "Windowed inner frame announces {} payload bytes, envelope holds {}",
                hdr.len,
                payload.len()
            )));
        }
        Ok((seq, Message::decode_from(hdr.opcode, payload)?))
    }
}

/// Fails unless `buf` still holds the `n` bytes `what` needs.
fn need(buf: &[u8], n: usize, what: &str) -> Result<()> {
    if buf.len() < n {
        return Err(RmpError::Protocol(format!(
            "truncated {what}: need {n} bytes, have {}",
            buf.len()
        )));
    }
    Ok(())
}

/// Starts a frame of kind `opcode` at the end of `out`: the header, its
/// length field left at zero for [`close_frame`]. Returns where the frame
/// starts.
fn open_frame(opcode: Opcode, out: &mut Vec<u8>) -> usize {
    let frame = out.len();
    FrameHeader { opcode, len: 0 }.encode(out);
    frame
}

/// Patches the length of the frame [`open_frame`] started at `frame` now
/// that its payload ends where `out` does.
fn close_frame(frame: usize, out: &mut [u8]) {
    let len = (out.len() - frame - HEADER_LEN) as u32;
    out[frame + 4..frame + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip(msg: Message) {
        let bytes = msg.encode();
        let mut buf = bytes.clone();
        let hdr = FrameHeader::decode(&mut buf).expect("header");
        assert_eq!(hdr.len as usize, bytes.len() - HEADER_LEN);
        let decoded = Message::decode(hdr.opcode, buf).expect("payload");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Alloc { pages: 128 });
        round_trip(Message::AllocReply {
            granted: 64,
            hint: LoadHint::Pressure,
        });
        round_trip(Message::PageOut {
            id: StoreKey(42),
            checksum: Page::deterministic(7).checksum(),
            page: Page::deterministic(7),
        });
        round_trip(Message::PageOutAck {
            id: StoreKey(42),
            hint: LoadHint::StopSending,
        });
        round_trip(Message::PageIn { id: StoreKey(9) });
        round_trip(Message::PageInReply {
            id: StoreKey(9),
            checksum: Page::filled(0x5A).checksum(),
            page: Page::filled(0x5A),
        });
        round_trip(Message::PageInMiss { id: StoreKey(9) });
        round_trip(Message::Free { id: StoreKey(1) });
        round_trip(Message::FreeAck { id: StoreKey(1) });
        round_trip(Message::LoadQuery);
        round_trip(Message::LoadReport {
            free_pages: 1000,
            stored_pages: 12,
            cpu_permille: 150,
            hint: LoadHint::Ok,
        });
        round_trip(Message::ListPages {
            start: StoreKey(5),
            limit: 100,
        });
        round_trip(Message::ListPagesReply {
            ids: vec![StoreKey(6), StoreKey(8), StoreKey(11)],
            more: true,
        });
        round_trip(Message::InjectCrash);
        round_trip(Message::Shutdown);
        round_trip(Message::Error {
            code: ErrorCode::OutOfMemory,
            message: "swap full".into(),
        });
        round_trip(Message::Error {
            code: ErrorCode::ShuttingDown,
            message: String::new(),
        });
        round_trip(Message::PageOutDelta {
            id: StoreKey(13),
            checksum: Page::deterministic(13).checksum(),
            page: Page::deterministic(13),
        });
        round_trip(Message::PageOutDeltaReply {
            id: StoreKey(13),
            delta: Page::deterministic(14),
            hint: LoadHint::Pressure,
        });
        round_trip(Message::XorInto {
            id: StoreKey(2),
            page: Page::deterministic(15),
        });
        round_trip(Message::XorAck { id: StoreKey(2) });
        round_trip(Message::GetStats);
        round_trip(Message::StatsReply {
            json: "{\"schema\": \"rmp-metrics-v1\", \"counters\": {}}".into(),
        });
        round_trip(Message::StatsReply {
            json: String::new(),
        });
        round_trip(Message::Hello { window: 32 });
        round_trip(Message::HelloReply { window: 16 });
        round_trip(Message::Windowed {
            seq: 77,
            inner: Box::new(Message::PageIn { id: StoreKey(9) }),
        });
        round_trip(Message::Windowed {
            seq: u32::MAX,
            inner: Box::new(Message::Error {
                code: ErrorCode::Overloaded,
                message: "worker queue full".into(),
            }),
        });
    }

    #[test]
    fn windowed_page_frames_fit_one_frame() {
        // The largest data frames left: the delta reply, and a page with
        // its key and checksum, which is the largest. Both pass the
        // header's payload check inside an envelope.
        let (page, seq) = (Page::deterministic(3), u32::MAX);
        let delta = Message::PageOutDeltaReply {
            id: StoreKey(u64::MAX),
            delta: page.clone(),
            hint: LoadHint::StopSending,
        };
        let read = Message::PageInReply {
            id: StoreKey(u64::MAX),
            checksum: page.checksum(),
            page,
        };
        for inner in [delta, read] {
            let inner = Box::new(inner);
            let bytes = Message::Windowed { seq, inner }.encode();
            assert!(bytes.len() <= HEADER_LEN + 4 + HEADER_LEN + 16 + PAGE_SIZE);
            let hdr = FrameHeader::decode(&mut bytes.clone()).expect("header");
            assert_eq!(hdr.len as usize, bytes.len() - HEADER_LEN);
        }
    }

    #[test]
    fn nested_windowed_envelope_rejected() {
        let inner = Message::Windowed {
            seq: 1,
            inner: Box::new(Message::LoadQuery),
        };
        let mut payload = BytesMut::new();
        payload.put_u32_le(2);
        payload.put_slice(&inner.encode());
        assert!(Message::decode(Opcode::Windowed, payload.freeze()).is_err());
    }

    #[test]
    fn windowed_encoder_matches_envelope_encoding() {
        let inner = Message::PageIn { id: StoreKey(41) };
        let envelope = Message::Windowed {
            seq: 9,
            inner: Box::new(inner.clone()),
        };
        // Behind another frame, as in a session's reply buffer: the
        // length patch must find its own header, not the buffer's start.
        let mut out = Message::LoadQuery.encode().to_vec();
        Message::encode_windowed_into(9, &inner, &mut out);
        assert_eq!(&out[HEADER_LEN..], &envelope.encode()[..]);
        let (seq, opened) = Message::decode_windowed(&out[2 * HEADER_LEN..]).expect("envelope");
        assert_eq!((seq, opened), (9, inner));
    }

    #[test]
    fn truncated_windowed_inner_rejected() {
        let envelope = Message::Windowed {
            seq: 5,
            inner: Box::new(Message::PageIn { id: StoreKey(1) }),
        };
        let bytes = envelope.encode();
        let mut buf = bytes.clone();
        let hdr = FrameHeader::decode(&mut buf).expect("header");
        let truncated = buf.slice(..buf.len() - 1);
        assert!(Message::decode(hdr.opcode, truncated).is_err());
    }

    #[test]
    fn stats_json_must_be_utf8() {
        let mut payload = BytesMut::new();
        payload.put_u32_le(2);
        payload.put_slice(&[0xFF, 0xFE]);
        assert!(Message::decode(Opcode::StatsReply, payload.freeze()).is_err());
    }

    #[test]
    fn max_stats_json_reply_fits_one_frame() {
        let msg = Message::StatsReply {
            json: "x".repeat(MAX_STATS_JSON),
        };
        let bytes = msg.encode();
        let mut buf = bytes.clone();
        // The frame header itself enforces MAX_PAYLOAD; a maximal stats
        // reply must still pass that check end to end.
        let hdr = FrameHeader::decode(&mut buf).expect("header");
        assert_eq!(Message::decode(hdr.opcode, buf).expect("payload"), msg);
    }

    #[test]
    fn truncated_pageout_rejected() {
        let msg = Message::PageOut {
            id: StoreKey(1),
            checksum: Page::zeroed().checksum(),
            page: Page::zeroed(),
        };
        let bytes = msg.encode();
        let mut buf = bytes.clone();
        let hdr = FrameHeader::decode(&mut buf).expect("header");
        let truncated = buf.slice(..buf.len() - 1);
        assert!(Message::decode(hdr.opcode, truncated).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msg = Message::PageIn { id: StoreKey(1) };
        let bytes = msg.encode();
        let mut extended = BytesMut::from(&bytes[..]);
        extended.put_u8(0xFF);
        let mut buf = extended.freeze();
        let hdr = FrameHeader::decode(&mut buf).expect("header");
        assert!(Message::decode(hdr.opcode, buf).is_err());
    }

    #[test]
    fn bad_load_hint_rejected() {
        let msg = Message::PageOutAck {
            id: StoreKey(3),
            hint: LoadHint::Ok,
        };
        let bytes = msg.encode();
        let mut raw = BytesMut::from(&bytes[..]);
        let last = raw.len() - 1;
        raw[last] = 9; // Invalid hint discriminant.
        let mut buf = raw.freeze();
        let hdr = FrameHeader::decode(&mut buf).expect("header");
        assert!(Message::decode(hdr.opcode, buf).is_err());
    }

    #[test]
    fn error_message_must_be_utf8() {
        let mut payload = BytesMut::new();
        payload.put_u8(ErrorCode::Internal.to_u8());
        payload.put_u32_le(2);
        payload.put_slice(&[0xFF, 0xFE]);
        assert!(Message::decode(Opcode::Error, payload.freeze()).is_err());
    }

    #[test]
    fn unknown_error_code_degrades_to_internal() {
        let mut payload = BytesMut::new();
        payload.put_u8(200); // Code from a future protocol revision.
        payload.put_u32_le(2);
        payload.put_slice(b"hi");
        match Message::decode(Opcode::Error, payload.freeze()).expect("decodes") {
            Message::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(message, "hi");
            }
            other => panic!("unexpected message {other:?}"),
        }
    }

    /// The payload of a `PageOut` / `PageInReply` whose page bytes are
    /// `len` bytes of a page's prefix.
    fn page_payload(len: usize) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.put_u64_le(7);
        payload.put_u64_le(0);
        payload.put_slice(&[0x3C; PAGE_SIZE + 64][..len]);
        payload
    }

    #[test]
    fn pageouts_and_replies_carry_units_at_their_length() {
        let page = Page::deterministic(29);
        // Every length a stripe of k + r <= 32 cuts a page into, 512 bytes
        // at k = 16, and the smaller ones `Page::unit` takes too.
        for len in (0..=8).map(|shift| PAGE_SIZE >> shift) {
            let unit = Page::unit(&page.as_ref()[..len]).expect("unit");
            let (id, checksum) = (StoreKey(len as u64), unit.checksum());
            let out = Message::PageOut {
                id,
                checksum,
                page: unit.clone(),
            };
            assert_eq!(out.encode().len(), HEADER_LEN + 16 + len);
            assert_eq!(out.frame_len_hint(), HEADER_LEN + 17 + len);
            round_trip(out);
            round_trip(Message::PageInReply {
                id,
                checksum,
                page: unit,
            });
        }
        for op in [Opcode::PageOut, Opcode::PageInReply] {
            for len in [0, 48, 4_000, PAGE_SIZE + 32] {
                let refused = Message::decode_from(op, &page_payload(len));
                assert!(
                    matches!(refused, Err(RmpError::Protocol(_))),
                    "{op:?} took a {len}-byte page: {refused:?}"
                );
            }
        }
    }

    #[test]
    fn delta_and_xor_frames_still_take_whole_pages_only() {
        let unit = Page::unit(&[5u8; 2048]).expect("unit");
        let frames = [
            Message::PageOutDelta {
                id: StoreKey(1),
                checksum: unit.checksum(),
                page: unit.clone(),
            },
            Message::PageOutDeltaReply {
                id: StoreKey(1),
                delta: unit.clone(),
                hint: LoadHint::Ok,
            },
            Message::XorInto {
                id: StoreKey(1),
                page: unit,
            },
        ];
        for frame in frames {
            let mut bytes = frame.encode();
            let hdr = FrameHeader::decode(&mut bytes).expect("header");
            assert!(
                matches!(
                    Message::decode(hdr.opcode, bytes),
                    Err(RmpError::Protocol(_))
                ),
                "{:?} carried a unit",
                hdr.opcode
            );
        }
    }

    #[test]
    fn pageout_frame_is_header_plus_id_plus_checksum_plus_page() {
        let msg = Message::PageOut {
            id: StoreKey(0),
            checksum: Page::zeroed().checksum(),
            page: Page::zeroed(),
        };
        assert_eq!(msg.encode().len(), HEADER_LEN + 8 + 8 + PAGE_SIZE);
    }
}
