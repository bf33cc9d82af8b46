//! Wire protocol between the remote memory pager and its servers.
//!
//! The paper's client and servers speak over TCP sockets (Section 3.1); we
//! define a compact, hand-rolled binary protocol: each message is a framed
//! header (`magic`, `version`, `opcode`, payload length) followed by a
//! fixed-layout little-endian payload. A page payload is the raw page —
//! [`rmp_types::PAGE_SIZE`] bytes, or for a `PageOut` / `PageInReply` an
//! erasure-coded stripe's `PAGE_SIZE / k` byte unit — so a pageout frame is
//! one header plus the bytes it stores: no per-byte encoding overhead,
//! matching the paper's emphasis on minimal protocol-processing time.
//!
//! Server load advisories — the paper's "note advising the client to send
//! no more pages" — piggy-back on every acknowledgement as a [`LoadHint`],
//! so the client learns about server memory pressure without an
//! out-of-band channel.
//!
//! The pager opens every connection as a *windowed session* by sending
//! [`Message::Hello`] first: after the server's [`Message::HelloReply`]
//! grants a window, requests travel as seq-tagged [`Message::Windowed`]
//! envelopes and replies may come back out of order, up to the granted
//! number outstanding at once (see `DESIGN.md` §10). Bare frames — a
//! stats probe, crash injection — are plain request/response and are
//! answered in arrival order.

pub mod message;
pub mod transport;
pub mod wire;

pub use message::{LoadHint, Message, MAX_STATS_JSON};
pub use transport::{FrameAccumulator, Framed};
pub use wire::{FrameHeader, Opcode, MAGIC, MAX_PAYLOAD, VERSION};
