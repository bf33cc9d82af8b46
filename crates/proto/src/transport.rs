//! Framed message transport over any byte stream.

use std::io::{self, Read, Write};

use rmp_types::{Result, RmpError};

use crate::message::Message;
use crate::wire::{FrameHeader, Opcode, HEADER_LEN, MAX_PAYLOAD};

/// A blocking framed transport that reads and writes [`Message`]s over any
/// `Read + Write` stream (a `TcpStream` in production, an in-memory pipe in
/// tests).
///
/// The paper's pager uses one dedicated paging daemon per client issuing
/// synchronous requests over TCP sockets; `Framed` is that socket wrapper.
///
/// # Examples
///
/// ```
/// use rmp_proto::{Framed, Message};
/// use std::io::Cursor;
///
/// let bytes = Message::LoadQuery.encode();
/// let mut framed = Framed::new(Cursor::new(bytes.to_vec()));
/// let msg = framed.recv().unwrap();
/// assert_eq!(msg, Message::LoadQuery);
/// ```
pub struct Framed<S> {
    stream: S,
    /// The frame being sent, then the payload being received: one
    /// buffer, reused from message to message.
    buf: Vec<u8>,
}

impl<S: Read + Write> Framed<S> {
    /// Wraps a byte stream.
    pub fn new(stream: S) -> Self {
        Framed {
            stream,
            buf: Vec::new(),
        }
    }

    /// Returns a reference to the underlying stream.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Consumes the transport, returning the underlying stream.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Sends one message, flushing the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers treat connection errors as a
    /// server crash (see [`RmpError::is_server_failure`]).
    pub fn send(&mut self, msg: &Message) -> Result<()> {
        self.buf.clear();
        msg.encode_into(&mut self.buf);
        self.stream.write_all(&self.buf)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Receives one message, blocking until a full frame arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Io`] on stream failure or EOF, and
    /// [`RmpError::Protocol`] on malformed frames.
    pub fn recv(&mut self) -> Result<Message> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let hdr = FrameHeader::decode(&mut &header[..])?;
        self.buf.clear();
        self.buf.resize(hdr.len as usize, 0);
        self.stream.read_exact(&mut self.buf)?;
        Message::decode_from(hdr.opcode, &self.buf)
    }

    /// Sends `msg` and waits for the reply — the request/response pattern
    /// used by the paging daemon.
    ///
    /// If the server answers with [`Message::Error`] this returns
    /// [`RmpError::Remote`] carrying the typed code and the server's
    /// message, so callers can branch on the reason without string
    /// matching.
    ///
    /// # Errors
    ///
    /// See [`Framed::send`] and [`Framed::recv`].
    pub fn call(&mut self, msg: &Message) -> Result<Message> {
        self.send(msg)?;
        match self.recv()? {
            Message::Error { code, message } => Err(RmpError::Remote { code, message }),
            reply => Ok(reply),
        }
    }
}

/// The read buffer's size until a frame outgrows it: room for a full
/// 32-frame burst of page frames, which is how a peer writes them, so a
/// burst is one `read`.
const READ_CHUNK: usize = 256 * 1024;

/// The least room a `read` is worth making: below this the partial frame
/// at the buffer's end is first moved to its front.
const MIN_READ: usize = 16 * 1024;

/// Incremental frame decoder: the read buffer of a connection.
///
/// A socket hands back bytes in arbitrary chunks — half a header here,
/// three frames and a tail there. [`Framed::recv`] cannot be used on a
/// stream that is read as bytes arrive: its `read_exact` would corrupt the
/// decode state when a partial frame arrives. `FrameAccumulator` reads
/// whatever is available straight into its buffer
/// ([`FrameAccumulator::fill_from`]) and decodes complete frames from
/// where they lie, so an inbound page is copied once — out of this buffer
/// into its [`rmp_types::Page`]. Both the client reactor and the server's
/// session loop read their sockets through one of these.
///
/// # Examples
///
/// ```
/// use rmp_proto::{FrameAccumulator, Message};
///
/// let frame = Message::LoadQuery.encode();
/// let (head, tail) = frame.split_at(3);
/// let mut acc = FrameAccumulator::new();
/// acc.extend(head);
/// assert!(acc.next_frame().unwrap().is_none()); // partial header buffered
/// acc.extend(tail);
/// assert_eq!(acc.next_frame().unwrap(), Some(Message::LoadQuery));
/// ```
#[derive(Default)]
pub struct FrameAccumulator {
    /// Storage, initialised end to end so a `read` can be handed any
    /// part of it; `pos..end` holds the bytes not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

impl FrameAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        FrameAccumulator::default()
    }

    /// Room for at least `want` more bytes after the buffered ones: the
    /// consumed prefix is reclaimed first (free when nothing is buffered,
    /// else a move of the partial frame at the end), and the storage
    /// grows only when one frame or one `extend` is larger than all of it.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < want && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() - self.end < want {
            // Fresh zeroed storage comes untouched from the allocator, so
            // only the part of it that bytes land in is ever resident.
            let mut grown = vec![0u8; (self.end + want).max(READ_CHUNK)];
            grown[..self.end].copy_from_slice(&self.buf[..self.end]);
            self.buf = grown;
        }
        &mut self.buf[self.end..]
    }

    /// Bytes still missing from the frame at the front of the buffer, as
    /// far as its header (if it is here yet) tells.
    fn missing(&self) -> usize {
        let buffered = &self.buf[self.pos..self.end];
        if buffered.len() < HEADER_LEN {
            return HEADER_LEN - buffered.len();
        }
        let len = u32::from_le_bytes(buffered[4..HEADER_LEN].try_into().expect("four bytes"));
        // A length over the cap fails in `next_enveloped`; it must not
        // size the buffer first.
        (HEADER_LEN + (len as usize).min(MAX_PAYLOAD)).saturating_sub(buffered.len())
    }

    /// Reads once from `source` straight into the buffer and returns how
    /// many bytes arrived; `Ok(0)` is the source's end of stream. A read
    /// cut short by a signal ([`io::ErrorKind::Interrupted`]) is retried
    /// here, for every caller alike.
    ///
    /// # Errors
    ///
    /// Whatever else the source's `read` fails with — a timeout or
    /// `WouldBlock` included, which leave the buffered bytes as they were.
    pub fn fill_from<R: Read>(&mut self, source: &mut R) -> io::Result<usize> {
        let room = self.spare(self.missing().max(MIN_READ));
        loop {
            match source.read(room) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends bytes read elsewhere to the buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Number of buffered bytes not yet consumed by a decoded frame.
    pub fn buffered(&self) -> usize {
        self.end - self.pos
    }

    /// Decodes the next complete frame, if one is fully buffered, with a
    /// windowed envelope already opened: `(Some(seq), inner)` for a
    /// [`Opcode::Windowed`] frame, `(None, message)` for a bare one.
    ///
    /// Returns `Ok(None)` when more bytes are needed. Header validation
    /// (magic, version, opcode, payload cap) happens as soon as the
    /// header is buffered, so garbage fails fast instead of waiting for a
    /// bogus payload length to fill.
    ///
    /// # Errors
    ///
    /// Returns [`RmpError::Protocol`] on malformed headers or payloads;
    /// the stream is unrecoverable after an error.
    pub fn next_enveloped(&mut self) -> Result<Option<(Option<u32>, Message)>> {
        if self.buffered() < HEADER_LEN {
            return Ok(None);
        }
        let hdr = FrameHeader::decode(&mut &self.buf[self.pos..self.pos + HEADER_LEN])?;
        let frame_len = HEADER_LEN + hdr.len as usize;
        if self.buffered() < frame_len {
            return Ok(None);
        }
        let payload = &self.buf[self.pos + HEADER_LEN..self.pos + frame_len];
        self.pos += frame_len;
        Ok(Some(match hdr.opcode {
            Opcode::Windowed => {
                let (seq, inner) = Message::decode_windowed(payload)?;
                (Some(seq), inner)
            }
            opcode => (None, Message::decode_from(opcode, payload)?),
        }))
    }

    /// [`FrameAccumulator::next_enveloped`] with the envelope put back: a
    /// windowed frame comes out as the [`Message::Windowed`] it encodes.
    ///
    /// # Errors
    ///
    /// As [`FrameAccumulator::next_enveloped`].
    pub fn next_frame(&mut self) -> Result<Option<Message>> {
        Ok(self.next_enveloped()?.map(|frame| match frame {
            (Some(seq), inner) => Message::Windowed {
                seq,
                inner: Box::new(inner),
            },
            (None, bare) => bare,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmp_types::{ErrorCode, Page, StoreKey};
    use std::collections::VecDeque;
    use std::io;

    /// In-memory duplex stream: writes go to `out`, reads come from `inp`.
    struct Pipe {
        inp: VecDeque<u8>,
        out: Vec<u8>,
    }

    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.inp.is_empty() {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "empty"));
            }
            let n = buf.len().min(self.inp.len());
            for b in buf.iter_mut().take(n) {
                *b = self.inp.pop_front().expect("non-empty");
            }
            Ok(n)
        }
    }

    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_then_recv_round_trips() {
        let page = Page::deterministic(3);
        let msg = Message::PageOut {
            id: StoreKey(77),
            checksum: page.checksum(),
            page,
        };
        let mut tx = Framed::new(Pipe {
            inp: VecDeque::new(),
            out: Vec::new(),
        });
        tx.send(&msg).expect("send");
        let written = tx.into_inner().out;
        let mut rx = Framed::new(Pipe {
            inp: written.into(),
            out: Vec::new(),
        });
        assert_eq!(rx.recv().expect("recv"), msg);
    }

    #[test]
    fn recv_on_eof_is_io_error() {
        let mut rx = Framed::new(Pipe {
            inp: VecDeque::new(),
            out: Vec::new(),
        });
        let err = rx.recv().expect_err("eof");
        assert!(err.is_server_failure());
    }

    #[test]
    fn multiple_messages_stream_in_order() {
        let msgs = vec![
            Message::Alloc { pages: 10 },
            Message::LoadQuery,
            Message::Free { id: StoreKey(5) },
        ];
        let mut tx = Framed::new(Pipe {
            inp: VecDeque::new(),
            out: Vec::new(),
        });
        for m in &msgs {
            tx.send(m).expect("send");
        }
        let mut rx = Framed::new(Pipe {
            inp: tx.into_inner().out.into(),
            out: Vec::new(),
        });
        for m in &msgs {
            assert_eq!(&rx.recv().expect("recv"), m);
        }
    }

    #[test]
    fn call_surfaces_server_error() {
        let reply = Message::Error {
            code: ErrorCode::OutOfMemory,
            message: "denied".into(),
        };
        let mut framed = Framed::new(Pipe {
            inp: reply.encode().to_vec().into(),
            out: Vec::new(),
        });
        let err = framed.call(&Message::LoadQuery).expect_err("error reply");
        match &err {
            RmpError::Remote { code, message } => {
                assert_eq!(*code, ErrorCode::OutOfMemory);
                assert_eq!(message, "denied");
            }
            other => panic!("expected typed remote error, got {other:?}"),
        }
        assert!(err.to_string().contains("denied"));
    }

    #[test]
    fn accumulator_reassembles_byte_by_byte() {
        let page = Page::deterministic(4);
        let msg = Message::PageOut {
            id: StoreKey(11),
            checksum: page.checksum(),
            page,
        };
        let frame = msg.encode();
        let mut acc = FrameAccumulator::new();
        for (i, b) in frame.iter().enumerate() {
            acc.extend(std::slice::from_ref(b));
            let got = acc.next_frame().expect("valid stream");
            if i + 1 < frame.len() {
                assert!(got.is_none(), "frame complete early at byte {i}");
            } else {
                assert_eq!(got, Some(msg.clone()));
            }
        }
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_yields_burst_of_frames_in_order() {
        let msgs = vec![
            Message::Windowed {
                seq: 1,
                inner: Box::new(Message::PageIn { id: StoreKey(1) }),
            },
            Message::Windowed {
                seq: 2,
                inner: Box::new(Message::LoadQuery),
            },
            Message::Shutdown,
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let mut acc = FrameAccumulator::new();
        acc.extend(&wire);
        for m in &msgs {
            assert_eq!(acc.next_frame().expect("valid"), Some(m.clone()));
        }
        assert_eq!(acc.next_frame().expect("drained"), None);
    }

    #[test]
    fn accumulator_rejects_garbage_header_early() {
        let mut acc = FrameAccumulator::new();
        // Bad magic with a huge bogus length: must fail as soon as the
        // header is buffered, not wait for 4 GiB of payload.
        acc.extend(&[0xDE, 0xAD, 2, 5, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(acc.next_frame().is_err());
    }

    #[test]
    fn accumulator_compacts_consumed_prefix() {
        let frame = Message::LoadQuery.encode();
        let mut acc = FrameAccumulator::new();
        for _ in 0..1000 {
            acc.extend(&frame);
            assert!(acc.next_frame().expect("valid").is_some());
        }
        assert_eq!(acc.buffered(), 0);
    }
}
