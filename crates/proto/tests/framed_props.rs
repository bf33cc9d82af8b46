//! Property tests: `Framed` and `FrameAccumulator` must carry any message
//! sequence over a stream that delivers data in arbitrarily small pieces
//! — short reads, short writes, and spurious `Interrupted` errors, the
//! worst a real socket is allowed to behave under POSIX.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

use proptest::prelude::*;
use rmp_proto::{FrameAccumulator, FrameHeader, Framed, Message};
use rmp_types::{ErrorCode, Page, StoreKey, PAGE_SIZE};

/// A duplex in-memory stream that never moves more than `read_chunk` /
/// `write_chunk` bytes per call and injects an `Interrupted` error every
/// `interrupt_every`-th operation (below 2 disables — a cadence of 1
/// would starve the retry loops forever).
struct Trickle {
    inp: VecDeque<u8>,
    out: Vec<u8>,
    read_chunk: usize,
    write_chunk: usize,
    interrupt_every: usize,
    ops: usize,
}

impl Trickle {
    fn new(read_chunk: usize, write_chunk: usize, interrupt_every: usize) -> Self {
        Trickle {
            inp: VecDeque::new(),
            out: Vec::new(),
            read_chunk,
            write_chunk,
            interrupt_every,
            ops: 0,
        }
    }

    fn interrupt(&mut self) -> bool {
        self.ops += 1;
        self.interrupt_every >= 2 && self.ops.is_multiple_of(self.interrupt_every)
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.interrupt() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
        }
        let n = buf.len().min(self.read_chunk).min(self.inp.len());
        for b in buf.iter_mut().take(n) {
            *b = self.inp.pop_front().expect("sized above");
        }
        Ok(n)
    }
}

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.interrupt() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
        }
        let n = buf.len().min(self.write_chunk);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The page a frame of `seed` carries: a whole page, or a stripe unit of
/// one of the lengths a `(k, r)` stripe cuts it into (512 to 4,096 bytes).
fn page_or_unit(seed: u64) -> Page {
    let page = Page::deterministic(seed);
    match (seed / 7) % 5 {
        0 => page,
        split => Page::unit(&page.as_ref()[..PAGE_SIZE >> split]).expect("a legal unit"),
    }
}

/// A representative message per seed, covering fixed-size frames, page
/// and unit payloads, and the typed-error frame with its length-prefixed
/// text.
fn message_for(seed: u64) -> Message {
    match seed % 7 {
        0 => Message::PageIn { id: StoreKey(seed) },
        1 => Message::PageOut {
            id: StoreKey(seed),
            checksum: Page::deterministic(seed).checksum(),
            page: Page::deterministic(seed),
        },
        2 => Message::AllocReply {
            granted: (seed % 1024) as u32,
            hint: rmp_proto::LoadHint::Ok,
        },
        3 => Message::Error {
            code: ErrorCode::from_u8((seed % 4) as u8 + 1),
            message: format!("scripted failure {seed}"),
        },
        4 => Message::XorInto {
            id: StoreKey(seed),
            page: Page::deterministic(!seed),
        },
        5 => {
            let unit = page_or_unit(seed);
            Message::PageInReply {
                id: StoreKey(seed),
                checksum: unit.checksum(),
                page: unit,
            }
        }
        _ => Message::LoadQuery,
    }
}

/// A message per seed for the accumulator's stream: control frames, the
/// two page-carrying frames of a fault — a whole page or a unit — a stats
/// reply a few pages long, and each of those inside a windowed envelope.
fn stream_message(seed: u64) -> Message {
    let page = page_or_unit(seed);
    let bare = match seed % 5 {
        0 => Message::PageIn { id: StoreKey(seed) },
        1 => Message::PageOut {
            id: StoreKey(seed),
            checksum: page.checksum(),
            page,
        },
        2 => Message::PageInReply {
            id: StoreKey(seed),
            checksum: page.checksum(),
            page,
        },
        3 => Message::StatsReply {
            json: "x".repeat((seed % 20_000) as usize),
        },
        _ => Message::LoadQuery,
    };
    match (seed / 5) % 2 {
        0 => bare,
        _ => Message::Windowed {
            seq: (seed >> 8) as u32,
            inner: Box::new(bare),
        },
    }
}

/// Plays back a script of `read` outcomes, then reports end of stream.
struct Scripted(VecDeque<io::Result<Vec<u8>>>);

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.0.pop_front() {
            Some(Ok(bytes)) => {
                buf[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
            Some(Err(e)) => Err(e),
            None => Ok(0),
        }
    }
}

/// Regression: the server's session loop took any failed `read` for the
/// end of its session, so a signal delivered to the thread (`EINTR`) tore
/// down a healthy connection. The accumulator's fill is where the server
/// and the client driver both read, and it retries an interrupted read.
#[test]
fn an_interrupted_read_is_retried_not_the_end_of_the_stream() {
    let sent = [stream_message(1), stream_message(7)];
    let mut wire = Vec::new();
    for msg in &sent {
        msg.encode_into(&mut wire);
    }
    let interrupted = || Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
    let mut source = Scripted(VecDeque::from([
        interrupted(),
        Ok(wire[..4].to_vec()),
        interrupted(),
        Ok(wire[4..].to_vec()),
    ]));
    let mut acc = FrameAccumulator::new();
    assert_eq!(acc.fill_from(&mut source).expect("half a header"), 4);
    assert_eq!(acc.next_frame().expect("valid so far"), None);
    assert_eq!(
        acc.fill_from(&mut source).expect("the rest"),
        wire.len() - 4
    );
    for msg in &sent {
        assert_eq!(acc.next_frame().expect("valid"), Some(msg.clone()));
    }
    assert_eq!(acc.next_frame().expect("drained"), None);
    assert_eq!(acc.fill_from(&mut source).expect("end of stream"), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decode equivalence: however a stream of frames is cut into reads,
    /// the accumulator — filling itself from the reader and decoding from
    /// its own buffer — yields exactly the messages `Message::decode`
    /// yields from the whole frames; and the frames `encode_into` appends
    /// to one growing buffer are the frames `encode` builds one by one.
    #[test]
    fn any_chunking_decodes_as_the_whole_frames_do(
        seeds in prop::collection::vec(any::<u64>(), 1..10),
        cuts in prop::collection::vec(1usize..12_000, 1..24),
    ) {
        let messages: Vec<Message> = seeds.iter().map(|&s| stream_message(s)).collect();
        let mut wire = vec![0xAAu8; 3];
        let mut whole = Vec::new();
        for msg in &messages {
            let frame = msg.encode();
            let at = wire.len();
            msg.encode_into(&mut wire);
            prop_assert_eq!(&wire[at..], &frame[..]);
            let mut payload = frame.clone();
            let hdr = FrameHeader::decode(&mut payload).expect("own header");
            whole.push(Message::decode(hdr.opcode, payload).expect("own payload"));
        }
        prop_assert_eq!(&whole, &messages);

        let mut reads = cuts.iter().cycle();
        let mut rest = &wire[3..];
        let mut acc = FrameAccumulator::new();
        let mut streamed = Vec::new();
        while !rest.is_empty() {
            let (chunk, later) = rest.split_at(rest.len().min(*reads.next().expect("cycle")));
            rest = later;
            let read = acc.fill_from(&mut &chunk[..]).expect("a slice reads clean");
            prop_assert_eq!(read, chunk.len());
            while let Some(msg) = acc.next_frame().expect("valid stream") {
                streamed.push(msg);
            }
        }
        prop_assert_eq!(acc.buffered(), 0);
        prop_assert_eq!(&streamed, &whole);
    }

    /// Whatever the chunk sizes and interrupt cadence, a sequence written
    /// through `Framed::send` and read back through `Framed::recv` over
    /// the same trickling stream is received intact and in order.
    #[test]
    fn framed_round_trips_over_short_reads_and_writes(
        seeds in prop::collection::vec(any::<u64>(), 1..8),
        read_chunk in 1usize..16,
        write_chunk in 1usize..16,
        interrupt_every in 0usize..8,
    ) {
        let messages: Vec<Message> = seeds.iter().map(|&s| message_for(s)).collect();

        // Write side: short writes force write_all to loop; interrupts
        // force it to retry.
        let mut framed = Framed::new(Trickle::new(16, write_chunk, interrupt_every));
        for msg in &messages {
            framed.send(msg).expect("send never fails on a healthy pipe");
        }
        let written = framed.into_inner().out;

        // Read side: feed the exact bytes back through short reads.
        let mut trickle = Trickle::new(read_chunk, 16, interrupt_every);
        trickle.inp = written.into_iter().collect();
        let mut framed = Framed::new(trickle);
        for expected in &messages {
            let got = framed.recv().expect("recv reassembles every frame");
            prop_assert_eq!(&got, expected);
        }
    }
}
