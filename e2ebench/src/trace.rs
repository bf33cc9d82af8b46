//! Outside-in measurement: a [`Probe`] at the `vm`→pager boundary and a
//! [`TracedTransport`] at the pool→wire boundary.
//!
//! The probe is on every pass — it is how `pagein_us`/`pageout_us` are
//! taken. Spans are recorded only on the traced pass: `device.page_in|
//! page_out` → `transport.call|call_pipelined|submit` → `link.forward|
//! link.return` (recorded by the relay, see [`crate::link`]). Spans of
//! one fault share its fault id; each names its parent. A transport span
//! runs on the thread that opened the device span, inside it, so the
//! open device span is a thread-local; the relay learns the open
//! transport span of its connection through a shared slot. A layer's
//! self time is its span minus its children's.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rmp_blockdev::PagingDevice;
use rmp_core::{PendingReplies, ServerTransport, ShardedPager, WindowStats};
use rmp_proto::Message;
use rmp_types::{Page, PageId, Result, TransferStats};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    PageIn,
    PageOut,
    Call,
    CallPipelined,
    Submit,
    LinkForward,
    LinkReturn,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::PageIn => "device.page_in",
            Kind::PageOut => "device.page_out",
            Kind::Call => "transport.call",
            Kind::CallPipelined => "transport.call_pipelined",
            Kind::Submit => "transport.submit",
            Kind::LinkForward => "link.forward",
            Kind::LinkReturn => "link.return",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// Span that caused this one; 0 for a device span, and for work
    /// outside any fault (recovery, prefetch completion).
    pub parent: u32,
    pub fault: u32,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans one recorder may keep; later ones are counted, not stored, so
/// the buffers never allocate while the clock runs.
const SPANS_PER_BUFFER: usize = 1 << 20;

/// Per-op latencies kept per op type; later ones are not sampled.
const SAMPLES_PER_KIND: usize = 1 << 21;

pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Shared clock, id source and registry of span buffers for one traced
/// pass.
pub struct Tracer {
    epoch: Instant,
    /// Set while the harness does work of its own through the pager.
    paused: AtomicBool,
    next_id: AtomicU32,
    buffers: Mutex<Vec<Arc<Mutex<SpanBuf>>>>,
    /// Per-op device latencies, for the conventional median and tail.
    pub samples: Mutex<Samples>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            paused: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            buffers: Mutex::new(Vec::new()),
            samples: Mutex::new(Samples {
                pagein: Vec::with_capacity(SAMPLES_PER_KIND),
                pageout: Vec::with_capacity(SAMPLES_PER_KIND),
            }),
        })
    }

    /// A preallocated buffer this tracer will write out at the end.
    pub fn buffer(&self) -> Arc<Mutex<SpanBuf>> {
        let buf = Arc::new(Mutex::new(SpanBuf {
            spans: Vec::with_capacity(SPANS_PER_BUFFER),
            dropped: 0,
        }));
        self.buffers
            .lock()
            .expect("span registry poisoned")
            .push(Arc::clone(&buf));
        buf
    }

    /// Stops (`true`) or resumes recording at the transport boundary.
    pub fn pause(&self, paused: bool) {
        // Set and read by the one thread that drives the crash cycle.
        self.paused.store(paused, Ordering::Relaxed);
    }

    pub fn next_id(&self) -> u32 {
        // An id only has to be unique; it orders nothing.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Durations (ns) of every recorded span of `kind`.
    pub fn durations(&self, kind: Kind) -> Vec<f64> {
        let mut out = Vec::new();
        for buf in self.buffers.lock().expect("span registry poisoned").iter() {
            let buf = buf.lock().expect("span buffer poisoned");
            out.extend(
                buf.spans
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| (s.end_ns - s.start_ns) as f64),
            );
        }
        out
    }

    /// Spans that found their buffer full.
    pub fn dropped(&self) -> u64 {
        self.buffers
            .lock()
            .expect("span registry poisoned")
            .iter()
            .map(|b| b.lock().expect("span buffer poisoned").dropped)
            .sum()
    }

    /// Writes every span as one JSON line; returns how many.
    pub fn write_to(&self, path: &str) -> std::io::Result<usize> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for buf in self.buffers.lock().expect("span registry poisoned").iter() {
            let buf = buf.lock().expect("span buffer poisoned");
            for s in &buf.spans {
                writeln!(
                    out,
                    "{{\"id\": {}, \"parent\": {}, \"fault\": {}, \"name\": \"{}\", \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent,
                    s.fault,
                    s.kind.name(),
                    s.start_ns,
                    s.end_ns
                )?;
                written += 1;
            }
        }
        out.flush()?;
        Ok(written)
    }
}

thread_local! {
    /// `(fault id, span id)` of the device span open on this thread.
    static OPEN: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    /// Transport time spent so far inside the open device span, ns.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Packs `(fault id, span id)` for the relay's connection slot.
pub fn pack(fault: u32, span: u32) -> u64 {
    u64::from(fault) << 32 | u64::from(span)
}

pub fn unpack(slot: u64) -> (u32, u32) {
    ((slot >> 32) as u32, slot as u32)
}

/// What one client thread saw at the device boundary since the last
/// [`Probe::take`].
#[derive(Clone, Copy, Default)]
pub struct DeviceAcc {
    pub pagein_ns: u64,
    pub pageins: u64,
    pub pageout_ns: u64,
    pub pageouts: u64,
    /// Calls that returned `Err`, or (shadow-checked) wrong bytes.
    pub failed: u64,
    /// Device time not covered by transport spans (traced pass only).
    pub self_ns: u64,
}

impl DeviceAcc {
    pub fn ops(&self) -> u64 {
        self.pageins + self.pageouts
    }

    pub fn device_ns(&self) -> u64 {
        self.pagein_ns + self.pageout_ns
    }

    pub fn add(&mut self, o: &DeviceAcc) {
        self.pagein_ns += o.pagein_ns;
        self.pageins += o.pageins;
        self.pageout_ns += o.pageout_ns;
        self.pageouts += o.pageouts;
        self.failed += o.failed;
        self.self_ns += o.self_ns;
    }
}

struct ProbeTrace {
    tracer: Arc<Tracer>,
    buf: Arc<Mutex<SpanBuf>>,
}

/// Per-op device latencies of the traced pass, ns.
pub struct Samples {
    pub pagein: Vec<u32>,
    pub pageout: Vec<u32>,
}

/// The `PagingDevice` the application sees: times every call into the
/// sharded pager and, on the traced pass, records it as a span.
pub struct Probe {
    pager: Arc<ShardedPager>,
    acc: DeviceAcc,
    trace: Option<ProbeTrace>,
    /// Last bytes written per page id, for applications whose pages are
    /// not regenerable from a seed (`Gauss` mutates its matrix): every
    /// page read back must equal the last one written.
    shadow: Vec<Option<Page>>,
}

impl Probe {
    pub fn new(pager: Arc<ShardedPager>) -> Self {
        Probe {
            pager,
            acc: DeviceAcc::default(),
            trace: None,
            shadow: Vec::new(),
        }
    }

    /// Records spans and per-op samples from now on.
    pub fn traced(mut self, tracer: &Arc<Tracer>) -> Self {
        self.trace = Some(ProbeTrace {
            tracer: Arc::clone(tracer),
            buf: tracer.buffer(),
        });
        self
    }

    /// Checks every page read back against the last write, for page ids
    /// below `pages`.
    pub fn shadowed(mut self, pages: usize) -> Self {
        self.shadow = vec![None; pages];
        self
    }

    /// What was seen since the last [`Probe::take`].
    pub fn seen(&self) -> &DeviceAcc {
        &self.acc
    }

    /// Returns and resets what was seen since the last call.
    pub fn take(&mut self) -> DeviceAcc {
        std::mem::take(&mut self.acc)
    }

    fn timed<R>(&mut self, kind: Kind, f: impl FnOnce(&ShardedPager) -> Result<R>) -> Result<R> {
        let ids = self.trace.as_ref().map(|t| {
            let ids = (t.tracer.next_id(), t.tracer.next_id());
            OPEN.set(ids);
            CHILD_NS.set(0);
            ids
        });
        let start = Instant::now();
        let result = f(&self.pager);
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        match kind {
            Kind::PageIn => {
                self.acc.pagein_ns += ns;
                self.acc.pageins += 1;
            }
            _ => {
                self.acc.pageout_ns += ns;
                self.acc.pageouts += 1;
            }
        }
        self.acc.failed += u64::from(result.is_err());
        if let (Some(t), Some((fault, id))) = (&self.trace, ids) {
            OPEN.set((0, 0));
            self.acc.self_ns += ns.saturating_sub(CHILD_NS.get());
            t.buf.lock().expect("span buffer poisoned").push(Span {
                id,
                parent: 0,
                fault,
                kind,
                start_ns: t.tracer.ns(start),
                end_ns: t.tracer.ns(end),
            });
            let mut samples = t.tracer.samples.lock().expect("samples poisoned");
            let series = if kind == Kind::PageIn {
                &mut samples.pagein
            } else {
                &mut samples.pageout
            };
            if series.len() < series.capacity() {
                series.push(ns.min(u64::from(u32::MAX)) as u32);
            }
        }
        result
    }
}

impl PagingDevice for Probe {
    fn page_out(&mut self, id: PageId, page: &Page) -> Result<()> {
        if let Some(slot) = self.shadow.get_mut(id.0 as usize) {
            match slot {
                Some(copy) => copy.as_mut().copy_from_slice(page.as_ref()),
                None => *slot = Some(page.clone()),
            }
        }
        self.timed(Kind::PageOut, |p| p.page_out(id, page))
    }

    fn page_in(&mut self, id: PageId) -> Result<Page> {
        let page = self.timed(Kind::PageIn, |p| p.page_in(id))?;
        if let Some(Some(written)) = self.shadow.get(id.0 as usize) {
            self.acc.failed += u64::from(*written != page);
        }
        Ok(page)
    }

    fn free(&mut self, id: PageId) -> Result<()> {
        self.pager.free(id)
    }

    fn contains(&self, id: PageId) -> bool {
        self.pager.contains(id)
    }

    fn flush(&mut self) -> Result<()> {
        self.pager.flush()
    }

    fn stats(&self) -> TransferStats {
        self.pager.stats()
    }
}

/// Counts and busy time of one shard's transports, all servers together.
#[derive(Default)]
pub struct TransportAgg {
    pub calls: AtomicU64,
    pub pipelined: AtomicU64,
    pub submits: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// A `ServerTransport` that records a span around every frame it puts
/// on the wire and forwards to the production transport inside.
pub struct TracedTransport {
    inner: Box<dyn ServerTransport>,
    tracer: Arc<Tracer>,
    buf: Arc<Mutex<SpanBuf>>,
    agg: Arc<TransportAgg>,
    /// Where the relay of this connection (if any) reads the open span.
    slot: Arc<AtomicU64>,
}

impl TracedTransport {
    pub fn new(
        inner: Box<dyn ServerTransport>,
        tracer: &Arc<Tracer>,
        agg: &Arc<TransportAgg>,
        slot: Arc<AtomicU64>,
    ) -> Self {
        TracedTransport {
            inner,
            tracer: Arc::clone(tracer),
            buf: tracer.buffer(),
            agg: Arc::clone(agg),
            slot,
        }
    }

    fn span<R>(&mut self, kind: Kind, f: impl FnOnce(&mut dyn ServerTransport) -> R) -> R {
        if self.tracer.paused.load(Ordering::Relaxed) {
            return f(self.inner.as_mut());
        }
        let (fault, parent) = OPEN.get();
        let id = self.tracer.next_id();
        // The relay only attributes its spans with this; a stale read
        // mislabels one span and corrupts nothing.
        self.slot.store(pack(fault, id), Ordering::Relaxed);
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let end = Instant::now();
        let ns = (end - start).as_nanos() as u64;
        CHILD_NS.set(CHILD_NS.get() + ns);
        let counter = match kind {
            Kind::Call => &self.agg.calls,
            Kind::CallPipelined => &self.agg.pipelined,
            _ => &self.agg.submits,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.agg.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.buf.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            fault,
            kind,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        out
    }
}

impl ServerTransport for TracedTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        self.span(Kind::Call, |t| t.call(msg))
    }

    fn send_only(&mut self, msg: &Message) -> Result<()> {
        self.inner.send_only(msg)
    }

    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        self.span(Kind::CallPipelined, |t| t.call_pipelined(msgs))
    }

    fn reconnect(&mut self) -> Result<()> {
        self.inner.reconnect()
    }

    fn submit(&mut self, msgs: &[Message]) -> Option<Result<PendingReplies>> {
        self.span(Kind::Submit, |t| t.submit(msgs))
    }

    fn window_stats(&self) -> Option<WindowStats> {
        self.inner.window_stats()
    }
}
