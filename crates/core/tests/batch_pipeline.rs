//! Batched/pipelined transport behavior against in-memory fakes.
//!
//! Covers the contract the TCP tests cannot stage deterministically:
//! batch replies arriving out of order are re-matched by sequence
//! number, a single bad page inside a batch surfaces as the same typed
//! error the single-page path produces, batching actually collapses
//! frame counts, and the stride prefetcher serves sequential workloads
//! from its cache (and drops entries the moment they could go stale).

use std::sync::{Arc, Mutex, MutexGuard};

use rmp_blockdev::PagingDevice;
use rmp_core::transport::ServerTransport;
use rmp_core::{ChaosServer, Pager, ServerPool};
use rmp_proto::{BatchItem, Message};
use rmp_types::{Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId, StoreKey};

/// What the fake does to the traffic of the faithful server behind it,
/// and what it counted.
#[derive(Default)]
struct BatchScript {
    /// When set, batch pagein items for this key carry a checksum over
    /// different bytes than the page — wire corruption.
    flip_key: Option<StoreKey>,
    /// When set, the batch pagein item for this key is a typed refusal.
    refuse_key: Option<(StoreKey, rmp_types::ErrorCode)>,
    /// Frames handled (each batch frame counts once).
    frames: u64,
    /// `call_pipelined` invocations.
    pipelined: u64,
    /// Answer pipelined bursts in reverse frame order.
    reverse_replies: bool,
    /// Misbehave: replace the burst's last reply with a copy of the
    /// first, so two replies carry the same seq (and one seq is missing).
    duplicate_seq: bool,
}

#[derive(Clone, Default)]
struct BatchServer {
    server: ChaosServer,
    script: Arc<Mutex<BatchScript>>,
}

impl BatchServer {
    fn script(&self) -> MutexGuard<'_, BatchScript> {
        self.script.lock().expect("script lock")
    }

    fn frames(&self) -> u64 {
        self.script().frames
    }

    fn pipelined(&self) -> u64 {
        self.script().pipelined
    }

    fn stored(&self) -> usize {
        self.server.stored_pages()
    }
}

struct BatchTransport(BatchServer);

impl ServerTransport for BatchTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let mut script = self.0.script();
        script.frames += 1;
        let mut reply = self.0.server.serve(0, msg);
        if let (Message::PageInBatch { ids, .. }, Message::BatchReply { items, .. }) =
            (msg, &mut reply)
        {
            for (id, item) in ids.iter().zip(items) {
                let BatchItem::Page { checksum, .. } = item else {
                    continue;
                };
                if script.flip_key == Some(*id) {
                    *checksum ^= 1;
                }
                if let Some((_, code)) = script.refuse_key.filter(|(key, _)| key == id) {
                    *item = BatchItem::Err(code);
                }
            }
        }
        Ok(reply)
    }

    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        self.0.script().pipelined += 1;
        let mut replies: Vec<Message> = msgs.iter().map(|m| self.call(m)).collect::<Result<_>>()?;
        let script = self.0.script();
        if script.reverse_replies {
            replies.reverse();
        }
        if script.duplicate_seq && replies.len() >= 2 {
            let first = replies[0].clone();
            let last = replies.len() - 1;
            replies[last] = first;
        }
        Ok(replies)
    }

    fn send_only(&mut self, _msg: &Message) -> Result<()> {
        Ok(())
    }
}

fn batch_pool(n: usize) -> (Vec<BatchServer>, ServerPool) {
    let mut pool = ServerPool::new();
    let mut servers = Vec::new();
    for i in 0..n {
        let server = BatchServer::default();
        pool.add_transport(
            ServerId(i as u32),
            Box::new(BatchTransport(server.clone())),
            1.0,
        );
        servers.push(server);
    }
    (servers, pool)
}

/// Stores pages `0..n` on server 0, one frame per page.
fn preload(pool: &mut ServerPool, n: u64) {
    for i in 0..n {
        pool.page_out(ServerId(0), StoreKey(i), &Page::deterministic(i))
            .expect("preload");
    }
}

#[test]
fn batch_round_trip_and_misses() {
    let (fakes, mut pool) = batch_pool(1);
    preload(&mut pool, 6);
    assert_eq!(fakes[0].stored(), 6);
    let keys = [StoreKey(0), StoreKey(99), StoreKey(5)];
    let got = pool.page_in_batch(ServerId(0), &keys).expect("batch in");
    assert_eq!(got[0], Some(Page::deterministic(0)));
    assert_eq!(got[1], None, "unknown key is a miss, not an error");
    assert_eq!(got[2], Some(Page::deterministic(5)));
}

#[test]
fn out_of_order_batch_replies_are_rematched_by_seq() {
    let (fakes, mut pool) = batch_pool(1);
    pool.set_batch_max_pages(4);
    preload(&mut pool, 10);
    fakes[0].script().reverse_replies = true;
    // 10 pages over a 4-page frame cap: three frames, and the fake
    // answers the pipelined burst in reverse order.
    let keys: Vec<StoreKey> = (0..10).map(StoreKey).collect();
    let got = pool.page_in_batch(ServerId(0), &keys).expect("batch in");
    for (i, page) in got.into_iter().enumerate() {
        assert_eq!(
            page,
            Some(Page::deterministic(i as u64)),
            "page {i} matched to the right reply despite reordering"
        );
    }
    assert!(
        fakes[0].pipelined() >= 1,
        "multi-frame batches went down the pipelined path"
    );
}

#[test]
fn duplicate_batch_seq_is_a_protocol_error() {
    // A server echoing the same seq twice is lying about which request
    // it answered; the earlier reply must not be silently overwritten.
    let (fakes, mut pool) = batch_pool(1);
    pool.set_batch_max_pages(4);
    preload(&mut pool, 10);
    fakes[0].script().duplicate_seq = true;
    let keys: Vec<StoreKey> = (0..10).map(StoreKey).collect();
    let err = pool
        .page_in_batch(ServerId(0), &keys)
        .expect_err("duplicated reply seq must fail the read");
    assert!(
        matches!(&err, RmpError::Protocol(m) if m.contains("duplicate")),
        "got {err:?}"
    );
}

#[test]
fn one_bad_page_fails_the_batch_with_a_typed_error() {
    // A refused item maps to the same typed error the single-page path
    // produces for a whole-call refusal.
    let (fakes, mut pool) = batch_pool(1);
    preload(&mut pool, 4);
    fakes[0].script().refuse_key = Some((StoreKey(1), rmp_types::ErrorCode::OutOfMemory));
    let keys: Vec<StoreKey> = (0..4).map(StoreKey).collect();
    let err = pool
        .page_in_batch(ServerId(0), &keys)
        .expect_err("refused item");
    assert!(matches!(err, RmpError::NoSpace(ServerId(0))), "got {err:?}");

    // Wire corruption of a single item maps to CorruptPage against that
    // key, exactly like the single-page frame verification.
    let (fakes, mut pool) = batch_pool(1);
    pool.set_verify_checksums(true);
    preload(&mut pool, 4);
    fakes[0].script().flip_key = Some(StoreKey(2));
    let keys: Vec<StoreKey> = (0..4).map(StoreKey).collect();
    let err = pool
        .page_in_batch(ServerId(0), &keys)
        .expect_err("corrupt item");
    assert!(
        matches!(
            err,
            RmpError::CorruptPage {
                server: ServerId(0),
                key: StoreKey(2)
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn batching_collapses_frame_counts() {
    let (single, mut pool) = batch_pool(1);
    preload(&mut pool, 16);
    let stored = single[0].frames();
    for i in 0..16 {
        pool.page_in(ServerId(0), StoreKey(i)).expect("single in");
    }
    assert_eq!(
        single[0].frames() - stored,
        16,
        "one frame per single-page call"
    );

    let (batched, mut pool) = batch_pool(1);
    pool.set_batch_max_pages(8);
    preload(&mut pool, 16);
    let stored = batched[0].frames();
    let keys: Vec<StoreKey> = (0..16).map(StoreKey).collect();
    pool.page_in_batch(ServerId(0), &keys).expect("batch in");
    assert_eq!(
        batched[0].frames() - stored,
        2,
        "16 pages at 8 per frame need exactly two frames"
    );
    // Wire-transfer accounting counts *pages*, not frames, so the two
    // paths agree on how much data moved.
    assert_eq!(pool.wire_transfers(), 16 + 16);
}

// --- prefetching ------------------------------------------------------------

fn prefetch_pager(n_servers: usize) -> (Vec<BatchServer>, Pager) {
    let (fakes, pool) = batch_pool(n_servers);
    let pager = Pager::builder(PagerConfig::new(Policy::NoReliability).with_servers(n_servers))
        .pool(pool)
        .build()
        .expect("pager");
    (fakes, pager)
}

#[test]
fn sequential_pageins_hit_the_prefetch_cache() {
    let (_fakes, mut pager) = prefetch_pager(2);
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    let hits = pager.metrics().counter("pager_prefetch_hits_total").get();
    let issued = pager.metrics().counter("pager_prefetch_issued_total").get();
    assert!(
        hits > 0,
        "a strictly sequential scan must hit the prefetch cache"
    );
    assert!(issued >= hits, "hits only come from issued prefetches");
    // Every page read exactly once, however it was served.
    assert_eq!(pager.stats().pageins, 40);
    assert_eq!(pager.stats().net_fetches, 40);
}

#[test]
fn prefetched_pages_are_invalidated_by_writes_and_frees() {
    let (_fakes, mut pager) = prefetch_pager(2);
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Scan, overwriting each page two ahead of the read cursor: whether
    // its old copy sits in the cache or in a batch that is still out, the
    // read must return the new contents, never the stale prefetched copy.
    for i in 0..20u64 {
        let expected = if i < 2 { i } else { 1000 + i };
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(expected),
            "a write invalidates any prefetched copy of page {i}"
        );
        pager
            .page_out(PageId(i + 2), &Page::deterministic(1000 + i + 2))
            .expect("overwrite");
    }
    assert!(
        pager.metrics().counter("pager_prefetch_hits_total").get() > 0,
        "the scan ran on read-ahead"
    );
    assert_eq!(
        pager.stats().checksum_failures,
        0,
        "stale copies were forgotten, not cached and then caught by their checksums"
    );
    // Freeing a page drops its cached copy too.
    pager.free(PageId(22)).expect("free");
    assert!(
        matches!(
            pager.page_in(PageId(22)),
            Err(RmpError::PageNotFound(PageId(22)))
        ),
        "a freed page cannot be served from the prefetch cache"
    );
}

#[test]
fn disabled_prefetch_window_never_prefetches() {
    let (fakes, pool) = batch_pool(2);
    let mut pager = Pager::builder(
        PagerConfig::new(Policy::NoReliability)
            .with_servers(2)
            .with_prefetch_window(0),
    )
    .pool(pool)
    .build()
    .expect("pager");
    for i in 0..20u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for i in 0..20u64 {
        pager.page_in(PageId(i)).expect("read");
    }
    assert_eq!(
        pager.metrics().counter("pager_prefetch_issued_total").get(),
        0,
        "prefetch_window = 0 disables the prefetcher"
    );
    // Each demand read is a submission of its own one frame — on these
    // fakes a `call_pipelined` of one — and nothing else was submitted.
    assert_eq!(
        fakes.iter().map(|f| f.pipelined()).sum::<u64>(),
        20,
        "one submission per demand read"
    );
    assert_eq!(
        fakes.iter().map(|f| f.frames()).sum::<u64>(),
        40 + 2,
        "no batch frames without a prefetcher: one frame per operation, and the two allocations"
    );
}
