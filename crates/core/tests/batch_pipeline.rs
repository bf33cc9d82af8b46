//! Batched/pipelined transport behavior against in-memory fakes.
//!
//! Covers the contract the TCP tests cannot stage deterministically:
//! batch replies arriving out of order are re-matched by sequence
//! number, a single bad page inside a batch surfaces as the same typed
//! error the single-page path produces, batching actually collapses
//! frame counts, and the stride prefetcher serves sequential workloads
//! from its cache (and drops entries the moment they could go stale).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rmp_blockdev::PagingDevice;
use rmp_core::transport::ServerTransport;
use rmp_core::{Pager, ServerPool};
use rmp_proto::{BatchItem, LoadHint, Message};
use rmp_types::{Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId, StoreKey};

struct BatchState {
    pages: HashMap<StoreKey, Page>,
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

#[derive(Clone)]
struct BatchServer(Rc<RefCell<BatchState>>);

impl BatchServer {
    fn new() -> Self {
        BatchServer(Rc::new(RefCell::new(BatchState {
            pages: HashMap::new(),
            flip_key: None,
            refuse_key: None,
            frames: 0,
            pipelined: 0,
            reverse_replies: false,
            duplicate_seq: false,
        })))
    }

    fn frames(&self) -> u64 {
        self.0.borrow().frames
    }

    fn pipelined(&self) -> u64 {
        self.0.borrow().pipelined
    }

    fn stored(&self) -> usize {
        self.0.borrow().pages.len()
    }
}

struct BatchTransport(Rc<RefCell<BatchState>>);

// SAFETY: the pool requires `ServerTransport: Send`, but every test here
// drives the pool from one thread and the `Rc` never crosses threads.
unsafe impl Send for BatchTransport {}

impl ServerTransport for BatchTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let mut st = self.0.borrow_mut();
        st.frames += 1;
        Ok(match msg.clone() {
            Message::Alloc { pages } => Message::AllocReply {
                granted: pages,
                hint: LoadHint::Ok,
            },
            Message::PageOut { id, page, .. } => {
                st.pages.insert(id, page);
                Message::PageOutAck {
                    id,
                    hint: LoadHint::Ok,
                }
            }
            Message::PageIn { id } => match st.pages.get(&id) {
                Some(p) => Message::PageInReply {
                    id,
                    checksum: p.checksum(),
                    page: p.clone(),
                },
                None => Message::PageInMiss { id },
            },
            Message::Free { id } => {
                st.pages.remove(&id);
                Message::FreeAck { id }
            }
            Message::LoadQuery => Message::LoadReport {
                free_pages: 1 << 20,
                stored_pages: st.pages.len() as u64,
                cpu_permille: 0,
                hint: LoadHint::Ok,
            },
            Message::PageInBatch { seq, ids } => {
                let items = ids
                    .iter()
                    .map(|id| match (st.pages.get(id), st.refuse_key) {
                        (Some(_), Some((key, code))) if key == *id => BatchItem::Err(code),
                        (Some(p), _) => {
                            let mut checksum = p.checksum();
                            if st.flip_key == Some(*id) {
                                checksum ^= 1;
                            }
                            BatchItem::Page {
                                checksum,
                                page: p.clone(),
                            }
                        }
                        (None, _) => BatchItem::Miss,
                    })
                    .collect();
                Message::BatchReply {
                    seq,
                    hint: LoadHint::Ok,
                    items,
                }
            }
            other => Message::Error {
                code: rmp_types::ErrorCode::Internal,
                message: format!("batch fake: unhandled {:?}", other.opcode()),
            },
        })
    }

    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        self.0.borrow_mut().pipelined += 1;
        let mut replies: Vec<Message> = msgs.iter().map(|m| self.call(m)).collect::<Result<_>>()?;
        if self.0.borrow().reverse_replies {
            replies.reverse();
        }
        if self.0.borrow().duplicate_seq && replies.len() >= 2 {
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
        let server = BatchServer::new();
        pool.add_transport(
            ServerId(i as u32),
            Box::new(BatchTransport(Rc::clone(&server.0))),
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
    fakes[0].0.borrow_mut().reverse_replies = true;
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
    fakes[0].0.borrow_mut().duplicate_seq = true;
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
    fakes[0].0.borrow_mut().refuse_key = Some((StoreKey(1), rmp_types::ErrorCode::OutOfMemory));
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
    fakes[0].0.borrow_mut().flip_key = Some(StoreKey(2));
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
    // Scan far enough that the cache holds read-ahead past page 19.
    for i in 0..20u64 {
        pager.page_in(PageId(i)).expect("read");
    }
    // Overwrite a page the prefetcher likely holds: the next read must
    // return the new contents, never the stale prefetched copy.
    pager
        .page_out(PageId(21), &Page::deterministic(2121))
        .expect("overwrite");
    assert_eq!(
        pager.page_in(PageId(21)).expect("read back"),
        Page::deterministic(2121),
        "a write invalidates any prefetched copy"
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
    assert_eq!(
        fakes.iter().map(|f| f.pipelined()).sum::<u64>(),
        0,
        "no batch frames without a prefetcher"
    );
}
