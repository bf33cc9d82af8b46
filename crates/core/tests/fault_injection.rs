//! Byzantine and partial-failure tests against an in-memory fake server.
//!
//! The TCP integration tests exercise clean crashes; this suite drives
//! the pager against a programmable fake transport that can deny
//! allocations, die mid-call, "forget" pages, answer with protocol
//! garbage, or flap between dead and alive — failure shapes a real
//! cluster produces and the wire tests cannot stage deterministically.

mod support;

use std::sync::{Arc, Mutex, MutexGuard};

use rmp_blockdev::{PagingDevice, RamDisk};
use rmp_core::transport::ServerTransport;
use rmp_core::{ChaosServer, ServerPool, ShardedPager};
use rmp_proto::{LoadHint, Message};
use rmp_types::{
    ErrorCode, Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId, StoreKey,
};

use support::{landed, one_shard};

/// Scripted failure modes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Fault {
    /// Healthy operation.
    #[default]
    None,
    /// Connection failures on every call (a crashed workstation).
    Dead,
    /// Deny all allocation requests (out of memory).
    DenyAlloc,
    /// Grant frames, then refuse every store as out of memory.
    RefuseStore,
    /// Answer every pagein with a miss (lost its store).
    Amnesia,
    /// Reply with a nonsensical message (protocol violation).
    Garbage,
    /// Serve pageins with one bit flipped and the checksum recomputed
    /// over the corrupted bytes — corruption *at rest*: the reply is
    /// self-consistent, so only the writer's own checksum can catch it.
    BitFlipStore,
    /// Serve pageins with one bit flipped but the stored page's checksum
    /// — corruption *on the wire*: the reply is self-inconsistent and the
    /// pool's frame verification catches it.
    BitFlipWire,
}

/// The failure mode in force and the calls seen so far.
#[derive(Default)]
struct FakeScript {
    fault: Fault,
    calls: u64,
}

/// Handle the test keeps on one fake: a faithful server and the script
/// the transport in front of it plays.
#[derive(Clone, Default)]
struct FakeServer {
    server: ChaosServer,
    script: Arc<Mutex<FakeScript>>,
}

impl FakeServer {
    fn script(&self) -> MutexGuard<'_, FakeScript> {
        self.script.lock().expect("script lock")
    }

    fn set_fault(&self, fault: Fault) {
        self.script().fault = fault;
    }

    fn stored(&self) -> usize {
        self.server.stored_pages()
    }

    fn calls(&self) -> u64 {
        self.script().calls
    }

    fn wipe(&self) {
        self.server.crash();
        self.server.restart();
    }
}

/// Flips one bit of `page` as `fault` prescribes and returns the checksum
/// the reply should carry: recomputed for corruption at rest, the stored
/// page's own for corruption on the wire.
fn flip(fault: Fault, page: &mut Page, checksum: u64) -> u64 {
    page.as_mut()[0] ^= 0x01;
    if fault == Fault::BitFlipStore {
        page.checksum()
    } else {
        checksum
    }
}

/// The fake transport: serves the protocol through the shared server and
/// bends the replies to the scripted fault.
struct FakeTransport(FakeServer);

impl ServerTransport for FakeTransport {
    fn call(&mut self, msg: &Message) -> Result<Message> {
        let mut script = self.0.script();
        script.calls += 1;
        let fault = script.fault;
        match fault {
            Fault::Dead => {
                return Err(RmpError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionReset,
                    "fake crash",
                )))
            }
            Fault::Garbage => return Ok(Message::FreeAck { id: StoreKey(0) }),
            _ => {}
        }
        if let (Fault::RefuseStore, Message::PageOut { id, .. }) = (fault, msg) {
            return Err(RmpError::Remote {
                code: ErrorCode::OutOfMemory,
                message: format!("out of memory storing {id}"),
            });
        }
        let mut reply = self.0.server.serve(0, msg);
        match (fault, &mut reply) {
            (Fault::DenyAlloc, Message::AllocReply { granted, .. }) => *granted = 0,
            (
                Fault::DenyAlloc,
                Message::LoadReport {
                    free_pages, hint, ..
                },
            ) => {
                *free_pages = 0;
                *hint = LoadHint::StopSending;
            }
            (Fault::Amnesia, Message::PageInReply { id, .. }) => {
                reply = Message::PageInMiss { id: *id };
            }
            (
                Fault::BitFlipStore | Fault::BitFlipWire,
                Message::PageInReply { checksum, page, .. },
            ) => *checksum = flip(fault, page, *checksum),
            _ => {}
        }
        Ok(reply)
    }

    fn send_only(&mut self, _msg: &Message) -> Result<()> {
        Ok(())
    }
}

/// Builds a one-shard pager over `n` fake servers, returning the handles.
fn fake_pager(policy: Policy, servers: usize, n: usize) -> (Vec<FakeServer>, ShardedPager) {
    fake_pager_on(policy, servers, n, vec![Box::new(RamDisk::unbounded())])
}

/// [`fake_pager`] with `disks`: its one shard's disk, or none.
fn fake_pager_on(
    policy: Policy,
    servers: usize,
    n: usize,
    disks: Vec<Box<dyn PagingDevice>>,
) -> (Vec<FakeServer>, ShardedPager) {
    let mut pool = ServerPool::new();
    let mut fakes = Vec::new();
    for i in 0..n {
        let fake = FakeServer::default();
        pool.add_transport(
            ServerId(i as u32),
            Box::new(FakeTransport(fake.clone())),
            1.0,
        );
        fakes.push(fake);
    }
    let config = PagerConfig::new(policy).with_servers(servers);
    (fakes, one_shard(config, pool, disks))
}

#[test]
fn fake_cluster_round_trips() {
    let (fakes, pager) = fake_pager(Policy::ParityLogging, 4, 5);
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    let stored: usize = fakes.iter().map(|f| f.stored()).sum();
    assert!(stored >= 40, "pages plus parity stored: {stored}");
}

#[test]
fn mid_run_death_is_recovered_transparently() {
    let (fakes, pager) = fake_pager(Policy::ParityLogging, 4, 5);
    for i in 0..40u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    // Server 1 dies *and loses its memory* (fault + wipe).
    fakes[1].set_fault(Fault::Dead);
    fakes[1].wipe();
    for i in 0..40u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("auto-recovered read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn allocation_denial_is_not_fatal() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    fakes[0].set_fault(Fault::DenyAlloc);
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout routes around the denying server");
    }
    for i in 0..30u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
    assert_eq!(fakes[0].stored(), 0, "denying server got nothing");
    assert!(fakes[1].stored() > 0);
}

#[test]
fn all_servers_denying_falls_back_to_disk() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    for f in &fakes {
        f.set_fault(Fault::DenyAlloc);
    }
    for i in 0..10u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("disk fallback");
    }
    assert!(pager.stats().disk_writes >= 10);
    for i in 0..10u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

#[test]
fn amnesia_surfaces_as_page_not_found() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    pager
        .page_out(PageId(1), &Page::deterministic(1))
        .expect("pageout");
    for f in &fakes {
        f.set_fault(Fault::Amnesia);
    }
    let err = pager
        .page_in(PageId(1))
        .expect_err("server forgot the page");
    assert!(matches!(err, RmpError::PageNotFound(_)), "got {err}");
}

#[test]
fn garbage_replies_surface_as_protocol_errors() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    pager
        .page_out(PageId(1), &Page::deterministic(1))
        .expect("pageout");
    for f in &fakes {
        f.set_fault(Fault::Garbage);
    }
    let err = pager.page_in(PageId(1)).expect_err("garbage reply");
    assert!(matches!(err, RmpError::Protocol(_)), "got {err}");
}

#[test]
fn flapping_server_keeps_data_consistent() {
    let (fakes, pager) = fake_pager(Policy::Mirroring, 2, 3);
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    // Server 0 flaps: dead during reads, then back (without losing state
    // — a network partition, not a crash).
    fakes[0].set_fault(Fault::Dead);
    for i in 0..30u64 {
        assert_eq!(
            pager
                .page_in(PageId(i))
                .expect("mirror covers the partition"),
            Page::deterministic(i)
        );
    }
    fakes[0].set_fault(Fault::None);
    pager.with_shard(0, |p| p.pool_mut().absolve(ServerId(0)));
    // Updates after the flap still round trip.
    for i in 0..30u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(500 + i))
            .expect("pageout after flap");
    }
    for i in 0..30u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(500 + i)
        );
    }
}

#[test]
fn advisories_trigger_automatic_migration() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    for i in 0..20u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    let on_zero = fakes[0].stored();
    assert!(on_zero > 0);
    // Server 0 comes under native memory pressure.
    fakes[0].set_fault(Fault::DenyAlloc);
    let moved = pager.with_shard(0, |p| {
        p.pool_mut().refresh_loads();
        p.service_advisories()
    });
    let moved = moved.expect("migration");
    assert_eq!(moved as usize, on_zero);
    assert_eq!(fakes[0].stored(), 0, "server 0 drained");
    for i in 0..20u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("read"),
            Page::deterministic(i)
        );
    }
}

/// Writes through `pager`, corrupts server 0 with `fault`, and asserts
/// every read still returns the exact bytes written — the redundant
/// policies must detect the flip (at either layer) and heal the read from
/// redundancy, never serve wrong content.
fn assert_bit_flip_healed(policy: Policy, servers: usize, n: usize, fault: Fault) {
    let (fakes, pager) = fake_pager(policy, servers, n);
    for i in 0..24u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    pager.flush().expect("flush");
    fakes[0].set_fault(fault);
    for i in 0..24u64 {
        assert_eq!(
            pager.page_in(PageId(i)).expect("healed from redundancy"),
            Page::deterministic(i),
            "{policy:?}/{fault:?}: page {i} must never come back wrong"
        );
    }
    let stats = pager.stats();
    assert!(
        stats.checksum_failures > 0,
        "{policy:?}/{fault:?}: the flipped bits were detected"
    );
    assert!(
        stats.degraded_reads > 0,
        "{policy:?}/{fault:?}: corrupted copies were served from redundancy"
    );
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(0))),
        "{policy:?}/{fault:?}: a corrupt page is a data fault, not a crash"
    );
    // The scan was sequential, so corrupt copies were read ahead too: one
    // the pool refused on the wire, or the writer's checksum at the
    // fault, is useless — not gone from the books.
    let count = |name| pager.with_shard(0, |p| p.metrics().counter(name).get());
    assert_eq!(
        count("pager_prefetch_issued_total"),
        count("pager_prefetch_hits_total")
            + count("pager_prefetch_useless_total")
            + pager.with_shard(0, |p| p.read_ahead_held()) as u64,
        "{policy:?}/{fault:?}: the read-ahead ledger balances"
    );
}

#[test]
fn mirroring_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::Mirroring, 2, 3, Fault::BitFlipStore);
}

#[test]
fn mirroring_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::Mirroring, 2, 3, Fault::BitFlipWire);
}

#[test]
fn basic_parity_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::BasicParity, 2, 3, Fault::BitFlipStore);
}

#[test]
fn basic_parity_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::BasicParity, 2, 3, Fault::BitFlipWire);
}

#[test]
fn parity_logging_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::ParityLogging, 2, 3, Fault::BitFlipStore);
}

#[test]
fn parity_logging_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::ParityLogging, 2, 3, Fault::BitFlipWire);
}

#[test]
fn erasure_coded_heals_store_level_bit_flips() {
    // Default 2 + 1 stripe across three servers. The corrupt split may
    // be any data split, so the heal path must locate it by exclusion.
    assert_bit_flip_healed(Policy::ErasureCoded, 2, 3, Fault::BitFlipStore);
}

#[test]
fn erasure_coded_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::ErasureCoded, 2, 3, Fault::BitFlipWire);
}

#[test]
fn write_through_heals_store_level_bit_flips() {
    assert_bit_flip_healed(Policy::WriteThrough, 2, 2, Fault::BitFlipStore);
}

#[test]
fn write_through_heals_wire_level_bit_flips() {
    assert_bit_flip_healed(Policy::WriteThrough, 2, 2, Fault::BitFlipWire);
}

#[test]
fn unreplicated_bit_flip_surfaces_as_corrupt_page() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    for i in 0..16u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    for f in &fakes {
        f.set_fault(Fault::BitFlipStore);
    }
    let mut corrupt = 0u64;
    for i in 0..16u64 {
        match pager.page_in(PageId(i)) {
            Ok(page) => assert_eq!(
                page,
                Page::deterministic(i),
                "a page served as Ok must be the bytes written"
            ),
            Err(RmpError::CorruptPage { .. }) => corrupt += 1,
            Err(other) => panic!("expected CorruptPage, got {other}"),
        }
    }
    assert!(
        corrupt > 0,
        "without redundancy the flip is surfaced, not silently served"
    );
    assert!(pager.stats().checksum_failures >= corrupt);
}

#[test]
fn dead_server_calls_stop_quickly() {
    let (fakes, pager) = fake_pager(Policy::NoReliability, 2, 2);
    for i in 0..10u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pageout");
    }
    fakes[0].set_fault(Fault::Dead);
    // One failing call marks the server dead; subsequent traffic must not
    // hammer it.
    let _ = pager.page_in(PageId(0));
    let calls_after_death = fakes[0].calls();
    for i in 0..10u64 {
        let _ = pager.page_out(PageId(100 + i), &Page::deterministic(i));
    }
    assert!(
        fakes[0].calls() <= calls_after_death + 1,
        "dead server left alone: {} vs {}",
        fakes[0].calls(),
        calls_after_death
    );
}

/// Parity logging over data servers 0..=2 with the parity page on 4 and
/// 3 spare; the pageout of page 2 seals the first group.
fn pager_about_to_seal(parity_fault: Fault) -> (Vec<FakeServer>, ShardedPager) {
    let (fakes, pager) = fake_pager(Policy::ParityLogging, 3, 5);
    fakes[4].set_fault(parity_fault);
    for i in 0..2u64 {
        landed(&pager, PageId(i), &Page::deterministic(i))
            .expect("a pending member needs no parity server");
    }
    (fakes, pager)
}

/// Server 0 — holder of page 0, the first member of the group whose seal
/// failed — dies with its memory; every page must still read back.
fn assert_sealed_members_survive_a_data_crash(fakes: &[FakeServer], pager: &ShardedPager) {
    assert_pages_survive_a_data_crash(fakes, pager, &[0, 1, 2]);
}

/// Server 0 dies with its memory; page `i` must still read back as
/// `Page::deterministic(fills[i])`.
fn assert_pages_survive_a_data_crash(fakes: &[FakeServer], pager: &ShardedPager, fills: &[u64]) {
    fakes[0].set_fault(Fault::Dead);
    fakes[0].wipe();
    for (i, &fill) in fills.iter().enumerate() {
        assert_eq!(
            pager
                .page_in(PageId(i as u64))
                .expect("the group of the failed seal still covers its members"),
            Page::deterministic(fill)
        );
    }
}

#[test]
fn parity_crash_on_the_sealing_pageout_keeps_the_group_covered() {
    let (fakes, pager) = pager_about_to_seal(Fault::Dead);
    // The parity page finds its server dead; the pager recovers that
    // server — which has to rebuild the parity of the group being sealed
    // — and retries the pageout.
    landed(&pager, PageId(2), &Page::deterministic(2)).expect("recovered and retried");
    assert_sealed_members_survive_a_data_crash(&fakes, &pager);
}

#[test]
fn parity_refusal_on_the_sealing_pageout_keeps_the_group_covered() {
    let (fakes, pager) = pager_about_to_seal(Fault::DenyAlloc);
    // The parity server takes no frame; a seal is never undone: its
    // parity page goes to the one live server holding no member, 3.
    landed(&pager, PageId(2), &Page::deterministic(2)).expect("the spare takes the parity page");
    assert_eq!((fakes[3].stored(), fakes[4].stored()), (1, 0));
    // Moving the parity off the refusing server leaves the group as it is.
    pager
        .recover_from_crash(ServerId(4))
        .expect("parity moved elsewhere");
    assert_sealed_members_survive_a_data_crash(&fakes, &pager);
}

#[test]
fn a_sealing_rewrite_whose_parity_is_refused_reads_back_what_it_committed() {
    let (fakes, pager) = fake_pager(Policy::ParityLogging, 3, 5);
    // Every third pageout seals a group and takes one of the parity
    // server's granted frames; rewrite until the next seal asks for more
    // ahead of need (below half a chunk of 64), deny that and every later
    // allocation, and rewrite until the grants are spent.
    let mut fill = 0;
    let mut round = |pager: &ShardedPager| {
        fill += 10;
        let rewrite = |i| landed(pager, PageId(i), &Page::deterministic(fill + i));
        (0..3).map(rewrite).collect::<Vec<Result<()>>>()
    };
    let grants =
        |pager: &ShardedPager| pager.with_shard(0, |p| p.pool().granted_frames(ServerId(4)));
    while grants(&pager) > 32 || pager.stats().pageouts == 0 {
        let acked = round(&pager);
        assert!(acked.iter().all(Result::is_ok), "{acked:?}");
    }
    fakes[4].set_fault(Fault::DenyAlloc);
    while grants(&pager) > 0 {
        let acked = round(&pager);
        assert!(acked.iter().all(Result::is_ok), "{acked:?}");
    }
    let on_spare = fakes[3].stored();
    let outcomes = round(&pager);
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    assert_eq!(fakes[3].stored(), on_spare + 1, "the parity page went to 3");
    // The parity server took no frame for the seal, which is not undone:
    // each page reads back as the bytes its pageout committed — verified
    // against the sum it took, not flagged against the one acked before.
    let current = [fill, fill + 1, fill + 2];
    for (i, &fill) in current.iter().enumerate() {
        let read = pager.page_in(PageId(i as u64)).expect("pagein");
        assert_eq!(read, Page::deterministic(fill));
    }
    assert_eq!(pager.stats().checksum_failures, 0);
    assert_eq!(pager.stats().degraded_reads, 0);
    // The group is covered by the parity page on the spare.
    pager
        .recover_from_crash(ServerId(4))
        .expect("parity moved off the refusing server");
    assert_pages_survive_a_data_crash(&fakes, &pager, &current);
}

#[test]
fn a_sealing_pageout_no_server_takes_leaves_the_group_without_it() {
    let (fakes, pager) = pager_about_to_seal(Fault::None);
    // Servers 0 and 1 hold the group's other members, so the frame server
    // 2 refuses has nowhere to go but the disk — after the wave that
    // carried it has stored a parity page that includes it.
    fakes[2].set_fault(Fault::RefuseStore);
    landed(&pager, PageId(2), &Page::deterministic(2)).expect("the disk takes the page");
    assert_eq!(pager.stats().disk_writes, 1);
    assert_eq!((fakes[2].stored(), fakes[4].stored()), (0, 1));
    // Server 2 granted its first chunk of frames to this pageout, and
    // every refused store gave its frame back.
    let granted = |server| pager.with_shard(0, |p| p.pool().granted_frames(server));
    let chunk = granted(ServerId(0)) + 1;
    assert_eq!(granted(ServerId(2)), chunk);
    // The parity page was stored again without page 2: page 0 is rebuilt
    // from page 1 and it alone.
    assert_sealed_members_survive_a_data_crash(&fakes, &pager);
}

#[test]
fn a_sealing_pageout_with_nowhere_to_go_fails_typed_and_spares_the_group() {
    let (fakes, pager) = fake_pager_on(Policy::ParityLogging, 3, 5, Vec::new());
    for i in 0..2u64 {
        pager
            .page_out(PageId(i), &Page::deterministic(i))
            .expect("pending");
    }
    fakes[2].set_fault(Fault::RefuseStore);
    // The pageout returns with its frames on the wire; its landing
    // reports the failure, to the page's next operation.
    (pager.page_out(PageId(2), &Page::deterministic(2))).expect("on the wire");
    let err = pager.page_in(PageId(2)).expect_err("no server and no disk");
    assert!(matches!(err, RmpError::ClusterFull), "got {err}");
    let err = pager.page_in(PageId(2)).expect_err("never stored");
    assert!(
        matches!(err, RmpError::PageNotFound(PageId(2))),
        "got {err}"
    );
    assert_pages_survive_a_data_crash(&fakes, &pager, &[0, 1]);
}
