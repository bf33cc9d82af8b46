//! Split-phase faults: no shard lock is held across the wire.
//!
//! A [`ShardedPager`] runs over the scripted wire of `support`, so the
//! test thread decides when each reply arrives and sees what else reaches
//! the wire meanwhile. Every interleaving is forced by what is on the
//! wire or by `pager_flight_waits_total` — a caller that had to wait for
//! a flight says so before it blocks — never by a sleep; the one sleep
//! here *is* the stimulus (a lock held for a known time).
//!
//! A pageout — a rewrite or a first placement — returns with its frames
//! on the wire and *lands* later: the tests after the first pin what
//! lands it — the page's next read or rewrite, the next turn once its
//! replies are in, `stats`, a planner — that a unit whose store failed is
//! re-homed from the kept page, and that a failure is reported once; for
//! a page of copies and for a coded stripe alike.
//!
//! Read-ahead is decided at the front door and issued into whichever
//! shard holds the page; the last four tests pin that it waits for
//! nothing on the way — not for a sibling shard's lock, not for a page
//! with an operation under way — that a write still voids a copy it
//! overtakes, and that a looping page is read behind its landing only
//! once the store has acked.

mod support;

use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmp_core::pool::CHUNK_PAGES;
use rmp_core::{Clock, Pager, RecoveryReport, ShardedPager};
use rmp_proto::Opcode;
use rmp_server::InProcessServer;
use rmp_types::{Page, PageId, PagerConfig, Policy, Result, RmpError, ServerId};

use support::*;

/// Runs `op` on a thread of its own; the receiver yields its result, or
/// nothing within [`STUCK`] if it deadlocked.
fn spawn<R: Send + 'static>(
    pager: &Arc<ShardedPager>,
    op: impl FnOnce(&ShardedPager) -> R + Send + 'static,
) -> Receiver<R> {
    let (done, result) = channel();
    let pager = Arc::clone(pager);
    std::thread::spawn(move || done.send(op(&pager)));
    result
}

fn joined<R>(result: Receiver<R>) -> R {
    result.recv_timeout(STUCK).expect("the operation is stuck")
}

/// Takes the one burst on the wire off it, unanswered.
fn held_back(wire: &Wire) -> Flight {
    wire.wait_for(1).flying.pop().expect("one burst")
}

fn answer(flight: Flight) {
    flight.completion.complete(Ok(flight.replies));
}

/// Answers whatever reaches the wire, as it does, until `result` is in.
fn pumped<R>(wire: &Wire, result: &Receiver<R>) -> R {
    pumped_on(&[wire], result)
}

/// As [`pumped`], on several wires.
fn pumped_on<R>(wires: &[&Wire], result: &Receiver<R>) -> R {
    let stuck = Instant::now() + STUCK;
    loop {
        for wire in wires {
            let flying = std::mem::take(&mut wire.state().flying);
            flying.into_iter().for_each(answer);
        }
        if let Ok(result) = result.try_recv() {
            return result;
        }
        assert!(Instant::now() < stuck, "the operation is stuck");
        std::thread::yield_now();
    }
}

/// Callers of shard 0 that have had to wait for a flight so far.
fn flight_waits(pager: &ShardedPager) -> u64 {
    let waits = |p: &mut Pager| p.metrics().counter("pager_flight_waits_total").get();
    pager.with_shard(0, waits)
}

/// Yields until `waiting` callers of shard 0 are blocked behind a flight.
fn until_waiting(pager: &ShardedPager, waiting: u64) {
    let stuck = Instant::now() + STUCK;
    while flight_waits(pager) < waiting {
        assert!(Instant::now() < stuck, "nobody came to wait for the flight");
        std::thread::yield_now();
    }
}

/// Places each of `ids` on shard 0 and answers its frames: the placement
/// returns with them on the wire, and the next turn lands it.
fn placed(wire: &Wire, pager: &Arc<ShardedPager>, ids: &[u64]) {
    for &id in ids {
        pager
            .page_out(PageId(id), &Page::deterministic(id))
            .expect("first placement");
        std::mem::take(&mut wire.state().flying)
            .into_iter()
            .for_each(answer);
    }
}

#[test]
fn two_faults_on_one_shard_share_the_wire() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 2);
    placed(&wire, &pager, &[0, 2]);
    let readers = [0, 2].map(|id| spawn(&pager, move |p| p.page_in(PageId(id))));
    // Both reads are out before either is answered: the second caller did
    // not sleep out the first one's round trip behind the shard lock.
    let mut flights = std::mem::take(&mut wire.wait_for(2).flying);
    flights.reverse();
    flights.into_iter().for_each(answer);
    for (id, reader) in [0, 2].into_iter().zip(readers) {
        assert_eq!(joined(reader).expect("pagein"), Page::deterministic(id));
    }
    assert_eq!(pager.stats().pageins, 2);
    assert_eq!(flight_waits(&pager), 0, "distinct pages wait for nothing");
}

#[test]
fn a_read_waits_for_the_rewrite_of_its_page_to_land() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 2);
    placed(&wire, &pager, &[4]);
    // The rewrite returns with its frame on the wire: the server has the
    // new bytes, the client has not heard so yet.
    pager
        .page_out(PageId(4), &Page::filled(2))
        .expect("rewrite");
    let ack = held_back(&wire);
    let reader = spawn(&pager, |p| p.page_in(PageId(4)));
    until_waiting(&pager, 1);
    assert!(wire.state().flying.is_empty(), "the read went out early");
    answer(ack);
    // Only now does the read leave — to be checked against the checksum
    // the rewrite committed, not the one it replaced.
    answer(held_back(&wire));
    assert_eq!(joined(reader).expect("pagein"), Page::filled(2));
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.pageins), (2, 1));
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_second_rewrite_of_a_landing_page_lands_the_first_and_commits_in_order() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 2);
    placed(&wire, &pager, &[4]);
    pager
        .page_out(PageId(4), &Page::filled(2))
        .expect("rewrite");
    let first = held_back(&wire);
    // The second rewrite waits for the first to land before it begins.
    let second = spawn(&pager, |p| p.page_out(PageId(4), &Page::filled(3)));
    until_waiting(&pager, 1);
    assert!(wire.state().flying.is_empty(), "the second went out early");
    answer(first);
    joined(second).expect("second rewrite");
    answer(held_back(&wire));
    let reader = spawn(&pager, |p| p.page_in(PageId(4)));
    answer(held_back(&wire));
    assert_eq!(joined(reader).expect("pagein"), Page::filled(3));
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.checksum_failures), (3, 0));
}

#[test]
fn a_landing_lost_with_its_server_is_rehomed_by_the_next_turn() {
    let (wire, servers, pager) = wave_sharded(PagerConfig::new(Policy::Mirroring), 3);
    placed(&wire, &pager, &[6]);
    let holds = |s: &usize| servers[*s].stored_pages() > 0;
    let (gone, spare) = (
        (0..3).find(holds).expect("a copy"),
        (0..3).find(|s| !holds(s)),
    );
    let (gone, spare) = (ServerId(gone as u32), spare.expect("a server with no copy"));
    // Both copies' frames are on the wire when the rewrite returns; one
    // holder dies with its frame unanswered.
    pager
        .page_out(PageId(6), &Page::filled(7))
        .expect("rewrite");
    wire.state().dying.push(gone);
    wire.release_wave(2);
    // The next turn lands it: the store on the dead holder walks the
    // ladder to the verdict, and the copy is re-homed, a frame of its own.
    let reader = spawn(&pager, |p| p.page_in(PageId(6)));
    assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(7));
    assert_eq!(
        servers[spare].stored_pages(),
        1,
        "the copy was not re-homed"
    );
    for shard in 0..2 {
        let dead = pager.with_shard(shard, |p| !p.pool().alive(gone));
        assert!(dead, "shard {shard} does not hold {gone} dead");
    }
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.checksum_failures), (2, 0));
}

#[test]
fn a_landing_that_finds_no_taker_reports_its_error_once() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 2);
    placed(&wire, &pager, &[0, 2]);
    // Every server refuses every store, and there is no disk.
    wire.state().refuse_store = [0, 1].repeat(4).into_iter().map(ServerId).collect();
    for id in [0, 2] {
        pager
            .page_out(PageId(id), &Page::filled(1))
            .expect("rewrite");
    }
    std::mem::take(&mut wire.wait_for(2).flying)
        .into_iter()
        .for_each(answer);
    // Both land in the next turn; the page read hears of its own.
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    let read = pumped(&wire, &reader);
    assert!(matches!(read, Err(RmpError::ClusterFull)), "got {read:?}");
    wire.state().refuse_store.clear();
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    let again = pumped(&wire, &reader);
    assert!(!matches!(again, Err(RmpError::ClusterFull)), "told twice");
    // The flush hears of the other, once.
    assert!(matches!(pager.flush(), Err(RmpError::ClusterFull)));
    pager.flush().expect("nothing left to report");
    assert_eq!(pager.stats().pageouts, 2);
}

#[test]
fn stats_and_recovery_land_every_pageout_and_pageouts_is_exact() {
    let (wire, servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 3);
    placed(&wire, &pager, &[0, 2]);
    let idle = servers.iter().position(|s| s.stored_pages() == 0);
    let idle = ServerId(idle.expect("a server holds no page") as u32);
    for id in [0, 2] {
        pager
            .page_out(PageId(id), &Page::filled(1))
            .expect("rewrite");
    }
    let stats = spawn(&pager, |p| p.stats());
    until_waiting(&pager, 1);
    std::mem::take(&mut wire.wait_for(2).flying)
        .into_iter()
        .for_each(answer);
    assert_eq!(joined(stats).pageouts, 4);
    pager
        .page_out(PageId(0), &Page::filled(2))
        .expect("rewrite");
    let waits = flight_waits(&pager);
    let recovery = spawn(&pager, move |p| p.recover_from_crash(idle));
    until_waiting(&pager, waits + 1);
    let planned = pager.with_shard(0, |p| !p.pool().alive(idle));
    assert!(!planned, "the recovery planned early");
    answer(held_back(&wire));
    let reports = pumped(&wire, &recovery).expect("recovery");
    assert_eq!(reports[0].pages_rebuilt, 0);
    assert_eq!(pager.stats().pageouts, 5);
}

fn ec_config() -> PagerConfig {
    PagerConfig::new(Policy::ErasureCoded).with_ec_splits(4, 1)
}

#[test]
fn a_coded_rewrite_returns_with_its_frames_on_the_wire_and_a_read_lands_it_first() {
    let (wire, servers, pager) = wave_sharded(ec_config(), 5);
    placed(&wire, &pager, &[4]);
    // The rewrite returns with a frame to each unit's holder on the wire,
    // none of them answered.
    pager
        .page_out(PageId(4), &Page::filled(2))
        .expect("rewrite");
    let acks = std::mem::take(&mut wire.wait_for(5).flying);
    let mut holders: Vec<u32> = acks.iter().map(|f| f.server.0).collect();
    holders.sort_unstable();
    assert_eq!(holders, [0, 1, 2, 3, 4], "one frame a server");
    // The read of the page waits for the rewrite to land, and sends
    // nothing meanwhile.
    let reader = spawn(&pager, |p| p.page_in(PageId(4)));
    until_waiting(&pager, 1);
    assert!(wire.state().flying.is_empty(), "the read went out early");
    acks.into_iter().for_each(answer);
    std::mem::take(&mut wire.wait_for(4).flying)
        .into_iter()
        .for_each(answer);
    assert_eq!(joined(reader).expect("pagein"), Page::filled(2));
    let stored: Vec<usize> = servers.iter().map(|s| s.stored_pages()).collect();
    assert_eq!(stored, [1; 5], "each unit overwritten in place");
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.pageins), (2, 1));
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_coded_landing_whose_holder_died_re_homes_that_unit_from_the_kept_page() {
    // Six servers for two five-unit stripes: some hold a unit of each.
    let (wire, servers, pager) = wave_sharded(ec_config(), 6);
    placed(&wire, &pager, &[0, 2]);
    let gone = (servers.iter()).position(|s| s.stored_pages() == 2);
    let gone = ServerId(gone.expect("a server holds a unit of both") as u32);
    for id in [0, 2] {
        pager
            .page_out(PageId(id), &Page::filled(id as u8 + 1))
            .expect("rewrite");
    }
    // Both rewrites are on the wire; the shared holder dies under them.
    wire.state().dying.push(gone);
    wire.release_wave(10);
    // The next turn lands both: each store on the dead holder walks the
    // ladder to the verdict, and its unit is re-homed from the kept page
    // onto the one live server outside its stripe.
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(1));
    let reader = spawn(&pager, |p| p.page_in(PageId(2)));
    assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(3));
    let live = (servers.iter().enumerate()).filter(|&(s, _)| s != gone.0 as usize);
    let stored: Vec<usize> = live.map(|(_, s)| s.stored_pages()).collect();
    assert_eq!(stored.iter().sum::<usize>(), 10, "{stored:?}");
    assert!(stored.iter().all(|&n| n <= 2), "{stored:?}");
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.checksum_failures), (4, 0));
}

/// The geometries a first placement is pinned for: copies of the page
/// (`k = 1`) and a coded stripe, each with the frames of its wave and
/// the reads of its demand read.
fn first_placements() -> [(PagerConfig, usize, usize); 2] {
    [
        (PagerConfig::new(Policy::Mirroring), 2, 1),
        (ec_config(), 5, 4),
    ]
}

#[test]
fn a_first_placement_returns_with_its_frames_on_the_wire_and_a_read_lands_it_first() {
    for (config, width, reads) in first_placements() {
        let (wire, servers, pager) = wave_sharded(config, width);
        // The placement returns with a frame to each taker on the wire,
        // none of them answered.
        pager
            .page_out(PageId(4), &Page::filled(2))
            .expect("first placement");
        let acks = std::mem::take(&mut wire.wait_for(width).flying);
        let stored: Vec<usize> = servers.iter().map(|s| s.stored_pages()).collect();
        assert_eq!(stored, vec![1; width], "one unit a server");
        // The read of the page waits for the placement to land, and sends
        // nothing meanwhile.
        let reader = spawn(&pager, |p| p.page_in(PageId(4)));
        until_waiting(&pager, 1);
        assert!(wire.state().flying.is_empty(), "the read went out early");
        acks.into_iter().for_each(answer);
        std::mem::take(&mut wire.wait_for(reads).flying)
            .into_iter()
            .for_each(answer);
        assert_eq!(joined(reader).expect("pagein"), Page::filled(2));
        let stats = pager.stats();
        assert_eq!((stats.pageouts, stats.pageins), (1, 1));
        assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
    }
}

#[test]
fn a_first_placement_whose_taker_died_re_homes_that_unit_from_the_kept_page() {
    for (config, width, _) in first_placements() {
        // One server more than the stripe is wide: a spare.
        let (wire, servers, pager) = wave_sharded(config, width + 1);
        pager
            .page_out(PageId(4), &Page::filled(5))
            .expect("first placement");
        // A taker dies with its frame unanswered.
        let gone = wire.wait_for(width).flying[0].server;
        wire.state().dying.push(gone);
        wire.release_wave(width);
        // The read lands the placement first: the store on the dead taker
        // walks the ladder to the verdict, and its unit goes to the spare.
        let reader = spawn(&pager, |p| p.page_in(PageId(4)));
        assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(5));
        let live = (servers.iter().enumerate()).filter(|&(s, _)| s != gone.0 as usize);
        let stored: Vec<usize> = live.map(|(_, s)| s.stored_pages()).collect();
        assert_eq!(stored, vec![1; width], "the unit was not re-homed");
        assert!(!pager.with_shard(0, |p| p.pool().alive(gone)));
        let stats = pager.stats();
        assert_eq!((stats.pageouts, stats.checksum_failures), (1, 0));
    }
}

#[test]
fn a_first_placement_that_finds_no_taker_is_reported_once_and_leaves_nothing() {
    for (config, width, _) in first_placements() {
        // No spare and no disk: a unit refused has nowhere to go.
        let (wire, servers, pager) = wave_sharded(config, width);
        let (refuser, taker) = (ServerId(1), ServerId(0));
        let grants = |server| pager.with_shard(0, |p| p.pool().granted_frames(server));
        let unknown = |id| {
            let reader = spawn(&pager, move |p| p.page_in(PageId(id)));
            matches!(pumped(&wire, &reader), Err(RmpError::PageNotFound(_)))
        };
        for id in [0, 2] {
            wire.state().refuse_store.push(refuser);
            pager
                .page_out(PageId(id), &Page::filled(1))
                .expect("first placement");
            wire.release_wave(width);
            // The next operation on the page lands it: the units that were
            // stored are released, and the page's own error is reported
            // to it — or, for the second page, to the flush.
            let reported = match id {
                0 => pumped(&wire, &spawn(&pager, |p| p.page_in(PageId(0)))).map(drop),
                _ => pumped(&wire, &spawn(&pager, |p| p.flush())),
            };
            assert!(
                matches!(reported, Err(RmpError::ClusterFull)),
                "got {reported:?}"
            );
            assert!(unknown(id), "page {id} outlived its failed placement");
            pager.flush().expect("told twice");
            let stored: Vec<usize> = servers.iter().map(|s| s.stored_pages()).collect();
            assert_eq!(stored, vec![0; width], "page {id} left a unit stored");
        }
        // The refused grants went back; the others were used and freed.
        assert_eq!(grants(refuser), grants(taker) + 2);
        assert_eq!(pager.stats().pageouts, 0);
    }
}

#[test]
fn planners_wait_for_the_flight_to_land() {
    // Parity logging: a flush seals the pending group, in a wave.
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(3);
    let (wire, _servers, pager) = wave_sharded(config, 4);
    for id in [0, 2] {
        let placed = spawn(&pager, move |p| {
            p.page_out(PageId(id), &Page::deterministic(id))
        });
        pumped(&wire, &placed).expect("a pending member");
    }
    wire.calls();
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    let read = held_back(&wire);
    let flush = spawn(&pager, |p| p.flush());
    // Server 2 holds neither page: its rebuild moves nothing, but the
    // view shows whether it has been planned yet.
    let recovery = spawn(&pager, |p| p.recover_from_crash(ServerId(2)));
    until_waiting(&pager, 2);
    assert!(wire.state().flying.is_empty(), "the flush sealed early");
    assert!(wire.calls().is_empty(), "a planner called early");
    assert!(
        pager.with_shard(0, |p| p.pool().alive(ServerId(2))),
        "the recovery planned early"
    );
    answer(read);
    assert_eq!(joined(reader).expect("pagein"), Page::deterministic(0));
    // Neither deadlocked: in whichever order they now run, the pending
    // group is sealed (by the flush, or by the recovery re-logging it)
    // and both return.
    pumped(&wire, &flush).expect("flush");
    let reports: Result<Vec<RecoveryReport>> = pumped(&wire, &recovery);
    assert_eq!(reports.expect("recovery")[0].pages_rebuilt, 0);
    assert!(!pager.with_shard(0, |p| p.pool().alive(ServerId(2))));
    let sealed = |p: &mut Pager| p.metrics().counter("engine_groups_sealed_total").get();
    assert!(pager.with_shard(0, sealed) >= 1);
    for id in [0, 2] {
        let reader = spawn(&pager, move |p| p.page_in(PageId(id)));
        assert_eq!(
            pumped(&wire, &reader).expect("pagein"),
            Page::deterministic(id)
        );
    }
}

#[test]
fn a_flight_lost_with_its_server_lands_on_the_degraded_path() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::Mirroring), 3);
    let page = Page::deterministic(6);
    let placed = spawn(&pager, move |p| p.page_out(PageId(6), &page));
    wire.release_wave(2);
    joined(placed).expect("both copies");
    let primary = pager.with_shard(0, |p| {
        let server = p.pool().server_ids().into_iter().find(|&s| {
            p.metrics()
                .histogram(&format!("pool_call_latency_us{{{s}}}"))
                .snapshot()
                .count
                > 0
        });
        server.expect("a server took the first copy")
    });
    let reader = spawn(&pager, |p| p.page_in(PageId(6)));
    // The primary dies with the read on the wire.
    wire.state().dying.push(primary);
    wire.release_wave(1);
    // The read's one attempt failed: it goes to the other copy at once —
    // one frame — and waits for no verdict on the primary.
    wire.release_wave(1);
    assert_eq!(joined(reader).expect("pagein"), Page::deterministic(6));
    assert!(wire.state().flying.is_empty());
    let stats = pager.stats();
    assert_eq!((stats.pageins, stats.degraded_reads), (1, 1));
    assert_eq!(stats.checksum_failures, 0);
    let seen = |p: &mut Pager| {
        let counter = |name| p.metrics().counter(name).get();
        let (deaths, retries) = (counter("pool_deaths_total"), counter("pool_retries_total"));
        (p.recovery_backlog(), deaths, retries)
    };
    // The primary is backing off on both shards — the sibling was told —
    // and nothing is queued on a miss.
    for shard in 0..2 {
        assert_eq!(pager.with_shard(shard, seen), (0, 0, 0), "shard {shard}");
        let backoff = pager.with_shard(shard, |p| p.pool().backoff(primary));
        assert!(
            backoff.is_some(),
            "shard {shard} knows the primary backs off"
        );
    }
    // A rewrite has no way around the primary: its store walks the rest of
    // the ladder to the verdict, and the copy is re-homed, a frame of its
    // own. The rebuild is then queued once on the shard that reached the
    // verdict — and once on its sibling, which was told of the death and
    // dialled nothing to learn it.
    let rewrite = spawn(&pager, |p| p.page_out(PageId(6), &Page::deterministic(6)));
    wire.release_wave(1);
    wire.release_wave(1);
    joined(rewrite).expect("the copy is re-homed");
    assert_eq!(pager.with_shard(0, seen), (1, 1, 2));
    assert_eq!(pager.with_shard(1, seen), (1, 1, 0));
    let reader = spawn(&pager, |p| p.page_in(PageId(6)));
    assert_eq!(
        pumped(&wire, &reader).expect("pagein"),
        Page::deterministic(6)
    );
}

#[test]
fn a_wait_for_the_shard_lock_is_not_server_latency() {
    let config = PagerConfig::new(Policy::Mirroring);
    let (wire, _servers, pager) = wave_sharded(config, 2);
    let held = Duration::from_millis(200);
    // Latencies on the wall clock, as the transport stamps them.
    pager.with_shard(0, |p| p.pool_mut().set_clock(Clock::Real));
    let page = Page::deterministic(8);
    let placed = spawn(&pager, move |p| p.page_out(PageId(8), &page));
    wire.release_wave(2);
    joined(placed).expect("both copies");
    for _ in 0..3 {
        let reader = spawn(&pager, |p| p.page_in(PageId(8)));
        let read = held_back(&wire);
        // The reply arrives — and is stamped — at once; the reader then
        // cannot get back under the shard lock for `held`.
        pager.with_shard(0, |_| {
            answer(read);
            std::thread::sleep(held);
        });
        assert_eq!(joined(reader).expect("pagein"), Page::deterministic(8));
    }
    let p99 = pager.with_shard(0, |p| {
        let calls = p.metrics().histogram("pool_call_latency_us").snapshot();
        assert!(calls.count >= 5, "two stores and three reads, at least");
        calls.p99_us()
    });
    assert!(
        p99 < held.as_micros() as f64,
        "a call was charged the wait: p99 {p99} us"
    );
}

// --- the parity-log append ------------------------------------------------

/// Parity logging over data servers 0..=2 — or 0..=3 with `width` 4 —
/// and the last of `n` servers for parity pages.
fn plog(width: usize, n: usize) -> (Arc<Wire>, Vec<InProcessServer>, Arc<ShardedPager>) {
    wave_sharded(
        PagerConfig::new(Policy::ParityLogging).with_servers(width),
        n,
    )
}

/// As [`pumped`], returning also the opcode of every frame answered.
fn pumped_ops<R>(wire: &Wire, result: &Receiver<R>) -> (R, Vec<Opcode>) {
    let mut ops = Vec::new();
    let stuck = Instant::now() + STUCK;
    loop {
        for flight in std::mem::take(&mut wire.state().flying) {
            ops.extend(flight.replies.iter().map(reply_to));
            answer(flight);
        }
        if let Ok(result) = result.try_recv() {
            return (result, ops);
        }
        assert!(Instant::now() < stuck, "the operation is stuck");
        std::thread::yield_now();
    }
}

/// Reads every one of `pages` back through each single crash of
/// `servers` in turn: the server is held dead on both shards while the
/// pages are read — around it, where it holds them — then pardoned.
fn read_through_any_single_crash(
    wire: &Wire,
    pager: &Arc<ShardedPager>,
    servers: &[u32],
    pages: &[(u64, Page)],
) {
    for &server in servers {
        let server = ServerId(server);
        pager.note_crash(server);
        for (id, page) in pages {
            let id = *id;
            let reader = spawn(pager, move |p| p.page_in(PageId(id)));
            let read = pumped(wire, &reader).expect("pagein");
            assert_eq!(&read, page, "page {id} with {server} down");
        }
        for shard in 0..2 {
            pager.with_shard(shard, |p| p.pool_mut().absolve(server));
        }
    }
    let stats = pager.stats();
    assert_eq!(stats.checksum_failures, 0);
}

#[test]
fn a_parity_log_append_returns_with_its_data_frame_and_a_seal_with_its_whole_wave() {
    let (wire, servers, pager) = plog(3, 4);
    // The first group: two pending members, a data frame each, then the
    // seal: its data frame and the parity page.
    for (id, frames) in [(0, 1), (2, 1), (4, 2)] {
        pager
            .page_out(PageId(id), &Page::deterministic(id))
            .expect("append");
        let wave = wire.release_wave(frames);
        assert!(wave.iter().all(|(_, ops)| ops == &[Opcode::PageOut]));
    }
    wire.calls();
    // Rewriting the three supersedes the whole first group. No append
    // waits for a reply, nor for the one before it: each returns with its
    // data frame on the wire, and the seal with its whole wave — its data
    // frame, the parity page and the frees of the first group's three
    // members and parity page, a burst to each of the four servers.
    let mut acks = Vec::new();
    for id in [0, 2] {
        pager
            .page_out(PageId(id), &Page::filled(id as u8 + 1))
            .expect("append");
        let ack = wire.wait_for(1).flying.pop().expect("its data frame");
        assert_eq!(reply_to(&ack.replies[0]), Opcode::PageOut);
        acks.push(ack);
    }
    pager
        .page_out(PageId(4), &Page::filled(5))
        .expect("sealing append");
    let seal = std::mem::take(&mut wire.wait_for(6).flying);
    let mut reached: Vec<u32> = seal.iter().map(|f| f.server.0).collect();
    reached.sort_unstable();
    assert_eq!(reached, [0, 1, 2, 3], "a burst a server");
    let mut ops: Vec<Opcode> = (seal.iter())
        .flat_map(|f| f.replies.iter().map(reply_to))
        .collect();
    ops.sort_by_key(|op| *op as u8);
    let mut wave = [vec![Opcode::PageOut; 2], vec![Opcode::Free; 4]].concat();
    wave.sort_by_key(|op| *op as u8);
    assert_eq!(ops, wave);
    assert!(wire.calls().is_empty(), "a frame outside the wave");
    assert_eq!(flight_waits(&pager), 0, "an append waited");
    acks.into_iter().chain(seal).for_each(answer);
    for id in [0u8, 2, 4] {
        let reader = spawn(&pager, move |p| p.page_in(PageId(u64::from(id))));
        answer(held_back(&wire));
        assert_eq!(joined(reader).expect("pagein"), Page::filled(id + 1));
    }
    let stored: usize = servers.iter().map(InProcessServer::stored_pages).sum();
    assert_eq!(stored, 4, "three current versions and one parity page");
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.checksum_failures), (6, 0));
    assert_eq!(
        (stats.net_data_transfers, stats.net_parity_transfers),
        (6, 2)
    );
}

#[test]
fn a_parity_log_landing_whose_data_server_died_is_re_homed_off_its_group() {
    let (wire, servers, pager) = plog(3, 4);
    // Page 0's data frame goes to one server, page 2's to another, both
    // pending members of one group; the first server dies with page 0's
    // frame unanswered.
    pager.page_out(PageId(0), &Page::filled(1)).expect("append");
    let lost = held_back(&wire);
    pager.page_out(PageId(2), &Page::filled(2)).expect("append");
    let ack = held_back(&wire);
    let (gone, kept) = (lost.server, ack.server);
    wire.state().dead.push(gone);
    lost.completion
        .complete(Err(refused("died with the frame")));
    answer(ack);
    // The next turn lands both: the store on the dead server walks the
    // ladder to the verdict, and page 0 is stored again from the kept
    // page — on the one live data server holding no member of its group.
    let reader = spawn(&pager, |p| p.page_in(PageId(2)));
    assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(2));
    let spare = (0..3).map(ServerId).find(|&s| s != gone && s != kept);
    let spare = spare.expect("a third data server");
    assert_eq!(servers[spare.0 as usize].stored_pages(), 1, "not re-homed");
    assert_eq!(servers[kept.0 as usize].stored_pages(), 1);
    // Sealed, the group covers both where they are: any one crash more
    // still reads every page back.
    pumped(&wire, &spawn(&pager, |p| p.flush())).expect("flush");
    let pages = [(0, Page::filled(1)), (2, Page::filled(2))];
    read_through_any_single_crash(&wire, &pager, &[kept.0, spare.0, 3], &pages);
}

#[test]
fn a_sealing_landing_whose_parity_leg_failed_leaves_its_group_reconstructible() {
    // The parity server dies under the seal, or refuses its page.
    for dies in [true, false] {
        // Data servers 0..=2, the parity page on 4, 3 spare.
        let (wire, _servers, pager) = plog(3, 5);
        placed(&wire, &pager, &[0, 2]);
        pager
            .page_out(PageId(4), &Page::deterministic(4))
            .expect("sealing append");
        match dies {
            true => wire.state().dying.push(ServerId(4)),
            false => wire.state().refuse_store.push(ServerId(4)),
        }
        // The data frame lands and the parity page does not; the group
        // stays sealed. The next turn lands it: a parity page that died
        // with its server is rebuilt from the members by the recovery the
        // retried pageout runs, a refused one is stored again from the
        // kept page.
        wire.release_wave(2);
        let reader = spawn(&pager, |p| p.page_in(PageId(0)));
        assert_eq!(
            pumped(&wire, &reader).expect("pagein"),
            Page::deterministic(0)
        );
        pumped(&wire, &spawn(&pager, |p| p.flush())).expect("flush");
        let pages: Vec<(u64, Page)> = [0, 2, 4].map(|id| (id, Page::deterministic(id))).into();
        let live: &[u32] = if dies {
            &[0, 1, 2, 3]
        } else {
            &[0, 1, 2, 3, 4]
        };
        read_through_any_single_crash(&wire, &pager, live, &pages);
    }
}

#[test]
fn garbage_collection_during_an_append_does_not_re_log_its_page() {
    // Groups of four over data servers 0..=3, parity on 4.
    let (wire, _servers, pager) = plog(4, 5);
    // The first group holds pages 0, 2, 4 and 6; the second rewrites 0
    // and 2 beside 8 and 10, leaving the first half active: a victim of
    // the next collection, with 4 and 6 to re-log.
    let writes = [
        (0, 0),
        (2, 2),
        (4, 4),
        (6, 6),
        (8, 8),
        (10, 10),
        (0, 1),
        (2, 3),
    ];
    for (id, fill) in writes {
        let out = spawn(&pager, move |p| {
            p.page_out(PageId(id), &Page::deterministic(fill))
        });
        pumped(&wire, &out).expect("append");
    }
    pager.stats();
    // Page 4's append is landing, its frame held back, when the store of
    // page 12's append is refused for memory.
    pager.page_out(PageId(4), &Page::filled(4)).expect("append");
    let landing = wire.wait_for(1).flying.pop().expect("its data frame");
    let others = (0..4).map(ServerId).filter(|&s| s != landing.server);
    wire.state().refuse_store.extend(others);
    pager
        .page_out(PageId(12), &Page::filled(12))
        .expect("append");
    drop(wire.wait_for(1));
    wire.state().refuse_store.clear();
    // Page 12's next read lands it: the refusal starts a collection,
    // which re-logs page 6 — one read — and leaves page 4, whose newer
    // version is landing, alone. Then page 12 is stored again and read.
    let reader = spawn(&pager, |p| p.page_in(PageId(12)));
    let (read, ops) = pumped_ops(&wire, &reader);
    assert_eq!(read.expect("pagein"), Page::filled(12));
    let reads = ops.iter().filter(|&&op| op == Opcode::PageIn).count();
    assert_eq!(reads, 2, "the collection re-logged the landing page");
    assert_eq!(pager.with_shard(0, |p| p.stats().gc_passes), 1);
    answer(landing);
    pumped(&wire, &spawn(&pager, |p| p.flush())).expect("flush");
    let current = [(0, 1), (2, 3), (6, 6), (8, 8), (10, 10)];
    let mut pages: Vec<(u64, Page)> = (current.iter())
        .map(|&(id, fill)| (id, Page::deterministic(fill)))
        .collect();
    pages.extend([(4, Page::filled(4)), (12, Page::filled(12))]);
    read_through_any_single_crash(&wire, &pager, &[0, 1, 2, 3, 4], &pages);
}

#[test]
fn a_parity_log_rewrite_rides_behind_its_pages_append_and_the_two_commit_in_order() {
    for reversed in [false, true] {
        // Groups of four over data servers 0..=3, parity on 4.
        let (wire, _servers, pager) = plog(4, 5);
        placed(&wire, &pager, &[2]);
        pager.page_out(PageId(0), &Page::filled(1)).expect("append");
        let older = held_back(&wire);
        // The rewrite begins while the first append is unanswered, and
        // returns with its own data frame on the wire beside it.
        let rewrite = spawn(&pager, |p| p.page_out(PageId(0), &Page::filled(2)));
        let newer = held_back(&wire);
        joined(rewrite).expect("rewrite");
        assert_eq!(flight_waits(&pager), 0, "the rewrite waited");
        assert_ne!(older.server, newer.server, "two members of one group");
        // Whichever reply comes first, a turn in between lands the older
        // before the newer, never the newer alone.
        let (first, second) = match reversed {
            false => (older, newer),
            true => (newer, older),
        };
        answer(first);
        let reader = spawn(&pager, |p| p.page_in(PageId(2)));
        assert_eq!(
            pumped(&wire, &reader).expect("pagein"),
            Page::deterministic(2)
        );
        answer(second);
        let reader = spawn(&pager, |p| p.page_in(PageId(0)));
        assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(2));
        // Sealed, the group covers both versions: any one crash still
        // reads the newer back.
        pumped(&wire, &spawn(&pager, |p| p.flush())).expect("flush");
        let pages = [(0, Page::filled(2)), (2, Page::deterministic(2))];
        read_through_any_single_crash(&wire, &pager, &[0, 1, 2, 3, 4], &pages);
        let stats = pager.stats();
        assert_eq!((stats.pageouts, stats.checksum_failures), (3, 0));
    }
}

#[test]
fn a_superseded_append_lost_with_its_server_is_re_homed_and_its_group_still_rebuilds() {
    // Groups of four over data servers 0..=3, parity on 4.
    let (wire, servers, pager) = plog(4, 5);
    pager.page_out(PageId(0), &Page::filled(1)).expect("append");
    let lost = held_back(&wire);
    pager
        .page_out(PageId(0), &Page::filled(2))
        .expect("rewrite");
    let ack = held_back(&wire);
    // The older append's server dies with its frame unanswered.
    let (gone, newer) = (lost.server, ack.server);
    wire.state().dead.push(gone);
    lost.completion
        .complete(Err(refused("died with the frame")));
    answer(ack);
    // The next turn lands both, oldest first: the superseded version is
    // stored again from the kept page, on a server holding no other
    // member of its group — and the read gets the newer one.
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(2));
    let holds = |s: u32| servers[s as usize].stored_pages();
    let spare: Vec<u32> = (0..4).filter(|&s| s != gone.0 && s != newer.0).collect();
    let homes: Vec<u32> = spare.iter().copied().filter(|&s| holds(s) == 1).collect();
    assert_eq!(homes.len(), 1, "re-homed on {homes:?}");
    assert_eq!(holds(newer.0), 1);
    // Sealed, its group covers both versions where they are: with the
    // newer one's server down, the page is rebuilt from the older one and
    // the parity page.
    pumped(&wire, &spawn(&pager, |p| p.flush())).expect("flush");
    let pages = [(0, Page::filled(2))];
    read_through_any_single_crash(&wire, &pager, &[newer.0, homes[0], 4], &pages);
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.checksum_failures), (2, 0));
}

#[test]
fn a_rewrite_held_back_for_a_backing_off_server_lands_its_pages_older_append_first() {
    let (wire, _servers, pager) = plog(3, 4);
    // A sealed group of pages 2, 4 and 6 on data servers 0, 1 and 2.
    placed(&wire, &pager, &[2, 4, 6]);
    // Page 0's append goes to server 0, and is not answered.
    pager.page_out(PageId(0), &Page::filled(1)).expect("append");
    let older = held_back(&wire);
    assert_eq!(older.server, ServerId(0));
    // Server 1 misses a read: it backs off, and the read goes around it.
    let reader = spawn(&pager, |p| p.page_in(PageId(4)));
    held_back(&wire).completion.complete(Err(refused("missed")));
    assert_eq!(
        pumped(&wire, &reader).expect("pagein"),
        Page::deterministic(4)
    );
    let backing_off = pager.with_shard(0, |p| p.pool().backoff(ServerId(1)).is_some());
    assert!(backing_off, "server 1 does not back off");
    // The rewrite's frame goes to server 1 and is held back for its rung:
    // the rewrite does not complete before the append it supersedes.
    let waits = flight_waits(&pager);
    let rewrite = spawn(&pager, |p| p.page_out(PageId(0), &Page::filled(2)));
    until_waiting(&pager, waits + 1);
    assert!(wire.state().flying.is_empty(), "the rewrite went out early");
    answer(older);
    answer(held_back(&wire));
    joined(rewrite).expect("rewrite");
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    assert_eq!(pumped(&wire, &reader).expect("pagein"), Page::filled(2));
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.checksum_failures), (5, 0));
}

#[test]
fn a_rewrite_that_does_not_take_leaves_its_pages_sealing_append_current() {
    // Data servers 0..=2, the parity page on 4, 3 spare.
    let (wire, _servers, pager) = plog(3, 5);
    placed(&wire, &pager, &[0, 2]);
    pager
        .page_out(PageId(4), &Page::deterministic(4))
        .expect("sealing append");
    // The parity server dies under the seal. The rewrite behind it is
    // refused before it begins — a unit is no page to write — and so
    // supersedes nothing: it lands the seal as its page's current version.
    wire.state().dying.push(ServerId(4));
    let unit = Page::unit(&[7; 512]).expect("a unit");
    let waits = flight_waits(&pager);
    let rewrite = spawn(&pager, move |p| p.page_out(PageId(4), &unit));
    until_waiting(&pager, waits + 1);
    wire.release_wave(2);
    let refused = pumped(&wire, &rewrite);
    assert!(
        matches!(refused, Err(RmpError::Unsupported(_))),
        "{refused:?}"
    );
    // Its version stays the page's, so the parity leg's failure is the
    // pageout's own: the recovery rebuilds the parity page from the
    // group's members and the pageout runs again — not a rebuild queued
    // as for a superseded append.
    let stats = pager.stats();
    assert_eq!(stats.recovery_steps, 1, "no recovery ran");
    // The shard that rebuilt the parity server does not queue that
    // rebuild again when its own verdict is passed on.
    let backlog = pager.with_shard(0, |p| p.recovery_backlog());
    assert_eq!(backlog, 0, "the rebuild was queued again");
    assert_eq!(
        (stats.net_data_transfers, stats.net_parity_transfers),
        (4, 1)
    );
    let reader = spawn(&pager, |p| p.page_in(PageId(4)));
    assert_eq!(
        pumped(&wire, &reader).expect("pagein"),
        Page::deterministic(4)
    );
    pumped(&wire, &spawn(&pager, |p| p.flush())).expect("flush");
    let pages: Vec<(u64, Page)> = [0, 2, 4].map(|id| (id, Page::deterministic(id))).into();
    read_through_any_single_crash(&wire, &pager, &[0, 1, 2, 3], &pages);
}

// --- read-ahead across shards ----------------------------------------------

/// A two-shard pager with read-ahead on, pages `0..pages` placed, and
/// the faults on pages 0 and 1 served: the next fault on page 2 gives the
/// front door's vote its majority (stride one) and plans page 3 — which
/// lives on the sibling shard.
fn two_faults_into_a_run(policy: Policy, pages: u64) -> ([Arc<Wire>; 2], Arc<ShardedPager>) {
    let (wires, _servers, pager) = wave_shards(PagerConfig::new(policy), 3);
    let placed = spawn(&pager, move |p| {
        (0..pages).try_for_each(|id| p.page_out(PageId(id), &Page::deterministic(id)))
    });
    pumped_on(&[&wires[0], &wires[1]], &placed).expect("placement");
    for id in 0..2 {
        let reader = spawn(&pager, move |p| p.page_in(PageId(id)));
        let read = pumped_on(&[&wires[0], &wires[1]], &reader);
        assert_eq!(read.expect("pagein"), Page::deterministic(id));
    }
    assert_eq!(read_ahead(&pager, "issued"), [0, 0], "no majority yet");
    (wires, pager)
}

/// `pager_prefetch_<what>_total`, per shard.
fn read_ahead(pager: &ShardedPager, what: &str) -> [u64; 2] {
    let name = format!("pager_prefetch_{what}_total");
    [0, 1].map(|shard| pager.with_shard(shard, |p| p.metrics().counter(&name).get()))
}

/// Faults page `id` in, answering its one demand read on `wire`.
fn fault(pager: &Arc<ShardedPager>, wire: &Wire, id: u64) {
    let reader = spawn(pager, move |p| p.page_in(PageId(id)));
    answer(held_back(wire));
    assert_eq!(joined(reader).expect("pagein"), Page::deterministic(id));
}

#[test]
fn read_ahead_does_not_wait_for_a_sibling_shard() {
    let (wires, pager) = two_faults_into_a_run(Policy::Mirroring, 10);
    // A free is whole under its shard's lock: the frees of both copies of
    // page 9 are on shard 1's wire, and shard 1 is locked until they land.
    let freer = spawn(&pager, |p| p.free(PageId(9)));
    drop(wires[1].wait_for(2));
    // The fault on page 2 plans page 3, finds its shard taken, and
    // returns with its page all the same.
    fault(&pager, &wires[0], 2);
    drop(wires[1].wait_for(2));
    wires[1].release_wave(2);
    joined(freer).expect("free");
    assert_eq!(
        read_ahead(&pager, "issued"),
        [0, 0],
        "speculation waited, or went ahead"
    );
    // With the sibling free again the run goes on, across the shards: the
    // fault on 3 reads 4 ahead into shard 0, and the fault on 4 — a hit,
    // nothing on the wire for it — reads 5 and 6 ahead into both.
    fault(&pager, &wires[1], 3);
    assert_eq!(read_ahead(&pager, "issued"), [1, 0]);
    answer(held_back(&wires[0]));
    assert_eq!(
        pager.page_in(PageId(4)).expect("a hit"),
        Page::deterministic(4)
    );
    assert_eq!(read_ahead(&pager, "issued"), [2, 1]);
    assert_eq!(read_ahead(&pager, "hits"), [1, 0]);
}

#[test]
fn read_ahead_leaves_out_a_page_with_an_operation_under_way() {
    let (wires, pager) = two_faults_into_a_run(Policy::NoReliability, 8);
    // A fault on page 3 is parked: shard 1 is unlocked, page 3 is busy.
    let reader = spawn(&pager, |p| p.page_in(PageId(3)));
    let read = held_back(&wires[1]);
    // The fault on page 2 plans page 3; shard 1 has no copy on its way
    // and is free to ask — and is not asked for a page it is reading.
    fault(&pager, &wires[0], 2);
    assert!(
        wires[1].state().flying.is_empty(),
        "page 3 was requested twice"
    );
    assert_eq!(read_ahead(&pager, "issued"), [0, 0]);
    answer(read);
    assert_eq!(joined(reader).expect("pagein"), Page::deterministic(3));
}

#[test]
fn a_fault_that_meets_its_read_ahead_on_the_wire_waits_for_that_fetch() {
    let (wires, pager) = two_faults_into_a_run(Policy::NoReliability, 8);
    // The fault on page 2 (shard 0) reads page 3 ahead on shard 1's wire.
    fault(&pager, &wires[0], 2);
    let ahead = held_back(&wires[1]);
    // The fault on page 3 sends no read of its own: it says it waits —
    // under shard 1's lock, so the count is read off its registry — and
    // is served by the read-ahead once that is answered.
    let registry = pager.with_shard(1, |p| Arc::clone(p.metrics()));
    let waits = || registry.counter("pager_prefetch_waits_total").get();
    let reader = spawn(&pager, |p| p.page_in(PageId(3)));
    let stuck = Instant::now() + STUCK;
    while waits() == 0 {
        assert!(Instant::now() < stuck, "the fault did not wait");
        std::thread::yield_now();
    }
    assert!(wires[1].state().flying.is_empty(), "page 3 was read twice");
    answer(ahead);
    assert_eq!(joined(reader).expect("pagein"), Page::deterministic(3));
    assert_eq!(read_ahead(&pager, "hits"), [0, 1]);
    assert_eq!(read_ahead(&pager, "waits"), [0, 1]);
}

#[test]
fn a_pageout_voids_the_read_ahead_it_overtakes_on_another_shard() {
    let (wires, pager) = two_faults_into_a_run(Policy::NoReliability, 8);
    // The fault on page 2 (shard 0) reads page 3 ahead on shard 1's wire,
    // where the old bytes are now on their way.
    fault(&pager, &wires[0], 2);
    let ahead = held_back(&wires[1]);
    assert_eq!(read_ahead(&pager, "issued"), [0, 1]);
    let writer = spawn(&pager, |p| p.page_out(PageId(3), &Page::filled(7)));
    let ack = held_back(&wires[1]);
    answer(ahead);
    answer(ack);
    joined(writer).expect("rewrite");
    assert_eq!(
        read_ahead(&pager, "useless"),
        [0, 1],
        "the copy was voided on the wire"
    );
    // The fault reads the page where it is, and gets the new bytes.
    let reader = spawn(&pager, |p| p.page_in(PageId(3)));
    answer(held_back(&wires[1]));
    assert_eq!(joined(reader).expect("pagein"), Page::filled(7));
    assert_eq!(read_ahead(&pager, "hits"), [0, 0]);
    let stats = pager.stats();
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_landing_reads_its_looping_page_behind_only_once_the_write_has_acked() {
    let (wires, _servers, pager) = wave_shards(PagerConfig::new(Policy::NoReliability), 2);
    let wire = &wires[0];
    placed(wire, &pager, &[0, 2]);
    // Faults 0, 2, 0, 2: page 0 is followed by page 2 twice running, so
    // it loops. Nothing is read ahead: no stride, and 2's successor is
    // not confirmed yet.
    for id in [0, 2, 0, 2] {
        fault(&pager, wire, id);
    }
    assert_eq!(read_ahead(&pager, "issued"), [0, 0]);
    // The rewrite returns with its store on the wire, and nothing else.
    pager
        .page_out(PageId(0), &Page::filled(5))
        .expect("rewrite");
    let ack = held_back(wire);
    assert_eq!(reply_to(&ack.replies[0]), Opcode::PageOut);
    let stats = spawn(&pager, |p| p.stats());
    until_waiting(&pager, 1);
    assert!(
        wire.state().flying.is_empty(),
        "the read went out before the write's reply"
    );
    // Once the store has acked the landing lands, and the page's read
    // follows its write.
    answer(ack);
    let behind = held_back(wire);
    assert_eq!(reply_to(&behind.replies[0]), Opcode::PageIn);
    assert_eq!(read_ahead(&pager, "issued"), [1, 0]);
    joined(stats);
    answer(behind);
    // The next lap's fault finds it cached, verified against the
    // checksum the write committed.
    assert_eq!(pager.page_in(PageId(0)).expect("a hit"), Page::filled(5));
    assert_eq!(read_ahead(&pager, "hits"), [1, 0]);
    // It planned 2, its successor: answer that read too.
    std::mem::take(&mut wire.state().flying)
        .into_iter()
        .for_each(answer);
    // A landing its own page's next fault meets is not read behind: the
    // fault is served from the kept page, which is resident again.
    let issued = read_ahead(&pager, "issued");
    pager
        .page_out(PageId(0), &Page::filled(6))
        .expect("rewrite");
    let ack = held_back(wire);
    assert_eq!(pager.page_in(PageId(0)).expect("pagein"), Page::filled(6));
    answer(ack);
    let stats = pager.stats();
    assert!(wire.state().flying.is_empty(), "read behind");
    assert_eq!(read_ahead(&pager, "issued"), issued, "read behind");
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_miss_that_restarts_a_learnt_sweep_sends_its_read_ahead_beside_its_demand_read() {
    let (wires, _servers, pager) = wave_shards(PagerConfig::new(Policy::NoReliability), 2);
    let wire = &wires[0];
    placed(wire, &pager, &[0, 2, 4]);
    // A first lap of the sweep 0, 2, 4: each fault a miss, its demand
    // read alone on the wire.
    for id in [0, 2, 4] {
        fault(&pager, wire, id);
    }
    // The second lap's first fault misses too, and page 0 has not
    // looped yet: its read-ahead of 2 follows its demand read.
    fault(&pager, wire, 0);
    answer(held_back(wire));
    assert_eq!(
        pager.page_in(PageId(2)).expect("a hit"),
        Page::deterministic(2)
    );
    answer(held_back(wire));
    assert_eq!(
        pager.page_in(PageId(4)).expect("a hit"),
        Page::deterministic(4)
    );
    assert_eq!(read_ahead(&pager, "hits"), [2, 0]);
    // Page 0 has been followed by 2 twice running: it recurs. The third
    // lap's miss on it restarts a sweep the stream has learnt, and the
    // read-ahead of 2 goes out while the demand read is still out.
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    let both = std::mem::take(&mut wire.wait_for(2).flying);
    let ops: Vec<Opcode> = (both.iter())
        .flat_map(|f| f.replies.iter().map(reply_to))
        .collect();
    assert_eq!(ops, [Opcode::PageIn, Opcode::PageIn]);
    both.into_iter().for_each(answer);
    assert_eq!(joined(reader).expect("pagein"), Page::deterministic(0));
    assert_eq!(
        pager.page_in(PageId(2)).expect("a hit"),
        Page::deterministic(2)
    );
    assert_eq!(read_ahead(&pager, "hits"), [3, 0]);
    std::mem::take(&mut wire.state().flying)
        .into_iter()
        .for_each(answer);
    let stats = pager.stats();
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

/// Shard 0's `[pageins, pages fetched, landing hits]` so far, read
/// without landing anything.
fn served(pager: &ShardedPager) -> [u64; 3] {
    pager.with_shard(0, |p| {
        let stats = p.stats();
        let hits = p.metrics().counter("pager_landing_hits_total").get();
        [stats.pageins, stats.net_fetches, hits]
    })
}

#[test]
fn a_read_of_a_looping_landing_page_is_served_from_the_kept_page() {
    let (wires, _servers, pager) = wave_shards(PagerConfig::new(Policy::NoReliability), 2);
    let wire = &wires[0];
    placed(wire, &pager, &[0, 2]);
    // Faults 0, 2, 0, 2: page 0 loops, its next fault to come a lap on.
    for id in [0, 2, 0, 2] {
        fault(&pager, wire, id);
    }
    // The rewrite returns with its store on the wire, unanswered.
    pager
        .page_out(PageId(0), &Page::filled(5))
        .expect("rewrite");
    let ack = held_back(wire);
    // The fault meanwhile is served from the page the landing keeps: a
    // pagein that sends no frame for it and waits for nothing — only the
    // read-ahead of its successor, 2, goes out.
    let ([pageins, fetched, hits], waits) = (served(&pager), flight_waits(&pager));
    assert_eq!(pager.page_in(PageId(0)).expect("pagein"), Page::filled(5));
    assert_eq!(
        flight_waits(&pager),
        waits,
        "the read waited for the landing"
    );
    assert_eq!(served(&pager), [pageins + 1, fetched, hits + 1]);
    let ahead = held_back(wire);
    assert_eq!(reply_to(&ahead.replies[0]), Opcode::PageIn);
    answer(ahead);
    // Its reply in, the landing keeps the page still: the page's next
    // fault — it was dropped clean — is served from it too, sending
    // nothing, and the page is not read behind.
    answer(ack);
    assert_eq!(pager.page_in(PageId(0)).expect("pagein"), Page::filled(5));
    assert_eq!(served(&pager), [pageins + 2, fetched + 1, hits + 2]);
    assert!(wire.state().flying.is_empty(), "a frame for a kept page");
    // `stats` lands it, as planners do: not read behind, and the page's
    // next fault reads the wire, checked against the checksum the
    // rewrite committed.
    pager.stats();
    assert!(wire.state().flying.is_empty(), "read behind");
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    let demand = held_back(wire);
    assert_eq!(read_ahead(&pager, "issued"), [1, 0], "read behind");
    answer(demand);
    assert_eq!(joined(reader).expect("pagein"), Page::filled(5));
    assert_eq!(served(&pager)[2], hits + 2);
    let stats = pager.stats();
    assert_eq!((stats.pageouts, stats.pageins), (3, 7));
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_recurring_page_outliving_a_pageout_stays_kept_for_a_room_of_pageouts() {
    // Room for a chunk's worth of landings a shard; shard 0 holds the
    // even pages.
    let config = PagerConfig::new(Policy::NoReliability);
    let (wires, _servers, pager) = wave_shards(config, 2);
    let wire = &wires[0];
    let pages: Vec<u64> = (0..=CHUNK_PAGES as u64).map(|i| 2 * i).collect();
    placed(wire, &pager, &pages);
    // Faults 0, 2, 0, 2: page 0 recurs.
    for id in [0, 2, 0, 2] {
        fault(&pager, wire, id);
    }
    // Whatever the faults read ahead is answered.
    std::mem::take(&mut wire.state().flying)
        .into_iter()
        .for_each(answer);
    // Page 0's rewrite is answered before any other pageout leaves: it
    // outlives none, and still its page is kept — the fault is served
    // from it, a pagein and no fetch.
    pager
        .page_out(PageId(0), &Page::filled(5))
        .expect("rewrite");
    answer(held_back(wire));
    let [pageins, fetched, hits] = served(&pager);
    let kept_read = |hits: u64| {
        let reader = spawn(&pager, |p| p.page_in(PageId(0)));
        assert_eq!(pumped(wire, &reader).expect("pagein"), Page::filled(5));
        assert_eq!(
            served(&pager)[2],
            hits,
            "the fault did not find its page kept"
        );
    };
    kept_read(hits + 1);
    assert!(
        served(&pager)[1] <= fetched + 1,
        "only the read-ahead of 2 went out"
    );
    // Fifteen more pageouts leave after it: fewer than a room's worth,
    // and the page is kept still.
    let out = |id: u64| {
        let out = spawn(&pager, move |p| p.page_out(PageId(id), &Page::filled(7)));
        pumped(wire, &out).expect("rewrite");
    };
    pages[1..CHUNK_PAGES].iter().copied().for_each(out);
    kept_read(hits + 2);
    // With the sixteenth, a room's worth have left after it: it lands,
    // and the page's next fault reads the wire.
    out(pages[CHUNK_PAGES]);
    let reader = spawn(&pager, |p| p.page_in(PageId(0)));
    let (read, ops) = pumped_ops(wire, &reader);
    assert_eq!(read.expect("pagein"), Page::filled(5));
    assert_eq!(served(&pager)[2], hits + 2, "a landed page was kept");
    assert!(ops.contains(&Opcode::PageIn), "the fault sent no read");
    let stats = pager.stats();
    assert_eq!(stats.pageins - pageins, 3);
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

/// Places pages `0, 2, …` — `count` of them, all on shard 0 — lands
/// them, and rewrites them all on a thread of their own, none answered.
fn rewrites_unanswered(wire: &Wire, pager: &Arc<ShardedPager>, count: u64) -> Receiver<Result<()>> {
    let pages: Vec<u64> = (0..count).map(|i| 2 * i).collect();
    placed(wire, pager, &pages);
    pager.stats();
    spawn(pager, move |p| {
        (pages.iter()).try_for_each(|&id| p.page_out(PageId(id), &Page::filled(7)))
    })
}

#[test]
fn a_shard_holding_more_than_a_chunk_of_landings_parks_no_caller_while_the_window_has_room() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 2);
    let waits = flight_waits(&pager);
    let count = CHUNK_PAGES as u64 + 1;
    let rewrites = rewrites_unanswered(&wire, &pager, count);
    // Every rewrite returns with its store on the wire: none of them
    // waits for an older one to land while the request window has room.
    let stuck = Instant::now() + STUCK;
    let done = loop {
        if let Ok(done) = rewrites.try_recv() {
            break done;
        }
        assert_eq!(flight_waits(&pager), waits, "a caller parked on a landing");
        assert!(Instant::now() < stuck, "the rewrites are stuck");
        std::thread::yield_now();
    };
    done.expect("rewrites");
    assert_eq!(
        wire.state().flying.len(),
        count as usize,
        "a store was answered"
    );
    assert_eq!(counted(&pager, "pager_landing_room_waits_total"), 0);
    let (stats, _) = pumped_ops(&wire, &spawn(&pager, |p| p.stats()));
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_full_room_lands_its_oldest_and_counts_the_wait() {
    let (wire, _servers, pager) = wave_sharded(PagerConfig::new(Policy::NoReliability), 2);
    let room = pager.with_shard(0, |p| p.config().transport.window_max_inflight);
    let waits = flight_waits(&pager);
    // A request window's worth of landings fill the room: the next
    // rewrite lands the oldest, its store still unanswered, and waits.
    let rewrites = rewrites_unanswered(&wire, &pager, room as u64 + 1);
    until_waiting(&pager, waits + 1);
    assert_eq!(counted(&pager, "pager_landing_room_waits_total"), 1);
    pumped(&wire, &rewrites).expect("rewrites");
    assert_eq!(counted(&pager, "pager_landing_room_waits_total"), 1);
    let (stats, _) = pumped_ops(&wire, &spawn(&pager, |p| p.stats()));
    assert_eq!((stats.checksum_failures, stats.degraded_reads), (0, 0));
}

#[test]
fn a_superseded_landing_is_not_read_behind() {
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(3);
    let (wires, _servers, pager) = wave_shards(config, 4);
    let wire = &wires[0];
    placed(wire, &pager, &[0, 2]);
    // Faults 0, 2, 0, 2: page 0 loops, and is read behind its pageout.
    for id in [0, 2, 0, 2] {
        fault(&pager, wire, id);
    }
    std::mem::take(&mut wire.state().flying)
        .into_iter()
        .for_each(answer);
    let [issued, _] = read_ahead(&pager, "issued");
    let [hits, _] = read_ahead(&pager, "hits");
    // Two rewrites of page 0, the second while the first is on the wire.
    for fill in [5, 6] {
        pager
            .page_out(PageId(0), &Page::filled(fill))
            .expect("rewrite");
    }
    // Both land: the newer one's page is read behind, the superseded one's
    // is not.
    let (_, ops) = pumped_ops(wire, &spawn(&pager, |p| p.stats()));
    let reads = ops.iter().filter(|&&op| op == Opcode::PageIn).count();
    assert_eq!(reads, 1, "{ops:?}");
    assert_eq!(read_ahead(&pager, "issued")[0], issued + 1);
    // The next lap's fault finds the newer page cached.
    assert_eq!(pager.page_in(PageId(0)).expect("a hit"), Page::filled(6));
    assert_eq!(read_ahead(&pager, "hits")[0], hits + 1);
    std::mem::take(&mut wire.state().flying)
        .into_iter()
        .for_each(answer);
    assert_eq!(pager.stats().checksum_failures, 0);
}

#[test]
fn a_landing_read_behind_leaves_its_connection_before_page_out_returns() {
    // Over a real server, where a store nobody waits for is held on the
    // connection until the next read or wait: a landing to be read behind
    // is sent at once, or its read would wait for the landing cap.
    let server =
        rmp_server::MemoryServer::spawn(rmp_server::ServerConfig::default()).expect("spawn server");
    let mut registry = rmp_cluster::Registry::new();
    registry
        .add(rmp_cluster::ServerInfo {
            id: ServerId(0),
            addr: server.addr().to_string(),
            link_cost: 1.0,
        })
        .expect("register");
    let config = PagerConfig::new(Policy::NoReliability)
        .with_servers(1)
        .with_shard_count(2);
    let pager = ShardedPager::connect(config, &registry).expect("connect");
    for id in [0, 2, 4] {
        pager
            .page_out(PageId(id), &Page::deterministic(id))
            .expect("placement");
    }
    // Landed, so that the faults read the wire.
    pager.stats();
    // Faults 0, 2, 0, 2: page 0 loops; page 4 does not.
    for id in [0, 2, 0, 2] {
        assert_eq!(
            pager.page_in(PageId(id)).expect("in"),
            Page::deterministic(id)
        );
    }
    let settled = || loop {
        let served = server.served_requests();
        std::thread::sleep(Duration::from_millis(30));
        if server.served_requests() == served {
            return served;
        }
    };
    let before = settled();
    pager
        .page_out(PageId(4), &Page::filled(4))
        .expect("rewrite");
    assert_eq!(settled(), before, "a rewrite nobody waits for was sent");
    pager
        .page_out(PageId(0), &Page::filled(5))
        .expect("rewrite");
    // Nothing touches the pager from here on: what is served now was
    // sent before the rewrite returned — and it took the held one along.
    let stuck = Instant::now() + STUCK;
    while server.served_requests() < before + 2 {
        assert!(
            Instant::now() < stuck,
            "the store to be read behind is held"
        );
        std::thread::yield_now();
    }
    // Landing it reads the page behind it.
    pager.stats();
    assert_eq!(pager.page_in(PageId(4)).expect("in"), Page::filled(4));
    assert_eq!(pager.page_in(PageId(0)).expect("in"), Page::filled(5));
    let hits = |p: &mut Pager| p.metrics().counter("pager_prefetch_hits_total").get();
    assert_eq!(pager.with_shard(0, hits), 1, "page 0 was not read behind");
    server.shutdown();
}
