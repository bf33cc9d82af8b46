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
//! shard holds the page; the last three tests pin that it waits for
//! nothing on the way — not for a sibling shard's lock, not for a page
//! with an operation under way — and that a write still voids a copy it
//! overtakes.

mod support;

use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rmp_core::{Pager, RecoveryReport, ShardedPager};
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
        let dead = pager.with_shard(shard, |p| !p.pool().view().is_alive(gone));
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
    let planned = pager.with_shard(0, |p| !p.pool().view().is_alive(idle));
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
        assert!(!pager.with_shard(0, |p| p.pool().view().is_alive(gone)));
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
        pager.with_shard(0, |p| p.pool().view().is_alive(ServerId(2))),
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
    assert!(!pager.with_shard(0, |p| p.pool().view().is_alive(ServerId(2))));
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
    // A reply half as late as the lock is held would count as slow.
    let half = held.as_secs_f64() * 1e6 / 2.0;
    pager.with_shard(0, |p| p.pool_mut().set_detector_slow_floor_us(half));
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
    for server in [ServerId(0), ServerId(1)] {
        assert_eq!(
            pager.suspicion(server),
            0.0,
            "{server} was charged the wait"
        );
    }
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
