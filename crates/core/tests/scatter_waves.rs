//! Waves, counted not timed: every leg of a stripe operation is on the
//! wire before any reply is awaited.
//!
//! The pool talks to scripted transports whose bursts complete only when
//! the test says so ([`PendingReplies::deferred`]). The operation under
//! test runs on its own thread while the test thread plays the wire: it
//! waits until exactly the expected number of frames is outstanding —
//! which can only happen if the operation submitted them all without
//! waiting for the first — and then answers them. An operation that
//! waited between two legs would leave the wire short of the expected
//! width until its own read deadline failed it, so no assertion here
//! compares a duration against a threshold.

mod support;

use std::sync::Arc;
use std::time::Duration;

use rmp_core::pool::CHUNK_PAGES;
use rmp_core::{Clock, ServerPool, ShardedPager};
use rmp_proto::{Message, Opcode};
use rmp_server::{InProcessServer, ServerConfig};
use rmp_types::{Page, PageId, PagerConfig, Policy, RmpError, ServerId};

use support::*;

fn ec_config() -> PagerConfig {
    PagerConfig::new(Policy::ErasureCoded).with_ec_splits(4, 1)
}

#[test]
fn erasure_coded_write_rewrite_and_read_are_waves() {
    let (wire, servers, pager) = wave_pager(ec_config(), 5);
    let page = Page::deterministic(1);

    // First write: the five units leave together.
    let (done, waves) = in_waves(&wire, &[5], || landed(&pager, PageId(1), &page));
    done.expect("first write");
    assert_eq!(
        shape(&waves[0]),
        (vec![0, 1, 2, 3, 4], vec![Opcode::PageOut; 5])
    );

    // Outside the first write's wave: one allocation per server.
    let calls = wire.calls();
    assert!(
        calls.iter().all(|(_, op)| *op == Opcode::Alloc),
        "{calls:?}"
    );

    // Rewrite: each unit overwritten under the key its row names, one
    // frame a server and no free.
    let page = Page::deterministic(2);
    let (done, waves) = in_waves(&wire, &[5], || landed(&pager, PageId(1), &page));
    done.expect("rewrite");
    assert!(
        (waves[0].iter()).all(|(_, ops)| *ops == [Opcode::PageOut]),
        "{:?}",
        waves[0]
    );
    assert_eq!(shape(&waves[0]).0, vec![0, 1, 2, 3, 4]);
    let stored: usize = servers.iter().map(InProcessServer::stored_pages).sum();
    assert_eq!(stored, 5, "each unit overwritten, none left beside it");

    // Pagein: the four data units gathered at once.
    let (read, waves) = in_waves(&wire, &[4], || pager.page_in(PageId(1)));
    assert_eq!(read.expect("pagein"), page);
    assert_eq!(shape(&waves[0]).1, vec![Opcode::PageIn; 4]);
    // The rewrite reserved no frame: nothing went outside the waves.
    assert_eq!(wire.calls(), []);
}

#[test]
fn mirroring_writes_both_copies_in_one_wave() {
    let (wire, _servers, pager) = wave_pager(PagerConfig::new(Policy::Mirroring), 3);
    let (done, _) = in_waves(&wire, &[2], || {
        landed(&pager, PageId(7), &Page::deterministic(7))
    });
    done.expect("first write");
    let (done, waves) = in_waves(&wire, &[2], || {
        landed(&pager, PageId(7), &Page::deterministic(8))
    });
    done.expect("overwrite");
    assert_eq!(shape(&waves[0]).1, vec![Opcode::PageOut; 2]);
    let (read, waves) = in_waves(&wire, &[1], || pager.page_in(PageId(7)));
    assert_eq!(
        read.expect("a single copy is one frame"),
        Page::deterministic(8)
    );
    assert_eq!(shape(&waves[0]).1, vec![Opcode::PageIn]);
}

#[test]
fn write_through_overlaps_its_remote_leg() {
    let config = PagerConfig::new(Policy::WriteThrough);
    let (wire, _servers, pager) = wave_pager(config, 2);
    let (done, _) = in_waves(&wire, &[1], || {
        landed(&pager, PageId(3), &Page::deterministic(3))
    });
    done.expect("first write places by the walk, one frame");
    // The rewrite's remote frame is submitted, not called: the disk write
    // runs while the test thread still holds the reply back.
    let (done, waves) = in_waves(&wire, &[1], || {
        landed(&pager, PageId(3), &Page::deterministic(4))
    });
    done.expect("rewrite");
    assert_eq!(shape(&waves[0]).1, vec![Opcode::PageOut]);
    assert_eq!(pager.stats().disk_writes, 2);
}

/// Parity logging over data servers 0..=2 and parity server 3.
fn plog_pager() -> (Arc<Wire>, Vec<InProcessServer>, ShardedPager) {
    wave_pager(PagerConfig::new(Policy::ParityLogging).with_servers(3), 4)
}

/// Pages 0 and 1 go out as `fill` and `fill + 1`: pending members, their
/// data frame each and nothing else.
fn two_pending(wire: &Wire, pager: &ShardedPager, fill: u64) {
    for i in 0..2u64 {
        let (done, waves) = in_waves(wire, &[1], || {
            landed(pager, PageId(i), &Page::deterministic(fill + i))
        });
        done.expect("a pending member is one frame");
        assert_eq!(shape(&waves[0]).1, vec![Opcode::PageOut]);
    }
}

#[test]
fn parity_logging_seal_is_one_wave() {
    let (wire, servers, pager) = plog_pager();
    // The first group seals with nothing to reclaim: its third pageout is
    // one wave, the data frame and the parity page.
    two_pending(&wire, &pager, 0);
    let (done, waves) = in_waves(&wire, &[2], || {
        landed(&pager, PageId(2), &Page::deterministic(2))
    });
    done.expect("first seal");
    assert_eq!(shape(&waves[0]), (vec![2, 3], vec![Opcode::PageOut; 2]));

    // Rewriting the three pages supersedes the whole first group: the
    // second seal ships its data frame, its parity page and the S + 1
    // frees in one wave.
    wire.calls();
    two_pending(&wire, &pager, 10);
    let (done, waves) = in_waves(&wire, &[6], || {
        landed(&pager, PageId(2), &Page::deterministic(12))
    });
    done.expect("second seal");
    let (reached, ops) = shape(&waves[0]);
    assert_eq!(reached, vec![0, 1, 2, 3], "one burst per server");
    assert_eq!(
        ops,
        vec![
            Opcode::PageOut,
            Opcode::PageOut,
            Opcode::Free,
            Opcode::Free,
            Opcode::Free,
            Opcode::Free
        ]
    );
    assert!(
        wire.calls().is_empty(),
        "the first group's grants serve the second"
    );
    let stored: usize = servers.iter().map(InProcessServer::stored_pages).sum();
    assert_eq!(stored, 4, "three current versions and one parity page");
}

#[test]
fn a_data_frame_the_sealing_wave_did_not_land_is_re_homed_and_its_group_follows() {
    let (wire, servers, pager) = plog_pager();
    two_pending(&wire, &pager, 0);
    // Server 2 refuses the sealing wave's data frame; the parity page
    // lands. Servers 0 and 1 hold the group's other members, so after a
    // fresh look at the loads (a wave of its own) the frame is offered to
    // server 2 again, alone and under a new key.
    wire.state().refuse_store.push(ServerId(2));
    let (done, waves) = in_waves(&wire, &[2, 4, 1], || {
        landed(&pager, PageId(2), &Page::deterministic(2))
    });
    done.expect("the second offer is taken");
    assert_eq!(shape(&waves[0]), (vec![2, 3], vec![Opcode::PageOut; 2]));
    assert_eq!(shape(&waves[1]).1, vec![Opcode::LoadQuery; 4]);
    assert_eq!(shape(&waves[2]), (vec![2], vec![Opcode::PageOut]));
    let stored: Vec<usize> = servers.iter().map(InProcessServer::stored_pages).collect();
    assert_eq!(stored, [1, 1, 1, 1]);
    assert_eq!(
        granted(&pager, ServerId(2)),
        granted(&pager, ServerId(0)),
        "the refused frame's grant went back before the second offer took one"
    );
    // The group names the unit that took the frame, not the one the wave
    // offered: page 0 is rebuilt from it, page 1 and the parity page.
    pager.note_crash(ServerId(0));
    let (read, waves) = in_waves(&wire, &[3], || pager.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
    assert_eq!(shape(&waves[0]), (vec![1, 2, 3], vec![Opcode::PageIn; 3]));
}

#[test]
fn a_parity_server_dying_under_the_sealing_wave_has_the_parity_page_rebuilt() {
    // Data servers 0..=2, the parity page on 4, 3 spare.
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(3);
    let (wire, servers, pager) = wave_pager(config, 5);
    two_pending(&wire, &pager, 0);
    // The data frame lands, the parity server dies with its burst. The
    // group stays sealed — a later append may have opened the next one by
    // the time a landing hears of it — so recovery rebuilds its parity
    // page: one gather of the three members, the page stored on the
    // spare. Then the pageout runs again, a pending member's one frame.
    wire.state().dying.push(ServerId(4));
    let (done, waves) = in_waves(&wire, &[2, 3, 1, 1], || {
        landed(&pager, PageId(2), &Page::deterministic(2))
    });
    done.expect("recovered and retried");
    assert_eq!(shape(&waves[0]), (vec![2, 4], vec![Opcode::PageOut; 2]));
    assert_eq!(shape(&waves[1]).1, vec![Opcode::PageIn; 3]);
    assert_eq!(shape(&waves[2]), (vec![3], vec![Opcode::PageOut]));
    assert_eq!(shape(&waves[3]).1, vec![Opcode::PageOut]);
    // The group is whole again: server 0 may go too. Page 0 is rebuilt
    // from the other members and the new parity page; page 2's retried
    // version, pending on server 0, from the client's accumulator alone.
    servers[4].crash();
    pager.note_crash(ServerId(0));
    let (read, waves) = in_waves(&wire, &[3], || pager.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
    assert_eq!(shape(&waves[0]), (vec![1, 2, 3], vec![Opcode::PageIn; 3]));
    for (i, widths) in [(1u64, &[1][..]), (2, &[])] {
        let (read, _) = in_waves(&wire, widths, || pager.page_in(PageId(i)));
        assert_eq!(read.expect("read"), Page::deterministic(i));
    }
}

/// Frames a server grants at a time: a reservation asks for the rest of
/// one once fewer than half are left.
const CHUNK: u32 = 64;

#[test]
fn a_frame_grant_is_asked_for_before_it_runs_out() {
    let (wire, servers, pager) = plog_pager();
    // Three chunks of appends a server — a data frame on each of 0..=2 and
    // a parity page on 3 every third — rewriting a working set, so each
    // reclaimed group's frees give frames back on the server and the
    // grants must be asked for again and again.
    for i in 0..9 * u64::from(CHUNK) {
        let page = Page::deterministic(i);
        answered(&wire, || landed(&pager, PageId(i % 24), &page)).expect("append");
        for server in (0..4).map(ServerId) {
            let held = pager.with_shard(0, |p| {
                p.pool().granted_frames(server) + p.pool().asked_frames(server)
            });
            assert!(held <= CHUNK, "{server}: {held} frames granted or asked");
        }
    }
    // Each server's first reservation waited for its first chunk; every
    // later one found a grant, asked for ahead of need.
    assert_eq!(counted(&pager, "pool_grant_waits_total"), 4);
    assert!(counted(&pager, "pool_grant_refills_total") >= 4 * 3);

    // The rest asks the pool alone, with nothing landing.
    let grant_waits = |pool: &ServerPool| {
        let metrics = pool.metrics().expect("the pager's registry");
        metrics.counter("pool_grant_waits_total").get()
    };
    pager.with_shard(0, |p| {
        let pool = p.pool_mut();
        // A denied refill marks its server stop-sending, and none is asked
        // of it while it is; the grants held are still spent. The host's
        // own load takes the server's memory.
        let stopped = |pool: &ServerPool, server| !pool.accepting(server);
        let server = ServerId(0);
        servers[0].set_native_usage(ServerConfig::default().capacity_pages);
        for _ in 0..CHUNK {
            if stopped(pool, server) {
                break;
            }
            pool.reserve_frame(server).expect("a grant held");
        }
        assert!(stopped(pool, server), "the denial went unheard");
        let grants = pool.granted_frames(server);
        pool.reserve_frame(server).expect("a grant held");
        assert_eq!(
            (pool.granted_frames(server), pool.asked_frames(server)),
            (grants - 1, 0)
        );
    });

    // A refill out when its server is held dead, or forgiven as a
    // reconnect forgives it, grants nothing: the next reservation waits
    // for a chunk.
    for (server, dies) in [(ServerId(1), true), (ServerId(2), false)] {
        pager.with_shard(0, |p| {
            let pool = p.pool_mut();
            while pool.asked_frames(server) == 0 {
                pool.reserve_frame(server).expect("a grant held");
            }
            match dies {
                true => pool.declare_dead(server, "test"),
                false => pool.absolve(server),
            }
            assert_eq!(
                (pool.granted_frames(server), pool.asked_frames(server)),
                (0, 0)
            );
            if dies {
                // Nor is one asked of a server held dead: a reservation takes
                // its frame from the reply it waited for.
                pool.reserve_frame(server).expect("a frame of the reply");
                assert_eq!(
                    (pool.granted_frames(server), pool.asked_frames(server)),
                    (0, 0)
                );
                pool.absolve(server);
            }
            let waits = grant_waits(pool);
            pool.reserve_frame(server).expect("a fresh chunk");
            assert_eq!(pool.granted_frames(server), CHUNK - 1);
            assert_eq!(grant_waits(pool), waits + 1);
        });
    }
}

/// Frames shard 0's pool holds granted on `server`.
fn granted(pager: &ShardedPager, server: ServerId) -> u32 {
    pager.with_shard(0, |p| p.pool().granted_frames(server))
}

/// Runs `op`, answering every wave it sends until it returns: for what
/// is checked by its outcome, not by its waves.
fn answered<R: Send>(wire: &Wire, op: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        let worker = scope.spawn(op);
        while !worker.is_finished() {
            for flight in std::mem::take(&mut wire.state().flying) {
                flight.completion.complete(Ok(flight.replies));
            }
            std::thread::yield_now();
        }
        worker.join().expect("operation thread")
    })
}

/// Page 0 read back with server 0, its holder, down.
fn read_around_server_0(wire: &Wire, pager: &ShardedPager) {
    let read = answered(wire, || pager.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
}

#[test]
fn a_sealing_append_whose_parity_page_no_server_takes_keeps_it() {
    let (wire, _servers, pager) = plog_pager();
    two_pending(&wire, &pager, 0);
    // The parity server refuses the sealing wave's parity page, and the
    // page once more when it is offered again alone; no other server
    // holds no member of the group.
    wire.state().refuse_store.extend([ServerId(3); 2]);
    let (sealed, waves) = in_waves(&wire, &[2, 1], || {
        landed(&pager, PageId(2), &Page::deterministic(2))
    });
    assert_eq!(shape(&waves[0]), (vec![2, 3], vec![Opcode::PageOut; 2]));
    assert_eq!(shape(&waves[1]), (vec![3], vec![Opcode::PageOut]));
    // The client keeps the parity page: page 0, acked before the seal, is
    // rebuilt from the group's other members and the kept page.
    pager.note_crash(ServerId(0));
    read_around_server_0(&wire, &pager);
    sealed.expect("the seal stands, its parity page kept");
    // The next flush offers the kept page again, and the parity server
    // takes it: the same read now gathers it.
    let (flushed, waves) = in_waves(&wire, &[1], || pager.flush());
    flushed.expect("flush");
    assert_eq!(shape(&waves[0]), (vec![3], vec![Opcode::PageOut]));
    let (read, waves) = in_waves(&wire, &[3], || pager.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
    assert_eq!(shape(&waves[0]), (vec![1, 2, 3], vec![Opcode::PageIn; 3]));
}

#[test]
fn a_flush_whose_parity_page_no_server_takes_leaves_its_group_covered() {
    let (wire, _servers, pager) = plog_pager();
    two_pending(&wire, &pager, 0);
    // The flush seals the two pending pages. Its parity page is refused
    // by the parity server, twice, and then by server 2, the one other
    // server holding no member of the group; whatever becomes of it,
    // page 0 is still rebuilt without server 0 — before the next flush
    // stores that page and after.
    wire.state()
        .refuse_store
        .extend([ServerId(3), ServerId(3), ServerId(2)]);
    let _ = answered(&wire, || pager.flush());
    wire.state().refuse_store.clear();
    pager.note_crash(ServerId(0));
    read_around_server_0(&wire, &pager);
    answered(&wire, || pager.flush()).expect("flush");
    read_around_server_0(&wire, &pager);
    let read = answered(&wire, || pager.page_in(PageId(1)));
    assert_eq!(read.expect("pagein"), Page::deterministic(1));
}

#[test]
fn a_re_log_no_server_stores_leaves_the_acked_version_current() {
    // No disk: a page that finds no taker has nowhere else to go.
    let (wire, _servers, pool) = wave_pool(4);
    let config = PagerConfig::new(Policy::ParityLogging)
        .with_servers(3)
        .with_prefetch_window(0)
        .with_transport(pool.transport_config().clone());
    let pager = ShardedPager::builder(config.with_shard_count(1))
        .pools(vec![pool])
        .build()
        .expect("pager");
    // Pages 0, 1 and 2 seal the first group over servers 0..=2; pages 3
    // and 4 are pending on servers 0 and 1.
    for (id, frames) in [(0, 1), (1, 1), (2, 2), (3, 1), (4, 1)] {
        let (done, _) = in_waves(&wire, &[frames], || {
            landed(&pager, PageId(id), &Page::deterministic(id))
        });
        done.expect("append");
    }
    // Page 0 leaves server 0 for the one server holding no pending
    // member, 2, which refuses it — once, and again after a fresh look
    // at the loads. A re-log absorbs its page only once its frame acks:
    // the group it would have sealed stays pending, and page 0 where it
    // was.
    wire.state().refuse_store.extend([ServerId(2); 2]);
    let moved = answered(&wire, || {
        pager.with_shard(0, |p| p.migrate_from(ServerId(0)))
    });
    assert!(matches!(moved, Err(RmpError::ClusterFull)), "{moved:?}");
    let (read, waves) = in_waves(&wire, &[1], || pager.page_in(PageId(0)));
    assert_eq!(read.expect("pagein"), Page::deterministic(0));
    assert_eq!(shape(&waves[0]), (vec![0], vec![Opcode::PageIn]));
    // And both groups still cover their members.
    pager.note_crash(ServerId(0));
    for id in [0, 3] {
        let read = answered(&wire, || pager.page_in(PageId(id)));
        assert_eq!(read.expect("degraded read"), Page::deterministic(id));
    }
}

#[test]
fn a_refused_leg_of_a_coded_rewrite_is_re_homed_alone() {
    let (wire, servers, pager) = wave_pager(ec_config(), 5);
    let (done, _) = in_waves(&wire, &[5], || {
        landed(&pager, PageId(1), &Page::deterministic(1))
    });
    done.expect("first write");
    let grants = granted(&pager, ServerId(2));
    // Server 2 refuses its unit of the rewrite and keeps the old one: the
    // row drops it, and the re-home — to server 2 again, as every other
    // server holds a unit of this stripe — frees it in the same burst.
    // Server 2 is full until that free has made room: it refuses the
    // re-homed unit too, and takes it on the second offer.
    wire.state().refuse_store.extend([ServerId(2); 2]);
    let page = Page::deterministic(2);
    let (done, waves) = in_waves(&wire, &[5, 2, 1], || landed(&pager, PageId(1), &page));
    done.expect("rewrite");
    assert_eq!(
        shape(&waves[1]),
        (vec![2], vec![Opcode::PageOut, Opcode::Free])
    );
    assert_eq!(shape(&waves[2]), (vec![2], vec![Opcode::PageOut]));
    let stored: Vec<usize> = servers.iter().map(InProcessServer::stored_pages).collect();
    assert_eq!(stored, [1; 5], "exactly k + r units of the page");
    assert_eq!(granted(&pager, ServerId(2)), grants - 1);
    let (read, _) = in_waves(&wire, &[4], || pager.page_in(PageId(1)));
    assert_eq!(read.expect("pagein"), page);
}

/// A rewrite leg refused by a live holder leaves that holder its old
/// copy. The row drops the unit, and the wave that re-homes it frees the
/// old copy: the servers keep exactly the units the row names — for
/// whole-page copies and for a coded stripe with a spare server alike.
#[test]
fn a_rewrite_leg_refused_by_a_live_holder_leaves_no_stray_copy() {
    let cases = [
        (PagerConfig::new(Policy::Mirroring), 3, 2),
        (ec_config(), 6, 5),
    ];
    for (config, n, width) in cases {
        let (wire, servers, pager) = wave_pager(config, n);
        let (done, waves) = in_waves(&wire, &[width], || {
            landed(&pager, PageId(7), &Page::deterministic(7))
        });
        done.expect("first write");
        let holders = shape(&waves[0]).0;
        let refusing = ServerId(holders[0]);
        wire.state().refuse_store.push(refusing);
        let page = Page::deterministic(8);
        let (done, waves) = in_waves(&wire, &[width, 2], || landed(&pager, PageId(7), &page));
        done.expect("rewrite");

        let rehomed = waves[1]
            .iter()
            .find(|(_, ops)| ops.contains(&Opcode::PageOut));
        let taker = rehomed.expect("a re-home store").0;
        let freed = waves[1].iter().find(|(_, ops)| ops.contains(&Opcode::Free));
        assert_eq!(freed.expect("a free").0, refusing, "{:?}", waves[1]);
        // The row: every holder but the one that refused, and the taker.
        let mut named = vec![0; n];
        for &s in holders.iter().skip(1) {
            named[s as usize] += 1;
        }
        named[taker.0 as usize] += 1;
        let stored: Vec<usize> = servers.iter().map(InProcessServer::stored_pages).collect();
        assert_eq!(stored, named, "{n} servers");
        let widths: &[usize] = if width == 2 { &[1] } else { &[4] };
        let (read, _) = in_waves(&wire, widths, || pager.page_in(PageId(7)));
        assert_eq!(read.expect("pagein"), page);
    }
}

#[test]
fn parity_logging_degraded_read_and_group_rebuild_gather_at_once() {
    let (wire, _servers, pager) = plog_pager();
    for i in 0..3u64 {
        let widths: &[usize] = if i == 2 { &[2] } else { &[1] };
        let (done, _) = in_waves(&wire, widths, || {
            landed(&pager, PageId(i), &Page::deterministic(i))
        });
        done.expect("pageout");
    }
    // Page 0 sits on server 0; without it the read solves the group's
    // equation from the two other members and the parity page.
    pager.note_crash(ServerId(0));
    let (read, waves) = in_waves(&wire, &[3], || pager.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
    assert_eq!(shape(&waves[0]), (vec![1, 2, 3], vec![Opcode::PageIn; 3]));
    // The rebuild fetches the same three pieces at once, then re-logs the
    // group's members — a re-log stores first, a frame a member, and
    // seals after, for it holds the only copy of an acked version: with
    // two data servers left, two pageouts to a group, each seal a wave of
    // its parity page — the second with the frees of the old group's
    // surviving storage (two members and the parity page).
    let widths = [3, 1, 1, 1, 1, 4];
    let (report, waves) = in_waves(&wire, &widths, || pager.recover_from_crash(ServerId(0)));
    assert_eq!(report.expect("recovery")[0].pages_rebuilt, 1);
    assert_eq!(shape(&waves[0]).1, vec![Opcode::PageIn; 3]);
    for i in 0..3u64 {
        let (read, _) = in_waves(&wire, &[1], || pager.page_in(PageId(i)));
        assert_eq!(read.expect("read"), Page::deterministic(i));
    }
}

#[test]
fn basic_parity_degraded_read_gathers_the_stripe_at_once() {
    let config = PagerConfig::new(Policy::BasicParity).with_servers(3);
    let (wire, _servers, pager) = wave_pager(config, 4);
    for i in 0..3u64 {
        let (done, _) = in_waves(&wire, &[], || {
            landed(&pager, PageId(i), &Page::deterministic(i))
        });
        done.expect("a delta and its fold are two calls");
    }
    // Page 0 sits on server 0. Basic parity rebuilds in place, so the
    // pager leaves the verdict to the test.
    pager.with_shard(0, |p| p.pool_mut().declare_dead(ServerId(0), "test"));
    let (read, waves) = in_waves(&wire, &[3], || pager.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
    assert_eq!(shape(&waves[0]), (vec![1, 2, 3], vec![Opcode::PageIn; 3]));
}

/// Basic parity over data servers 0 and 1 and parity server 2, rebuilt
/// in chunks of sixteen: 48 pages, 24 to a data server, and server 0
/// back from a reboot with nothing.
fn bparity_rebooted() -> (Arc<Wire>, Vec<InProcessServer>, ShardedPager) {
    assert_eq!(CHUNK_PAGES, 16, "the waves below are sized to it");
    let config = PagerConfig::new(Policy::BasicParity).with_servers(2);
    let (wire, servers, pager) = wave_pager(config, 3);
    for i in 0..48u64 {
        let (done, _) = in_waves(&wire, &[], || {
            landed(&pager, PageId(i), &Page::deterministic(i))
        });
        done.expect("a delta and its fold are two calls");
    }
    servers[0].crash();
    servers[0].restart();
    wire.calls();
    (wire, servers, pager)
}

fn reads_back(wire: &Wire, pager: &ShardedPager, pages: u64) {
    for i in 0..pages {
        let (read, _) = in_waves(wire, &[1], || pager.page_in(PageId(i)));
        assert_eq!(read.expect("read"), Page::deterministic(i), "pg{i}");
    }
}

#[test]
fn basic_parity_rebuilds_a_chunk_in_two_waves() {
    let (wire, servers, pager) = bparity_rebooted();
    // 24 lost pages, chunks of sixteen: a gather of every piece of the
    // chunk's stripes (a surviving member and the parity page each) and
    // a wave of its stores — four round trips, where a page at a time is
    // 48.
    let widths = [32, 16, 16, 8];
    let (report, waves) = in_waves(&wire, &widths, || pager.recover_from_crash(ServerId(0)));
    let report = report.expect("rebuild")[0];
    assert_eq!((report.pages_rebuilt, report.transfers), (24, 72));
    assert_eq!(shape(&waves[0]), (vec![1, 2], vec![Opcode::PageIn; 32]));
    assert_eq!(shape(&waves[1]), (vec![0], vec![Opcode::PageOut; 16]));
    assert_eq!(shape(&waves[2]), (vec![1, 2], vec![Opcode::PageIn; 16]));
    assert_eq!(shape(&waves[3]), (vec![0], vec![Opcode::PageOut; 8]));
    // Outside them: asking the server what it lost, and a refill once the
    // first chunk has spent its grants below half.
    assert_eq!(
        wire.calls(),
        [
            (ServerId(0), Opcode::ListPages),
            (ServerId(0), Opcode::Alloc)
        ]
    );
    assert_eq!(servers[0].stored_pages(), 24);
    // The synchronous drain is booked like a maintenance tick's.
    assert_eq!(pager.stats().recovery_steps, 1);
    assert_eq!(counted(&pager, "pager_recoveries_completed_total"), 1);
    reads_back(&wire, &pager, 48);
}

#[test]
fn a_store_refused_in_mid_rebuild_keeps_the_rest_queued_and_leaks_no_grant() {
    let (wire, servers, pager) = bparity_rebooted();
    let before = granted(&pager, ServerId(0));
    wire.state().granted.clear();
    // Frames server 0 granted since `before` was read.
    let refilled = || -> u32 {
        let st = wire.state();
        (st.granted.iter())
            .filter(|(s, _)| *s == ServerId(0))
            .map(|(_, n)| n)
            .sum()
    };
    // The first chunk lands; of the second chunk's eight stores the
    // first is refused and the rest are taken.
    let stopped = std::thread::scope(|scope| {
        let rebuild = scope.spawn(|| pager.recover_from_crash(ServerId(0)));
        wire.release_wave(32);
        // The first chunk's stores are served when they are submitted:
        // from here on the next one is the second chunk's first.
        wire.wait_for(16).refuse_store.push(ServerId(0));
        for width in [16, 16, 8] {
            wire.release_wave(width);
        }
        rebuild.join().expect("operation thread")
    });
    assert!(
        matches!(stopped, Err(rmp_types::RmpError::NoSpace(ServerId(0)))),
        "{stopped:?}"
    );
    // The refused page and the seven behind it are still queued, in that
    // order, and hold no grant: those that landed will be shipped again,
    // into the frames they have.
    assert_eq!(pager.recovery_backlog(), 1);
    assert_eq!(servers[0].stored_pages(), 23);
    assert_eq!(granted(&pager, ServerId(0)), before + refilled() - 16);
    // Running it again rebuilds those eight and nothing else. (The
    // report is the plan's, over both goes, but a step that fails
    // reports nothing of what it had rebuilt by then.)
    let (report, waves) = in_waves(&wire, &[16, 8], || pager.recover_from_crash(ServerId(0)));
    assert_eq!(report.expect("the rest")[0].pages_rebuilt, 8);
    assert_eq!(shape(&waves[1]), (vec![0], vec![Opcode::PageOut; 8]));
    assert_eq!(pager.recovery_backlog(), 0);
    // What the pool spent of its grants is what the server stores.
    let spent = before + refilled() - granted(&pager, ServerId(0));
    assert_eq!(spent as usize, servers[0].stored_pages());
    // Outside the waves: asking what the server lost, and one refill —
    // the first chunk spent its grants below half — and no allocation
    // for what is shipped again.
    assert_eq!(
        wire.calls(),
        [
            (ServerId(0), Opcode::ListPages),
            (ServerId(0), Opcode::Alloc)
        ]
    );
    reads_back(&wire, &pager, 48);
}

#[test]
fn a_holder_lost_in_mid_rebuild_stops_it_where_it_is() {
    let (wire, servers, pager) = bparity_rebooted();
    // Server 1 — a member of every stripe — dies under the second
    // chunk's gather. The first chunk is rebuilt; the stripes of the
    // second have lost two pieces, which basic parity cannot mend.
    let stopped = std::thread::scope(|scope| {
        let rebuild = scope.spawn(|| pager.recover_from_crash(ServerId(0)));
        wire.release_wave(32);
        wire.release_wave(16);
        wire.state().dying.push(ServerId(1));
        wire.release_wave(16);
        rebuild.join().expect("operation thread")
    });
    assert!(
        matches!(stopped, Err(rmp_types::RmpError::Unrecoverable(_))),
        "{stopped:?}"
    );
    assert!(
        wire.state().flying.is_empty(),
        "no store wave for the chunk"
    );
    assert_eq!(servers[0].stored_pages(), 16);
    // It was the connection, not the machine: once it is back the
    // rebuild, planned afresh, rebuilds the eight pages server 0 still
    // lacks — a gather of their sixteen pieces and a wave of eight
    // stores — and every page is intact.
    wire.state().dead.clear();
    pager.with_shard(0, |p| p.pool_mut().absolve(ServerId(1)));
    let (report, _) = in_waves(&wire, &[16, 8], || pager.recover_from_crash(ServerId(0)));
    assert_eq!(report.expect("rebuild")[0].pages_rebuilt, 8);
    assert_eq!(servers[0].stored_pages(), 24);
    reads_back(&wire, &pager, 48);
}

#[test]
fn mirroring_gathers_a_chunk_of_lost_pages_at_once() {
    let (wire, servers, pager) = wave_pager(PagerConfig::new(Policy::Mirroring), 3);
    for i in 0..36u64 {
        let (done, _) = in_waves(&wire, &[2], || {
            landed(&pager, PageId(i), &Page::deterministic(i))
        });
        done.expect("both copies in one wave");
    }
    // Copies go round the cluster in pairs — (0, 1), (2, 0), (1, 2), … —
    // so 24 of the 36 pages have one on server 0.
    servers[0].crash();
    wire.state().dead.push(ServerId(0));
    pager.note_crash(ServerId(0));
    // Chunks of sixteen: one gather a chunk, every read a plain frame;
    // each page then finds its new holder by the walk, a frame of its own.
    let widths = [&[16][..], &[1; 16], &[8], &[1; 8]].concat();
    let (report, waves) = in_waves(&wire, &widths, || pager.recover_from_crash(ServerId(0)));
    assert_eq!(report.expect("rebuild")[0].pages_rebuilt, 24);
    assert_eq!(shape(&waves[0]).1, vec![Opcode::PageIn; 16]);
    assert_eq!(shape(&waves[17]).1, vec![Opcode::PageIn; 8]);
    let stores = waves.iter().filter(|w| shape(w).1 == [Opcode::PageOut]);
    assert_eq!(stores.count(), 24);
    for i in 0..36u64 {
        let (read, _) = in_waves(&wire, &[1], || pager.page_in(PageId(i)));
        assert_eq!(read.expect("read"), Page::deterministic(i), "pg{i}");
    }
}

#[test]
fn a_stripe_migration_gathers_a_chunk_of_leaving_units_at_once() {
    let config = PagerConfig::new(Policy::NoReliability);
    let (wire, servers, pager) = wave_pager(config, 3);
    for i in 0..72u64 {
        let (done, _) = in_waves(&wire, &[1], || {
            landed(&pager, PageId(i), &Page::deterministic(i))
        });
        done.expect("a lone copy is one frame");
    }
    assert_eq!(servers[0].stored_pages(), 24);
    // 24 pages leave server 0 in chunks of sixteen: one gather a chunk,
    // every read a plain frame; each page then finds its new holder by
    // the walk and frees its old unit, a frame each.
    let widths = [&[16][..], &[1; 32], &[8], &[1; 16]].concat();
    let (moved, waves) = in_waves(&wire, &widths, || {
        pager.with_shard(0, |p| p.migrate_from(ServerId(0)))
    });
    assert_eq!(moved.expect("migration"), 24);
    assert_eq!(shape(&waves[0]), (vec![0], vec![Opcode::PageIn; 16]));
    assert_eq!(shape(&waves[33]), (vec![0], vec![Opcode::PageIn; 8]));
    for moved in waves[1..33].chunks(2).chain(waves[34..].chunks(2)) {
        assert_eq!(shape(&moved[0]).1, [Opcode::PageOut], "{waves:?}");
        assert_eq!(shape(&moved[1]), (vec![0], vec![Opcode::Free]));
    }
    assert_eq!(servers[0].stored_pages(), 0);
    reads_back(&wire, &pager, 72);
}

#[test]
fn the_parity_log_clean_up_gathers_a_chunk_of_survivors_at_once() {
    let config = PagerConfig::new(Policy::ParityLogging).with_servers(3);
    let (wire, _servers, pager) = wave_pager(config, 4);
    // 25 groups of one page that stays and two that the next group
    // rewrites: when the last seals, the first 24 are a third active.
    for group in 0..25u64 {
        for (at, id) in [group, 100, 101].into_iter().enumerate() {
            let widths: &[usize] = if at == 2 { &[2] } else { &[1] };
            let (done, _) = in_waves(&wire, widths, || {
                landed(&pager, PageId(id), &Page::deterministic(id + group))
            });
            done.expect("pageout");
        }
    }
    // Server 0 is out of memory: it refuses the store, and the clean-up
    // re-logs the 24 survivors, all on server 0, in chunks of sixteen. A
    // chunk is one gather, every read a plain frame; a re-log stores a
    // frame a page and seals by a wave of the parity page and the frees
    // of the three groups it emptied. Fresh load reports follow, and the
    // store is offered again.
    assert_eq!(CHUNK_PAGES, 16, "the waves below are sized to it");
    wire.state().refuse_store.push(ServerId(0));
    let sealed = [1, 1, 1, 13];
    let widths = [
        &[1, 16][..],
        &sealed.repeat(5),
        &[1, 8, 1, 1, 13],
        &sealed.repeat(2),
        &[4, 1],
    ]
    .concat();
    let (done, waves) = in_waves(&wire, &widths, || {
        landed(&pager, PageId(200), &Page::deterministic(200))
    });
    done.expect("the clean-up made room");
    assert_eq!(pager.stats().gc_passes, 1);
    assert_eq!(shape(&waves[1]), (vec![0], vec![Opcode::PageIn; 16]));
    assert_eq!(shape(&waves[23]), (vec![0], vec![Opcode::PageIn; 8]));
    let mut alone = waves.iter().filter(|w| w.len() == 1 && w[0].1.len() == 1);
    assert!(alone.all(|w| w[0].1 == [Opcode::PageOut]), "{waves:?}");
    for group in 0..24u64 {
        let (read, _) = in_waves(&wire, &[1], || pager.page_in(PageId(group)));
        assert_eq!(read.expect("read"), Page::deterministic(2 * group));
    }
}

#[test]
fn a_refused_leg_is_replaced_alone() {
    // Six servers for a five-unit stripe: one spare.
    let (wire, servers, pager) = wave_pager(ec_config(), 6);
    wire.state().refuse_store.push(ServerId(2));
    let page = Page::deterministic(9);
    let (done, waves) = in_waves(&wire, &[5, 1], || landed(&pager, PageId(9), &page));
    done.expect("the refused unit finds the spare");
    // The four units that landed stayed where they were; the fifth went,
    // by one frame of the walk, to the one server holding none.
    let stored: Vec<usize> = servers.iter().map(InProcessServer::stored_pages).collect();
    assert_eq!(stored, [1, 1, 0, 1, 1, 1]);
    assert_eq!(shape(&waves[1]), (vec![5], vec![Opcode::PageOut]));
    // The grant reserved on the refusing server went back to the pool.
    assert_eq!(
        granted(&pager, ServerId(2)),
        granted(&pager, ServerId(0)) + 1
    );
    let (read, _) = in_waves(&wire, &[4], || pager.page_in(PageId(9)));
    assert_eq!(read.expect("pagein"), page);
}

#[test]
fn a_leg_whose_server_dies_walks_the_ladder_once() {
    let (wire, servers, pager) = wave_pager(ec_config(), 6);
    // Server 1 takes its frame and dies before answering.
    wire.state().dying.push(ServerId(1));
    let page = Page::deterministic(4);
    let (done, waves) = in_waves(&wire, &[5, 1], || landed(&pager, PageId(4), &page));
    done.expect("the lost unit finds the spare");
    servers[1].crash();

    // The ladder ran once, for that leg alone: two redials and two more
    // attempts use up the three-attempt budget, then the server is dead.
    assert_eq!(wire.state().redials, [ServerId(1), ServerId(1)]);
    assert_eq!(counted(&pager, "pool_retries_total"), 2);
    assert_eq!(counted(&pager, "pool_deaths_total"), 1);
    assert!(!pager.with_shard(0, |p| p.pool().alive(ServerId(1))));
    // The four replies that did come were kept — no frame was sent twice
    // — and the lost unit went to the spare by one frame of the walk.
    let stored: Vec<usize> = servers.iter().map(InProcessServer::stored_pages).collect();
    assert_eq!(stored, [1, 0, 1, 1, 1, 1]);
    assert_eq!(shape(&waves[1]), (vec![5], vec![Opcode::PageOut]));
    for id in [0, 2, 3, 4, 5] {
        let suspicion = pager.with_shard(0, |p| p.pool().suspicion(ServerId(id)));
        assert_eq!(suspicion, 0.0, "srv{id} shared none of the dead leg's fate");
    }
    let (read, _) = in_waves(&wire, &[4], || pager.page_in(PageId(4)));
    assert_eq!(read.expect("pagein"), page);
}

#[test]
fn a_fast_leg_collected_behind_a_slow_one_keeps_its_own_time() {
    let (wire, _servers, mut pool) = wave_pool(3);
    let metrics = Arc::new(rmp_types::metrics::MetricsRegistry::new());
    pool.set_metrics(Arc::clone(&metrics));
    // Times as the transport stamps them, on the wall clock.
    pool.set_clock(Clock::Real);
    // Server 0 — the leg the gather waits on first — answers `held`
    // after the two others have.
    let held = Duration::from_millis(100);
    std::thread::scope(|scope| {
        let legs = (0..3).map(|id| (ServerId(id), Message::LoadQuery));
        let worker = scope.spawn(|| pool.scatter(legs.collect()));
        let mut flights = std::mem::take(&mut wire.wait_for(3).flying);
        flights.sort_by_key(|f| std::cmp::Reverse(f.server));
        for flight in flights {
            if flight.server == ServerId(0) {
                std::thread::sleep(held);
            }
            flight.completion.complete(Ok(flight.replies));
        }
        let replies = worker.join().expect("operation thread");
        assert!(replies.iter().all(Result::is_ok), "{replies:?}");
    });
    // Servers 1 and 2 had answered before the sleep began and server 0
    // answered after it ended, so — whatever the machine's load — their
    // samples differ by the sleep, unless a reply is timed when it is
    // collected rather than when it arrived.
    let sampled_us = |id: u32| {
        let name = format!("pool_call_latency_us{{srv{id}}}");
        metrics.histogram(&name).snapshot().max_us
    };
    let held_us = held.as_micros() as u64;
    for fast in [1, 2] {
        assert!(
            sampled_us(fast) + held_us <= sampled_us(0) + 1,
            "srv{fast} sampled {} us against srv0's {} us",
            sampled_us(fast),
            sampled_us(0)
        );
    }
}
