//! A read that can be served around a failing holder does so at once: it
//! gets one attempt, and its failure puts the holder on the first rung of
//! the retry ladder — backing off, not dead, no rebuild queued. Only a
//! caller with no other way sleeps the backoff, and it goes on from the
//! rung the read left, so the walk to the verdict costs `max_attempts`
//! dials however its rungs were taken. A sibling shard hears of the rung
//! and reads around the holder without dialling it.
//!
//! Basic parity over the scripted wire of `support`, two shards: data
//! servers 0 and 1, parity server 2, and each shard's first page — 0 on
//! shard 0, 1 on shard 1 — on server 0. Every dial a dead server gets is
//! on the wire's record; nothing here compares a duration.

mod support;

use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use rmp_core::{Pager, ShardedPager};
use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId};

use support::*;

const HOLDER: ServerId = ServerId(0);

/// What shard `shard` makes of the holder: its standing, its rung's due
/// time if it has one, its queued rebuilds, and the retries and Suspect
/// transitions its pool counted.
fn seen(pager: &ShardedPager, shard: usize) -> (&'static str, bool, usize, u64, u64) {
    pager.with_shard(shard, |p: &mut Pager| {
        let counter = |name| p.metrics().counter(name).get();
        let pool = p.pool();
        (
            match (pool.alive(HOLDER), pool.suspected(HOLDER)) {
                (false, _) => "dead",
                (true, true) => "suspect",
                (true, false) => "healthy",
            },
            p.pool().backoff(HOLDER).is_some(),
            p.recovery_backlog(),
            counter("pool_retries_total"),
            counter("pool_suspect_transitions_total"),
        )
    })
}

/// Runs `op` on a thread of its own while the test thread answers the
/// one wave of `frames` it puts on `wire`.
fn answered<R: Send + 'static>(
    wire: &Wire,
    frames: usize,
    pager: &Arc<ShardedPager>,
    op: impl FnOnce(&ShardedPager) -> R + Send + 'static,
) -> R {
    let (done, result) = channel();
    let pager = Arc::clone(pager);
    std::thread::spawn(move || done.send(op(&pager)));
    wire.release_wave(frames);
    result.recv_timeout(STUCK).expect("the operation is stuck")
}

#[test]
fn a_read_goes_around_its_holder_and_a_pageout_takes_the_rungs_it_left() {
    let config = PagerConfig::new(Policy::BasicParity)
        .with_servers(2)
        .with_prefetch_window(0);
    let ([wire, odd], _servers, pager) = wave_shards(config, 3);
    // Every read below comes long before a rung is due.
    for shard in 0..2 {
        pager.with_shard(shard, |p| {
            let mut transport = p.pool().transport_config().clone();
            transport.retry.base_backoff = Duration::from_millis(200);
            transport.retry.max_backoff = Duration::from_millis(200);
            p.pool_mut().set_transport_config(transport);
        });
    }
    for id in 0..4 {
        (pager.page_out(PageId(id), &Page::deterministic(id))).expect("pageout");
    }
    // The same machine goes down under both shards' connections.
    for w in [&wire, &odd] {
        w.state().dead.push(HOLDER);
    }

    // Shard 0's read dials the holder once, and is served around it —
    // its stripe's other member and the parity page, in one wave — at
    // once: no retry, no redial, so no backoff slept.
    let read = answered(&wire, 2, &pager, |p| p.page_in(PageId(0)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(0));
    assert_eq!(wire.state().refused, [HOLDER], "one dial");
    assert!(wire.state().redials.is_empty());
    // The holder is Suspect, on its first rung: not dead, nothing queued.
    assert_eq!(seen(&pager, 0), ("suspect", true, 0, 0, 1));

    // Shard 1 was told of the rung: its own read of a page on the holder
    // goes around it without dialling it.
    assert_eq!(seen(&pager, 1), ("healthy", true, 0, 0, 0));
    let read = answered(&odd, 2, &pager, |p| p.page_in(PageId(1)));
    assert_eq!(read.expect("degraded read"), Page::deterministic(1));
    assert!(odd.state().refused.is_empty(), "shard 1 dialled the holder");
    assert_eq!(seen(&pager, 1), ("healthy", true, 0, 0, 0));
    assert_eq!(pager.stats().degraded_reads, 2);

    // A rewrite has no way around the holder. It waits for the second
    // rung, and goes on to the third: with the read's, `max_attempts`
    // dials in all. Basic parity rebuilds in place, so the pageout fails
    // on the verdict — and both shards queue the rebuild.
    let rewrite = pager.page_out(PageId(0), &Page::deterministic(0));
    assert!(rewrite.is_err(), "{rewrite:?}");
    assert_eq!(wire.state().refused, [HOLDER; 3], "rung 1 was the read's");
    assert_eq!(wire.state().redials, [HOLDER; 2]);
    assert_eq!(seen(&pager, 0), ("dead", false, 1, 2, 1));
    assert_eq!(seen(&pager, 1), ("dead", false, 1, 0, 0));
    assert!(odd.state().refused.is_empty(), "shard 1 dialled the holder");
}
