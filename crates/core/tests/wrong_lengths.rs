//! A read answered at the wrong length is a typed error, never a panic
//! and never a page handed back: an erasure-coded unit's key answered with
//! a whole page — on the demand read, and on the degraded read around a
//! holder that is down — and a whole page's key answered with a unit,
//! checked before any checksum is. Over the scripted wire of
//! `support`, whose `bent_reads` answer a server's reads at a length of
//! the test's choosing, under a checksum that matches.

mod support;

use rmp_types::{Page, PageId, PagerConfig, Policy, RmpError, ServerId, PAGE_SIZE};

use support::*;

#[test]
fn a_unit_answered_with_a_page_fails_typed() {
    let config = PagerConfig::new(Policy::ErasureCoded).with_ec_splits(4, 1);
    let (wire, _servers, pager) = wave_pager(config, 5);
    let page = Page::deterministic(1);
    let (done, _) = in_waves(&wire, &[5], || landed(&pager, PageId(1), &page));
    done.expect("pageout");
    // A clean read reaches the four data holders; the fifth has parity.
    let (read, waves) = in_waves(&wire, &[4], || pager.page_in(PageId(1)));
    assert_eq!(read.expect("a clean read"), page);
    let data = shape(&waves[0]).0;
    let parity = ServerId((0..5).find(|s| !data.contains(s)).expect("parity"));

    // The demand read: one data unit comes back a whole page long.
    wire.state().bent_reads = vec![(ServerId(data[0]), PAGE_SIZE)];
    let (read, _) = in_waves(&wire, &[4], || pager.page_in(PageId(1)));
    assert!(matches!(read, Err(RmpError::Protocol(_))), "{read:?}");

    // The degraded read: a data holder is down, and the parity unit that
    // stands in for its unit comes back a whole page long. The holder is
    // not yet held dead, so the read walks its ladder to the verdict, and
    // then goes around it again.
    wire.state().bent_reads = vec![(parity, PAGE_SIZE)];
    wire.state().dead.push(ServerId(data[0]));
    let (read, _) = in_waves(&wire, &[3, 4, 3, 4], || pager.page_in(PageId(1)));
    assert!(matches!(read, Err(RmpError::Protocol(_))), "{read:?}");
    assert_eq!(pager.stats().degraded_reads, 0);

    // Answered at its length again, the same read goes around the holder.
    wire.state().bent_reads.clear();
    let (read, _) = in_waves(&wire, &[4], || pager.page_in(PageId(1)));
    assert_eq!(read.expect("a degraded read"), page);
    assert_eq!(pager.stats().degraded_reads, 1);
}

#[test]
fn a_page_answered_with_a_unit_fails_typed() {
    let config = PagerConfig::new(Policy::NoReliability).with_servers(1);
    let (wire, _servers, pager) = wave_pager(config, 1);
    let page = Page::deterministic(2);
    let (done, _) = in_waves(&wire, &[1], || landed(&pager, PageId(2), &page));
    done.expect("pageout");
    wire.state().bent_reads = vec![(ServerId(0), PAGE_SIZE / 4)];
    let (read, _) = in_waves(&wire, &[1], || pager.page_in(PageId(2)));
    assert!(matches!(read, Err(RmpError::Protocol(_))), "{read:?}");
    wire.state().bent_reads.clear();
    let (read, _) = in_waves(&wire, &[1], || pager.page_in(PageId(2)));
    assert_eq!(read.expect("answered whole"), page);
}

#[test]
fn a_pageout_takes_a_whole_page() {
    let (wire, _servers, pager) = wave_pager(PagerConfig::new(Policy::NoReliability), 2);
    let unit = Page::unit(&[9; PAGE_SIZE / 4]).expect("unit");
    let (done, _) = in_waves(&wire, &[], || landed(&pager, PageId(3), &unit));
    assert!(matches!(done, Err(RmpError::Unsupported(_))), "{done:?}");
    assert!(wire.calls().is_empty(), "nothing went on the wire");
}
