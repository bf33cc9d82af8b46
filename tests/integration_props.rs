//! Property-based tests over the core invariants.

use proptest::prelude::*;
use rmp::parity::group::GroupMember;
use rmp::parity::xor::{reconstruct, xor_reduce};
use rmp::parity::{GroupTable, ParityBuffer};
use rmp::prelude::*;
use rmp::proto::{Framed, Message};
use rmp::types::{GroupId, StoreKey};

fn arb_page() -> impl Strategy<Value = Page> {
    any::<u64>().prop_map(Page::deterministic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// XOR parity recovers any single erased member, for any group size
    /// and any contents.
    #[test]
    fn parity_recovers_any_single_erasure(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        lost_idx in any::<prop::sample::Index>(),
    ) {
        let pages: Vec<Page> = seeds.iter().map(|&s| Page::deterministic(s)).collect();
        let parity = xor_reduce(pages.iter());
        let lost = lost_idx.index(pages.len());
        let survivors: Vec<&Page> = pages
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != lost)
            .map(|(_, p)| p)
            .collect();
        let rebuilt = reconstruct(&parity, survivors.into_iter());
        prop_assert_eq!(rebuilt, pages[lost].clone());
    }

    /// Page XOR is an abelian group operation: associative, commutative,
    /// self-inverse, zero identity.
    #[test]
    fn page_xor_group_laws(a in arb_page(), b in arb_page(), c in arb_page()) {
        // Commutative.
        let mut ab = a.clone();
        ab.xor_with(&b);
        let mut ba = b.clone();
        ba.xor_with(&a);
        prop_assert_eq!(&ab, &ba);
        // Associative.
        let mut ab_c = ab.clone();
        ab_c.xor_with(&c);
        let mut bc = b.clone();
        bc.xor_with(&c);
        let mut a_bc = a.clone();
        a_bc.xor_with(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Identity and inverse.
        let mut az = a.clone();
        az.xor_with(&Page::zeroed());
        prop_assert_eq!(&az, &a);
        let mut aa = a.clone();
        aa.xor_with(&a);
        prop_assert!(aa.is_zero());
    }

    /// Every protocol message survives an encode/decode round trip.
    #[test]
    fn protocol_round_trips(
        key in any::<u64>(),
        seed in any::<u64>(),
        pages in any::<u32>(),
        granted in any::<u32>(),
    ) {
        use std::io::Cursor;
        let messages = vec![
            Message::Alloc { pages },
            Message::AllocReply { granted, hint: rmp::proto::LoadHint::Ok },
            Message::PageOut {
                id: StoreKey(key),
                checksum: Page::deterministic(seed).checksum(),
                page: Page::deterministic(seed),
            },
            Message::PageIn { id: StoreKey(key) },
            Message::PageInReply {
                id: StoreKey(key),
                checksum: Page::deterministic(seed).checksum(),
                page: Page::deterministic(seed),
            },
            Message::Free { id: StoreKey(key) },
            Message::XorInto { id: StoreKey(key), page: Page::deterministic(seed) },
        ];
        let mut bytes = Vec::new();
        for m in &messages {
            bytes.extend_from_slice(&m.encode());
        }
        let mut framed = Framed::new(Cursor::new(bytes));
        for m in &messages {
            prop_assert_eq!(&framed.recv().unwrap(), m);
        }
    }

    /// The group table's invariants hold under arbitrary interleavings of
    /// registration and page drops: active counts never exceed member
    /// counts, reclaimed groups vanish, and `location_of` always points
    /// at an active member of a live group.
    #[test]
    fn group_table_invariants(ops in prop::collection::vec((0u8..3, any::<u8>()), 1..60)) {
        let mut table = GroupTable::new();
        let mut next_key = 0u64;
        let mut pending: Vec<GroupMember> = Vec::new();
        for (op, arg) in ops {
            match op {
                // Absorb a pageout of page (arg % 16) into the pending group.
                0 => {
                    let page = PageId(u64::from(arg % 16));
                    next_key += 1;
                    pending.push(GroupMember {
                        page_id: page,
                        key: StoreKey(next_key),
                        server: ServerId(u32::from(arg % 4)),
                        active: true,
                    });
                }
                // Seal the pending group.
                1 => {
                    if !pending.is_empty() {
                        next_key += 1;
                        let members = std::mem::take(&mut pending);
                        table.register(members, ServerId(9), StoreKey(next_key));
                    }
                }
                // Drop a page outright.
                _ => {
                    table.drop_page(PageId(u64::from(arg % 16)));
                }
            }
            // Invariants.
            for (gid, state) in table.iter() {
                prop_assert!(state.active_members() <= state.members.len());
                prop_assert!(state.active_members() > 0, "group {gid} should have been reclaimed");
            }
            prop_assert!(table.active_versions() <= table.stored_versions());
            for page in (0..16).map(PageId) {
                if let Some(loc) = table.location_of(page) {
                    let group = table.group(loc.group);
                    prop_assert!(group.is_some());
                    let member = &group.unwrap().members[loc.slot];
                    prop_assert!(member.active);
                    prop_assert_eq!(member.page_id, page);
                }
            }
        }
    }

    /// The parity buffer's accumulator always equals the XOR of its
    /// pending members' pages.
    #[test]
    fn parity_buffer_accumulator_invariant(
        seeds in prop::collection::vec(any::<u64>(), 1..10),
        group_size in 2usize..6,
    ) {
        let mut buf = ParityBuffer::new(group_size);
        let mut pending: Vec<Page> = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let page = Page::deterministic(seed);
            let sealed = buf.absorb(
                PageId(i as u64),
                StoreKey(i as u64),
                ServerId((i % 4) as u32),
                &page,
            );
            if let Some(sealed) = sealed {
                let mut expect = Page::zeroed();
                for p in pending.drain(..) {
                    expect.xor_with(&p);
                }
                expect.xor_with(&page);
                prop_assert_eq!(sealed.parity, expect);
            } else {
                pending.push(page);
                let mut expect = Page::zeroed();
                for p in &pending {
                    expect.xor_with(p);
                }
                prop_assert_eq!(buf.accumulated(), &expect);
            }
        }
    }

    /// A pager under any random operation sequence behaves exactly like an
    /// in-memory reference map (sequential consistency of the swap space).
    #[test]
    fn pager_matches_reference_model(ops in prop::collection::vec((0u8..3, 0u64..24, any::<u64>()), 1..40)) {
        let cluster = LocalCluster::spawn(5, 4096).unwrap();
        let pager = cluster
            .pager(PagerConfig::new(Policy::ParityLogging).with_servers(4).with_shard_count(1))
            .unwrap();
        let mut reference: std::collections::HashMap<PageId, Page> =
            std::collections::HashMap::new();
        for (op, id, seed) in ops {
            let id = PageId(id);
            match op {
                0 => {
                    let page = Page::deterministic(seed);
                    pager.page_out(id, &page).unwrap();
                    reference.insert(id, page);
                }
                1 => {
                    match (pager.page_in(id), reference.get(&id)) {
                        (Ok(got), Some(expect)) => prop_assert_eq!(&got, expect),
                        (Err(RmpError::PageNotFound(_)), None) => {}
                        (got, expect) => prop_assert!(
                            false,
                            "divergence on {:?}: pager={:?} reference={:?}",
                            id, got.map(|_| "page"), expect.map(|_| "page")
                        ),
                    }
                }
                _ => {
                    pager.free(id).unwrap();
                    reference.remove(&id);
                }
            }
            prop_assert_eq!(pager.contains(id), reference.contains_key(&id));
        }
    }
}

/// A paged memory's evictions write behind: over a sharded pager each
/// rewrite returns with its frames on the wire and lands later, a fault
/// reads back what it wrote all the same, and `sync` leaves no pageout in
/// flight.
#[test]
fn write_behind_device_works_under_a_real_access_pattern() {
    let cluster = LocalCluster::spawn(2, 1024).expect("cluster");
    let config = PagerConfig::new(Policy::Mirroring).with_shard_count(2);
    let pager = rmp::core::ShardedPager::connect(config, cluster.registry()).expect("pager");
    let mut vm = PagedMemory::new(pager, VmConfig::with_frames(4));
    // A write-heavy pattern: fill 64 pages through 4 frames, then again —
    // every eviction of the second pass a rewrite that writes behind.
    for pass in 0..2u8 {
        for i in 0..64u64 {
            vm.write(PageId(i), |p| p.as_mut()[0] = i as u8 + pass)
                .unwrap();
        }
    }
    for i in 0..64u64 {
        let v = vm.read(PageId(i), |p| p.as_ref()[0]).unwrap();
        assert_eq!(v, i as u8 + 1);
    }
    vm.sync().unwrap();
    let booked = |shard| {
        let pageouts = |p: &mut rmp::core::Pager| p.metrics().counter("pager_pageouts_total").get();
        vm.device().with_shard(shard, pageouts)
    };
    assert_eq!(
        booked(0) + booked(1),
        vm.stats().pageouts,
        "sync left a pageout in flight"
    );
}

/// GroupId must be exposed for the invariant test to name groups.
#[allow(dead_code)]
fn _uses_group_id(_: GroupId) {}
