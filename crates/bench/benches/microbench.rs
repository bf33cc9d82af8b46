//! Criterion micro-benchmarks of the hot paths.
//!
//! One group per subsystem: XOR/parity arithmetic, the wire codec, the
//! server page store, the VM fault path, per-policy pageouts as their
//! caller waits for them on a real loopback cluster, and a CSMA/CD
//! simulation step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

use rmp::LocalCluster;
use rmp_blockdev::RamDisk;
use rmp_parity::xor::{reconstruct, xor_reduce};
use rmp_parity::ParityBuffer;
use rmp_proto::{FrameHeader, Message};
use rmp_server::PageStore;
use rmp_sim::{CsmaCd, EthernetConfig};
use rmp_types::{Page, PageId, PagerConfig, Policy, ServerId, StoreKey, PAGE_SIZE};
use rmp_vm::{PagedArray, PagedMemory, VmConfig};

fn bench_parity(c: &mut Criterion) {
    let mut g = c.benchmark_group("parity");
    g.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    let a = Page::deterministic(1);
    let b = Page::deterministic(2);
    g.bench_function("xor_page", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.xor_with(&b);
                x
            },
            BatchSize::SmallInput,
        )
    });
    let group: Vec<Page> = (0..4).map(Page::deterministic).collect();
    g.bench_function("xor_reduce_4", |bench| {
        bench.iter(|| xor_reduce(black_box(&group)))
    });
    let parity = xor_reduce(group.iter());
    g.bench_function("reconstruct_from_3_plus_parity", |bench| {
        bench.iter(|| reconstruct(black_box(&parity), black_box(&group[1..])))
    });
    g.bench_function("parity_buffer_absorb", |bench| {
        bench.iter_batched(
            || ParityBuffer::new(4),
            |mut buf| {
                for i in 0..4u64 {
                    black_box(buf.absorb(PageId(i), StoreKey(i), ServerId(i as u32), &a));
                }
                buf
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_proto(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto");
    let page = Page::deterministic(42);
    let msg = Message::PageOut {
        id: StoreKey(42),
        checksum: page.checksum(),
        page,
    };
    g.throughput(Throughput::Bytes(PAGE_SIZE as u64));
    g.bench_function("encode_pageout", |bench| {
        bench.iter(|| black_box(&msg).encode())
    });
    let bytes = msg.encode();
    g.bench_function("decode_pageout", |bench| {
        bench.iter(|| {
            let mut buf = bytes.clone();
            let hdr = FrameHeader::decode(&mut buf).expect("header");
            Message::decode(hdr.opcode, buf).expect("payload")
        })
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_store");
    g.bench_function("insert_get_remove", |bench| {
        let mut store = PageStore::new(1 << 20, 0.1);
        let page = Page::deterministic(7);
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            store.insert(StoreKey(i), page.clone());
            black_box(store.get(StoreKey(i)));
            store.remove(StoreKey(i));
        })
    });
    g.bench_function("replace_delta", |bench| {
        let mut store = PageStore::new(1 << 20, 0.1);
        let page = Page::deterministic(9);
        store.insert(StoreKey(1), page.clone());
        bench.iter(|| black_box(store.replace_delta(StoreKey(1), page.clone())))
    });
    g.finish();
}

fn bench_vm(c: &mut Criterion) {
    let mut g = c.benchmark_group("vm");
    // A resident access is nanoseconds: twenty iterations would time the
    // clock read.
    g.sample_size(200_000);
    g.bench_function("resident_hit", |bench| {
        let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(8));
        vm.write(PageId(0), |p| p.as_mut()[0] = 1).expect("warm");
        bench.iter(|| vm.read(PageId(0), |p| p.as_ref()[0]).expect("hit"))
    });
    // GAUSS's inner step: a load and a store of one `f64` in place.
    g.bench_function("resident_update", |bench| {
        let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(8));
        let row = PagedArray::<f64>::new(0, PagedArray::<f64>::PER_PAGE);
        row.set(&mut vm, 0, 1.0).expect("warm");
        let mut j = 0;
        bench.iter(|| {
            j = (j + 1) % row.len();
            row.update(&mut vm, j, |v| v - 0.5 * black_box(2.0))
                .expect("hit")
        })
    });
    g.bench_function("fault_evict_cycle", |bench| {
        let mut vm = PagedMemory::new(RamDisk::unbounded(), VmConfig::with_frames(2));
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            // Touch 3 pages cyclically over 2 frames: every access faults.
            vm.write(PageId(i % 3), |p| p.as_mut()[0] = i as u8)
                .expect("fault")
        })
    });
    g.finish();
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_pageout");
    g.sample_size(30);
    for policy in [
        Policy::NoReliability,
        Policy::Mirroring,
        Policy::BasicParity,
        Policy::ParityLogging,
    ] {
        let (servers, pool) = match policy {
            Policy::BasicParity | Policy::ParityLogging => (4, 5),
            _ => (2, 2),
        };
        let cluster = LocalCluster::spawn(pool, 1 << 16).expect("cluster");
        let config = PagerConfig::new(policy).with_servers(servers);
        let pager = cluster.pager(config.with_shard_count(1)).expect("pager");
        let page = Page::deterministic(3);
        let mut i = 0u64;
        g.bench_function(policy.label(), |bench| {
            bench.iter(|| {
                i += 1;
                pager.page_out(PageId(i % 4096), &page).expect("pageout")
            })
        });
    }
    g.finish();
}

fn bench_ethernet(c: &mut Criterion) {
    let mut g = c.benchmark_group("csma_cd");
    g.bench_function("10k_slots_at_50pct", |bench| {
        let mut sim = CsmaCd::new(EthernetConfig::default());
        bench.iter(|| black_box(sim.run(0.5, 10_000)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_parity,
    bench_proto,
    bench_store,
    bench_vm,
    bench_policies,
    bench_ethernet
);
criterion_main!(benches);
