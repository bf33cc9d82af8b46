//! Direct timed calls into the public kernels the data path is built
//! from, with the same fast-round estimate as everything else: a kernel
//! number explains a `cpu_us_per_op` move, it does not replace one.

use std::hint::black_box;
use std::time::Instant;

use rmp_parity::rs::split_page;
use rmp_parity::xor::xor_reduce;
use rmp_parity::RsCode;
use rmp_proto::{FrameHeader, Message};
use rmp_server::PageStore;
use rmp_types::{Page, StoreKey, PAGE_SIZE};

use crate::est::fast;

const ROUNDS: usize = 200;
const CALLS_PER_ROUND: usize = 32;
/// Entries in the store the insert/get kernels run against: one
/// server's share of the largest preload.
const STORE_PAGES: u64 = 2048;

/// Fast-round time of one call of `f`, ns.
fn ns_per_call(mut f: impl FnMut(usize)) -> f64 {
    let rounds = (0..ROUNDS)
        .map(|round| {
            let start = Instant::now();
            for call in 0..CALLS_PER_ROUND {
                f(round * CALLS_PER_ROUND + call);
            }
            start.elapsed().as_nanos() as f64 / CALLS_PER_ROUND as f64
        })
        .collect();
    fast(rounds)
}

fn gbps(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns
}

pub struct Kernels {
    pub xor_gbps: f64,
    pub rs_encode_gbps: f64,
    pub rs_decode_gbps: f64,
    pub checksum_gbps: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub store_insert_ns: f64,
    pub store_get_ns: f64,
}

pub fn run() -> Kernels {
    let pages: Vec<Page> = (0..4).map(Page::deterministic).collect();
    let page = &pages[0];

    // Parity of a four-page stripe: 4 × 8 KiB folded per call.
    let xor = ns_per_call(|_| {
        black_box(xor_reduce(black_box(&pages)));
    });

    let code = RsCode::new(4, 1).expect("(4, 1) is a valid geometry");
    let splits = split_page(page, 4);
    let rs_encode = ns_per_call(|_| {
        black_box(code.encode(black_box(&splits)).expect("encode"));
    });
    let parity = code.encode(&splits).expect("encode");
    let rs_decode = ns_per_call(|_| {
        // One data split lost, rebuilt from the three others and parity.
        let mut shards: Vec<Option<Vec<u8>>> =
            splits.iter().chain(&parity).cloned().map(Some).collect();
        shards[1] = None;
        code.reconstruct(black_box(&mut shards))
            .expect("reconstruct");
        black_box(shards);
    });

    let checksum = ns_per_call(|_| {
        black_box(black_box(page).checksum());
    });

    let frame = Message::PageOut {
        id: StoreKey(7),
        checksum: page.checksum(),
        page: page.clone(),
    };
    let encode = ns_per_call(|_| {
        black_box(black_box(&frame).encode());
    });
    let wire = frame.encode();
    let decode = ns_per_call(|_| {
        let mut buf = wire.clone();
        let header = FrameHeader::decode(&mut buf).expect("header");
        black_box(Message::decode(header.opcode, buf).expect("payload"));
    });

    let mut store = PageStore::new(STORE_PAGES as usize, 0.10);
    for key in 0..STORE_PAGES {
        store.insert(StoreKey(key), page.clone());
    }
    // A multiplicative walk visits keys in scattered order, as a
    // random-access client does.
    let key = |i: usize| StoreKey((i as u64).wrapping_mul(0x9E37_79B9) % STORE_PAGES);
    let store_insert = ns_per_call(|i| {
        black_box(store.insert(key(i), pages[i % 4].clone()));
    });
    let store_get = ns_per_call(|i| {
        black_box(store.get(key(i)));
    });

    Kernels {
        xor_gbps: gbps(4 * PAGE_SIZE, xor),
        rs_encode_gbps: gbps(PAGE_SIZE, rs_encode),
        rs_decode_gbps: gbps(PAGE_SIZE, rs_decode),
        checksum_gbps: gbps(PAGE_SIZE, checksum),
        encode_ns: encode,
        decode_ns: decode,
        store_insert_ns: store_insert,
        store_get_ns: store_get,
    }
}
