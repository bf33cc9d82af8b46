//! One server behind every test: a request script sent to a
//! `MemoryServer` over a socket, through the pool's `WindowedTransport`,
//! and to an in-process session of a server with the same configuration,
//! draws the same replies — allocation up to denial, a store that fails
//! its checksum, hits and misses, deltas, parity folds, frees, listings
//! and load reports at the edge of capacity.

use rmp_core::{ServerTransport, WindowedTransport};
use rmp_proto::{LoadHint, Message};
use rmp_server::{MemoryServer, ServerConfig};
use rmp_types::{ErrorCode, Page, Result, RmpError, StoreKey};

/// Eight grantable frames, ten storable ones.
fn config() -> ServerConfig {
    ServerConfig {
        capacity_pages: 8,
        overflow_fraction: 0.25,
        ..ServerConfig::default()
    }
}

fn page_out(id: u64, page: Page) -> Message {
    Message::PageOut {
        id: StoreKey(id),
        checksum: page.checksum(),
        page,
    }
}

fn script() -> Vec<Message> {
    let page = Page::deterministic;
    let (id, all) = (StoreKey, u32::MAX);
    let mut script = vec![
        Message::Alloc { pages: 5 },
        Message::Alloc { pages: 5 },
        Message::Alloc { pages: 1 },
        page_out(1, page(1)),
        Message::PageOut {
            id: id(2),
            checksum: page(2).checksum() ^ 1,
            page: page(2),
        },
        Message::PageIn { id: id(1) },
        Message::PageIn { id: id(2) },
        Message::PageOutDelta {
            id: id(3),
            checksum: page(3).checksum(),
            page: page(3),
        },
        Message::PageOutDelta {
            id: id(3),
            checksum: page(4).checksum(),
            page: page(4),
        },
        Message::XorInto {
            id: id(4),
            page: page(5),
        },
        Message::XorInto {
            id: id(4),
            page: page(6),
        },
        Message::PageIn { id: id(4) },
        Message::ListPages {
            start: id(0),
            limit: 2,
        },
        Message::Free { id: id(1) },
        Message::PageIn { id: id(1) },
        Message::ListPages {
            start: id(0),
            limit: all,
        },
        Message::LoadQuery,
    ];
    // Fill the store past its ten frames and take the last grant, then
    // free one frame.
    script.extend((10..19).map(|i| page_out(i, page(i))));
    script.push(Message::Alloc { pages: 1 });
    script.push(Message::LoadQuery);
    script.push(Message::Free { id: id(10) });
    script.push(Message::LoadQuery);
    script
}

/// A reply as a caller of a connection sees it: a typed `Error` reply is
/// an error, and the host's measured load is left out.
fn seen(reply: Result<Message>) -> String {
    let reply = reply.and_then(|reply| match reply {
        Message::Error { code, message } => Err(RmpError::Remote { code, message }),
        Message::LoadReport {
            free_pages,
            stored_pages,
            hint,
            ..
        } => Ok(Message::LoadReport {
            free_pages,
            stored_pages,
            cpu_permille: 0,
            hint,
        }),
        reply => Ok(reply),
    });
    format!("{reply:?}")
}

#[test]
fn a_socket_session_and_an_in_process_session_answer_alike() {
    let server = MemoryServer::spawn(config()).expect("spawn");
    let mut socket = WindowedTransport::connect(&server.addr().to_string()).expect("connect");
    let local = MemoryServer::in_process(config()).session();
    let script = script();
    let over_socket: Vec<String> = script.iter().map(|m| seen(socket.call(m))).collect();
    let in_process: Vec<String> = script
        .iter()
        .map(|m| seen(local.serve(m.clone())))
        .collect();
    for (i, (a, b)) in over_socket.iter().zip(&in_process).enumerate() {
        assert_eq!(a, b, "request {i}: {:?}", script[i].opcode());
    }

    // The script reaches the edges it is meant to.
    let replies = local_replay(&script);
    let granted = |i: usize| match &replies[i] {
        Ok(Message::AllocReply { granted, .. }) => *granted,
        other => panic!("request {i}: {other:?}"),
    };
    assert_eq!([granted(0), granted(1), granted(2)], [5, 3, 0]);
    let code = |i: usize| match &replies[i] {
        Ok(Message::Error { code, .. }) => *code,
        other => panic!("request {i}: {other:?}"),
    };
    assert_eq!(code(4), ErrorCode::Corrupt);
    assert_eq!(code(script.len() - 5), ErrorCode::OutOfMemory);
    let load = |i: usize| match &replies[i] {
        Ok(Message::LoadReport {
            free_pages, hint, ..
        }) => (*free_pages, *hint),
        other => panic!("request {i}: {other:?}"),
    };
    assert_eq!(load(script.len() - 3), (0, LoadHint::StopSending));
    assert_eq!(load(script.len() - 1), (1, LoadHint::Pressure));
    server.shutdown();
}

/// The script's replies from a fresh in-process server.
fn local_replay(script: &[Message]) -> Vec<Result<Message>> {
    let session = MemoryServer::in_process(config()).session();
    script.iter().map(|m| session.serve(m.clone())).collect()
}
