//! The remote memory server.
//!
//! Section 3.2 of the paper: "The server is a user level program listening
//! to a socket and accepting connections from clients. Each client is
//! served by a new instance of the server which uses portion of the local
//! workstation's main memory to store the client's pages... The server is
//! also responsible for swap space allocation and for providing
//! periodically information to the client concerning the memory load of
//! its host. A parity server is by no means different than a memory
//! server."
//!
//! Our [`MemoryServer`] is exactly that: a TCP listener that serves each
//! client session on a thread of its own (the paper's "new instance of
//! the server" per client), up to a cap past which a connection is
//! refused at once, stores opaque pages under [`rmp_types::StoreKey`]s,
//! grants and denies swap-space allocations, reports host load, and
//! piggy-backs load advisories on every acknowledgement. It also supports
//! the experiments' fault injection: a server can be *crashed* (all state
//! dropped, all connections severed) either programmatically or by a
//! protocol message, which is how the recovery benchmarks kill
//! workstations.
//!
//! [`MemoryServer::in_process`] is the same server without a socket: its
//! sessions answer through the request handler a connection's session
//! runs, so an in-process test cluster and a real one answer alike.

pub mod server;
pub mod store;

pub use server::{InProcessServer, InProcessSession, MemoryServer, ServerConfig, ServerHandle};
pub use store::PageStore;
