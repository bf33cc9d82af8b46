//! Cluster membership: the registry of server workstations.
//!
//! Section 2.1 of the paper: "All workstations that participate in remote
//! memory paging are registered in a common file. ... When a client wants
//! to swap out memory it picks the most promising server, asks for a
//! number of page frames and starts sending requests to it."
//!
//! [`Registry`] is the common file: parse/serialize the list of server
//! workstations, each with an address and a relative link cost (the
//! heterogeneous-network extension of Section 5). Picking the most
//! promising server is the client's, from what its connection pool knows
//! of each (`rmp_core::ServerPool::most_promising`).

pub mod registry;

pub use registry::{Registry, ServerInfo};
