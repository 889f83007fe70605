//! `tell-store` — the shared record store.
//!
//! A from-scratch reimplementation of the storage substrate Tell runs on
//! (the paper uses RamCloud, §6.1): a strongly consistent, in-memory,
//! partitioned key-value store with
//!
//! * atomic `get`/`put` on single records,
//! * **LL/SC**: [`StoreApi::get`] is the load-link (it returns a store
//!   token alongside the value) and [`StoreApi::store_conditional`] is the
//!   store-conditional —
//!   it succeeds only if the token is unchanged. Tokens are
//!   partition-monotonic, so a delete/re-insert can never reuse a token and
//!   the ABA problem (§4.1) cannot occur,
//! * an atomic fetch-and-add counter primitive (tid/rid allocation),
//! * synchronous replication with configurable replication factor and
//!   transparent fail-over to replicas (§4.4.2),
//! * per-node memory capacity accounting (drives Fig 7's "3 SNs cannot hold
//!   the data" result), and
//! * request **batching**: a multi-get / multi-write is one network
//!   exchange (§5.1 "Tell aggressively batches operations").
//!
//! All network costs are charged in virtual time through
//! [`tell_netsim::NetMeter`]; the data structures themselves are real and
//! shared, so concurrent conflicts are genuine.

pub mod api;
pub mod cell;
pub mod client;
pub mod cluster;
pub mod durability;
pub mod keys;
pub mod node;
pub mod op;
pub mod predicate;

pub use api::{StoreApi, StoreEndpoint};
pub use cell::{Cell, Token};
pub use client::{Expect, StoreClient, WriteOp};
pub use cluster::{StoreCluster, StoreConfig};
pub use durability::{DurabilityProvider, NodeDurability, RecoveredNode, RecoveredPartition};
pub use keys::Key;
pub use op::{
    BatchDriver, CounterHandle, GetHandle, MultiGetHandle, MultiWriteHandle, OpHandle, OpResult,
    StoreOp, WriteHandle,
};
pub use predicate::{CmpOp, Predicate};
