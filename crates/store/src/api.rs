//! The storage abstraction the layers above program against.
//!
//! [`StoreApi`] is the operation surface of a storage client; it is
//! implemented by the in-process [`StoreClient`] and by `tell-rpc`'s
//! `RemoteStoreClient`, so a processing node runs unchanged against a local
//! simulated cluster or real storage nodes across TCP.
//!
//! Clients carry a [`NetMeter`] whose `SimClock` is deliberately `!Send`
//! (one virtual clock per worker thread), so a client can never be stored in
//! a shared `Database`. [`StoreEndpoint`] is the `Send + Sync` half: a cheap
//! handle to the storage service from which each worker mints its own
//! metered client.

use bytes::Bytes;
use std::sync::Arc;
use tell_common::{Error, Result};
use tell_netsim::NetMeter;

use crate::cell::Token;
use crate::client::{Expect, StoreClient, WriteOp};
use crate::cluster::StoreCluster;
use crate::keys::{prefix_end, Key};
use crate::op::{
    CounterHandle, GetHandle, MultiGetHandle, MultiWriteHandle, OpHandle, StoreOp, WriteHandle,
};
use crate::predicate::Predicate;

/// Storage operations available to a processing node, commit manager or
/// index (LL/SC per §4.1, batching per §5.1).
///
/// Every point operation is a [`StoreOp`] value, and
/// [`StoreApi::submit`] is the one way it reaches an implementation: it
/// hands the operation to the client and returns an [`OpHandle`] at once.
/// The `*_async` methods wrap `submit` in typed handles, and the blocking
/// methods (`get`, `put`, …) are written once here as submit-then-wait.
/// Independent operations submitted before the first `wait` share one
/// submission window, which a remote client flushes as a *single* batched
/// frame (§5.1's "aggressively batches operations"); a blocking call issued
/// while async operations are outstanding rides the same frame.
///
/// An implementation supplies `submit`, the two range scans, the pushdown
/// scan and `meter`; `scan_prefix` is a range scan up to [`prefix_end`].
pub trait StoreApi: Clone {
    /// Submit `op` for asynchronous execution. The returned handle may be
    /// waited on at any later point, or dropped to fire-and-forget.
    fn submit(&self, op: StoreOp) -> OpHandle;

    /// Asynchronous load-link of one key.
    fn get_async(&self, key: &Key) -> GetHandle {
        GetHandle::new(self.submit(StoreOp::Get { key: key.clone() }))
    }

    /// Asynchronous batched load-link.
    fn multi_get_async(&self, keys: &[Key]) -> MultiGetHandle {
        MultiGetHandle::new(self.submit(StoreOp::MultiGet { keys: keys.to_vec() }))
    }

    /// Asynchronous conditional write.
    fn write_async(&self, op: WriteOp) -> WriteHandle {
        WriteHandle::new(self.submit(StoreOp::Write { op }))
    }

    /// Asynchronous batched conditional writes.
    fn multi_write_async(&self, ops: Vec<WriteOp>) -> MultiWriteHandle {
        MultiWriteHandle::new(self.submit(StoreOp::MultiWrite { ops }))
    }

    /// Asynchronous fetch-and-add.
    fn increment_async(&self, key: &Key, delta: u64) -> CounterHandle {
        CounterHandle::new(self.submit(StoreOp::Increment { key: key.clone(), delta }))
    }

    /// Load-link: read `key`, returning its token and value.
    fn get(&self, key: &Key) -> Result<Option<(Token, Bytes)>> {
        self.get_async(key).wait()
    }

    /// Batched load-link of several keys in one exchange.
    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<(Token, Bytes)>>> {
        self.multi_get_async(keys).wait()
    }

    /// Unconditional upsert; returns the new token.
    fn put(&self, key: &Key, value: Bytes) -> Result<Token> {
        let op = WriteOp::put(key.clone(), Expect::Any, value);
        written_token(self.write_async(op).wait(), "put")
    }

    /// Insert; fails with `Conflict` if the key exists.
    fn insert(&self, key: &Key, value: Bytes) -> Result<Token> {
        let op = WriteOp::put(key.clone(), Expect::Absent, value);
        written_token(self.write_async(op).wait(), "insert")
    }

    /// Store-conditional: write only if the cell still carries `token`
    /// from our load-link — the paper's conflict-detection primitive
    /// (§4.1).
    fn store_conditional(&self, key: &Key, token: Token, value: Bytes) -> Result<Token> {
        let op = WriteOp::put(key.clone(), Expect::Token(token), value);
        written_token(self.write_async(op).wait(), "store_conditional")
    }

    /// Delete only if the cell still carries `token`.
    fn delete_conditional(&self, key: &Key, token: Token) -> Result<()> {
        self.write_async(WriteOp::delete(key.clone(), Expect::Token(token))).wait().map(drop)
    }

    /// Unconditional delete (no-op when missing).
    fn delete(&self, key: &Key) -> Result<()> {
        self.write_async(WriteOp::delete(key.clone(), Expect::Any)).wait().map(drop)
    }

    /// Batched conditional writes: one exchange, independent per-op results
    /// (the batch is a network optimisation, not an atomic unit — commit
    /// atomicity lives in the transaction layer above, §4.3).
    fn multi_write(&self, ops: Vec<WriteOp>) -> Result<Vec<Result<Option<Token>>>> {
        self.multi_write_async(ops).wait()
    }

    /// Atomic fetch-and-add, used to allocate tid/rid ranges (§4.2).
    fn increment(&self, key: &Key, delta: u64) -> Result<u64> {
        self.increment_async(key, delta).wait()
    }

    /// Ordered scan of `[start, end)`, at most `limit` entries.
    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>>;

    /// Reverse-ordered scan of `[start, end)` (largest key first). Used by
    /// recovery to iterate the transaction log backwards (§4.4.1).
    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>>;

    /// Scan every key starting with `prefix`.
    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<(Key, Token, Bytes)>> {
        self.scan_range(prefix, prefix_end(prefix).as_deref(), limit)
    }

    /// Prefix scan with a [`Predicate`] pushed down to the storage node
    /// (§5.2: selection next to the data shrinks the result set sent over
    /// the network). Every scanned row costs server CPU, but only matching
    /// rows cross the network; the predicate is serializable, so the
    /// remote client ships the very same expression in its request.
    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<(Key, Token, Bytes)>>;

    /// The meter charging this worker's virtual clock.
    fn meter(&self) -> &NetMeter;
}

/// The token a put-shaped write must return; a write that reports none is
/// a protocol fault, not a panic.
fn written_token(written: Result<Option<Token>>, what: &str) -> Result<Token> {
    written?.ok_or_else(|| Error::corrupt(format!("{what} returned no token")))
}

/// A `Send + Sync` handle to a storage service from which per-worker
/// clients are minted. The local endpoint is `Arc<StoreCluster>`; the
/// remote endpoint (in `tell-rpc`) is a TCP connection pool. The serving
/// side is the same seam in reverse: `tell-rpc`'s reactor exposes an
/// `Arc<StoreCluster>` over the wire by dispatching decoded requests
/// straight onto it, so local and remote deployments share every code
/// path below this trait.
pub trait StoreEndpoint: Clone + Send + Sync + 'static {
    /// The client type this endpoint produces.
    type Client: StoreApi;

    /// A client charging `meter`.
    fn client(&self, meter: NetMeter) -> Self::Client;

    /// A client with free (zero-cost) metering, for administrative work.
    fn unmetered_client(&self) -> Self::Client {
        self.client(NetMeter::free())
    }
}

impl StoreEndpoint for Arc<StoreCluster> {
    type Client = StoreClient;

    fn client(&self, meter: NetMeter) -> StoreClient {
        StoreClient::new(Arc::clone(self), meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpResult;

    /// A client whose every write completes without a token.
    #[derive(Clone)]
    struct Tokenless(NetMeter);

    impl StoreApi for Tokenless {
        fn submit(&self, _op: StoreOp) -> OpHandle {
            OpHandle::ready(Ok(OpResult::Written(None)))
        }

        fn scan_range(
            &self,
            _: &[u8],
            _: Option<&[u8]>,
            _: usize,
        ) -> Result<Vec<(Key, Token, Bytes)>> {
            Ok(Vec::new())
        }

        fn scan_range_rev(
            &self,
            _: &[u8],
            _: Option<&[u8]>,
            _: usize,
        ) -> Result<Vec<(Key, Token, Bytes)>> {
            Ok(Vec::new())
        }

        fn scan_prefix_pushdown(
            &self,
            _: &[u8],
            _: usize,
            _: &Predicate,
        ) -> Result<Vec<(Key, Token, Bytes)>> {
            Ok(Vec::new())
        }

        fn meter(&self) -> &NetMeter {
            &self.0
        }
    }

    #[test]
    fn token_writes_without_a_token_are_corrupt_not_a_panic() {
        let c = Tokenless(NetMeter::free());
        let key = Bytes::from_static(b"k");
        let value = || Bytes::from_static(b"v");
        assert!(matches!(c.put(&key, value()), Err(Error::Corrupt(_))));
        assert!(matches!(c.insert(&key, value()), Err(Error::Corrupt(_))));
        assert!(matches!(c.store_conditional(&key, 7, value()), Err(Error::Corrupt(_))));
        // Deletes expect no token.
        assert_eq!(c.delete(&key), Ok(()));
        assert_eq!(c.delete_conditional(&key, 7), Ok(()));
    }
}
