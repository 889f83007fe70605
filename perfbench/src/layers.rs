//! Decorators around the layers' public seams, installed only in the
//! traced run. Each one records a span around the call it wraps and, for
//! the store, counts operations by kind. The program itself is unchanged:
//! the decorators plug into `Database::open` (commit side and storage
//! endpoint) and into the commit-manager server's `Services`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use tell_commitmgr::{CommitParticipant, CommitService, SnapshotDescriptor, TxnStart};
use tell_common::{IsolationLevel, Result, TxnId};
use tell_netsim::NetMeter;
use tell_store::op::{BatchDriver, OpResult};
use tell_store::{Key, OpHandle, Predicate, StoreApi, StoreEndpoint, StoreOp, Token, WriteOp};

use crate::trace::{self, Kind};

// ---------------------------------------------------------------------------
// Commit side

/// A [`CommitService`] that times `start_pinned` and hands out timed
/// participants. `server` selects the server-side span names, for the
/// instance the commit-manager server dispatches to.
pub struct TracedCommit {
    inner: Arc<dyn CommitService>,
    server: bool,
}

impl TracedCommit {
    pub fn new(inner: Arc<dyn CommitService>, server: bool) -> Arc<TracedCommit> {
        Arc::new(TracedCommit { inner, server })
    }
}

impl CommitService for TracedCommit {
    fn start_pinned(
        &self,
        hint: usize,
        level: IsolationLevel,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<dyn CommitParticipant>)> {
        let kind = if self.server { Kind::CmServerStart } else { Kind::CmStart };
        let _span = trace::enter(kind, 0);
        let (start, inner) = self.inner.start_pinned(hint, level, meter)?;
        Ok((start, Arc::new(TracedParticipant { inner, server: self.server })))
    }

    fn current_lav(&self) -> Result<u64> {
        self.inner.current_lav()
    }

    fn force_resolve(&self, tid: TxnId, committed: bool) -> Result<()> {
        self.inner.force_resolve(tid, committed)
    }

    fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        self.inner.sync_all(meter)
    }
}

struct TracedParticipant {
    inner: Arc<dyn CommitParticipant>,
    server: bool,
}

impl TracedParticipant {
    fn span(&self) -> trace::Guard {
        trace::enter(if self.server { Kind::CmServerComplete } else { Kind::CmComplete }, 0)
    }
}

impl CommitParticipant for TracedParticipant {
    fn set_committed(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        let _span = self.span();
        self.inner.set_committed(tid, meter)
    }

    fn set_aborted(&self, tid: TxnId, meter: &NetMeter) -> Result<()> {
        let _span = self.span();
        self.inner.set_aborted(tid, meter)
    }

    fn refresh_snapshot(&self, meter: &NetMeter) -> Result<Option<SnapshotDescriptor>> {
        self.inner.refresh_snapshot(meter)
    }
}

// ---------------------------------------------------------------------------
// Storage side

/// Store operation kinds: the five [`StoreOp`] variants, plus scans.
pub const OP_KINDS: [&str; 6] = ["get", "multi_get", "write", "multi_write", "increment", "scan"];
const GET: usize = 0;
const MULTI_GET: usize = 1;
const WRITE: usize = 2;
const MULTI_WRITE: usize = 3;
const INCREMENT: usize = 4;
const SCAN: usize = 5;

static OPS: [AtomicU64; 6] = [const { AtomicU64::new(0) }; 6];

/// Operations issued through traced clients since the last call, by kind
/// (in [`OP_KINDS`] order); resets the counts.
pub fn take_op_counts() -> [u64; 6] {
    std::array::from_fn(|i| OPS[i].swap(0, Ordering::Relaxed))
}

fn count(kind: usize) {
    OPS[kind].fetch_add(1, Ordering::Relaxed);
}

fn op_kind(op: &StoreOp) -> usize {
    match op {
        StoreOp::Get { .. } => GET,
        StoreOp::MultiGet { .. } => MULTI_GET,
        StoreOp::Write { .. } => WRITE,
        StoreOp::MultiWrite { .. } => MULTI_WRITE,
        StoreOp::Increment { .. } => INCREMENT,
    }
}

/// A [`StoreEndpoint`] whose clients count and time every operation.
#[derive(Clone)]
pub struct TracedEndpoint<E>(pub E);

impl<E: StoreEndpoint> StoreEndpoint for TracedEndpoint<E> {
    type Client = TracedClient<E::Client>;

    fn client(&self, meter: NetMeter) -> Self::Client {
        TracedClient::new(self.0.client(meter))
    }

    fn unmetered_client(&self) -> Self::Client {
        TracedClient::new(self.0.unmetered_client())
    }
}

/// Submitted operations still outstanding: the inner handle, keyed by the
/// ticket of the handle given to the caller, so waiting on it is timed.
#[derive(Default)]
struct Outstanding {
    next: Cell<u64>,
    handles: RefCell<HashMap<u64, (OpHandle, u8)>>,
}

impl BatchDriver for Outstanding {
    fn resolve(&self, ticket: u64) -> Result<OpResult> {
        let (handle, kind) = self.handles.borrow_mut().remove(&ticket).expect("unknown ticket");
        let _span = trace::enter(Kind::StoreWait, kind);
        handle.wait()
    }
}

#[derive(Clone)]
pub struct TracedClient<C> {
    inner: C,
    outstanding: Rc<Outstanding>,
}

impl<C: StoreApi> TracedClient<C> {
    fn new(inner: C) -> Self {
        TracedClient { inner, outstanding: Rc::new(Outstanding::default()) }
    }

    fn call<T>(&self, kind: usize, f: impl FnOnce(&C) -> T) -> T {
        count(kind);
        let _span = trace::enter(Kind::StoreCall, kind as u8);
        f(&self.inner)
    }
}

impl<C: StoreApi> StoreApi for TracedClient<C> {
    fn submit(&self, op: StoreOp) -> OpHandle {
        let kind = op_kind(&op);
        count(kind);
        let inner = self.inner.submit(op);
        let ticket = self.outstanding.next.get();
        self.outstanding.next.set(ticket + 1);
        self.outstanding.handles.borrow_mut().insert(ticket, (inner, kind as u8));
        OpHandle::pending(Rc::clone(&self.outstanding) as Rc<dyn BatchDriver>, ticket)
    }

    fn get(&self, key: &Key) -> Result<Option<(Token, Bytes)>> {
        self.call(GET, |c| c.get(key))
    }

    fn multi_get(&self, keys: &[Key]) -> Result<Vec<Option<(Token, Bytes)>>> {
        self.call(MULTI_GET, |c| c.multi_get(keys))
    }

    fn put(&self, key: &Key, value: Bytes) -> Result<Token> {
        self.call(WRITE, |c| c.put(key, value))
    }

    fn insert(&self, key: &Key, value: Bytes) -> Result<Token> {
        self.call(WRITE, |c| c.insert(key, value))
    }

    fn store_conditional(&self, key: &Key, token: Token, value: Bytes) -> Result<Token> {
        self.call(WRITE, |c| c.store_conditional(key, token, value))
    }

    fn delete_conditional(&self, key: &Key, token: Token) -> Result<()> {
        self.call(WRITE, |c| c.delete_conditional(key, token))
    }

    fn delete(&self, key: &Key) -> Result<()> {
        self.call(WRITE, |c| c.delete(key))
    }

    fn multi_write(&self, ops: Vec<WriteOp>) -> Result<Vec<Result<Option<Token>>>> {
        self.call(MULTI_WRITE, |c| c.multi_write(ops))
    }

    fn increment(&self, key: &Key, delta: u64) -> Result<u64> {
        self.call(INCREMENT, |c| c.increment(key, delta))
    }

    fn scan_range(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.call(SCAN, |c| c.scan_range(start, end, limit))
    }

    fn scan_range_rev(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.call(SCAN, |c| c.scan_range_rev(start, end, limit))
    }

    fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<(Key, Token, Bytes)>> {
        self.call(SCAN, |c| c.scan_prefix(prefix, limit))
    }

    fn scan_prefix_pushdown(
        &self,
        prefix: &[u8],
        limit: usize,
        filter: &Predicate,
    ) -> Result<Vec<(Key, Token, Bytes)>> {
        self.call(SCAN, |c| c.scan_prefix_pushdown(prefix, limit, filter))
    }

    fn meter(&self) -> &NetMeter {
        self.inner.meter()
    }
}
