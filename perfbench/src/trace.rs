//! In-memory span recorder for the traced run.
//!
//! Every span carries its name, start, end, parent span and transaction
//! id. Spans go into a per-thread buffer (registered once, so server
//! threads that outlive a window are still collected) and are taken out
//! and written to disk only when the run ends. Recording is off unless
//! [`set_enabled`] turned it on; a disabled [`enter`] is one relaxed load.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

/// Span names: one per layer boundary the benchmark wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A whole transaction: first attempt's begin to the successful commit.
    Txn,
    /// `ProcessingNode::begin_at`.
    Begin,
    /// The workload body (reads and buffered writes).
    Body,
    /// `Transaction::commit`.
    Commit,
    /// `Transaction::abort`.
    Abort,
    /// The back-off between a failed attempt and the next one.
    RetryGap,
    /// `CommitService::start_pinned`, PN side.
    CmStart,
    /// `CommitParticipant::set_committed` / `set_aborted`, PN side.
    CmComplete,
    /// `CommitService::start_pinned` inside the commit-manager server.
    CmServerStart,
    /// `CommitParticipant` completion inside the commit-manager server.
    CmServerComplete,
    /// A blocking `StoreApi` call.
    StoreCall,
    /// Waiting on a submitted `StoreOp`'s handle.
    StoreWait,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Txn => "txn",
            Kind::Begin => "core.begin",
            Kind::Body => "core.body",
            Kind::Commit => "core.commit",
            Kind::Abort => "core.abort",
            Kind::RetryGap => "core.retry_gap",
            Kind::CmStart => "commitmgr.start",
            Kind::CmComplete => "commitmgr.complete",
            Kind::CmServerStart => "commitmgr.server_start",
            Kind::CmServerComplete => "commitmgr.server_complete",
            Kind::StoreCall => "store.call",
            Kind::StoreWait => "store.wait",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Workload-defined class (TPC-C transaction type, write flag, ...).
    pub tag: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the parent span in the same thread's buffer; 0 = root.
    pub parent: u32,
    pub txn: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

#[derive(Default)]
struct ThreadBuf {
    spans: Vec<Span>,
    open: Vec<u32>,
    txn: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<(u32, Arc<Mutex<ThreadBuf>>)>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn with_buf<T>(f: impl FnOnce(u32, &mut ThreadBuf) -> T) -> T {
    let (thread, buf) = LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let (thread, buf) = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf::default()));
            let mut reg = REGISTRY.lock();
            reg.push(Arc::clone(&buf));
            (reg.len() as u32, buf)
        });
        (*thread, Arc::clone(buf))
    });
    let mut b = buf.lock();
    f(thread, &mut b)
}

/// Tag the spans this thread records next with transaction `id`.
pub fn set_txn(id: u64) {
    if enabled() {
        with_buf(|_, b| b.txn = id);
    }
}

/// An open span; closed (end stamped) on drop.
pub struct Guard {
    slot: Option<u32>,
}

/// Open a span of `kind` under the innermost span open on this thread.
pub fn enter(kind: Kind, tag: u8) -> Guard {
    if !enabled() {
        return Guard { slot: None };
    }
    let start_ns = now_ns();
    let slot = with_buf(|thread, b| {
        let parent = b.open.last().copied().unwrap_or(0);
        b.spans.push(Span { kind, tag, start_ns, end_ns: 0, parent, txn: b.txn, thread });
        let slot = b.spans.len() as u32;
        b.open.push(slot);
        slot
    });
    Guard { slot: Some(slot) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            let end_ns = now_ns();
            with_buf(|_, b| {
                // The buffer may have been taken while this span was open;
                // such a span stays unclosed (end 0) and is ignored.
                if let Some(s) = b.spans.get_mut(slot as usize - 1) {
                    s.end_ns = end_ns;
                }
                if let Some(pos) = b.open.iter().rposition(|&s| s == slot) {
                    b.open.truncate(pos);
                }
            });
        }
    }
}

/// Take every closed span recorded so far, per thread, leaving the
/// buffers empty. Parent links index into the same thread's vector.
pub fn take_all() -> Vec<Vec<Span>> {
    REGISTRY
        .lock()
        .iter()
        .map(|buf| {
            let mut b = buf.lock();
            b.open.clear();
            std::mem::take(&mut b.spans)
        })
        .collect()
}

/// Write spans as tab-separated lines: thread, index, parent, txn, name,
/// tag, start_ns, end_ns.
pub fn write_tsv(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tindex\tparent\ttxn\tname\ttag\tstart_ns\tend_ns")?;
    for spans in threads {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread,
                i + 1,
                s.parent,
                s.txn,
                s.kind.name(),
                s.tag,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
