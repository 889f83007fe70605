//! Closed-loop terminals: each runs one transaction at a time with no
//! think time, retrying retryable aborts up to a fixed budget, and times
//! it on the wall clock from the first attempt's begin to the successful
//! commit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tell_common::{Error, IsolationLevel, Result};
use tell_core::{Database, Transaction};
use tell_store::StoreEndpoint;

use crate::trace::{self, Kind};

/// Attempts per transaction before it counts as failed. Serializable
/// read-modify-writes on Zipf-hot rows take up to ~100 attempts now and
/// then (a transaction keeps losing first-committer-wins to the other
/// terminal); `max_attempts_per_txn` in the detail line shows the tail.
pub const MAX_ATTEMPTS: u32 = 1000;

/// What the terminal loop needs to know about a request.
#[derive(Clone, Copy, Debug)]
pub struct Class {
    /// The transaction writes (counts toward the `write_txn_*` metrics).
    pub write: bool,
    /// Workload-defined tag carried on the spans (e.g. TPC-C type).
    pub tag: u8,
}

/// One workload's transactions, generic over the storage endpoint so the
/// same body runs over plain and traced endpoints.
pub trait Workload<E: StoreEndpoint>: Sync {
    type Req;
    /// Per-terminal input generator state.
    type Term;

    /// Generator for terminal `index` of the window numbered `window`.
    fn terminal(&self, index: usize, window: usize) -> Self::Term;

    /// The next request of a terminal.
    fn next(&self, term: &mut Self::Term) -> (Self::Req, Class);

    /// The transaction body: reads and buffered writes.
    fn body(&self, txn: &mut Transaction<'_, E>, req: &Self::Req) -> Result<()>;

    /// An error the body raises on purpose to roll back (a success).
    fn is_user_rollback(&self, _err: &Error) -> bool {
        false
    }

    /// Called once the commit of `req` was acknowledged.
    fn acked(&self, _req: &Self::Req) {}

    /// Row bytes `req` wrote, for write amplification.
    fn user_bytes(&self, _req: &Self::Req) -> u64 {
        0
    }
}

/// One committed transaction's latency.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub ms: f64,
    /// The id its spans carry (see `trace::set_txn`).
    pub txn: u64,
}

/// Everything one measurement window observed.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    pub seconds: f64,
    /// Transactions finished inside the window: committed, rolled back on
    /// purpose, or failed.
    pub attempted: u64,
    pub commits: u64,
    pub rollbacks: u64,
    pub failed: u64,
    /// Attempts of those transactions, and how many of them aborted.
    pub attempts: u64,
    pub aborts: u64,
    /// Most attempts any one of them took.
    pub max_attempts: u64,
    /// Latencies of the committed transactions: all of them and the
    /// writing ones.
    pub lat_ms: Vec<Sample>,
    pub write_lat_ms: Vec<Sample>,
    /// Commits in each whole second of the window (printed in the detail
    /// line, where a passing slowdown of the host shows).
    pub per_second: Vec<u64>,
    pub user_bytes: u64,
    pub errors: Vec<String>,
}

impl WindowStats {
    fn merge(&mut self, o: WindowStats) {
        self.attempted += o.attempted;
        self.commits += o.commits;
        self.rollbacks += o.rollbacks;
        self.failed += o.failed;
        self.attempts += o.attempts;
        self.aborts += o.aborts;
        self.max_attempts = self.max_attempts.max(o.max_attempts);
        self.lat_ms.extend(o.lat_ms);
        self.write_lat_ms.extend(o.write_lat_ms);
        if self.per_second.len() < o.per_second.len() {
            self.per_second.resize(o.per_second.len(), 0);
        }
        for (a, b) in self.per_second.iter_mut().zip(o.per_second) {
            *a += b;
        }
        self.user_bytes += o.user_bytes;
        self.errors.extend(o.errors);
    }

    pub fn commits_per_s(&self) -> f64 {
        self.commits as f64 / self.seconds
    }
}

enum Attempt {
    Committed,
    RolledBack,
    Retry,
    Fatal(Error),
}

fn attempt<E: StoreEndpoint, W: Workload<E>>(
    pn: &tell_core::ProcessingNode<E>,
    w: &W,
    level: IsolationLevel,
    req: &W::Req,
    tag: u8,
) -> Attempt {
    let begun = {
        let _span = trace::enter(Kind::Begin, tag);
        pn.begin_at(level)
    };
    let mut txn = match begun {
        Ok(txn) => txn,
        Err(e) if e.is_retryable() => return Attempt::Retry,
        Err(e) => return Attempt::Fatal(e),
    };
    let body = {
        let _span = trace::enter(Kind::Body, tag);
        w.body(&mut txn, req)
    };
    match body {
        Ok(()) => {
            let _span = trace::enter(Kind::Commit, tag);
            match txn.commit() {
                Ok(()) => Attempt::Committed,
                Err(e) if e.is_retryable() => Attempt::Retry,
                Err(e) => Attempt::Fatal(e),
            }
        }
        Err(e) => {
            if txn.is_running() {
                let _span = trace::enter(Kind::Abort, tag);
                if let Err(abort_err) = txn.abort() {
                    return Attempt::Fatal(abort_err);
                }
            }
            if w.is_user_rollback(&e) {
                Attempt::RolledBack
            } else if e.is_retryable() {
                Attempt::Retry
            } else {
                Attempt::Fatal(e)
            }
        }
    }
}

static NEXT_TXN: AtomicU64 = AtomicU64::new(1);

fn terminal_loop<E: StoreEndpoint, W: Workload<E>>(
    db: &Arc<Database<E>>,
    w: &W,
    level: IsolationLevel,
    index: usize,
    window: usize,
    start: Instant,
    end: Instant,
) -> WindowStats {
    let pn = db.processing_node();
    let mut term = w.terminal(index, window);
    let mut st = WindowStats {
        per_second: vec![0; (end - start).as_secs() as usize],
        ..WindowStats::default()
    };
    while Instant::now() < end {
        let (req, class) = w.next(&mut term);
        let txn = NEXT_TXN.fetch_add(1, Ordering::Relaxed);
        trace::set_txn(txn);
        let t0 = Instant::now();
        let root = trace::enter(Kind::Txn, class.tag);
        let mut attempts = 0u64;
        let outcome = loop {
            attempts += 1;
            match attempt(&pn, w, level, &req, class.tag) {
                Attempt::Retry if attempts < MAX_ATTEMPTS as u64 => {
                    let _span = trace::enter(Kind::RetryGap, class.tag);
                    // As `ProcessingNode::run`: let the competing commit
                    // finish before re-reading.
                    std::thread::yield_now();
                }
                other => break other,
            }
        };
        drop(root);
        let t1 = Instant::now();
        if matches!(outcome, Attempt::Committed) {
            w.acked(&req);
        }
        if t1 < start || t1 >= end {
            continue;
        }
        st.attempted += 1;
        st.attempts += attempts;
        st.max_attempts = st.max_attempts.max(attempts);
        match outcome {
            Attempt::Committed => {
                st.commits += 1;
                st.aborts += attempts - 1;
                let sample = Sample { ms: (t1 - t0).as_secs_f64() * 1e3, txn };
                st.lat_ms.push(sample);
                if class.write {
                    st.write_lat_ms.push(sample);
                }
                // A trailing partial second is left out of the buckets.
                if let Some(n) = st.per_second.get_mut((t1 - start).as_secs() as usize) {
                    *n += 1;
                }
                st.user_bytes += w.user_bytes(&req);
            }
            Attempt::RolledBack => {
                st.rollbacks += 1;
                st.aborts += attempts - 1;
            }
            Attempt::Retry => {
                st.failed += 1;
                st.aborts += attempts;
                st.errors.push(format!("retry budget of {MAX_ATTEMPTS} attempts exhausted"));
            }
            Attempt::Fatal(e) => {
                st.failed += 1;
                st.aborts += attempts;
                st.errors.push(e.to_string());
            }
        }
    }
    st
}

/// Run `terminals` closed-loop terminals for `warmup` and then a
/// measurement window of `measure`. `probe` is called at the window's
/// start (`true`) and end (`false`) to read layer counters.
#[allow(clippy::too_many_arguments)]
pub fn run_window<E: StoreEndpoint, W: Workload<E>>(
    db: &Arc<Database<E>>,
    w: &W,
    level: IsolationLevel,
    terminals: usize,
    window: usize,
    warmup: Duration,
    measure: Duration,
    mut probe: impl FnMut(bool),
) -> WindowStats {
    let start = Instant::now() + warmup;
    let end = start + measure;
    let mut total = WindowStats { seconds: measure.as_secs_f64(), ..WindowStats::default() };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..terminals)
            .map(|i| s.spawn(move || terminal_loop(db, w, level, i, window, start, end)))
            .collect();
        std::thread::sleep(start.saturating_duration_since(Instant::now()));
        probe(true);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        probe(false);
        for h in handles {
            total.merge(h.join().expect("terminal thread panicked"));
        }
    });
    total
}
