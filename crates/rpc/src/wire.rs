//! The tell-rpc wire format.
//!
//! Every exchange is one length-prefixed frame with one fixed header:
//!
//! ```text
//! [len: u32 LE] [corr_id: u64 LE] [flags: u8]
//!     [trace: u64 LE, if flags bit 0] [parent_span: u64 LE, if flags bit 1]
//!     [body]
//! ```
//!
//! `len` counts everything after itself, and `corr_id` matches a response
//! to its request, so a client can keep many requests in flight on one
//! connection (pipelining). The optional fields are the frame's
//! [`TraceContext`]: the trace of the PN-side unit of work that caused the
//! frame, and the sending span's id, which server dispatch adopts as the
//! parent of its own span. Servers echo the request's context on the
//! response. A parent span belongs to a trace, so bit 1 without bit 0 is
//! [`Error::Corrupt`], as is any other set bit.
//!
//! The body is a tagged message — one byte of message kind followed by a
//! kind-specific payload — serialized with `tell_common::codec`, the same
//! little-endian codec every persistent format in the workspace uses. Point
//! storage operations travel as the store API's own values: a [`StoreOp`]
//! out (`Request::Op`, or several in one `Request::Batch`, which therefore
//! cannot nest), an [`OpResult`] back, each shape under one tag (1–5).
//! Errors travel as `tell_common::Error` itself, so a remote call surfaces
//! exactly the error the server saw — `Conflict` stays `Conflict`, which
//! the optimistic transaction layer's retry decision depends on.
//!
//! Decoding is strict: a message must consume its body exactly. Trailing
//! bytes, truncated fields and unknown tags are all [`Error::Corrupt`], so
//! a desynchronized stream is detected instead of misread.

use std::io::{self, Read, Write as IoWrite};

use bytes::{Bytes, BytesMut};
use tell_commitmgr::SnapshotDescriptor;
use tell_common::codec::{Reader, Writer};
use tell_common::{Error, IsolationLevel, Result, TxnId};
use tell_obs::{ProfileReport, Span, TelemetryPage};
use tell_store::{Expect, Key, OpResult, Predicate, StoreOp, Token, WriteOp};

/// Upper bound on a frame's `len` field. Generous — the largest legitimate
/// frames are scan results — while still rejecting garbage lengths from a
/// desynchronized or hostile peer before allocating.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes of the fixed header: length prefix, correlation id, flags.
pub const FRAME_HEADER: usize = 13;

/// Flags bit: the header carries a trace id.
const FLAG_TRACE: u8 = 1;
/// Flags bit: the header carries the sending span's id.
const FLAG_SPAN: u8 = 2;

/// One decoded frame: correlation id, trace context, message body.
pub type Frame<B> = (u64, Option<TraceContext>, B);

/// The trace context a frame header may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace the frame belongs to.
    pub trace: u64,
    /// Span id of the sending operation; 0 when the sender recorded no
    /// span (the header then carries the trace alone).
    pub parent_span: u64,
}

/// Operations a client may ask of a server. Storage requests mirror
/// `tell_store::StoreApi`; commit requests (tags 16–20) mirror
/// `tell_commitmgr::{CommitService, CommitParticipant}`.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// One point storage operation (tags 1–5, one per [`StoreOp`] shape).
    Op(StoreOp),
    /// Ordered scan of `[start, end)`; `reverse` walks largest-key-first.
    Scan { start: Key, end: Option<Key>, limit: u64, reverse: bool },
    /// Liveness / round-trip probe.
    Ping,
    /// Several independent point operations in **one** frame (§5.1
    /// "aggressively batches operations"): the server executes them in
    /// order and answers with a [`Response::Batch`] carrying one result
    /// per op. The batch is a framing optimisation, not an atomic unit.
    Batch { ops: Vec<StoreOp> },
    /// Prefix scan with a serializable [`Predicate`] evaluated **on the
    /// storage node** (§5.2 selection pushdown): only matching rows are
    /// framed into the response.
    ScanPrefixFiltered { prefix: Key, limit: u64, predicate: Predicate },
    /// Begin a transaction at `level` on the manager `hint` pins the
    /// caller to.
    CmStart { hint: u64, level: IsolationLevel },
    /// Report the outcome of a transaction this server issued.
    CmComplete { tid: TxnId, committed: bool },
    /// Lowest active version across this server's managers.
    CmLav,
    /// Force a commit-manager state synchronization.
    CmSync,
    /// Resolve a tid on every live manager (recovery path).
    CmResolve { tid: TxnId, committed: bool },
    /// Snapshot the server's metrics registry. This and the scrape and
    /// profiler requests below are answered by any server, whatever
    /// services it hosts.
    Metrics,
    /// Scrape the server's span ring. `drain: false` is a non-destructive
    /// peek, so a background poller never steals the traces a one-shot
    /// exporter was about to collect; `drain: true` removes what it
    /// returns (each span scraped exactly once).
    Spans { drain: bool },
    /// Incremental telemetry scrape: the time-series ring points with
    /// `seq > since`, plus the metric-name schema to interpret them. Pass
    /// 0 first, then each answer's `next_cursor`.
    Telemetry { since: u64 },
    /// Start the logical-stack profiler at `hz` (non-positive: the
    /// server's `TELL_PROF_HZ` / default); a no-op while it runs.
    ProfileStart { hz: f64 },
    /// Stop the profiler, keeping the accumulated profile fetchable.
    ProfileStop,
    /// Fetch the accumulated profile (running or stopped).
    ProfileFetch,
}

/// Server replies. `Error` may answer any request; the others pair with
/// specific requests (e.g. `Op` answers `Op`).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The request failed; carries the typed error.
    Error(Error),
    /// Answer to `Request::Op` (tags 1–5, one per [`OpResult`] shape).
    Op(OpResult),
    /// Answer to `Scan` / `ScanPrefixFiltered`.
    Rows(Vec<(Key, Token, Bytes)>),
    /// Answer to `Ping`.
    Pong,
    /// Answer to `Request::Batch`: one result per op, in submission order.
    /// Per-op failures travel as per-op errors, so one conflicting write
    /// does not poison its window-mates.
    Batch { results: Vec<Result<OpResult>> },
    /// Answer to `CmStart`.
    TxnStarted { tid: TxnId, lav: u64, snapshot: SnapshotDescriptor },
    /// Answer to requests with no payload (`CmComplete`, `CmSync`, ...).
    Unit,
    /// Answer to `CmLav`.
    Lav(u64),
    /// Answer to `Request::Metrics`: a `tell_obs::MetricsSnapshot` as JSON
    /// (scrapers re-render it to Prometheus text locally).
    Metrics(String),
    /// Answer to `Request::Spans`: the span ring, oldest first per shard.
    Spans(Vec<Span>),
    /// Answer to `Request::Telemetry`: one incremental page.
    Telemetry(TelemetryPage),
    /// Answer to `Request::ProfileFetch`.
    Profile(ProfileReport),
}

// ---------------------------------------------------------------------------
// Field-level helpers.

fn put_blob(out: &mut Vec<u8>, blob: &Bytes) {
    out.put_bytes(blob.as_ref());
}

fn read_blob(r: &mut Reader<'_>) -> Result<Bytes> {
    Ok(Bytes::copy_from_slice(r.bytes()?))
}

fn put_seq<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    out.put_u32(items.len() as u32);
    for item in items {
        put(out, item);
    }
}

fn read_seq<'a, T>(
    r: &mut Reader<'a>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T>,
) -> Result<Vec<T>> {
    let n = r.u32()? as usize;
    // The count is untrusted: cap the preallocation, let decoding fail on
    // the truncated tail instead.
    let mut items = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        items.push(read(r)?);
    }
    Ok(items)
}

fn put_opt<T>(out: &mut Vec<u8>, value: &Option<T>, put: impl FnOnce(&mut Vec<u8>, &T)) {
    match value {
        Some(v) => {
            out.put_u8(1);
            put(out, v);
        }
        None => out.put_u8(0),
    }
}

fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<Option<T>> {
    match r.u8()? {
        0 => Ok(None),
        1 => read(r).map(Some),
        t => Err(Error::corrupt(format!("bad option tag {t}"))),
    }
}

fn put_cell(out: &mut Vec<u8>, cell: &Option<(Token, Bytes)>) {
    put_opt(out, cell, |out, (token, value)| {
        out.put_u64(*token);
        out.put_bytes(value.as_ref());
    });
}

fn read_cell(r: &mut Reader<'_>) -> Result<Option<(Token, Bytes)>> {
    read_opt(r, |r| Ok((r.u64()?, read_blob(r)?)))
}

fn put_write_op(out: &mut Vec<u8>, op: &WriteOp) {
    put_blob(out, &op.key);
    match op.expect {
        Expect::Any => out.put_u8(0),
        Expect::Absent => out.put_u8(1),
        Expect::Token(t) => {
            out.put_u8(2);
            out.put_u64(t);
        }
    }
    put_opt(out, &op.value, put_blob);
}

fn read_write_op(r: &mut Reader<'_>) -> Result<WriteOp> {
    let key = read_blob(r)?;
    let expect = match r.u8()? {
        0 => Expect::Any,
        1 => Expect::Absent,
        2 => Expect::Token(r.u64()?),
        t => return Err(Error::corrupt(format!("bad expect tag {t}"))),
    };
    Ok(WriteOp { key, expect, value: read_opt(r, read_blob)? })
}

fn put_written(out: &mut Vec<u8>, token: &Option<Token>) {
    put_opt(out, token, |out, t| out.put_u64(*t));
}

fn put_error(out: &mut Vec<u8>, e: &Error) {
    match e {
        Error::Conflict => out.put_u8(1),
        Error::Aborted(r) => {
            out.put_u8(2);
            out.put_string(r);
        }
        Error::NotFound => out.put_u8(3),
        Error::Unavailable(w) => {
            out.put_u8(4);
            out.put_string(w);
        }
        Error::CapacityExceeded { node, capacity } => {
            out.put_u8(5);
            out.put_u32(*node);
            out.put_u64(*capacity as u64);
        }
        Error::Corrupt(w) => {
            out.put_u8(6);
            out.put_string(w);
        }
        Error::InvalidOperation(w) => {
            out.put_u8(7);
            out.put_string(w);
        }
        Error::Parse { message, position } => {
            out.put_u8(8);
            out.put_string(message);
            out.put_u64(*position as u64);
        }
        Error::Query(w) => {
            out.put_u8(9);
            out.put_string(w);
        }
        Error::Unsupported(w) => {
            out.put_u8(10);
            out.put_string(w);
        }
    }
}

fn read_usize(r: &mut Reader<'_>) -> Result<usize> {
    let v = r.u64()?;
    usize::try_from(v).map_err(|_| Error::corrupt(format!("{v} overflows usize")))
}

fn read_error(r: &mut Reader<'_>) -> Result<Error> {
    Ok(match r.u8()? {
        1 => Error::Conflict,
        2 => Error::Aborted(r.string()?),
        3 => Error::NotFound,
        4 => Error::Unavailable(r.string()?),
        5 => Error::CapacityExceeded { node: r.u32()?, capacity: read_usize(r)? },
        6 => Error::Corrupt(r.string()?),
        7 => Error::InvalidOperation(r.string()?),
        8 => Error::Parse { message: r.string()?, position: read_usize(r)? },
        9 => Error::Query(r.string()?),
        10 => Error::Unsupported(r.string()?),
        t => return Err(Error::corrupt(format!("bad error tag {t}"))),
    })
}

fn put_store_op(out: &mut Vec<u8>, op: &StoreOp) {
    match op {
        StoreOp::Get { key } => {
            out.put_u8(1);
            put_blob(out, key);
        }
        StoreOp::MultiGet { keys } => {
            out.put_u8(2);
            put_seq(out, keys, put_blob);
        }
        StoreOp::Write { op } => {
            out.put_u8(3);
            put_write_op(out, op);
        }
        StoreOp::MultiWrite { ops } => {
            out.put_u8(4);
            put_seq(out, ops, put_write_op);
        }
        StoreOp::Increment { key, delta } => {
            out.put_u8(5);
            put_blob(out, key);
            out.put_u64(*delta);
        }
    }
}

fn read_store_op(tag: u8, r: &mut Reader<'_>) -> Result<StoreOp> {
    Ok(match tag {
        1 => StoreOp::Get { key: read_blob(r)? },
        2 => StoreOp::MultiGet { keys: read_seq(r, read_blob)? },
        3 => StoreOp::Write { op: read_write_op(r)? },
        4 => StoreOp::MultiWrite { ops: read_seq(r, read_write_op)? },
        5 => StoreOp::Increment { key: read_blob(r)?, delta: r.u64()? },
        t => return Err(Error::corrupt(format!("unknown store op tag {t}"))),
    })
}

fn put_op_result(out: &mut Vec<u8>, result: &OpResult) {
    match result {
        OpResult::Cell(cell) => {
            out.put_u8(1);
            put_cell(out, cell);
        }
        OpResult::Cells(cells) => {
            out.put_u8(2);
            put_seq(out, cells, put_cell);
        }
        OpResult::Written(token) => {
            out.put_u8(3);
            put_written(out, token);
        }
        OpResult::WriteResults(results) => {
            out.put_u8(4);
            put_seq(out, results, |out, res| match res {
                Ok(token) => put_written(out, token),
                Err(e) => {
                    out.put_u8(2);
                    put_error(out, e);
                }
            });
        }
        OpResult::Counter(v) => {
            out.put_u8(5);
            out.put_u64(*v);
        }
    }
}

/// An op's outcome: its [`OpResult`] under tags 1–5, or tag 0 and the
/// error — the tags a top-level response uses too.
fn put_op_outcome(out: &mut Vec<u8>, outcome: &Result<OpResult>) {
    match outcome {
        Ok(result) => put_op_result(out, result),
        Err(e) => {
            out.put_u8(0);
            put_error(out, e);
        }
    }
}

/// Inverse of [`put_op_outcome`] for an already-read `tag`. An `Err`
/// return is a decoding failure; a decoded per-op error is `Ok(Err(_))`.
fn read_op_outcome(tag: u8, r: &mut Reader<'_>) -> Result<Result<OpResult>> {
    let written = |r: &mut Reader<'_>| -> Result<Result<Option<Token>>> {
        match r.u8()? {
            0 => Ok(Ok(None)),
            1 => Ok(Ok(Some(r.u64()?))),
            2 => Ok(Err(read_error(r)?)),
            t => Err(Error::corrupt(format!("bad write result tag {t}"))),
        }
    };
    Ok(Ok(match tag {
        0 => return Ok(Err(read_error(r)?)),
        1 => OpResult::Cell(read_cell(r)?),
        2 => OpResult::Cells(read_seq(r, read_cell)?),
        3 => OpResult::Written(read_opt(r, |r| r.u64())?),
        4 => OpResult::WriteResults(read_seq(r, written)?),
        5 => OpResult::Counter(r.u64()?),
        t => return Err(Error::corrupt(format!("unknown op result tag {t}"))),
    }))
}

// ---------------------------------------------------------------------------
// Message encoding.

impl Request {
    /// Serialize into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Op(op) => put_store_op(&mut out, op),
            Request::Scan { start, end, limit, reverse } => {
                out.put_u8(6);
                put_blob(&mut out, start);
                put_opt(&mut out, end, put_blob);
                out.put_u64(*limit);
                out.put_u8(u8::from(*reverse));
            }
            Request::Ping => out.put_u8(8),
            Request::Batch { ops } => {
                out.put_u8(9);
                put_seq(&mut out, ops, put_store_op);
            }
            Request::ScanPrefixFiltered { prefix, limit, predicate } => {
                out.put_u8(10);
                put_blob(&mut out, prefix);
                out.put_u64(*limit);
                predicate
                    .encode_into(&mut out)
                    .expect("predicate depth is validated at construction");
            }
            Request::CmStart { hint, level } => {
                out.put_u8(16);
                out.put_u64(*hint);
                out.put_u8(level.code());
            }
            Request::CmComplete { tid, committed } => {
                out.put_u8(17);
                out.put_u64(tid.raw());
                out.put_u8(u8::from(*committed));
            }
            Request::CmLav => out.put_u8(18),
            Request::CmSync => out.put_u8(19),
            Request::CmResolve { tid, committed } => {
                out.put_u8(20);
                out.put_u64(tid.raw());
                out.put_u8(u8::from(*committed));
            }
            Request::Metrics => out.put_u8(21),
            Request::Spans { drain } => {
                out.put_u8(22);
                out.put_u8(u8::from(*drain));
            }
            Request::Telemetry { since } => {
                out.put_u8(23);
                out.put_u64(*since);
            }
            Request::ProfileStart { hz } => {
                out.put_u8(25);
                out.put_f64(*hz);
            }
            Request::ProfileStop => out.put_u8(26),
            Request::ProfileFetch => out.put_u8(27),
        }
        out
    }

    /// Parse a request body. The body must be consumed exactly.
    pub fn decode(body: &[u8]) -> Result<Request> {
        let mut r = Reader::new(body);
        let req = match r.u8()? {
            tag @ 1..=5 => Request::Op(read_store_op(tag, &mut r)?),
            6 => Request::Scan {
                start: read_blob(&mut r)?,
                end: read_opt(&mut r, read_blob)?,
                limit: r.u64()?,
                reverse: read_bool(&mut r)?,
            },
            8 => Request::Ping,
            9 => Request::Batch {
                ops: read_seq(&mut r, |r| {
                    let tag = r.u8()?;
                    read_store_op(tag, r)
                })?,
            },
            10 => Request::ScanPrefixFiltered {
                prefix: read_blob(&mut r)?,
                limit: r.u64()?,
                predicate: Predicate::decode_from(&mut r)?,
            },
            16 => {
                let hint = r.u64()?;
                let code = r.u8()?;
                let level = IsolationLevel::from_code(code)
                    .ok_or_else(|| Error::corrupt(format!("bad isolation level {code}")))?;
                Request::CmStart { hint, level }
            }
            17 => Request::CmComplete { tid: TxnId(r.u64()?), committed: read_bool(&mut r)? },
            18 => Request::CmLav,
            19 => Request::CmSync,
            20 => Request::CmResolve { tid: TxnId(r.u64()?), committed: read_bool(&mut r)? },
            21 => Request::Metrics,
            22 => Request::Spans { drain: read_bool(&mut r)? },
            23 => Request::Telemetry { since: r.u64()? },
            25 => Request::ProfileStart { hz: r.f64()? },
            26 => Request::ProfileStop,
            27 => Request::ProfileFetch,
            t => return Err(Error::corrupt(format!("unknown request tag {t}"))),
        };
        expect_exhausted(&r)?;
        Ok(req)
    }
}

impl Response {
    /// Serialize into a fresh body buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Error(e) => {
                out.put_u8(0);
                put_error(&mut out, e);
            }
            Response::Op(result) => put_op_result(&mut out, result),
            Response::Rows(rows) => {
                out.put_u8(6);
                put_seq(&mut out, rows, |out, (key, token, value)| {
                    put_blob(out, key);
                    out.put_u64(*token);
                    out.put_bytes(value.as_ref());
                });
            }
            Response::Pong => out.put_u8(7),
            Response::Batch { results } => {
                out.put_u8(8);
                put_seq(&mut out, results, put_op_outcome);
            }
            Response::TxnStarted { tid, lav, snapshot } => {
                out.put_u8(16);
                out.put_u64(tid.raw());
                out.put_u64(*lav);
                let mut snap = Vec::with_capacity(snapshot.encoded_len());
                snapshot.encode_into(&mut snap);
                out.put_bytes(&snap);
            }
            Response::Unit => out.put_u8(17),
            Response::Lav(v) => {
                out.put_u8(18);
                out.put_u64(*v);
            }
            Response::Metrics(json) => {
                out.put_u8(19);
                out.put_string(json);
            }
            Response::Spans(spans) => {
                out.put_u8(20);
                put_seq(&mut out, spans, |out, s| s.encode(out));
            }
            Response::Telemetry(page) => {
                out.put_u8(21);
                page.encode(&mut out);
            }
            Response::Profile(report) => {
                out.put_u8(22);
                report.encode(&mut out);
            }
        }
        out
    }

    /// Parse a response body. The body must be consumed exactly.
    pub fn decode(body: &[u8]) -> Result<Response> {
        let mut r = Reader::new(body);
        let resp = match r.u8()? {
            tag @ 0..=5 => match read_op_outcome(tag, &mut r)? {
                Ok(result) => Response::Op(result),
                Err(e) => Response::Error(e),
            },
            6 => Response::Rows(read_seq(&mut r, |r| {
                Ok((read_blob(r)?, r.u64()?, Bytes::copy_from_slice(r.bytes()?)))
            })?),
            7 => Response::Pong,
            8 => Response::Batch {
                results: read_seq(&mut r, |r| {
                    let tag = r.u8()?;
                    read_op_outcome(tag, r)
                })?,
            },
            16 => {
                let tid = TxnId(r.u64()?);
                let lav = r.u64()?;
                let snap_bytes = r.bytes()?;
                let (snapshot, used) = SnapshotDescriptor::decode_from(snap_bytes)?;
                if used != snap_bytes.len() {
                    return Err(Error::corrupt("trailing bytes after snapshot descriptor"));
                }
                Response::TxnStarted { tid, lav, snapshot }
            }
            17 => Response::Unit,
            18 => Response::Lav(r.u64()?),
            19 => Response::Metrics(r.string()?),
            20 => Response::Spans(read_seq(&mut r, Span::decode)?),
            21 => Response::Telemetry(TelemetryPage::decode(&mut r)?),
            22 => Response::Profile(ProfileReport::decode(&mut r)?),
            t => return Err(Error::corrupt(format!("unknown response tag {t}"))),
        };
        expect_exhausted(&r)?;
        Ok(resp)
    }
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(Error::corrupt(format!("bad bool tag {t}"))),
    }
}

fn expect_exhausted(r: &Reader<'_>) -> Result<()> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(Error::corrupt(format!(
            "{} trailing bytes after message at offset {}",
            r.remaining(),
            r.position()
        )))
    }
}

// ---------------------------------------------------------------------------
// Frame I/O.

/// Bytes a frame carrying `ctx` spends ahead of its body.
pub fn header_len(ctx: Option<TraceContext>) -> usize {
    FRAME_HEADER + ctx.map_or(0, |c| if c.parent_span == 0 { 8 } else { 16 })
}

/// Bytes of optional header fields announced by `flags`.
fn fields_len(flags: u8) -> Result<usize> {
    match flags {
        0 => Ok(0),
        FLAG_TRACE => Ok(8),
        f if f == FLAG_TRACE | FLAG_SPAN => Ok(16),
        f => Err(Error::corrupt(format!("bad frame flags {f:#04x}"))),
    }
}

/// Parse the header after the length prefix: `(corr_id, ctx, header
/// bytes)`. `after_len` must hold the whole header; the caller checked the
/// fixed part fits.
fn parse_header(after_len: &[u8]) -> Result<(u64, Option<TraceContext>, usize)> {
    let word = |at: usize| u64::from_le_bytes(after_len[at..at + 8].try_into().expect("8 bytes"));
    let fields = fields_len(after_len[8])?;
    let used = FRAME_HEADER - 4 + fields;
    if after_len.len() < used {
        return Err(Error::corrupt("frame shorter than its header"));
    }
    let ctx = match fields {
        0 => None,
        8 => Some(TraceContext { trace: word(9), parent_span: 0 }),
        _ => Some(TraceContext { trace: word(9), parent_span: word(17) }),
    };
    Ok((word(0), ctx, used))
}

fn check_len(len: usize) -> Result<()> {
    if (FRAME_HEADER - 4..=MAX_FRAME).contains(&len) {
        Ok(())
    } else {
        Err(Error::corrupt(format!("invalid frame length {len}")))
    }
}

fn invalid_data(e: Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Write one frame and return the bytes it took on the wire. A context
/// with `parent_span == 0` carries the trace alone.
pub fn write_frame(
    w: &mut impl IoWrite,
    corr_id: u64,
    ctx: Option<TraceContext>,
    body: &[u8],
) -> io::Result<usize> {
    let head_len = header_len(ctx);
    let total = head_len + body.len();
    check_len(total - 4).map_err(invalid_data)?;
    let mut head = [0u8; FRAME_HEADER + 16];
    head[..4].copy_from_slice(&((total - 4) as u32).to_le_bytes());
    head[4..12].copy_from_slice(&corr_id.to_le_bytes());
    if let Some(ctx) = ctx {
        head[12] = FLAG_TRACE;
        head[13..21].copy_from_slice(&ctx.trace.to_le_bytes());
        if ctx.parent_span != 0 {
            head[12] |= FLAG_SPAN;
            head[21..29].copy_from_slice(&ctx.parent_span.to_le_bytes());
        }
    }
    w.write_all(&head[..head_len])?;
    w.write_all(body)?;
    w.flush()?;
    Ok(total)
}

/// Read one frame, returning `(corr_id, ctx, body)`. A clean EOF before
/// any byte of a new frame yields `Ok(None)`; an EOF inside a frame is an
/// error, as is a malformed header or a length outside
/// `[FRAME_HEADER - 4, MAX_FRAME]`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame<Vec<u8>>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    check_len(len).map_err(invalid_data)?;
    let mut frame = vec![0u8; len];
    r.read_exact(&mut frame)?;
    let (corr_id, ctx, used) = parse_header(&frame).map_err(invalid_data)?;
    frame.drain(..used);
    Ok(Some((corr_id, ctx, frame)))
}

/// Incremental frame decoder over an owned receive buffer, for nonblocking
/// readers that get bytes in arbitrary chunks instead of a stream they can
/// block on. Push whatever the socket produced, then drain complete frames;
/// each body comes out as a [`Bytes`] slice of the receive buffer — no copy
/// beyond the socket read itself.
///
/// Validation matches [`read_frame`] exactly: a bad length or header is
/// [`Error::Corrupt`] (the stream is desynchronized and cannot be
/// resynchronized), and bytes short of a full frame simply wait for more
/// input. End-of-stream policy stays with the caller: EOF with
/// [`FrameDecoder::is_idle`] false is the "closed mid-frame" error
/// `read_frame` reports.
#[derive(Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes the transport produced.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True when no partial frame is pending — the state in which peer EOF
    /// is clean rather than mid-frame.
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pop the next complete frame as `(corr_id, ctx, body)`, exactly as
    /// [`read_frame`] returns it. `Ok(None)` means more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame<Bytes>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes checked")) as usize;
        check_len(len)?;
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let (corr_id, ctx, used) = parse_header(&self.buf[4..4 + len])?;
        let frame = self.buf.split_to(4 + len);
        Ok(Some((corr_id, ctx, frame.slice(4 + used..))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tell_obs::{AllocStat, LockStat};

    fn key() -> Key {
        Bytes::copy_from_slice(b"k")
    }

    #[test]
    fn request_roundtrip_covers_every_variant() {
        let key = key();
        let ops = vec![
            StoreOp::Get { key: key.clone() },
            StoreOp::MultiGet { keys: vec![key.clone(), Bytes::new()] },
            StoreOp::Write {
                op: WriteOp::put(key.clone(), Expect::Token(7), Bytes::copy_from_slice(b"v")),
            },
            StoreOp::MultiWrite {
                ops: vec![
                    WriteOp::delete(key.clone(), Expect::Absent),
                    WriteOp::put(key.clone(), Expect::Any, Bytes::new()),
                ],
            },
            StoreOp::Increment { key: key.clone(), delta: 42 },
        ];
        let mut reqs: Vec<Request> = ops.iter().cloned().map(Request::Op).collect();
        reqs.extend([
            Request::Batch { ops },
            Request::Batch { ops: Vec::new() },
            Request::Scan { start: key.clone(), end: None, limit: 10, reverse: true },
            Request::Scan { start: Bytes::new(), end: Some(key.clone()), limit: 1, reverse: false },
            Request::ScanPrefixFiltered {
                prefix: key.clone(),
                limit: 64,
                predicate: Predicate::All(vec![
                    Predicate::value_eq(4, vec![1, 2]),
                    Predicate::KeyPrefix(key.clone()),
                ]),
            },
            Request::Ping,
            Request::CmComplete { tid: TxnId(9), committed: true },
            Request::CmLav,
            Request::CmSync,
            Request::CmResolve { tid: TxnId(1), committed: false },
            Request::Metrics,
            Request::Spans { drain: false },
            Request::Spans { drain: true },
            Request::Telemetry { since: 0 },
            Request::Telemetry { since: u64::MAX },
            Request::ProfileStart { hz: 99.0 },
            Request::ProfileStart { hz: 0.0 },
            Request::ProfileStop,
            Request::ProfileFetch,
        ]);
        reqs.extend(IsolationLevel::ALL.map(|level| Request::CmStart { hint: 3, level }));
        for req in reqs {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip_covers_every_variant() {
        let val = Bytes::copy_from_slice(b"payload");
        let results = [
            OpResult::Cell(None),
            OpResult::Cell(Some((5, val.clone()))),
            OpResult::Cells(vec![None, Some((1, Bytes::new()))]),
            OpResult::Written(None),
            OpResult::Written(Some(8)),
            OpResult::WriteResults(vec![Ok(None), Ok(Some(3)), Err(Error::NotFound)]),
            OpResult::Counter(77),
        ];
        let mut resps: Vec<Response> = results.iter().cloned().map(Response::Op).collect();
        resps.extend([
            Response::Error(Error::Conflict),
            Response::Error(Error::CapacityExceeded { node: 2, capacity: 4096 }),
            Response::Rows(vec![(Bytes::copy_from_slice(b"a"), 1, val.clone())]),
            Response::Pong,
            Response::Batch {
                results: vec![Ok(results[1].clone()), Err(Error::Conflict), Ok(results[6].clone())],
            },
            Response::Batch { results: Vec::new() },
            Response::TxnStarted {
                tid: TxnId(12),
                lav: 4,
                snapshot: SnapshotDescriptor::bootstrap().with_added(TxnId(12)),
            },
            Response::Unit,
            Response::Lav(6),
            Response::Metrics("{\"counters\":{}}".into()),
            Response::Spans(Vec::new()),
            Response::Spans(vec![Span {
                trace: 0xabc,
                id: 2,
                parent: 1,
                kind: tell_obs::SpanKind::ServerDispatch,
                start_virt_us: 1.0,
                end_virt_us: 2.0,
                start_wall_us: 110,
                end_wall_us: 120,
                attrs: tell_obs::SpanAttrs { count: 0, status: tell_obs::SpanStatus::Conflict },
            }]),
            Response::Telemetry(TelemetryPage {
                counter_names: vec!["txn_committed_total".into()],
                gauge_names: vec!["cm_lav".into()],
                phase_names: vec!["txn_total_us".into()],
                points: vec![tell_obs::TsPoint {
                    seq: 3,
                    virt_us: 125.0,
                    wall_us: 9_000,
                    counters: vec![10],
                    gauges: vec![7],
                    phases: vec![tell_obs::PhaseDigest {
                        count: 10,
                        p50: 4.0,
                        p99: 80.0,
                        p999: 81.0,
                    }],
                }],
                next_cursor: 3,
            }),
            Response::Profile(ProfileReport {
                running: true,
                hz: 99.0,
                samples: 1000,
                idle: 17,
                dropped: 3,
                folded: "txn;txn.install 40\ntxn;txn.read 25\n".into(),
                locks: vec![LockStat { name: "cm.state".into(), contended: 12, wait_us: 480 }],
                alloc: vec![AllocStat { frame: "txn.read".into(), allocs: 5, bytes: 640 }],
            }),
        ]);
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn every_error_roundtrips_losslessly() {
        let errors = vec![
            Error::Conflict,
            Error::Aborted("why".into()),
            Error::NotFound,
            Error::Unavailable("sn:0 down".into()),
            Error::CapacityExceeded { node: 1, capacity: 512 },
            Error::Corrupt("bad".into()),
            Error::InvalidOperation("nope".into()),
            Error::Parse { message: "eof".into(), position: 3 },
            Error::Query("unknown column".into()),
            Error::Unsupported("joins".into()),
        ];
        for e in errors {
            let top = Response::Error(e.clone());
            assert_eq!(Response::decode(&top.encode()).unwrap(), top);
            let slot = Response::Batch { results: vec![Err(e)] };
            assert_eq!(Response::decode(&slot.encode()).unwrap(), slot);
        }
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let bodies = [
            Request::Op(StoreOp::Increment { key: key(), delta: 1 }).encode(),
            Request::Batch {
                ops: vec![StoreOp::Get { key: key() }, StoreOp::Increment { key: key(), delta: 2 }],
            }
            .encode(),
            Request::CmStart { hint: 9, level: IsolationLevel::ReadCommitted }.encode(),
            Request::ProfileStart { hz: 99.0 }.encode(),
        ];
        for body in bodies {
            for cut in 0..body.len() {
                assert!(Request::decode(&body[..cut]).is_err(), "prefix of {cut} bytes accepted");
            }
        }
        let bodies = [
            Response::Batch { results: vec![Ok(OpResult::Counter(9)), Err(Error::Conflict)] }
                .encode(),
            Response::Profile(ProfileReport {
                running: true,
                hz: 990.0,
                samples: 9,
                idle: 1,
                dropped: 0,
                folded: "txn 9\n".into(),
                locks: vec![LockStat { name: "cm.state".into(), contended: 1, wait_us: 2 }],
                alloc: vec![AllocStat { frame: "(untracked)".into(), allocs: 1, bytes: 8 }],
            })
            .encode(),
        ];
        for body in bodies {
            for cut in 0..body.len() {
                assert!(Response::decode(&body[..cut]).is_err(), "prefix of {cut} bytes accepted");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))));
    }

    #[test]
    fn batches_hold_only_store_ops() {
        // Tag 9 → count 1 → a Ping or a nested Batch tag where an op
        // belongs: both are corrupt, and neither recurses.
        for inner in [Request::Ping.encode(), Request::Batch { ops: Vec::new() }.encode()] {
            let mut body = vec![9u8];
            body.put_u32(1);
            body.extend_from_slice(&inner);
            assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))));
        }
        // A batch answer slot holding a Pong is corrupt likewise.
        let body = [8, 1, 0, 0, 0, 7];
        assert!(matches!(Response::decode(&body), Err(Error::Corrupt(_))));
    }

    #[test]
    fn invalid_isolation_codes_are_rejected() {
        let mut body = Request::CmStart { hint: 1, level: IsolationLevel::Si }.encode();
        for code in [0u8, 5, 0xF4] {
            *body.last_mut().expect("level byte") = code;
            assert!(matches!(Request::decode(&body), Err(Error::Corrupt(_))));
        }
    }

    #[test]
    fn frame_roundtrip_and_eof_handling() {
        let ctx = TraceContext { trace: 0xdead_beef, parent_span: 0x1234 };
        let trace_only = TraceContext { trace: 5, parent_span: 0 };
        let mut buf = Vec::new();
        assert_eq!(write_frame(&mut buf, 42, None, b"hello").unwrap(), FRAME_HEADER + 5);
        write_frame(&mut buf, 43, Some(trace_only), b"").unwrap();
        write_frame(&mut buf, 44, Some(ctx), b"x").unwrap();
        assert_eq!(buf.len(), 3 * FRAME_HEADER + 5 + 8 + 16 + 1);
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((42, None, b"hello".to_vec())));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((43, Some(trace_only), Vec::new())));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((44, Some(ctx), b"x".to_vec())));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
        // A truncated frame is an error, not a hang or a silent None.
        let mut short = &buf[..buf.len() - 2];
        let _ = read_frame(&mut short).unwrap();
        let _ = read_frame(&mut short).unwrap();
        assert!(read_frame(&mut short).is_err());
    }

    #[test]
    fn span_without_trace_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, Some(TraceContext { trace: 1, parent_span: 2 }), &[8]).unwrap();
        buf[FRAME_HEADER - 1] = FLAG_SPAN;
        assert!(read_frame(&mut &buf[..]).is_err());
        let mut decoder = FrameDecoder::new();
        decoder.push(&buf);
        assert!(matches!(decoder.next_frame(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn oversized_frame_length_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
