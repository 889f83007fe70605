//! Property tests for the tell-rpc wire format: every message round-trips
//! through its encoding, no truncation of a valid message decodes, the
//! blocking and incremental frame readers agree at every split point, and
//! no input — however malformed — panics either decoder.

use bytes::Bytes;
use proptest::prelude::*;
use tell_commitmgr::SnapshotDescriptor;
use tell_common::{BitSet, Error, IsolationLevel, TxnId};
use tell_obs::{PhaseDigest, Span, SpanAttrs, SpanKind, SpanStatus, TelemetryPage, TsPoint};
use tell_rpc::wire::{header_len, read_frame, write_frame, Frame, TraceContext, FRAME_HEADER};
use tell_rpc::{FrameDecoder, Request, Response, MAX_FRAME};
use tell_store::{CmpOp, Expect, OpResult, Predicate, StoreOp, WriteOp};

/// Keys up to the longest the system composes in practice (`keys::record`
/// and friends stay well under this), biased toward the interesting
/// boundary lengths 0 and max.
const MAX_KEY: usize = 256;

fn bytes_strategy(max: usize) -> impl Strategy<Value = Bytes> {
    prop_oneof![
        2 => Just(Bytes::new()),
        1 => prop::collection::vec(any::<u8>(), max).prop_map(Bytes::from),
        5 => prop::collection::vec(any::<u8>(), 0..32).prop_map(Bytes::from),
    ]
}

fn key_strategy() -> impl Strategy<Value = Bytes> {
    bytes_strategy(MAX_KEY)
}

fn expect_strategy() -> impl Strategy<Value = Expect> {
    prop_oneof![Just(Expect::Any), Just(Expect::Absent), any::<u64>().prop_map(Expect::Token),]
}

fn write_op_strategy() -> impl Strategy<Value = WriteOp> {
    (key_strategy(), expect_strategy(), prop::option::of(bytes_strategy(64)))
        .prop_map(|(key, expect, value)| WriteOp { key, expect, value })
}

fn error_strategy() -> impl Strategy<Value = Error> {
    let msg = || ".{0,24}".prop_map(String::from);
    prop_oneof![
        Just(Error::Conflict),
        msg().prop_map(Error::Aborted),
        Just(Error::NotFound),
        msg().prop_map(Error::Unavailable),
        (any::<u32>(), any::<usize>())
            .prop_map(|(node, capacity)| Error::CapacityExceeded { node, capacity }),
        msg().prop_map(Error::Corrupt),
        msg().prop_map(Error::InvalidOperation),
        (msg(), any::<usize>()).prop_map(|(message, position)| Error::Parse { message, position }),
        msg().prop_map(Error::Query),
        msg().prop_map(Error::Unsupported),
    ]
}

fn snapshot_strategy() -> impl Strategy<Value = SnapshotDescriptor> {
    (any::<u64>(), prop::collection::btree_set(0usize..256, 0..24)).prop_map(|(base, ones)| {
        let mut bits = BitSet::new();
        for n in ones {
            bits.set(n);
        }
        SnapshotDescriptor::new(base, bits)
    })
}

fn cell_strategy() -> impl Strategy<Value = Option<(u64, Bytes)>> {
    prop::option::of((any::<u64>(), bytes_strategy(64)))
}

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// Predicate trees up to `depth` combinator levels deep (well inside
/// `MAX_PREDICATE_DEPTH`, which has its own dedicated unit tests).
fn predicate_strategy_at(depth: usize) -> BoxedStrategy<Predicate> {
    let leaf = prop_oneof![
        Just(Predicate::True),
        key_strategy().prop_map(Predicate::KeyPrefix),
        bytes_strategy(32).prop_map(Predicate::ValuePrefix),
        (0usize..64, cmp_op_strategy(), bytes_strategy(16))
            .prop_map(|(offset, op, literal)| Predicate::ValueCompare { offset, op, literal }),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = predicate_strategy_at(depth - 1);
    prop_oneof![
        3 => leaf,
        1 => prop::collection::vec(inner.clone(), 0..4).prop_map(Predicate::All),
        1 => prop::collection::vec(inner.clone(), 0..4).prop_map(Predicate::Any),
        1 => inner.prop_map(|p| Predicate::Not(Box::new(p))),
    ]
    .boxed()
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    predicate_strategy_at(2)
}

fn span_kind_strategy() -> impl Strategy<Value = SpanKind> {
    (0..SpanKind::ALL.len()).prop_map(|i| SpanKind::ALL[i])
}

fn span_status_strategy() -> impl Strategy<Value = SpanStatus> {
    prop_oneof![Just(SpanStatus::Ok), Just(SpanStatus::Conflict), Just(SpanStatus::Error)]
}

/// Spans with finite virtual clocks (real timers never record NaN or
/// infinities, and `PartialEq` on the round-trip demands reflexive floats).
fn span_strategy() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), span_kind_strategy()),
        (0u32..1_000_000, 0u32..1_000_000, any::<u64>(), any::<u64>()),
        (any::<u32>(), span_status_strategy()),
    )
        .prop_map(|((trace, id, parent, kind), (sv, ev, sw, ew), (count, status))| Span {
            trace,
            id,
            parent,
            kind,
            start_virt_us: sv as f64,
            end_virt_us: ev as f64,
            start_wall_us: sw,
            end_wall_us: ew,
            attrs: SpanAttrs { count, status },
        })
}

/// Every `StoreOp` shape, all fields randomized.
fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        key_strategy().prop_map(|key| StoreOp::Get { key }),
        prop::collection::vec(key_strategy(), 0..6).prop_map(|keys| StoreOp::MultiGet { keys }),
        write_op_strategy().prop_map(|op| StoreOp::Write { op }),
        prop::collection::vec(write_op_strategy(), 0..6)
            .prop_map(|ops| StoreOp::MultiWrite { ops }),
        (key_strategy(), any::<u64>()).prop_map(|(key, delta)| StoreOp::Increment { key, delta }),
    ]
}

fn level_strategy() -> impl Strategy<Value = IsolationLevel> {
    (0..IsolationLevel::ALL.len()).prop_map(|i| IsolationLevel::ALL[i])
}

/// Every `Request` variant, all fields randomized.
fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        4 => store_op_strategy().prop_map(Request::Op),
        1 => prop::collection::vec(store_op_strategy(), 0..5).prop_map(|ops| Request::Batch { ops }),
        1 => (key_strategy(), prop::option::of(key_strategy()), any::<u64>(), any::<bool>())
            .prop_map(|(start, end, limit, reverse)| Request::Scan { start, end, limit, reverse }),
        1 => (key_strategy(), any::<u64>(), predicate_strategy()).prop_map(
            |(prefix, limit, predicate)| Request::ScanPrefixFiltered { prefix, limit, predicate }
        ),
        1 => Just(Request::Ping),
        1 => (any::<u64>(), level_strategy())
            .prop_map(|(hint, level)| Request::CmStart { hint, level }),
        1 => (any::<u64>(), any::<bool>())
            .prop_map(|(tid, committed)| Request::CmComplete { tid: TxnId(tid), committed }),
        1 => Just(Request::CmLav),
        1 => Just(Request::CmSync),
        1 => (any::<u64>(), any::<bool>())
            .prop_map(|(tid, committed)| Request::CmResolve { tid: TxnId(tid), committed }),
        1 => any::<bool>().prop_map(|drain| Request::Spans { drain }),
        1 => any::<u64>().prop_map(|since| Request::Telemetry { since }),
    ]
}

/// Metric names as the registry produces them (snake_case identifiers).
fn metric_name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,30}"
}

/// Time-series points with finite clocks and digests, the domain `Rollup`
/// produces (reflexive floats, so `PartialEq` holds on the round trip).
fn ts_point_strategy() -> impl Strategy<Value = TsPoint> {
    (
        (any::<u64>(), 0u32..1_000_000, any::<u64>()),
        prop::collection::vec(any::<u64>(), 0..8),
        prop::collection::vec(any::<u64>(), 0..8),
        prop::collection::vec(
            (any::<u64>(), 0u32..1_000_000, 0u32..1_000_000, 0u32..1_000_000).prop_map(
                |(count, p50, p99, p999)| PhaseDigest {
                    count,
                    p50: p50 as f64,
                    p99: p99 as f64,
                    p999: p999 as f64,
                },
            ),
            0..4,
        ),
    )
        .prop_map(|((seq, virt, wall_us), counters, gauges, phases)| TsPoint {
            seq,
            virt_us: virt as f64,
            wall_us,
            counters,
            gauges,
            phases,
        })
}

fn telemetry_page_strategy() -> impl Strategy<Value = TelemetryPage> {
    (
        prop::collection::vec(metric_name_strategy(), 0..6),
        prop::collection::vec(metric_name_strategy(), 0..6),
        prop::collection::vec(metric_name_strategy(), 0..4),
        prop::collection::vec(ts_point_strategy(), 0..4),
        any::<u64>(),
    )
        .prop_map(|(counter_names, gauge_names, phase_names, points, next_cursor)| {
            TelemetryPage { counter_names, gauge_names, phase_names, points, next_cursor }
        })
}

/// Every `OpResult` shape, all fields randomized.
fn op_result_strategy() -> impl Strategy<Value = OpResult> {
    prop_oneof![
        cell_strategy().prop_map(OpResult::Cell),
        prop::collection::vec(cell_strategy(), 0..6).prop_map(OpResult::Cells),
        prop::option::of(any::<u64>()).prop_map(OpResult::Written),
        prop::collection::vec(
            prop_oneof![
                prop::option::of(any::<u64>()).prop_map(Ok),
                error_strategy().prop_map(Err),
            ],
            0..6,
        )
        .prop_map(OpResult::WriteResults),
        any::<u64>().prop_map(OpResult::Counter),
    ]
}

/// One per-op slot of a batch answer: a result or a typed error.
fn op_outcome_strategy() -> impl Strategy<Value = Result<OpResult, Error>> {
    prop_oneof![3 => op_result_strategy().prop_map(Ok), 1 => error_strategy().prop_map(Err)]
}

/// Every `Response` variant, all fields randomized.
fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        2 => error_strategy().prop_map(Response::Error),
        4 => op_result_strategy().prop_map(Response::Op),
        1 => prop::collection::vec(op_outcome_strategy(), 0..5)
            .prop_map(|results| Response::Batch { results }),
        1 => prop::collection::vec((key_strategy(), any::<u64>(), bytes_strategy(64)), 0..6)
            .prop_map(Response::Rows),
        1 => Just(Response::Pong),
        1 => (any::<u64>(), any::<u64>(), snapshot_strategy()).prop_map(|(tid, lav, snapshot)| {
            Response::TxnStarted { tid: TxnId(tid), lav, snapshot }
        }),
        1 => Just(Response::Unit),
        1 => any::<u64>().prop_map(Response::Lav),
        1 => prop::collection::vec(span_strategy(), 0..6).prop_map(Response::Spans),
        1 => telemetry_page_strategy().prop_map(Response::Telemetry),
    ]
}

fn ctx_strategy() -> impl Strategy<Value = Option<TraceContext>> {
    prop::option::of((any::<u64>(), prop_oneof![Just(0), any::<u64>()]))
        .prop_map(|ctx| ctx.map(|(trace, parent_span)| TraceContext { trace, parent_span }))
}

type Framed = Vec<Frame<Vec<u8>>>;

/// A stream of `frames`, and the frames as `read_frame` reports them.
fn frame_stream(frames: &[(Request, u64, Option<TraceContext>)]) -> (Vec<u8>, Framed) {
    let mut stream = Vec::new();
    for (request, corr_id, ctx) in frames {
        write_frame(&mut stream, *corr_id, *ctx, &request.encode()).unwrap();
    }
    let mut reader = &stream[..];
    let mut read = Vec::new();
    while let Some(frame) = read_frame(&mut reader).unwrap() {
        read.push(frame);
    }
    (stream, read)
}

/// Drain `decoder`, panicking on a decode error.
fn drain(decoder: &mut FrameDecoder, into: &mut Framed) {
    while let Some((corr_id, ctx, body)) = decoder.next_frame().unwrap() {
        into.push((corr_id, ctx, body.to_vec()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips(request in request_strategy()) {
        let encoded = request.encode();
        prop_assert_eq!(Request::decode(&encoded).unwrap(), request);
    }

    #[test]
    fn response_roundtrips(response in response_strategy()) {
        let encoded = response.encode();
        prop_assert_eq!(Response::decode(&encoded).unwrap(), response);
    }

    /// No strict prefix of a valid message decodes — a truncated body can
    /// never be mistaken for a (different) complete message.
    #[test]
    fn truncated_requests_never_decode(request in request_strategy()) {
        let encoded = request.encode();
        for cut in 0..encoded.len() {
            prop_assert!(
                Request::decode(&encoded[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    #[test]
    fn truncated_responses_never_decode(response in response_strategy()) {
        let encoded = response.encode();
        for cut in 0..encoded.len() {
            prop_assert!(
                Response::decode(&encoded[..cut]).is_err(),
                "prefix of length {} decoded", cut
            );
        }
    }

    /// A frame round-trips its correlation id, trace context and body, its
    /// size is exactly what `header_len` promises, and cutting it anywhere
    /// turns it into either a clean end-of-stream (cut at byte 0) or a hard
    /// I/O error — never a silently short frame.
    #[test]
    fn frames_roundtrip_and_truncations_are_rejected(
        request in request_strategy(),
        corr_id in any::<u64>(),
        ctx in ctx_strategy(),
    ) {
        let body = request.encode();
        let mut framed = Vec::new();
        let sent = write_frame(&mut framed, corr_id, ctx, &body).unwrap();
        prop_assert_eq!(sent, framed.len());
        prop_assert_eq!(framed.len(), header_len(ctx) + body.len());

        let (got_corr, got_ctx, got_body) =
            read_frame(&mut &framed[..]).unwrap().expect("whole frame reads back");
        prop_assert_eq!(got_corr, corr_id);
        prop_assert_eq!(got_ctx, ctx);
        prop_assert_eq!(&Request::decode(&got_body).unwrap(), &request);

        prop_assert!(read_frame(&mut &framed[..0]).unwrap().is_none(), "empty = clean EOF");
        for cut in 1..framed.len() {
            prop_assert!(
                read_frame(&mut &framed[..cut]).is_err(),
                "frame prefix of length {} read back", cut
            );
        }
    }

    /// The incremental [`FrameDecoder`] (the reactor's receive path) agrees
    /// with the blocking `read_frame` no matter how the byte stream is cut:
    /// a run of frames with every header shape, fed one byte at a time —
    /// every split point a TCP segmentation could produce — and again in
    /// arbitrary chunk sizes, yields the identical frame sequence, with no
    /// frame surfacing before its last byte arrives.
    #[test]
    fn frame_decoder_agrees_with_read_frame_at_every_split(
        frames in prop::collection::vec((request_strategy(), any::<u64>(), ctx_strategy()), 1..5),
        chunk_sizes in prop::collection::vec(1usize..9, 1..16),
    ) {
        let (stream, expected) = frame_stream(&frames);
        prop_assert_eq!(expected.len(), frames.len());

        // Byte at a time: the worst case, hitting every split point.
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for &byte in &stream {
            decoder.push(&[byte]);
            drain(&mut decoder, &mut got);
        }
        prop_assert_eq!(&got, &expected);
        prop_assert!(decoder.is_idle(), "no partial frame may linger");

        // Arbitrary chunk sizes (cycled over the generated list).
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        let mut offset = 0;
        for chunk in chunk_sizes.iter().cycle() {
            if offset >= stream.len() {
                break;
            }
            let end = (offset + chunk).min(stream.len());
            decoder.push(&stream[offset..end]);
            offset = end;
            drain(&mut decoder, &mut got);
        }
        prop_assert_eq!(&got, &expected);
        prop_assert!(decoder.is_idle());

        for ((request, _, _), (_, _, body)) in frames.iter().zip(&got) {
            prop_assert_eq!(&Request::decode(body).unwrap(), request);
        }
    }

    /// Arbitrary bytes — and valid frames with one byte overwritten — never
    /// panic either frame reader or either message decoder: every outcome
    /// is a frame, "need more bytes", or a typed error.
    #[test]
    fn malformed_input_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..96),
        frames in prop::collection::vec((request_strategy(), any::<u64>(), ctx_strategy()), 1..3),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let (mut stream, _) = frame_stream(&frames);
        let i = at % stream.len();
        stream[i] = byte;
        for input in [&garbage[..], &stream[..]] {
            let _ = Request::decode(input);
            let _ = Response::decode(input);
            let mut reader = input;
            while let Ok(Some(_)) = read_frame(&mut reader) {}
            let mut decoder = FrameDecoder::new();
            decoder.push(input);
            while let Ok(Some((_, _, body))) = decoder.next_frame() {
                let _ = Request::decode(&body);
                let _ = Response::decode(&body);
            }
        }
    }

    /// The flags byte admits exactly three headers — no context, trace,
    /// trace plus parent span. Any other value is corrupt in both readers,
    /// even when the frame is long enough to hold the fields it claims.
    #[test]
    fn unknown_flag_bits_are_rejected(
        flags in any::<u8>().prop_filter("a valid flags byte", |f| ![0, 1, 3].contains(f)),
        corr_id in any::<u64>(),
    ) {
        let body = Request::Ping.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, corr_id, None, &body).unwrap();
        framed[FRAME_HEADER - 1] = flags;
        framed.extend_from_slice(&[0u8; 16]);
        let len = (framed.len() - 4) as u32;
        framed[..4].copy_from_slice(&len.to_le_bytes());

        prop_assert!(read_frame(&mut &framed[..]).is_err());
        let mut decoder = FrameDecoder::new();
        decoder.push(&framed);
        prop_assert!(matches!(decoder.next_frame(), Err(Error::Corrupt(_))));
    }
}

#[test]
fn zero_length_values_survive_the_full_cycle() {
    let op = WriteOp { key: Bytes::new(), expect: Expect::Absent, value: Some(Bytes::new()) };
    let request = Request::Op(StoreOp::Write { op });
    assert_eq!(Request::decode(&request.encode()).unwrap(), request);

    let response = Response::Op(OpResult::Cell(Some((0, Bytes::new()))));
    assert_eq!(Response::decode(&response.encode()).unwrap(), response);
}

#[test]
fn frame_decoder_rejects_desynchronized_lengths() {
    // len < 9 (no room for the correlation id and flags): corrupt, not
    // "wait for more".
    let mut decoder = FrameDecoder::new();
    decoder.push(&8u32.to_le_bytes());
    assert!(decoder.next_frame().is_err());

    // len > MAX_FRAME: corrupt immediately, before any body bytes arrive.
    let mut decoder = FrameDecoder::new();
    decoder.push(&((MAX_FRAME as u32) + 1).to_le_bytes());
    assert!(decoder.next_frame().is_err());

    // Flags announcing a trace the frame is too short to hold: corrupt.
    let mut short = Vec::new();
    short.extend_from_slice(&12u32.to_le_bytes());
    short.extend_from_slice(&7u64.to_le_bytes());
    short.extend_from_slice(&[1, 0, 0, 0]);
    let mut decoder = FrameDecoder::new();
    decoder.push(&short);
    assert!(decoder.next_frame().is_err());
    assert!(read_frame(&mut &short[..]).is_err());

    // A mid-frame cut is not an error — just not a frame yet.
    let mut framed = Vec::new();
    write_frame(&mut framed, 7, None, &Request::Ping.encode()).unwrap();
    let mut decoder = FrameDecoder::new();
    decoder.push(&framed[..framed.len() - 1]);
    assert!(decoder.next_frame().unwrap().is_none());
    assert!(!decoder.is_idle());
    assert_eq!(decoder.buffered(), framed.len() - 1);
}

#[test]
fn megabyte_keys_roundtrip() {
    let key = Bytes::from(vec![0xa5u8; 1 << 20]);
    let request = Request::Op(StoreOp::Get { key: key.clone() });
    assert_eq!(Request::decode(&request.encode()).unwrap(), request);

    let response = Response::Rows(vec![(key, 7, Bytes::from_static(b"v"))]);
    assert_eq!(Response::decode(&response.encode()).unwrap(), response);
}
