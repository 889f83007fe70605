//! Criterion micro-benchmarks for the core data structures and primitives:
//! LL/SC operations, snapshot descriptors, record codec + GC, the
//! distributed B+tree, the row codec, and buffer lookups.

use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tell_commitmgr::SnapshotDescriptor;
use tell_common::{BitSet, IndexId, TxnId};
use tell_core::VersionedRecord;
use tell_index::{BTreeConfig, DistributedBTree};
use tell_sql::row::{decode_row, encode_key, encode_row};
use tell_sql::{Column, DataType, TableSchema, Value};
use tell_store::{StoreApi, StoreClient, StoreCluster, StoreConfig};

fn bench_llsc(c: &mut Criterion) {
    let cluster = StoreCluster::new(StoreConfig::new(2));
    let client = StoreClient::unmetered(cluster);
    let key = Bytes::from_static(b"hot");
    client.insert(&key, Bytes::from_static(b"payload")).unwrap();
    c.bench_function("store/llsc_read_modify_write", |b| {
        b.iter(|| {
            let (token, _) = client.get(&key).unwrap().unwrap();
            client.store_conditional(&key, token, Bytes::from_static(b"payload")).unwrap()
        })
    });
    c.bench_function("store/get", |b| b.iter(|| client.get(black_box(&key)).unwrap()));
    let counter = tell_store::keys::counter("bench");
    c.bench_function("store/increment", |b| b.iter(|| client.increment(&counter, 64).unwrap()));
}

fn bench_snapshot(c: &mut Criterion) {
    let mut bits = BitSet::new();
    for i in (0..10_000).step_by(3) {
        bits.set(i);
    }
    let snap = SnapshotDescriptor::new(1_000_000, bits);
    c.bench_function("snapshot/contains", |b| {
        b.iter(|| {
            black_box(snap.contains(black_box(1_004_999)))
                ^ black_box(snap.contains(black_box(999)))
        })
    });
    let versions: Vec<u64> = (999_990..1_000_010).collect();
    c.bench_function("snapshot/max_visible", |b| {
        b.iter(|| snap.max_visible(black_box(versions.iter().copied())))
    });
    c.bench_function("snapshot/encode", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(snap.encoded_len());
            snap.encode_into(&mut out);
            out
        })
    });
}

fn bench_record(c: &mut Criterion) {
    let mut rec = VersionedRecord::with_initial(TxnId(0), Bytes::from(vec![1u8; 128]));
    for t in 1..16u64 {
        rec.add_version(TxnId(t * 5), Some(Bytes::from(vec![t as u8; 128])));
    }
    let encoded = rec.encode();
    c.bench_function("record/encode_16_versions", |b| b.iter(|| black_box(&rec).encode()));
    c.bench_function("record/decode_16_versions", |b| {
        b.iter(|| VersionedRecord::decode(black_box(&encoded)).unwrap())
    });
    c.bench_function("record/gc", |b| {
        b.iter(|| {
            let mut r = rec.clone();
            r.gc(black_box(40));
            r
        })
    });
}

fn bench_btree(c: &mut Criterion) {
    let cluster = StoreCluster::new(StoreConfig::new(2));
    let tree = DistributedBTree::create(
        StoreClient::unmetered(Arc::clone(&cluster)),
        IndexId(1),
        BTreeConfig::default(),
    )
    .unwrap();
    for i in 0..10_000u64 {
        tree.insert(Bytes::copy_from_slice(&i.to_be_bytes()), i).unwrap();
    }
    let probe = Bytes::copy_from_slice(&4242u64.to_be_bytes());
    c.bench_function("btree/lookup_10k", |b| b.iter(|| tree.lookup(black_box(&probe)).unwrap()));
    let mut next = 10_000u64;
    c.bench_function("btree/insert", |b| {
        b.iter(|| {
            next += 1;
            tree.insert(Bytes::copy_from_slice(&next.to_be_bytes()), next).unwrap()
        })
    });
    c.bench_function("btree/range_100", |b| {
        b.iter(|| {
            tree.range(black_box(&Bytes::copy_from_slice(&1000u64.to_be_bytes())), None, 100)
                .unwrap()
        })
    });
}

fn bench_row_codec(c: &mut Criterion) {
    let schema = TableSchema {
        name: "bench".into(),
        columns: vec![
            Column { name: "a".into(), dtype: DataType::Int, nullable: false },
            Column { name: "b".into(), dtype: DataType::Double, nullable: false },
            Column { name: "c".into(), dtype: DataType::Text, nullable: true },
            Column { name: "d".into(), dtype: DataType::Int, nullable: false },
        ],
        primary_key: vec![0],
        secondary: vec![],
    };
    let row = vec![
        Value::Int(42),
        Value::Double(3.25),
        Value::Text("some moderately sized text value".into()),
        Value::Int(7),
    ];
    let encoded = encode_row(&schema, &row).unwrap();
    c.bench_function("row/encode", |b| b.iter(|| encode_row(&schema, black_box(&row)).unwrap()));
    c.bench_function("row/decode", |b| {
        b.iter(|| decode_row(&schema, black_box(&encoded)).unwrap())
    });
    c.bench_function("row/encode_key", |b| {
        b.iter(|| encode_key(black_box(&[Value::Int(1), Value::Int(2), Value::Text("k".into())])))
    });
}

/// Observability overhead: the same store operation with the registry
/// recording vs disabled (a disabled registry reduces every metric call to
/// one relaxed load). The enabled/disabled pair is the "< 5 % overhead"
/// check — compare `obs/store_get_enabled` against `obs/store_get_disabled`.
fn bench_obs(c: &mut Criterion) {
    let cluster = StoreCluster::new(StoreConfig::new(2));
    let client = StoreClient::unmetered(cluster);
    let key = Bytes::from_static(b"obs");
    client.insert(&key, Bytes::from(vec![7u8; 128])).unwrap();

    tell_obs::set_enabled(false);
    c.bench_function("obs/store_get_disabled", |b| b.iter(|| client.get(black_box(&key)).unwrap()));
    tell_obs::set_enabled(true);
    c.bench_function("obs/store_get_enabled", |b| b.iter(|| client.get(black_box(&key)).unwrap()));

    c.bench_function("obs/counter_incr", |b| {
        b.iter(|| tell_obs::incr(black_box(tell_obs::Counter::TxnCommitted)))
    });
    c.bench_function("obs/histogram_observe", |b| {
        b.iter(|| tell_obs::observe(black_box(tell_obs::Phase::TxnTotal), black_box(42.0)))
    });
    c.bench_function("obs/snapshot", |b| b.iter(tell_obs::snapshot));

    // The denominator that matters: a whole update transaction (begin,
    // read, update, LL/SC commit, CM completion). The handful of counter
    // bumps and (sampled) phase observations it triggers must stay under
    // 5 % of it. Measured by hand rather than as two criterion entries:
    // process speed drifts over a run (frequency scaling, co-tenant VMs),
    // so two independently-timed arms would mostly measure that drift.
    // Instead the arms run in tightly interleaved A-B-B-A blocks and the
    // reported figure is the median of per-block deltas: each block spans
    // a few tens of milliseconds, so drift slower than that cancels within
    // the pair, and the median discards blocks hit by preemption bursts.
    let (db, table) = {
        use tell_core::database::IndexSpec;
        use tell_core::{Database, TellConfig};
        let db = Database::create(TellConfig::default());
        let pk = IndexSpec::new("pk", true, |r: &[u8]| r.get(..8).map(Bytes::copy_from_slice));
        let table = db.create_table("bench", vec![pk]).unwrap();
        (db, table)
    };
    let pn = db.processing_node();
    let rid = {
        let mut txn = pn.begin().unwrap();
        let rid = txn.insert(&table, Bytes::from(vec![1u8; 64])).unwrap();
        txn.commit().unwrap();
        rid
    };
    let run_txn = |payload: u8| {
        let mut txn = pn.begin().unwrap();
        txn.update(&table, rid, Bytes::from(vec![payload; 64])).unwrap();
        txn.commit().unwrap();
    };
    const TXNS_PER_BATCH: u32 = 5_000;
    const BLOCKS: usize = 60;
    for on in [false, true] {
        tell_obs::set_enabled(on);
        for _ in 0..TXNS_PER_BATCH {
            run_txn(9);
        }
    }
    let time_batch = |on: bool| {
        tell_obs::set_enabled(on);
        let t = std::time::Instant::now();
        for _ in 0..TXNS_PER_BATCH {
            run_txn(if on { 3 } else { 2 });
        }
        t.elapsed().as_nanos() as f64 / TXNS_PER_BATCH as f64
    };
    let mut deltas = Vec::with_capacity(BLOCKS);
    let mut disabled_ns = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        // A-B-B-A: linear drift within the block cancels exactly.
        let d1 = time_batch(false);
        let e1 = time_batch(true);
        let e2 = time_batch(true);
        let d2 = time_batch(false);
        deltas.push((e1 + e2 - d1 - d2) / 2.0);
        disabled_ns.push((d1 + d2) / 2.0);
    }
    deltas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    disabled_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let delta = deltas[BLOCKS / 2];
    let disabled = disabled_ns[BLOCKS / 2];
    let enabled = disabled + delta;
    println!(
        "{:<40} {:>12} iters  {:>12.1} ns/iter",
        "obs/txn_update_disabled",
        TXNS_PER_BATCH as usize * BLOCKS * 2,
        disabled
    );
    println!(
        "{:<40} {:>12} iters  {:>12.1} ns/iter",
        "obs/txn_update_enabled",
        TXNS_PER_BATCH as usize * BLOCKS * 2,
        enabled
    );
    println!(
        "{:<40} {:>33.2} %  (bound: < 5 %)",
        "obs/txn_update_overhead",
        delta / disabled * 100.0
    );
}

criterion_group!(
    benches,
    bench_llsc,
    bench_snapshot,
    bench_record,
    bench_btree,
    bench_row_codec,
    bench_obs
);
criterion_main!(benches);
