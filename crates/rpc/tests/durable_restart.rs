//! End-to-end durability over real loopback TCP: a storage server backed
//! by the tell-durable log tier is killed mid-window and restarted from
//! its data directory — the same lifecycle as `tell_sn --data-dir` being
//! SIGKILLed and relaunched. In-flight `Request::Batch` windows resolve to
//! typed per-op errors, and after the restart every acknowledged write is
//! readable again.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use tell_common::{Error, Result, SnId};
use tell_durable::{DurableNodeConfig, FsDurability, FsyncPolicy};
use tell_rpc::{Connection, Request, Response, RpcServer};
use tell_store::{
    DurabilityProvider, Expect, OpResult, StoreCluster, StoreConfig, StoreOp, WriteOp,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tell-rpc-durable-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small segments so a handful of writes exercises rotation, and
/// `Always` fsync so an ack really means "on disk" — the contract the
/// post-restart assertions lean on.
fn provider(root: &Path) -> Arc<dyn DurabilityProvider> {
    FsDurability::new(
        root.to_path_buf(),
        DurableNodeConfig {
            segment_bytes: 512,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 32,
            cache_bytes: 1 << 20,
            background_eviction: false,
        },
    )
}

/// Boot (or re-boot) a durable storage server over `root`. Each call
/// builds a fresh provider and recovers from whatever the previous
/// incarnation left on disk, exactly as a restarted `tell_sn` process
/// would.
fn boot(root: &Path, nodes: usize) -> (Arc<StoreCluster>, RpcServer) {
    let store = StoreCluster::open(StoreConfig::new(nodes).durability(provider(root)))
        .expect("durable recovery");
    let server = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&store)).unwrap();
    (store, server)
}

fn put(key: &Bytes, round: u64) -> StoreOp {
    StoreOp::Write {
        op: WriteOp::put(key.clone(), Expect::Any, Bytes::from(round.to_be_bytes().to_vec())),
    }
}

fn get(key: &Bytes) -> StoreOp {
    StoreOp::Get { key: key.clone() }
}

fn batch(conn: &Connection, ops: Vec<StoreOp>) -> Vec<Result<OpResult>> {
    let (resp, _, _) = conn.call(&Request::Batch { ops }).unwrap();
    let Response::Batch { results } = resp else { panic!("expected Batch, got {resp:?}") };
    results
}

fn round_of(resp: &Result<OpResult>) -> u64 {
    let Ok(OpResult::Cell(Some((_, value)))) = resp else {
        panic!("expected a cell, got {resp:?}")
    };
    u64::from_be_bytes(value[..8].try_into().unwrap())
}

#[test]
fn killed_durable_server_restarts_from_data_dir_with_every_acked_write() {
    let root = fresh_root("restart");
    let keys: Vec<Bytes> = (0..16u64).map(|i| Bytes::from(format!("dur/e2e/{i}"))).collect();

    // First incarnation: two nodes, rf 1, so each owns half the keys.
    let (store, server) = boot(&root, 2);
    let conn = Connection::connect(&server.local_addr().to_string()).unwrap();

    // Round 0, everything alive: seed every key in one frame; all acked.
    let results = batch(&conn, keys.iter().map(|k| put(k, 0)).collect());
    assert!(results.iter().all(|r| matches!(r, Ok(OpResult::Written(Some(_))))));

    // One storage node dies with a round-1 window outstanding. The TCP
    // server stays up, so the batch comes back promptly with typed per-op
    // errors in the dead keys' slots — acks only for the survivor's keys.
    store.kill_node(SnId(1));
    let results = batch(&conn, keys.iter().map(|k| put(k, 1)).collect());
    let mut acked_round1 = Vec::new();
    let mut errored = 0;
    for (key, result) in keys.iter().zip(&results) {
        match result {
            Ok(OpResult::Written(Some(_))) => acked_round1.push(key.clone()),
            Err(Error::Unavailable(_)) => errored += 1,
            other => panic!("expected an ack or a typed error, got {other:?}"),
        }
    }
    assert!(!acked_round1.is_empty(), "some keys stay on the surviving node");
    assert!(errored > 0, "some keys were on the killed node");

    // The whole process dies: server and cluster drop, the data dir stays.
    drop(conn);
    drop(server);
    drop(store);

    // Second incarnation over the same directory. Recovery must surface
    // exactly the acked writes: round 1 where the ack came back, round 0
    // where the window errored — nothing torn, nothing lost.
    let (_store2, server2) = boot(&root, 2);
    let conn = Connection::connect(&server2.local_addr().to_string()).unwrap();
    let results = batch(&conn, keys.iter().map(get).collect());
    for (key, result) in keys.iter().zip(&results) {
        let expected = if acked_round1.contains(key) { 1 } else { 0 };
        assert_eq!(round_of(result), expected, "key {key:?} after restart");
    }

    // The restarted server is fully writable: a round-2 window on every
    // key acks, and reads see it.
    let results = batch(&conn, keys.iter().map(|k| put(k, 2)).collect());
    assert!(results.iter().all(|r| matches!(r, Ok(OpResult::Written(Some(_))))));
    let results = batch(&conn, keys.iter().map(get).collect());
    assert!(results.iter().all(|r| round_of(r) == 2));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_counters_are_visible_over_a_metrics_scrape() {
    let root = fresh_root("metrics");
    let keys: Vec<Bytes> = (0..8u64).map(|i| Bytes::from(format!("dur/metrics/{i}"))).collect();

    let (_store, server) = boot(&root, 1);
    let conn = Connection::connect(&server.local_addr().to_string()).unwrap();
    let results = batch(&conn, keys.iter().map(|k| put(k, 0)).collect());
    assert!(results.iter().all(|r| matches!(r, Ok(OpResult::Written(Some(_))))));
    drop(conn);
    drop(server);
    drop(_store);

    // Restart so the scrape covers the recovery counters too.
    let (_store2, server2) = boot(&root, 1);
    let conn = Connection::connect(&server2.local_addr().to_string()).unwrap();
    let results = batch(&conn, keys.iter().map(get).collect());
    assert!(results.iter().all(|r| round_of(r) == 0));

    let (resp, _, _) = conn.call(&Request::Metrics).unwrap();
    let Response::Metrics(json) = resp else { panic!("expected Metrics, got {resp:?}") };
    let snap = tell_obs::MetricsSnapshot::from_json(&json).unwrap();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} missing"))
            .1
    };
    assert!(counter("durable_log_appends_total") >= keys.len() as u64);
    assert!(counter("durable_fsyncs_total") > 0);
    assert!(counter("durable_recovered_records_total") >= keys.len() as u64);

    let _ = std::fs::remove_dir_all(&root);
}
