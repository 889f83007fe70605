//! `StoreApi` parity: one scripted sequence of every storage operation runs
//! against an in-process `StoreClient` and against a `RemoteStoreClient`
//! over a loopback `RpcServer`. Both sides start from identically
//! configured empty clusters, so every result — tokens included — and
//! every typed error must match exactly.

use std::sync::Arc;

use bytes::Bytes;
use tell_common::Error;
use tell_rpc::{RemoteEndpoint, RpcServer};
use tell_store::{
    keys, Expect, Predicate, StoreApi, StoreClient, StoreCluster, StoreConfig, StoreEndpoint,
    WriteOp,
};

fn k(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

fn v(s: &str) -> Bytes {
    Bytes::copy_from_slice(s.as_bytes())
}

/// Run the script, asserting the semantics each step must have on any
/// transport, and return one `label: outcome` line per step for the
/// cross-transport comparison.
fn script<C: StoreApi>(c: &C) -> Vec<String> {
    let mut log = Vec::new();
    let mut note = |label: &str, outcome: String| log.push(format!("{label}: {outcome}"));

    let t1 = c.insert(&k("a"), v("1")).unwrap();
    note("insert a", format!("{t1:?}"));
    let dup = c.insert(&k("a"), v("x"));
    assert_eq!(dup, Err(Error::Conflict), "insert of an existing key");
    note("insert a again", format!("{dup:?}"));

    let got = c.get(&k("a")).unwrap();
    assert_eq!(got, Some((t1, v("1"))));
    note("get a", format!("{got:?}"));
    note("get missing", format!("{:?}", c.get(&k("missing"))));

    let t2 = c.store_conditional(&k("a"), t1, v("2")).unwrap();
    note("sc a", format!("{t2:?}"));
    let stale = c.store_conditional(&k("a"), t1, v("3"));
    assert_eq!(stale, Err(Error::Conflict), "stale store-conditional");
    note("stale sc a", format!("{stale:?}"));

    let tb = c.put(&k("b"), v("b1")).unwrap();
    note("put b", format!("{tb:?}"));
    let tb2 = c.put(&k("b"), v("b2")).unwrap();
    note("put b again", format!("{tb2:?}"));
    note("multi_get", format!("{:?}", c.multi_get(&[k("a"), k("missing"), k("b")])));
    note("multi_get empty", format!("{:?}", c.multi_get(&[])));

    let absent_delete = c.write_async(WriteOp::delete(k("b"), Expect::Absent)).wait();
    assert!(
        matches!(absent_delete, Err(Error::InvalidOperation(_))),
        "(Expect::Absent, None) write: {absent_delete:?}"
    );
    note("absent delete", format!("{absent_delete:?}"));

    let stale_delete = c.delete_conditional(&k("b"), tb);
    assert_eq!(stale_delete, Err(Error::Conflict), "stale delete_conditional");
    note("stale delete_conditional b", format!("{stale_delete:?}"));
    note("delete_conditional b", format!("{:?}", c.delete_conditional(&k("b"), tb2)));
    note("get deleted b", format!("{:?}", c.get(&k("b"))));
    note("delete missing", format!("{:?}", c.delete(&k("missing"))));
    c.put(&k("c"), v("c")).unwrap();
    note("delete c", format!("{:?}", c.delete(&k("c"))));

    let results = c
        .multi_write(vec![
            WriteOp::put(k("a"), Expect::Token(t2), v("4")),
            WriteOp::put(k("a"), Expect::Token(t2), v("5")),
            WriteOp::put(k("d"), Expect::Absent, v("d")),
            WriteOp::delete(k("d"), Expect::Any),
        ])
        .unwrap();
    assert!(results[0].is_ok());
    assert_eq!(results[1], Err(Error::Conflict));
    note("multi_write", format!("{results:?}"));
    note("multi_write empty", format!("{:?}", c.multi_write(Vec::new())));

    let counter = keys::counter("parity");
    assert_eq!(c.increment(&counter, 5), Ok(5));
    assert_eq!(c.increment(&counter, 3), Ok(8));
    note("increment", format!("{:?}", c.increment(&counter, 0)));

    // Async submissions sharing one window.
    let get = c.get_async(&k("a"));
    let multi = c.multi_get_async(&[k("a"), k("d")]);
    let bump = c.increment_async(&counter, 2);
    let write = c.write_async(WriteOp::put(k("e"), Expect::Absent, v("e")));
    let writes = c.multi_write_async(vec![WriteOp::put(k("e"), Expect::Absent, v("dup"))]);
    note("async get", format!("{:?}", get.wait()));
    note("async multi_get", format!("{:?}", multi.wait()));
    note("async increment", format!("{:?}", bump.wait()));
    note("async write", format!("{:?}", write.wait()));
    note("async multi_write", format!("{:?}", writes.wait()));

    for i in 0..6u8 {
        c.insert(&k(&format!("p/{i}")), Bytes::from(vec![i; 4])).unwrap();
    }
    c.insert(&k("q/0"), v("q")).unwrap();
    note("scan_range", format!("{:?}", c.scan_range(b"p/1", Some(b"p/4"), 10)));
    note("scan_range open end", format!("{:?}", c.scan_range(b"p/", None, 3)));
    let rev = c.scan_range_rev(b"p/", Some(b"q/"), 2).unwrap();
    assert_eq!(rev.len(), 2);
    assert_eq!(rev[0].0, k("p/5"), "reverse scan starts at the largest key");
    note("scan_range_rev", format!("{rev:?}"));
    let prefix = c.scan_prefix(b"p/", usize::MAX).unwrap();
    assert_eq!(prefix.len(), 6);
    note("scan_prefix", format!("{prefix:?}"));
    note("scan_prefix limit", format!("{:?}", c.scan_prefix(b"p/", 2)));
    let pred =
        Predicate::Any(vec![Predicate::value_eq(0, vec![1]), Predicate::value_eq(0, vec![4])]);
    let pushed = c.scan_prefix_pushdown(b"p/", usize::MAX, &pred).unwrap();
    assert_eq!(pushed.len(), 2);
    note("scan_prefix_pushdown", format!("{pushed:?}"));
    note("scan_prefix_pushdown limit", format!("{:?}", c.scan_prefix_pushdown(b"p/", 1, &pred)));
    log
}

#[test]
fn local_and_remote_clients_agree_on_every_operation() {
    let local = StoreClient::unmetered(StoreCluster::new(StoreConfig::new(2)));
    let local_log = script(&local);

    let served = StoreCluster::new(StoreConfig::new(2));
    let server = RpcServer::serve_store("127.0.0.1:0", Arc::clone(&served)).unwrap();
    let remote = RemoteEndpoint::connect(server.local_addr().to_string(), 1).unmetered_client();
    let remote_log = script(&remote);

    assert_eq!(local_log.len(), remote_log.len());
    for (l, r) in local_log.iter().zip(&remote_log) {
        assert_eq!(l, r, "local and remote transports diverge");
    }
}
