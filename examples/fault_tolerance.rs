//! Fault tolerance (§4.4): storage-node fail-over, processing-node crash
//! recovery through the transaction log, and commit-manager replacement —
//! all three failure classes the paper handles, end to end.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use bytes::Bytes;
use tell::commitmgr::manager::CmConfig;
use tell::common::{CmId, SnId};
use tell::core::database::IndexSpec;
use tell::core::recovery::recover_failed_pn;
use tell::core::{Database, TellConfig, VersionedRecord};
use tell::store::StoreApi;

fn row(v: u64, pk: u64) -> Bytes {
    let mut b = v.to_be_bytes().to_vec();
    b.extend_from_slice(&pk.to_be_bytes());
    Bytes::from(b)
}

fn main() -> tell::common::Result<()> {
    let db = Database::create(TellConfig {
        storage_nodes: 3,
        replication_factor: 2, // survive one storage-node failure
        commit_managers: 2,    // survive one commit-manager failure
        cm: CmConfig::default(),
        ..TellConfig::default()
    });
    let table = db.create_table(
        "ledger",
        vec![IndexSpec::new("pk", true, |r: &[u8]| r.get(8..16).map(Bytes::copy_from_slice))],
    )?;
    let rids = db.bulk_load(&table, (0..50).map(|i| row(i, i)).collect())?;
    println!("loaded {} rows on 3 SNs with RF2", rids.len());

    // -----------------------------------------------------------------
    // 1. Storage-node failure (§4.4.2): kill an SN mid-workload; the
    //    cluster fails over to replicas, then restores the replication
    //    factor on the survivors.
    // -----------------------------------------------------------------
    let pn = db.processing_node();
    pn.run(100, |txn| txn.update(&table, rids[0], row(1_000, 0)))?;
    db.store().kill_node(SnId(0));
    println!("killed sn:0 — reads and writes continue against replicas:");
    let mut txn = pn.begin()?;
    assert_eq!(txn.scan_table(&table, usize::MAX)?.len(), 50, "no data lost");
    txn.commit()?;
    pn.run(100, |txn| txn.update(&table, rids[1], row(2_000, 1)))?;
    let created = db.store().restore_replication();
    println!("  re-replicated {created} partition copies onto the surviving nodes");

    // -----------------------------------------------------------------
    // 2. Processing-node crash (§4.4.1): simulate a PN dying mid-commit —
    //    log entry written, update applied, commit flag never set. The
    //    recovery process rolls its write set back.
    // -----------------------------------------------------------------
    let failed_pn = db.processing_node();
    let failed_id = failed_pn.id();
    let dirty_tid = {
        let txn = failed_pn.begin()?;
        let tid = txn.tid();
        // What commit() does up to the crash point: log entry + apply.
        let client = db.admin_client();
        tell::core::txlog::append(
            &client,
            &tell::core::txlog::LogEntry {
                tid,
                pn: failed_id,
                timestamp_us: 0,
                write_set: vec![(table.id, rids[2])],
                committed: false,
            },
        )?;
        let key = tell::store::keys::record(table.id, rids[2]);
        let (token, raw) = client.get(&key)?.unwrap();
        let mut rec = VersionedRecord::decode(&raw)?;
        rec.add_version(tid, Some(row(9_999_999, 2)));
        client.store_conditional(&key, token, rec.encode())?;
        std::mem::forget(txn); // the PN is gone; nobody aborts or commits
        tid
    };
    println!("simulated PN crash mid-commit (tid {dirty_tid}, partially applied)");
    let report = recover_failed_pn(&db, failed_id)?;
    println!(
        "  recovery rolled back {} transaction(s), reverted {} version(s)",
        report.rolled_back, report.versions_reverted
    );
    let mut txn = pn.begin()?;
    let v = txn.get(&table, rids[2])?.unwrap();
    assert_eq!(u64::from_be_bytes(v[..8].try_into().unwrap()), 2, "dirty write gone");
    txn.commit()?;

    // -----------------------------------------------------------------
    // 3. Commit-manager failure (§4.4.3): kill one of the two managers;
    //    transactions fail over to the survivor; a replacement recovers the
    //    committed-set from the store and the transaction log.
    // -----------------------------------------------------------------
    db.commit_managers().fail(CmId(0))?;
    println!("killed cm:0 — transactions keep flowing through cm:1:");
    for i in 0..5 {
        pn.run(100, |txn| txn.update(&table, rids[3], row(3_000 + i, 3)))?;
    }
    let replacement = db.commit_managers().spawn_recovered(CmId(9))?;
    println!(
        "  replacement cm:{} recovered (base version {})",
        replacement.id().raw(),
        replacement.base()
    );
    pn.run(100, |txn| txn.update(&table, rids[4], row(4_000, 4)))?;

    println!(
        "all three failure classes survived; {} commits total on this PN",
        pn.metrics().committed()
    );

    // The whole exercise — retries, recovery runs, reverted writes — is in
    // the global registry; print the headline counters at exit.
    let snap = tell::obs::snapshot();
    println!("\nobservability snapshot (selected counters):");
    for (name, v) in &snap.counters {
        if *v > 0
            && (name.starts_with("txn_")
                || name.starts_with("recovery_")
                || name.starts_with("gc_"))
        {
            println!("  tell_{name} {v}");
        }
    }
    Ok(())
}
