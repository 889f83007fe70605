//! The key-value workloads (`ycsb_wire`, `rmw_durable`): fixed-size rows
//! addressed by rid, chosen with Zipf-skewed keys. Every transaction
//! reads four distinct rows; a writing one then increments a counter in
//! two of them. Acknowledged increments are tallied per row so the final
//! state can be checked exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tell_common::{Error, Result, Rid};
use tell_core::catalog::TableDef;
use tell_core::database::IndexSpec;
use tell_core::{Database, Transaction};
use tell_store::StoreEndpoint;

use crate::closed_loop::{Class, Workload};
use crate::stats::Zipf;

pub const TABLE: &str = "usertable";
pub const ROW_BYTES: usize = 100;
pub const READS: usize = 4;
pub const WRITES: usize = 2;
pub const THETA: f64 = 0.99;

/// The table's mandatory primary index indexes nothing: rows are reached
/// by rid, so neither load nor commit touches a B-tree.
pub fn rid_only_index() -> IndexSpec {
    IndexSpec::new("pk", true, |_: &[u8]| None)
}

fn row(index: u64, counter: u64, seed: u64) -> Bytes {
    let mut r = Vec::with_capacity(ROW_BYTES);
    r.extend_from_slice(&index.to_be_bytes());
    r.extend_from_slice(&counter.to_be_bytes());
    let mut fill = StdRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.extend((16..ROW_BYTES).map(|_| fill.random_range(b'a'..=b'z')));
    Bytes::from(r)
}

fn field(row: &[u8], at: usize) -> Result<u64> {
    row.get(at..at + 8)
        .map(|b| u64::from_be_bytes(b.try_into().expect("an 8-byte slice")))
        .ok_or_else(|| Error::corrupt("short usertable row"))
}

fn with_counter(row: &[u8], counter: u64) -> Bytes {
    let mut r = row.to_vec();
    r[8..16].copy_from_slice(&counter.to_be_bytes());
    Bytes::from(r)
}

/// Create the table and bulk-load `rows` rows (counters at zero). Returns
/// the table and the rid of each row index.
pub fn load<E: StoreEndpoint>(
    db: &Arc<Database<E>>,
    rows: usize,
    seed: u64,
) -> Result<(Arc<TableDef>, Vec<Rid>)> {
    let table = db.create_table(TABLE, vec![rid_only_index()])?;
    let images = (0..rows as u64).map(|i| row(i, 0, seed)).collect();
    let rids = db.bulk_load(&table, images)?;
    Ok((table, rids))
}

/// Register the (empty) key extractor on another database handle over
/// the same store.
pub fn attach<E: StoreEndpoint>(db: &Database<E>, table: &TableDef) {
    db.register_extractor(table.primary_index().id, rid_only_index().extractor);
}

pub struct Kv {
    pub table: Arc<TableDef>,
    pub rids: Vec<Rid>,
    zipf: Zipf,
    /// Zipf rank -> row index: a seeded permutation, so the hot rows are
    /// scattered over partitions and differ between seeds.
    rank_row: Vec<usize>,
    seed: u64,
    /// Percent of transactions that write.
    write_pct: u32,
    acked: Vec<AtomicU64>,
}

pub struct Req {
    rows: [usize; READS],
    write: bool,
}

impl Kv {
    pub fn new(table: Arc<TableDef>, rids: Vec<Rid>, seed: u64, write_pct: u32) -> Kv {
        let n = rids.len();
        let mut rank_row: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_2A1F);
        for i in (1..n).rev() {
            rank_row.swap(i, rng.random_range(0..=i));
        }
        Kv {
            table,
            rids,
            zipf: Zipf::new(n, THETA),
            rank_row,
            seed,
            write_pct,
            acked: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn acked_updates(&self) -> u64 {
        self.acked.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Read every row in one transaction and compare each counter with the
    /// increments acknowledged for it. Returns the counter sum.
    pub fn check<E: StoreEndpoint>(&self, db: &Arc<Database<E>>) -> Result<u64> {
        let pn = db.processing_node();
        let mut txn = pn.begin()?;
        let rows = txn.scan_table(&self.table, usize::MAX)?;
        txn.commit()?;
        if rows.len() != self.rids.len() {
            return Err(Error::invalid(format!(
                "{} rows readable, {} loaded",
                rows.len(),
                self.rids.len()
            )));
        }
        let mut sum = 0;
        for (rid, image) in rows {
            let index = field(&image, 0)? as usize;
            let counter = field(&image, 8)?;
            let acked = self.acked.get(index).map(|a| a.load(Ordering::Relaxed));
            if self.rids.get(index) != Some(&rid) || acked != Some(counter) {
                return Err(Error::invalid(format!(
                    "row {index} (rid {rid:?}) holds counter {counter}, {acked:?} increments acked"
                )));
            }
            sum += counter;
        }
        Ok(sum)
    }
}

impl<E: StoreEndpoint> Workload<E> for Kv {
    type Req = Req;
    type Term = StdRng;

    fn terminal(&self, index: usize, window: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ ((window as u64) << 32 | index as u64).wrapping_mul(31))
    }

    fn next(&self, rng: &mut StdRng) -> (Req, Class) {
        let mut rows = [0; READS];
        for (slot, rank) in rows.iter_mut().zip(self.zipf.sample_distinct(rng, READS)) {
            *slot = self.rank_row[rank];
        }
        let write = rng.random_range(0..100) < self.write_pct;
        (Req { rows, write }, Class { write, tag: write as u8 })
    }

    fn body(&self, txn: &mut Transaction<'_, E>, req: &Req) -> Result<()> {
        let mut images = Vec::with_capacity(READS);
        for &r in &req.rows {
            images.push(txn.get(&self.table, self.rids[r])?.ok_or(Error::NotFound)?);
        }
        if req.write {
            for (&r, image) in req.rows.iter().zip(&images).take(WRITES) {
                let next = field(image, 8)? + 1;
                txn.update(&self.table, self.rids[r], with_counter(image, next))?;
            }
        }
        Ok(())
    }

    fn acked(&self, req: &Req) {
        if req.write {
            for &r in req.rows.iter().take(WRITES) {
                self.acked[r].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn user_bytes(&self, req: &Req) -> u64 {
        if req.write {
            (WRITES * ROW_BYTES) as u64
        } else {
            0
        }
    }
}
