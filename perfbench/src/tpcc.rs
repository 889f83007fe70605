//! The `tpcc` workload: the TPC-C standard mix over `tell_tpcc::txns`,
//! run in-process, one home warehouse per terminal.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tell_common::{Error, Result};
use tell_core::Transaction;
use tell_sql::{SqlEngine, Value};
use tell_store::StoreCluster;
use tell_tpcc::mix::{Mix, ParamGen, TxnRequest, TxnType};
use tell_tpcc::txns::{self, USER_ROLLBACK};
use tell_tpcc::{ScaleParams, TpccTables};

use crate::closed_loop::{Class, Workload};

pub const WAREHOUSES: i64 = 4;

pub fn scale() -> ScaleParams {
    ScaleParams::small()
}

/// Span-tag / metric names of the five transaction types, in
/// [`TxnType::ALL`] order.
pub const TYPE_NAMES: [&str; 5] =
    ["new_order", "payment", "delivery", "order_status", "stock_level"];

pub struct Tpcc {
    tables: TpccTables,
    seed: u64,
}

impl Tpcc {
    /// Resolve the tables through `engine` (which registers the index key
    /// extractors on its database).
    pub fn new(engine: &Arc<SqlEngine>, seed: u64) -> Result<Tpcc> {
        let pn = engine.database().processing_node();
        Ok(Tpcc { tables: TpccTables::resolve(engine, &pn)?, seed })
    }
}

pub struct Term {
    rng: StdRng,
    gen: ParamGen,
    home: i64,
    now: i64,
}

fn type_index(t: TxnType) -> usize {
    TxnType::ALL.iter().position(|x| *x == t).expect("TxnType::ALL lists every type")
}

impl Workload<Arc<StoreCluster>> for Tpcc {
    type Req = (TxnRequest, i64);
    type Term = Term;

    fn terminal(&self, index: usize, window: usize) -> Term {
        // History-row ids are unique per generator namespace; give every
        // terminal of every window its own.
        let namespace = ((window * 64 + index + 1) as u64) << 40;
        Term {
            rng: StdRng::seed_from_u64(self.seed.wrapping_add(7919 * (window * 64 + index) as u64)),
            gen: ParamGen::with_namespace(WAREHOUSES, scale(), Mix::standard(), namespace),
            home: index as i64 % WAREHOUSES + 1,
            now: 0,
        }
    }

    fn next(&self, t: &mut Term) -> ((TxnRequest, i64), Class) {
        let req = t.gen.generate(&mut t.rng, t.home);
        t.now += 1;
        let ty = req.txn_type();
        let write = matches!(ty, TxnType::NewOrder | TxnType::Payment | TxnType::Delivery);
        ((req, t.now), Class { write, tag: type_index(ty) as u8 })
    }

    fn body(&self, txn: &mut Transaction<'_>, (req, now): &(TxnRequest, i64)) -> Result<()> {
        let t = &self.tables;
        match req {
            TxnRequest::NewOrder(p) => txns::new_order(txn, t, p, *now).map(|_| ()),
            TxnRequest::Payment(p) => txns::payment(txn, t, p, *now),
            TxnRequest::Delivery(p) => txns::delivery(txn, t, p, *now).map(|_| ()),
            TxnRequest::OrderStatus(p) => txns::order_status(txn, t, p).map(|_| ()),
            TxnRequest::StockLevel(p) => txns::stock_level(txn, t, p).map(|_| ()),
        }
    }

    fn is_user_rollback(&self, err: &Error) -> bool {
        matches!(err, Error::Aborted(msg) if msg == USER_ROLLBACK)
    }
}

/// Rows of a grouped query as `(group key, value)`.
fn grouped(engine: &Arc<SqlEngine>, sql: &str) -> Result<HashMap<Vec<i64>, f64>> {
    let r = engine.session().execute(sql)?;
    r.rows
        .iter()
        .map(|row| {
            let (value, key) = row.split_last().ok_or_else(|| Error::invalid("empty row"))?;
            let key: Option<Vec<i64>> = key.iter().map(Value::as_i64).collect();
            match (key, value.as_f64()) {
                (Some(k), Some(v)) => Ok((k, v)),
                _ => Err(Error::invalid(format!("unexpected row {row:?} from {sql}"))),
            }
        })
        .collect()
}

/// TPC-C consistency conditions 1 and 2 (clause 3.3.2), through the SQL
/// engine: W_YTD = sum(D_YTD) per warehouse, and per district
/// D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) (the last only while the
/// district has undelivered orders).
pub fn check(engine: &Arc<SqlEngine>) -> Result<String> {
    let w_ytd = grouped(engine, "SELECT w_id, w_ytd FROM warehouse")?;
    let d_ytd = grouped(engine, "SELECT d_w_id, SUM(d_ytd) FROM district GROUP BY d_w_id")?;
    let next = grouped(engine, "SELECT d_w_id, d_id, d_next_o_id FROM district")?;
    let max_o =
        grouped(engine, "SELECT o_w_id, o_d_id, MAX(o_id) FROM orders GROUP BY o_w_id, o_d_id")?;
    let max_no = grouped(
        engine,
        "SELECT no_w_id, no_d_id, MAX(no_o_id) FROM neworder GROUP BY no_w_id, no_d_id",
    )?;
    if w_ytd.len() != WAREHOUSES as usize {
        return Err(Error::invalid(format!("{} warehouses", w_ytd.len())));
    }
    for (w, ytd) in &w_ytd {
        let sum = d_ytd.get(w).copied();
        if sum.is_none_or(|sum| (ytd - sum).abs() >= 1e-3) {
            return Err(Error::invalid(format!("condition 1: w {w:?} W_YTD {ytd} != {sum:?}")));
        }
    }
    let districts = WAREHOUSES * scale().districts_per_warehouse;
    if next.len() != districts as usize {
        return Err(Error::invalid(format!("{} districts", next.len())));
    }
    for (d, next_o) in &next {
        let max = max_o.get(d).copied();
        if max != Some(next_o - 1.0) {
            return Err(Error::invalid(format!(
                "condition 2: district {d:?} D_NEXT_O_ID {next_o}, max(O_ID) {max:?}"
            )));
        }
        if let Some(no) = max_no.get(d) {
            if *no != next_o - 1.0 {
                return Err(Error::invalid(format!(
                    "condition 2: district {d:?} D_NEXT_O_ID {next_o}, max(NO_O_ID) {no}"
                )));
            }
        }
    }
    Ok(format!(
        "consistency conditions 1-2 hold on {} warehouses / {districts} districts",
        w_ytd.len()
    ))
}
