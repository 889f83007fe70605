//! Ablation (§5.1): storage granularity. The paper argues row-level
//! storage — one KV pair per record holding *all* versions — beats both a
//! coarser page-grouped scheme (pages must be re-fetched wholesale and
//! conflict at page granularity) and a finer version-per-KV scheme (extra
//! requests to discover versions, extra writes to install them).
//!
//! This bench runs a synthetic read/update workload directly on the store
//! under the three schemes and compares virtual time and conflict rates.

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tell_bench::{fmt_pct, section, table_header, table_row};
use tell_common::{Error, SimClock};
use tell_netsim::{NetMeter, NetworkProfile, TrafficStats};
use tell_store::{StoreApi, StoreClient, StoreCluster, StoreConfig};

const RECORDS: u64 = 2_000;
const OPS: usize = 20_000;
const ROW_BYTES: usize = 120;
const PAGE_SIZE: u64 = 16;
const READ_PCT: u32 = 64; // the standard mix's read share of operations

fn key(prefix: &str, id: u64) -> Bytes {
    let mut k = prefix.as_bytes().to_vec();
    k.extend_from_slice(&id.to_be_bytes());
    Bytes::from(k)
}

fn row(seed: u64) -> Bytes {
    Bytes::from(vec![(seed % 251) as u8; ROW_BYTES])
}

struct Outcome {
    virtual_us: f64,
    conflicts: u64,
    bytes: u64,
    requests: u64,
}

fn run_scheme(
    name: &str,
    read: impl Fn(&StoreClient, u64) -> Result<(), Error>,
    update: impl Fn(&StoreClient, u64) -> Result<bool, Error>,
    cluster: Arc<StoreCluster>,
) -> Outcome {
    let clock = SimClock::new();
    let stats = TrafficStats::new();
    let meter = NetMeter::new(NetworkProfile::infiniband(), clock.clone(), Arc::clone(&stats));
    let client = StoreClient::new(cluster, meter);
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut conflicts = 0;
    for _ in 0..OPS {
        let id = rng.random_range(0..RECORDS);
        if rng.random_range(0..100) < READ_PCT {
            read(&client, id).expect(name);
        } else if !update(&client, id).expect(name) {
            conflicts += 1;
        }
    }
    Outcome {
        virtual_us: clock.now_us(),
        conflicts,
        bytes: stats.total_bytes(),
        requests: stats.request_count(),
    }
}

fn main() {
    section(
        "Ablation — storage granularity (§5.1)",
        "row-level storage minimizes requests; pages waste bandwidth and conflict; per-version KVs need extra requests",
    );

    // --- Scheme 1: record granularity (Tell's choice). One cell per
    // record; update = LL + SC of that cell.
    let c1 = StoreCluster::new(StoreConfig::new(4));
    {
        let loader = StoreClient::unmetered(Arc::clone(&c1));
        for id in 0..RECORDS {
            loader.insert(&key("rec/", id), row(id)).unwrap();
        }
    }
    let record = run_scheme(
        "record",
        |c, id| c.get(&key("rec/", id)).map(|_| ()),
        |c, id| {
            let (token, _) = c.get(&key("rec/", id))?.expect("loaded");
            match c.store_conditional(&key("rec/", id), token, row(id + 1)) {
                Ok(_) => Ok(true),
                Err(Error::Conflict) => Ok(false),
                Err(e) => Err(e),
            }
        },
        c1,
    );

    // --- Scheme 2: page-grouped (disk-style). PAGE_SIZE records per cell;
    // every access moves the whole page; updates conflict at page level.
    let c2 = StoreCluster::new(StoreConfig::new(4));
    {
        let loader = StoreClient::unmetered(Arc::clone(&c2));
        let page_bytes = ROW_BYTES * PAGE_SIZE as usize;
        for page in 0..RECORDS / PAGE_SIZE {
            loader.insert(&key("page/", page), Bytes::from(vec![7u8; page_bytes])).unwrap();
        }
    }
    let paged = run_scheme(
        "page",
        |c, id| c.get(&key("page/", id / PAGE_SIZE)).map(|_| ()),
        |c, id| {
            let pk = key("page/", id / PAGE_SIZE);
            let (token, mut page) = c.get(&pk)?.map(|(t, v)| (t, v.to_vec())).expect("loaded");
            let off = (id % PAGE_SIZE) as usize * ROW_BYTES;
            page[off] = page[off].wrapping_add(1);
            match c.store_conditional(&pk, token, Bytes::from(page)) {
                Ok(_) => Ok(true),
                Err(Error::Conflict) => Ok(false),
                Err(e) => Err(e),
            }
        },
        c2,
    );

    // --- Scheme 3: one KV pair per version: a version-list cell plus one
    // cell per version. Read = list + newest version (2 requests); update =
    // list LL + new version insert + list SC (3 requests).
    let c3 = StoreCluster::new(StoreConfig::new(4));
    {
        let loader = StoreClient::unmetered(Arc::clone(&c3));
        for id in 0..RECORDS {
            loader.insert(&key("vl/", id), Bytes::copy_from_slice(&0u64.to_le_bytes())).unwrap();
            loader.insert(&key(&format!("v{}/", 0), id), row(id)).unwrap();
        }
    }
    let versioned = run_scheme(
        "per-version",
        |c, id| {
            let (_, list) = c.get(&key("vl/", id))?.expect("list");
            let newest = u64::from_le_bytes(list.as_ref()[..8].try_into().unwrap());
            c.get(&key(&format!("v{newest}/"), id)).map(|_| ())
        },
        |c, id| {
            let (token, list) = c.get(&key("vl/", id))?.expect("list");
            let newest = u64::from_le_bytes(list.as_ref()[..8].try_into().unwrap());
            let next = newest + 1;
            c.put(&key(&format!("v{next}/"), id), row(id + next))?;
            match c.store_conditional(
                &key("vl/", id),
                token,
                Bytes::copy_from_slice(&next.to_le_bytes()),
            ) {
                Ok(_) => Ok(true),
                Err(Error::Conflict) => Ok(false),
                Err(e) => Err(e),
            }
        },
        c3,
    );

    table_header(&["scheme", "virtual time (ms)", "requests/op", "bytes/op", "conflict rate"]);
    for (name, o) in [
        ("record (Tell, §5.1)", &record),
        (&format!("page ({PAGE_SIZE} records)"), &paged),
        ("one KV per version", &versioned),
    ] {
        table_row(&[
            name.to_string(),
            format!("{:.1}", o.virtual_us / 1e3),
            format!("{:.2}", o.requests as f64 / OPS as f64),
            format!("{:.0}", o.bytes as f64 / OPS as f64),
            fmt_pct(o.conflicts as f64 / OPS as f64),
        ]);
    }
    assert!(
        record.virtual_us < paged.virtual_us && record.virtual_us < versioned.virtual_us,
        "record granularity must win on total time"
    );
    assert!(record.bytes < paged.bytes, "pages must waste bandwidth");
    assert!(record.requests < versioned.requests, "per-version KVs must need more requests");
    println!("\nshape ok: record granularity minimizes requests without the page scheme's bandwidth and conflict costs");
}
