//! Wall-clock end-to-end benchmark of the tell stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpcc|ycsb_wire|rmw_durable --seed N --seconds S --trace 0|1
//! ```
//!
//! Two closed-loop terminals run one workload against the real stack.
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it runs an untraced window and then a traced one (layer
//! decorators installed, spans recorded) of `S / 2` seconds each and
//! prints the per-layer ledger. Every run checks the workload's output;
//! a failed check makes the run exit 1. The last stdout line is the JSON
//! result; the lines before it carry the host fingerprint and detail.

mod closed_loop;
mod host;
mod kv;
mod layers;
mod ledger;
mod stats;
mod tpcc;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tell_commitmgr::{CmCluster, CommitManager, CommitParticipant, CommitService, TxnStart};
use tell_common::{CmId, IsolationLevel, Result, TxnId};
use tell_core::{Database, TellConfig};
use tell_durable::{DurableNodeConfig, FsDurability, FsyncPolicy};
use tell_netsim::NetMeter;
use tell_obs::registry::global;
use tell_obs::Counter;
use tell_rpc::{RemoteCmClient, RemoteEndpoint, RpcServer};
use tell_sql::SqlEngine;
use tell_store::{StoreCluster, StoreConfig, StoreEndpoint};

use closed_loop::{run_window, WindowStats, Workload};
use host::{json_str, DiskIo, Usage};
use layers::{TracedCommit, TracedEndpoint, OP_KINDS};
use ledger::Ledger;

/// Closed-loop clients, one transaction at a time each (the paper's
/// terminals, §6.2): one per CPU the workload runs on. The in-process
/// workloads use both CPUs of the reference host.
const TERMINALS: usize = 2;
/// `ycsb_wire` runs on one CPU at a time (see `run_ycsb`), so with one
/// terminal.
const WIRE_TERMINALS: usize = 1;
/// How long `ycsb_wire` stays on one CPU before moving to the next.
const CPU_ROTATION: Duration = Duration::from_millis(500);
/// Set-ups per timed run of each workload; `setup_s` is their median.
/// The short wire set-up (about 0.1 s) takes more to steady its median.
const SETUPS_TPCC: usize = 5;
const SETUPS_YCSB: usize = 9;
const SETUPS_RMW: usize = 5;
const WARMUP: Duration = Duration::from_secs(1);
/// The flush policy of `rmw_durable`'s measured windows: the
/// `DurableNodeConfig` default.
const RUN_FSYNC: FsyncPolicy = FsyncPolicy::Always;
/// Rows of the key-value workloads.
const KV_ROWS: usize = 20_000;
/// Scratch space (durable data directories, span dumps), relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(args.workload.as_str(), "tpcc" | "ycsb_wire" | "rmw_durable") {
        return Err("--workload must be tpcc, ycsb_wire or rmw_durable".into());
    }
    if args.seconds.is_nan() || args.seconds < 2.0 {
        return Err("--seconds must be at least 2".into());
    }
    Ok(args)
}

// ---------------------------------------------------------------------------
// Layer counters read at a window's edges

#[derive(Clone, Default)]
struct Counters {
    usage: Usage,
    io: DiskIo,
    obs: Vec<u64>,
    /// (contended acquires, wait µs) of `cm.state` and
    /// `store.partition.map`.
    cm_state: (u64, u64),
    partition_map: (u64, u64),
}

const OBS: [Counter; 9] = [
    Counter::StoreReadOps,
    Counter::StoreWriteOps,
    Counter::RpcClientFramesOut,
    Counter::RpcClientBytesOut,
    Counter::RpcClientBytesIn,
    Counter::IndexCacheHits,
    Counter::IndexCacheMisses,
    Counter::IndexCacheInvalidations,
    Counter::DurableFsyncs,
];

fn counters() -> Counters {
    let locks = tell_obs::prof::lock_snapshot();
    let lock = |name: &str| {
        locks.iter().find(|l| l.name == name).map(|l| (l.contended, l.wait_us)).unwrap_or((0, 0))
    };
    Counters {
        usage: host::usage(),
        io: host::disk_io(),
        obs: OBS.iter().map(|&c| global().counter(c)).collect(),
        cm_state: lock("cm.state"),
        partition_map: lock("store.partition.map"),
    }
}

/// One measured window plus the counters at its edges.
struct Measured {
    stats: WindowStats,
    c0: Counters,
    c1: Counters,
    /// Store operations by kind through the traced endpoint (traced
    /// windows only).
    ops: [u64; 6],
    /// Spans recorded in the window (traced windows only).
    spans: Vec<Vec<trace::Span>>,
}

impl Measured {
    fn obs(&self, c: Counter) -> f64 {
        let i = OBS.iter().position(|&x| x == c).expect("counter listed in OBS");
        (self.c1.obs[i] - self.c0.obs[i]) as f64
    }

    fn per_commit(&self, v: f64) -> f64 {
        v / self.stats.commits.max(1) as f64
    }
}

fn measure<E: StoreEndpoint, W: Workload<E>>(
    db: &Arc<Database<E>>,
    w: &W,
    level: IsolationLevel,
    terminals: usize,
    window: usize,
    seconds: f64,
    traced: bool,
) -> Measured {
    let mut c0 = Counters::default();
    let mut c1 = Counters::default();
    let mut ops = [0; 6];
    let stats = run_window(
        db,
        w,
        level,
        terminals,
        window,
        WARMUP,
        Duration::from_secs_f64(seconds),
        |at_start| {
            if at_start {
                c0 = counters();
                if traced {
                    layers::take_op_counts();
                    trace::take_all();
                    trace::set_enabled(true);
                }
            } else {
                if traced {
                    trace::set_enabled(false);
                    ops = layers::take_op_counts();
                }
                c1 = counters();
            }
        },
    );
    let spans = if traced { trace::take_all() } else { Vec::new() };
    Measured { stats, c0, c1, ops, spans }
}

// ---------------------------------------------------------------------------
// Reporting

#[derive(Default)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    detail: Vec<(String, String)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    fn check(&mut self, name: &str, outcome: Result<String>) {
        let text = match outcome {
            Ok(msg) => format!("pass: {msg}"),
            Err(e) => {
                self.correct = false;
                format!("FAIL: {e}")
            }
        };
        self.detail(&format!("check.{name}"), json_str(&text));
    }

    fn window(&mut self, m: &Measured) {
        self.attempted += m.stats.attempted;
        self.failed += m.stats.failed;
        if m.stats.failed > 0 {
            self.correct = false;
        }
    }

    fn print(&self) {
        let detail: Vec<String> =
            self.detail.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("{{\"detail\": {{{}}}}}", detail.join(", "));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The end-to-end metrics of a timed window.
fn e2e(r: &mut Report, m: &Measured, setup_s: &[f64]) {
    let st = &m.stats;
    r.window(m);
    r.metric("commits_per_s", st.commits_per_s(), "1/s");
    r.detail("commits_each_second", format!("{:?}", st.per_second));
    // Only the median of all transactions is a bounded metric. The tails
    // and the writing transactions' median are printed in the detail
    // line: on a shared 2-vCPU host they do not repeat within the bound
    // between runs of `ycsb_wire` (see NOTES.md).
    for (class, sample) in [("txn", &st.lat_ms), ("write_txn", &st.write_lat_ms)] {
        let mut fields = vec![format!("\"n\": {}", sample.len())];
        let mut sorted: Vec<f64> = sample.iter().map(|s| s.ms).collect();
        sorted.sort_by(f64::total_cmp);
        for (label, q) in [("p50", 0.5), ("p99", 0.99)] {
            match stats::percentile(&sorted, q) {
                Some(p) => {
                    if (class, label) == ("txn", "p50") {
                        r.metric("txn_p50_ms", p.value, "ms");
                    }
                    fields.push(format!("\"{label}_ms\": {}", p.value));
                    fields.push(format!("\"{label}_is_percentile\": {}", p.pct));
                }
                None => {
                    r.correct = false;
                    fields.push(format!("\"{label}_ms\": \"too few samples\""));
                }
            }
        }
        if let Some(p) = stats::percentile(&sorted, 0.999) {
            fields.push(format!("\"highest_supported_ms\": {}", p.value));
            fields.push(format!("\"highest_supported_percentile\": {}", p.pct));
        }
        r.detail(&format!("{class}_latency"), format!("{{{}}}", fields.join(", ")));
    }
    r.detail("txn_failed_frac", format!("{}", st.failed as f64 / st.attempted.max(1) as f64));
    r.detail("commits", st.commits.to_string());
    r.detail("user_rollbacks", st.rollbacks.to_string());
    r.detail("aborted_attempts", st.aborts.to_string());
    r.detail("max_attempts_per_txn", st.max_attempts.to_string());
    r.detail(
        "setup_s_each",
        format!("[{}]", setup_s.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")),
    );
    r.metric("setup_s", stats::median(setup_s), "s");
    r.metric("peak_rss_mb", host::peak_rss_mb(), "MiB");
    if let Some(e) = st.errors.first() {
        r.detail("first_error", json_str(e));
    }
}

/// Which layers a workload crosses, for the metrics only some have.
#[derive(Clone, Copy)]
struct Crosses {
    rpc: bool,
    durable: bool,
    /// TPC-C: per-type spans; no store decorator, since the TPC-C
    /// transactions are typed to the in-process endpoint.
    tpcc: bool,
}

/// The per-layer ledger from an untraced window `u` (counters, rates) and
/// a traced window `t` (spans, decorator counts).
fn per_layer(r: &mut Report, u: &Measured, t: &Measured, crosses: Crosses) {
    r.window(u);
    r.window(t);
    let l = Ledger::from_spans(&t.spans);
    let cov = l.coverage(&t.stats.lat_ms);
    let us = &u.stats;
    r.metric("core.begin_us", l.begin.get(), "us");
    r.metric("core.body_us", l.body.get(), "us");
    r.metric("core.commit_us", l.commit.get(), "us");
    r.metric("core.commit_self_us", l.commit_self.get(), "us");
    r.metric("core.attempts_per_commit", us.attempts as f64 / us.commits.max(1) as f64, "ratio");
    r.metric("core.abort_rate", us.aborts as f64 / us.attempts.max(1) as f64, "ratio");
    // Self-check against the latencies the window measured: the phases
    // must cover the summed latency within 10%, and cover at least 90% of
    // the transactions one by one within 10%.
    r.metric("core.ledger_coverage", cov.ratio(), "ratio");
    let covered = if !(0.9..=1.1).contains(&cov.ratio()) {
        Err(format!("phases cover {:.3} of the summed latency", cov.ratio()))
    } else if cov.within_10pct_frac() < 0.9 {
        Err(format!("only {:.3} of transactions covered within 10%", cov.within_10pct_frac()))
    } else {
        Ok(format!("{} of {} transactions covered within 10%", cov.within_10pct, cov.txns))
    };
    r.check("ledger_coverage", covered.map_err(tell_common::Error::invalid));

    r.metric("commitmgr.start_us", l.cm_start.get(), "us");
    r.metric("commitmgr.complete_us", l.cm_complete.get(), "us");
    r.metric("commitmgr.server_start_us", l.cm_server_start.get(), "us");
    r.metric("commitmgr.server_complete_us", l.cm_server_complete.get(), "us");
    let cm_wait = (u.c1.cm_state.1 - u.c0.cm_state.1) as f64;
    let cm_contended = (u.c1.cm_state.0 - u.c0.cm_state.0) as f64;
    r.metric("commitmgr.state_wait_us_per_commit", u.per_commit(cm_wait), "us");
    r.metric("commitmgr.state_contended_per_1k", 1e3 * u.per_commit(cm_contended), "count");

    let rpc = |v: f64| if crosses.rpc { v } else { 0.0 };
    r.metric("rpc.cm_start_overhead_us", rpc(l.cm_start.get() - l.cm_server_start.get()), "us");
    r.metric(
        "rpc.cm_complete_overhead_us",
        rpc(l.cm_complete.get() - l.cm_server_complete.get()),
        "us",
    );
    r.metric(
        "rpc.requests_per_commit",
        rpc(u.per_commit(u.obs(Counter::RpcClientFramesOut))),
        "count",
    );
    let bytes = u.obs(Counter::RpcClientBytesOut) + u.obs(Counter::RpcClientBytesIn);
    r.metric("rpc.bytes_per_commit", rpc(u.per_commit(bytes)), "B");
    r.metric("rpc.store_blocking_call_us", rpc(l.store_call.get()), "us");

    for (kind, n) in OP_KINDS.iter().zip(t.ops) {
        let name = match *kind {
            "scan" => "store.scans_per_commit".to_string(),
            k => format!("store.submits_per_commit.{k}"),
        };
        r.metric(name, t.per_commit(n as f64), "count");
    }
    let store_us = if crosses.tpcc { 0.0 } else { t.per_commit(l.store_us) };
    r.metric("store.time_us_per_commit", store_us, "us");
    r.metric("store.read_ops_per_commit", u.per_commit(u.obs(Counter::StoreReadOps)), "count");
    r.metric("store.write_ops_per_commit", u.per_commit(u.obs(Counter::StoreWriteOps)), "count");
    let map_wait = (u.c1.partition_map.1 - u.c0.partition_map.1) as f64;
    r.metric("store.partition_map_wait_us_per_commit", u.per_commit(map_wait), "us");

    let hits = u.obs(Counter::IndexCacheHits);
    let misses = u.obs(Counter::IndexCacheMisses);
    r.metric("index.inner_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    r.metric(
        "index.inner_invalidations_per_commit",
        u.per_commit(u.obs(Counter::IndexCacheInvalidations)),
        "count",
    );

    for (i, name) in tpcc::TYPE_NAMES.iter().enumerate() {
        let (body, commit) = if crosses.tpcc {
            (l.body_by_tag[i].get(), l.commit_by_tag[i].get())
        } else {
            (0.0, 0.0)
        };
        r.metric(format!("tpcc.body_us.{name}"), body, "us");
        r.metric(format!("tpcc.commit_us.{name}"), commit, "us");
    }

    let durable = |v: f64| if crosses.durable { v } else { 0.0 };
    let disk = u.c1.io.write_bytes - u.c0.io.write_bytes;
    r.metric("durable.disk_write_bytes_per_commit", durable(u.per_commit(disk)), "B");
    let syscalls = u.c1.io.write_syscalls - u.c0.io.write_syscalls;
    r.metric("durable.write_syscalls_per_commit", durable(u.per_commit(syscalls)), "count");
    r.metric(
        "durable.fsyncs_per_commit",
        durable(u.per_commit(u.obs(Counter::DurableFsyncs))),
        "count",
    );
    r.metric("durable.write_amp", durable(disk / us.user_bytes.max(1) as f64), "ratio");

    let cpu = u.c1.usage.cpu_us - u.c0.usage.cpu_us;
    r.metric("proc.cpu_us_per_commit", u.per_commit(cpu), "us");
    let ctx = u.c1.usage.ctx_switches - u.c0.usage.ctx_switches;
    r.metric("proc.ctx_switches_per_commit", u.per_commit(ctx), "count");

    let (cu, ct) = (us.commits_per_s(), t.stats.commits_per_s());
    r.metric("trace.overhead_frac", 1.0 - ct / cu.max(1e-9), "ratio");
    r.detail("untraced_commits_per_s", format!("{cu}"));
    r.detail("traced_commits_per_s", format!("{ct}"));
}

/// Run `setup` `n` times, dropping all but the last deployment; returns
/// each set-up's wall seconds and the last deployment.
fn setups<T>(n: usize, mut setup: impl FnMut(usize) -> Result<T>) -> Result<(Vec<f64>, T)> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..n {
        drop(last.take());
        let t0 = Instant::now();
        let d = setup(k)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(d);
    }
    Ok((times, last.expect("at least one set-up")))
}

// ---------------------------------------------------------------------------
// Workloads

fn run_tpcc(args: &Args, r: &mut Report) -> Result<()> {
    let cfg = TellConfig::default();
    let n = if args.trace { 1 } else { SETUPS_TPCC };
    let (setup_s, engine) = setups(n, |_| {
        let engine = SqlEngine::new(Database::create(cfg.clone()));
        tell_tpcc::create_tpcc_tables(&engine)?;
        tell_tpcc::gen::load(&engine, tpcc::WAREHOUSES, tpcc::scale(), args.seed)?;
        Ok(engine)
    })?;
    let w = tpcc::Tpcc::new(&engine, args.seed)?;
    let level = IsolationLevel::Si;
    if !args.trace {
        let m = measure(engine.database(), &w, level, TERMINALS, 0, args.seconds, false);
        e2e(r, &m, &setup_s);
    } else {
        let u = measure(engine.database(), &w, level, TERMINALS, 0, args.seconds / 2.0, false);
        let db = engine.database();
        let commit = TracedCommit::new(Arc::clone(db.commit_managers()) as _, false);
        let traced = SqlEngine::new(Database::open(Arc::clone(db.store()), commit, cfg.clone()));
        let tw = tpcc::Tpcc::new(&traced, args.seed)?;
        let t = measure(traced.database(), &tw, level, TERMINALS, 1, args.seconds / 2.0, true);
        per_layer(r, &u, &t, Crosses { rpc: false, durable: false, tpcc: true });
        dump_spans(args, &t);
    }
    r.check("tpcc_consistency", tpcc::check(&engine));
    Ok(())
}

/// SN and CM servers on loopback in this process, and a processing node
/// reaching both over TCP (the commit managers reach storage over TCP
/// too). Fields drop in order: clients first, then the servers.
struct Wire {
    db: Arc<Database<RemoteEndpoint>>,
    kv: kv::Kv,
    sn_addr: String,
    /// The commit managers the CM server dispatches to.
    cms: Arc<CmCluster<RemoteEndpoint>>,
    _cm: RpcServer,
    _sn: RpcServer,
}

fn boot_wire(cfg: &TellConfig, seed: u64) -> Result<Wire> {
    let store = StoreCluster::new(store_config(cfg));
    let sn = RpcServer::serve_store("127.0.0.1:0", store)?;
    let sn_addr = sn.local_addr().to_string();
    // Two connections to storage, as `tell_cm` opens by default.
    let cms = CmCluster::new(
        RemoteEndpoint::connect(sn_addr.clone(), 2),
        cfg.commit_managers,
        cfg.cm.clone(),
    );
    let cm = RpcServer::serve_commit("127.0.0.1:0", Arc::clone(&cms) as _)?;
    let db = Database::open(
        RemoteEndpoint::connect(sn_addr.clone(), WIRE_TERMINALS),
        Arc::new(RemoteCmClient::connect([cm.local_addr().to_string()])),
        cfg.clone(),
    );
    let (table, rids) = kv::load(&db, KV_ROWS, seed)?;
    let kv = kv::Kv::new(table, rids, seed, 10);
    Ok(Wire { db, kv, sn_addr, cms, _cm: cm, _sn: sn })
}

fn store_config(cfg: &TellConfig) -> StoreConfig {
    let mut s = StoreConfig::new(cfg.storage_nodes)
        .replication(cfg.replication_factor)
        .profile(cfg.profile.clone());
    if let Some(p) = cfg.partitions {
        s.partitions = p;
    }
    if let Some(d) = &cfg.store_durability {
        s = s.durability(Arc::clone(d));
    }
    s
}

fn run_ycsb(args: &Args, r: &mut Report) -> Result<()> {
    // Every thread of the deployment (servers, readers, terminal) runs on
    // one CPU at a time, so a round trip's wake-ups are switches on that
    // CPU. Spread over two vCPUs each hop is a cross-CPU wake-up whose
    // latency is the hypervisor's: on a shared host it stretched for
    // seconds at a time, dropping commits/s to a third of its level
    // within a run. The process moves between the CPUs every
    // `CPU_ROTATION`, so a run averages over their speeds.
    let rotation = host::CpuRotation::start(CPU_ROTATION);
    let cfg = TellConfig::default();
    let n = if args.trace { 1 } else { SETUPS_YCSB };
    let (setup_s, wire) = setups(n, |_| boot_wire(&cfg, args.seed))?;
    let level = IsolationLevel::Si;
    if !args.trace {
        let m = measure(&wire.db, &wire.kv, level, WIRE_TERMINALS, 0, args.seconds, false);
        e2e(r, &m, &setup_s);
    } else {
        let u = measure(&wire.db, &wire.kv, level, WIRE_TERMINALS, 0, args.seconds / 2.0, false);
        // The traced window goes through a second CM server over the same
        // commit managers, with the server-side decorator installed, so
        // the untraced window above ran through no decorator.
        let server_side = TracedCommit::new(Arc::clone(&wire.cms) as _, true);
        let traced_cm = RpcServer::serve_commit("127.0.0.1:0", server_side)?;
        let commit = Arc::new(RemoteCmClient::connect([traced_cm.local_addr().to_string()]));
        let traced = Database::open(
            TracedEndpoint(RemoteEndpoint::connect(wire.sn_addr.clone(), WIRE_TERMINALS)),
            TracedCommit::new(commit, false),
            cfg.clone(),
        );
        kv::attach(&traced, &wire.kv.table);
        let t = measure(&traced, &wire.kv, level, WIRE_TERMINALS, 1, args.seconds / 2.0, true);
        drop(traced);
        drop(traced_cm);
        per_layer(r, &u, &t, Crosses { rpc: true, durable: false, tpcc: false });
        dump_spans(args, &t);
    }
    let updates = wire.kv.acked_updates();
    let checked = wire.kv.check(&wire.db).map(|sum| {
        format!("row counters sum to {sum} = {updates} acknowledged updates, each row exact")
    });
    r.check("ycsb_counters", checked);
    r.detail("cpu_moves", rotation.as_ref().map_or("null".to_string(), |c| c.moves().to_string()));
    Ok(())
}

/// Commit service over one commit manager recovered from the store
/// (§4.4.3), for reading a reopened durable store.
struct Recovered(Arc<CommitManager>);

impl CommitService for Recovered {
    fn start_pinned(
        &self,
        _hint: usize,
        level: IsolationLevel,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<dyn CommitParticipant>)> {
        Ok((self.0.start_at(level, meter)?, Arc::clone(&self.0) as _))
    }

    fn current_lav(&self) -> Result<u64> {
        Ok(self.0.current_lav())
    }

    fn force_resolve(&self, tid: TxnId, committed: bool) -> Result<()> {
        self.0.force_resolve(tid, committed);
        Ok(())
    }

    fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        self.0.sync_now(meter)
    }
}

fn durable_config(dir: &Path, fsync: FsyncPolicy) -> TellConfig {
    let engine = DurableNodeConfig { fsync, ..DurableNodeConfig::default() };
    TellConfig {
        store_durability: Some(FsDurability::new(dir, engine) as _),
        ..TellConfig::default()
    }
}

/// The directory holding this process's durable data; removed when the
/// run ends.
fn data_root() -> PathBuf {
    Path::new(OUT_DIR).join(format!("rmw-{}", std::process::id()))
}

/// An empty data directory for set-up `k`. Each set-up has its own, so
/// deleting an earlier one stays out of the timed set-up.
fn data_dir(k: usize) -> Result<PathBuf> {
    let dir = data_root().join(k.to_string());
    std::fs::create_dir_all(&dir).map_err(|e| tell_common::Error::invalid(e.to_string()))?;
    Ok(dir)
}

fn run_rmw(args: &Args, r: &mut Report) -> Result<()> {
    let n = if args.trace { 1 } else { SETUPS_RMW };
    let _ = std::fs::remove_dir_all(data_root());
    let (setup_s, (db, kv)) = setups(n, |k| {
        // Bulk-load with no fsync per row, then reopen the store from its
        // directory under the run's policy. Nothing crashes in between, so
        // the page cache carries the loaded image; the set-up time is the
        // load and the recovery, not the shared disk's fsync latency.
        let dir = data_dir(k)?;
        let (table, rids) = {
            let loader = Database::create(durable_config(&dir, FsyncPolicy::Never));
            kv::load(&loader, KV_ROWS, args.seed)?
        };
        let db = Database::create(durable_config(&dir, RUN_FSYNC));
        kv::attach(&db, &table);
        Ok((db, kv::Kv::new(table, rids, args.seed, 100)))
    })?;
    let level = IsolationLevel::Serializable;
    if !args.trace {
        let m = measure(&db, &kv, level, TERMINALS, 0, args.seconds, false);
        e2e(r, &m, &setup_s);
    } else {
        let u = measure(&db, &kv, level, TERMINALS, 0, args.seconds / 2.0, false);
        let commit = TracedCommit::new(Arc::clone(db.commit_managers()) as _, false);
        let traced =
            Database::open(TracedEndpoint(Arc::clone(db.store())), commit, db.config().clone());
        kv::attach(&traced, &kv.table);
        let t = measure(&traced, &kv, level, TERMINALS, 1, args.seconds / 2.0, true);
        per_layer(r, &u, &t, Crosses { rpc: false, durable: true, tpcc: false });
        dump_spans(args, &t);
    }
    // Drop the whole deployment, reopen the store from its directory and
    // read every row through a recovered commit manager.
    let cfg = db.config().clone();
    drop(db);
    let updates = kv.acked_updates();
    let reopened = (|| {
        let store = StoreCluster::open(store_config(&cfg))?;
        let cm = CommitManager::recover(
            CmId(cfg.commit_managers as u32),
            Arc::clone(&store),
            cfg.cm.clone(),
        )?;
        let db = Database::open(store, Arc::new(Recovered(cm)), cfg.clone());
        kv::attach(&db, &kv.table);
        kv.check(&db)
    })();
    r.check(
        "rmw_reopen",
        reopened.map(|sum| {
            format!(
                "after reopen the row counters sum to {sum} = {updates} acknowledged \
                 increments, each row exact"
            )
        }),
    );
    let _ = std::fs::remove_dir_all(data_root());
    Ok(())
}

fn dump_spans(args: &Args, t: &Measured) {
    let path = Path::new(OUT_DIR).join(format!("spans-{}.tsv", args.workload));
    if let Err(e) = trace::write_tsv(&path, &t.spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload tpcc|ycsb_wire|rmw_durable \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let terminals = if args.workload == "ycsb_wire" { WIRE_TERMINALS } else { TERMINALS };
    let (level, fsync) = match args.workload.as_str() {
        "rmw_durable" => {
            ("serializable", format!("{RUN_FSYNC:?} (bulk load: {:?})", FsyncPolicy::Never))
        }
        _ => ("si", "none (in-memory store)".to_string()),
    };
    println!(
        "{{\"fingerprint\": {}}}",
        host::fingerprint(&[
            ("workload", args.workload.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", (args.trace as u8).to_string()),
            ("terminals", terminals.to_string()),
            ("isolation", level.to_string()),
            ("fsync", fsync),
        ])
    );
    let mut report = Report { correct: true, ..Report::default() };
    let outcome = match args.workload.as_str() {
        "tpcc" => run_tpcc(&args, &mut report),
        "ycsb_wire" => run_ycsb(&args, &mut report),
        _ => run_rmw(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    report.print();
    if !report.correct {
        std::process::exit(1);
    }
}
