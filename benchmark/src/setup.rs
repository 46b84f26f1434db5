//! Set-up: generate the data, build statistics, (for the paged workload)
//! save and reopen through a small buffer pool, start a real
//! `ProgressServer` on loopback, and compute the serial oracle every
//! reply is later checked against.

use crate::Workload;
use qp_datagen::tpch::{TpchConfig, TpchDb};
use qp_service::{ProgressServer, QueryService, ServerConfig, ServiceConfig};
use qp_stats::DbStats;
use qp_storage::Database;
use qp_workloads::sql_text::{tpch_sql, SQL_QUERIES};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Zipf skew of the generated TPC-H foreign keys (the paper's setting).
pub const Z: f64 = 2.0;
/// Buffer-pool frames of the paged workload: 1 MiB over ≈50 MB of pages.
pub const PAGED_FRAMES: usize = 256;

/// What the serial in-process reference run produced for one suite query.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub q: usize,
    pub sql: &'static str,
    pub total_getnext: u64,
    pub rows: u64,
}

/// Seconds spent in each set-up layer; `total()` is the `setup_s` metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub stats_s: f64,
    pub save_paged_s: f64,
    pub open_paged_s: f64,
    pub bind_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datagen_s + self.stats_s + self.save_paged_s + self.open_paged_s + self.bind_s
    }
}

/// A directory under the benchmark's output dir, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    fn create(out: &Path) -> std::io::Result<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out.join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running system under test plus everything needed to check it.
pub struct Env {
    pub server: ProgressServer,
    pub oracle: Vec<Oracle>,
    pub times: SetupTimes,
    /// The generated in-memory database. For the heap workloads this is
    /// the database the server runs on; for the paged workload it is kept
    /// only when asked for (the traced run probes both backends).
    pub heap: Option<Arc<Database>>,
    /// Data sizes for the result envelope: `(table, rows)`.
    pub table_rows: Vec<(String, usize)>,
    /// Page-file bytes on disk (paged workload only).
    pub paged_bytes: u64,
    /// Declared after `server` so the page files outlive the open handles.
    tmp: Option<TempDir>,
}

impl Env {
    pub fn shutdown(mut self) {
        self.server.shutdown();
    }

    /// Where the page files live (paged workload only).
    pub fn paged_dir(&self) -> Option<&Path> {
        self.tmp.as_ref().map(|t| t.0.as_path())
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The suite's oracle: one serial in-process `run_query` per query over
/// the in-memory database, planned exactly as `SUBMIT` plans.
fn oracle(db: &Database, stats: &DbStats) -> Result<Vec<Oracle>, String> {
    SQL_QUERIES
        .iter()
        .map(|&q| {
            let sql = tpch_sql(q).ok_or_else(|| format!("no SQL text for Q{q}"))?;
            let mut plan =
                qp_sql::sql_to_plan(sql, db, stats).map_err(|e| format!("oracle Q{q}: {e}"))?;
            qp_exec::estimate::annotate(&mut plan, stats);
            let (out, _) =
                qp_exec::run_query(&plan, db, None).map_err(|e| format!("oracle Q{q}: {e}"))?;
            Ok(Oracle {
                q,
                sql,
                total_getnext: out.total_getnext,
                rows: out.rows.len() as u64,
            })
        })
        .collect()
}

/// Builds one system under test over the data `seed` generates;
/// `keep_heap` keeps the in-memory database alive next to a paged server.
pub fn setup(
    workload: Workload,
    scale: f64,
    seed: u64,
    out: &Path,
    keep_heap: bool,
) -> Result<Env, String> {
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let tpch = TpchDb::generate(TpchConfig { scale, z: Z, seed });
    times.datagen_s = secs(t);
    let table_rows = tpch
        .db
        .table_names()
        .iter()
        .map(|n| (n.to_string(), tpch.db.cardinality(n).unwrap_or(0)))
        .collect();

    let (service, heap, oracle, tmp, paged_bytes) = if workload == Workload::PagedSmall {
        // The reference answers come from the heap database before it is
        // saved: the paged server is checked against the other backend.
        let oracle = oracle(&tpch.db, &DbStats::build(&tpch.db))?;
        let tmp = TempDir::create(out).map_err(|e| format!("temp dir: {e}"))?;
        let t = Instant::now();
        tpch.save_paged(&tmp.0)
            .map_err(|e| format!("save_paged: {e}"))?;
        times.save_paged_s = secs(t);
        let paged_bytes = std::fs::read_dir(&tmp.0)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        let heap = keep_heap.then(|| Arc::new(tpch.db));

        // `QueryService::open_paged`, taken apart so each layer is timed.
        let t = Instant::now();
        let db = qp_storage::paged::open_database(&tmp.0, PAGED_FRAMES)
            .map_err(|e| format!("open_database: {e}"))?;
        times.open_paged_s = secs(t);
        let t = Instant::now();
        let stats = Arc::new(DbStats::build(&db));
        times.stats_s = secs(t);
        let t = Instant::now();
        let service = QueryService::with_stats(Arc::new(db), stats, ServiceConfig::default());
        times.bind_s = secs(t);
        (service, heap, oracle, Some(tmp), paged_bytes)
    } else {
        // `QueryService::new`, taken apart the same way.
        let db = Arc::new(tpch.db);
        let t = Instant::now();
        let stats = Arc::new(DbStats::build(&db));
        times.stats_s = secs(t);
        let oracle = oracle(&db, &stats)?;
        let t = Instant::now();
        let service = QueryService::with_stats(Arc::clone(&db), stats, ServiceConfig::default());
        times.bind_s = secs(t);
        (service, Some(db), oracle, None, 0)
    };

    let t = Instant::now();
    let server =
        ProgressServer::bind_with("127.0.0.1:0", Arc::new(service), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
    times.bind_s += secs(t);

    Ok(Env {
        server,
        oracle,
        times,
        heap,
        table_rows,
        paged_bytes,
        tmp,
    })
}
