//! The service over a paged database: WAL replay on open, result parity
//! with the in-memory backend, and the `PAGE_CACHE_FRAMES=` wire field
//! round-tripping (resize observable through `METRICS`, zero and
//! memory-only misuse rejected with typed errors).

use qp_datagen::{TpchConfig, TpchDb};
use qp_service::{ProgressServer, QueryService, QueryState, ServiceClient, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qp-service-paged-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny() -> TpchDb {
    TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 1.0,
        seed: 11,
    })
}

const SQL: &str = "SELECT COUNT(*) AS n FROM orders, customer \
                   WHERE o_custkey = c_custkey AND o_totalprice > 1000";

#[test]
fn paged_service_matches_memory_service() {
    let t = tiny();
    let dir = tmp("parity");
    t.save_paged(&dir).expect("bulk load");

    let mem = QueryService::new(Arc::new(t.db), ServiceConfig::default());
    let paged = QueryService::open_paged(&dir, 16, ServiceConfig::default()).expect("open");
    assert!(paged.database().buffer_pool().is_some());

    let (a, b) = (mem.submit(SQL).unwrap(), paged.submit(SQL).unwrap());
    assert_eq!(mem.wait(a), Some(QueryState::Finished));
    assert_eq!(paged.wait(b), Some(QueryState::Finished));
    let (sa, sb) = (mem.status(a).unwrap(), paged.status(b).unwrap());
    assert_eq!(sa.rows, sb.rows);
    assert_eq!(
        sa.total_getnext, sb.total_getnext,
        "total(Q) must not depend on the backend"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn page_cache_frames_round_trips_over_the_wire() {
    let t = tiny();
    let dir = tmp("wire");
    t.save_paged(&dir).expect("bulk load");
    let service = Arc::new(QueryService::open_paged(&dir, 64, ServiceConfig::default()).unwrap());
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();

    // The capability line advertises the field, so clients can gate on it.
    assert!(client.hello().unwrap().contains("PAGE_CACHE_FRAMES"));

    // Zero is a typed BAD_REQUEST, not SQL and not a panic.
    let err = client
        .submit_with_fields("PAGE_CACHE_FRAMES=0", SQL)
        .unwrap()
        .unwrap_err();
    assert!(err.starts_with("BAD_REQUEST"), "{err}");

    // A valid resize is accepted and observable through METRICS.
    let id = client
        .submit_with_fields("PAGE_CACHE_FRAMES=7", SQL)
        .unwrap()
        .expect("accepted");
    assert_eq!(service.wait(id), Some(QueryState::Finished));

    let metrics = client.metrics().unwrap().unwrap();
    assert!(metrics.contains("qp_pagecache_frames 7"), "{metrics}");
    let misses: f64 = metrics
        .lines()
        .find(|l| l.starts_with("qp_pagecache_misses_total"))
        .and_then(|l| l.rsplit(' ').next())
        .expect("misses sample")
        .parse()
        .unwrap();
    assert!(
        misses > 0.0,
        "a real scan through the pool must miss at least once"
    );
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn page_cache_frames_rejected_on_memory_backend() {
    let t = tiny();
    let service = Arc::new(QueryService::new(Arc::new(t.db), ServiceConfig::default()));
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    let err = client
        .submit_with_fields("PAGE_CACHE_FRAMES=8", SQL)
        .unwrap()
        .unwrap_err();
    assert!(err.starts_with("BAD_REQUEST"), "{err}");
    drop(client);
    server.shutdown();
}
