//! Each service keeps its own metric-history ring. A router and a joined
//! backend run in one process here; the backend's `metrics-history`
//! windows must hold the backend's counters alone, never a router sample
//! (`cluster_*` counters) subtracted from a backend sample. The router
//! samples four times per backend sample, so with one shared ring a
//! router sample would be the newest for most of every backend interval.
//! Its own test binary: registry counters are process-global.

use std::time::Duration;

use mc_cluster::{Router, RouterConfig};
use mc_serve::{Client, OptimizeRequest, ServeConfig, Server};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::write_bristol;

const BACKEND_SAMPLE: Duration = Duration::from_millis(20);
const ROUTER_SAMPLE: Duration = Duration::from_millis(5);

#[test]
fn backend_history_never_mixes_in_router_samples() {
    let router = Router::bind(RouterConfig {
        sample_interval: ROUTER_SAMPLE,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let backend = Server::bind(ServeConfig {
        workers: 1,
        join: Some(router.local_addr().to_string()),
        sample_interval: BACKEND_SAMPLE,
        ..ServeConfig::default()
    })
    .expect("bind backend");
    let mut client = Client::connect(router.local_addr()).expect("connect router");
    let mut tries = 0;
    while client
        .cluster_stats()
        .expect("cluster_stats")
        .backends
        .is_empty()
    {
        tries += 1;
        assert!(tries < 500, "the backend never registered");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Three new circuits, then each one again: 3 misses and 3 cache hits
    // on the backend, 6 affinity hits on the router.
    for (i, seed) in [9000, 9001, 9002, 9000, 9001, 9002].into_iter().enumerate() {
        let mut text = Vec::new();
        write_bristol(&random_xag(&FuzzConfig::default(), seed), &mut text).expect("write");
        let request = OptimizeRequest {
            circuit: String::from_utf8(text).expect("bristol is ASCII"),
            ..OptimizeRequest::default()
        };
        let result = client
            .optimize(request)
            .expect("optimize through the router");
        assert_eq!(result.cached, i >= 3);
    }

    // (hits, misses, latency observations) of the backend's 10 s window.
    let mut direct = Client::connect(backend.local_addr()).expect("connect backend");
    let mut ten_seconds = || {
        let (_, windows) = direct.metrics_history().expect("metrics_history");
        let w = windows.iter().find(|w| w.window_secs == 10).expect("10 s");
        (w.hits, w.misses, w.lat_count)
    };
    // Wait until the backend sampled after the last job.
    for _ in 0..250 {
        if ten_seconds() == (3, 3, 3) {
            break;
        }
        std::thread::sleep(BACKEND_SAMPLE);
    }
    for poll in 0..10 {
        assert_eq!(ten_seconds(), (3, 3, 3), "poll {poll}");
        std::thread::sleep(Duration::from_millis(30));
    }

    backend.shutdown();
    router.shutdown();
}
