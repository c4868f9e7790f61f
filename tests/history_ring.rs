//! Each service keeps its own metric-history ring, and each ring counts
//! that service alone. Routers and backends run in one process here, as
//! they do in the crate example, `tests/cluster.rs` and the benchmark's
//! `cluster_mix`: a backend's `metrics-history` windows must hold the
//! backend's own jobs, never a co-resident service's, and a router's
//! windows must hold the jobs it routed, each once. The router samples
//! faster than its backends, so a ring fed from shared counters would
//! show the other services' jobs within a few ticks.

use std::time::Duration;

use mc_cluster::{Router, RouterConfig, RouterHandle};
use mc_serve::{Client, OptimizeRequest, ServeConfig, Server, ServerHandle};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::write_bristol;

const BACKEND_SAMPLE: Duration = Duration::from_millis(20);
const ROUTER_SAMPLE: Duration = Duration::from_millis(5);

fn router() -> RouterHandle {
    Router::bind(RouterConfig {
        sample_interval: ROUTER_SAMPLE,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

fn backend(router: &RouterHandle) -> ServerHandle {
    Server::bind(ServeConfig {
        workers: 1,
        join: Some(router.local_addr().to_string()),
        sample_interval: BACKEND_SAMPLE,
        ..ServeConfig::default()
    })
    .expect("bind backend")
}

fn wait_for_backends(client: &mut Client, up: usize) {
    for _ in 0..500 {
        let stats = client.cluster_stats().expect("cluster_stats");
        if stats.backends.iter().filter(|b| b.up).count() >= up {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("{up} backend(s) never registered with the router");
}

fn request(seed: u64) -> OptimizeRequest {
    let mut text = Vec::new();
    write_bristol(&random_xag(&FuzzConfig::default(), seed), &mut text).expect("write");
    OptimizeRequest {
        circuit: String::from_utf8(text).expect("bristol is ASCII"),
        ..OptimizeRequest::default()
    }
}

/// (jobs, hits, misses, latency observations) of one window.
type Counts = (u64, u64, u64, u64);

/// Every window of the service, keyed by its length in seconds.
fn windows(client: &mut Client) -> Vec<(u64, Counts)> {
    let (_, windows) = client.metrics_history().expect("metrics_history");
    windows
        .iter()
        .map(|w| (w.window_secs, (w.jobs, w.hits, w.misses, w.lat_count)))
        .collect()
}

/// The service's window of `secs` seconds.
fn window(client: &mut Client, secs: u64) -> Counts {
    let windows = windows(client);
    let found = windows.iter().find(|(s, _)| *s == secs);
    found.expect("a standard window").1
}

/// Polls `client`'s window of `secs` seconds until `done` holds of it,
/// then returns it; panics after a generous deadline.
fn wait_for_window(client: &mut Client, secs: u64, done: impl Fn(Counts) -> bool) -> Counts {
    for _ in 0..1000 {
        let w = window(client, secs);
        if done(w) {
            return w;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("the {secs} s window never settled");
}

#[test]
fn backend_history_never_mixes_in_router_samples() {
    let router = router();
    let backend = backend(&router);
    let mut client = Client::connect(router.local_addr()).expect("connect router");
    wait_for_backends(&mut client, 1);

    // Three new circuits, then each one again: 3 misses and 3 cache hits
    // on the backend, 6 affinity hits on the router.
    for (i, seed) in [9000, 9001, 9002, 9000, 9001, 9002].into_iter().enumerate() {
        let result = client
            .optimize(request(seed))
            .expect("optimize through the router");
        assert_eq!(result.cached, i >= 3);
    }

    // (hits, misses, latency observations) of the backend's 10 s window,
    // once the backend sampled after the last job.
    let mut direct = Client::connect(backend.local_addr()).expect("connect backend");
    wait_for_window(&mut direct, 10, |(_, hits, _, _)| hits >= 3);
    for poll in 0..10 {
        let (_, hits, misses, runs) = window(&mut direct, 10);
        assert_eq!((hits, misses, runs), (3, 3, 3), "poll {poll}");
        std::thread::sleep(Duration::from_millis(30));
    }

    backend.shutdown();
    router.shutdown();
}

/// One router and two daemons, A and B, in one process. Jobs sent
/// straight to A leave B's windows empty; jobs sent through the router
/// make the router's window read exactly the routed count, split into
/// the results a backend answered from its cache and the ones it
/// computed.
#[test]
fn every_window_counts_its_own_service_alone() {
    let router = router();
    let (a, b) = (backend(&router), backend(&router));
    let mut client = Client::connect(router.local_addr()).expect("connect router");
    wait_for_backends(&mut client, 2);

    // Three new circuits and one repeat, straight to A.
    let mut to_a = Client::connect(a.local_addr()).expect("connect A");
    for seed in [9100, 9101, 9102, 9100] {
        to_a.optimize(request(seed)).expect("optimize on A");
    }
    let w = wait_for_window(&mut to_a, 10, |(jobs, ..)| jobs >= 4);
    assert_eq!(w, (4, 1, 3, 3), "A counts its own jobs");
    let mut to_b = Client::connect(b.local_addr()).expect("connect B");
    for poll in 0..10 {
        for (secs, w) in windows(&mut to_b) {
            assert_eq!(w, (0, 0, 0, 0), "B's {secs} s window, poll {poll}");
        }
        std::thread::sleep(BACKEND_SAMPLE);
    }
    // Each daemon's scrape shows its own counts, as `stats` does.
    for (client, counts) in [(&mut to_a, [4, 1, 3]), (&mut to_b, [0, 0, 0])] {
        let text = client.metrics().expect("metrics");
        let names = ["jobs_served", "cache_hits", "cache_misses"];
        for (name, count) in names.into_iter().zip(counts) {
            let line = format!("serve_{name}_total {count}\n");
            assert!(text.contains(&line), "no {line:?} in\n{text}");
        }
    }

    // New circuits through the router, then each one again: the repeats
    // land on the backend that cached them.
    let seeds = [9200, 9201, 9202, 9203, 9204];
    let mut cached = 0;
    for seed in seeds.iter().chain(&seeds) {
        let result = client
            .optimize(request(*seed))
            .expect("optimize through the router");
        cached += u64::from(result.cached);
    }
    let routed = client.cluster_stats().expect("cluster_stats").jobs_routed;
    assert_eq!(routed, 2 * seeds.len() as u64);
    let (jobs, hits, misses, dispatches) =
        wait_for_window(&mut client, 300, |(jobs, ..)| jobs >= routed);
    assert_eq!(jobs, routed, "the router counts each routed job once");
    assert_eq!(hits + misses, routed);
    assert_eq!(hits, cached);
    assert_eq!(dispatches, routed, "one dispatch per routed job");
    // The cluster scrape shows the routing count once, in the router's
    // section, though every backend section renders the shared registry.
    let text = client.metrics().expect("metrics");
    let routed_line = format!("cluster_jobs_routed_total {routed}\n");
    assert_eq!(
        text.matches("cluster_jobs_routed_total").count(),
        1,
        "{text}"
    );
    assert!(text.contains(&routed_line), "{text}");

    a.shutdown();
    b.shutdown();
    router.shutdown();
}
