//! End-to-end tests of the `mc-cluster` router: boot real backends and a
//! real router on ephemeral ports, drive them with concurrent clients
//! over TCP, verify cache affinity through `cluster_stats`, and kill a
//! backend mid-stream to observe transparent failover.

use std::time::Duration;

use mc_cluster::{Router, RouterConfig};
use mc_serve::{Client, OptimizeRequest, RegisterInfo, ServeConfig, Server, ServerHandle};
use xag_network::fuzz::{random_xag, FuzzConfig};
use xag_network::{equiv_exhaustive, read_bristol, write_bristol, Xag};

fn bristol_text(xag: &Xag) -> String {
    let mut buf = Vec::new();
    write_bristol(xag, &mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("bristol is ASCII")
}

/// A router with health checking too lenient to ever mark a loaded CI
/// box's backend down spuriously — failover in these tests is driven by
/// first-hand dispatch failures, which need no health-loop timing.
fn lenient_router() -> mc_cluster::RouterHandle {
    Router::bind(RouterConfig {
        miss_threshold: 100,
        health_interval: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("bind router on an ephemeral port")
}

fn boot_backends(router_addr: &str, count: usize, workers: usize) -> Vec<ServerHandle> {
    (0..count)
        .map(|_| {
            Server::bind(ServeConfig {
                workers,
                join: Some(router_addr.to_string()),
                heartbeat_interval: Duration::from_millis(100),
                ..ServeConfig::default()
            })
            .expect("bind backend on an ephemeral port")
        })
        .collect()
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

/// The acceptance scenario: 2 backends + router over real TCP;
/// concurrent clients get equivalence-checked results; isomorphic
/// resubmission is answered from a warm backend cache, verified through
/// the `cluster_stats` affinity and cache counters.
#[test]
fn cluster_routes_concurrent_clients_with_cache_affinity() {
    const CLIENTS: u64 = 2;
    const JOBS_PER_CLIENT: u64 = 4;
    let router = lenient_router();
    let addr = router.local_addr();
    let backends = boot_backends(&addr.to_string(), 2, 2);
    let mut probe = Client::connect(addr).expect("connect probe");
    wait_for_backends(&mut probe, 2);

    // Cold phase: concurrent clients, client-disjoint seeds, every
    // result equivalence-checked against its input.
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let cfg = FuzzConfig::default();
                for j in 0..JOBS_PER_CLIENT {
                    let seed = 1000 * c + j;
                    let input = random_xag(&cfg, seed);
                    let result = client
                        .optimize(OptimizeRequest {
                            circuit: bristol_text(&input),
                            ..OptimizeRequest::default()
                        })
                        .expect("optimize through the router");
                    assert!(!result.cached, "seed {seed} is new to the cluster");
                    let back = read_bristol(result.netlist.as_bytes()).expect("parse response");
                    assert!(
                        equiv_exhaustive(&input, &back),
                        "returned netlist differs from input (seed {seed})"
                    );
                }
            });
        }
    });

    // Warm phase: resubmit every circuit over a fresh connection — the
    // router must hash each one onto the backend that computed it.
    let mut client = Client::connect(addr).expect("connect");
    let cfg = FuzzConfig::default();
    for c in 0..CLIENTS {
        for j in 0..JOBS_PER_CLIENT {
            let input = random_xag(&cfg, 1000 * c + j);
            let result = client
                .optimize(OptimizeRequest {
                    circuit: bristol_text(&input),
                    ..OptimizeRequest::default()
                })
                .expect("resubmit");
            assert!(
                result.cached,
                "isomorphic resubmission (client {c}, job {j}) must hit a warm backend"
            );
        }
    }

    let total = CLIENTS * JOBS_PER_CLIENT;
    let cstats = client.cluster_stats().expect("cluster_stats");
    assert_eq!(cstats.jobs_routed, 2 * total);
    assert_eq!(
        cstats.affinity_hits,
        2 * total,
        "an unloaded healthy cluster routes every job to its affine target"
    );
    assert_eq!(cstats.affinity_fallbacks, 0);
    assert_eq!(cstats.jobs_retried, 0);
    assert!((cstats.affinity_rate() - 1.0).abs() < 1e-12);
    // Cluster-wide: each unique circuit computed exactly once (8 misses),
    // each resubmission a hit on the same backend (8 hits) — the whole
    // point of affine routing.
    let misses: u64 = cstats.backends.iter().map(|b| b.cache_misses).sum();
    let hits: u64 = cstats.backends.iter().map(|b| b.cache_hits).sum();
    assert_eq!(misses, total, "every unique job computed exactly once");
    assert_eq!(hits, total, "every resubmission found a warm cache");
    // Both backends actually took part.
    for b in &cstats.backends {
        assert!(b.up);
        assert!(b.jobs_routed > 0, "backend {} never saw a job", b.id);
    }

    // The aggregated stats endpoint tells the same story to plain
    // `mc-client --stats`.
    let stats = client.stats().expect("aggregate stats");
    assert_eq!(stats.jobs_served, 2 * total);
    assert_eq!(stats.cache_hits, total);
    assert_eq!(stats.cache_misses, total);

    for b in backends {
        b.shutdown();
    }
    router.shutdown();
}

/// Kill one backend mid-stream: every accepted job still completes (the
/// router retries first-hand dispatch failures on the survivor), and the
/// registry reflects the loss.
#[test]
fn killing_a_backend_mid_stream_loses_no_job() {
    const BEFORE_KILL: u64 = 4;
    const AFTER_KILL: u64 = 10;
    let router = lenient_router();
    let addr = router.local_addr();
    let mut backends = boot_backends(&addr.to_string(), 2, 2);
    let mut client = Client::connect(addr).expect("connect");
    wait_for_backends(&mut client, 2);

    let cfg = FuzzConfig::default();
    let mut submit = |seed: u64| {
        let input = random_xag(&cfg, seed);
        let result = client
            .optimize(OptimizeRequest {
                circuit: bristol_text(&input),
                ..OptimizeRequest::default()
            })
            .unwrap_or_else(|e| panic!("job {seed} lost: {e}"));
        let back = read_bristol(result.netlist.as_bytes()).expect("parse response");
        assert!(equiv_exhaustive(&input, &back), "seed {seed}");
    };

    for seed in 0..BEFORE_KILL {
        submit(5000 + seed);
    }
    // Kill one backend. Its listener closes and its join agent stops;
    // the router only learns when a dispatch fails.
    backends.remove(0).shutdown();
    for seed in 0..AFTER_KILL {
        submit(6000 + seed);
    }

    let cstats = client.cluster_stats().expect("cluster_stats");
    assert_eq!(
        cstats.jobs_routed,
        BEFORE_KILL + AFTER_KILL,
        "every submitted job was answered"
    );
    assert!(
        cstats.jobs_retried >= 1,
        "at least one post-kill job must have been retried off the dead backend"
    );
    // The router's own window counts the same retries, once its sampler
    // has ticked after them.
    let mut window_retries = 0;
    for _ in 0..500 {
        let (_, windows) = client.metrics_history().expect("metrics_history");
        window_retries = windows.iter().map(|w| w.retries).max().unwrap_or(0);
        if window_retries >= cstats.jobs_retried {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(window_retries, cstats.jobs_retried);
    assert_eq!(
        cstats.backends.iter().filter(|b| b.up).count(),
        1,
        "the dead backend is marked down after the failed dispatch"
    );

    // The cluster still serves cache hits from the survivor.
    let input = random_xag(&cfg, 6000);
    let result = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&input),
            ..OptimizeRequest::default()
        })
        .expect("resubmit after failover");
    assert!(result.cached, "survivor's cache is warm for its own jobs");

    for b in backends {
        b.shutdown();
    }
    router.shutdown();
}

/// The FlowSpec acceptance scenario: a custom `mc(cut=6);xor;cleanup*`
/// flow round-trips through router → backend, equivalence-checks against
/// the input, and an isomorphic resubmission with a whitespace-variant
/// spec (and a `par{}`-wrapped one) is a cluster-wide cache hit — the
/// router and the backend agree bit for bit on the spec-inclusive key.
#[test]
fn custom_flow_spec_round_trips_with_cluster_wide_cache_affinity() {
    let router = lenient_router();
    let addr = router.local_addr();
    let backends = boot_backends(&addr.to_string(), 2, 2);
    let mut client = Client::connect(addr).expect("connect");
    wait_for_backends(&mut client, 2);

    let input = random_xag(&FuzzConfig::default(), 4711);
    let mut submit = |flow: &str| {
        client
            .optimize(OptimizeRequest {
                circuit: bristol_text(&input),
                flow: flow.parse().expect("valid spec"),
                ..OptimizeRequest::default()
            })
            .expect("optimize through the router")
    };

    let first = submit("mc(cut=6);xor;cleanup*");
    assert!(!first.cached, "cold custom flow computes");
    let back = read_bristol(first.netlist.as_bytes()).expect("parse response");
    assert!(
        equiv_exhaustive(&input, &back),
        "custom flow broke equivalence"
    );

    // Isomorphic resubmissions under spec variants that normalize to the
    // same canonical bytes must land on the warm backend.
    for variant in [
        " mc( cut = 6 ) ; xor ; cleanup * ",
        "{mc(cut=6);xor};cleanup*",
        "{mc(cut=6)};xor;cleanup*",
    ] {
        let hit = submit(variant);
        assert!(hit.cached, "{variant} must be a cluster-wide cache hit");
        assert_eq!(hit.job_id, first.job_id, "{variant}");
        assert_eq!(hit.netlist, first.netlist, "{variant}");
    }
    // A semantically different spec is a different job.
    let other = submit("mc(cut=4);xor;cleanup*");
    assert!(!other.cached, "a different cut knob is a different job");

    let mut probe = Client::connect(addr).expect("connect probe");
    let cstats = probe.cluster_stats().expect("cluster_stats");
    let misses: u64 = cstats.backends.iter().map(|b| b.cache_misses).sum();
    let hits: u64 = cstats.backends.iter().map(|b| b.cache_hits).sum();
    assert_eq!(misses, 2, "one miss per distinct normalized spec");
    assert_eq!(hits, 3, "every variant resubmission hit a warm cache");

    for b in backends {
        b.shutdown();
    }
    router.shutdown();
}

/// A malformed upload is refused at the router's edge and consumes no
/// backend dispatch; the connection keeps working.
#[test]
fn router_rejects_malformed_uploads_at_the_edge() {
    let router = lenient_router();
    let addr = router.local_addr();
    let backends = boot_backends(&addr.to_string(), 1, 1);
    let mut client = Client::connect(addr).expect("connect");
    wait_for_backends(&mut client, 1);

    let err = client
        .optimize(OptimizeRequest {
            circuit: "this is not a circuit".to_string(),
            ..OptimizeRequest::default()
        })
        .expect_err("garbage must be rejected");
    assert!(matches!(err, mc_serve::ClientError::Server(_)), "{err}");

    let cstats = client.cluster_stats().expect("cluster_stats");
    assert_eq!(cstats.jobs_routed, 0, "nothing was dispatched");
    assert_eq!(cstats.affinity_hits + cstats.affinity_fallbacks, 0);

    // The same connection still routes good jobs, and ping works on a
    // router exactly as on a backend.
    assert!(client.ping().is_ok());
    let input = random_xag(&FuzzConfig::default(), 9);
    let result = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&input),
            ..OptimizeRequest::default()
        })
        .expect("router still healthy");
    let back = read_bristol(result.netlist.as_bytes()).expect("parse");
    assert!(equiv_exhaustive(&input, &back));

    for b in backends {
        b.shutdown();
    }
    router.shutdown();
}

/// A job routed without a trace ID runs under the one the router assigns
/// at the edge, and the ID its result echoes finds, through the router,
/// both the router's dispatch and the backend's passes.
#[test]
fn the_trace_id_a_router_assigns_finds_dispatch_and_passes() {
    let router = lenient_router();
    let addr = router.local_addr();
    let backends = boot_backends(&addr.to_string(), 1, 1);
    let mut client = Client::connect(addr).expect("connect");
    wait_for_backends(&mut client, 1);

    let input = random_xag(&FuzzConfig::default(), 31);
    let result = client
        .optimize(OptimizeRequest {
            circuit: bristol_text(&input),
            ..OptimizeRequest::default()
        })
        .expect("optimize through the router");
    assert!(!result.cached);
    let events = client
        .trace_dump(Some(result.trace_id))
        .expect("trace_dump through the router");
    assert!(
        events.iter().any(|e| e.span == "cluster:dispatch"),
        "no dispatch under the echoed trace ID {}: {events:?}",
        result.trace_id
    );
    assert!(
        events.iter().any(|e| e.span.starts_with("pass:")),
        "no backend pass under the echoed trace ID {}: {events:?}",
        result.trace_id
    );
    // The backend shares the router's process and its trace rings, yet
    // the dump lists each event once.
    for (i, e) in events.iter().enumerate() {
        assert!(!events[i + 1..].contains(e), "event repeats: {e:?}");
    }

    for b in backends {
        b.shutdown();
    }
    router.shutdown();
}

/// The load a backend reports reaches the router's aggregate `status`
/// and the backend's `cluster_stats` row. Nothing listens at the
/// registered address; the lenient miss threshold keeps it up for the
/// test's lifetime.
#[test]
fn reported_load_reaches_status_and_cluster_stats() {
    let router = lenient_router();
    let mut client = Client::connect(router.local_addr()).expect("connect");
    let addr = "127.0.0.1:1";
    client
        .register(RegisterInfo {
            addr: addr.to_string(),
            capacity: 3,
            queue_capacity: 64,
            queue_depth: 5,
            busy: 2,
        })
        .expect("register and report load");

    let status = client.status().expect("status");
    assert_eq!(status.workers, 3);
    assert_eq!(status.queue_capacity, 64);
    assert_eq!(status.queue_depth, 5);
    assert_eq!(status.busy, 2);

    let cstats = client.cluster_stats().expect("cluster_stats");
    let row = cstats
        .backends
        .iter()
        .find(|b| b.addr == addr)
        .expect("a row for the registered address");
    assert!(row.up);
    assert_eq!(row.capacity, 3);
    assert_eq!(row.queue_depth, 5);
    assert_eq!(row.busy, 2);
    assert_eq!(row.in_flight, 0);
    assert_eq!(row.jobs_routed, 0);

    router.shutdown();
}
