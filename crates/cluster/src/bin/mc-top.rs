//! `mc-top` — a live terminal dashboard for a cluster (or a single
//! daemon).
//!
//! Usage:
//!
//! ```text
//! mc-top ADDR [--interval-ms N] [--once] [--json]
//! ```
//!
//! * `ADDR` — a router (`mc-cluster`) or a plain backend (`mc-serve`);
//!   against a backend the per-backend table is simply absent.
//! * `--interval-ms` — refresh interval (default 1000).
//! * `--once` — render one frame and exit instead of refreshing.
//! * `--json` — with `--once`: print the snapshot as one JSON object
//!   (machine-readable; what the CI smoke test asserts against).
//!
//! Every refresh polls four frames — `status`, `cluster_stats`,
//! `metrics_history`, `prof_dump` — plus each up backend's `status` for
//! its running jobs, and renders: the SLO health line, per-backend
//! health/load rows, throughput and hit-rate sparklines fed by the
//! 10-second window, the running jobs with their trace IDs, and the
//! hottest profiler phases by self time. The windows are the polled
//! service's own: through a router they show the jobs it routed, the
//! routed results backends answered from cache, its dispatch retries and
//! errors, and dispatch latency — the rates its SLO health line judges;
//! against a daemon, its jobs served, cache lookups and run latency.
//! Plain ANSI only: clear-screen, home, and bold — no TUI dependency,
//! per the workspace's offline std-only policy.

use std::collections::VecDeque;
use std::time::Duration;

use mc_obs::{HistoryWindow, JobProgress, PhaseStat};
use mc_serve::json::Json;
use mc_serve::protocol::{backend_row, job_row, phase_row, window_row, BackendStats};
use mc_serve::Client;

fn usage() -> ! {
    eprintln!("usage: mc-top ADDR [--interval-ms N] [--once] [--json]");
    std::process::exit(2);
}

/// How many sparkline points the dashboard remembers (one per refresh).
const SPARK_POINTS: usize = 48;

/// One polled frame of everything the dashboard renders.
struct Snapshot {
    at_ms: u64,
    health: String,
    windows: Vec<HistoryWindow>,
    backends: Vec<BackendStats>,
    /// `(backend addr, job)` — addr is empty against a plain backend.
    running: Vec<(String, JobProgress)>,
    phases: Vec<PhaseStat>,
    queue_depth: usize,
    workers: usize,
    busy: usize,
}

fn poll(addr: &str) -> Result<Snapshot, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let status = client.status().map_err(|e| format!("status: {e}"))?;
    let (at_ms, windows) = client
        .metrics_history()
        .map_err(|e| format!("metrics-history: {e}"))?;
    let phases = client.prof_dump().map_err(|e| format!("prof-dump: {e}"))?;
    // A plain backend answers `cluster_stats` with a server error; fall
    // back to single-node mode with the running jobs it already gave us.
    let (health, backends, mut running) = match client.cluster_stats() {
        Ok(stats) => (
            stats.health,
            stats.backends,
            Vec::<(String, JobProgress)>::new(),
        ),
        Err(_) => (
            String::new(),
            Vec::new(),
            status
                .running
                .iter()
                .cloned()
                .map(|j| (String::new(), j))
                .collect(),
        ),
    };
    // Per-job progress lives on the backends, not the router.
    for b in backends.iter().filter(|b| b.up) {
        if let Ok(mut bc) = Client::connect(&b.addr) {
            if let Ok(bs) = bc.status() {
                running.extend(bs.running.into_iter().map(|j| (b.addr.clone(), j)));
            }
        }
    }
    running.sort_by_key(|(_, j)| j.job_id);
    Ok(Snapshot {
        at_ms,
        health,
        windows,
        backends,
        running,
        phases,
        queue_depth: status.queue_depth,
        workers: status.workers,
        busy: status.busy,
    })
}

fn window(snapshot: &Snapshot, secs: u64) -> HistoryWindow {
    snapshot
        .windows
        .iter()
        .find(|w| w.window_secs == secs)
        .cloned()
        .unwrap_or_else(|| HistoryWindow::empty(secs))
}

/// Renders `values` scaled to the eight block glyphs (empty history
/// renders as spaces, an all-zero history as the lowest block).
fn sparkline(values: &VecDeque<f64>) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    let mut out = String::with_capacity(SPARK_POINTS * 3);
    for _ in values.len()..SPARK_POINTS {
        out.push(' ');
    }
    for &v in values {
        let idx = if max > 0.0 {
            (((v / max) * 7.0).round() as usize).min(7)
        } else {
            0
        };
        out.push(GLYPHS[idx]);
    }
    out
}

fn render(snapshot: &Snapshot, jobs_spark: &VecDeque<f64>, hits_spark: &VecDeque<f64>) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    let w10 = window(snapshot, 10);
    let w60 = window(snapshot, 60);
    let w300 = window(snapshot, 300);
    let health = if snapshot.health.is_empty() {
        "-".to_string()
    } else {
        snapshot.health.clone()
    };
    let _ = writeln!(
        out,
        "\x1b[1mmc-top\x1b[0m  health: {health}  workers {}/{} busy  queue {}",
        snapshot.busy, snapshot.workers, snapshot.queue_depth
    );
    let _ = writeln!(
        out,
        "jobs/s   10s {:>8.2}  1m {:>8.2}  5m {:>8.2}   |{}|",
        w10.jobs_per_sec(),
        w60.jobs_per_sec(),
        w300.jobs_per_sec(),
        sparkline(jobs_spark)
    );
    let _ = writeln!(
        out,
        "hit-rate 10s {:>7.1}%  1m {:>7.1}%  5m {:>7.1}%   |{}|",
        w10.hit_rate() * 100.0,
        w60.hit_rate() * 100.0,
        w300.hit_rate() * 100.0,
        sparkline(hits_spark)
    );
    let _ = writeln!(
        out,
        "latency  10s p50 {}µs p99 {}µs   retry-rate {:>5.3}  error-rate {:>5.3}",
        w10.p50_us(),
        w10.p99_us(),
        w10.retry_rate(),
        w10.error_rate()
    );
    if !snapshot.backends.is_empty() {
        let _ = writeln!(
            out,
            "\n\x1b[1m{:>4} {:<22} {:>4} {:>5} {:>6} {:>8} {:>8} {:>9}\x1b[0m",
            "id", "addr", "up", "busy", "queue", "routed", "served", "hit-rate"
        );
        for b in &snapshot.backends {
            let lookups = b.cache_hits + b.cache_misses;
            let hit_rate = if lookups > 0 {
                format!("{:.1}%", b.cache_hits as f64 / lookups as f64 * 100.0)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:>4} {:<22} {:>4} {:>2}/{:<2} {:>6} {:>8} {:>8} {:>9}",
                b.id,
                b.addr,
                if b.up { "up" } else { "DOWN" },
                b.busy,
                b.capacity,
                b.queue_depth,
                b.jobs_routed,
                b.jobs_served,
                hit_rate
            );
        }
    }
    if !snapshot.running.is_empty() {
        let _ = writeln!(
            out,
            "\n\x1b[1m{:>6} {:>18} {:<24} {:<16} {:>5} {:>8}\x1b[0m",
            "job", "trace", "flow", "pass", "round", "elapsed"
        );
        for (addr, j) in &snapshot.running {
            let _ = writeln!(
                out,
                "{:>6} {:>18x} {:<24} {:<16} {:>5} {:>6}ms  {}",
                j.job_id, j.trace_id, j.flow, j.pass, j.round, j.elapsed_ms, addr
            );
        }
    }
    let mut phases = snapshot.phases.clone();
    phases.sort_by_key(|p| std::cmp::Reverse(p.self_us));
    if !phases.is_empty() {
        let _ = writeln!(
            out,
            "\n\x1b[1m{:<44} {:>8} {:>12} {:>12}\x1b[0m",
            "phase", "count", "total", "self"
        );
        for p in phases.iter().take(10) {
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>10}µs {:>10}µs",
                p.path, p.count, p.total_us, p.self_us
            );
        }
    }
    out
}

/// A window's protocol row with the rates mc-top derives from it.
fn window_json(w: &HistoryWindow) -> Json {
    let mut row = window_row(w);
    row.extend([
        ("jobs_per_sec".to_string(), Json::from(w.jobs_per_sec())),
        ("hit_rate".to_string(), Json::from(w.hit_rate())),
        ("retry_rate".to_string(), Json::from(w.retry_rate())),
        ("error_rate".to_string(), Json::from(w.error_rate())),
        ("p50_us".to_string(), Json::from(w.p50_us())),
        ("p99_us".to_string(), Json::from(w.p99_us())),
    ]);
    Json::Obj(row)
}

fn snapshot_json(snapshot: &Snapshot) -> Json {
    let rows =
        |rows: Vec<Vec<(String, Json)>>| Json::Arr(rows.into_iter().map(Json::Obj).collect());
    Json::Obj(vec![
        ("at_ms".to_string(), Json::from(snapshot.at_ms)),
        ("health".to_string(), Json::from(snapshot.health.as_str())),
        ("queue_depth".to_string(), Json::from(snapshot.queue_depth)),
        ("workers".to_string(), Json::from(snapshot.workers)),
        ("busy".to_string(), Json::from(snapshot.busy)),
        (
            "windows".to_string(),
            Json::Arr(snapshot.windows.iter().map(window_json).collect()),
        ),
        (
            "backends".to_string(),
            rows(snapshot.backends.iter().map(backend_row).collect()),
        ),
        (
            "running".to_string(),
            rows(
                snapshot
                    .running
                    .iter()
                    .map(|(addr, j)| {
                        let mut row = job_row(j);
                        row.push(("backend".to_string(), Json::from(addr.as_str())));
                        row
                    })
                    .collect(),
            ),
        ),
        (
            "phases".to_string(),
            rows(snapshot.phases.iter().map(phase_row).collect()),
        ),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr: Option<String> = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut json = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--interval-ms" => {
                let ms: u64 = value().parse().unwrap_or_else(|_| usage());
                interval = Duration::from_millis(ms.max(50));
            }
            "--once" => once = true,
            "--json" => json = true,
            a if a.starts_with("--") => usage(),
            a => {
                if addr.replace(a.to_string()).is_some() {
                    usage();
                }
            }
        }
    }
    let Some(addr) = addr else { usage() };
    if json && !once {
        eprintln!("mc-top: --json requires --once (one machine-readable snapshot)");
        usage();
    }

    let mut jobs_spark: VecDeque<f64> = VecDeque::with_capacity(SPARK_POINTS);
    let mut hits_spark: VecDeque<f64> = VecDeque::with_capacity(SPARK_POINTS);
    loop {
        let snapshot = match poll(&addr) {
            Ok(snapshot) => snapshot,
            Err(e) => {
                eprintln!("mc-top: {e}");
                std::process::exit(1);
            }
        };
        let w10 = window(&snapshot, 10);
        if jobs_spark.len() == SPARK_POINTS {
            jobs_spark.pop_front();
            hits_spark.pop_front();
        }
        jobs_spark.push_back(w10.jobs_per_sec());
        hits_spark.push_back(w10.hit_rate());

        if json {
            println!("{}", snapshot_json(&snapshot).encode());
            return;
        }
        if once {
            print!("{}", render(&snapshot, &jobs_spark, &hits_spark));
            return;
        }
        // Clear, home, render — plain ANSI refresh.
        print!(
            "\x1b[2J\x1b[H{}",
            render(&snapshot, &jobs_spark, &hits_spark)
        );
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}
