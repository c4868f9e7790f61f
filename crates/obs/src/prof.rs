//! The continuous phase profiler: always-on, self/total time per phase,
//! keyed by folded-stack path.
//!
//! A *phase* is a named scope entered with [`phase`]; nesting builds a
//! stack whose joined names form a path (`pipeline;mc_rewrite;cut_enum`),
//! exactly the folded-stack format flamegraph tools consume. Each exit
//! accumulates the phase's *total* time and its *self* time (total minus
//! the time spent in child phases) into a thread-local table, at the path
//! index its frame found at enter, so an exit hashes nothing; the table
//! flushes into the process-global profile only when the thread's stack
//! empties — once per pass, not once per phase — so the global lock never
//! shows up in a profile of the profiler.
//!
//! The overhead budget is the design constraint everything here serves:
//! phases are entered at pass, round, or node granularity — never
//! per cut — and one enter/exit is two `Instant` reads plus a stack
//! push/pop. `hotpath_bench` gates this empirically with its
//! profiler-on/off ratio row (see `xag-bench`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum phase nesting depth; deeper phases are silently skipped (the
/// pipeline uses four levels).
pub const MAX_DEPTH: usize = 8;

/// Accumulated timings of one phase path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// The semicolon-joined phase stack, e.g. `pipeline;mc_rewrite;cut_enum`.
    pub path: String,
    /// Number of enter/exit pairs.
    pub count: u64,
    /// Total wall time inside the phase, µs (includes child phases).
    pub total_us: u64,
    /// Wall time inside the phase excluding child phases, µs.
    pub self_us: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    count: u64,
    total_us: u64,
    self_us: u64,
}

/// One phase path of a thread's phase tree: its last name and the path
/// above it. Children are told apart by the addresses of their static
/// names rather than their text: comparing the text made up most of the
/// cost of a phase exit. Copies of one name at two addresses make two
/// nodes here, which the flush merges under their common path string.
struct PathNode {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
}

struct Frame {
    /// Index of the frame's path in [`ProfLocal::paths`], found at enter.
    path: usize,
    start: Instant,
    child_us: u64,
}

#[derive(Default)]
struct ProfLocal {
    stack: Vec<Frame>,
    /// The thread's phase tree, kept across flushes.
    paths: Vec<PathNode>,
    /// Indices of the paths of one name.
    roots: Vec<usize>,
    /// Per path, what its exits added since the last flush.
    totals: Vec<Totals>,
}

impl ProfLocal {
    /// The index of the path `name` extends the current stack to,
    /// added on first use.
    fn path_of(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().map(|f| f.path);
        let siblings = match parent {
            Some(p) => &self.paths[p].children,
            None => &self.roots,
        };
        if let Some(&i) = siblings
            .iter()
            .find(|&&i| std::ptr::eq(self.paths[i].name, name))
        {
            return i;
        }
        let i = self.paths.len();
        self.paths.push(PathNode {
            name,
            parent,
            children: Vec::new(),
        });
        self.totals.push(Totals::default());
        match parent {
            Some(p) => self.paths[p].children.push(i),
            None => self.roots.push(i),
        }
        i
    }

    fn flush(&mut self) {
        if self.totals.iter().all(|t| t.count == 0) {
            return;
        }
        let mut global = global().lock().expect("prof lock poisoned");
        for (i, t) in self.totals.iter_mut().enumerate() {
            if t.count == 0 {
                continue;
            }
            let mut names = Vec::new();
            let mut at = Some(i);
            while let Some(n) = at {
                names.push(self.paths[n].name);
                at = self.paths[n].parent;
            }
            names.reverse();
            let entry = global.entry(names.join(";")).or_default();
            entry.count += t.count;
            entry.total_us += t.total_us;
            entry.self_us += t.self_us;
            *t = Totals::default();
        }
    }
}

impl Drop for ProfLocal {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<ProfLocal> = RefCell::new(ProfLocal::default());
}

fn global() -> &'static Mutex<HashMap<String, Totals>> {
    static GLOBAL: OnceLock<Mutex<HashMap<String, Totals>>> = OnceLock::new();
    GLOBAL.get_or_init(Mutex::default)
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns the profiler on or off process-wide. On by default; the off
/// switch exists for the overhead microbenchmark and as an operator
/// escape hatch, not because the overhead needs one.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`phase`] currently records.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enters a phase; the returned guard exits it on drop. Guards must nest
/// (drop in reverse entry order), which scoping gives for free. When the
/// profiler is disabled or the stack is at [`MAX_DEPTH`], the guard is
/// inert.
pub fn phase(name: &'static str) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard { name: None };
    }
    let entered = LOCAL
        .try_with(|local| {
            let mut local = local.borrow_mut();
            if local.stack.len() >= MAX_DEPTH {
                return false;
            }
            let path = local.path_of(name);
            local.stack.push(Frame {
                path,
                start: Instant::now(),
                child_us: 0,
            });
            true
        })
        .unwrap_or(false);
    PhaseGuard {
        name: entered.then_some(name),
    }
}

/// RAII guard for one phase entry. See [`phase`].
#[must_use = "a phase is timed until the guard drops"]
pub struct PhaseGuard {
    name: Option<&'static str>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(name) = self.name else { return };
        let _ = LOCAL.try_with(|local| {
            let mut local = local.borrow_mut();
            let Some(frame) = local.stack.pop() else {
                return;
            };
            debug_assert_eq!(
                local.paths[frame.path].name, name,
                "phase guards dropped out of order"
            );
            let total_us = frame.start.elapsed().as_micros() as u64;
            let self_us = total_us.saturating_sub(frame.child_us);
            if let Some(parent) = local.stack.last_mut() {
                parent.child_us += total_us;
            }
            let t = &mut local.totals[frame.path];
            t.count += 1;
            t.total_us += total_us;
            t.self_us += self_us;
            if local.stack.is_empty() {
                local.flush();
            }
        });
    }
}

/// The accumulated profile, sorted by path. Live phases (still on some
/// thread's stack) and un-flushed thread-local tables are not included —
/// the snapshot is exact at pass boundaries, which is the granularity
/// the profile is read at.
pub fn snapshot() -> Vec<PhaseStat> {
    let global = global().lock().expect("prof lock poisoned");
    let mut stats: Vec<PhaseStat> = global
        .iter()
        .map(|(path, t)| PhaseStat {
            path: path.clone(),
            count: t.count,
            total_us: t.total_us,
            self_us: t.self_us,
        })
        .collect();
    stats.sort_by(|a, b| a.path.cmp(&b.path));
    stats
}

/// Clears the accumulated profile (benchmarks and tests).
pub fn reset() {
    global().lock().expect("prof lock poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The profile is process-global; tests serialize on this to keep
    /// `reset`/`set_enabled` from racing each other.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stat(path: &str) -> Option<PhaseStat> {
        snapshot().into_iter().find(|s| s.path == path)
    }

    #[test]
    fn nested_phases_split_self_and_total() {
        let _guard = test_lock();
        reset();
        {
            let _outer = phase("t_outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = phase("t_inner");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let outer = stat("t_outer").expect("outer recorded");
        let inner = stat("t_outer;t_inner").expect("inner recorded under outer");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_us >= 5_000, "{inner:?}");
        assert!(outer.total_us >= inner.total_us, "{outer:?} vs {inner:?}");
        assert_eq!(inner.total_us, inner.self_us, "leaf: self == total");
        assert_eq!(outer.self_us, outer.total_us - inner.total_us);
    }

    #[test]
    fn repeated_phases_accumulate_counts() {
        let _guard = test_lock();
        reset();
        for _ in 0..3 {
            let _p = phase("t_repeat");
        }
        assert_eq!(stat("t_repeat").expect("recorded").count, 3);
    }

    #[test]
    fn equal_names_at_two_addresses_share_a_path() {
        let _guard = test_lock();
        reset();
        let copy: &'static str = Box::leak(String::from("t_same").into_boxed_str());
        for name in ["t_same", copy] {
            let _p = phase(name);
        }
        assert_eq!(stat("t_same").expect("recorded").count, 2);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _guard = test_lock();
        reset();
        set_enabled(false);
        {
            let _p = phase("t_disabled");
        }
        set_enabled(true);
        assert!(stat("t_disabled").is_none());
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _guard = test_lock();
        reset();
        std::thread::spawn(|| {
            let _p = phase("t_worker");
        })
        .join()
        .expect("worker");
        assert_eq!(stat("t_worker").expect("flushed").count, 1);
    }

    #[test]
    fn depth_overflow_is_skipped_not_corrupted() {
        let _guard = test_lock();
        reset();
        let mut guards = Vec::new();
        for _ in 0..MAX_DEPTH + 3 {
            guards.push(phase("t_deep"));
        }
        drop(guards);
        let total: u64 = snapshot()
            .iter()
            .filter(|s| s.path.contains("t_deep"))
            .map(|s| s.count)
            .sum();
        assert_eq!(total as usize, MAX_DEPTH);
    }
}
