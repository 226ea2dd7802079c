//! # epc-runtime
//!
//! The execution-runtime layer of INDICE: deterministic data-parallel
//! primitives plus per-stage pipeline instrumentation.
//!
//! The paper's Figure-1 architecture is three sequential blocks
//! (pre-processing → analytics → dashboards). Scaling that architecture to
//! production traffic means running each block's hot loops data-parallel —
//! but visual-analytics outputs must stay *reproducible*: the same
//! collection must yield byte-identical dashboards regardless of how many
//! worker threads happen to be available.
//!
//! This crate guarantees that with two rules:
//!
//! 1. **Order-preserving maps** — [`par_map`] splits the input into
//!    contiguous chunks, processes chunks on scoped threads, and
//!    reassembles results in input order; [`par_map_coarse`] hands
//!    few expensive items out one at a time and places each result by its
//!    input index. A pure per-item function therefore produces exactly the
//!    sequential result.
//! 2. **Fixed-shape reductions** — [`par_reduce`] folds *fixed-size*
//!    chunks (the chunk boundaries depend only on `chunk_size`, never on
//!    the thread count) and combines the partials strictly in chunk-index
//!    order. Even non-associative float accumulation is then bitwise
//!    identical for any `threads`, including the sequential fallback at
//!    `threads = 1`, because the operation tree never changes shape.
//!
//! [`overlap`] runs one independent task (hashing the input) on one worker
//! of the budget while the caller's work runs on the others. Every thread
//! the workspace starts is started here, so `threads` bounds them all.
//!
//! [`StageTimer`] and [`PipelineReport`] capture per-stage wall time and
//! record counts so benches and the CLI can report where time goes.
//!
//! [`splitmix64`], [`fnv1a`] and [`Backoff`] are the workspace's one copy
//! of its deterministic mixers and retry schedule.

mod backoff;
mod report;

pub use backoff::{fnv1a, splitmix64, Backoff};
pub use report::{
    wall_clock, Clock, ManualClock, PipelineReport, StageReport, StageTimer, WallClock,
};

use std::num::NonZeroUsize;

/// Environment variable consulted by [`RuntimeConfig::try_from_env`].
pub const THREADS_ENV_VAR: &str = "INDICE_THREADS";

/// A storage-engine selector that no longer selects anything: the
/// pipeline has one engine.
///
/// Read by no pipeline code: only perfbench's `--trace` probes name it,
/// through [`RuntimeConfig::with_engine`]. ROADMAP item 4 step 1
/// deletes it, with [`RuntimeConfig::engine`] and
/// [`RuntimeConfig::with_engine`], along with those probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The value [`RuntimeConfig::new`] sets.
    Row,
    /// Runs exactly what [`Engine::Row`] runs.
    Columnar,
}

/// Execution configuration shared by every parallel kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker-thread budget; `1` means fully sequential execution.
    pub threads: usize,
    /// Read by no pipeline code; see [`Engine`].
    pub engine: Engine,
}

impl RuntimeConfig {
    /// Configuration with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        RuntimeConfig {
            threads: threads.max(1),
            engine: Engine::Row,
        }
    }

    /// Fully sequential execution.
    pub fn sequential() -> Self {
        RuntimeConfig::new(1)
    }

    /// The same configuration with `engine` stored, which nothing reads;
    /// see [`Engine`].
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Strictly validates an `INDICE_THREADS` value: `None` (unset) is the
    /// machine default, anything set must be a positive integer. Pure, so
    /// rejection paths are unit-testable without touching process state.
    pub fn parse_threads(raw: Option<&str>) -> Result<Self, String> {
        let Some(raw) = raw else {
            return Ok(RuntimeConfig::default());
        };
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(RuntimeConfig::new(n)),
            Ok(0) => Err(format!(
                "{THREADS_ENV_VAR} must be a positive integer, got 0"
            )),
            _ => Err(format!(
                "{THREADS_ENV_VAR} must be a positive integer, got {raw:?}"
            )),
        }
    }

    /// Reads the thread budget from `INDICE_THREADS` (see
    /// [`RuntimeConfig::parse_threads`]; `1` forces sequential execution).
    /// A malformed value is an error, never a silent fallback.
    pub fn try_from_env() -> Result<Self, String> {
        let raw = std::env::var(THREADS_ENV_VAR).ok();
        RuntimeConfig::parse_threads(raw.as_deref())
    }

    /// `true` when no worker threads will be spawned.
    pub fn is_sequential(&self) -> bool {
        self.threads <= 1
    }
}

impl Default for RuntimeConfig {
    /// One worker per available hardware thread (capped at 16 — the
    /// pipeline's kernels stop scaling well past that on one collection).
    fn default() -> Self {
        let hw = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        RuntimeConfig::new(hw.min(16))
    }
}

/// Joins a worker, propagating its panic into the caller.
fn join_worker<U>(handle: std::thread::ScopedJoinHandle<'_, U>) -> U {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Maps `f` over `items`, preserving input order in the output.
///
/// The input is split into `threads` contiguous chunks processed on scoped
/// threads ([`std::thread::scope`]), and chunk results are concatenated in
/// chunk order — so for a pure `f` the output is exactly
/// `items.iter().map(f).collect()` regardless of the thread budget.
pub fn par_map<T, U, F>(config: &RuntimeConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = effective_threads(config, items.len());
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        for handle in handles {
            out.extend(join_worker(handle));
        }
    });
    out
}

/// Order-preserving map for *coarse* tasks: few items, each expensive
/// (a K-means fit, a region to mine, a dashboard zoom level to render).
///
/// Unlike [`par_map`], no per-thread minimum item count applies — up to
/// `threads` items run concurrently even when the input holds only a
/// handful — and items are handed out dynamically: each worker takes the
/// next untaken index from a shared counter, so uneven items (nine K-means
/// fits on two threads) never leave a thread idle behind a static chunk.
/// Each result is placed by its input index, so a pure `f` yields exactly
/// the sequential output.
pub fn par_map_coarse<T, U, F>(config: &RuntimeConfig, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = config.threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices; each
                        // result reaches this thread through `join`.
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, out) in join_worker(handle) {
                if let Some(slot) = slots.get_mut(i) {
                    *slot = Some(out);
                }
            }
        }
    });
    // Every index below `items.len()` was taken exactly once.
    slots.into_iter().flatten().collect()
}

/// Runs `task` on one worker of the thread budget while `work` runs on
/// the calling thread with the other `threads − 1`, and returns both
/// results.
///
/// With `threads = 1` nothing is spawned: `task` runs first, inline, and
/// then `work` with the unchanged one-thread configuration. Otherwise
/// `work` receives `RuntimeConfig::new(threads − 1)`, so the task and the
/// work together never use more than the budget. A panic on either side
/// is passed on to the caller once both sides have finished; when both
/// panic, the task's panic is the one passed on.
pub fn overlap<T, W, FT, FW>(config: &RuntimeConfig, task: FT, work: FW) -> (T, W)
where
    T: Send,
    FT: FnOnce() -> T + Send,
    FW: FnOnce(&RuntimeConfig) -> W,
{
    if config.is_sequential() {
        let t = task();
        return (t, work(config));
    }
    let rest = RuntimeConfig {
        threads: config.threads - 1,
        ..*config
    };
    std::thread::scope(|scope| {
        let handle = scope.spawn(task);
        let worked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(&rest)));
        let t = join_worker(handle);
        match worked {
            Ok(w) => (t, w),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Reduces `items` through fixed-size chunk partials combined in chunk
/// order.
///
/// Each chunk of `chunk_size` consecutive items is folded independently
/// (`init()` then `fold` per item, left to right); the partials are then
/// combined left to right in chunk-index order. Because the chunk
/// decomposition depends only on `chunk_size`, the full operation tree —
/// and therefore the result, even for non-associative float math — is
/// identical for every thread budget, including `threads = 1`.
pub fn par_reduce<T, A, I, F, C>(
    config: &RuntimeConfig,
    items: &[T],
    chunk_size: usize,
    init: I,
    fold: F,
    combine: C,
) -> A
where
    T: Sync,
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, &T) -> A + Sync,
    C: Fn(A, A) -> A,
{
    let chunk_size = chunk_size.max(1);
    if items.is_empty() {
        return init();
    }
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    let partials = par_map(config, &chunks, |chunk| chunk.iter().fold(init(), &fold));
    partials
        .into_iter()
        .reduce(combine)
        .expect("non-empty input yields at least one partial")
}

/// The chunk sizes [`par_map`] would use for `len` items under `config`.
///
/// Exposes the decomposition for observability: the ratio of the largest
/// shard to the mean is the *shard imbalance* reported by `indice bench`
/// (a perfectly balanced split reports 1.0). Returns one entry per chunk
/// actually spawned; a sequential run yields a single chunk of `len`.
pub fn shard_sizes(config: &RuntimeConfig, len: usize) -> Vec<usize> {
    if len == 0 {
        return Vec::new();
    }
    let threads = effective_threads(config, len);
    let chunk_len = len.div_ceil(threads);
    let full = len / chunk_len;
    let mut sizes = vec![chunk_len; full];
    if !len.is_multiple_of(chunk_len) {
        sizes.push(len % chunk_len);
    }
    sizes
}

/// Thread count actually worth spawning for `len` items.
fn effective_threads(config: &RuntimeConfig, len: usize) -> usize {
    // Spawning a thread for a handful of items costs more than it saves.
    const MIN_ITEMS_PER_THREAD: usize = 16;
    config
        .threads
        .min(len / MIN_ITEMS_PER_THREAD)
        .clamp(1, len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs() -> Vec<RuntimeConfig> {
        vec![
            RuntimeConfig::sequential(),
            RuntimeConfig::new(2),
            RuntimeConfig::new(3),
            RuntimeConfig::new(8),
        ]
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(
            RuntimeConfig::parse_threads(Some("4")).unwrap(),
            RuntimeConfig::new(4)
        );
        assert_eq!(
            RuntimeConfig::parse_threads(Some(" 1 ")).unwrap(),
            RuntimeConfig::sequential()
        );
        assert_eq!(
            RuntimeConfig::parse_threads(None).unwrap(),
            RuntimeConfig::default()
        );
    }

    #[test]
    fn parse_threads_rejects_malformed_values() {
        for bad in ["0", "-2", "abc", "", "4.5", "4 threads"] {
            let err = RuntimeConfig::parse_threads(Some(bad)).unwrap_err();
            assert!(err.contains(THREADS_ENV_VAR), "{err}");
        }
    }

    #[test]
    fn with_engine_only_changes_the_engine() {
        let cfg = RuntimeConfig::new(4).with_engine(Engine::Columnar);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.engine, Engine::Columnar);
        assert_eq!(RuntimeConfig::new(4).engine, Engine::Row);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for cfg in cfgs() {
            assert_eq!(par_map(&cfg, &items, |x| x * 3 + 1), expected, "{cfg:?}");
        }
    }

    #[test]
    fn par_map_coarse_runs_tiny_inputs_in_parallel() {
        // 4 items is below par_map's per-thread minimum, but coarse maps
        // must still distribute them.
        let items: Vec<u64> = vec![10, 20, 30, 40];
        for cfg in cfgs() {
            let out = par_map_coarse(&cfg, &items, |x| x + 1);
            assert_eq!(out, vec![11, 21, 31, 41], "{cfg:?}");
        }
        assert!(par_map_coarse(&RuntimeConfig::new(8), &Vec::<u8>::new(), |x| *x).is_empty());
    }

    #[test]
    fn par_reduce_is_bitwise_stable_for_floats() {
        // Values chosen so naive reassociation visibly changes the sum.
        let items: Vec<f64> = (0..10_000)
            .map(|i| (i as f64).sin() * 1e10 + 1e-10 * i as f64)
            .collect();
        let reference = par_reduce(
            &RuntimeConfig::sequential(),
            &items,
            512,
            || 0.0f64,
            |a, x| a + x,
            |a, b| a + b,
        );
        for cfg in cfgs() {
            let got = par_reduce(&cfg, &items, 512, || 0.0f64, |a, x| a + x, |a, b| a + b);
            assert_eq!(got.to_bits(), reference.to_bits(), "{cfg:?}");
        }
    }

    #[test]
    fn par_reduce_empty_returns_init() {
        let items: Vec<u64> = vec![];
        let got = par_reduce(
            &RuntimeConfig::new(4),
            &items,
            64,
            || 42u64,
            |a, x| a + x,
            |a, b| a + b,
        );
        assert_eq!(got, 42);
    }

    #[test]
    fn par_map_empty_and_tiny_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(par_map(&RuntimeConfig::new(8), &empty, |x| *x).is_empty());
        let tiny = vec![1u8, 2, 3];
        assert_eq!(
            par_map(&RuntimeConfig::new(8), &tiny, |x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..1000).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&RuntimeConfig::new(4), &items, |&x| {
                assert!(x != 500, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn overlap_at_one_thread_runs_the_task_first_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let log = |what: &'static str| order.lock().expect("no panic holds the log").push(what);
        let (t, w) = overlap(
            &RuntimeConfig::sequential(),
            || {
                log("task");
                std::thread::current().id()
            },
            |rest| {
                log("work");
                rest.threads
            },
        );
        assert_eq!(t, caller, "the task must not run on a spawned thread");
        assert_eq!(w, 1);
        assert_eq!(
            *order.lock().expect("no panic holds the log"),
            ["task", "work"]
        );
    }

    #[test]
    fn overlap_leaves_the_work_all_threads_but_one() {
        let caller = std::thread::current().id();
        for n in [2usize, 3, 8] {
            let cfg = RuntimeConfig::new(n);
            let (t, w) = overlap(
                &cfg,
                || (std::thread::current().id(), 40 + n),
                |rest| (std::thread::current().id(), rest.threads),
            );
            assert_ne!(
                t.0, caller,
                "threads = {n}: the task runs on its own worker"
            );
            assert_eq!(w.0, caller, "threads = {n}: the work runs on the caller");
            assert_eq!((t.1, w.1), (40 + n, n - 1), "threads = {n}");
        }
    }

    /// A panic on either side reaches the caller only after the other
    /// side has finished: the barrier makes both sides meet before the
    /// panicking one panics, and the flag shows the other one ran to its
    /// end.
    #[test]
    fn overlap_passes_on_a_panic_from_either_side_after_both_finished() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        let message = |payload: Box<dyn std::any::Any + Send>| match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        };
        for task_panics in [true, false] {
            let barrier = Barrier::new(2);
            let other_done = AtomicBool::new(false);
            let side = |panics: bool, what: &'static str| {
                barrier.wait();
                if panics {
                    panic!("{what}");
                }
                other_done.store(true, Ordering::SeqCst);
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                overlap(
                    &RuntimeConfig::new(2),
                    || side(task_panics, "task"),
                    |_| side(!task_panics, "work"),
                )
            }));
            let expected = if task_panics { "task" } else { "work" };
            assert_eq!(
                message(result.expect_err("the panic is passed on")),
                expected
            );
            assert!(
                other_done.load(Ordering::SeqCst),
                "{expected} panicked early"
            );
        }
        let both = std::panic::catch_unwind(|| {
            overlap(
                &RuntimeConfig::new(2),
                || panic!("task"),
                |_| -> () { panic!("work") },
            )
        });
        assert_eq!(message(both.expect_err("a panic is passed on")), "task");
    }

    #[test]
    fn shard_sizes_match_par_map_chunking() {
        assert!(shard_sizes(&RuntimeConfig::new(4), 0).is_empty());
        // Below the per-thread minimum: one sequential chunk.
        assert_eq!(shard_sizes(&RuntimeConfig::new(4), 10), vec![10]);
        // 100 items at 4 threads → ceil(100/4) = 25 per chunk.
        assert_eq!(shard_sizes(&RuntimeConfig::new(4), 100), vec![25; 4]);
        // Uneven tail chunk.
        assert_eq!(
            shard_sizes(&RuntimeConfig::new(4), 99),
            vec![25, 25, 25, 24]
        );
        for (cfg, len) in [(RuntimeConfig::new(3), 1000), (RuntimeConfig::new(8), 77)] {
            assert_eq!(shard_sizes(&cfg, len).iter().sum::<usize>(), len);
        }
    }

    #[test]
    fn config_parsing() {
        assert_eq!(RuntimeConfig::new(0).threads, 1);
        assert!(RuntimeConfig::sequential().is_sequential());
        assert!(RuntimeConfig::default().threads >= 1);
    }
}
