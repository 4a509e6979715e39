//! Counted allocation floor of a search step's strategy work.
//!
//! AARC and MAFF change one function's configuration per step, so anything
//! a strategy allocates beyond the candidate it asks for is paid on every
//! probe. A sample is a `Copy` record of what the search measured, so
//! telling a strategy a probe's result should allocate nothing but the
//! trace's amortised growth. This test wraps each strategy in a forwarding
//! [`SearchStrategy`] that counts the allocations made inside `ask` and
//! `tell` on the calling thread with a counting global allocator, and fails
//! when a per-sample allocation comes back. It counts inside the strategy
//! only: the driver's incumbent clones and a fresh service's cache add
//! several allocations a step of their own, which would hide one more. The
//! counts depend only on the code and the committed specs, never on the
//! machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aarc_core::{AarcError, Ask, SearchOutcome, SearchSession, SearchStrategy, SessionState};
use aarc_simulator::{EvalService, SimResult, WorkflowEnvironment};

/// Counts the allocations (including reallocations) each thread makes.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a const-initialised
// thread-local without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its value with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let value = f();
    (value, ALLOCS.with(Cell::get) - before)
}

/// Forwards every call to `inner`, adding the allocations its `ask` and
/// `tell` make to `allocs`.
struct CountedStrategy {
    inner: Box<dyn SearchStrategy>,
    allocs: Arc<AtomicU64>,
}

impl SearchStrategy for CountedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        let (ask, allocs) = counted(|| self.inner.ask(env));
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
        ask
    }

    fn tell(&mut self, env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError> {
        let (told, allocs) = counted(|| self.inner.tell(env, results));
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
        told
    }

    fn finish(&mut self, env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError> {
        self.inner.finish(env)
    }
}

/// Strategy allocations a step may make on average. Each AARC or MAFF ask
/// clones the candidate it probes (one allocation); the rest is the trace's
/// amortised growth and the per-path set-up AARC does a few times a search.
const MAX_ALLOCS_PER_STEP: f64 = 2.0;

#[test]
fn aarc_and_maff_strategies_allocate_at_most_two_a_step() {
    let specs = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&specs)
        .expect("specs/ exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "yaml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "expected the committed specs in specs/");

    for path in &paths {
        let spec = aarc_spec::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let workload = aarc_spec::compile(&spec)
            .expect("committed specs compile")
            .into_workload();
        for name in ["aarc", "maff"] {
            let method = aarc_baselines::methods::build(name).expect("registered method");
            let allocs = Arc::new(AtomicU64::new(0));
            let strategy = CountedStrategy {
                inner: method
                    .strategy(workload.env(), workload.slo_ms())
                    .expect("the spec's SLO is valid"),
                allocs: Arc::clone(&allocs),
            };
            let service = EvalService::with_threads(1);
            let mut session = SearchSession::with_slo(
                Box::new(strategy),
                service.register(workload.env().clone()),
                workload.slo_ms(),
            );
            while session.step() == SessionState::Running {}
            let steps = session.progress().rounds;
            session
                .into_outcome()
                .expect("the session finished")
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", path.display()));

            let allocs = allocs.load(Ordering::Relaxed);
            assert!(allocs > 0, "the counter saw no allocation at all");
            let per_step = allocs as f64 / steps as f64;
            assert!(
                per_step <= MAX_ALLOCS_PER_STEP,
                "{name} on {}: {allocs} strategy allocations over {steps} steps \
                 ({per_step:.2} a step, at most {MAX_ALLOCS_PER_STEP})",
                path.display()
            );
        }
    }
}
