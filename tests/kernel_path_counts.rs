//! A counted gate for the kernel's no-stall rule on a wide workflow.
//!
//! The kernel answers a candidate by topological relaxation, incrementally
//! off the previous stall-free result where it can, and falls back to the
//! heap-based event loop only when the candidate's relaxed timeline may
//! stall on capacity. On a workflow of 40 functions at the 10-vCPU base
//! configuration the summed demand exceeds the paper's 96-vCPU host, so a
//! rule that asks one host to hold the *sum* sends most of a search to the
//! event loop, while the timeline rule relaxes nearly every candidate. The
//! kernel's path counters are a pure function of the code and the inputs,
//! so this test pins them exactly: a change of rule, of anchoring or of
//! result-slab pooling fails it without timing anything.

use aarc_simulator::{EvalService, KernelCounters};
use aarc_spec::{synthetic_spec, SynthParams};

/// The 40-function synthetic workflow `aarc generate --seed 5 --layers 8
/// --max-width 9` writes: the shape of the widest synthetic cell of the
/// `search-fast` benchmark workload.
fn wide_workload() -> aarc_workloads::Workload {
    let spec = synthetic_spec(SynthParams {
        seed: 5,
        layers: 8,
        max_width: 9,
        ..SynthParams::default()
    });
    assert_eq!(spec.functions.len(), 40);
    aarc_spec::compile(&spec)
        .expect("synthetic specs compile")
        .into_workload()
}

#[test]
fn a_wide_workflow_searches_off_the_event_loop() {
    let workload = wide_workload();
    let base = workload.env().base_configs();
    let base_vcpu: f64 = base.as_slice().iter().map(|c| c.vcpu.get()).sum();
    assert!(
        base_vcpu > workload.env().cluster().vcpus_per_host,
        "the base configuration's summed demand must exceed the host"
    );

    // One cache-on service, as a process that searches one scenario with
    // several methods shares it.
    let service = EvalService::with_threads(1);
    let handle = service.register(workload.env().clone());
    for name in ["aarc", "maff", "random"] {
        let method = aarc_baselines::methods::build(name).expect("registered method");
        method
            .search_on(&handle, workload.slo_ms())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    let KernelCounters {
        sims,
        relaxed_sims,
        incremental_sims,
        capacity_stalls,
        result_slab_allocs,
        ..
    } = service.kernel_counters();
    let event_loop = sims - relaxed_sims - incremental_sims;
    assert_eq!(
        (sims, event_loop, incremental_sims, result_slab_allocs),
        (SIMS, EVENT_LOOP, INCREMENTAL, SLAB_ALLOCS),
        "kernel paths drifted (relaxed {relaxed_sims}, stalls {capacity_stalls})"
    );
}

/// Simulations the three searches ran (cache misses): the same under any
/// rule, since every kernel path yields the same result.
const SIMS: u64 = 686;
/// Simulations the event loop served. A rule that asks one host to hold
/// the demand sum sends 634 of them there.
const EVENT_LOOP: u64 = 0;
/// Simulations re-run incrementally off a stall-free anchor; 51 under a
/// demand-sum rule.
const INCREMENTAL: u64 = 676;
/// Result-slab allocations, pinned with the paths so a pooling change
/// shows here too; the rule does not move them.
const SLAB_ALLOCS: u64 = 626;
