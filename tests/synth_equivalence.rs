//! The parallel synthesis lane must be invisible: the dense-array FlowMap
//! mapper must produce bit-identical LUT networks (and mapping statistics)
//! at any job count, match the retained HashMap reference labeler gate for
//! gate, and seed reuse must never change a mapping — in both cut modes.
//! At the flow level, [`FlowOptions::jobs`] may only change wall clock:
//! buffers, levels, iteration history and every deterministic trace
//! counter must be identical at jobs 1, 2 and 8. The mapper's BLIF input
//! surface is fuzzed too: mutated BLIF either maps or fails with a
//! structured error.

use frequenz::core::{
    apply_buffers, optimize_baseline_with_cache, optimize_iterative_with_cache, FlowOptions,
    FlowTrace, SynthCache,
};
use frequenz::hls::kernels;
use frequenz::lutmap::{map_netlist, map_netlist_reference, map_netlist_with_seed, MapOptions};
use frequenz::netlist::{
    elaborate, match_netlists, read_blif, write_blif, GateId, Netlist, Origin,
};
use proptest::prelude::*;

mod common;
use common::{edit, mutate};

/// One random gate recipe: an operator over earlier pool entries.
#[derive(Debug, Clone)]
enum R {
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Mux(usize, usize, usize),
}

fn recipe() -> impl Strategy<Value = R> {
    prop_oneof![
        any::<usize>().prop_map(R::Not),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| R::And(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| R::Or(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| R::Xor(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(|(s, a, b)| R::Mux(s, a, b)),
    ]
}

/// Builds an optimized random netlist with the last three pool gates kept.
fn build(n_inputs: usize, rs: &[R]) -> Netlist {
    let o = Origin::External;
    let mut nl = Netlist::new();
    let mut pool: Vec<GateId> = (0..n_inputs).map(|_| nl.input(o)).collect();
    for r in rs {
        let pick = |i: usize| pool[i % pool.len()];
        let g = match *r {
            R::Not(a) => nl.not(pick(a), o),
            R::And(a, b) => nl.and(pick(a), pick(b), o),
            R::Or(a, b) => nl.or(pick(a), pick(b), o),
            R::Xor(a, b) => nl.xor(pick(a), pick(b), o),
            R::Mux(s, a, b) => nl.mux(pick(s), pick(a), pick(b), o),
        };
        pool.push(g);
    }
    for (i, &g) in pool.iter().rev().take(3).enumerate() {
        nl.add_keep(g, format!("out{i}"));
    }
    nl.optimize();
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The mapper's BLIF input surface: a mutated `write_blif` text of a
    /// random netlist (with a register, so `.latch` lines occur) either
    /// maps or fails with a structured `BlifError` or `MapError`, never
    /// a panic.
    #[test]
    fn mutated_blif_maps_or_fails_with_a_structured_error(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..30),
        edits in prop::collection::vec(edit(), 1..6),
    ) {
        let mut nl = build(n_inputs, &rs);
        let q = nl.reg(nl.keeps()[0].0, Origin::External);
        nl.add_keep(q, "q");
        let mut blif = Vec::new();
        write_blif(&nl, "fuzz", &mut blif).expect("in-memory write");
        let text = mutate(std::str::from_utf8(&blif).expect("BLIF is ASCII"), &edits);
        let outcome = std::panic::catch_unwind(|| {
            let nl = read_blif(text.as_bytes()).map_err(|e| e.to_string())?;
            let opts = MapOptions { k: 6, area_recovery: true, jobs: 1 };
            map_netlist(&nl, &opts).map(|_| ()).map_err(|e| e.to_string())
        });
        prop_assert!(outcome.is_ok(), "panicked on BLIF:\n{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Jobs sweep at the mapper level: identical LUT networks *and*
    /// identical mapping statistics (labels computed/reused, LUTs packed)
    /// at every job count, in both cut modes, against the reference oracle.
    #[test]
    fn mapper_is_bit_identical_across_jobs(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..60),
        k in 4usize..7,
        area_recovery in any::<bool>(),
    ) {
        let nl = build(n_inputs, &rs);
        let reference = map_netlist_reference(
            &nl,
            &MapOptions { k, area_recovery, jobs: 1 },
        ).expect("acyclic");
        let mut stats1 = None;
        for jobs in [1usize, 2, 8] {
            let opts = MapOptions { k, area_recovery, jobs };
            let (net, _, stats) = map_netlist_with_seed(&nl, &opts, None).expect("acyclic");
            prop_assert!(
                net.bit_identical(&reference),
                "jobs={jobs}: dense mapper diverged from the reference"
            );
            match &stats1 {
                None => stats1 = Some(stats),
                Some(s1) => prop_assert_eq!(
                    &stats, s1,
                    "jobs={}: mapping statistics diverged", jobs
                ),
            }
        }
    }

    /// Seed reuse is a pure time optimization: a self-matched seeded remap
    /// returns the identical network and packs the same LUT count, at any
    /// job count and in both cut modes — and actually reuses labels.
    #[test]
    fn seed_reuse_is_invisible(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..60),
        k in 4usize..7,
        area_recovery in any::<bool>(),
    ) {
        let nl = build(n_inputs, &rs);
        let opts = MapOptions { k, area_recovery, jobs: 1 };
        let (fresh, seed, fresh_stats) =
            map_netlist_with_seed(&nl, &opts, None).expect("acyclic");
        let matching = match_netlists(&nl, &nl);
        for jobs in [1usize, 2, 8] {
            let opts = MapOptions { k, area_recovery, jobs };
            let (seeded, _, stats) =
                map_netlist_with_seed(&nl, &opts, Some((&seed, &matching))).expect("acyclic");
            prop_assert!(
                seeded.bit_identical(&fresh),
                "jobs={jobs}: seeded remap diverged from the fresh mapping"
            );
            prop_assert_eq!(stats.luts_packed, fresh_stats.luts_packed);
            prop_assert_eq!(
                stats.labels_reused + stats.labels_computed,
                fresh_stats.labels_reused + fresh_stats.labels_computed,
                "total label decisions must not depend on seeding"
            );
            if fresh.num_luts() > 0 {
                prop_assert!(
                    stats.labels_reused > 0,
                    "self-matched seed reused nothing — the reuse path is dead"
                );
            }
        }
    }

    /// `map_netlist` (the plain entry point) agrees with the seeded entry
    /// point it wraps, at every job count.
    #[test]
    fn plain_entry_point_matches_seeded(
        n_inputs in 1usize..6,
        rs in prop::collection::vec(recipe(), 1..40),
        k in 4usize..7,
    ) {
        let nl = build(n_inputs, &rs);
        for jobs in [1usize, 2, 8] {
            let opts = MapOptions { k, area_recovery: true, jobs };
            let plain = map_netlist(&nl, &opts).expect("acyclic");
            let (seeded, _, _) = map_netlist_with_seed(&nl, &opts, None).expect("acyclic");
            prop_assert!(plain.bit_identical(&seeded));
        }
    }
}

/// Reduced flow options (the `incremental_equivalence` discipline): small
/// budgets, no slack matching, a single CFDFC — jobs invariance is about
/// the synthesis lane, not the placer or the simulator.
fn test_opts(jobs: usize) -> FlowOptions {
    FlowOptions {
        max_iterations: 3,
        sim_budget: 10_000,
        max_cfdfcs: 1,
        max_cut_rounds: 4,
        slack_matching: false,
        jobs,
        ..FlowOptions::default()
    }
}

/// The deterministic (jobs-invariant) counters of a trace. `synth_jobs`
/// is deliberately absent: it records the configured pool width.
fn counters(t: &FlowTrace) -> [u64; 8] {
    [
        t.cache_hits,
        t.cache_misses,
        t.labels_reused,
        t.labels_computed,
        t.incr_synths,
        t.full_synths,
        t.par_unit_tasks,
        t.par_pack_tasks,
    ]
}

/// Both flows on every (reduced) kernel: jobs 2 and 8 must reproduce the
/// jobs=1 outcome bit for bit — buffers, levels, iteration history, and
/// every deterministic trace counter.
#[test]
fn flow_outcome_is_jobs_invariant() {
    let handles: Vec<_> = kernels::all_kernels_small()
        .into_iter()
        .map(|k| {
            std::thread::spawn(move || {
                let iter1 = optimize_iterative_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &test_opts(1),
                    &SynthCache::new(),
                )
                .expect("iterative flow");
                let prev1 = optimize_baseline_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &test_opts(1),
                    &SynthCache::new(),
                )
                .expect("baseline flow");
                for jobs in [2usize, 8] {
                    let iterj = optimize_iterative_with_cache(
                        k.graph(),
                        k.back_edges(),
                        &test_opts(jobs),
                        &SynthCache::new(),
                    )
                    .expect("iterative flow");
                    assert_eq!(iterj.buffers, iter1.buffers, "{}: jobs={jobs}", k.name);
                    assert_eq!(iterj.achieved_levels, iter1.achieved_levels, "{}", k.name);
                    assert_eq!(iterj.iterations, iter1.iterations, "{}", k.name);
                    assert_eq!(
                        counters(&iterj.trace),
                        counters(&iter1.trace),
                        "{}: iterative trace counters diverged at jobs={jobs}",
                        k.name
                    );
                    assert_eq!(iterj.trace.synth_jobs, jobs, "{}", k.name);
                    let prevj = optimize_baseline_with_cache(
                        k.graph(),
                        k.back_edges(),
                        &test_opts(jobs),
                        &SynthCache::new(),
                    )
                    .expect("baseline flow");
                    assert_eq!(prevj.buffers, prev1.buffers, "{}: jobs={jobs}", k.name);
                    assert_eq!(prevj.achieved_levels, prev1.achieved_levels, "{}", k.name);
                    assert_eq!(
                        counters(&prevj.trace),
                        counters(&prev1.trace),
                        "{}: baseline trace counters diverged at jobs={jobs}",
                        k.name
                    );
                    assert!(
                        prevj.trace.par_unit_tasks > 0,
                        "{}: baseline characterized no units",
                        k.name
                    );
                }
                k.name
            })
        })
        .collect();
    for h in handles {
        h.join().expect("kernel thread");
    }
}

/// The dense mapper against the reference oracle on real circuits: every
/// reduced kernel's elaborated netlist, and the same kernel with the
/// buffers one iteration of the iterative flow placed, in both cut modes.
#[test]
fn dense_mapper_matches_reference_on_kernel_netlists() {
    let handles: Vec<_> = kernels::all_kernels_small()
        .into_iter()
        .map(|k| {
            std::thread::spawn(move || {
                let one_iteration = FlowOptions {
                    max_iterations: 1,
                    ..test_opts(1)
                };
                let flow = optimize_iterative_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &one_iteration,
                    &SynthCache::new(),
                )
                .expect("iterative flow");
                let seeded = k.seeded_graph();
                let buffered = apply_buffers(&seeded, &flow.buffers);
                for (what, g) in [("seeded", seeded), ("buffered", buffered)] {
                    let mut nl = elaborate(&g).expect("kernel graphs are valid").netlist;
                    nl.optimize();
                    for area_recovery in [true, false] {
                        let opts = MapOptions {
                            k: 6,
                            area_recovery,
                            jobs: 1,
                        };
                        let dense = map_netlist(&nl, &opts).expect("acyclic");
                        let reference = map_netlist_reference(&nl, &opts).expect("acyclic");
                        assert!(
                            dense.bit_identical(&reference),
                            "{} ({what}, area_recovery={area_recovery}): dense mapper diverged",
                            k.name
                        );
                    }
                }
                flow.buffers.len() > k.back_edges().len()
            })
        })
        .collect();
    let mut any_buffered = false;
    for h in handles {
        any_buffered |= h.join().expect("kernel thread");
    }
    assert!(
        any_buffered,
        "no kernel gained buffers beyond its back edges — the buffered netlists add nothing"
    );
}
