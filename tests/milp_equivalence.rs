//! Engine-equivalence suite for the MILP solver: the sparse revised
//! simplex ([`milp::Engine::SparseRevised`]) must agree with the legacy
//! dense tableau ([`milp::Engine::DenseTableau`]) — same objective (within
//! tolerance), same feasibility verdict, same `truncated` flag — on
//! random LPs, random MILPs, and the nine kernels' *real* buffer-placement
//! models. The deterministic parallel branch-and-bound must additionally
//! be bit-identical across job counts, and cross-iteration warm starts
//! must never change a flow's outcome.

use frequenz_core::{
    build_placement_model, compute_penalties, extract_cfdfcs, map_lut_edges,
    optimize_iterative_with_cache, synthesize, FlowOptions, FlowResult, PlacementProblem,
    SynthCache, TimingGraph,
};
use milp::{Cmp, Engine, Model, Sense, Solution, SolveError, WarmStart};
use proptest::prelude::*;

/// A random mixed program: bounded continuous and binary variables with
/// small integer data, a handful of ≤/≥/= rows.
#[derive(Debug, Clone)]
struct RandomProgram {
    vars: Vec<(i8 /* hi */, i8 /* obj */, bool /* integer */)>,
    rows: Vec<(Vec<i8>, u8 /* 0 ≤, 1 ≥, 2 = */, i8)>,
}

fn random_program() -> impl Strategy<Value = RandomProgram> {
    (2usize..7).prop_flat_map(|n| {
        (
            prop::collection::vec((1i8..6, -5i8..6, any::<bool>()), n),
            prop::collection::vec((prop::collection::vec(-3i8..4, n), 0u8..3, -4i8..9), 1..6),
        )
            .prop_map(|(vars, rows)| RandomProgram { vars, rows })
    })
}

fn to_model(p: &RandomProgram, relax: bool) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let ids: Vec<_> = p
        .vars
        .iter()
        .enumerate()
        .map(|(i, &(hi, obj, integer))| {
            m.add_var(
                format!("x{i}"),
                0.0,
                hi as f64,
                obj as f64,
                integer && !relax,
            )
        })
        .collect();
    for (coef, op, rhs) in &p.rows {
        let terms: Vec<_> = ids
            .iter()
            .zip(coef)
            .filter(|(_, &c)| c != 0)
            .map(|(&v, &c)| (v, c as f64))
            .collect();
        if terms.is_empty() {
            continue;
        }
        let op = match op {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add_constraint(terms, op, *rhs as f64);
    }
    m
}

/// Solves `m` under both engines and checks the verdicts match.
fn assert_engines_agree(
    m: &mut Model,
    relaxation: bool,
) -> Result<(), proptest::test_runner::TestCaseError> {
    m.set_engine(Engine::DenseTableau);
    let dense = if relaxation {
        m.solve_relaxation()
    } else {
        m.solve()
    };
    m.set_engine(Engine::SparseRevised);
    let sparse = if relaxation {
        m.solve_relaxation()
    } else {
        m.solve()
    };
    match (&dense, &sparse) {
        (Ok(d), Ok(s)) => {
            prop_assert!(
                (d.objective - s.objective).abs() <= 1e-6 * (1.0 + d.objective.abs()),
                "objectives diverge: dense {} vs sparse {}",
                d.objective,
                s.objective
            );
            prop_assert_eq!(d.status, s.status, "status diverges");
            prop_assert_eq!(d.truncated, s.truncated, "truncated flag diverges");
        }
        // Presolve runs identically ahead of either engine, so structured
        // presolve infeasibility and simplex-discovered infeasibility are
        // the same verdict.
        (Err(d), Err(s)) if d.is_infeasible() && s.is_infeasible() => {}
        (Err(SolveError::Unbounded), Err(SolveError::Unbounded)) => {}
        (d, s) => prop_assert!(false, "verdicts diverge: dense {d:?} vs sparse {s:?}"),
    }
    Ok(())
}

fn solution_bits(s: &Solution) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        s.nodes,
        s.pivots,
        s.nodes_pruned,
        s.objective.to_bits(),
        s.values.iter().map(|v| v.to_bits()).collect(),
    )
}

/// Asserts the sparse branch-and-bound is bit-identical at 1/2/8 jobs.
fn assert_jobs_invariant(m: &mut Model) -> Result<(), proptest::test_runner::TestCaseError> {
    m.set_engine(Engine::SparseRevised);
    m.set_jobs(1);
    let reference = m.solve().map(|s| solution_bits(&s));
    for jobs in [2usize, 8] {
        m.set_jobs(jobs);
        let got = m.solve().map(|s| solution_bits(&s));
        match (&reference, &got) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "jobs={} diverged", jobs),
            (Err(a), Err(b)) => prop_assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "jobs={} error diverged",
                jobs
            ),
            (a, b) => prop_assert!(false, "jobs={jobs}: {a:?} vs {b:?}"),
        }
    }
    m.set_jobs(1);
    Ok(())
}

/// Checks a warm (dual-path) re-solve against a cold (primal) solve of the
/// same tightened program: same infeasible/unbounded classification, and on
/// success the same objective plus a warm solution that is genuinely
/// feasible for the tightened program. Alternate optima are routine on
/// these degenerate programs, so feasibility-at-the-same-objective is the
/// meaningful notion of "same solution" — value-by-value equality is not.
fn assert_warm_agrees_with_cold(
    q: &RandomProgram,
    warm: &Result<Solution, SolveError>,
    cold: &Result<Solution, SolveError>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match (warm, cold) {
        (Ok(w), Ok(c)) => {
            prop_assert!(
                (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                "objectives diverge: warm {} vs cold {}",
                w.objective,
                c.objective
            );
            prop_assert_eq!(w.status, c.status, "status diverges");
            for (i, &(hi, _, _)) in q.vars.iter().enumerate() {
                prop_assert!(
                    w.values[i] >= -1e-6 && w.values[i] <= hi as f64 + 1e-6,
                    "warm value x{i}={} breaks bound [0, {hi}]",
                    w.values[i]
                );
            }
            for (coef, op, rhs) in &q.rows {
                if coef.iter().all(|&c| c == 0) {
                    continue; // dropped by to_model
                }
                let lhs: f64 = coef
                    .iter()
                    .zip(&w.values)
                    .map(|(&c, &x)| c as f64 * x)
                    .sum();
                let ok = match op {
                    0 => lhs <= *rhs as f64 + 1e-6,
                    1 => lhs >= *rhs as f64 - 1e-6,
                    _ => (lhs - *rhs as f64).abs() <= 1e-6,
                };
                prop_assert!(ok, "warm solution breaks row {coef:?} op{op} {rhs}");
            }
        }
        (Err(w), Err(c)) => {
            prop_assert!(
                w.is_infeasible() == c.is_infeasible()
                    && matches!(w, SolveError::Unbounded) == matches!(c, SolveError::Unbounded),
                "classifications diverge: warm {w:?} vs cold {c:?}"
            );
        }
        (w, c) => prop_assert!(false, "verdicts diverge: warm {w:?} vs cold {c:?}"),
    }
    Ok(())
}

/// Tightens one variable's upper bound below the base program's: the old
/// optimal vertex usually turns primal infeasible while the reduced costs
/// are untouched, which is exactly the regime the dual simplex re-solve
/// path must handle.
fn tightened(p: &RandomProgram, pick: u8) -> RandomProgram {
    let mut q = p.clone();
    let k = pick as usize % q.vars.len();
    q.vars[k].0 -= 1; // hi is drawn from 1..6, so this stays ≥ 0
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_on_random_lps(p in random_program()) {
        let mut m = to_model(&p, true);
        assert_engines_agree(&mut m, true)?;
    }

    #[test]
    fn engines_agree_on_random_milps(p in random_program()) {
        let mut m = to_model(&p, false);
        assert_engines_agree(&mut m, false)?;
    }

    #[test]
    fn parallel_bnb_is_bit_identical_on_random_milps(p in random_program()) {
        let mut m = to_model(&p, false);
        assert_jobs_invariant(&mut m)?;
    }

    /// Presolve preserves the mixed-integer optimum: the default solve
    /// (presolve on) must agree with the raw solve (presolve off) on
    /// random models — same objective, same infeasibility verdict.
    #[test]
    fn presolved_optimum_matches_unpresolved_oracle(p in random_program()) {
        let strengthened = to_model(&p, false);
        let mut oracle = to_model(&p, false);
        oracle.set_presolve(false);
        match (strengthened.solve(), oracle.solve()) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    (a.objective - b.objective).abs() <= 1e-6 * (1.0 + b.objective.abs()),
                    "strengthened {} vs oracle {}", a.objective, b.objective
                );
                prop_assert_eq!(a.status, b.status, "status diverges");
            }
            (Err(a), Err(b)) => prop_assert!(
                a.is_infeasible() == b.is_infeasible(),
                "verdicts diverge: strengthened {a:?} vs oracle {b:?}"
            ),
            (a, b) => prop_assert!(false, "strengthened {a:?} vs oracle {b:?}"),
        }
    }

    /// Dual-vs-primal agreement on random bounded LPs: a warm re-solve of
    /// a bound-tightened program from the base optimum's basis (the dual
    /// simplex path when the old vertex went primal infeasible) must agree
    /// with a cold primal solve — same objective, a feasible solution, and
    /// the same infeasible/unbounded classification.
    #[test]
    fn dual_warm_resolve_agrees_with_cold_on_tightened_lps(
        p in random_program(),
        pick in any::<u8>(),
    ) {
        let mut base = to_model(&p, true);
        base.set_presolve(false);
        let Ok(first) = base.solve() else { return Ok(()) };
        let Some(basis) = first.root_basis.clone() else { return Ok(()) };
        let q = tightened(&p, pick);
        let mut tight = to_model(&q, true);
        tight.set_presolve(false);
        let warm = WarmStart { basis: Some(basis), incumbent: None, var_names: None };
        let warm_sol = tight.solve_warm(Some(&warm));
        let cold_sol = tight.solve();
        assert_warm_agrees_with_cold(&q, &warm_sol, &cold_sol)?;
    }

    /// Same agreement through the full branch-and-bound: every node of the
    /// warm-started tree re-solves from its parent basis via the dual
    /// simplex, and the incumbent must still match the cold search's.
    #[test]
    fn dual_warm_resolve_agrees_with_cold_on_tightened_milps(
        p in random_program(),
        pick in any::<u8>(),
    ) {
        let base = to_model(&p, false);
        let Ok(first) = base.solve() else { return Ok(()) };
        let Some(basis) = first.root_basis.clone() else { return Ok(()) };
        let q = tightened(&p, pick);
        let tight = to_model(&q, false);
        let warm = WarmStart { basis: Some(basis), incumbent: None, var_names: None };
        let warm_sol = tight.solve_warm(Some(&warm));
        let cold_sol = tight.solve();
        assert_warm_agrees_with_cold(&q, &warm_sol, &cold_sol)?;
    }

    /// Two solves of the same model in the same process are bit-identical
    /// in every counter and value — presolve and best-first search hold no
    /// hidden global state.
    #[test]
    fn repeated_solves_are_bit_identical(p in random_program()) {
        let m = to_model(&p, false);
        let first = m.solve().map(|s| solution_bits(&s));
        let second = m.solve().map(|s| solution_bits(&s));
        match (&first, &second) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "re-solve diverged"),
            (Err(a), Err(b)) => prop_assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b)
            ),
            (a, b) => prop_assert!(false, "re-solve verdict changed: {a:?} vs {b:?}"),
        }
    }
}

/// A maximally degenerate MILP — many tied rows pinning the same vertex —
/// whose LP relaxations stall Dantzig pricing into the Bland fallback.
/// The solve must terminate at the proven optimum (no cycling) even with
/// presolve active.
#[test]
fn degenerate_milp_does_not_cycle() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..6).map(|i| m.add_binary(format!("d{i}"), 1.0)).collect();
    // Every pair sums to at most 1 (a clique), stated redundantly several
    // times so the vertex x = 0 is massively degenerate.
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            m.add_constraint(vec![(vars[i], 1.0), (vars[j], 1.0)], Cmp::Le, 1.0);
            m.add_constraint(vec![(vars[i], 2.0), (vars[j], 2.0)], Cmp::Le, 2.0);
        }
    }
    m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Le, 1.0);
    let sol = m.solve().expect("degenerate clique model solves");
    assert_eq!(sol.status, milp::Status::Optimal);
    assert!(!sol.truncated);
    assert!((sol.objective - 1.0).abs() < 1e-6);
}

/// Anti-cycling regression for the dual simplex: re-solving a maximally
/// dual-degenerate tightening — every pair row turns infeasible by the
/// same amount, so the leaving-row choice ties across the whole basis —
/// must terminate at the proven optimum via the Bland fallback, and must
/// actually take dual pivots (the warm basis is dual feasible but primal
/// infeasible, so a silent cold restart would be a regression).
#[test]
fn dual_degenerate_resolve_does_not_cycle() {
    let n = 6usize;
    let build = |rhs: f64| {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("t{i}"), 0.0, 1.0, 1.0, false))
            .collect();
        // Every pair twice (redundantly), so both the relaxed optimum
        // (all ones, rhs = 2) and the tightened one (all halves, rhs = 1)
        // are massively degenerate vertices.
        for i in 0..n {
            for j in (i + 1)..n {
                m.add_constraint(vec![(vars[i], 1.0), (vars[j], 1.0)], Cmp::Le, rhs);
                m.add_constraint(vec![(vars[i], 2.0), (vars[j], 2.0)], Cmp::Le, 2.0 * rhs);
            }
        }
        m.set_presolve(false);
        m
    };
    let base = build(2.0).solve().expect("relaxed pairing model solves");
    assert!((base.objective - n as f64).abs() < 1e-6);
    let basis = base
        .root_basis
        .clone()
        .expect("sparse solve exports a basis");

    let tight = build(1.0);
    let warm = WarmStart {
        basis: Some(basis),
        incumbent: None,
        var_names: None,
    };
    let warm_sol = tight
        .solve_warm(Some(&warm))
        .expect("tightened re-solve terminates");
    let cold_sol = tight.solve().expect("tightened cold solve terminates");
    assert_eq!(warm_sol.status, milp::Status::Optimal);
    assert!(!warm_sol.truncated, "dual walk stalled into truncation");
    assert!(
        (warm_sol.objective - cold_sol.objective).abs() <= 1e-6,
        "warm {} vs cold {}",
        warm_sol.objective,
        cold_sol.objective
    );
    assert!((warm_sol.objective - n as f64 / 2.0).abs() < 1e-6);
    assert!(warm_sol.warm_used, "warm basis was not adopted");
    assert!(
        warm_sol.dual_pivots > 0,
        "tightened re-solve took no dual pivots — the dual path never ran"
    );
}

/// Builds the canonicalized seed placement model (the Eq. 3 model of the
/// first lazy covering round) for one kernel.
fn kernel_placement_model(kernel: &hls::Kernel, opts: &FlowOptions) -> Model {
    let g = kernel.seeded_graph();
    let synth = synthesize(&g, opts.k).expect("kernel synthesizes");
    let map = map_lut_edges(&g, &synth);
    let timing = TimingGraph::build(&g, &synth, &map);
    let penalties = compute_penalties(&g, &timing);
    let cfdfcs = extract_cfdfcs(
        kernel.graph(),
        kernel.back_edges(),
        opts.max_cfdfcs,
        opts.sim_budget,
    );
    let problem = PlacementProblem {
        graph: kernel.graph(),
        timing: &timing,
        penalties: &penalties,
        cfdfcs: &cfdfcs,
        target_levels: opts.target_levels,
        fixed: kernel.back_edges(),
        alpha: opts.alpha,
        beta: opts.beta,
        max_cut_rounds: opts.max_cut_rounds,
        objective: opts.objective,
    };
    let mut model = build_placement_model(&problem).expect("model builds");
    model.canonicalize();
    model
}

/// Dense and sparse agree — and the jobs sweep is bit-identical — on every
/// evaluation kernel's real placement model.
#[test]
fn engines_agree_on_all_kernel_placement_models() {
    let opts = FlowOptions::default();
    for kernel in hls::kernels::all_kernels() {
        let mut model = kernel_placement_model(&kernel, &opts);

        model.set_engine(Engine::DenseTableau);
        model.set_jobs(1);
        let dense = model.solve().expect("dense solves the placement model");
        model.set_engine(Engine::SparseRevised);
        let sparse = model.solve().expect("sparse solves the placement model");

        // Strengthening oracle: presolve must not move the optimum.
        let mut raw = model.clone();
        raw.set_presolve(false);
        let oracle = raw.solve().expect("raw model solves");
        if !sparse.truncated && !oracle.truncated {
            assert!(
                (sparse.objective - oracle.objective).abs()
                    <= 1e-6 * (1.0 + oracle.objective.abs()),
                "{}: strengthened {} vs raw oracle {}",
                kernel.name,
                sparse.objective,
                oracle.objective
            );
        }

        // Pivot budgets fire at engine-specific points, so objectives are
        // only comparable when neither search was truncated.
        if !dense.truncated && !sparse.truncated {
            assert!(
                (dense.objective - sparse.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs()),
                "{}: dense {} vs sparse {}",
                kernel.name,
                dense.objective,
                sparse.objective
            );
            assert_eq!(dense.status, sparse.status, "{}: status", kernel.name);
        }

        let reference = solution_bits(&sparse);
        for jobs in [2usize, 8] {
            model.set_jobs(jobs);
            let s = model.solve().expect("sparse re-solves");
            assert_eq!(
                solution_bits(&s),
                reference,
                "{}: jobs={jobs} diverged",
                kernel.name
            );
        }
    }
}

/// Dual-vs-primal agreement on the nine kernels' *real* placement models:
/// re-solving under a tightened clock-period target (`target_levels - 1`,
/// the exact move the iterate loop makes) from the slack target's root
/// basis must match a cold solve — same objective when neither search
/// truncated, same status — and must be bit-identical across the jobs
/// sweep. At least one kernel's warm re-solve must actually take dual
/// pivots, or the dual path silently stopped engaging.
#[test]
fn dual_warm_resolve_agrees_on_all_kernel_placement_models() {
    let base_opts = FlowOptions::default();
    let tight_opts = FlowOptions {
        target_levels: base_opts.target_levels.saturating_sub(1).max(1),
        ..FlowOptions::default()
    };
    let mut any_dual = 0u64;
    for kernel in hls::kernels::all_kernels() {
        let mut base = kernel_placement_model(&kernel, &base_opts);
        base.set_jobs(1);
        let cold_base = base.solve().expect("base placement model solves");
        let Some(basis) = cold_base.root_basis.clone() else {
            continue;
        };
        let warm = WarmStart {
            basis: Some(basis),
            incumbent: None,
            var_names: Some(base.var_names()),
        };

        let mut tight = kernel_placement_model(&kernel, &tight_opts);
        tight.set_jobs(1);
        let warm_sol = tight
            .solve_warm(Some(&warm.remap_to(&tight)))
            .expect("warm re-solve of the tightened model terminates");
        let cold_sol = tight
            .solve()
            .expect("cold solve of the tightened model terminates");
        any_dual += warm_sol.dual_pivots;

        if !warm_sol.truncated && !cold_sol.truncated {
            assert!(
                (warm_sol.objective - cold_sol.objective).abs()
                    <= 1e-6 * (1.0 + cold_sol.objective.abs()),
                "{}: warm {} vs cold {}",
                kernel.name,
                warm_sol.objective,
                cold_sol.objective
            );
            assert_eq!(warm_sol.status, cold_sol.status, "{}: status", kernel.name);
        }

        let reference = solution_bits(&warm_sol);
        for jobs in [2usize, 8] {
            tight.set_jobs(jobs);
            let s = tight
                .solve_warm(Some(&warm.remap_to(&tight)))
                .expect("warm re-solve repeats");
            assert_eq!(
                solution_bits(&s),
                reference,
                "{}: warm re-solve jobs={jobs} diverged",
                kernel.name
            );
        }
    }
    assert!(
        any_dual > 0,
        "no kernel's tightened re-solve took a dual pivot — the path is dead"
    );
}

/// Reduced flow options: enough iterations for cross-iteration warm starts
/// to engage, small enough budgets to keep the double flow run (warm and
/// cold) fast. A single CFDFC keeps the MILP small.
fn test_opts() -> FlowOptions {
    FlowOptions {
        max_iterations: 3,
        sim_budget: 10_000,
        max_cfdfcs: 1,
        max_cut_rounds: 4,
        slack_matching: false,
        ..FlowOptions::default()
    }
}

fn assert_results_identical(kernel: &str, warm: &FlowResult, cold: &FlowResult) {
    assert_eq!(
        warm.buffers, cold.buffers,
        "{kernel}: buffer placement diverged"
    );
    assert_eq!(
        warm.achieved_levels, cold.achieved_levels,
        "{kernel}: achieved levels diverged"
    );
    assert_eq!(warm.converged, cold.converged, "{kernel}: convergence flag");
    assert_eq!(
        warm.iterations, cold.iterations,
        "{kernel}: iteration history diverged"
    );
}

/// Cross-iteration MILP warm starts must be invisible: a flow run with the
/// warm-start store on produces a bit-identical outcome to one with it off
/// — same buffers, levels, and per-iteration history. Warm starts may only
/// change the *work* (pivots, nodes), never the placement.
#[test]
fn warm_started_flow_equals_cold_on_all_kernels() {
    let kernels = hls::kernels::all_kernels_small();
    let handles: Vec<_> = kernels
        .into_iter()
        .map(|k| {
            std::thread::spawn(move || {
                let warm_opts = test_opts();
                let cold_opts = FlowOptions {
                    milp_warm_start: false,
                    ..test_opts()
                };
                let warm = optimize_iterative_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &warm_opts,
                    &SynthCache::new(),
                )
                .expect("warm flow");
                let cold = optimize_iterative_with_cache(
                    k.graph(),
                    k.back_edges(),
                    &cold_opts,
                    &SynthCache::new(),
                )
                .expect("cold flow");
                (k.name, warm, cold)
            })
        })
        .collect();
    let mut any_warm_hit = false;
    for h in handles {
        let (name, warm, cold) = h.join().expect("kernel thread");
        assert_results_identical(name, &warm, &cold);
        assert_eq!(
            cold.trace.milp_warm_hits, 0,
            "{name}: warm-start-off flow must record no warm hits"
        );
        any_warm_hit |= warm.trace.milp_warm_hits > 0;
    }
    assert!(
        any_warm_hit,
        "no kernel adopted any warm start — the cross-iteration path is dead"
    );
}
