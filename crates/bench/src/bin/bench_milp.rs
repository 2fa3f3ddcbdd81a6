//! Benchmarks the MILP solver engines on the nine kernels' *real*
//! buffer-placement models (the Eq. 3 seed model of the first lazy
//! covering round), comparing the sparse revised simplex against the
//! legacy dense tableau and checking that branch-and-bound is
//! bit-identical across job counts.
//!
//! ```sh
//! cargo run -p frequenz-bench --release --bin bench_milp -- \
//!     [--repeats N] [--out FILE] [--baseline FILE]
//! ```
//!
//! Writes `BENCH_milp.json` (per-kernel model sizes, engine wall clocks,
//! speedups, pivot/refactorization/node counters, warm-start adoption,
//! and the jobs-sweep identity verdict) and prints a table. Each engine
//! solves every model `--repeats` times (default 3) and the minimum wall
//! clock is reported.
//!
//! With `--baseline FILE`, the previously committed `BENCH_milp.json` is
//! read *before* anything is overwritten and the fresh deterministic work
//! counters are gated against it: a kernel fails the run (exit 1, after
//! the new JSON is written) when its branch-and-bound node count regresses
//! by more than 10%, or its simplex pivot / basis refactorization count
//! drifts by more than 15% in *either* direction — a drop is progress,
//! but it means the committed baseline no longer describes the solver and
//! must be regenerated. Wall clocks are never gated.

use frequenz_bench::CompareError;
use frequenz_core::{
    build_placement_model, compute_penalties, extract_cfdfcs, map_lut_edges, synthesize,
    FlowOptions, PlacementProblem, TimingGraph,
};
use milp::{Engine, Model, Solution, WarmStart};
use std::time::Instant;

struct Row {
    name: &'static str,
    vars: usize,
    rows_before: usize,
    rows_after: usize,
    dense_s: f64,
    sparse_s: f64,
    dense: Solution,
    sparse: Solution,
    warm: Solution,
    jobs_identical: bool,
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == flag {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// Builds the canonicalized seed placement model for one kernel.
fn placement_model(kernel: &hls::Kernel, opts: &FlowOptions) -> Result<Model, CompareError> {
    let g = kernel.seeded_graph();
    let synth = synthesize(&g, opts.k)?;
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
    Ok(build_placement_model(&problem)?)
}

/// Solves `model` `repeats` times and returns (min wall seconds, solution).
fn time_solve(model: &Model, repeats: usize) -> Result<(f64, Solution), CompareError> {
    let mut best = f64::INFINITY;
    let mut sol = None;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let s = model.solve()?;
        best = best.min(t.elapsed().as_secs_f64());
        sol = Some(s);
    }
    Ok((best, sol.expect("at least one repeat ran")))
}

fn bits(s: &Solution) -> (u64, u64, u64, u64, Vec<u64>) {
    (
        s.nodes,
        s.pivots,
        s.nodes_pruned,
        s.objective.to_bits(),
        s.values.iter().map(|v| v.to_bits()).collect(),
    )
}

/// One kernel's gated counters from a previously written `BENCH_milp.json`.
struct Baseline {
    name: String,
    nodes: u64,
    /// Absent in baselines written before the pivot gate existed.
    pivots: Option<u64>,
    refactors: Option<u64>,
}

/// Extracts an unsigned integer field from one machine-written JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let pos = line.find(&tag)?;
    let digits: String = line[pos + tag.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts the gated counters per kernel from a previously written
/// `BENCH_milp.json`. Hand-rolled on purpose: the bench crate has no JSON
/// dependency, and the file is machine-written one kernel per line.
fn baseline_rows(text: &str) -> Vec<Baseline> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(npos) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[npos + 9..];
        let Some(end) = rest.find('"') else { continue };
        let name = rest[..end].to_string();
        let Some(nodes) = field_u64(line, "nodes") else {
            continue;
        };
        out.push(Baseline {
            name,
            nodes,
            pivots: field_u64(line, "sparse_pivots"),
            refactors: field_u64(line, "sparse_refactors"),
        });
    }
    out
}

/// Symmetric drift gate: fails when `fresh` is more than 15% away from
/// `base` in either direction, with a small absolute slop so tiny counts
/// (a refactorization or two) cannot trip it.
fn drifted(fresh: u64, base: u64) -> bool {
    let diff = (fresh as f64 - base as f64).abs();
    diff > base as f64 * 0.15 + 8.0
}

fn main() -> Result<(), CompareError> {
    let repeats: usize = arg_value("--repeats")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_milp.json".into());
    // Read the committed baseline *now*: `--baseline` may point at the same
    // path as `--out`, which is overwritten below.
    let baseline = match arg_value("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let pairs = baseline_rows(&text);
            if pairs.is_empty() {
                return Err(format!("baseline {path} holds no kernel node counts").into());
            }
            Some(pairs)
        }
        None => None,
    };
    let opts = FlowOptions::default();
    let kernels = hls::kernels::all_kernels();
    println!(
        "MILP engine benchmark — {} kernels, {repeats} repeats per engine (min reported)",
        kernels.len()
    );
    println!(
        "{:<15} | {:>5} {:>5} {:>5} | {:>9} {:>9} {:>7} | {:>8} {:>8} {:>6} | {:>6} {:>8} {:>6}",
        "Benchmark",
        "vars",
        "rows",
        "canon",
        "dense(s)",
        "sparse(s)",
        "speedup",
        "dPivots",
        "sPivots",
        "nodes",
        "wNodes",
        "wPivots",
        "wDual"
    );

    let mut rows: Vec<Row> = Vec::new();
    for kernel in &kernels {
        let mut model = placement_model(kernel, &opts)?;
        let rows_before = model.num_constraints();
        let reduction = model.canonicalize();
        let rows_after = rows_before - reduction.dropped();

        model.set_engine(Engine::DenseTableau);
        model.set_jobs(1);
        let (dense_s, dense) = time_solve(&model, repeats)?;

        model.set_engine(Engine::SparseRevised);
        let (sparse_s, sparse) = time_solve(&model, repeats)?;

        // Re-solve seeded with the first solve's root basis and incumbent —
        // the cross-iteration warm-start path of `core::iterate`, measured
        // in its best case (identical model). Warm starts may change the
        // work (pivot path, hence the last few ulps), never the optimum.
        let seed = WarmStart {
            basis: sparse.root_basis.clone(),
            incumbent: Some(sparse.values.clone()),
            var_names: None,
        };
        let warm = model.solve_warm(Some(&seed))?;
        if (warm.objective - sparse.objective).abs() > 1e-9 * (1.0 + sparse.objective.abs()) {
            return Err(format!(
                "{}: warm re-solve changed the objective ({} vs {})",
                kernel.name, warm.objective, sparse.objective
            )
            .into());
        }

        // Deterministic parallel search: the wave composition is fixed, so
        // every counter and every solution bit must survive a jobs sweep.
        let reference = bits(&sparse);
        let mut jobs_identical = true;
        for jobs in [2usize, 8] {
            model.set_jobs(jobs);
            let s = model.solve()?;
            if bits(&s) != reference {
                jobs_identical = false;
                eprintln!("[bench_milp] {}: jobs={jobs} diverged!", kernel.name);
            }
        }
        model.set_jobs(1);

        let agree =
            (dense.objective - sparse.objective).abs() <= 1e-6 * (1.0 + dense.objective.abs());
        if !agree && !dense.truncated && !sparse.truncated {
            return Err(format!(
                "{}: engines disagree (dense {} vs sparse {})",
                kernel.name, dense.objective, sparse.objective
            )
            .into());
        }

        println!(
            "{:<15} | {:>5} {:>5} {:>5} | {:>9.4} {:>9.4} {:>6.2}x | {:>8} {:>8} {:>6} | {:>6} {:>8} {:>6}",
            kernel.name,
            model.num_vars(),
            rows_before,
            rows_after,
            dense_s,
            sparse_s,
            dense_s / sparse_s.max(1e-12),
            dense.pivots,
            sparse.pivots,
            sparse.nodes,
            warm.nodes,
            warm.pivots,
            warm.dual_pivots,
        );
        rows.push(Row {
            name: kernel.name,
            vars: model.num_vars(),
            rows_before,
            rows_after,
            dense_s,
            sparse_s,
            dense,
            sparse,
            warm,
            jobs_identical,
        });
    }

    // The headline number: the speedup on the largest model (vars × rows).
    let largest = rows
        .iter()
        .max_by_key(|r| r.vars * r.rows_after)
        .expect("at least one kernel");
    let speedup = largest.dense_s / largest.sparse_s.max(1e-12);
    println!(
        "\nlargest model: {} ({} vars × {} rows) — sparse is {:.2}x faster than dense",
        largest.name, largest.vars, largest.rows_after, speedup
    );
    let all_identical = rows.iter().all(|r| r.jobs_identical);
    println!(
        "jobs sweep (1/2/8): {}",
        if all_identical {
            "bit-identical on every kernel"
        } else {
            "DIVERGED — see stderr"
        }
    );
    let warm_hits = rows.iter().filter(|r| r.warm.warm_used).count();
    let hit_rate = warm_hits as f64 / rows.len().max(1) as f64;
    println!(
        "warm re-solve: {warm_hits}/{} kernels adopted the seeded start (hit rate {hit_rate:.3})",
        rows.len()
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str("  \"jobs_swept\": [1, 2, 8],\n");
    json.push_str(&format!("  \"largest_kernel\": \"{}\",\n", largest.name));
    json.push_str(&format!("  \"largest_kernel_speedup\": {speedup:.3},\n"));
    json.push_str(&format!("  \"jobs_bit_identical\": {all_identical},\n"));
    json.push_str(&format!("  \"warm_start_hit_rate\": {hit_rate:.3},\n"));
    json.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"vars\": {}, \"rows\": {}, \"rows_canonicalized\": {}, \
             \"dense_s\": {:.6}, \"sparse_s\": {:.6}, \"speedup\": {:.3}, \
             \"dense_pivots\": {}, \"sparse_pivots\": {}, \"sparse_refactors\": {}, \
             \"nodes\": {}, \"bounds_tightened\": {}, \"nodes_pruned\": {}, \
             \"warm_start_hit\": {}, \"warm_nodes\": {}, \"warm_pivots\": {}, \
             \"dual_pivots\": {}, \
             \"objective\": {:.6}, \"dense_truncated\": {}, \
             \"sparse_truncated\": {}, \"jobs_bit_identical\": {}}}{}\n",
            r.name,
            r.vars,
            r.rows_before,
            r.rows_after,
            r.dense_s,
            r.sparse_s,
            r.dense_s / r.sparse_s.max(1e-12),
            r.dense.pivots,
            r.sparse.pivots,
            r.sparse.refactors,
            r.sparse.nodes,
            r.sparse.presolve.bounds_tightened,
            r.sparse.nodes_pruned,
            r.warm.warm_used,
            r.warm.nodes,
            r.warm.pivots,
            r.warm.dual_pivots,
            r.sparse.objective,
            r.dense.truncated,
            r.sparse.truncated,
            r.jobs_identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json)?;
    eprintln!("[bench_milp] wrote {out}");

    // Deterministic-work regression gate: fresh vs the committed baseline.
    // Runs after the new JSON lands so a failing run still leaves the
    // numbers behind for inspection.
    if let Some(pairs) = baseline {
        let mut failed = false;
        for base in &pairs {
            let name = base.name.as_str();
            let Some(r) = rows.iter().find(|r| r.name == name) else {
                eprintln!("[bench_milp] baseline kernel {name} no longer benchmarked");
                continue;
            };
            if r.sparse.nodes as f64 > base.nodes as f64 * 1.10 + 1e-9 {
                eprintln!(
                    "[bench_milp] REGRESSION: {name} explored {} B&B nodes, baseline {} (>10%)",
                    r.sparse.nodes, base.nodes
                );
                failed = true;
            }
            if let Some(bp) = base.pivots {
                if drifted(r.sparse.pivots, bp) {
                    eprintln!(
                        "[bench_milp] DRIFT: {name} spent {} pivots, baseline {bp} (>15%) — \
                         regenerate BENCH_milp.json if intentional",
                        r.sparse.pivots
                    );
                    failed = true;
                }
            }
            if let Some(bf) = base.refactors {
                if drifted(r.sparse.refactors, bf) {
                    eprintln!(
                        "[bench_milp] DRIFT: {name} performed {} refactorizations, baseline {bf} \
                         (>15%) — regenerate BENCH_milp.json if intentional",
                        r.sparse.refactors
                    );
                    failed = true;
                }
            }
        }
        if failed {
            return Err("node/pivot/refactorization counts drifted vs baseline".into());
        }
        eprintln!(
            "[bench_milp] node, pivot, and refactorization counts within bounds of baseline \
             on all {} kernels",
            pairs.len()
        );
    }
    Ok(())
}
