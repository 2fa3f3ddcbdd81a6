//! `flowbench`: the end-to-end benchmark of the frequenz flows.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload <iterative|baseline|long-trip> --seed <n> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Each workload runs one flow over a fixed kernel set, one kernel after
//! another in this process, the way a user runs the flow: default
//! `FlowOptions` with `jobs = 1` and a fresh `SynthCache` per kernel. A
//! *pass* runs every kernel's flow, checks the circuit's outputs against
//! the `hls` software reference with `verify_outputs`, and measures it.
//! Passes repeat until the next one would overrun `--seconds` (at least
//! one runs); timings are the median over passes.
//!
//! With `--trace 0` the run prints the end-to-end metrics. With
//! `--trace 1` each pass runs every kernel's flow untraced, then replays
//! the flow's recorded decisions through each layer's public entry points
//! with one span per call ([`replay`]), and prints the per-layer metrics.
//! Spans are kept in memory and written at exit, as JSON and as folded
//! stacks, under `flowbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A kernel run fails on a flow or measurement error, a panic, an output
//! mismatch, or a circuit that differs from the same kernel's circuit in
//! an earlier pass. A replay that does not reproduce its flow ends the
//! run with exit code 2 and no result.

mod replay;

use flowbench::json::Value;
use flowbench::report::{metrics_file, result_line, Metric};
use flowbench::spans::{self, Recorder, Span};
use flowbench::{cli, stats};
use frequenz_bench::verify_outputs;
use frequenz_core::{
    measure_traced, optimize_baseline_with_cache, optimize_iterative_with_cache, FlowOptions,
    FlowResult, FlowTrace, SimOptions, SimStats, SynthCache,
};
use hls::{kernels, Kernel};
use replay::{Counts, Replay};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Which flow a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// The paper's iterative mapping-aware flow.
    Iterative,
    /// The mapping-agnostic baseline.
    Baseline,
}

struct Workload {
    name: &'static str,
    flow: Flow,
    kernels: fn() -> Vec<Kernel>,
}

/// The kernels whose size is not capped at 8: the same circuits as at
/// Table I scale, with ~40–80× the cycle counts.
fn long_trip_kernels() -> Vec<Kernel> {
    vec![
        kernels::insertion_sort(256),
        kernels::gsum(8192),
        kernels::gsumif(8192),
    ]
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "iterative",
        flow: Flow::Iterative,
        kernels: kernels::all_kernels,
    },
    Workload {
        name: "baseline",
        flow: Flow::Baseline,
        kernels: kernels::all_kernels,
    },
    Workload {
        name: "long-trip",
        flow: Flow::Iterative,
        kernels: long_trip_kernels,
    },
];

/// Set-up (kernel construction plus software reference) repeats per run;
/// `setup_s` is their median. Every repeat's kernels stay alive until set-up
/// ends, so each builds into fresh memory as a first run would: rebuilding
/// into just-freed memory ties the median to the allocator's state.
const SETUP_REPS: usize = 15;

/// Simulated-hardware quality of one kernel's final circuit. A kernel run
/// whose circuit differs from an earlier pass's fails.
#[derive(Debug, Clone, PartialEq)]
struct Qor {
    buffers: Vec<dataflow::ChannelId>,
    et_ns: f64,
    luts: usize,
    ffs: usize,
    levels: u32,
}

/// One kernel's untraced run.
struct KernelRun {
    flow_s: f64,
    wall_s: f64,
    qor: Qor,
    result: FlowResult,
}

fn run_kernel(flow: Flow, kernel: &Kernel, opts: &FlowOptions) -> Result<KernelRun, String> {
    let start = Instant::now();
    let cache = SynthCache::new();
    let (base, back) = (kernel.graph(), kernel.back_edges());
    let result = match flow {
        Flow::Iterative => optimize_iterative_with_cache(base, back, opts, &cache),
        Flow::Baseline => optimize_baseline_with_cache(base, back, opts, &cache),
    }
    .map_err(|e| format!("flow failed: {e}"))?;
    let flow_s = start.elapsed().as_secs_f64();
    verify_outputs(kernel, &result).map_err(|e| format!("output check failed: {e}"))?;
    let report = measure_traced(
        &result.graph,
        opts.k,
        kernel.max_cycles * 8,
        &cache,
        SimOptions {
            engine: opts.sim_engine,
        },
        &mut SimStats::default(),
    )
    .map_err(|e| format!("measurement failed: {e}"))?;
    Ok(KernelRun {
        flow_s,
        wall_s: start.elapsed().as_secs_f64(),
        qor: Qor {
            buffers: result.buffers.clone(),
            et_ns: report.exec_time_ns,
            luts: report.luts,
            ffs: report.ffs,
            levels: report.logic_levels,
        },
        result,
    })
}

/// Runs `f`, turning a panic into an error.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(format!("panicked: {msg}"))
    })
}

/// Attempted and failed kernel runs, with each kernel's first circuit.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: BTreeMap<&'static str, Qor>,
}

impl Tally {
    fn record(&mut self, name: &'static str, out: &Result<KernelRun, String>) {
        self.attempted += 1;
        let problem = match out {
            Err(e) => Some(e.clone()),
            Ok(run) => match self.reference.get(name) {
                None => {
                    self.reference.insert(name, run.qor.clone());
                    None
                }
                Some(q) if *q == run.qor => None,
                Some(q) => Some(format!(
                    "circuit differs from an earlier pass: {:?} vs {q:?}",
                    run.qor
                )),
            },
        };
        if let Some(e) = problem {
            self.failed += 1;
            eprintln!("[flowbench] {name}: FAILED: {e}");
        }
    }
}

/// User+system CPU seconds of this process so far, all threads included
/// (`/proc/self/stat`, in clock ticks of the Linux ABI's fixed 100 Hz
/// `USER_HZ`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
fn kernel_order(seed: u64, n: usize) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs passes until the next one would overrun `budget` (at least one)
/// or a pass returns `false`.
fn run_passes(budget: Duration, mut pass: impl FnMut() -> bool) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        if !pass() || start.elapsed() + t.elapsed() > budget {
            return;
        }
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, contents: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(e) = written {
        eprintln!("[flowbench] could not write {name}: {e}");
    }
}

fn print_table(metrics: &[Metric]) {
    println!(
        "{:<26} {:>14} {:>14} {:>14} {:>4} {:>16}  unit",
        "metric", "median", "q1", "q3", "n", "tail"
    );
    for m in metrics {
        let Some(s) = stats::Summary::of(&m.samples) else {
            continue;
        };
        let tail = s
            .tail
            .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.6}"));
        println!(
            "{:<26} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>16}  {}",
            m.name, s.median, s.q1, s.q3, s.n, tail, m.unit
        );
    }
}

/// The three samples every timed or traced pass yields.
#[derive(Default)]
struct PassTimes {
    wall_s: Vec<f64>,
    flow_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

/// One timed pass over `kernels`; returns the flow runs for the traced
/// replay (empty for failed kernels).
fn timed_pass<'k>(
    w: &Workload,
    kernels: &'k [Kernel],
    order: &[usize],
    opts: &FlowOptions,
    tally: &mut Tally,
    times: &mut PassTimes,
    kernel_wall_s: &mut Vec<f64>,
) -> Vec<(&'k Kernel, KernelRun)> {
    let (start, cpu0) = (Instant::now(), cpu_seconds());
    let mut flow_s = 0.0;
    let mut runs = Vec::new();
    for &i in order {
        let kernel = &kernels[i];
        let out = guarded(|| run_kernel(w.flow, kernel, opts));
        tally.record(kernel.name, &out);
        if let Ok(run) = out {
            flow_s += run.flow_s;
            kernel_wall_s.push(run.wall_s);
            runs.push((kernel, run));
        }
    }
    times.wall_s.push(start.elapsed().as_secs_f64());
    times.flow_s.push(flow_s);
    times.cpu_s.push(cpu_seconds() - cpu0);
    runs
}

/// Per-layer span names whose self time is published as `<name>_s`.
const LAYER_SPANS: [&str; 16] = [
    "netlist.elaborate",
    "netlist.optimize",
    "netlist.match",
    "lutmap.map",
    "synth.cached",
    "baseline.characterize",
    "lutdfg.map",
    "timing.build",
    "penalty.compute",
    "cfdfc.extract",
    "place.solve",
    "milp.seed_solve",
    "slack.match",
    "sim.run",
    "report.measure",
    "report.verify",
];

/// Whether `id` lies inside a `flow` span (the replayed flow, as opposed
/// to the verification and measurement after it).
fn in_flow(spans: &[Span], id: usize) -> bool {
    let mut cur = spans[id].parent;
    while let Some(p) = cur {
        if spans[p].name == "flow" {
            return true;
        }
        cur = spans[p].parent;
    }
    false
}

/// One traced pass's span-derived figures.
struct TracedPass {
    /// Self time by span name, over this pass's spans.
    self_by_name: BTreeMap<String, f64>,
    /// Self time by layer inside the replayed flows (seed re-solves,
    /// which are not part of the flow, excluded).
    flow_self_by_layer: BTreeMap<String, f64>,
    /// Wall time of the replayed flows, seed re-solves excluded.
    replay_flow_s: f64,
}

/// The figures of the spans from index `first` on (one pass's).
fn traced_pass_figures(spans: &[Span], first: usize) -> TracedPass {
    let selfs = spans::self_times(spans);
    let mut self_by_name = BTreeMap::new();
    let mut flow_self_by_layer = BTreeMap::new();
    let mut replay_flow_s = 0.0;
    for (i, (s, t)) in spans.iter().zip(&selfs).enumerate().skip(first) {
        *self_by_name.entry(s.name.clone()).or_insert(0.0) += t;
        if s.name == "flow" {
            replay_flow_s += s.duration();
        }
        if !in_flow(spans, i) {
            continue;
        }
        if s.name == "milp.seed_solve" {
            replay_flow_s -= s.duration();
        } else if let Some(layer) = s.layer() {
            *flow_self_by_layer.entry(layer.to_string()).or_insert(0.0) += t;
        }
    }
    TracedPass {
        self_by_name,
        flow_self_by_layer,
        replay_flow_s,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer_metrics(passes: &[TracedPass], counts: &Counts, flow_s: &[f64]) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in LAYER_SPANS {
        let samples = passes
            .iter()
            .map(|p| p.self_by_name.get(name).copied().unwrap_or(0.0))
            .collect();
        out.push(Metric::new(format!("{name}_s"), "s", samples));
    }
    let c = counts;
    let count = |name: &str, v: u64| Metric::new(name, "count", vec![v as f64]);
    let share = |name: &str, v: f64| Metric::new(name, "ratio", vec![v]);
    out.extend([
        count("netlist.gates", c.gates),
        count("netlist.gates_removed", c.gates_removed),
        count("lutmap.labels_computed", c.labels_computed),
        count("lutmap.labels_reused", c.labels_reused),
        share(
            "lutmap.label_reuse_rate",
            ratio(c.labels_reused, c.labels_reused + c.labels_computed),
        ),
        count("lutmap.luts", c.luts),
        count("synth.calls", c.synth_calls),
        share("synth.cache_hit_rate", ratio(c.synth_hits, c.synth_calls)),
        count("baseline.unit_tasks", c.unit_tasks),
        count("lutdfg.artificial_edges", c.artificial_edges),
        count("timing.nodes", c.timing_nodes),
        count("timing.edges", c.timing_edges),
        count("penalty.channels", c.penalty_channels),
        count("cfdfc.count", c.cfdfcs),
        count("cfdfc.sim_cycles", c.cfdfc_sim_cycles),
        count("place.calls", c.place_calls),
        count("place.cut_rounds", c.cut_rounds),
        count("milp.pivots", c.milp_pivots),
        count("milp.nodes", c.milp_nodes),
        count("milp.nodes_pruned", c.milp_nodes_pruned),
        count("milp.refactors", c.milp_refactors),
        count("milp.cuts", c.milp_cuts),
        share(
            "milp.warm_hit_rate",
            ratio(c.milp_warm_hits, c.milp_warm_hits + c.milp_warm_misses),
        ),
        share(
            "milp.truncated_frac",
            ratio(c.seed_truncated, c.seed_solves),
        ),
        count("slack.trials", c.slack_trials),
        share("slack.prune_rate", ratio(c.slack_pruned, c.slack_trials)),
        count("sim.runs", c.sim_runs),
        count("sim.cycles", c.sim_cycles),
        count("sim.compiles", c.sim_compiles),
        count("iterate.iterations", c.iterations),
        share("iterate.converged_frac", ratio(c.converged, c.flows)),
    ]);
    let sim_s = |p: &TracedPass| p.self_by_name.get("sim.run").copied().unwrap_or(0.0);
    out.push(Metric::new(
        "sim.cycles_per_s",
        "1/s",
        passes
            .iter()
            .map(|p| c.sim_cycles as f64 / sim_s(p).max(f64::MIN_POSITIVE))
            .collect(),
    ));
    let attributed = |p: &TracedPass| p.flow_self_by_layer.values().sum::<f64>();
    out.push(Metric::new(
        "trace.unattributed_frac",
        "ratio",
        passes
            .iter()
            .zip(flow_s)
            .map(|(p, &f)| 1.0 - attributed(p) / f)
            .collect(),
    ));
    out.push(Metric::new(
        "trace.overhead_frac",
        "ratio",
        passes
            .iter()
            .zip(flow_s)
            .map(|(p, &f)| p.replay_flow_s / f - 1.0)
            .collect(),
    ));
    out
}

fn lanes_value(t: &FlowTrace) -> Value {
    let s = |d: Duration| Value::from(d.as_secs_f64());
    Value::obj([
        ("synth", s(t.synth)),
        ("map", s(t.map)),
        ("timing", s(t.timing)),
        ("milp", s(t.milp)),
        ("slack", s(t.slack)),
        ("sim", s(t.sim)),
        ("total", s(t.total)),
    ])
}

fn main() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&args, &names) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(64);
        }
    };
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .expect("parse checked the name");

    // Set-up: build the kernels and their software references.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built.push(std::hint::black_box((w.kernels)()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let kernels = built.pop().expect("set-up ran");
    drop(built);
    let order = kernel_order(args.seed, kernels.len());
    let opts = FlowOptions {
        jobs: 1,
        ..FlowOptions::default()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut times = PassTimes::default();
    let mut kernel_wall_s = Vec::new();
    let mut lanes = FlowTrace::default();
    let mut extra = Vec::new();
    let tag = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    eprintln!(
        "[flowbench] workload {} seed {} order {:?}: {} kernel(s), {} s",
        w.name,
        args.seed,
        order.iter().map(|&i| kernels[i].name).collect::<Vec<_>>(),
        kernels.len(),
        args.seconds
    );

    let metrics = if args.trace {
        let mut rec = Recorder::default();
        let mut traced = Vec::new();
        let mut counts = Counts::default();
        let mut replay_error = None;
        run_passes(budget, || {
            let runs = timed_pass(
                w,
                &kernels,
                &order,
                &opts,
                &mut tally,
                &mut times,
                &mut kernel_wall_s,
            );
            let first = rec.spans().len();
            let ws = rec.open(format!("workload:{}", w.name));
            let mut pass_counts = Counts::default();
            for (kernel, run) in &runs {
                lanes.absorb(&run.result.trace);
                let ks = rec.open(format!("kernel:{}", kernel.name));
                let out = guarded(|| {
                    Replay::new(&mut rec, &mut pass_counts, &opts, kernel).run(w.flow, &run.result)
                });
                rec.close(ks);
                if let Err(e) = out {
                    replay_error = Some(e);
                    break;
                }
            }
            rec.close(ws);
            traced.push(traced_pass_figures(rec.spans(), first));
            counts = pass_counts;
            replay_error.is_none()
        });
        if let Some(e) = replay_error {
            eprintln!("[flowbench] {e}");
            return ExitCode::from(2);
        }
        // Span files, and each layer's self time as a share of flow_s.
        write_out(
            &format!("{tag}.spans.json"),
            &spans::to_json(rec.spans()).to_string(),
        );
        write_out(&format!("{tag}.folded"), &spans::folded(rec.spans()));
        let flow_total: f64 = times.flow_s.iter().sum();
        let mut by_layer: BTreeMap<String, f64> = BTreeMap::new();
        for p in &traced {
            for (layer, t) in &p.flow_self_by_layer {
                *by_layer.entry(layer.clone()).or_insert(0.0) += t;
            }
        }
        let mut ranked: Vec<(String, f64)> = by_layer.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("layer self time inside the replayed flows ({}):", w.name);
        for (layer, t) in &ranked {
            println!(
                "  {layer:<10} {:>10.4} s  {:>6.1}% of flow_s",
                t / traced.len() as f64,
                100.0 * t / flow_total
            );
        }
        let n = traced.len() as f64;
        println!(
            "program's own FlowTrace lanes, per pass: synth {:.4} s | map {:.4} s | timing {:.4} s | \
             milp {:.4} s | slack {:.4} s (sim {:.4} s) | total {:.4} s",
            lanes.synth.as_secs_f64() / n,
            lanes.map.as_secs_f64() / n,
            lanes.timing.as_secs_f64() / n,
            lanes.milp.as_secs_f64() / n,
            lanes.slack.as_secs_f64() / n,
            lanes.sim.as_secs_f64() / n,
            lanes.total.as_secs_f64() / n,
        );
        extra.push((
            "layer_self_s_per_pass",
            Value::Obj(
                ranked
                    .iter()
                    .map(|(l, t)| (l.clone(), Value::from(t / n)))
                    .collect(),
            ),
        ));
        per_layer_metrics(&traced, &counts, &times.flow_s)
    } else {
        run_passes(budget, || {
            for (_, run) in timed_pass(
                w,
                &kernels,
                &order,
                &opts,
                &mut tally,
                &mut times,
                &mut kernel_wall_s,
            ) {
                lanes.absorb(&run.result.trace);
            }
            true
        });
        let qor: Vec<&Qor> = tally.reference.values().collect();
        let et: Vec<f64> = qor.iter().map(|q| q.et_ns).collect();
        let sum = |f: fn(&Qor) -> f64| qor.iter().map(|q| f(q)).sum::<f64>();
        let over = qor.iter().filter(|q| q.levels > opts.target_levels).count();
        extra.push(("levels_over_target", Value::from(over as u64)));
        extra.push((
            "kernel_wall_s",
            flowbench::report::metric_record(&Metric::new(
                "kernel_wall_s",
                "s",
                kernel_wall_s.clone(),
            )),
        ));
        vec![
            Metric::new("wall_s", "s", times.wall_s.clone()),
            Metric::new("flow_s", "s", times.flow_s.clone()),
            Metric::new("cpu_s", "s", times.cpu_s.clone()),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("peak_rss_mb", "MB", vec![peak_rss_mb()]),
            Metric::new(
                "et_ns_geomean",
                "sim_ns",
                vec![stats::geomean(&et).unwrap_or(f64::NAN)],
            ),
            Metric::new("luts", "count", vec![sum(|q| q.luts as f64)]),
            Metric::new("ffs", "count", vec![sum(|q| q.ffs as f64)]),
            Metric::new(
                "levels_max",
                "count",
                vec![qor.iter().map(|q| q.levels).max().unwrap_or(0) as f64],
            ),
        ]
    };

    let passes = times.wall_s.len() as u64;
    let qor_list = Value::Obj(
        tally
            .reference
            .iter()
            .map(|(name, q)| {
                (
                    name.to_string(),
                    Value::obj([
                        (
                            "buffers",
                            Value::Arr(
                                q.buffers
                                    .iter()
                                    .map(|c| Value::from(c.index() as u64))
                                    .collect(),
                            ),
                        ),
                        ("et_ns", Value::from(q.et_ns)),
                        ("luts", Value::from(q.luts as u64)),
                        ("ffs", Value::from(q.ffs as u64)),
                        ("levels", Value::from(q.levels as u64)),
                    ]),
                )
            })
            .collect(),
    );
    let mut meta = vec![
        ("workload", Value::from(w.name)),
        ("seed", Value::from(args.seed)),
        ("seconds", Value::from(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "seed_use",
            Value::from(
                "the seed permutes the kernel order only; the kernels' data are fixed \
                 by the LCG seeds inside hls",
            ),
        ),
        (
            "kernel_order",
            Value::Arr(
                order
                    .iter()
                    .map(|&i| Value::from(kernels[i].name))
                    .collect(),
            ),
        ),
        ("passes", Value::from(passes)),
        (
            "fail_frac",
            Value::from(ratio(tally.failed, tally.attempted)),
        ),
        ("nproc", Value::from(nproc as u64)),
        ("milp_bnb_threads", Value::from(nproc.min(4) as u64)),
        ("flow_jobs", Value::from(opts.jobs as u64)),
        ("qor", qor_list),
        ("program_lanes", lanes_value(&lanes)),
    ];
    meta.extend(extra);
    let meta = Value::Obj(meta.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    write_out(
        &format!("{tag}.metrics.json"),
        &metrics_file(meta, &metrics).to_string(),
    );

    println!(
        "flowbench {} seed {} ({} pass(es), nproc {}, MILP B&B threads {}; the seed permutes \
         kernel order, kernel data are fixed by hls's LCG seeds)",
        w.name,
        args.seed,
        passes,
        nproc,
        nproc.min(4)
    );
    print_table(&metrics);
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    ExitCode::SUCCESS
}
