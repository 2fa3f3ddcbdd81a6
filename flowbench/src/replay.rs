//! The traced replay: re-runs one flow's recorded decisions through each
//! layer's public entry points, one span per call, and checks that the
//! replay reproduces the flow.
//!
//! The replay mirrors the loop logic of `optimize_iterative_with_cache`
//! and `optimize_baseline_with_cache` (per-iteration level target, best
//! circuit so far, slack matching, synthesis reuse) but takes every
//! decision the flow made from its [`FlowResult`]: iteration *i* places
//! buffers on `apply_buffers(base, fixed_i)` with `fixed_1` the back edges
//! and `fixed_{i+1}` the record's `fixed_for_next`. Where the mirrored
//! logic drifts from the flow's, the check fails with the kernel and
//! iteration.

use crate::Flow;
use dataflow::collections::HashMap;
use dataflow::{fingerprint_graph, ChannelId, Fingerprint, Graph};
use flowbench::spans::Recorder;
use frequenz_bench::verify_outputs_traced;
use frequenz_core::{
    apply_buffers, baseline_timing_graph, build_placement_model, characterize_units_jobs,
    compute_penalties, extract_cfdfcs_traced, map_lut_edges_cached, measure_traced, place_buffers,
    place_buffers_warm, slack_match_traced, ClassifyCache, FlowOptions, FlowResult, FlowTrace,
    LutDfgMap, PlacementProblem, PlacementResult, SimOptions, SimStats, SlackOptions, SynthCache,
    SynthOptions, Synthesis, TimingGraph,
};
use hls::Kernel;
use lutmap::{map_netlist_with_seed, MapOptions, MapSeed};
use netlist::{elaborate, match_netlists};
use std::sync::Arc;

/// Work counts read from the values the replayed calls return, summed
/// over the kernels of one pass.
#[derive(Debug, Default)]
pub struct Counts {
    /// Gates elaborated (live, before optimization).
    pub gates: u64,
    /// Gates removed by `Netlist::optimize`.
    pub gates_removed: u64,
    /// FlowMap labels computed from scratch.
    pub labels_computed: u64,
    /// FlowMap labels copied from a seed.
    pub labels_reused: u64,
    /// LUTs mapped.
    pub luts: u64,
    /// Synthesis requests the flows made (`SynthCache` hits + misses).
    pub synth_calls: u64,
    /// Of those, served from the cache.
    pub synth_hits: u64,
    /// Per-unit characterization tasks (baseline).
    pub unit_tasks: u64,
    /// Artificial LUT edges the LUT-edge mapping inserted.
    pub artificial_edges: u64,
    /// Timing-graph nodes built.
    pub timing_nodes: u64,
    /// Timing-graph edges built.
    pub timing_edges: u64,
    /// Channels given a penalty.
    pub penalty_channels: u64,
    /// CFDFCs extracted.
    pub cfdfcs: u64,
    /// Cycles of the CFDFC profiling runs.
    pub cfdfc_sim_cycles: u64,
    /// Placement calls.
    pub place_calls: u64,
    /// Lazy cut rounds of the placement calls.
    pub cut_rounds: u64,
    /// Simplex pivots of the placement calls.
    pub milp_pivots: u64,
    /// Branch-and-bound nodes.
    pub milp_nodes: u64,
    /// Nodes pruned.
    pub milp_nodes_pruned: u64,
    /// Basis refactorizations.
    pub milp_refactors: u64,
    /// Root cuts added.
    pub milp_cuts: u64,
    /// Warm starts adopted from the cross-iteration store.
    pub milp_warm_hits: u64,
    /// Warm-start store lookups that were not adopted.
    pub milp_warm_misses: u64,
    /// Seed models re-solved.
    pub seed_solves: u64,
    /// Seed re-solves that hit the work or node limit.
    pub seed_truncated: u64,
    /// Slack-matching trials.
    pub slack_trials: u64,
    /// Trials cut off at the incumbent.
    pub slack_pruned: u64,
    /// Simulator runs.
    pub sim_runs: u64,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Bytecode compiles.
    pub sim_compiles: u64,
    /// Fig.-4 iterations.
    pub iterations: u64,
    /// Flows that met the level target.
    pub converged: u64,
    /// Flows replayed.
    pub flows: u64,
}

impl Counts {
    fn add_placement(&mut self, p: &PlacementResult) {
        self.place_calls += 1;
        self.cut_rounds += p.cut_rounds as u64;
        self.milp_pivots += p.milp_pivots;
        self.milp_nodes += p.milp_nodes;
        self.milp_nodes_pruned += p.milp_nodes_pruned;
        self.milp_refactors += p.milp_refactors;
        self.milp_cuts += p.milp_cuts;
        self.milp_warm_hits += p.milp_warm_hits;
        self.milp_warm_misses += p.milp_warm_misses;
    }

    fn add_sim(&mut self, s: &SimStats) {
        self.sim_runs += s.runs;
        self.sim_cycles += s.cycles;
        self.sim_compiles += s.compiles;
    }
}

/// One direct synthesis: the artifacts plus the FlowMap seed the next
/// synthesis reuses labels from.
struct Synthed {
    synthesis: Arc<Synthesis>,
    seed: MapSeed,
}

/// Replays one kernel's flow under `rec`'s innermost open span.
pub struct Replay<'a> {
    rec: &'a mut Recorder,
    counts: &'a mut Counts,
    opts: &'a FlowOptions,
    kernel: &'a Kernel,
    /// Direct syntheses by graph fingerprint: mirrors the flow's
    /// `SynthCache`, so a graph the flow got from memory is not
    /// re-synthesized here.
    memo: HashMap<Fingerprint, Arc<Synthed>>,
    /// The cache handed to slack matching and measurement, as the flow
    /// hands them its own.
    cache: SynthCache,
}

type Res<T> = Result<T, String>;

impl<'a> Replay<'a> {
    /// A replay of `kernel`'s flow.
    pub fn new(
        rec: &'a mut Recorder,
        counts: &'a mut Counts,
        opts: &'a FlowOptions,
        kernel: &'a Kernel,
    ) -> Self {
        Replay {
            rec,
            counts,
            opts,
            kernel,
            memo: HashMap::default(),
            cache: SynthCache::new(),
        }
    }

    fn mismatch(&self, iteration: usize, what: String) -> String {
        format!(
            "replay mismatch on {} iteration {iteration}: {what}",
            self.kernel.name
        )
    }

    fn synth_opts(&self) -> SynthOptions {
        SynthOptions {
            k: self.opts.k,
            jobs: self.opts.jobs,
        }
    }

    /// Elaborate → optimize → (match against the basis) → map, one span
    /// per call; a graph synthesized before is served from the memo.
    fn synth(&mut self, g: &Graph, basis: Option<&Synthed>) -> Res<Arc<Synthed>> {
        let key = fingerprint_graph(g);
        if let Some(hit) = self.memo.get(&key) {
            return Ok(hit.clone());
        }
        let (elab, _) = self.rec.time("netlist.elaborate", || elaborate(g));
        let mut nl = elab.map_err(|e| e.to_string())?.netlist;
        let (opt_stats, _) = self.rec.time("netlist.optimize", || nl.optimize());
        self.counts.gates += opt_stats.live_before as u64;
        self.counts.gates_removed += opt_stats.removed_gates as u64;
        let map_opts = MapOptions {
            k: self.opts.k,
            area_recovery: true,
            jobs: self.opts.jobs,
        };
        let mapped = match basis {
            Some(b) => {
                let (m, _) = self.rec.time("netlist.match", || {
                    match_netlists(&b.synthesis.netlist, &nl)
                });
                self.rec.time("lutmap.map", || {
                    map_netlist_with_seed(&nl, &map_opts, Some((&b.seed, &m)))
                })
            }
            None => self
                .rec
                .time("lutmap.map", || map_netlist_with_seed(&nl, &map_opts, None)),
        };
        let (luts, seed, stats) = mapped.0.map_err(|e| e.to_string())?;
        self.counts.labels_computed += stats.labels_computed as u64;
        self.counts.labels_reused += stats.labels_reused as u64;
        self.counts.luts += luts.num_luts() as u64;
        let out = Arc::new(Synthed {
            synthesis: Arc::new(Synthesis {
                netlist: nl,
                luts,
                opt_stats,
            }),
            seed,
        });
        self.memo.insert(key, out.clone());
        Ok(out)
    }

    /// Logic levels of `g` after slack matching: from the memo, else from
    /// the cache slack matching filled (the flow's cache would hold it).
    fn levels_after_slack(&mut self, g: &Graph) -> Res<u32> {
        if let Some(hit) = self.memo.get(&fingerprint_graph(g)) {
            return Ok(hit.synthesis.logic_levels());
        }
        let opts = self.synth_opts();
        let cache = &self.cache;
        let (s, _) = self
            .rec
            .time("synth.cached", || cache.synthesize_opts(g, &opts));
        Ok(s.map_err(|e| e.to_string())?.logic_levels())
    }

    fn sim_child(&mut self, span: usize, stats: &SimStats) {
        self.rec.derived(span, "sim.run", stats.time);
        self.counts.add_sim(stats);
    }

    fn cfdfcs(&mut self) -> Vec<frequenz_core::Cfdfc> {
        let (kernel, opts) = (self.kernel, self.opts);
        let mut sim = SimStats::default();
        let (cfdfcs, span) = self.rec.time("cfdfc.extract", || {
            extract_cfdfcs_traced(
                kernel.graph(),
                kernel.back_edges(),
                opts.max_cfdfcs,
                opts.sim_budget,
                SimOptions {
                    engine: opts.sim_engine,
                },
                &mut sim,
            )
        });
        self.sim_child(span, &sim);
        self.counts.cfdfcs += cfdfcs.len() as u64;
        self.counts.cfdfc_sim_cycles += sim.cycles;
        cfdfcs
    }

    /// Re-solves the seed model of `problem` on its own (not part of the
    /// flow) to count truncated solves, which `PlacementResult` drops.
    fn seed_solve(&mut self, problem: &PlacementProblem<'_>) -> Res<()> {
        let (out, _) = self.rec.time("milp.seed_solve", || {
            build_placement_model(problem).map(|m| m.solve())
        });
        self.counts.seed_solves += 1;
        match out.map_err(|e| e.to_string())? {
            Ok(sol) => self.counts.seed_truncated += sol.truncated as u64,
            Err(milp::SolveError::NodeLimit) => self.counts.seed_truncated += 1,
            Err(e) => return Err(format!("seed model re-solve failed: {e}")),
        }
        Ok(())
    }

    fn slack(&mut self, buffers: &[ChannelId], target_levels: u32) -> Res<Vec<ChannelId>> {
        let opts = self.opts;
        let slack_opts = SlackOptions {
            k: opts.k,
            target_levels,
            sim_budget: opts.sim_budget,
            engine: opts.sim_engine,
            jobs: opts.jobs,
            ..SlackOptions::default()
        };
        let mut trace = FlowTrace::default();
        let base = self.kernel.graph();
        let cache = &self.cache;
        let (out, span) = self.rec.time("slack.match", || {
            slack_match_traced(base, buffers, &slack_opts, cache, &mut trace)
        });
        let sim = SimStats {
            time: trace.sim,
            runs: trace.sim_runs,
            cycles: trace.sim_cycles,
            compiles: trace.sim_compiles,
        };
        self.sim_child(span, &sim);
        self.counts.slack_trials += trace.slack_trials;
        self.counts.slack_pruned += trace.slack_trials_pruned;
        out.map_err(|e| e.to_string())
    }

    /// Replays `flow` (produced by `kind` on this kernel), then times its
    /// verification and measurement. Spans: `flow › iteration:i › layer`
    /// and `report.*` beside `flow`.
    pub fn run(mut self, kind: Flow, flow: &FlowResult) -> Res<()> {
        self.counts.flows += 1;
        self.counts.synth_calls += flow.trace.cache_hits + flow.trace.cache_misses;
        self.counts.synth_hits += flow.trace.cache_hits;
        self.counts.iterations += flow.iterations.len() as u64;
        self.counts.converged += flow.converged as u64;
        let span = self.rec.open("flow");
        let out = match kind {
            Flow::Iterative => self.iterative(flow),
            Flow::Baseline => self.baseline(flow),
        };
        self.rec.close(span);
        out?;
        self.report(flow)
    }

    fn report(&mut self, flow: &FlowResult) -> Res<()> {
        let (kernel, opts) = (self.kernel, self.opts);
        let mut sim = SimStats::default();
        let (verified, span) = self.rec.time("report.verify", || {
            verify_outputs_traced(kernel, flow, &mut sim)
        });
        self.sim_child(span, &sim);
        verified.map_err(|e| e.to_string())?;
        // The flow's cache holds its final circuit when the flow is
        // measured; warm this one the same way outside the timed call.
        let cache = &self.cache;
        let synth_opts = self.synth_opts();
        let _ = self.rec.time("report.synth", || {
            cache.synthesize_opts(&flow.graph, &synth_opts)
        });
        let mut sim = SimStats::default();
        let (measured, span) = self.rec.time("report.measure", || {
            measure_traced(
                &flow.graph,
                opts.k,
                kernel.max_cycles * 8,
                cache,
                SimOptions {
                    engine: opts.sim_engine,
                },
                &mut sim,
            )
        });
        self.sim_child(span, &sim);
        measured.map_err(|e| e.to_string())?;
        Ok(())
    }

    fn iterative(&mut self, flow: &FlowResult) -> Res<()> {
        let (kernel, opts) = (self.kernel, self.opts);
        let base = kernel.graph();
        let cfdfcs = self.cfdfcs();
        let mut fixed: Vec<ChannelId> = kernel.back_edges().to_vec();
        let mut prev: Option<Arc<Synthed>> = None;
        let mut prev_model: Option<(Arc<Synthesis>, LutDfgMap, TimingGraph)> = None;
        let mut classify = ClassifyCache::default();
        let warm_store = opts.milp_warm_start.then(milp::MilpWarmStore::new);
        let mut best: Option<(u32, Vec<ChannelId>)> = None;
        let mut extra_margin = 0u32;
        for (i, record) in flow.iterations.iter().enumerate() {
            let iteration = i + 1;
            let span = self.rec.open(format!("iteration:{iteration}"));
            let g_cur = apply_buffers(base, &fixed);
            let cur = self.synth(&g_cur, prev.as_deref())?;
            let reuse = matches!(&prev_model, Some((s, _, _)) if Arc::ptr_eq(s, &cur.synthesis));
            if !reuse {
                let (map, _) = self.rec.time("lutdfg.map", || {
                    map_lut_edges_cached(base, &cur.synthesis, &mut classify)
                });
                let (timing, _) = self.rec.time("timing.build", || {
                    TimingGraph::build(base, &cur.synthesis, &map)
                });
                self.counts.artificial_edges += map.num_artificial() as u64;
                self.counts.timing_nodes += timing.num_nodes() as u64;
                self.counts.timing_edges += timing.edges().count() as u64;
                prev_model = Some((cur.synthesis.clone(), map, timing));
            }
            let timing = &prev_model.as_ref().expect("set above").2;
            let penalties = if opts.use_penalties {
                self.rec
                    .time("penalty.compute", || compute_penalties(base, timing))
                    .0
            } else {
                HashMap::default()
            };
            self.counts.penalty_channels += penalties.len() as u64;
            let problem = PlacementProblem {
                graph: base,
                timing,
                penalties: &penalties,
                cfdfcs: &cfdfcs,
                target_levels: opts
                    .target_levels
                    .saturating_sub(opts.buffer_margin + extra_margin)
                    .max(2),
                fixed: &fixed,
                alpha: opts.alpha,
                beta: opts.beta,
                max_cut_rounds: opts.max_cut_rounds,
                objective: opts.objective,
            };
            self.seed_solve(&problem)?;
            let (placement, _) = self.rec.time("place.solve", || {
                place_buffers_warm(&problem, warm_store.as_ref())
            });
            let placement = placement.map_err(|e| e.to_string())?;
            self.counts.add_placement(&placement);
            if placement.buffers != record.proposed {
                return Err(self.mismatch(
                    iteration,
                    format!(
                        "placed {} buffers, the flow proposed {}",
                        placement.buffers.len(),
                        record.proposed.len()
                    ),
                ));
            }
            let new = self.synth(&apply_buffers(base, &placement.buffers), Some(&cur))?;
            let achieved = new.synthesis.logic_levels();
            if achieved != record.achieved_levels {
                return Err(self.mismatch(
                    iteration,
                    format!(
                        "{achieved} levels after re-synthesis, the flow recorded {}",
                        record.achieved_levels
                    ),
                ));
            }
            if best.as_ref().is_none_or(|(lv, _)| achieved < *lv) {
                best = Some((achieved, placement.buffers.clone()));
            }
            let last = achieved <= opts.target_levels || iteration == opts.max_iterations;
            if last != (iteration == flow.iterations.len()) {
                return Err(self.mismatch(iteration, "the loop exits elsewhere".into()));
            }
            if last {
                let converged = achieved <= opts.target_levels;
                let (mut levels, mut buffers) = if converged {
                    (achieved, placement.buffers)
                } else {
                    best.take().expect("an iteration ran")
                };
                if opts.slack_matching {
                    let widened = self.slack(&buffers, opts.target_levels.max(levels))?;
                    if widened.len() != buffers.len() {
                        buffers = widened;
                        if let Ok(l) = self.levels_after_slack(&apply_buffers(base, &buffers)) {
                            levels = l;
                        }
                    }
                }
                self.rec.close(span);
                return self.check_final(iteration, flow, &buffers, levels);
            }
            extra_margin = (extra_margin + 1).min(3);
            fixed = record.fixed_for_next.clone();
            prev = Some(cur);
            self.rec.close(span);
        }
        Err(self.mismatch(0, "the flow recorded no iteration".into()))
    }

    fn baseline(&mut self, flow: &FlowResult) -> Res<()> {
        let (kernel, opts) = (self.kernel, self.opts);
        let base = kernel.graph();
        let span = self.rec.open("iteration:1");
        let (levels, _) = self.rec.time("baseline.characterize", || {
            characterize_units_jobs(base, opts.k, opts.jobs)
        });
        let (unit_levels, tasks) = levels.map_err(|e| e.to_string())?;
        self.counts.unit_tasks += tasks;
        let (timing, _) = self
            .rec
            .time("timing.build", || baseline_timing_graph(base, &unit_levels));
        self.counts.timing_nodes += timing.num_nodes() as u64;
        self.counts.timing_edges += timing.edges().count() as u64;
        let penalties = HashMap::default();
        let cfdfcs = self.cfdfcs();
        let problem = PlacementProblem {
            graph: base,
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
        self.seed_solve(&problem)?;
        let (placement, _) = self.rec.time("place.solve", || place_buffers(&problem));
        let placement = placement.map_err(|e| e.to_string())?;
        self.counts.add_placement(&placement);
        let mut buffers = placement.buffers;
        if opts.slack_matching {
            let achieved0 = self
                .synth(&apply_buffers(base, &buffers), None)?
                .synthesis
                .logic_levels();
            buffers = self.slack(&buffers, opts.target_levels.max(achieved0))?;
        }
        let levels = self.levels_after_slack(&apply_buffers(base, &buffers))?;
        self.rec.close(span);
        let record = flow.iterations.first().map(|r| &r.proposed);
        if record != Some(&buffers) {
            return Err(self.mismatch(1, "the buffer set differs from the flow's".into()));
        }
        self.check_final(1, flow, &buffers, levels)
    }

    fn check_final(
        &self,
        iteration: usize,
        flow: &FlowResult,
        buffers: &[ChannelId],
        levels: u32,
    ) -> Res<()> {
        if buffers != flow.buffers.as_slice() {
            return Err(self.mismatch(
                iteration,
                format!(
                    "final circuit has {} buffers, the flow's {}",
                    buffers.len(),
                    flow.buffers.len()
                ),
            ));
        }
        if levels != flow.achieved_levels {
            return Err(self.mismatch(
                iteration,
                format!(
                    "final circuit has {levels} levels, the flow's {}",
                    flow.achieved_levels
                ),
            ));
        }
        Ok(())
    }
}
