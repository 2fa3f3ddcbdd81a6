//! Per-run flow instrumentation.
//!
//! Every flow run ([`optimize_iterative`](crate::optimize_iterative) and
//! [`optimize_baseline`](crate::optimize_baseline)) records where its wall
//! clock went — synthesis, LUT→DFG mapping, timing-model construction,
//! MILP solving, slack matching — together with the synthesis-cache
//! hit/miss counts and the placement solver's work counters. The trace
//! rides on [`FlowResult`](crate::FlowResult) and is printed by the bench
//! binaries, giving performance work a baseline to regress against.

use crate::place::PlacementResult;
use std::fmt;
use std::time::{Duration, Instant};

/// Wall-clock and cache accounting for one flow run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowTrace {
    /// Time spent synthesizing (elaborate + optimize + LUT map), cache
    /// misses only — cache hits cost effectively nothing.
    pub synth: Duration,
    /// Time spent mapping LUT edges back onto the DFG.
    pub map: Duration,
    /// Time spent building the placement model's inputs: mapping-aware
    /// (or baseline) timing graphs, CFDFC extraction and the logic-sharing
    /// penalties.
    pub timing: Duration,
    /// Time spent in the placement MILP.
    pub milp: Duration,
    /// Time spent in the slack-matching pass (simulation + level probes).
    pub slack: Duration,
    /// Whole-run wall clock.
    pub total: Duration,
    /// Synthesis requests served from the [`SynthCache`](crate::SynthCache).
    pub cache_hits: u64,
    /// Synthesis requests that ran a real synthesis.
    pub cache_misses: u64,
    /// Lazy critical-path covering rounds across all placement calls: each
    /// round adds the covering rows of newly found over-long paths and
    /// re-solves the placement MILP.
    pub cut_rounds: usize,
    /// Simplex pivots spent by the placement MILPs (all iterations and
    /// covering rounds) — the deterministic work measure behind the pivot
    /// budget.
    pub milp_pivots: u64,
    /// Basis refactorizations performed by the sparse revised simplex.
    pub milp_refactors: u64,
    /// Branch-and-bound nodes explored by the placement MILPs.
    pub milp_nodes: u64,
    /// Constraint rows removed by model canonicalization before solving.
    pub milp_rows_dropped: u64,
    /// Branch-and-bound nodes pruned by the incumbent bound before their
    /// LP was ever solved.
    pub milp_nodes_pruned: u64,
    /// Variable bounds tightened by MILP presolve.
    pub milp_bounds_tightened: u64,
    /// Placement solves that adopted a warm-start basis from a previous
    /// iteration (or covering round) of the same placement problem.
    pub milp_warm_hits: u64,
    /// Placement-store lookups that did *not* end in an adopted warm start
    /// (empty store, or the remapped entry failed revalidation).
    pub milp_warm_misses: u64,
    /// Placement MILP solves started (one per covering round).
    pub milp_solves: u64,
    /// Placement solves that hit their node or pivot budget and returned
    /// an unproven incumbent.
    pub milp_truncated: u64,
    /// Placement solves with no incumbent within the node limit, answered
    /// by rounding the LP relaxation up instead.
    pub milp_fallbacks: u64,
    /// Figure-4 iterations executed.
    pub iterations: usize,
    /// Portion of `synth` spent in full (basis-less) synthesis runs.
    pub synth_full: Duration,
    /// Portion of `synth` spent in incremental (basis-seeded) runs.
    pub synth_incremental: Duration,
    /// Cache misses that ran incrementally against a basis.
    pub incr_synths: u64,
    /// Cache misses that synthesized from scratch.
    pub full_synths: u64,
    /// FlowMap labels copied from a basis instead of recomputed.
    pub labels_reused: u64,
    /// FlowMap labels computed by the max-flow test.
    pub labels_computed: u64,
    /// Wall clock inside cycle-accurate simulator runs — CFDFC profiling
    /// and slack-matching trials. A *cross-cutting* lane: it overlaps
    /// `timing` and `slack` (like `synth_full`/`synth_incremental` overlap
    /// `synth`) rather than adding a disjoint phase.
    pub sim: Duration,
    /// Simulator runs started (completed, timed out, or failed).
    pub sim_runs: u64,
    /// Clock cycles executed across all simulator runs.
    pub sim_cycles: u64,
    /// Bytecode programs compiled for [`sim::SimEngine::Compiled`] runs.
    /// The compiled engine's economics live here: slack matching compiles
    /// *once* per pass and shares the program across every trial thread,
    /// so this stays far below `sim_runs`.
    pub sim_compiles: u64,
    /// Slack-matching trial simulations evaluated.
    pub slack_trials: u64,
    /// Slack trials aborted by the incumbent-bound early exit (they spent
    /// their full cycle cap without beating the round's best).
    pub slack_trials_pruned: u64,
    /// Largest worker-pool width used by the synthesis lane (labeling,
    /// LUT packing, unit characterization). Deterministic: it reports the
    /// configured width, not scheduling behaviour.
    pub synth_jobs: usize,
    /// Independent unit-characterization tasks fanned out by the baseline
    /// flow (one per unique unit signature) — jobs-invariant by design.
    pub par_unit_tasks: u64,
    /// LUTs packed by the (potentially parallel) cover-construction pass
    /// across all syntheses — jobs-invariant by design.
    pub par_pack_tasks: u64,
}

/// Wall clock and work counters of a batch of simulator runs, tallied by
/// the functions that own the runs and merged into a [`FlowTrace`] via
/// [`FlowTrace::record_sim`] (the borrow-friendly way to time a sub-lane
/// inside a phase that is itself timed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Wall clock inside the runs.
    pub time: Duration,
    /// Runs started.
    pub runs: u64,
    /// Cycles executed.
    pub cycles: u64,
    /// Bytecode programs compiled (compiled engine only).
    pub compiles: u64,
}

impl SimStats {
    /// Tallies one finished run.
    pub fn tally(&mut self, time: Duration, cycles: u64) {
        self.time += time;
        self.runs += 1;
        self.cycles += cycles;
    }
}

impl FlowTrace {
    /// Fraction of synthesis requests served from cache (0 when none ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of FlowMap labels served from a basis (0 when none ran).
    pub fn label_reuse_rate(&self) -> f64 {
        let total = self.labels_reused + self.labels_computed;
        if total == 0 {
            0.0
        } else {
            self.labels_reused as f64 / total as f64
        }
    }

    /// Merges a batch of simulator-run stats into the `sim` lane.
    pub fn record_sim(&mut self, stats: SimStats) {
        self.sim += stats.time;
        self.sim_runs += stats.runs;
        self.sim_cycles += stats.cycles;
        self.sim_compiles += stats.compiles;
    }

    /// Merges the solver counters of one placement call.
    pub fn record_placement(&mut self, p: &PlacementResult) {
        self.cut_rounds += p.cut_rounds;
        self.milp_pivots += p.milp_pivots;
        self.milp_refactors += p.milp_refactors;
        self.milp_nodes += p.milp_nodes;
        self.milp_rows_dropped += p.milp_rows_dropped;
        self.milp_nodes_pruned += p.milp_nodes_pruned;
        self.milp_bounds_tightened += p.milp_bounds_tightened;
        self.milp_warm_hits += p.milp_warm_hits;
        self.milp_warm_misses += p.milp_warm_misses;
        self.milp_solves += p.milp_solves;
        self.milp_truncated += p.milp_truncated;
        self.milp_fallbacks += p.milp_fallbacks;
    }

    /// Sums phase durations and counters of `other` into `self` (used to
    /// aggregate the two flows of a comparison run).
    pub fn absorb(&mut self, other: &FlowTrace) {
        self.synth += other.synth;
        self.map += other.map;
        self.timing += other.timing;
        self.milp += other.milp;
        self.slack += other.slack;
        self.total += other.total;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cut_rounds += other.cut_rounds;
        self.milp_pivots += other.milp_pivots;
        self.milp_refactors += other.milp_refactors;
        self.milp_nodes += other.milp_nodes;
        self.milp_rows_dropped += other.milp_rows_dropped;
        self.milp_nodes_pruned += other.milp_nodes_pruned;
        self.milp_bounds_tightened += other.milp_bounds_tightened;
        self.milp_warm_hits += other.milp_warm_hits;
        self.milp_warm_misses += other.milp_warm_misses;
        self.milp_solves += other.milp_solves;
        self.milp_truncated += other.milp_truncated;
        self.milp_fallbacks += other.milp_fallbacks;
        self.iterations += other.iterations;
        self.synth_full += other.synth_full;
        self.synth_incremental += other.synth_incremental;
        self.incr_synths += other.incr_synths;
        self.full_synths += other.full_synths;
        self.labels_reused += other.labels_reused;
        self.labels_computed += other.labels_computed;
        self.sim += other.sim;
        self.sim_runs += other.sim_runs;
        self.sim_cycles += other.sim_cycles;
        self.sim_compiles += other.sim_compiles;
        self.slack_trials += other.slack_trials;
        self.slack_trials_pruned += other.slack_trials_pruned;
        self.synth_jobs = self.synth_jobs.max(other.synth_jobs);
        self.par_unit_tasks += other.par_unit_tasks;
        self.par_pack_tasks += other.par_pack_tasks;
    }
}

impl fmt::Display for FlowTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "synth {:.2}s (full {:.2}s + incr {:.2}s) | map {:.2}s | timing {:.2}s | \
             milp {:.2}s ({} pivots, {} nodes, {} refactors, {} rows dropped, \
             {} pruned, {} bounds tightened, \
             {} warm hits/{} misses, {} truncated + {} fallbacks/{} solves) | \
             slack {:.2}s ({} trials, {} pruned) | \
             sim {:.2}s ({} runs, {} cycles, {} compiles) | \
             total {:.2}s | cache {}/{} hits ({:.0}%) | \
             {} incr / {} full synths | labels {}/{} reused ({:.0}%) | \
             {} cut rounds | {} iterations | \
             synth jobs {} ({} unit tasks, {} packed)",
            self.synth.as_secs_f64(),
            self.synth_full.as_secs_f64(),
            self.synth_incremental.as_secs_f64(),
            self.map.as_secs_f64(),
            self.timing.as_secs_f64(),
            self.milp.as_secs_f64(),
            self.milp_pivots,
            self.milp_nodes,
            self.milp_refactors,
            self.milp_rows_dropped,
            self.milp_nodes_pruned,
            self.milp_bounds_tightened,
            self.milp_warm_hits,
            self.milp_warm_misses,
            self.milp_truncated,
            self.milp_fallbacks,
            self.milp_solves,
            self.slack.as_secs_f64(),
            self.slack_trials,
            self.slack_trials_pruned,
            self.sim.as_secs_f64(),
            self.sim_runs,
            self.sim_cycles,
            self.sim_compiles,
            self.total.as_secs_f64(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            100.0 * self.cache_hit_rate(),
            self.incr_synths,
            self.full_synths,
            self.labels_reused,
            self.labels_reused + self.labels_computed,
            100.0 * self.label_reuse_rate(),
            self.cut_rounds,
            self.iterations,
            self.synth_jobs,
            self.par_unit_tasks,
            self.par_pack_tasks,
        )
    }
}

/// Times a closure, accumulating its wall clock into `slot`.
pub(crate) fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_and_mixes() {
        let mut t = FlowTrace::default();
        assert_eq!(t.cache_hit_rate(), 0.0);
        t.cache_hits = 3;
        t.cache_misses = 1;
        assert!((t.cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = FlowTrace {
            cache_hits: 1,
            cut_rounds: 2,
            iterations: 1,
            synth: Duration::from_millis(10),
            synth_jobs: 4,
            par_unit_tasks: 2,
            ..FlowTrace::default()
        };
        let b = FlowTrace {
            cache_hits: 2,
            cache_misses: 5,
            cut_rounds: 3,
            milp_pivots: 100,
            milp_refactors: 2,
            milp_nodes: 9,
            milp_rows_dropped: 11,
            milp_nodes_pruned: 4,
            milp_bounds_tightened: 13,
            milp_warm_hits: 3,
            milp_warm_misses: 2,
            milp_solves: 7,
            milp_truncated: 2,
            milp_fallbacks: 1,
            iterations: 4,
            synth: Duration::from_millis(5),
            synth_incremental: Duration::from_millis(2),
            incr_synths: 2,
            labels_reused: 10,
            labels_computed: 30,
            sim: Duration::from_millis(7),
            sim_runs: 3,
            sim_cycles: 900,
            sim_compiles: 2,
            slack_trials: 12,
            slack_trials_pruned: 5,
            synth_jobs: 2,
            par_unit_tasks: 3,
            par_pack_tasks: 40,
            ..FlowTrace::default()
        };
        a.absorb(&b);
        assert_eq!(a.cache_hits, 3);
        assert_eq!(a.cache_misses, 5);
        assert_eq!(a.cut_rounds, 5);
        assert_eq!(a.milp_pivots, 100);
        assert_eq!(a.milp_refactors, 2);
        assert_eq!(a.milp_nodes, 9);
        assert_eq!(a.milp_rows_dropped, 11);
        assert_eq!(a.milp_nodes_pruned, 4);
        assert_eq!(a.milp_bounds_tightened, 13);
        assert_eq!(a.milp_warm_hits, 3);
        assert_eq!(a.milp_warm_misses, 2);
        assert_eq!(a.milp_solves, 7);
        assert_eq!(a.milp_truncated, 2);
        assert_eq!(a.milp_fallbacks, 1);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.synth, Duration::from_millis(15));
        assert_eq!(a.synth_incremental, Duration::from_millis(2));
        assert_eq!(a.incr_synths, 2);
        assert_eq!(a.labels_reused, 10);
        assert_eq!(a.sim, Duration::from_millis(7));
        assert_eq!(a.sim_runs, 3);
        assert_eq!(a.sim_cycles, 900);
        assert_eq!(a.sim_compiles, 2);
        assert_eq!(a.slack_trials, 12);
        assert_eq!(a.slack_trials_pruned, 5);
        // Worker-pool width absorbs via max, task counts via sum.
        assert_eq!(a.synth_jobs, 4);
        assert_eq!(a.par_unit_tasks, 5);
        assert_eq!(a.par_pack_tasks, 40);
    }

    #[test]
    fn record_placement_carries_every_counter() {
        let p = PlacementResult {
            cut_rounds: 1,
            milp_pivots: 2,
            milp_refactors: 3,
            milp_nodes: 4,
            milp_rows_dropped: 5,
            milp_nodes_pruned: 6,
            milp_bounds_tightened: 7,
            milp_warm_hits: 8,
            milp_warm_misses: 9,
            milp_solves: 10,
            milp_truncated: 11,
            milp_fallbacks: 12,
            ..PlacementResult::default()
        };
        let mut t = FlowTrace::default();
        t.record_placement(&p);
        t.record_placement(&p);
        let got = [
            t.cut_rounds as u64,
            t.milp_pivots,
            t.milp_refactors,
            t.milp_nodes,
            t.milp_rows_dropped,
            t.milp_nodes_pruned,
            t.milp_bounds_tightened,
            t.milp_warm_hits,
            t.milp_warm_misses,
            t.milp_solves,
            t.milp_truncated,
            t.milp_fallbacks,
        ];
        let want: Vec<u64> = (1..=12).map(|v| 2 * v).collect();
        assert_eq!(got.to_vec(), want);
    }

    #[test]
    fn record_sim_merges_the_sim_lane() {
        let mut t = FlowTrace::default();
        let mut s = SimStats::default();
        s.tally(Duration::from_millis(4), 100);
        s.tally(Duration::from_millis(6), 50);
        s.compiles += 1;
        t.record_sim(s);
        t.record_sim(s);
        assert_eq!(t.sim, Duration::from_millis(20));
        assert_eq!(t.sim_runs, 4);
        assert_eq!(t.sim_cycles, 300);
        assert_eq!(t.sim_compiles, 2);
        // The instrumentation line surfaces the new lane.
        let line = t.to_string();
        assert!(
            line.contains("sim 0.02s (4 runs, 300 cycles, 2 compiles)"),
            "{line}"
        );
    }

    #[test]
    fn label_reuse_rate_handles_zero_and_mixes() {
        let mut t = FlowTrace::default();
        assert_eq!(t.label_reuse_rate(), 0.0);
        t.labels_reused = 30;
        t.labels_computed = 10;
        assert!((t.label_reuse_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timed_accumulates_into_slot() {
        let mut slot = Duration::ZERO;
        let v = timed(&mut slot, || 7);
        assert_eq!(v, 7);
        let first = slot;
        timed(&mut slot, || ());
        assert!(slot >= first);
    }
}
