//! One synthesis run: graph → optimized gates → K-LUT network.
//!
//! This is the "Logic Synthesizer" box of Figure 4: the equivalent of
//! feeding the circuit's BLIF through ABC's optimization and `if -K 6`.

use dataflow::collections::HashMap;
use dataflow::{fingerprint_graph, Fingerprint, Graph};
use lutmap::{map_netlist, LutNetwork, MapError, MapOptions};
use netlist::{elaborate, Netlist, OptStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Options for one synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthOptions {
    /// LUT input count (the paper's K = 6).
    pub k: usize,
    /// Worker threads for the level-synchronous FlowMap labeler and LUT
    /// packing. Results are bit-identical at any value — jobs only trades
    /// wall clock, which is why it is *not* part of the synthesis cache
    /// key. Must be ≥ 1 ([`FlowOptions::validate`](crate::FlowOptions)
    /// rejects 0).
    pub jobs: usize,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            k: 6,
            jobs: lutmap::default_jobs(),
        }
    }
}

impl SynthOptions {
    /// Default options with the given K.
    pub fn with_k(k: usize) -> Self {
        SynthOptions {
            k,
            ..Self::default()
        }
    }

    fn map_options(&self) -> MapOptions {
        MapOptions {
            k: self.k,
            area_recovery: true,
            jobs: self.jobs.max(1),
        }
    }
}

/// The artifacts of one synthesis run.
#[derive(Debug)]
pub struct Synthesis {
    /// The optimized gate-level netlist.
    pub netlist: Netlist,
    /// The mapped LUT network.
    pub luts: LutNetwork,
    /// Logic-optimization statistics.
    pub opt_stats: OptStats,
}

impl Synthesis {
    /// Post-synthesis logic levels (the quantity the flow regulates).
    pub fn logic_levels(&self) -> u32 {
        self.luts.depth()
    }

    /// LUT count (the paper's area metric).
    pub fn lut_count(&self) -> usize {
        self.luts.num_luts()
    }

    /// Flip-flop count (buffers + unit state + pipeline registers).
    pub fn ff_count(&self) -> usize {
        self.netlist.num_live_regs()
    }
}

/// Synthesizes `g` (with its current buffer annotations) down to K-LUTs.
///
/// # Errors
///
/// [`MapError::CombinationalCycle`] if a dataflow cycle carries no opaque
/// buffer — callers must seed loop back edges first (Figure 4) — and
/// [`MapError::Elaborate`] if the graph has dangling ports.
pub fn synthesize(g: &Graph, k: usize) -> Result<Synthesis, MapError> {
    synthesize_opts(g, &SynthOptions::with_k(k))
}

/// [`synthesize`] with explicit [`SynthOptions`] (job count included).
///
/// # Errors
///
/// Same contract as [`synthesize`].
pub fn synthesize_opts(g: &Graph, opts: &SynthOptions) -> Result<Synthesis, MapError> {
    let mut nl = elaborate(g)?.netlist;
    let opt_stats = nl.optimize();
    let luts = map_netlist(&nl, &opts.map_options())?;
    Ok(Synthesis {
        netlist: nl,
        luts,
        opt_stats,
    })
}

/// A memoizing synthesis front end.
///
/// The iterative flow synthesizes structurally identical graphs over and
/// over: iteration *i+1* starts from the buffered graph iteration *i*
/// ended with, slack matching probes repeat candidate buffer sets, and
/// the final measurement re-synthesizes the flow's own output. The cache
/// keys runs on `(`[`Fingerprint`]`, K)` — the structural hash covers
/// buffer annotations, so distinct buffer configurations never collide —
/// and hands out [`Arc<Synthesis>`] so hits are free.
///
/// The cache is `&self` throughout and safe to share across threads; the
/// lock is *not* held while a miss synthesizes, so concurrent misses on
/// different graphs proceed in parallel (a rare duplicate miss on the
/// same key just wastes one synthesis run).
#[derive(Debug, Default)]
pub struct SynthCache {
    entries: Mutex<HashMap<(Fingerprint, usize), Arc<Synthesis>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SynthCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Synthesizes `g`, serving structurally identical repeats from memory.
    ///
    /// # Errors
    ///
    /// Same contract as [`synthesize`]; errors are not cached.
    pub fn synthesize(&self, g: &Graph, k: usize) -> Result<Arc<Synthesis>, MapError> {
        self.synthesize_opts(g, &SynthOptions::with_k(k))
    }

    /// [`SynthCache::synthesize`] with explicit [`SynthOptions`]. The cache
    /// key remains `(fingerprint, K)` — the job count cannot change any
    /// result, only how fast it is produced.
    ///
    /// # Errors
    ///
    /// Same contract as [`synthesize`]; errors are not cached.
    pub fn synthesize_opts(
        &self,
        g: &Graph,
        opts: &SynthOptions,
    ) -> Result<Arc<Synthesis>, MapError> {
        let key = (fingerprint_graph(g), opts.k);
        if let Some(hit) = self.entries.lock().unwrap().get(&key).cloned() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        let synthesis = Arc::new(synthesize_opts(g, opts)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(self
            .entries
            .lock()
            .unwrap()
            .entry(key)
            .or_insert(synthesis)
            .clone())
    }

    /// Requests served from memory so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that ran a real synthesis so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct cached syntheses currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls::kernels;

    #[test]
    fn synthesizes_seeded_kernel() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let s = synthesize(&g, 6).unwrap();
        assert!(s.logic_levels() > 0);
        assert!(s.lut_count() > 10);
        assert!(s.ff_count() > 0);
        assert!(s.opt_stats.rewrites > 0);
    }

    #[test]
    fn unseeded_kernel_has_combinational_cycle() {
        let k = kernels::gsum(8);
        assert!(matches!(
            synthesize(k.graph(), 6),
            Err(MapError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn cache_serves_repeats_and_counts() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let cache = SynthCache::new();
        let a = cache.synthesize(&g, 6).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let b = cache.synthesize(&g, 6).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(&a, &b));
        // A different K is a different key.
        cache.synthesize(&g, 4).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_agrees_with_direct_synthesis() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let cache = SynthCache::new();
        let cached = cache.synthesize(&g, 6).unwrap();
        let direct = synthesize(&g, 6).unwrap();
        assert_eq!(cached.logic_levels(), direct.logic_levels());
        assert_eq!(cached.lut_count(), direct.lut_count());
        assert_eq!(cached.ff_count(), direct.ff_count());
    }

    #[test]
    fn smaller_k_cannot_reduce_depth() {
        let k = kernels::gsum(8);
        let g = k.seeded_graph();
        let d6 = synthesize(&g, 6).unwrap().logic_levels();
        let d4 = synthesize(&g, 4).unwrap().logic_levels();
        assert!(d4 >= d6, "K=4 depth {d4} < K=6 depth {d6}");
    }
}
