//! FlowMap labeling: depth-optimal K-feasible cut computation.
//!
//! For every logic gate `t` (in topological order) we compute its *label*
//! `l(t)` — the depth of `t` in a depth-optimal K-LUT mapping — and a
//! K-feasible cut realizing that label. The classic FlowMap theorem states
//! `l(t) ∈ {p, p+1}` with `p` the maximum fanin label, decided by a
//! max-flow ≤ K test on the fanin cone with all label-`p` nodes collapsed
//! into the sink (Cong & Ding, 1994).
//!
//! # Dense layout
//!
//! Labels and cuts live in flat arrays indexed by a *dense* per-netlist
//! logic-gate index (assigned in topological order); cuts share one pooled
//! arena addressed by `(offset, len)` spans. The per-gate max-flow scratch
//! is allocated once per worker and reused across gates with epoch
//! stamps, so the hot loop performs no hashing and no per-gate allocation.
//!
//! # Implicit max-flow
//!
//! No flow network is built. The max-flow test runs over the cone that
//! the label computation walks anyway: per gate it keeps a saturation bit
//! and a `next` pointer (node capacities are 1, so a node's unit of flow
//! takes exactly one out-arc) plus in/out visit marks, and it finds
//! augmenting paths by a DFS backward from the collapsed sink that reads
//! only the fanin arrays. The cut still equals the reference labeler's
//! (which augments along BFS paths of an explicit network) because the
//! residual reach sets of a maximum flow do not depend on which maximum
//! flow was found.
//!
//! # Level-synchronous parallelism
//!
//! A gate's label is a pure function of its fanin cone and the labels of
//! that cone — all at strictly lower topological *levels* (a gate's level
//! is `1 + max` over its logic fanins). Gates of one level therefore have
//! independent labels given the levels below, and are fanned out over
//! scoped worker threads. Results are committed in ascending dense (= topo)
//! order and the reuse counters are summed over chunks in that same order,
//! so labels, chosen cuts, and all [`MapStats`] counters are bit-identical
//! at any job count. `crate::reference` retains the original serial
//! `HashMap`-backed labeler as the oracle this equivalence is tested
//! against.

use netlist::{GateId, Netlist, NetlistMatching};

/// Sentinel for "no dense index" / "unmatched gate".
const NONE: u32 = u32::MAX;
/// Minimum gates in one topological level before it is worth fanning the
/// level out over threads. A label costs about half a microsecond on
/// wide levels, so a level must hold well over a thousand gates to
/// repay a scoped-thread fan-out (~60 µs for two workers on a 2-core
/// VM); no level of the nine Table I kernels (at most ~500 gates) does.
const PAR_MIN_GATES: usize = 1024;

/// The combinational DAG view of a netlist: live logic gates with resolved
/// (alias-free) fanins, stored as flat arrays indexed by a dense logic
/// index assigned in topological order.
#[derive(Debug)]
pub(crate) struct CombView {
    /// Logic gates in topological order; position = dense index.
    pub topo: Vec<GateId>,
    /// `GateId::index() → dense index` ([`NONE`] for non-logic gates).
    dense: Vec<u32>,
    /// Fanin arena: fanins of dense gate `d` are
    /// `fanin_pool[fanin_offs[d]..fanin_offs[d + 1]]`.
    fanin_offs: Vec<u32>,
    fanin_pool: Vec<GateId>,
    /// Gates of topological level `l + 1` are
    /// `schedule[level_offs[l]..level_offs[l + 1]]` (dense indices,
    /// ascending — i.e. in topological order within the level).
    schedule: Vec<u32>,
    level_offs: Vec<u32>,
    /// Total gate count of the source netlist (scratch sizing).
    num_gates: usize,
}

impl CombView {
    /// Extracts the view; fails on combinational cycles.
    pub fn build(nl: &Netlist) -> Result<Self, Vec<GateId>> {
        let order = nl.topo_logic()?;
        let num_gates = nl.num_gates();
        let mut dense = vec![NONE; num_gates];
        let mut topo = Vec::new();
        let mut fanin_offs = vec![0u32];
        let mut fanin_pool: Vec<GateId> = Vec::new();
        for id in order {
            let g = nl.gate(id);
            if !g.kind().is_logic() {
                continue; // skip aliases
            }
            // A gate may see the same net twice (e.g. AND(x, x) pre-opt);
            // keep adjacent duplicates out of cut computations by deduping
            // here (resolved fanins, like `Vec::dedup` on the old layout).
            let start = fanin_pool.len();
            for &f in g.fanin() {
                let r = nl.resolve(f);
                if fanin_pool.len() > start && fanin_pool[fanin_pool.len() - 1] == r {
                    continue;
                }
                fanin_pool.push(r);
            }
            dense[id.index()] = topo.len() as u32;
            topo.push(id);
            fanin_offs.push(fanin_pool.len() as u32);
        }

        // Topological levels: 1 + max over logic fanins (startpoint-fed
        // gates are level 1). Fanins precede their gate in `topo`, so one
        // forward pass suffices.
        let n = topo.len();
        let mut level = vec![0u32; n];
        let mut max_level = 0u32;
        for d in 0..n {
            let mut lv = 1;
            for f in &fanin_pool[fanin_offs[d] as usize..fanin_offs[d + 1] as usize] {
                let fd = dense[f.index()];
                if fd != NONE {
                    lv = lv.max(level[fd as usize] + 1);
                }
            }
            level[d] = lv;
            max_level = max_level.max(lv);
        }
        // Bucket by level with a counting sort: stable, so each bucket
        // lists its gates in ascending dense (= topological) order.
        let ml = max_level as usize;
        // Counts land at index `lv` (= bucket + 1); the inclusive scan then
        // turns level_offs[b]..level_offs[b + 1] into bucket b's span.
        let mut level_offs = vec![0u32; ml + 1];
        for &lv in &level {
            level_offs[lv as usize] += 1;
        }
        for i in 1..level_offs.len() {
            level_offs[i] += level_offs[i - 1];
        }
        let mut cursor = level_offs.clone();
        let mut schedule = vec![0u32; n];
        for (d, &lv) in level.iter().enumerate() {
            let b = (lv - 1) as usize;
            schedule[cursor[b] as usize] = d as u32;
            cursor[b] += 1;
        }

        Ok(CombView {
            topo,
            dense,
            fanin_offs,
            fanin_pool,
            schedule,
            level_offs,
            num_gates,
        })
    }

    /// `true` if `g` is an internal (logic) node of the view.
    #[inline]
    pub fn is_logic(&self, g: GateId) -> bool {
        self.dense.get(g.index()).is_some_and(|&d| d != NONE)
    }

    /// The dense index of `g`, if `g` is a logic node of the view.
    #[inline]
    pub fn dense_of(&self, g: GateId) -> Option<u32> {
        match self.dense.get(g.index()) {
            Some(&d) if d != NONE => Some(d),
            _ => None,
        }
    }

    /// Resolved fanins of the dense gate `d`.
    #[inline]
    pub fn fanins_of(&self, d: u32) -> &[GateId] {
        &self.fanin_pool
            [self.fanin_offs[d as usize] as usize..self.fanin_offs[d as usize + 1] as usize]
    }

    /// Number of logic gates.
    #[inline]
    pub fn num_logic(&self) -> usize {
        self.topo.len()
    }

    /// Total gates of the source netlist (for scratch sizing).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.num_gates
    }

    /// Number of topological levels.
    fn num_levels(&self) -> usize {
        self.level_offs.len() - 1
    }

    /// The dense indices of topological level `l + 1`, ascending.
    fn level_bucket(&self, l: usize) -> &[u32] {
        &self.schedule[self.level_offs[l] as usize..self.level_offs[l + 1] as usize]
    }
}

/// Result of the labeling phase: flat per-dense-gate labels plus a pooled
/// cut arena.
#[derive(Debug)]
pub(crate) struct Labeling {
    /// `label[dense]` for logic gates (always ≥ 1 once computed).
    label: Vec<u32>,
    /// `(offset, len)` into [`Labeling::cut_pool`] per dense gate.
    cut_span: Vec<(u32, u32)>,
    cut_pool: Vec<GateId>,
}

impl Labeling {
    fn with_capacity(n: usize) -> Self {
        Labeling {
            label: vec![0; n],
            cut_span: vec![(0, 0); n],
            // Most cuts are 2-6 gates; 4·n is a good first guess.
            cut_pool: Vec::with_capacity(4 * n),
        }
    }

    /// The label of the dense gate `d`.
    #[inline]
    pub fn label_of(&self, d: u32) -> u32 {
        self.label[d as usize]
    }

    /// The chosen K-feasible cut of the dense gate `d`.
    #[inline]
    pub fn cut_of(&self, d: u32) -> &[GateId] {
        let (s, n) = self.cut_span[d as usize];
        &self.cut_pool[s as usize..(s + n) as usize]
    }

    fn push(&mut self, d: u32, label: u32, cut: &[GateId]) {
        self.label[d as usize] = label;
        let start = self.cut_pool.len() as u32;
        self.cut_pool.extend_from_slice(cut);
        self.cut_span[d as usize] = (start, cut.len() as u32);
    }

    /// Densifies a `HashMap`-backed labeling (the reference labeler's
    /// output) so it can share the LUT-generation phase.
    pub fn from_maps(
        view: &CombView,
        label: &dataflow::collections::HashMap<GateId, u32>,
        cut: &dataflow::collections::HashMap<GateId, Vec<GateId>>,
    ) -> Self {
        let mut out = Labeling::with_capacity(view.num_logic());
        for (d, &g) in view.topo.iter().enumerate() {
            if let (Some(&l), Some(c)) = (label.get(&g), cut.get(&g)) {
                out.push(d as u32, l, c);
            }
        }
        out
    }
}

/// Labeling reuse statistics of one seeded labeling run, as returned by
/// [`map_netlist_with_seed`](crate::map_netlist_with_seed).
///
/// Every field is a pure function of the input netlist/seed pair — the
/// counts are bit-identical at any job count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Labels (and cuts) copied from the seed through the matching.
    pub labels_reused: usize,
    /// Labels computed by the max-flow test from scratch.
    pub labels_computed: usize,
    /// LUTs packed by the cover phase (one packing task each).
    pub luts_packed: usize,
    /// Residual-search states pushed by the max-flow label tests (every
    /// augmenting search plus the source-side cut search): the labeler's
    /// deterministic work counter.
    pub flow_visits: usize,
}

/// A previous run's labels and cuts, expressed in *that run's* gate ids,
/// stored densely by gate index (label `0` marks an unlabeled gate; real
/// labels are always ≥ 1).
///
/// Captured by [`map_netlist_with_seed`](crate::map_netlist_with_seed) and
/// consumed by a later run together with a
/// [`NetlistMatching`] that translates between the two id spaces.
#[derive(Debug)]
pub struct MapSeed {
    /// FlowMap label per `GateId::index()` of the producing netlist.
    label: Vec<u32>,
    /// `(offset, len)` into [`MapSeed::cut_pool`] per gate index.
    span: Vec<(u32, u32)>,
    cut_pool: Vec<GateId>,
}

impl MapSeed {
    /// Re-keys a [`Labeling`] from dense indices to the producing
    /// netlist's gate indices (the id space a later matching translates).
    pub(crate) fn from_labeling(view: &CombView, labeling: Labeling) -> Self {
        let mut label = vec![0u32; view.num_gates()];
        let mut span = vec![(0u32, 0u32); view.num_gates()];
        for (d, &g) in view.topo.iter().enumerate() {
            label[g.index()] = labeling.label[d];
            span[g.index()] = labeling.cut_span[d];
        }
        MapSeed {
            label,
            span,
            cut_pool: labeling.cut_pool,
        }
    }

    fn lookup_raw(&self, raw: u32) -> Option<(u32, &[GateId])> {
        match self.label.get(raw as usize) {
            Some(&l) if l > 0 => {
                let (s, n) = self.span[raw as usize];
                Some((l, &self.cut_pool[s as usize..(s + n) as usize]))
            }
            _ => None,
        }
    }

    /// The label and cut recorded for gate `g` of the producing netlist.
    pub fn lookup(&self, g: GateId) -> Option<(u32, &[GateId])> {
        self.lookup_raw(g.index() as u32)
    }

    /// Iterates over `(gate, label, cut)` for every labeled gate, in gate
    /// id order. Exposed so tests and benches can compare two labelings
    /// without reaching into the storage layout.
    pub fn entries(&self) -> impl Iterator<Item = (GateId, u32, &[GateId])> + '_ {
        self.label
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .map(move |(i, &l)| {
                let (s, n) = self.span[i];
                (
                    GateId::from_raw(i as u32),
                    l,
                    &self.cut_pool[s as usize..(s + n) as usize],
                )
            })
    }

    /// Gate count of the producing netlist.
    fn num_gates(&self) -> usize {
        self.label.len()
    }
}

/// A [`NetlistMatching`] densified to flat gate-index arrays, so the seed
/// path of the labeler performs no hashing.
struct DenseSeed<'a> {
    seed: &'a MapSeed,
    /// Current gate index → raw previous gate id ([`NONE`] = unmatched).
    prev_of: Vec<u32>,
    /// Previous gate index → raw current gate id ([`NONE`] = unmatched).
    cur_of: Vec<u32>,
}

impl<'a> DenseSeed<'a> {
    fn build(seed: &'a MapSeed, m: &NetlistMatching, cur_gates: usize) -> Self {
        let (cur_of, prev_of) = m.dense_maps(seed.num_gates(), cur_gates);
        DenseSeed {
            seed,
            prev_of,
            cur_of,
        }
    }

    /// The seed label and cut matched to current gate `t`, if any.
    fn lookup(&self, t: GateId) -> Option<(u32, &'a [GateId])> {
        match self.prev_of.get(t.index()) {
            Some(&p) if p != NONE => self.seed.lookup_raw(p),
            _ => None,
        }
    }

    /// Translates a previous-run cut into current gate ids. Returns
    /// `false` (leaving `out` unusable) if any cut gate is unmatched — the
    /// caller then falls through to a fresh label computation. A matched
    /// root's whole cone is matched, so this cannot occur for well-formed
    /// matchings; falling through (instead of keeping a partial cut) makes
    /// the seed path safe against malformed ones in release builds too.
    fn translate(&self, cut: &[GateId], out: &mut Vec<GateId>) -> bool {
        out.clear();
        for &g in cut {
            match self.cur_of.get(g.index()) {
                Some(&c) if c != NONE => out.push(GateId::from_raw(c)),
                _ => return false,
            }
        }
        true
    }
}

/// Computes FlowMap labels and cuts for every logic gate.
///
/// With `max_volume` set, the K-feasible cut realizing each label is the
/// *max-volume* min cut (sink side of the flow network) instead of the
/// source-side cut: the mapped LUTs then swallow as many gates as the
/// label allows, which recovers area at identical (optimal) depth — the
/// same refinement classic FlowMap implementations apply.
#[cfg(test)]
pub(crate) fn compute_labels(view: &CombView, k: usize, max_volume: bool) -> Labeling {
    compute_labels_seeded(view, k, max_volume, None, 1).0
}

/// [`compute_labels`] with optional reuse of a previous run's results and
/// level-synchronous parallel labeling over `jobs` scoped threads.
///
/// For every gate the matching pairs with a seed gate, the seed's label
/// and cut are copied (cut gate ids translated through the matching)
/// instead of re-running the max-flow test. This is **exact**, not
/// heuristic: a matched gate's entire fanin cone is matched
/// order-isomorphically (see [`netlist::match_netlists`]), labels and min
/// cuts are deterministic pure functions of the cone structure walked in
/// fanin order, so the copied values are bit-identical to what the fresh
/// computation would produce — including every label the fresh run would
/// have read while processing *unmatched* gates downstream.
pub(crate) fn compute_labels_seeded(
    view: &CombView,
    k: usize,
    max_volume: bool,
    seed: Option<(&MapSeed, &NetlistMatching)>,
    jobs: usize,
) -> (Labeling, MapStats) {
    let n = view.num_logic();
    let mut labeling = Labeling::with_capacity(n);
    let mut stats = MapStats::default();
    let dense_seed = seed.map(|(s, m)| DenseSeed::build(s, m, view.num_gates()));
    let seed_ref = dense_seed.as_ref();
    let jobs = jobs.max(1);

    let mut scratches: Vec<LabelScratch> = (0..jobs)
        .map(|_| LabelScratch::new(view.num_gates()))
        .collect();

    for lvl in 0..view.num_levels() {
        let bucket = view.level_bucket(lvl);
        if jobs <= 1 || bucket.len() < PAR_MIN_GATES {
            // Serial: commit each gate as it is labeled. Gates of one
            // level never read same-level labels (only strictly lower
            // levels appear in a fanin cone), so interleaving commits with
            // computation changes nothing.
            let scratch = &mut scratches[0];
            for &d in bucket {
                let t = view.topo[d as usize];
                let (label, reused) = label_one_gate(
                    view,
                    &labeling.label,
                    seed_ref,
                    t,
                    d,
                    k,
                    max_volume,
                    scratch,
                );
                if reused {
                    stats.labels_reused += 1;
                } else {
                    stats.labels_computed += 1;
                }
                stats.flow_visits += std::mem::take(&mut scratch.flow_visits);
                let cut = std::mem::take(&mut scratch.cut_out);
                labeling.push(d, label, &cut);
                scratch.cut_out = cut;
            }
        } else {
            // Parallel: fan the level out in contiguous chunks, then
            // commit chunk results in ascending dense order. The commit
            // order (and therefore the arena layout, the counters, and
            // every label/cut) is independent of thread scheduling.
            let chunk_len = bucket.len().div_ceil(jobs);
            let chunks: Vec<&[u32]> = bucket.chunks(chunk_len).collect();
            let labels_ref: &[u32] = &labeling.label;
            let outs: Vec<ChunkOut> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .zip(scratches.iter_mut())
                    .map(|(chunk, scratch)| {
                        let chunk: &[u32] = chunk;
                        scope.spawn(move || {
                            let mut out = ChunkOut {
                                labels: Vec::with_capacity(chunk.len()),
                                lens: Vec::with_capacity(chunk.len()),
                                pool: Vec::new(),
                                flow_visits: 0,
                            };
                            for &d in chunk {
                                let t = view.topo[d as usize];
                                let (label, reused) = label_one_gate(
                                    view, labels_ref, seed_ref, t, d, k, max_volume, scratch,
                                );
                                out.labels.push((label, reused));
                                out.lens.push(scratch.cut_out.len() as u32);
                                out.pool.extend_from_slice(&scratch.cut_out);
                            }
                            out.flow_visits = std::mem::take(&mut scratch.flow_visits);
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            for (chunk, out) in chunks.iter().zip(outs) {
                stats.flow_visits += out.flow_visits;
                let mut pos = 0usize;
                for ((&d, &(label, reused)), &len) in chunk.iter().zip(&out.labels).zip(&out.lens) {
                    if reused {
                        stats.labels_reused += 1;
                    } else {
                        stats.labels_computed += 1;
                    }
                    labeling.push(d, label, &out.pool[pos..pos + len as usize]);
                    pos += len as usize;
                }
            }
        }
    }
    (labeling, stats)
}

/// One worker chunk's results: per-gate labels plus a private cut pool
/// (lengths delimit consecutive cuts) and the chunk's residual-search
/// work, merged deterministically.
struct ChunkOut {
    labels: Vec<(u32, bool)>,
    lens: Vec<u32>,
    pool: Vec<GateId>,
    flow_visits: usize,
}

/// The label of `f` as seen by the labeler: 0 for startpoints, the
/// committed label for logic gates of lower levels.
#[inline]
fn label_of(view: &CombView, labels: &[u32], f: GateId) -> u32 {
    match view.dense_of(f) {
        Some(fd) => labels[fd as usize],
        None => 0,
    }
}

/// Labels one gate; the chosen cut is left in `scratch.cut_out`.
#[allow(clippy::too_many_arguments)]
fn label_one_gate(
    view: &CombView,
    labels: &[u32],
    seed: Option<&DenseSeed<'_>>,
    t: GateId,
    d: u32,
    k: usize,
    max_volume: bool,
    scratch: &mut LabelScratch,
) -> (u32, bool) {
    if let Some(ds) = seed {
        if let Some((pl, pc)) = ds.lookup(t) {
            if ds.translate(pc, &mut scratch.cut_out) {
                return (pl, true);
            }
            // Unmatched cut gate under a matched root: fall through to a
            // fresh computation for this gate (see DenseSeed::translate).
        }
    }
    let fanins = view.fanins_of(d);
    let p = fanins
        .iter()
        .map(|&f| label_of(view, labels, f))
        .max()
        .unwrap_or(0);
    if p == 0 {
        // Directly fed by startpoints: depth 1, trivial cut.
        debug_assert!(fanins.len() <= k, "gate arity exceeds K");
        scratch.cut_out.clear();
        scratch.cut_out.extend_from_slice(fanins);
        return (1, false);
    }
    if min_cut_with_collapsed(view, labels, t, p, k, max_volume, scratch) {
        (p, false)
    } else {
        scratch.cut_out.clear();
        scratch.cut_out.extend_from_slice(fanins);
        (p + 1, false)
    }
}

/// `next` target of a node whose unit of flow enters the sink.
const SINK: u32 = u32::MAX;
/// Residual-search state of the sink (other states are
/// `gate index << 1 | half`, half 0 = in, 1 = out).
const SINK_STATE: u32 = u32::MAX;
/// "No state" / "no node" marker of the residual searches.
const NO_STATE: u32 = u32::MAX - 1;

#[inline]
fn in_state(g: usize) -> u32 {
    (g as u32) << 1
}

#[inline]
fn out_state(g: usize) -> u32 {
    (g as u32) << 1 | 1
}

/// Per-gate state of the implicit max-flow test, epoch-stamped so that no
/// field is cleared between gates or between residual searches.
///
/// Node capacities are 1, so a node carries at most one unit of flow and
/// sends it along at most one out-arc: a saturation bit plus one `next`
/// pointer describe the whole flow.
#[derive(Debug, Clone, Copy, Default)]
struct NodeMark {
    /// `== epoch`: the gate belongs to the current cone.
    cone: u32,
    /// `== epoch`: the gate's in→out arc carries its unit of flow.
    flow: u32,
    /// The fanout (gate index) or [`SINK`] that receives that unit; only
    /// meaningful while `flow == epoch`.
    next: u32,
    /// `== search`: the current residual search visited the in half.
    seen_in: u32,
    /// `== search`: the current residual search visited the out half.
    seen_out: u32,
}

/// Reusable per-worker scratch for the max-flow label test: the
/// epoch-stamped per-gate flow state sized by the netlist's gate count,
/// the cone and search stacks, and (for source-side cuts only) a
/// cone-local fanout list. Nothing here is reallocated per gate.
pub(crate) struct LabelScratch {
    marks: Vec<NodeMark>,
    epoch: u32,
    search: u32,
    /// The current cone in walk order (DFS pop order from the root).
    cone: Vec<GateId>,
    /// Out halves with an arc into the sink: the non-collapsed fanins of
    /// collapsed cone nodes (duplicates are harmless).
    sink_preds: Vec<GateId>,
    /// Cone-walk stack.
    stack: Vec<GateId>,
    /// Residual-search stack: `(state, next predecessor to try)`.
    frames: Vec<(u32, u32)>,
    /// Source-side cuts only: cone position by gate index, and the
    /// in-cone fanouts of cone position `i` as
    /// `fanout_pool[fanout_offs[i]..fanout_offs[i + 1]]`.
    local: Vec<u32>,
    fanout_offs: Vec<u32>,
    fanout_pool: Vec<u32>,
    /// Source-side cuts only: the node whose unit of flow enters cone
    /// position `i` ([`NO_STATE`] if none).
    feeder: Vec<u32>,
    /// Residual-search states pushed since the caller last took it.
    pub flow_visits: usize,
    /// The chosen cut of the most recent gate.
    pub cut_out: Vec<GateId>,
}

impl LabelScratch {
    pub fn new(num_gates: usize) -> Self {
        LabelScratch {
            marks: vec![NodeMark::default(); num_gates],
            epoch: 0,
            search: 0,
            cone: Vec::new(),
            sink_preds: Vec::new(),
            stack: Vec::new(),
            frames: Vec::new(),
            local: Vec::new(),
            fanout_offs: Vec::new(),
            fanout_pool: Vec::new(),
            feeder: Vec::new(),
            flow_visits: 0,
            cut_out: Vec::new(),
        }
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            for m in &mut self.marks {
                m.cone = 0;
                m.flow = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    fn next_search(&mut self) -> u32 {
        if self.search == u32::MAX {
            for m in &mut self.marks {
                m.seen_in = 0;
                m.seen_out = 0;
            }
            self.search = 0;
        }
        self.search += 1;
        self.search
    }

    /// Collects the cone of `t` (internal logic nodes and startpoint
    /// leaves, in walk order) and the sink's predecessors. Collapsed nodes
    /// (`t` and every cone gate labeled `p`) merge into the sink.
    fn walk_cone(&mut self, view: &CombView, labels: &[u32], t: GateId, p: u32, epoch: u32) {
        let dt = view.dense_of(t);
        let collapsed = |g: GateId| match view.dense_of(g) {
            Some(d) => Some(d) == dt || labels[d as usize] == p,
            None => false,
        };
        let LabelScratch {
            marks,
            cone,
            sink_preds,
            stack,
            ..
        } = self;
        cone.clear();
        sink_preds.clear();
        stack.clear();
        stack.push(t);
        marks[t.index()].cone = epoch;
        while let Some(u) = stack.pop() {
            cone.push(u);
            if let Some(du) = view.dense_of(u) {
                let u_collapsed = collapsed(u);
                for &f in view.fanins_of(du) {
                    if u_collapsed && !collapsed(f) {
                        sink_preds.push(f);
                    }
                    debug_assert!(
                        u_collapsed || !collapsed(f),
                        "labels are monotone: a collapsed node never feeds a kept one"
                    );
                    if marks[f.index()].cone != epoch {
                        marks[f.index()].cone = epoch;
                        stack.push(f);
                    }
                }
            }
        }
    }

    /// Finds one augmenting path by an iterative DFS *backward* from the
    /// sink over the residual graph, reading nothing but the fanin arrays
    /// and the per-gate flow state, and pushes one unit along it. On
    /// failure the search's visit marks are exactly the halves that reach
    /// the sink.
    ///
    /// Residual predecessors: the sink's are [`Self::sink_preds`]; `In(u)`
    /// reaches the source iff `u` is a startpoint, and otherwise has
    /// `Out(f)` for each fanin `f` plus `Out(u)` while `u` carries flow;
    /// `Out(u)` has `In(u)` while `u` carries no flow, else
    /// `In(next[u])` (cancelling the arc its unit takes).
    fn augment(&mut self, view: &CombView, epoch: u32) -> bool {
        let search = self.next_search();
        let LabelScratch {
            marks,
            sink_preds,
            frames,
            flow_visits,
            ..
        } = self;
        frames.clear();
        frames.push((SINK_STATE, 0));
        *flow_visits += 1;
        while let Some(top) = frames.last_mut() {
            let (state, pos) = *top;
            let mut pred = NO_STATE;
            if state == SINK_STATE {
                let mut i = pos as usize;
                while i < sink_preds.len() {
                    let u = sink_preds[i].index();
                    i += 1;
                    if marks[u].seen_out != search {
                        pred = out_state(u);
                        break;
                    }
                }
                top.1 = i as u32;
            } else if state & 1 == 1 {
                let u = (state >> 1) as usize;
                if pos == 0 {
                    top.1 = 1;
                    let m = marks[u];
                    let v = if m.flow == epoch { m.next } else { u as u32 };
                    if v != SINK && marks[v as usize].seen_in != search {
                        pred = in_state(v as usize);
                    }
                }
            } else {
                let u = (state >> 1) as usize;
                // In halves of startpoints end the search before they are
                // ever resumed, so `u` is a logic gate here.
                let fanins = view.fanins_of(view.dense[u]);
                let mut i = pos as usize;
                while i < fanins.len() {
                    let f = fanins[i].index();
                    i += 1;
                    if marks[f].seen_out != search {
                        pred = out_state(f);
                        break;
                    }
                }
                if pred == NO_STATE && i == fanins.len() {
                    i += 1;
                    if marks[u].flow == epoch && marks[u].seen_out != search {
                        pred = out_state(u);
                    }
                }
                top.1 = i as u32;
            }
            if pred == NO_STATE {
                frames.pop();
                continue;
            }
            *flow_visits += 1;
            let g = (pred >> 1) as usize;
            frames.push((pred, 0));
            if pred & 1 == 1 {
                marks[g].seen_out = search;
            } else {
                marks[g].seen_in = search;
                if view.dense[g] == NONE {
                    push_flow(frames, marks, epoch);
                    return true;
                }
            }
        }
        false
    }

    /// Source-side (min-volume) cut after a maximum flow: the nodes whose
    /// in half the source reaches in the residual graph but whose out half
    /// it does not. This forward search needs in-cone fanout lists and the
    /// node feeding each in half, which the backward augmenting search
    /// does not, so both are built here, for this mode only.
    fn source_side_cut(&mut self, view: &CombView, labels: &[u32], t: GateId, p: u32, epoch: u32) {
        let search = self.next_search();
        let dt = view.dense_of(t);
        let kept_logic = |g: GateId| match view.dense_of(g) {
            Some(d) => Some(d) != dt && labels[d as usize] != p,
            None => false,
        };
        let LabelScratch {
            marks,
            cone,
            frames,
            local,
            fanout_offs,
            fanout_pool,
            feeder,
            flow_visits,
            cut_out,
            ..
        } = self;
        if local.len() < marks.len() {
            local.resize(marks.len(), 0);
        }
        let n = cone.len();
        for (i, &u) in cone.iter().enumerate() {
            local[u.index()] = i as u32;
        }
        // In-cone fanouts by counting sort (bucket ends by an inclusive
        // scan, then filled back to front so each end becomes its start);
        // arcs into collapsed nodes lead to the sink, which the source
        // cannot reach after a max flow.
        fanout_offs.clear();
        fanout_offs.resize(n + 1, 0);
        for &v in cone.iter().filter(|&&v| kept_logic(v)) {
            for &f in view.fanins_of(view.dense[v.index()]) {
                fanout_offs[local[f.index()] as usize] += 1;
            }
        }
        let mut end = 0;
        for o in fanout_offs.iter_mut() {
            end += *o;
            *o = end;
        }
        fanout_pool.resize(end as usize, 0);
        for &v in cone.iter().filter(|&&v| kept_logic(v)) {
            for &f in view.fanins_of(view.dense[v.index()]) {
                let c = &mut fanout_offs[local[f.index()] as usize];
                *c -= 1;
                fanout_pool[*c as usize] = v.index() as u32;
            }
        }
        feeder.clear();
        feeder.resize(n, NO_STATE);
        for &u in cone.iter() {
            let m = marks[u.index()];
            if m.flow == epoch && m.next != SINK {
                feeder[local[m.next as usize] as usize] = u.index() as u32;
            }
        }

        // Forward search from the source, which reaches every startpoint's
        // in half.
        frames.clear();
        *flow_visits += 1;
        for &s in cone.iter().filter(|&&s| !view.is_logic(s)) {
            marks[s.index()].seen_in = search;
            frames.push((in_state(s.index()), 0));
            *flow_visits += 1;
        }
        let mut visit = |state: u32, frames: &mut Vec<(u32, u32)>, marks: &mut [NodeMark]| {
            let g = (state >> 1) as usize;
            let seen = if state & 1 == 1 {
                &mut marks[g].seen_out
            } else {
                &mut marks[g].seen_in
            };
            if *seen != search {
                *seen = search;
                frames.push((state, 0));
                *flow_visits += 1;
            }
        };
        while let Some((state, _)) = frames.pop() {
            let u = (state >> 1) as usize;
            let m = marks[u];
            let i = local[u] as usize;
            if state & 1 == 0 {
                if m.flow != epoch {
                    visit(out_state(u), frames, marks);
                }
                if feeder[i] != NO_STATE {
                    visit(out_state(feeder[i] as usize), frames, marks);
                }
            } else {
                for j in fanout_offs[i]..fanout_offs[i + 1] {
                    visit(in_state(fanout_pool[j as usize] as usize), frames, marks);
                }
                if m.flow == epoch {
                    visit(in_state(u), frames, marks);
                }
            }
        }
        cut_out.clear();
        for &u in cone.iter() {
            let m = marks[u.index()];
            if m.seen_in == search && m.seen_out != search {
                cut_out.push(u);
            }
        }
    }
}

/// Augments along the residual path on `frames` (sink first, a
/// startpoint's in half last): each consecutive pair `(y, x)` is a
/// residual arc `x → y`.
fn push_flow(frames: &[(u32, u32)], marks: &mut [NodeMark], epoch: u32) {
    for w in frames.windows(2) {
        let (y, x) = (w[0].0, w[1].0);
        let xu = (x >> 1) as usize;
        if y == SINK_STATE {
            marks[xu].next = SINK;
            continue;
        }
        let yu = y >> 1;
        match (x & 1 == 1, xu as u32 == yu) {
            // In(u) → Out(u): saturate u.
            (false, true) => marks[xu].flow = epoch,
            // Out(u) → In(u): cancel u's unit.
            (true, true) => marks[xu].flow = 0,
            // Out(u) → In(v): u's unit now enters v.
            (true, false) => marks[xu].next = yu,
            // In(v) → Out(u): cancels u's arc into v; the window before
            // this one re-routes (or cancels) u's unit.
            (false, false) => {}
        }
    }
}

/// Max-flow test: collapse `t` and all cone nodes labeled `p` into the
/// sink; if a node cut of size ≤ k exists between startpoint leaves and
/// the sink, leave it in `scratch.cut_out` (as netlist gates, in
/// cone-walk order) and return `true`.
///
/// The flow network is implicit: every non-collapsed cone node `u` splits
/// into `In(u) → Out(u)` of capacity 1, fanin arcs and the source's arcs
/// into startpoints are unbounded, and the flow itself lives in the
/// per-gate [`NodeMark`]s. Augmenting paths are searched backward from
/// the sink straight off the [`CombView`] fanin arrays, aborting once the
/// flow exceeds `k`.
///
/// The chosen cut matches the reference labeler's exactly although the
/// augmenting paths differ: for *every* maximum flow, the set of nodes
/// that reach the sink in the residual graph is the same, and so is the
/// set the source reaches. The max-volume cut `{u : Out(u) reaches the
/// sink, In(u) does not}` is read off the final, failing search's visit
/// marks; the source-side cut needs one forward search.
fn min_cut_with_collapsed(
    view: &CombView,
    labels: &[u32],
    t: GateId,
    p: u32,
    k: usize,
    max_volume: bool,
    scratch: &mut LabelScratch,
) -> bool {
    let epoch = scratch.next_epoch();
    scratch.walk_cone(view, labels, t, p, epoch);
    let mut total = 0usize;
    while scratch.augment(view, epoch) {
        total += 1;
        if total > k {
            return false;
        }
    }
    if max_volume {
        let search = scratch.search;
        let LabelScratch {
            marks,
            cone,
            cut_out,
            ..
        } = scratch;
        cut_out.clear();
        for &u in cone.iter() {
            let m = marks[u.index()];
            if m.seen_out == search && m.seen_in != search {
                cut_out.push(u);
            }
        }
    } else {
        scratch.source_side_cut(view, labels, t, p, epoch);
    }
    debug_assert!(scratch.cut_out.len() <= k, "min cut exceeded K");
    debug_assert!(!scratch.cut_out.is_empty(), "empty cut for {t}");
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::Origin;

    const O: Origin = Origin::External;

    fn label_of_gate(view: &CombView, lab: &Labeling, g: GateId) -> u32 {
        lab.label_of(view.dense_of(g).expect("logic gate"))
    }

    fn cut_of_gate<'a>(view: &CombView, lab: &'a Labeling, g: GateId) -> &'a [GateId] {
        lab.cut_of(view.dense_of(g).expect("logic gate"))
    }

    #[test]
    fn chain_labels_grow_with_k_saturation() {
        // A chain of 2-input ANDs over 9 inputs: with K=2 every AND is its
        // own LUT (labels 1..8); with K=6, label stays low.
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..9).map(|_| nl.input(O)).collect();
        let mut acc = inputs[0];
        let mut gates = Vec::new();
        for &i in &inputs[1..] {
            acc = nl.and(acc, i, O);
            gates.push(acc);
        }
        nl.add_keep(acc, "out");
        let view = CombView::build(&nl).unwrap();

        let lab2 = compute_labels(&view, 2, false);
        assert_eq!(label_of_gate(&view, &lab2, *gates.last().unwrap()), 8);

        let lab6 = compute_labels(&view, 6, false);
        assert_eq!(label_of_gate(&view, &lab6, *gates.last().unwrap()), 2);
    }

    #[test]
    fn balanced_tree_of_8_fits_two_levels_k6() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..8).map(|_| nl.input(O)).collect();
        let root = nl.and_tree(&inputs, O);
        nl.add_keep(root, "out");
        let view = CombView::build(&nl).unwrap();
        let lab = compute_labels(&view, 6, true);
        assert_eq!(label_of_gate(&view, &lab, root), 2);
        assert!(cut_of_gate(&view, &lab, root).len() <= 6);
    }

    #[test]
    fn single_gate_has_label_one() {
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let b = nl.input(O);
        let g = nl.and(a, b, O);
        nl.add_keep(g, "out");
        let view = CombView::build(&nl).unwrap();
        let lab = compute_labels(&view, 6, true);
        assert_eq!(label_of_gate(&view, &lab, g), 1);
        assert_eq!(cut_of_gate(&view, &lab, g), &[a, b]);
    }

    #[test]
    fn cuts_are_k_feasible() {
        let mut nl = Netlist::new();
        let inputs: Vec<GateId> = (0..16).map(|_| nl.input(O)).collect();
        let root = nl.and_tree(&inputs, O);
        nl.add_keep(root, "out");
        let view = CombView::build(&nl).unwrap();
        for k in [2usize, 3, 4, 6] {
            let lab = compute_labels(&view, k, k % 2 == 0);
            for d in 0..view.num_logic() as u32 {
                let cut = lab.cut_of(d);
                assert!(cut.len() <= k, "cut of {} exceeds K={}", cut.len(), k);
            }
        }
    }

    #[test]
    fn reconvergence_packs_into_one_lut() {
        // f = (a & b) | (a ^ b) depends on only 2 inputs: one 6-LUT.
        let mut nl = Netlist::new();
        let a = nl.input(O);
        let b = nl.input(O);
        let g1 = nl.and(a, b, O);
        let g2 = nl.xor(a, b, O);
        let f = nl.or(g1, g2, O);
        nl.add_keep(f, "out");
        let view = CombView::build(&nl).unwrap();
        let lab = compute_labels(&view, 6, true);
        assert_eq!(
            label_of_gate(&view, &lab, f),
            1,
            "reconvergent cone must fuse"
        );
        let mut cut = cut_of_gate(&view, &lab, f).to_vec();
        cut.sort_unstable();
        assert_eq!(cut, vec![a, b]);
    }

    /// Labels `nl` with the dense labeler and with the reference labeler
    /// in both cut modes, asserts they agree on every gate's label and
    /// cut, and returns the view plus the dense max-volume labeling.
    fn pinned_to_reference(nl: &Netlist, k: usize) -> (CombView, Labeling) {
        let view = CombView::build(nl).unwrap();
        for max_volume in [false, true] {
            let dense = compute_labels(&view, k, max_volume);
            let (label, cut) = crate::reference::compute_labels_hashmap(&view, k, max_volume);
            for (d, g) in view.topo.iter().enumerate() {
                assert_eq!(dense.label_of(d as u32), label[g], "label of {g}");
                assert_eq!(dense.cut_of(d as u32), &cut[g][..], "cut of {g}");
            }
        }
        let lab = compute_labels(&view, k, true);
        (view, lab)
    }

    #[test]
    fn second_path_cancels_a_dag_arc_and_a_node_arc() {
        // K = 3. v, w, z, y are label 1; h needs the four inputs, so it is
        // label 2, and r's test collapses r and h with sink predecessors
        // w, z and y. The first augmenting path (fanin order) is
        // a → v → w. z is fed by a alone, so the second path must be
        // b → w, cancelling the v → w arc, v's in→out arc and the a → v
        // arc, then a → z.
        let mut nl = Netlist::new();
        let [a, b, c, d] = [(); 4].map(|_| nl.input(O));
        let v = nl.not(a, O);
        let w = nl.and(v, b, O);
        let z = nl.not(a, O);
        let y = nl.and(c, d, O);
        let h = nl.mux(w, z, y, O);
        let r = nl.and(h, w, O);
        nl.add_keep(r, "out");
        let (view, lab) = pinned_to_reference(&nl, 3);
        assert_eq!(label_of_gate(&view, &lab, h), 2);
        assert_eq!(label_of_gate(&view, &lab, r), 2);
        assert_eq!(cut_of_gate(&view, &lab, r), &[w, y, z]);

        // Replay r's test one augmenting path at a time.
        let mut s = LabelScratch::new(nl.num_gates());
        let epoch = s.next_epoch();
        s.walk_cone(&view, &lab.label, r, 2, epoch);
        let flows = |s: &LabelScratch, g: GateId| s.marks[g.index()].flow == epoch;
        let next = |s: &LabelScratch, g: GateId| s.marks[g.index()].next;
        assert!(s.augment(&view, epoch));
        assert!(flows(&s, a) && flows(&s, v) && flows(&s, w));
        assert_eq!(
            (next(&s, a), next(&s, v)),
            (v.index() as u32, w.index() as u32)
        );
        assert!(s.augment(&view, epoch));
        assert!(!flows(&s, v), "v's in→out arc was not cancelled");
        assert_eq!(next(&s, a), z.index() as u32, "a → v was not re-routed");
        assert_eq!(next(&s, b), w.index() as u32);
        assert!(s.augment(&view, epoch));
        assert!(!s.augment(&view, epoch), "max flow is 3");
    }

    #[test]
    fn flow_above_k_labels_p_plus_one_with_the_fanin_cut() {
        // K = 3: x and y are label 1, and with both collapsed the root's
        // cone still has four inputs.
        let mut nl = Netlist::new();
        let [a, b, c, d] = [(); 4].map(|_| nl.input(O));
        let x = nl.and(a, b, O);
        let y = nl.and(c, d, O);
        let root = nl.and(x, y, O);
        nl.add_keep(root, "out");
        let (view, lab) = pinned_to_reference(&nl, 3);
        assert_eq!(label_of_gate(&view, &lab, root), 2);
        assert_eq!(cut_of_gate(&view, &lab, root), &[x, y]);
        let (view4, lab4) = pinned_to_reference(&nl, 4);
        assert_eq!(label_of_gate(&view4, &lab4, root), 1);
    }

    #[test]
    fn startpoint_feeding_a_collapsed_node_is_a_cut_candidate() {
        // K = 3: h = (a∧b)∧(c∧d) is label 2; the root collapses with h and
        // takes the startpoint e as a direct sink predecessor.
        let mut nl = Netlist::new();
        let [a, b, c, d, e] = [(); 5].map(|_| nl.input(O));
        let x = nl.and(a, b, O);
        let y = nl.and(c, d, O);
        let h = nl.and(x, y, O);
        let root = nl.and(h, e, O);
        nl.add_keep(root, "out");
        let (view, lab) = pinned_to_reference(&nl, 3);
        assert_eq!(label_of_gate(&view, &lab, root), 2);
        assert_eq!(cut_of_gate(&view, &lab, root), &[e, y, x]);
        let source_side = compute_labels(&view, 3, false);
        assert_eq!(cut_of_gate(&view, &source_side, root), &[e, y, x]);
    }

    #[test]
    fn gate_seeing_one_fanin_twice() {
        // mux(a, b, a) keeps both copies of a (only adjacent duplicates
        // are dropped): parallel arcs below the cut, and h = mux(m, x, m)
        // repeats a sink predecessor and a fanin-cut member.
        let mut nl = Netlist::new();
        let [a, b, c, d] = [(); 4].map(|_| nl.input(O));
        let m = nl.mux(a, b, a, O);
        let x = nl.and(c, d, O);
        let h = nl.mux(m, x, m, O);
        let root = nl.and(h, m, O);
        nl.add_keep(root, "out");
        let (view, lab) = pinned_to_reference(&nl, 3);
        assert_eq!(view.fanins_of(view.dense_of(m).unwrap()), &[a, b, a]);
        assert_eq!(label_of_gate(&view, &lab, h), 2);
        assert_eq!(cut_of_gate(&view, &lab, h), &[m, x, m]);
        assert_eq!(label_of_gate(&view, &lab, root), 2);
        assert_eq!(cut_of_gate(&view, &lab, root), &[m, x]);
    }

    #[test]
    fn parallel_labeling_is_bit_identical() {
        // Wide levels: 1024 independent AND trees, then a reduction —
        // enough gates per level to trigger the parallel path at jobs > 1.
        let mut nl = Netlist::new();
        let mut roots = Vec::new();
        for _ in 0..PAR_MIN_GATES {
            let ins: Vec<GateId> = (0..4).map(|_| nl.input(O)).collect();
            roots.push(nl.and_tree(&ins, O));
        }
        let top = nl.and_tree(&roots, O);
        nl.add_keep(top, "out");
        let view = CombView::build(&nl).unwrap();
        for mv in [false, true] {
            let (serial, s1) = compute_labels_seeded(&view, 4, mv, None, 1);
            for jobs in [2usize, 3, 8] {
                let (par, sj) = compute_labels_seeded(&view, 4, mv, None, jobs);
                assert!(s1.flow_visits > 0);
                assert_eq!(s1, sj, "stats diverge at jobs={jobs}");
                for d in 0..view.num_logic() as u32 {
                    assert_eq!(serial.label_of(d), par.label_of(d), "label at {d}");
                    assert_eq!(serial.cut_of(d), par.cut_of(d), "cut at {d}");
                }
            }
        }
    }
}
