//! The logic-sharing penalty of Section IV-C (Eq. 2).
//!
//! `Penalty(c) = |X_fake(c)| / |X(c)|` where `X(c)` is the set of delay
//! nodes in the *source unit* of channel `c` and `X_fake(c)` the fake
//! delay nodes of that unit incident to `c`. A penalty of 1 means the
//! source unit shares *all* of its logic with its successor — placing a
//! buffer there would forbid the sharing and inflate area, so the
//! optimizer weights such buffers `(1 + penalty)` in the objective
//! (Eq. 3).

use crate::timing::TimingGraph;
use dataflow::collections::HashMap;
use dataflow::{ChannelId, Graph, UnitId};

/// Computes the per-channel penalties from a timing model.
///
/// Channels whose source unit has no delay nodes at all (fully optimized
/// away) get penalty 0 — there is no logic left to disrupt.
pub fn compute_penalties(g: &Graph, timing: &TimingGraph) -> HashMap<ChannelId, f64> {
    penalties_from(g, timing, &timing.fake_nodes_touching())
}

/// Eq. 2 over precomputed `X_fake` counts (`fake_touch`, keyed by source
/// unit and channel).
fn penalties_from(
    g: &Graph,
    timing: &TimingGraph,
    fake_touch: &HashMap<(UnitId, ChannelId), usize>,
) -> HashMap<ChannelId, f64> {
    let unit_counts = timing.unit_node_counts();
    let mut penalties = HashMap::default();
    for (cid, ch) in g.channels() {
        let src = ch.src().unit;
        let (real, fake) = unit_counts.get(&src).copied().unwrap_or((0, 0));
        let total = real + fake;
        let fakes_on_c = fake_touch.get(&(src, cid)).copied().unwrap_or(0);
        let p = if total == 0 {
            0.0
        } else {
            fakes_on_c as f64 / total as f64
        };
        penalties.insert(cid, p);
    }
    penalties
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lutdfg::map_lut_edges;
    use crate::synth::synthesize;
    use dataflow::{OpKind, PortRef, UnitKind};

    /// Asserts the linear `X_fake` counts and the penalties built on them
    /// match the quadratic oracle bit for bit.
    fn assert_matches_oracle(g: &Graph, timing: &TimingGraph, what: &str) {
        let oracle = timing.fake_nodes_touching_reference();
        assert_eq!(timing.fake_nodes_touching(), oracle, "{what}: X_fake");
        let got = compute_penalties(g, timing);
        let want = penalties_from(g, timing, &oracle);
        assert_eq!(got.len(), want.len(), "{what}");
        for (cid, p) in &want {
            assert_eq!(got[cid].to_bits(), p.to_bits(), "{what}: penalty of {cid}");
        }
    }

    #[test]
    fn linear_fake_touch_matches_the_quadratic_oracle_on_all_kernels() {
        use crate::iterate::apply_buffers;
        use crate::place::{place_buffers, PlacementProblem};
        for k in hls::kernels::all_kernels() {
            let base = k.graph();
            // The first iteration's model: the seeded circuit.
            let synth = synthesize(&k.seeded_graph(), 6).unwrap();
            let timing = TimingGraph::build(base, &synth, &map_lut_edges(base, &synth));
            assert_matches_oracle(base, &timing, &format!("{} seeded", k.name));

            // The next model: the circuit with a placement's buffers
            // applied (CFDFCs left out: only the buffers matter here).
            let penalties = compute_penalties(base, &timing);
            let problem = PlacementProblem {
                graph: base,
                timing: &timing,
                penalties: &penalties,
                cfdfcs: &[],
                target_levels: 6,
                fixed: k.back_edges(),
                alpha: 1.0,
                beta: 0.01,
                max_cut_rounds: 16,
                objective: Default::default(),
            };
            let placed = place_buffers(&problem).unwrap();
            let synth = synthesize(&apply_buffers(base, &placed.buffers), 6).unwrap();
            let timing = TimingGraph::build(base, &synth, &map_lut_edges(base, &synth));
            assert_matches_oracle(base, &timing, &format!("{} placed", k.name));
        }
    }

    /// The scenario of Figure 2.d on the unambiguous chain
    /// `add0 → shl → add2`: the shifter is pure wiring, so it synthesizes
    /// into the downstream adder's LUTs; its outgoing channel (the paper's
    /// channel *b*) must get penalty 1 while the neighbours (channels *a*
    /// and *c*) stay at 0.
    #[test]
    fn figure2_penalties() {
        let mut g = dataflow::Graph::new("fig2chain");
        let bb = g.add_basic_block("bb0");
        let a = g
            .add_unit(UnitKind::Argument { index: 0 }, "a", bb, 16)
            .unwrap();
        let b = g
            .add_unit(UnitKind::Argument { index: 1 }, "b", bb, 16)
            .unwrap();
        let c = g
            .add_unit(UnitKind::Argument { index: 2 }, "c", bb, 16)
            .unwrap();
        let add0 = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add0", bb, 16)
            .unwrap();
        let s = g
            .add_unit(UnitKind::Operator(OpKind::ShlConst(1)), "shl", bb, 16)
            .unwrap();
        let add2 = g
            .add_unit(UnitKind::Operator(OpKind::Add), "add2", bb, 16)
            .unwrap();
        let x = g.add_unit(UnitKind::Exit, "exit", bb, 16).unwrap();
        g.connect(PortRef::new(a, 0), PortRef::new(add0, 0))
            .unwrap();
        g.connect(PortRef::new(b, 0), PortRef::new(add0, 1))
            .unwrap();
        let ch_a = g
            .connect(PortRef::new(add0, 0), PortRef::new(s, 0))
            .unwrap();
        let ch_b = g
            .connect(PortRef::new(s, 0), PortRef::new(add2, 0))
            .unwrap();
        g.connect(PortRef::new(c, 0), PortRef::new(add2, 1))
            .unwrap();
        let ch_c = g
            .connect(PortRef::new(add2, 0), PortRef::new(x, 0))
            .unwrap();
        g.validate().unwrap();

        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);

        // The shifter is pure wiring: all of its "logic" is shared with
        // the adder, so the shl→add2 channel carries the maximal penalty.
        assert!(
            penalties[&ch_b] > 0.99,
            "shl→add2 penalty {} should be 1",
            penalties[&ch_b]
        );
        // The upstream adder keeps real LUTs of its own.
        assert!(
            penalties[&ch_a] < 0.5,
            "add0→shl penalty {} should be low",
            penalties[&ch_a]
        );
        assert!(
            penalties[&ch_c] < 0.5,
            "add2→exit penalty {} should be low",
            penalties[&ch_c]
        );
    }

    #[test]
    fn penalties_are_normalized() {
        let k = hls::kernels::gsum(8);
        let g = k.seeded_graph();
        let synth = synthesize(&g, 6).unwrap();
        let map = map_lut_edges(&g, &synth);
        let timing = TimingGraph::build(&g, &synth, &map);
        let penalties = compute_penalties(&g, &timing);
        assert_eq!(penalties.len(), g.num_channels());
        for (&c, &p) in &penalties {
            assert!((0.0..=1.0).contains(&p), "penalty {p} for {c}");
        }
    }
}
