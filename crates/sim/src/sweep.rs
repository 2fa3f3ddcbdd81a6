//! The full-sweep interpreter: the executable specification of the
//! simulation semantics, kept as the oracle for the compiled engine.
//!
//! Every cycle re-queues every unit and re-derives every channel before
//! settling the combinational handshake network to its fixpoint
//! ([`crate::eval`]), then commits every channel and every unit at the
//! clock edge ([`crate::commit`]) in ascending id order. Nothing is
//! skipped, so the schedule is a direct reading of the hardware's
//! two-phase discipline; [`crate::compile`] is the fast path that must
//! match it bit for bit.

use crate::index::AdjIndex;
use crate::state::{ChanSig, ChanState, UnitState};
use crate::types::{RunStats, SimError};
use dataflow::{ChannelId, Graph, UnitId, UnitKind};

/// Initial sequential state for a unit of the given kind.
fn reset_state(kind: &UnitKind) -> UnitState {
    match kind {
        UnitKind::Entry | UnitKind::Argument { .. } => UnitState::Fired(false),
        UnitKind::Fork { outputs } => UnitState::ForkDone(vec![false; *outputs as usize]),
        UnitKind::ControlMerge { .. } => UnitState::CmergeState {
            dones: [false; 2],
            grant: None,
        },
        UnitKind::Operator(op) if op.latency() > 0 => {
            UnitState::Pipe(vec![(false, 0); op.latency() as usize])
        }
        UnitKind::Load { .. } | UnitKind::Store { .. } => UnitState::MemPort { v: false, data: 0 },
        _ => UnitState::None,
    }
}

/// Whether a sequential state has the shape the per-cycle evaluators
/// expect for `kind`. Checked once at construction (see
/// [`SimError::BadUnit`]) so [`crate::eval`]/[`crate::commit`] never have
/// to panic on a mismatched state mid-cycle.
fn state_consistent(kind: &UnitKind, st: &UnitState) -> bool {
    match (kind, st) {
        (UnitKind::Entry | UnitKind::Argument { .. }, UnitState::Fired(_)) => true,
        (UnitKind::Fork { outputs }, UnitState::ForkDone(d)) => d.len() == *outputs as usize,
        (UnitKind::ControlMerge { .. }, UnitState::CmergeState { .. }) => true,
        (UnitKind::Operator(op), UnitState::Pipe(stages)) => {
            op.latency() > 0 && stages.len() == op.latency() as usize
        }
        (UnitKind::Operator(op), UnitState::None) => op.latency() == 0,
        (UnitKind::Load { .. } | UnitKind::Store { .. }, UnitState::MemPort { .. }) => true,
        (
            UnitKind::LazyFork { .. }
            | UnitKind::Join { .. }
            | UnitKind::Branch
            | UnitKind::Merge { .. }
            | UnitKind::Mux { .. }
            | UnitKind::Constant { .. }
            | UnitKind::Source
            | UnitKind::Sink
            | UnitKind::Exit,
            UnitState::None,
        ) => true,
        _ => false,
    }
}

/// Interpreted circuit state plus the sweep scheduler's worklist.
#[derive(Debug)]
pub(crate) struct Sweep<'g> {
    g: &'g Graph,
    pub(crate) idx: AdjIndex,
    pub(crate) args: Vec<u64>,
    pub(crate) sig: Vec<ChanSig>,
    pub(crate) chan: Vec<ChanState>,
    pub(crate) unit: Vec<UnitState>,
    pub(crate) mems: Vec<Vec<u64>>,
    pub(crate) transfers: Vec<u64>,
    pub(crate) stalls: Vec<u64>,
    pub(crate) cycle: u64,
    pub(crate) exit_value: Option<u64>,
    pub(crate) exited: bool,
    /// Settle worklist: units awaiting (re-)evaluation.
    dirty_unit: Vec<bool>,
    unit_queue: Vec<UnitId>,
    /// Channels whose signals were touched by a unit this settle.
    pub(crate) touched: Vec<ChannelId>,
    /// Reusable valid/ready staging buffer for the evaluators.
    pub(crate) scratch: Vec<bool>,
}

impl<'g> Sweep<'g> {
    /// All state at reset.
    ///
    /// # Errors
    ///
    /// [`SimError::UnconnectedPort`] for a dangling port,
    /// [`SimError::BadUnit`] for a reset state inconsistent with its kind.
    pub(crate) fn new(g: &'g Graph) -> Result<Self, SimError> {
        let mut unit = Vec::with_capacity(g.num_units());
        for (uid, u) in g.units() {
            let st = reset_state(u.kind());
            if !state_consistent(u.kind(), &st) {
                return Err(SimError::BadUnit {
                    unit: uid,
                    reason: format!(
                        "sequential state {st:?} inconsistent with unit kind {}",
                        u.kind()
                    ),
                });
            }
            unit.push(st);
        }
        let mems = g
            .memories()
            .map(|(_, m)| {
                let mut v = m.init().to_vec();
                v.resize(m.size(), 0);
                v
            })
            .collect();
        Ok(Sweep {
            g,
            idx: AdjIndex::try_build(g)?,
            args: vec![0; 256],
            sig: vec![ChanSig::default(); g.num_channels()],
            chan: vec![ChanState::default(); g.num_channels()],
            unit,
            mems,
            transfers: vec![0; g.num_channels()],
            stalls: vec![0; g.num_channels()],
            cycle: 0,
            exit_value: None,
            exited: false,
            dirty_unit: vec![false; g.num_units()],
            unit_queue: Vec::new(),
            touched: Vec::new(),
            scratch: Vec::new(),
        })
    }

    fn mark_dirty(&mut self, u: UnitId) {
        if !self.dirty_unit[u.index()] {
            self.dirty_unit[u.index()] = true;
            self.unit_queue.push(u);
        }
    }

    /// See [`crate::Simulator::run`].
    pub(crate) fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        while !self.exited {
            if self.cycle >= max_cycles {
                return Err(SimError::Timeout { max_cycles });
            }
            self.step()?;
        }
        Ok(RunStats {
            cycles: self.cycle,
            exit_value: self.exit_value,
        })
    }

    /// See [`crate::Simulator::step`].
    pub(crate) fn step(&mut self) -> Result<(), SimError> {
        self.settle()?;
        let progressed = self.commit()?;
        self.cycle += 1;
        if !progressed && !self.exited {
            return Err(SimError::Deadlock { cycle: self.cycle });
        }
        Ok(())
    }

    /// Per-settle evaluation cap: a worklist that outlives this is cycling.
    fn fixpoint_limit(&self) -> usize {
        64 * (self.g.num_units() + self.g.num_channels()) + 64
    }

    /// Every register commit may change any unit's view, so each cycle
    /// starts with all units queued and all channels rederived; after
    /// that, only changes propagate.
    fn settle(&mut self) -> Result<(), SimError> {
        let g = self.g;
        for (uid, _) in g.units() {
            self.mark_dirty(uid);
        }
        for (cid, _) in g.channels() {
            if self.eval_channel(cid) {
                let (s, d) = self.idx.ends[cid.index()];
                self.mark_dirty(s);
                self.mark_dirty(d);
            }
        }
        let limit = self.fixpoint_limit();
        let mut evals = 0usize;
        while let Some(u) = self.unit_queue.pop() {
            self.dirty_unit[u.index()] = false;
            evals += 1;
            if evals > limit {
                return Err(SimError::NoFixpoint);
            }
            self.touched.clear();
            if !self.eval_unit(u) {
                continue;
            }
            let touched = std::mem::take(&mut self.touched);
            for &cid in &touched {
                // Endpoints are re-queued even without a derived-signal
                // change: the raw src-side signal may feed transfer logic
                // of the counterpart.
                self.eval_channel(cid);
                let (s, d) = self.idx.ends[cid.index()];
                self.mark_dirty(s);
                self.mark_dirty(d);
            }
            self.touched = touched;
        }
        Ok(())
    }

    /// Visits every channel and every unit, ascending; returns whether
    /// anything progressed.
    fn commit(&mut self) -> Result<bool, SimError> {
        let g = self.g;
        let mut progressed = false;
        for (cid, _) in g.channels() {
            progressed |= self.commit_channel(cid);
        }
        for (uid, _) in g.units() {
            progressed |= self.commit_unit(uid)?;
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::OpKind;

    #[test]
    fn reset_states_are_consistent_for_every_kind() {
        let kinds = [
            UnitKind::Entry,
            UnitKind::Argument { index: 3 },
            UnitKind::Exit,
            UnitKind::Sink,
            UnitKind::Source,
            UnitKind::Constant { value: 7 },
            UnitKind::Fork { outputs: 3 },
            UnitKind::LazyFork { outputs: 2 },
            UnitKind::Join { inputs: 2 },
            UnitKind::Branch,
            UnitKind::Merge { inputs: 2 },
            UnitKind::ControlMerge { inputs: 2 },
            UnitKind::Mux { inputs: 2 },
            UnitKind::Operator(OpKind::Add),
            UnitKind::Operator(OpKind::Mul),
        ];
        for k in kinds {
            assert!(
                state_consistent(&k, &reset_state(&k)),
                "reset state for {k} rejected"
            );
        }
    }

    #[test]
    fn zero_latency_operator_with_pipe_state_is_inconsistent() {
        // The exact corruption eval.rs/commit.rs used to panic on
        // ("nonempty pipe" / unreachable!): a combinational operator
        // carrying pipeline registers.
        let kind = UnitKind::Operator(OpKind::Add);
        assert!(!state_consistent(&kind, &UnitState::Pipe(vec![(false, 0)])));
        // ... and the dual: a pipelined operator with the wrong depth.
        let mul = UnitKind::Operator(OpKind::Mul);
        assert!(!state_consistent(&mul, &UnitState::Pipe(Vec::new())));
        assert!(!state_consistent(&mul, &UnitState::None));
        assert!(state_consistent(
            &mul,
            &UnitState::Pipe(vec![(false, 0); OpKind::Mul.latency() as usize])
        ));
    }

    #[test]
    fn mismatched_shapes_are_inconsistent() {
        assert!(!state_consistent(
            &UnitKind::Fork { outputs: 3 },
            &UnitState::ForkDone(vec![false; 2])
        ));
        assert!(!state_consistent(&UnitKind::Entry, &UnitState::None));
        assert!(!state_consistent(
            &UnitKind::Branch,
            &UnitState::Fired(false)
        ));
    }
}
