//! The public simulator: one semantics, two engines.
//!
//! Both engines compute the same two-phase cycle — a combinational
//! handshake fixpoint followed by a clock-edge state commit — and are
//! bit-identical on [`RunStats`], per-channel transfer/stall counters,
//! memory images, and every error case including precedence:
//!
//! * [`SimEngine::Compiled`] (the default) lowers the graph once into flat
//!   bytecode ([`crate::compile`]) and executes it with SoA state and dense
//!   dirty bitmasks — no per-cycle `UnitKind` dispatch or port lookups. The
//!   program is `Arc`-shared read-only across slack-trial threads.
//! * [`SimEngine::FullSweep`] interprets the graph directly, visiting every
//!   unit and channel every cycle ([`crate::sweep`]). It is the
//!   specification the compiled engine is checked against.
//!
//! `tests/sim_equivalence.rs` pins the identity on randomized graphs and
//! all evaluation kernels.

use crate::compile::{CompiledSim, Program};
use crate::sweep::Sweep;
use crate::types::{RunStats, SimError};
use dataflow::{ChannelId, Graph, MemoryId};
use std::sync::Arc;

/// Scheduling strategy of a [`Simulator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SimEngine {
    /// One-time bytecode compile, tight decode-loop execution; the path
    /// every flow runs (profiling, slack trials, measurement).
    #[default]
    Compiled,
    /// Re-evaluates everything every cycle; the oracle engine.
    FullSweep,
}

/// A cycle-accurate simulator for one dataflow graph.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Simulator<'g> {
    core: Core<'g>,
}

#[derive(Debug)]
enum Core<'g> {
    Compiled(CompiledSim),
    Sweep(Sweep<'g>),
}

impl<'g> Simulator<'g> {
    /// Prepares a simulator on the default ([`SimEngine::Compiled`])
    /// engine with all state at reset.
    ///
    /// # Errors
    ///
    /// [`SimError::UnconnectedPort`] if the graph skipped validation and
    /// has a dangling port, [`SimError::BadUnit`] if a unit's reset state
    /// is inconsistent with its kind.
    pub fn new(g: &'g Graph) -> Result<Self, SimError> {
        Self::with_engine(g, SimEngine::default())
    }

    /// Prepares a simulator using the given scheduling engine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::new`].
    pub fn with_engine(g: &'g Graph, engine: SimEngine) -> Result<Self, SimError> {
        Ok(match engine {
            SimEngine::Compiled => {
                Self::from_compiled(g, CompiledSim::new(Arc::new(Program::compile(g)?)))
            }
            SimEngine::FullSweep => Simulator {
                core: Core::Sweep(Sweep::new(g)?),
            },
        })
    }

    /// Wraps an already-constructed VM for `g` (used both by
    /// [`Simulator::with_engine`] and to reuse an `Arc`-shared program
    /// compiled elsewhere, e.g. once per slack-matching placement).
    pub fn from_compiled(g: &'g Graph, vm: CompiledSim) -> Self {
        debug_assert_eq!(
            (vm.program().num_units(), vm.program().num_channels()),
            (g.num_units(), g.num_channels()),
            "program compiled from a different graph"
        );
        Simulator {
            core: Core::Compiled(vm),
        }
    }

    /// The scheduling engine this simulator runs under.
    pub fn engine(&self) -> SimEngine {
        match &self.core {
            Core::Compiled(_) => SimEngine::Compiled,
            Core::Sweep(_) => SimEngine::FullSweep,
        }
    }

    /// Sets the value of kernel argument `index` (before running).
    pub fn set_arg(&mut self, index: u8, value: u64) {
        match &mut self.core {
            Core::Compiled(vm) => vm.set_arg(index, value),
            Core::Sweep(s) => s.args[index as usize] = value,
        }
    }

    /// Reads back a memory after (or during) simulation.
    pub fn memory(&self, id: MemoryId) -> &[u64] {
        match &self.core {
            Core::Compiled(vm) => vm.memory(id),
            Core::Sweep(s) => &s.mems[id.index()],
        }
    }

    /// Number of tokens transferred over a channel so far (producer side).
    pub fn transfers(&self, ch: ChannelId) -> u64 {
        match &self.core {
            Core::Compiled(vm) => vm.transfers(ch),
            Core::Sweep(s) => s.transfers[ch.index()],
        }
    }

    /// Cycles in which a token was offered on `ch` but not accepted
    /// (`valid && !ready` at the producer side) — the backpressure-stall
    /// counter driving slack matching.
    pub fn stalls(&self, ch: ChannelId) -> u64 {
        match &self.core {
            Core::Compiled(vm) => vm.stalls(ch),
            Core::Sweep(s) => s.stalls[ch.index()],
        }
    }

    /// Elapsed cycles.
    pub fn cycle(&self) -> u64 {
        match &self.core {
            Core::Compiled(vm) => vm.cycle(),
            Core::Sweep(s) => s.cycle,
        }
    }

    /// Debug view of a channel's handshake state as of the last settle:
    /// `(valid_src, ready_src, valid_dst, ready_dst)`.
    pub fn channel_state(&self, ch: ChannelId) -> (bool, bool, bool, bool) {
        match &self.core {
            Core::Compiled(vm) => vm.channel_state(ch),
            Core::Sweep(s) => {
                let c = s.sig[ch.index()];
                (c.valid_src, c.ready_src, c.valid_dst, c.ready_dst)
            }
        }
    }

    /// The data payload currently presented by the producer of `ch`.
    pub fn channel_data(&self, ch: ChannelId) -> u64 {
        match &self.core {
            Core::Compiled(vm) => vm.channel_data(ch),
            Core::Sweep(s) => s.sig[ch.index()].data_src,
        }
    }

    /// `true` once the exit token has been consumed.
    pub fn exited(&self) -> bool {
        match &self.core {
            Core::Compiled(vm) => vm.exited(),
            Core::Sweep(s) => s.exited,
        }
    }

    /// Runs until the exit fires.
    ///
    /// The budget check precedes each step, so a circuit that completes in
    /// exactly `max_cycles` cycles completes — [`SimError::Timeout`] is
    /// returned only when the budget is exhausted *and* the exit token has
    /// still not been consumed (`tests/sim_equivalence.rs` pins this
    /// boundary on both engines).
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] after `max_cycles`, [`SimError::Deadlock`] if
    /// the circuit stops making progress, [`SimError::NoFixpoint`] for
    /// unbuffered cycles, or [`SimError::AddrOutOfBounds`].
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SimError> {
        match &mut self.core {
            Core::Compiled(vm) => vm.run(max_cycles),
            Core::Sweep(s) => s.run(max_cycles),
        }
    }

    /// Executes one clock cycle (combinational fixpoint + state commit).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], except timeouts.
    pub fn step(&mut self) -> Result<(), SimError> {
        match &mut self.core {
            Core::Compiled(vm) => vm.step(),
            Core::Sweep(s) => s.step(),
        }
    }
}
