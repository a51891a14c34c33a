//! Counterexample replay against the event-driven simulation kernel.
//!
//! A counterexample trace found by the static explorer is only trusted
//! after it reproduces dynamically: the trace is played into `splice-sim`
//! through a [`TracePlayer`] component and the compiled design executes as
//! a [`CompiledComponent`], recording the signal history the witness is
//! checked against.
//!
//! The replay is **two-state**: every X the ternary checker reasoned about
//! is concretized to a fill bit *at power-on*, and the run is an honest
//! execution of that one universe (`splice-dataflow`'s `lower` module).
//! Witnesses about unknowns run twice (fill 0 and fill 1) and confirm on
//! divergence. The design runs as the bit-packed straight-line step tape
//! ([`StepFn`]); `splice-dataflow`'s parity suite pins the tape
//! bit-identical to the two-state tree-walk oracle.
//!
//! Timing bridge: the player writes trace row `t` at sim tick `t`
//! (post-edge), the design component skips tick 0 and consumes row `t-1`
//! at tick `t` (pre-edge) — so design step `k` of the checker corresponds
//! to history entry `k`, and witness step indices line up directly.

use crate::compile::CompiledDesign;
use crate::{Counterexample, Witness};
use splice_dataflow::StepFn;
use splice_sim::{Component, SignalId, SimulatorBuilder, TickCtx};

/// Plays a fixed table of input rows onto a set of signals, one row per
/// simulation tick.
pub struct TracePlayer {
    rows: Vec<Vec<u64>>,
    ids: Vec<SignalId>,
    t: usize,
}

impl Component for TracePlayer {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if let Some(row) = self.rows.get(self.t) {
            for (slot, &id) in self.ids.iter().enumerate() {
                ctx.set(id, row[slot]);
            }
        }
        self.t += 1;
    }

    fn name(&self) -> &str {
        "trace-player"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Executes a [`CompiledDesign`]'s step tape inside the simulation
/// kernel, recording the full concrete value vector after every step.
pub struct CompiledComponent {
    tape: StepFn,
    input_ids: Vec<SignalId>,
    /// `(flattened signal, kernel signal)` for every top-level output.
    outputs: Vec<(usize, SignalId)>,
    started: bool,
    /// Tape word vector (signals + constants + temporaries).
    words: Vec<u64>,
    /// Scratch input row in `design.inputs` slot order.
    row: Vec<u64>,
    /// `history[k][sig]` = concrete value of flattened signal `sig` at
    /// design step `k`.
    pub history: Vec<Vec<u64>>,
}

impl Component for CompiledComponent {
    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if !self.started {
            // Tick 0 has no player row visible yet (rows land post-edge).
            self.started = true;
            return;
        }
        for (slot, &id) in self.input_ids.iter().enumerate() {
            self.row[slot] = ctx.get(id);
        }
        // Step across the edge, then settle the comb cone against the
        // post-edge register state (the observation the checker indexes).
        self.tape.step(&mut self.words, &self.row);
        self.tape.eval(&mut self.words, &self.row);
        let obs = self.tape.signals(&self.words).to_vec();
        for &(id, out) in &self.outputs {
            ctx.set(out, obs[id]);
        }
        self.history.push(obs);
    }

    fn name(&self) -> &str {
        "compiled-design"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Replay `trace` against `design` with power-on X bits filled as `fill`;
/// returns the per-step concrete signal history.
pub fn replay(design: &CompiledDesign, trace: &[Vec<u64>], fill: bool) -> Vec<Vec<u64>> {
    let mut b = SimulatorBuilder::new();
    let input_ids: Vec<SignalId> = design
        .inputs
        .iter()
        .map(|&id| b.sig(design.signals[id].name.clone(), design.signals[id].width.min(64)))
        .collect();
    let outputs: Vec<(usize, SignalId)> = design
        .outputs
        .iter()
        .map(|&id| (id, b.sig(design.signals[id].name.clone(), design.signals[id].width.min(64))))
        .collect();
    b.component(Box::new(TracePlayer { rows: trace.to_vec(), ids: input_ids.clone(), t: 0 }));
    let tape = StepFn::lower(design, fill);
    let num_inputs = design.inputs.len();
    let cidx = b.component(Box::new(CompiledComponent {
        words: tape.new_state(),
        tape,
        input_ids,
        outputs,
        started: false,
        row: vec![0; num_inputs],
        history: Vec::new(),
    }));
    let mut sim = b.build();
    // Ticks 0..=n: tick 0 is the player's first write, tick k consumes
    // row k-1, so n+1 ticks execute every row.
    sim.run(trace.len() as u64 + 1).expect("replay simulation failed");
    sim.component::<CompiledComponent>(cidx).expect("compiled component").history.clone()
}

/// Replay a counterexample and check that its witness reproduces in the
/// dynamic simulation. Returns true when the violation is confirmed.
pub fn confirm(design: &CompiledDesign, cex: &Counterexample) -> bool {
    let sig = |name: &str| design.signal_id(name);
    match &cex.witness {
        Witness::Stall { signal, from_step, bound } => {
            let h = replay(design, &cex.trace, false);
            let Some(id) = sig(signal) else { return false };
            let end = (*from_step + *bound as usize).min(h.len().saturating_sub(1));
            (*from_step..=end).all(|k| h.get(k).map(|row| row[id] == 0).unwrap_or(false))
        }
        Witness::UnsolicitedAck { signal, step } => {
            let h = replay(design, &cex.trace, false);
            sig(signal).and_then(|id| h.get(*step).map(|row| row[id] == 1)).unwrap_or(false)
        }
        Witness::MutexOverlap { a, b, step } => {
            let h = replay(design, &cex.trace, false);
            match (sig(a), sig(b), h.get(*step)) {
                (Some(a), Some(b), Some(row)) => row[a] == 1 && row[b] == 1,
                _ => false,
            }
        }
        Witness::UnknownValue { signal, step } => {
            // An X is real when the two fill universes can be told apart.
            let h0 = replay(design, &cex.trace, false);
            let h1 = replay(design, &cex.trace, true);
            let Some(id) = sig(signal) else { return false };
            let diverges_at =
                |k: usize| h0.get(k).zip(h1.get(k)).map(|(a, b)| a[id] != b[id]).unwrap_or(false);
            diverges_at(*step) || (0..h0.len()).any(diverges_at)
        }
        Witness::UnknownData { step } => {
            let h0 = replay(design, &cex.trace, false);
            let h1 = replay(design, &cex.trace, true);
            let (Some(dov), Some(data)) = (sig("DATA_OUT_VALID"), sig("DATA_OUT")) else {
                return false;
            };
            match (h0.get(*step), h1.get(*step)) {
                (Some(a), Some(b)) => a[dov] == 1 && a[data] != b[data],
                _ => false,
            }
        }
        Witness::RoundMismatch { first_end, second_end } => {
            let h = replay(design, &cex.trace, false);
            match (h.get(*first_end), h.get(*second_end)) {
                (Some(a), Some(b)) => design.registers.iter().any(|&id| a[id] != b[id]),
                _ => false,
            }
        }
    }
}
