//! Clock synchronizer α\* (Section 3.1).
//!
//! Whenever a vertex generates pulse `p` it sends a pulse token to every
//! neighbor over the direct edge; having received pulse-`p` tokens from
//! all neighbors, it generates pulse `p + 1`. Simple and
//! message-minimal, but the pulse delay is governed by the *heaviest*
//! incident edge: `Θ(W)` in the worst case.

use csp_graph::{NodeId, WeightedGraph};
use csp_sim::{Context, CostClass, Process, SimTime};
use std::collections::BTreeMap;

/// Per-vertex state of synchronizer α\*.
#[derive(Clone, Debug)]
pub struct AlphaStar {
    pulses: u64,
    degree: usize,
    current: u64,
    /// Tokens received per future pulse index.
    received: BTreeMap<u64, usize>,
    /// Generation time of each pulse.
    times: Vec<SimTime>,
}

impl AlphaStar {
    /// Creates the per-vertex state, targeting `pulses` pulses.
    pub fn new(v: NodeId, g: &WeightedGraph, pulses: u64) -> Self {
        AlphaStar {
            pulses,
            degree: g.degree(v),
            current: 0,
            received: BTreeMap::new(),
            times: Vec::new(),
        }
    }

    /// Recorded pulse generation times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    fn generate(&mut self, pulse: u64, ctx: &mut Context<'_, u64>) {
        self.current = pulse;
        self.times.push(ctx.time());
        if pulse + 1 >= self.pulses {
            return; // generated the last pulse; stop announcing
        }
        let targets: Vec<NodeId> = ctx.neighbors().map(|(u, _, _)| u).collect();
        for u in targets {
            ctx.send_class(u, pulse, CostClass::Synchronizer);
        }
        self.try_advance(ctx);
    }

    fn try_advance(&mut self, ctx: &mut Context<'_, u64>) {
        while self.received.get(&self.current).copied().unwrap_or(0) == self.degree
            && self.current + 1 < self.pulses
        {
            self.received.remove(&self.current);
            let next = self.current + 1;
            self.generate(next, ctx);
        }
    }
}

impl Process for AlphaStar {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if self.pulses > 0 {
            self.generate(0, ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, pulse: u64, ctx: &mut Context<'_, u64>) {
        *self.received.entry(pulse).or_insert(0) += 1;
        self.try_advance(ctx);
    }
}
