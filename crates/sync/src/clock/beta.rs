//! Clock synchronizer β\* (Section 3.2).
//!
//! Preprocessing picks one global spanning tree and a leader (we use the
//! shortest-path tree of a given root, which minimizes depth). Per pulse:
//! completion reports *convergecast* from the leaves to the leader, which
//! then *broadcasts* permission for the next pulse. The pulse delay is a
//! full tree round-trip — `Θ(depth(T))`, which is `Ω(D̂)` on any tree —
//! independent of `W`, so β\* beats α\* when `W ≫ D̂` but loses to γ\*
//! when `d ≪ D̂`.

use csp_graph::{NodeId, RootedTree};
use csp_sim::{Context, CostClass, Process, SimTime};
use std::collections::BTreeMap;

/// β\* messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BetaMsg {
    /// Subtree finished pulse `p` (convergecast).
    Done(u64),
    /// Generate pulse `p` (broadcast).
    Next(u64),
}

/// Per-vertex state of synchronizer β\*.
#[derive(Clone, Debug)]
pub struct BetaStar {
    pulses: u64,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Done reports per pulse.
    done: BTreeMap<u64, usize>,
    times: Vec<SimTime>,
}

impl BetaStar {
    /// Creates the per-vertex state over the shared tree.
    pub fn new(v: NodeId, tree: &RootedTree, pulses: u64) -> Self {
        BetaStar {
            pulses,
            parent: tree.parent(v).map(|(p, _, _)| p),
            children: tree.children_lists()[v.index()]
                .iter()
                .map(|&(c, _)| c)
                .collect(),
            done: BTreeMap::new(),
            times: Vec::new(),
        }
    }

    /// Recorded pulse generation times.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    fn generate(&mut self, pulse: u64, ctx: &mut Context<'_, BetaMsg>) {
        self.times.push(ctx.time());
        if pulse + 1 >= self.pulses {
            return;
        }
        // Done with this pulse instantly (clock synchronization carries no
        // protocol work).
        self.maybe_report(pulse, ctx);
    }

    fn maybe_report(&mut self, pulse: u64, ctx: &mut Context<'_, BetaMsg>) {
        let have = self.done.get(&pulse).copied().unwrap_or(0);
        if have == self.children.len() && (self.times.len() as u64) > pulse {
            match self.parent {
                Some(p) => {
                    ctx.send_class(p, BetaMsg::Done(pulse), CostClass::Synchronizer);
                }
                None => {
                    // Leader: everyone finished; broadcast the next pulse.
                    self.done.remove(&pulse);
                    self.broadcast_next(pulse + 1, ctx);
                }
            }
        }
    }

    fn broadcast_next(&mut self, pulse: u64, ctx: &mut Context<'_, BetaMsg>) {
        for c in self.children.clone() {
            ctx.send_class(c, BetaMsg::Next(pulse), CostClass::Synchronizer);
        }
        self.generate(pulse, ctx);
    }
}

impl Process for BetaStar {
    type Msg = BetaMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, BetaMsg>) {
        if self.pulses > 0 {
            self.generate(0, ctx);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: BetaMsg, ctx: &mut Context<'_, BetaMsg>) {
        match msg {
            BetaMsg::Done(p) => {
                *self.done.entry(p).or_insert(0) += 1;
                self.maybe_report(p, ctx);
            }
            BetaMsg::Next(p) => {
                for c in self.children.clone() {
                    ctx.send_class(c, BetaMsg::Next(p), CostClass::Synchronizer);
                }
                self.generate(p, ctx);
            }
        }
    }
}
