//! Link oracles built on the [`csp_sim::LinkOracle`] hook: recording,
//! replay and the critical-path greedy adversary.

use crate::schedule::{Decision, Fallback, Schedule};
use csp_sim::{DelayOracle, FaultPlan, LinkDecision, LinkOracle, MsgInfo};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Wraps any [`LinkOracle`] (every [`DelayOracle`] qualifies through the
/// blanket impl) and records every decision it makes — delays, drops
/// and the fault plan (crashes, rejoins, weight drift) — producing a
/// [`Schedule`] that replays the run exactly.
///
/// The recorded delay is the *effective* one — clamped into
/// `[1, w(e)]` exactly as the runtime clamps it — so a recording never
/// disagrees with the run it transcribed. The fault plan is kept as the
/// executors take it in ([`LinkOracle::fault_plan`]), its chains listed
/// by vertex and its revisions in plan order, so a recording is
/// byte-stable however the inner oracle ordered its chains.
#[derive(Clone, Debug)]
pub struct Recorder<O> {
    inner: O,
    decisions: Vec<Decision>,
    plan: FaultPlan,
    /// Message index the recording starts at — non-zero when transcribing
    /// a run resumed from a [`csp_sim::Checkpoint`], whose first decision
    /// carries the checkpoint's message count as its index.
    offset: u64,
}

impl<O: LinkOracle> Recorder<O> {
    /// Starts recording on top of `inner`.
    pub fn new(inner: O) -> Self {
        Self::with_offset(inner, 0)
    }

    /// Starts recording a run that resumes mid-schedule: the first
    /// decision observed is expected to carry index `start_index`.
    /// [`Recorder::into_decisions`] then yields only the suffix, to be
    /// spliced after the prefix the checkpoint already covers. (Resumed
    /// runs restore their crash assignment from the checkpoint and never
    /// re-query it, so an offset recording carries no crashes.)
    pub fn with_offset(inner: O, start_index: u64) -> Self {
        Recorder {
            inner,
            decisions: Vec::new(),
            plan: FaultPlan::default(),
            offset: start_index,
        }
    }

    /// Finishes the recording into a schedule with the given fallback.
    ///
    /// Only meaningful for recordings started at index 0 ([`Recorder::new`]);
    /// offset recordings are a suffix, not a standalone schedule.
    pub fn into_schedule(self, fallback: Fallback) -> Schedule {
        debug_assert_eq!(self.offset, 0, "offset recordings are not full schedules");
        Schedule {
            decisions: self.decisions,
            fallback,
            plan: self.plan,
        }
    }

    /// The raw recorded decisions, in dispatch order, starting at the
    /// recorder's offset.
    pub fn into_decisions(self) -> Vec<Decision> {
        self.decisions
    }
}

impl<O: LinkOracle> LinkOracle for Recorder<O> {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        debug_assert_eq!(msg.index, self.offset + self.decisions.len() as u64);
        let w = msg.weight.get();
        let (decision, delay, dropped) = match self.inner.decide(msg) {
            LinkDecision::Drop => (LinkDecision::Drop, w, true),
            LinkDecision::Deliver { delay } => {
                let d = delay.clamp(1, w);
                (LinkDecision::Deliver { delay: d }, d, false)
            }
        };
        self.decisions.push(Decision {
            index: msg.index,
            edge: msg.edge,
            dir: msg.dir,
            weight: w,
            delay,
            dropped,
        });
        decision
    }

    fn fault_plan(&mut self) -> FaultPlan {
        let plan = self.inner.fault_plan();
        self.plan = plan.clone();
        // An empty chain plans nothing and has no line to be written as.
        self.plan.churn.retain(|(_, chain)| !chain.is_empty());
        self.plan.churn.sort_by_key(|(node, _)| *node);
        plan
    }
}

/// Replays a [`Schedule`]: message `i` takes the recorded fate of
/// decision `i` — its delay, or a drop — as long as the run still
/// dispatches the same message (same edge and direction) at that index;
/// the fault plan is the schedule's own.
///
/// Past the recorded prefix — or at any mismatching index, which happens
/// when a *mutated* schedule steers the protocol down a different path —
/// the oracle applies the schedule's [`Fallback`] and counts the event in
/// [`ScheduleOracle::divergences`]; the two causes are told apart by
/// [`ScheduleOracle::past_horizon`] and [`ScheduleOracle::mismatched`].
/// The fallback never drops: an unrecorded message is delivered, so
/// truncating a schedule degrades toward a fault-free run instead of a
/// silently lossy one. A faithful replay of an unmodified recording
/// never diverges (asserted in the adversary test suite).
#[derive(Clone, Debug)]
pub struct ScheduleOracle<'s> {
    schedule: &'s Schedule,
    /// How many decisions fell through to the fallback policy
    /// (`past_horizon + mismatched`).
    pub divergences: u64,
    /// Fallback decisions caused by running past the recorded horizon:
    /// the run dispatched more messages than the schedule records.
    pub past_horizon: u64,
    /// Fallback decisions caused by an edge/direction mismatch at a
    /// recorded index: the run took a different path than the recording.
    pub mismatched: u64,
}

impl<'s> ScheduleOracle<'s> {
    /// Replays `schedule`.
    pub fn new(schedule: &'s Schedule) -> Self {
        ScheduleOracle {
            schedule,
            divergences: 0,
            past_horizon: 0,
            mismatched: 0,
        }
    }
}

impl LinkOracle for ScheduleOracle<'_> {
    fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
        match self.schedule.decisions.get(msg.index as usize) {
            Some(d) if d.index == msg.index && d.edge == msg.edge && d.dir == msg.dir => {
                return if d.dropped {
                    LinkDecision::Drop
                } else {
                    LinkDecision::Deliver { delay: d.delay }
                };
            }
            Some(_) => self.mismatched += 1,
            None => self.past_horizon += 1,
        }
        self.divergences += 1;
        LinkDecision::Deliver {
            delay: match self.schedule.fallback {
                Fallback::WorstCase => msg.weight.get(),
                Fallback::Rush => 1,
            },
        }
    }

    fn fault_plan(&mut self) -> FaultPlan {
        self.schedule.plan.clone()
    }
}

/// The critical-path greedy adversary: stretch the message that would
/// otherwise complete the earliest pending event to its full `w(e)`, and
/// rush everything else.
///
/// The oracle only sees dispatch-time information, so it tracks its own
/// model of the in-flight set: a min-heap of the arrival times it has
/// assigned. At each decision it first retires arrivals at or before the
/// current send time, then asks whether *this* message, delivered as
/// fast as possible (`sent + 1`), would become the next event. If so the
/// message is on the critical path and gets stretched to `w(e)`;
/// otherwise some other message completes first, so rushing this one
/// costs the adversary nothing and may force extra protocol phases.
///
/// Deterministic and stateless across runs — recording it twice yields
/// identical schedules.
#[derive(Clone, Debug, Default)]
pub struct CriticalPathOracle {
    pending: BinaryHeap<Reverse<u64>>,
}

impl CriticalPathOracle {
    /// A fresh adversary with an empty in-flight model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DelayOracle for CriticalPathOracle {
    fn delay(&mut self, msg: &MsgInfo) -> u64 {
        let now = msg.sent.get();
        while self.pending.peek().is_some_and(|&Reverse(t)| t <= now) {
            self.pending.pop();
        }
        let w = msg.weight.get();
        let rushed_arrival = now + 1;
        let on_critical_path = match self.pending.peek() {
            None => true,
            Some(&Reverse(t)) => rushed_arrival < t,
        };
        let d = if on_critical_path { w } else { 1 };
        self.pending.push(Reverse(now + d));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{EdgeId, NodeId, Weight};
    use csp_sim::SimTime;

    fn info(index: u64, w: u64, sent: u64) -> MsgInfo {
        MsgInfo {
            index,
            edge: EdgeId::new(index as usize),
            dir: 0,
            weight: Weight::new(w),
            from: NodeId::new(0),
            to: NodeId::new(1),
            sent: SimTime::new(sent),
        }
    }

    fn deliver(delay: u64) -> LinkDecision {
        LinkDecision::Deliver { delay }
    }

    #[test]
    fn recorder_transcribes_and_clamps() {
        struct Wild;
        impl DelayOracle for Wild {
            fn delay(&mut self, _msg: &MsgInfo) -> u64 {
                u64::MAX
            }
        }
        let mut rec = Recorder::new(Wild);
        assert_eq!(rec.decide(&info(0, 7, 0)), deliver(7));
        let s = rec.into_schedule(Fallback::Rush);
        assert_eq!(s.decisions.len(), 1);
        assert_eq!(s.decisions[0].delay, 7);
        assert!(!s.decisions[0].dropped);
    }

    #[test]
    fn recorder_transcribes_drops_and_crashes() {
        struct Hostile;
        impl LinkOracle for Hostile {
            fn decide(&mut self, msg: &MsgInfo) -> LinkDecision {
                if msg.index == 0 {
                    LinkDecision::Drop
                } else {
                    deliver(2)
                }
            }
            fn fault_plan(&mut self) -> FaultPlan {
                FaultPlan {
                    churn: vec![(NodeId::new(1), vec![SimTime::new(30)])],
                    drift: Vec::new(),
                }
            }
        }
        let mut rec = Recorder::new(Hostile);
        let plan = rec.fault_plan();
        assert_eq!(rec.decide(&info(0, 7, 0)), LinkDecision::Drop);
        assert_eq!(rec.decide(&info(1, 7, 0)), deliver(2));
        let s = rec.into_schedule(Fallback::WorstCase);
        assert_eq!(s.dropped_count(), 1);
        assert_eq!(s.plan, plan);
        // Replaying the recording reproduces both fates and the crash.
        let mut o = ScheduleOracle::new(&s);
        assert_eq!(o.decide(&info(0, 7, 0)), LinkDecision::Drop);
        assert_eq!(o.decide(&info(1, 7, 0)), deliver(2));
        assert_eq!(o.fault_plan(), plan);
        assert_eq!(o.divergences, 0);
    }

    /// One run under `stack`, recorded: the plan the stack hands over,
    /// the plan the run's meters saw, and the recording's text.
    fn record_under<O: LinkOracle>(what: &str, mut stack: O, want: &FaultPlan) -> Schedule {
        use csp_algo::flood::Flood;
        let mut plan = stack.fault_plan();
        plan.churn.sort();
        assert_eq!(&plan, want, "{what}: plan handed over");
        let g = csp_graph::generators::cycle(5, |_| 4);
        let mut rec = Recorder::new(stack);
        let run = csp_sim::Simulator::new(&g)
            .run_with_oracle(&mut rec, |v, _| Flood::new(v == NodeId::new(0)))
            .unwrap();
        assert_eq!(run.cost.crashed_nodes, 2, "{what}: crashed_nodes");
        assert_eq!(run.cost.recoveries, 1, "{what}: recoveries");
        assert_eq!(run.cost.weight_revisions, 1, "{what}: weight_revisions");
        let s = rec.into_schedule(Fallback::WorstCase);
        assert_eq!(Schedule::from_text(&s.to_text()).unwrap(), s, "{what}");
        s
    }

    /// A crash-stop, a crash–rejoin–recrash chain and a weight revision
    /// reach the run — and its recording — unchanged through every
    /// wrapper stack, however the stack splits and orders them.
    #[test]
    fn fault_plans_survive_every_wrapper_stack() {
        use csp_sim::{ChurnOracle, CrashOracle, DelayModel, DropOracle, ModelOracle};
        let t = SimTime::new;
        let crash = (NodeId::new(1), t(30));
        let chain = (NodeId::new(2), vec![t(5), t(9), t(20)]);
        let drift = (EdgeId::new(1), t(6), Weight::new(11));
        let want = FaultPlan {
            churn: vec![(crash.0, vec![crash.1]), chain.clone()],
            drift: vec![drift],
        };
        let flat = record_under(
            "Recorder<ChurnOracle<ModelOracle>>",
            ChurnOracle::new(
                ModelOracle::new(DelayModel::WorstCase, 0),
                // Listed against vertex order: the recording sorts.
                vec![chain.clone(), (crash.0, vec![crash.1])],
                vec![drift],
            ),
            &want,
        );
        let text = flat.to_text();
        assert!(
            text.starts_with(
                "csp-adversary-schedule v3\nfallback worst-case\n\
                 c 1 30\nc 2 5\nc 2 20\nr 2 9\nw 1 6 11\n# index"
            ),
            "{text}"
        );
        let never_drops = DropOracle::new(DelayModel::WorstCase, 0, 0.0, 1);
        let nested = record_under(
            "Recorder<CrashOracle<ChurnOracle<DropOracle>>>",
            CrashOracle::new(
                ChurnOracle::new(never_drops, vec![chain], vec![drift]),
                vec![crash],
            ),
            &want,
        );
        assert_eq!(nested.to_text(), text, "nested wrappers");
        let replayed = record_under(
            "Recorder<ScheduleOracle>",
            ScheduleOracle::new(&flat),
            &want,
        );
        assert_eq!(replayed.to_text(), text, "replay of the recording");
    }

    #[test]
    fn schedule_oracle_replays_then_falls_back() {
        let s = Schedule {
            decisions: vec![Decision {
                index: 0,
                edge: EdgeId::new(0),
                dir: 0,
                weight: 9,
                delay: 4,
                dropped: false,
            }],
            fallback: Fallback::WorstCase,
            ..Schedule::default()
        };
        let mut o = ScheduleOracle::new(&s);
        assert_eq!(o.decide(&info(0, 9, 0)), deliver(4)); // recorded
        assert_eq!(o.decide(&info(1, 9, 0)), deliver(9)); // past prefix -> worst case
        assert_eq!(o.divergences, 1);
        assert_eq!(o.past_horizon, 1);
        assert_eq!(o.mismatched, 0);
    }

    #[test]
    fn schedule_oracle_detects_edge_mismatch() {
        let s = Schedule {
            decisions: vec![Decision {
                index: 0,
                edge: EdgeId::new(5),
                dir: 0,
                weight: 9,
                delay: 4,
                dropped: false,
            }],
            fallback: Fallback::Rush,
            ..Schedule::default()
        };
        let mut o = ScheduleOracle::new(&s);
        // Same index but a different edge: the run diverged.
        assert_eq!(o.decide(&info(0, 9, 0)), deliver(1));
        assert_eq!(o.divergences, 1);
        assert_eq!(o.mismatched, 1);
        assert_eq!(o.past_horizon, 0);
    }

    #[test]
    fn critical_path_stretches_the_gating_message_and_rushes_shadowed_ones() {
        let mut o = CriticalPathOracle::new();
        // First message: nothing else pending -> it gates progress.
        assert_eq!(o.delay(&info(0, 10, 0)), 10);
        // Sent at t=5: rushed it would arrive at t=6, before the pending
        // t=10 event -> it gates progress -> stretched to its weight.
        assert_eq!(o.delay(&info(1, 8, 5)), 8);
        // Sent at t=9: rushed it arrives at t=10, no earlier than the
        // pending t=10 event -> shadowed -> rushed.
        assert_eq!(o.delay(&info(2, 4, 9)), 1);
        // At t=20 everything has arrived; the next message gates again.
        assert_eq!(o.delay(&info(3, 6, 20)), 6);
    }
}
