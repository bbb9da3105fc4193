//! Fault-tolerant runners: the paper's protocols hosted on the
//! simulator's [`Reliable`] retransmission wrapper and driven by an
//! arbitrary [`LinkOracle`], so adversarial message drops (and vertex
//! crashes) can be injected at dispatch time.
//!
//! The paper's model assumes reliable links; these runners measure what
//! that assumption costs. [`Reliable`] buys delivery through per-channel
//! acks, timeouts and bounded retransmission, every retry metered as
//! weighted communication under
//! [`CostClass::Auxiliary`](csp_sim::CostClass) — so the gap between a
//! bare run and a wrapped run under the same oracle *is* the weighted
//! price of the reliability layer. Under a drop budget below the retry
//! bound, the wrapped protocols keep their exactness guarantees (the
//! SPT runner still certifies exact distances); against a crashed
//! vertex the wrapper gives up after `max_retries` and the outcome
//! reports what was still reached.

use crate::flood::Flood;
use crate::spt::recur::SptRecur;
use crate::util::tree_from_parents;
use csp_graph::{Cost, NodeId, RootedTree, WeightedGraph};
use csp_sim::{CostReport, FaultAware, LinkOracle, Reliable, Run, SimError, Simulator};

/// Channels the wrapper abandoned after exhausting retries, summed over
/// all vertices (each direction counts separately).
fn failed_channels<P: FaultAware>(g: &WeightedGraph, states: &[Reliable<P>]) -> usize {
    g.nodes()
        .map(|v| {
            g.neighbors(v)
                .filter(|&(u, _, _)| states[v.index()].channel_failed(u))
                .count()
        })
        .sum()
}

/// Outcome of a [`run_reliable_flood`] run.
#[derive(Debug)]
pub struct ReliableFloodOutcome {
    /// The flood tree, if the token reached every vertex (it always does
    /// when drops stay below the retry bound and nothing crashes).
    pub tree: Option<RootedTree>,
    /// Vertices the token reached.
    pub reached: usize,
    /// Channels abandoned after `max_retries` (non-zero only under
    /// unbounded loss or a crashed peer).
    pub failed_channels: usize,
    /// Metered costs: the flood under `Protocol`, acks and
    /// retransmissions under `Auxiliary`.
    pub cost: CostReport,
}

/// Runs `CON_flood` wrapped in [`Reliable`] under `oracle`.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `root` is out of range.
pub fn run_reliable_flood<O>(
    g: &WeightedGraph,
    root: NodeId,
    oracle: &mut O,
    max_retries: u32,
) -> Result<ReliableFloodOutcome, SimError>
where
    O: LinkOracle + ?Sized,
{
    g.check_node(root);
    let run: Run<Reliable<Flood>> = Simulator::new(g).run_with_oracle(oracle, |v, _| {
        Reliable::new(Flood::new(v == root), max_retries)
    })?;
    let parents: Vec<Option<NodeId>> = run.states.iter().map(|s| s.inner().parent()).collect();
    let reached = run.states.iter().filter(|s| s.inner().reached()).count();
    let tree = (reached == g.node_count()).then(|| tree_from_parents(g, root, &parents));
    Ok(ReliableFloodOutcome {
        tree,
        reached,
        failed_channels: failed_channels(g, &run.states),
        cost: run.cost,
    })
}

/// Outcome of a [`run_reliable_spt_recur`] run.
#[derive(Debug)]
pub struct ReliableSptRecurOutcome {
    /// The shortest-path tree, if the protocol finished and reached
    /// every vertex.
    pub tree: Option<RootedTree>,
    /// Per-vertex weighted distances from the source (`None` where the
    /// protocol never reached).
    pub dists: Vec<Option<Cost>>,
    /// Whether the source declared the computation finished.
    pub finished: bool,
    /// Channels abandoned after `max_retries`.
    pub failed_channels: usize,
    /// Metered costs: relaxations under `Protocol`; the protocol's own
    /// control traffic plus the wrapper's acks and retransmissions under
    /// `Auxiliary`.
    pub cost: CostReport,
}

/// Runs `SPT_recur` from `s` with strip depth `delta`, wrapped in
/// [`Reliable`] under `oracle`.
///
/// Delivery is what `SPT_recur`'s ack-counting termination logic
/// assumes, so under bounded loss the wrapped run keeps the exactness
/// guarantee of the fault-free protocol.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `s` is out of range or `delta == 0`.
pub fn run_reliable_spt_recur<O>(
    g: &WeightedGraph,
    s: NodeId,
    delta: u64,
    oracle: &mut O,
    max_retries: u32,
) -> Result<ReliableSptRecurOutcome, SimError>
where
    O: LinkOracle + ?Sized,
{
    g.check_node(s);
    let run: Run<Reliable<SptRecur>> = Simulator::new(g).run_with_oracle(oracle, |v, _| {
        Reliable::new(SptRecur::new(v, s, delta), max_retries)
    })?;
    let parents: Vec<Option<NodeId>> = run.states.iter().map(|st| st.inner().parent()).collect();
    let dists: Vec<Option<Cost>> = run.states.iter().map(|st| st.inner().dist()).collect();
    let finished = run.states[s.index()].inner().finished();
    let tree =
        (finished && dists.iter().all(Option::is_some)).then(|| tree_from_parents(g, s, &parents));
    Ok(ReliableSptRecurOutcome {
        tree,
        dists,
        finished,
        failed_channels: failed_channels(g, &run.states),
        cost: run.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_graph::{algo, generators};
    use csp_sim::{CostClass, DelayModel, DropOracle, ModelOracle};

    fn gnp() -> WeightedGraph {
        generators::connected_gnp(12, 0.3, generators::WeightDist::Uniform(1, 16), 42)
    }

    #[test]
    fn reliable_flood_spans_under_bounded_drops() {
        let g = gnp();
        let mut oracle = DropOracle::new(DelayModel::Uniform, 11, 0.35, 5);
        let out = run_reliable_flood(&g, NodeId::new(0), &mut oracle, 8).unwrap();
        assert_eq!(out.reached, g.node_count());
        assert_eq!(out.failed_channels, 0);
        assert!(out.tree.expect("all reached").is_spanning());
    }

    #[test]
    fn reliable_spt_recur_stays_exact_under_bounded_drops() {
        let g = gnp();
        let reference = algo::distances(&g, NodeId::new(0));
        let mut oracle = DropOracle::new(DelayModel::Uniform, 23, 0.3, 4);
        let out = run_reliable_spt_recur(&g, NodeId::new(0), 1 << 40, &mut oracle, 8).unwrap();
        assert!(out.finished);
        assert_eq!(out.failed_channels, 0);
        for v in g.nodes() {
            assert_eq!(out.dists[v.index()], Some(reference[v.index()]), "{v}");
        }
        assert!(out.tree.expect("finished").is_spanning());
    }

    #[test]
    fn lossless_wrapped_runs_cost_more_only_in_auxiliary_overhead() {
        // Without faults the wrapper never retransmits, so the protocol
        // meter matches the bare run exactly; acks land in Auxiliary.
        let g = gnp();
        let bare = crate::catalogue::Claim::Flood {
            root: NodeId::new(0),
        }
        .run(&g, ModelOracle::new(DelayModel::WorstCase, 0))
        .unwrap();
        let mut oracle = ModelOracle::new(DelayModel::WorstCase, 0);
        let wrapped = run_reliable_flood(&g, NodeId::new(0), &mut oracle, 4).unwrap();
        assert_eq!(
            wrapped.cost.comm_of(CostClass::Protocol),
            bare.cost.comm_of(CostClass::Protocol),
            "original traffic must meter identically"
        );
        assert!(
            wrapped.cost.comm_of(CostClass::Auxiliary) > bare.cost.comm_of(CostClass::Auxiliary)
        );
    }
}
