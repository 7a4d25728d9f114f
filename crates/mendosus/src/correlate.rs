//! Correlated fault groups: declarative rules that expand a root fault
//! into its consequent faults.
//!
//! Single-fault replay (phase 1) treats every fault as independent;
//! real clusters see correlated failures — a dying switch takes its
//! attached links with it, a rack power event crashes every node on
//! the rack. A [`CorrelationRule`] describes one such dependency:
//! *when a root fault of this kind (optionally on this node) fires,
//! these consequences fire with it*, sharing the root's injection time
//! and duration. [`Campaign::expand`](crate::Campaign) applies a rule
//! set to every fault in a campaign.
//!
//! Expansion is **one level deep**: consequents do not re-trigger
//! rules. This keeps expansion total (no cycles) and the consequence
//! set auditable — a rule says exactly what it adds.

use simnet::fabric::NodeId;

use crate::campaign::Campaign;
use crate::fault::{FaultKind, FaultSpec};

/// What a triggered rule adds alongside the root fault. Every
/// consequent shares the root's injection time and duration (permanent
/// roots yield permanent consequents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consequence {
    /// The named nodes' links go down (fail-stop, sender-observable).
    LinksDown(Vec<NodeId>),
    /// The named nodes crash (fail-stop reboot).
    NodeCrashes(Vec<NodeId>),
    /// The named nodes' links degrade (gray: latency + silent loss).
    LinksDegraded(Vec<NodeId>),
}

/// One correlation rule: a trigger pattern plus the consequences it
/// adds. Purely declarative — rules carry no code, so a campaign's
/// expansion is a function of (faults, rules) alone and replays
/// deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationRule {
    /// Human-readable rule name (appears in reports and logs).
    pub name: String,
    /// The fault kind that triggers this rule.
    pub trigger: FaultKind,
    /// Restrict the trigger to roots on this node (`None` = any node;
    /// ignored for nodeless kinds like [`FaultKind::SwitchDown`]).
    pub node: Option<NodeId>,
    /// What to add when the rule fires.
    pub consequences: Vec<Consequence>,
}

impl CorrelationRule {
    /// Whether `root` triggers this rule.
    pub fn matches(&self, root: &FaultSpec) -> bool {
        root.kind == self.trigger
            && (!root.kind.targets_node() || self.node.is_none() || self.node == Some(root.node))
    }

    /// The consequent faults for `root`, or empty when the rule does
    /// not match. A consequent that would restate the root itself (the
    /// same kind on the root's own node) is skipped — a crashing node
    /// does not additionally "crash".
    pub fn expand(&self, root: &FaultSpec) -> Vec<FaultSpec> {
        if !self.matches(root) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for consequence in &self.consequences {
            let (kind, nodes) = match consequence {
                Consequence::LinksDown(nodes) => (FaultKind::LinkDown, nodes),
                Consequence::NodeCrashes(nodes) => (FaultKind::NodeCrash, nodes),
                Consequence::LinksDegraded(nodes) => (FaultKind::LinkDegraded, nodes),
            };
            for &node in nodes {
                if root.kind.targets_node() && node == root.node && kind == root.kind {
                    continue;
                }
                out.push(match root.duration {
                    Some(d) => FaultSpec::transient(kind, node, root.at, d),
                    None => FaultSpec::permanent(kind, node, root.at),
                });
            }
        }
        out
    }

    /// The classic correlated group: a failing switch takes the links
    /// of every attached node down with it (a powered-off switch leaves
    /// every NIC seeing no carrier).
    pub fn switch_takes_links(nodes: usize) -> Self {
        CorrelationRule {
            name: "switch failure takes attached links".to_string(),
            trigger: FaultKind::SwitchDown,
            node: None,
            consequences: vec![Consequence::LinksDown((0..nodes).map(NodeId).collect())],
        }
    }

    /// A rack power event: a crash of `head` crashes every other node
    /// in `rack` at the same instant.
    pub fn rack_power(head: NodeId, rack: &[NodeId]) -> Self {
        CorrelationRule {
            name: format!("rack power event at node {}", head.0),
            trigger: FaultKind::NodeCrash,
            node: Some(head),
            consequences: vec![Consequence::NodeCrashes(
                rack.iter().copied().filter(|n| *n != head).collect(),
            )],
        }
    }
}

impl Campaign {
    /// Expands every fault through `rules`, returning a new campaign
    /// holding the roots plus all consequents. Expansion is one level
    /// deep (consequents do not re-trigger rules) and idempotent in
    /// effect: a consequent identical to an existing or already-added
    /// spec is skipped, so the result always passes the duplicate check
    /// of [`Campaign::validate`] if the input did.
    pub fn expand(&self, rules: &[CorrelationRule]) -> Campaign {
        let mut out: Vec<FaultSpec> = self.faults().to_vec();
        for root in self.faults() {
            for rule in rules {
                for consequent in rule.expand(root) {
                    if !out.contains(&consequent) {
                        out.push(consequent);
                    }
                }
            }
        }
        Campaign::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimTime};

    #[test]
    fn switch_failure_takes_every_link() {
        let rule = CorrelationRule::switch_takes_links(4);
        let root = FaultSpec::transient(
            FaultKind::SwitchDown,
            NodeId(0),
            SimTime::from_secs(30),
            SimDuration::from_secs(60),
        );
        let consequents = rule.expand(&root);
        assert_eq!(consequents.len(), 4);
        for (i, c) in consequents.iter().enumerate() {
            assert_eq!(c.kind, FaultKind::LinkDown);
            assert_eq!(c.node, NodeId(i));
            assert_eq!(c.at, root.at);
            assert_eq!(c.duration, root.duration);
        }
    }

    #[test]
    fn rack_power_crashes_the_rest_of_the_rack() {
        let rack: Vec<NodeId> = (0..3).map(NodeId).collect();
        let rule = CorrelationRule::rack_power(NodeId(1), &rack);
        let root = FaultSpec::transient(
            FaultKind::NodeCrash,
            NodeId(1),
            SimTime::from_secs(10),
            SimDuration::from_secs(45),
        );
        let consequents = rule.expand(&root);
        let nodes: Vec<usize> = consequents.iter().map(|c| c.node.0).collect();
        assert_eq!(
            nodes,
            [0, 2],
            "the head's own crash is the root, not a consequent"
        );

        // A crash elsewhere does not trigger the rack rule.
        let other = FaultSpec::transient(
            FaultKind::NodeCrash,
            NodeId(2),
            SimTime::from_secs(10),
            SimDuration::from_secs(45),
        );
        assert!(rule.expand(&other).is_empty());
    }

    #[test]
    fn permanent_roots_yield_permanent_consequents() {
        let rule = CorrelationRule::switch_takes_links(2);
        let root = FaultSpec::permanent(FaultKind::SwitchDown, NodeId(0), SimTime::from_secs(5));
        for c in rule.expand(&root) {
            assert_eq!(c.duration, None);
        }
    }

    #[test]
    fn campaign_expansion_is_deduplicated_and_validates() {
        let rules = [CorrelationRule::switch_takes_links(4)];
        let explicit_link = FaultSpec::transient(
            FaultKind::LinkDown,
            NodeId(2),
            SimTime::from_secs(30),
            SimDuration::from_secs(60),
        );
        let campaign = Campaign::new([
            FaultSpec::transient(
                FaultKind::SwitchDown,
                NodeId(0),
                SimTime::from_secs(30),
                SimDuration::from_secs(60),
            ),
            // Already present: the expansion must not duplicate it.
            explicit_link.clone(),
        ]);
        let expanded = campaign.expand(&rules);
        assert_eq!(
            expanded.faults().len(),
            2 + 3,
            "4 links minus the explicit one"
        );
        assert_eq!(expanded.validate(), Ok(()));
        assert_eq!(
            expanded
                .faults()
                .iter()
                .filter(|f| **f == explicit_link)
                .count(),
            1
        );
    }

    #[test]
    fn gray_consequences_expand_too() {
        let rule = CorrelationRule {
            name: "overheating switch degrades its ports".to_string(),
            trigger: FaultKind::SwitchDown,
            node: None,
            consequences: vec![Consequence::LinksDegraded(vec![NodeId(0), NodeId(1)])],
        };
        let root = FaultSpec::transient(
            FaultKind::SwitchDown,
            NodeId(0),
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
        );
        let consequents = rule.expand(&root);
        assert_eq!(consequents.len(), 2);
        assert!(consequents
            .iter()
            .all(|c| c.kind == FaultKind::LinkDegraded));
    }
}
