//! Lock-order analysis over the concurrency core's annotated lock sets
//! (diagnostics TTG050/TTG051).
//!
//! Each crate that owns mutexes publishes three tables in its `lockdoc`
//! module: the lock classes it defines, the `(outer, inner)` nestings its
//! code is permitted to perform, and its striped classes (many instances
//! of one class) with whether same-class double-holds are sanctioned by
//! ascending-index acquisition. This module aggregates those tables into
//! one directed graph and checks the two properties that make the
//! discipline deadlock-free:
//!
//! * **TTG050** — the permitted-nesting relation must be acyclic. A cycle
//!   `a → b → … → a` means two threads can acquire the same locks in
//!   opposite orders and deadlock.
//! * **TTG051** — a striped class may only nest *itself* (hold two shard
//!   instances at once) when the annotation declares an index-ordering
//!   discipline; an unordered self-nesting is a deadlock between two
//!   threads crossing shards in opposite directions.
//!
//! The production annotations describe a near-empty relation — the stack
//! deliberately runs a single-lock discipline — so the real value is the
//! gate: growing the relation requires an edge here, and the edge is
//! rejected if it closes a cycle.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::{Diagnostic, Report};

/// One crate's published lock annotations.
#[derive(Debug, Clone)]
pub(crate) struct LockSet {
    /// Crate the annotations come from (diagnostic location).
    pub(crate) crate_name: &'static str,
    /// Lock classes the crate defines.
    pub(crate) classes: &'static [&'static str],
    /// Permitted `(outer, inner)` nestings.
    pub(crate) order: &'static [(&'static str, &'static str)],
    /// `(class, index_ordered)` striped classes.
    pub(crate) striped: &'static [(&'static str, bool)],
}

/// The concurrency core's annotated lock sets, aggregated from the
/// `lockdoc` modules of the crates that own mutexes.
pub(crate) fn annotated() -> Vec<LockSet> {
    vec![
        LockSet {
            crate_name: "ttg-runtime",
            classes: ttg_runtime::lockdoc::LOCK_CLASSES,
            order: ttg_runtime::lockdoc::LOCK_ORDER,
            striped: ttg_runtime::lockdoc::STRIPED_LOCKS,
        },
        LockSet {
            crate_name: "ttg-comm",
            classes: ttg_comm::lockdoc::LOCK_CLASSES,
            order: ttg_comm::lockdoc::LOCK_ORDER,
            striped: ttg_comm::lockdoc::STRIPED_LOCKS,
        },
        LockSet {
            crate_name: "ttg-transport",
            classes: ttg_transport::lockdoc::LOCK_CLASSES,
            order: ttg_transport::lockdoc::LOCK_ORDER,
            striped: ttg_transport::lockdoc::STRIPED_LOCKS,
        },
        LockSet {
            crate_name: "ttg-core",
            classes: ttg_core::lockdoc::LOCK_CLASSES,
            order: ttg_core::lockdoc::LOCK_ORDER,
            striped: ttg_core::lockdoc::STRIPED_LOCKS,
        },
    ]
}

/// Analyze the aggregated lock sets; the report counts classes as "nodes"
/// and permitted nestings as "edges".
pub(crate) fn analyze(sets: &[LockSet]) -> Report {
    // Qualify names per crate so identically named classes in different
    // crates stay distinct; an annotation may reference another crate's
    // class by writing the qualified form itself.
    let qualify = |krate: &str, name: &str| -> String {
        if name.contains("::") {
            name.to_string()
        } else {
            format!("{krate}::{name}")
        }
    };

    let mut owner: BTreeMap<String, &'static str> = BTreeMap::new();
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut striped: BTreeMap<String, bool> = BTreeMap::new();
    let mut n_edges = 0usize;

    let mut report = Report::new(0, 0);

    for set in sets {
        for c in set.classes {
            owner.insert(qualify(set.crate_name, c), set.crate_name);
        }
        for (class, ordered) in set.striped {
            striped.insert(qualify(set.crate_name, class), *ordered);
        }
    }
    for set in sets {
        for (outer, inner) in set.order {
            let o = qualify(set.crate_name, outer);
            let i = qualify(set.crate_name, inner);
            for end in [&o, &i] {
                if !owner.contains_key(end) {
                    report.push(
                        Diagnostic::warning(
                            "TTG050",
                            format!("lock-order edge references undeclared lock class '{end}'"),
                        )
                        .on_node(set.crate_name)
                        .with_help(
                            "declare the class in its crate's lockdoc::LOCK_CLASSES so the \
                             analysis can see every vertex",
                        ),
                    );
                    owner.insert(end.clone(), set.crate_name);
                }
            }
            if edges.entry(o).or_default().insert(i) {
                n_edges += 1;
            }
        }
    }

    // Unordered striped self-nesting: a deadlock on its own, before any
    // cycle search.
    for (class, ordered) in &striped {
        let self_nests = edges.get(class).is_some_and(|s| s.contains(class));
        if self_nests && !*ordered {
            report.push(
                Diagnostic::error(
                    "TTG051",
                    format!(
                        "striped lock class '{class}' nests itself without an \
                         index-ordering discipline"
                    ),
                )
                .on_node(*owner.get(class).unwrap_or(&"?"))
                .with_help(
                    "two threads crossing shards in opposite orders deadlock; either \
                     acquire instances in ascending index order (and mark the class \
                     ordered) or restructure to release the first shard before taking \
                     the second",
                ),
            );
        }
    }

    // Cycle detection over the remaining relation (index-ordered self-loops
    // are sanctioned and excluded; unordered ones were already reported).
    // Path-stack DFS so the cycle itself can be reported, not just its
    // existence; the graphs are a few dozen vertices, recursion is fine.
    fn dfs(
        node: &str,
        edges: &BTreeMap<String, BTreeSet<String>>,
        done: &mut BTreeSet<String>,
        path: &mut Vec<String>,
        cycles: &mut Vec<Vec<String>>,
    ) {
        if done.contains(node) {
            return;
        }
        path.push(node.to_string());
        if let Some(succs) = edges.get(node) {
            for s in succs {
                if s == node {
                    continue; // sanctioned ordered self-loop
                }
                if let Some(from) = path.iter().position(|p| p == s) {
                    let mut cyc: Vec<String> = path[from..].to_vec();
                    cyc.push(s.clone());
                    cycles.push(cyc);
                } else {
                    dfs(s, edges, done, path, cycles);
                }
            }
        }
        path.pop();
        done.insert(node.to_string());
    }
    let mut done = BTreeSet::new();
    let mut path = Vec::new();
    let mut cycles = Vec::new();
    for start in owner.keys() {
        dfs(start, &edges, &mut done, &mut path, &mut cycles);
    }
    for cyc in cycles {
        report.push(
            Diagnostic::error(
                "TTG050",
                format!("permitted lock nestings form a cycle: {}", cyc.join(" -> ")),
            )
            .with_help(
                "two threads acquiring these locks in opposite orders deadlock; break \
                 the cycle by dropping one lock before taking the next and removing \
                 the corresponding lockdoc edge",
            ),
        );
    }

    report.nodes = owner.len();
    report.edges = n_edges;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMPTY: &[(&str, bool)] = &[];

    #[test]
    fn production_annotations_are_clean() {
        let report = analyze(&annotated());
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.nodes >= 20, "expected the full class inventory");
    }

    #[test]
    fn cycle_fires_ttg050() {
        let sets = [LockSet {
            crate_name: "synthetic",
            classes: &["a", "b", "c"],
            order: &[("a", "b"), ("b", "c"), ("c", "a")],
            striped: EMPTY,
        }];
        let report = analyze(&sets);
        assert!(report.has_code("TTG050"), "{}", report.render());
        assert!(report.errors() > 0);
        let msg = &report
            .diagnostics
            .iter()
            .find(|d| d.code == "TTG050")
            .unwrap()
            .message;
        assert!(msg.contains("->"), "cycle path missing: {msg}");
    }

    #[test]
    fn two_edge_inversion_is_a_cycle() {
        let sets = [LockSet {
            crate_name: "synthetic",
            classes: &["a", "b"],
            order: &[("a", "b"), ("b", "a")],
            striped: EMPTY,
        }];
        assert!(analyze(&sets).has_code("TTG050"));
    }

    #[test]
    fn unordered_striped_self_nesting_fires_ttg051() {
        let sets = [LockSet {
            crate_name: "synthetic",
            classes: &["shards"],
            order: &[("shards", "shards")],
            striped: &[("shards", false)],
        }];
        let report = analyze(&sets);
        assert!(report.has_code("TTG051"), "{}", report.render());
    }

    #[test]
    fn ordered_striped_self_nesting_is_sanctioned() {
        let sets = [LockSet {
            crate_name: "synthetic",
            classes: &["shards"],
            order: &[("shards", "shards")],
            striped: &[("shards", true)],
        }];
        let report = analyze(&sets);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn undeclared_class_in_edge_warns() {
        let sets = [LockSet {
            crate_name: "synthetic",
            classes: &["a"],
            order: &[("a", "ghost")],
            striped: EMPTY,
        }];
        let report = analyze(&sets);
        assert_eq!(report.warnings(), 1, "{}", report.render());
        assert_eq!(report.errors(), 0);
    }
}
