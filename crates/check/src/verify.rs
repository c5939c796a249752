//! The static graph verifier: topology, reducer-configuration, and keymap
//! checks over a built [`Graph`], before any task runs.
//!
//! Every check works through `ttg-core`'s type-erased `AnyNode` interface:
//! terminal→edge declarations recorded at `make_tt` time, declared
//! reducers, and sampled keymap probes (see
//! [`TtHandle::set_check_samples`]). Codes:
//!
//! | code   | severity | finding |
//! |--------|----------|---------|
//! | TTG001 | error    | input terminal with no producer and no declared seed |
//! | TTG002 | warning  | produced edge with no consumer terminal (sends dropped) |
//! | TTG003 | error    | reducer declared with stream size 0 (can never launch) |
//! | TTG003 | note     | unbounded reducer (must be closed per key) |
//! | TTG004 | warning  | keymap returns a raw rank ≥ world size (runtime wraps) |
//! | TTG005 | error    | keymap is nondeterministic over sampled keys |
//! | TTG006 | warning  | template task unreachable from any declared seed |
//! | TTG007 | warning  | duplicate template task name |
//!
//! [`TtHandle::set_check_samples`]: ttg_core::TtHandle::set_check_samples

use std::collections::{HashMap, HashSet};

use ttg_core::Graph;

use crate::report::{Diagnostic, Report};

/// Verify `graph` for an execution over `n_ranks` ranks.
///
/// `seeds` declares which `(node_id, terminal)` pairs receive messages from
/// outside the graph (via [`InRef::seed`](ttg_core::prelude::InRef::seed)); they
/// satisfy TTG001 for their terminal and act as roots for the TTG006
/// reachability sweep. An empty `seeds` slice disables TTG006 (no root
/// information) but leaves every other check active.
pub fn verify(graph: &Graph, n_ranks: usize, seeds: &[(u32, usize)]) -> Report {
    let nodes = graph.nodes();

    // Index the topology: which nodes produce / consume each edge id.
    let mut producers: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut consumers: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut edge_ids: HashSet<u64> = HashSet::new();
    for n in nodes {
        for d in n.output_edges() {
            producers.entry(d.edge_id).or_default().push(n.node_id());
            edge_ids.insert(d.edge_id);
        }
        for d in n.input_edges() {
            consumers.entry(d.edge_id).or_default().push(n.node_id());
            edge_ids.insert(d.edge_id);
        }
    }
    let seed_set: HashSet<(u32, usize)> = seeds.iter().copied().collect();

    let mut report = Report::new(nodes.len(), edge_ids.len());

    // TTG007: duplicate template task names make every other diagnostic
    // ambiguous, so flag them first.
    let mut seen_names: HashMap<&'static str, u32> = HashMap::new();
    for n in nodes {
        if let Some(first) = seen_names.insert(n.node_name(), n.node_id()) {
            report.push(
                Diagnostic::warning(
                    "TTG007",
                    format!(
                        "duplicate template task name '{}' (node ids {} and {})",
                        n.node_name(),
                        first,
                        n.node_id()
                    ),
                )
                .on_node(n.node_name())
                .with_help("give each make_tt call a unique name; diagnostics key on it"),
            );
        }
    }

    for n in nodes {
        // TTG001: an input terminal whose edge nobody produces and that no
        // declared seed feeds can never receive a message — tasks of this
        // template can never assemble all inputs.
        for (t, d) in n.input_edges().iter().enumerate() {
            if !producers.contains_key(&d.edge_id) && !seed_set.contains(&(n.node_id(), t)) {
                report.push(
                    Diagnostic::error(
                        "TTG001",
                        format!(
                            "input terminal {t} of '{}' has no producer and no declared seed",
                            n.node_name()
                        ),
                    )
                    .on_node(n.node_name())
                    .on_terminal(t)
                    .on_edge(d.name.clone())
                    .with_help(format!(
                        "connect a producer to edge '{}' or seed it via in_ref::<{t}>()",
                        d.name
                    )),
                );
            }
        }

        // TTG002: a produced edge with no consumer terminal means every
        // send on it is dropped (counted in the core/dropped_sends metric,
        // TTG031 at runtime).
        for (t, d) in n.output_edges().iter().enumerate() {
            if !consumers.contains_key(&d.edge_id) {
                report.push(
                    Diagnostic::warning(
                        "TTG002",
                        format!(
                            "output terminal {t} of '{}' feeds edge '{}' which has no \
                             consumer; sends will be dropped",
                            n.node_name(),
                            d.name
                        ),
                    )
                    .on_node(n.node_name())
                    .on_terminal(t)
                    .on_edge(d.name.clone())
                    .with_help("connect the edge to an input terminal or remove the output"),
                );
            }
        }

        // TTG003: reducer configuration.
        for (t, rd) in n.reducer_decls().iter().enumerate() {
            let Some(rd) = rd else { continue };
            match rd.default_size {
                Some(0) => report.push(
                    Diagnostic::error(
                        "TTG003",
                        format!(
                            "streaming terminal {t} of '{}' declares stream size 0; \
                             no task can ever launch from an empty stream",
                            n.node_name()
                        ),
                    )
                    .on_node(n.node_name())
                    .on_terminal(t)
                    .with_help("declare a positive size, or None plus per-key set_size/finalize"),
                ),
                None => report.push(
                    Diagnostic::note(
                        "TTG003",
                        format!(
                            "streaming terminal {t} of '{}' is unbounded; every key's \
                             stream must be closed with set_size or finalize",
                            n.node_name()
                        ),
                    )
                    .on_node(n.node_name())
                    .on_terminal(t),
                ),
                Some(_) => {}
            }
        }

        // TTG004/TTG005: sampled keymap probing. Each sample key is
        // evaluated twice; disagreement is nondeterminism (an error — the
        // two sides of a send would disagree on the owning rank), and a raw
        // value ≥ n_ranks is a warning (the runtime wraps with `% n_ranks`,
        // which may not be the placement the keymap author intended).
        if let Some(probe) = n.probe_keymap(n_ranks) {
            for key in &probe.nondeterministic {
                report.push(
                    Diagnostic::error(
                        "TTG005",
                        format!(
                            "keymap of '{}' is nondeterministic: two evaluations for key \
                             {key} returned different ranks",
                            n.node_name()
                        ),
                    )
                    .on_node(n.node_name())
                    .for_key(key.clone())
                    .with_help("keymaps must be pure functions of the task ID"),
                );
            }
            for (key, val) in &probe.out_of_range {
                report.push(
                    Diagnostic::warning(
                        "TTG004",
                        format!(
                            "keymap of '{}' returns rank {val} for key {key}, but the \
                             world has {n_ranks} rank(s); the runtime wraps to {}",
                            n.node_name(),
                            val % n_ranks
                        ),
                    )
                    .on_node(n.node_name())
                    .for_key(key.clone())
                    .on_rank(*val)
                    .with_help(format!(
                        "reduce the keymap modulo the world size ({n_ranks})"
                    )),
                );
            }
        }
    }

    // TTG006: templates unreachable from any seed can never run. Breadth-
    // first over "node produces edge e, node' consumes e".
    if !seed_set.is_empty() {
        let mut reachable: HashSet<u32> = seed_set.iter().map(|(id, _)| *id).collect();
        let mut frontier: Vec<u32> = reachable.iter().copied().collect();
        while let Some(id) = frontier.pop() {
            let Some(node) = nodes.iter().find(|n| n.node_id() == id) else {
                continue;
            };
            for d in node.output_edges() {
                for &next in consumers.get(&d.edge_id).into_iter().flatten() {
                    if reachable.insert(next) {
                        frontier.push(next);
                    }
                }
            }
        }
        for n in nodes {
            if !reachable.contains(&n.node_id()) {
                report.push(
                    Diagnostic::warning(
                        "TTG006",
                        format!(
                            "template task '{}' is unreachable from any declared seed",
                            n.node_name()
                        ),
                    )
                    .on_node(n.node_name())
                    .with_help("seed one of its inputs or connect it to the seeded subgraph"),
                );
            }
        }
    }

    report
}
