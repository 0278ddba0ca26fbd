//! Dataflow path machinery: interface-level strongly connected components,
//! cycle collapse and topological ordering (paper Section V-A).
//!
//! > "To rule out infinite paths, \[Blazes\] reduces each cycle in the graph to
//! > a single node with a collapsed label by selecting the label of highest
//! > severity among the cycle members."
//!
//! Cycles are detected at *interface* granularity, not component
//! granularity: a cycle exists only if some component path links the
//! component's cyclic input back to its cyclic output. This matches the
//! paper's footnote 3 — `Cache` and `Report` form no cycle even though
//! streams run both ways between them, because `Cache` provides no internal
//! path from its response input (`r`) to its request output (`q`); `Cache`
//! alone *is* cyclic through its gossip self-edge.
//!
//! We build a bipartite graph of interface nodes (`In(component, iface)` and
//! `Out(component, iface)`), with an edge per component path (`In → Out`)
//! and per stream (`Out → In`), run Tarjan's algorithm, and collapse each
//! non-trivial SCC into one analysis node whose paths all carry the most
//! severe annotation found on the cycle, with an empty attribute lineage so
//! seals are conservatively dropped when chased through a cycle.

use crate::annotation::{ComponentAnnotation, Gate};
use crate::graph::{ComponentId, DataflowGraph, Endpoint};
use std::collections::BTreeMap;

/// A reference to a specific interface of a specific component.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterfaceRef {
    /// Owning component.
    pub component: ComponentId,
    /// Interface name on that component.
    pub iface: String,
}

impl std::fmt::Display for InterfaceRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}.{}", self.component.0, self.iface)
    }
}

/// A node of the interface graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IfaceNode {
    /// An input interface.
    In(InterfaceRef),
    /// An output interface.
    Out(InterfaceRef),
}

impl IfaceNode {
    /// The owning component.
    #[must_use]
    pub fn component(&self) -> ComponentId {
        match self {
            IfaceNode::In(r) | IfaceNode::Out(r) => r.component,
        }
    }
}

/// One strongly connected component of the interface graph.
#[derive(Debug, Clone)]
pub struct IfaceScc {
    /// Member interface nodes.
    pub nodes: Vec<IfaceNode>,
    /// Components touched by the SCC.
    pub components: Vec<ComponentId>,
    /// Non-trivial (a real cycle)?
    pub collapsed: bool,
    /// Display name: the component name, or `scc(...)` when collapsed.
    pub name: String,
    /// True if any touched component is replicated.
    pub rep: bool,
    /// For collapsed SCCs: the most severe annotation among the paths lying
    /// on the cycle. Paths into a collapsed SCC are analyzed with this
    /// annotation.
    pub collapsed_annotation: Option<ComponentAnnotation>,
}

/// The condensation of the interface graph, in topological order.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// SCCs indexed by position.
    pub sccs: Vec<IfaceScc>,
    /// SCC index per interface node.
    pub scc_of: BTreeMap<IfaceNode, usize>,
    /// SCC indices in topological order (producers before consumers).
    pub topo: Vec<usize>,
}

/// Build the interface-level condensation of `graph`.
#[must_use]
pub fn condense(graph: &DataflowGraph) -> Condensation {
    // Enumerate interface nodes.
    let mut nodes: Vec<IfaceNode> = Vec::new();
    let mut index_of: BTreeMap<IfaceNode, usize> = BTreeMap::new();
    for (ci, comp) in graph.components().iter().enumerate() {
        let cid = ComponentId(ci);
        for iface in comp.input_interfaces() {
            let n = IfaceNode::In(InterfaceRef {
                component: cid,
                iface: iface.to_string(),
            });
            index_of.entry(n.clone()).or_insert_with(|| {
                nodes.push(n);
                nodes.len() - 1
            });
        }
        for iface in comp.output_interfaces() {
            let n = IfaceNode::Out(InterfaceRef {
                component: cid,
                iface: iface.to_string(),
            });
            index_of.entry(n.clone()).or_insert_with(|| {
                nodes.push(n);
                nodes.len() - 1
            });
        }
    }

    // Adjacency: path edges In -> Out, stream edges Out -> In.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (ci, comp) in graph.components().iter().enumerate() {
        let cid = ComponentId(ci);
        for p in &comp.paths {
            let from = index_of[&IfaceNode::In(InterfaceRef {
                component: cid,
                iface: p.from.clone(),
            })];
            let to = index_of[&IfaceNode::Out(InterfaceRef {
                component: cid,
                iface: p.to.clone(),
            })];
            adj[from].push(to);
        }
    }
    for stream in graph.streams() {
        if let (Endpoint::Component(a, out), Endpoint::Component(b, inp)) =
            (&stream.from, &stream.to)
        {
            let from = index_of[&IfaceNode::Out(InterfaceRef {
                component: *a,
                iface: out.clone(),
            })];
            let to = index_of[&IfaceNode::In(InterfaceRef {
                component: *b,
                iface: inp.clone(),
            })];
            adj[from].push(to);
        }
    }

    let scc_groups = tarjan(&adj);

    // Assemble SCC descriptors.
    let mut sccs: Vec<IfaceScc> = Vec::with_capacity(scc_groups.len());
    let mut scc_of: BTreeMap<IfaceNode, usize> = BTreeMap::new();
    for group in &scc_groups {
        let idx = sccs.len();
        let members: Vec<IfaceNode> = group.iter().map(|&i| nodes[i].clone()).collect();
        for m in &members {
            scc_of.insert(m.clone(), idx);
        }
        // Non-trivial: more than one node, or a single node with a self-edge
        // (impossible here since the graph is bipartite In/Out).
        let collapsed = members.len() > 1;
        let mut comps: Vec<ComponentId> = members.iter().map(IfaceNode::component).collect();
        comps.sort_unstable();
        comps.dedup();
        let rep = comps.iter().any(|&c| graph.component(c).rep);
        let name = if collapsed {
            let mut names: Vec<&str> = comps
                .iter()
                .map(|&c| graph.component(c).name.as_str())
                .collect();
            names.sort_unstable();
            names.dedup();
            format!("scc({})", names.join(","))
        } else {
            graph.component(members[0].component()).name.clone()
        };
        let collapsed_annotation = if collapsed {
            Some(cycle_annotation(graph, &members))
        } else {
            None
        };
        sccs.push(IfaceScc {
            nodes: members,
            components: comps,
            collapsed,
            name,
            rep,
            collapsed_annotation,
        });
    }

    // Kahn topological sort over the condensation.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); sccs.len()];
    let mut indegree = vec![0usize; sccs.len()];
    for (i, targets) in adj.iter().enumerate() {
        let si = scc_of[&nodes[i]];
        for &t in targets {
            let st = scc_of[&nodes[t]];
            if si != st {
                out_edges[si].push(st);
                indegree[st] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..sccs.len()).filter(|&i| indegree[i] == 0).collect();
    let mut topo = Vec::with_capacity(sccs.len());
    while let Some(i) = queue.pop() {
        topo.push(i);
        for &j in &out_edges[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                queue.push(j);
            }
        }
    }
    debug_assert_eq!(topo.len(), sccs.len(), "condensation must be acyclic");

    Condensation { sccs, scc_of, topo }
}

/// The most severe annotation among the paths lying on the cycle (both
/// endpoints inside the SCC). Gates of equally-severe order-sensitive
/// annotations are intersected (conservative).
fn cycle_annotation(graph: &DataflowGraph, members: &[IfaceNode]) -> ComponentAnnotation {
    let mut best: Option<ComponentAnnotation> = None;
    let contains = |n: &IfaceNode| members.contains(n);
    for (ci, comp) in graph.components().iter().enumerate() {
        let cid = ComponentId(ci);
        for p in &comp.paths {
            let from = IfaceNode::In(InterfaceRef {
                component: cid,
                iface: p.from.clone(),
            });
            let to = IfaceNode::Out(InterfaceRef {
                component: cid,
                iface: p.to.clone(),
            });
            if !(contains(&from) && contains(&to)) {
                continue;
            }
            best = Some(match best.take() {
                None => p.annotation.clone(),
                Some(cur) => {
                    use std::cmp::Ordering;
                    match p.annotation.severity().cmp(&cur.severity()) {
                        Ordering::Greater => p.annotation.clone(),
                        Ordering::Less => cur,
                        Ordering::Equal => merge_equal_severity(cur, &p.annotation),
                    }
                }
            });
        }
    }
    // A non-trivial SCC always contains at least one path edge.
    best.expect("collapsed SCC must contain a component path")
}

fn merge_equal_severity(
    cur: ComponentAnnotation,
    other: &ComponentAnnotation,
) -> ComponentAnnotation {
    use ComponentAnnotation as CA;
    match (cur, other) {
        (CA::OR(a), CA::OR(b)) => CA::OR(intersect_gates(a, b)),
        (CA::OW(a), CA::OW(b)) => CA::OW(intersect_gates(a, b)),
        (c, _) => c,
    }
}

fn intersect_gates(a: Gate, b: &Gate) -> Gate {
    match (a, b) {
        (Gate::Wildcard, g) => g.clone(),
        (g, Gate::Wildcard) => g,
        (Gate::Keys(x), Gate::Keys(y)) => Gate::Keys(x.intersection(y)),
    }
}

/// Iterative Tarjan SCC over an adjacency list. Returns groups of vertex
/// indices in reverse topological order.
fn tarjan(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index: Vec<Option<usize>> = vec![None; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for start in 0..n {
        if index[start].is_some() {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
        index[start] = Some(next_index);
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child < adj[v].len() {
                let w = adj[v][*child];
                *child += 1;
                match index[w] {
                    None => {
                        index[w] = Some(next_index);
                        lowlink[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    }
                    Some(widx) => {
                        if on_stack[w] {
                            lowlink[v] = lowlink[v].min(widx);
                        }
                    }
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v].unwrap() {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::ComponentAnnotation as CA;

    /// Enumerate up to `limit` source→sink interface-SCC paths through the
    /// condensation.
    fn enumerate_paths(
        graph: &DataflowGraph,
        cond: &Condensation,
        limit: usize,
    ) -> Vec<Vec<usize>> {
        let mut starts: Vec<usize> = Vec::new();
        let mut ends: Vec<usize> = Vec::new();
        for stream in graph.streams() {
            if let (Endpoint::Source(_), Endpoint::Component(c, iface)) = (&stream.from, &stream.to)
            {
                let n = cond.scc_of[&IfaceNode::In(InterfaceRef {
                    component: *c,
                    iface: iface.clone(),
                })];
                if !starts.contains(&n) {
                    starts.push(n);
                }
            }
            if let (Endpoint::Component(c, iface), Endpoint::Sink(_)) = (&stream.from, &stream.to) {
                let n = cond.scc_of[&IfaceNode::Out(InterfaceRef {
                    component: *c,
                    iface: iface.clone(),
                })];
                if !ends.contains(&n) {
                    ends.push(n);
                }
            }
        }

        // SCC-level adjacency: path edges + stream edges.
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); cond.sccs.len()];
        let mut add_edge = |from: usize, to: usize| {
            if from != to && !out[from].contains(&to) {
                out[from].push(to);
            }
        };
        for (ci, comp) in graph.components().iter().enumerate() {
            let cid = ComponentId(ci);
            for p in &comp.paths {
                let a = cond.scc_of[&IfaceNode::In(InterfaceRef {
                    component: cid,
                    iface: p.from.clone(),
                })];
                let b = cond.scc_of[&IfaceNode::Out(InterfaceRef {
                    component: cid,
                    iface: p.to.clone(),
                })];
                add_edge(a, b);
            }
        }
        for stream in graph.streams() {
            if let (Endpoint::Component(a, o), Endpoint::Component(b, i)) =
                (&stream.from, &stream.to)
            {
                let na = cond.scc_of[&IfaceNode::Out(InterfaceRef {
                    component: *a,
                    iface: o.clone(),
                })];
                let nb = cond.scc_of[&IfaceNode::In(InterfaceRef {
                    component: *b,
                    iface: i.clone(),
                })];
                add_edge(na, nb);
            }
        }

        let mut results = Vec::new();
        for &s in &starts {
            let mut stack = vec![(s, vec![s])];
            while let Some((v, path)) = stack.pop() {
                if results.len() >= limit {
                    return results;
                }
                if ends.contains(&v) {
                    results.push(path.clone());
                }
                for &w in &out[v] {
                    if !path.contains(&w) {
                        let mut p = path.clone();
                        p.push(w);
                        stack.push((w, p));
                    }
                }
            }
        }
        results
    }

    fn linear_graph() -> DataflowGraph {
        let mut g = DataflowGraph::new("linear");
        let s = g.add_source("src", &["a"]);
        let x = g.add_component("X");
        g.add_path(x, "in", "out", CA::cr());
        let y = g.add_component("Y");
        g.add_path(y, "in", "out", CA::cw());
        let k = g.add_sink("sink");
        g.connect_source(s, x, "in");
        g.connect(x, "out", y, "in");
        g.connect_sink(y, "out", k);
        g
    }

    #[test]
    fn linear_graph_all_trivial() {
        let g = linear_graph();
        let cond = condense(&g);
        assert!(cond.sccs.iter().all(|s| !s.collapsed));
        // 2 components × (1 in + 1 out) = 4 interface nodes.
        assert_eq!(cond.sccs.len(), 4);
    }

    #[test]
    fn topo_order_respects_stream_edges() {
        let g = linear_graph();
        let cond = condense(&g);
        let x = g.component_by_name("X").unwrap();
        let y = g.component_by_name("Y").unwrap();
        let out_x = cond.scc_of[&IfaceNode::Out(InterfaceRef {
            component: x,
            iface: "out".into(),
        })];
        let in_y = cond.scc_of[&IfaceNode::In(InterfaceRef {
            component: y,
            iface: "in".into(),
        })];
        let px = cond.topo.iter().position(|&n| n == out_x).unwrap();
        let py = cond.topo.iter().position(|&n| n == in_y).unwrap();
        assert!(px < py, "X.out must precede Y.in");
    }

    #[test]
    fn two_component_cycle_collapses() {
        let mut g = DataflowGraph::new("cycle");
        let s = g.add_source("src", &["a"]);
        let x = g.add_component("X");
        g.add_path(x, "in", "out", CA::cr());
        let y = g.add_component("Y");
        g.add_path(y, "in", "out", CA::ow(["a"]));
        let k = g.add_sink("sink");
        g.connect_source(s, x, "in");
        g.connect(x, "out", y, "in");
        g.connect(y, "out", x, "in"); // back edge: X <-> Y through both paths
        g.connect_sink(y, "out", k);

        let cond = condense(&g);
        let collapsed: Vec<_> = cond.sccs.iter().filter(|s| s.collapsed).collect();
        assert_eq!(collapsed.len(), 1);
        let scc = collapsed[0];
        assert_eq!(scc.components.len(), 2);
        assert_eq!(scc.collapsed_annotation, Some(CA::ow(["a"])));
        assert!(scc.name.starts_with("scc("));
    }

    #[test]
    fn self_edge_collapses_interfaces() {
        // The paper's Cache: gossip self-edge response -> response.
        let mut g = DataflowGraph::new("cache");
        let s = g.add_source("resp", &["k"]);
        let cache = g.add_component("Cache");
        g.add_path(cache, "request", "response", CA::cr());
        g.add_path(cache, "response", "response", CA::cw());
        g.add_path(cache, "request", "request", CA::cr());
        let k = g.add_sink("analyst");
        g.connect_source(s, cache, "response");
        g.connect(cache, "response", cache, "response");
        g.connect_sink(cache, "response", k);

        let cond = condense(&g);
        let collapsed: Vec<_> = cond.sccs.iter().filter(|s| s.collapsed).collect();
        assert_eq!(collapsed.len(), 1);
        // The cycle holds In(response) and Out(response) only.
        assert_eq!(collapsed[0].nodes.len(), 2);
        assert_eq!(collapsed[0].collapsed_annotation, Some(CA::cw()));
        // The request interfaces stay trivial (footnote 3).
        let req_in = IfaceNode::In(InterfaceRef {
            component: g.component_by_name("Cache").unwrap(),
            iface: "request".into(),
        });
        assert!(!cond.sccs[cond.scc_of[&req_in]].collapsed);
    }

    #[test]
    fn cache_report_mutual_streams_no_cycle() {
        // Paper footnote 3: streams run Cache->Report and Report->Cache, but
        // Cache has no internal path response->request, so no cycle forms.
        let mut g = DataflowGraph::new("ad");
        let clicks = g.add_source("clicks", &["id"]);
        let requests = g.add_source("requests", &["id"]);
        let report = g.add_component("Report");
        g.add_path(report, "click", "response", CA::cw());
        g.add_path(report, "request", "response", CA::cr());
        let cache = g.add_component("Cache");
        g.add_path(cache, "request", "response", CA::cr());
        g.add_path(cache, "response", "response", CA::cw());
        g.add_path(cache, "request", "request", CA::cr());
        let k = g.add_sink("analyst");
        g.connect_source(clicks, report, "click");
        g.connect_source(requests, cache, "request");
        g.connect(cache, "request", report, "request");
        g.connect(report, "response", cache, "response");
        g.connect(cache, "response", cache, "response");
        g.connect_sink(cache, "response", k);

        let cond = condense(&g);
        let collapsed: Vec<_> = cond.sccs.iter().filter(|s| s.collapsed).collect();
        // Only Cache's response in/out cycle collapses; Report stays out.
        assert_eq!(collapsed.len(), 1);
        assert_eq!(collapsed[0].components.len(), 1);
        assert_eq!(
            collapsed[0].components[0],
            g.component_by_name("Cache").unwrap()
        );
    }

    #[test]
    fn gate_intersection_on_equal_severity() {
        let a = Gate::keys(["x", "y"]);
        let b = Gate::keys(["y", "z"]);
        assert_eq!(intersect_gates(a, &b), Gate::keys(["y"]));
        assert_eq!(intersect_gates(Gate::Wildcard, &b), b);
    }

    #[test]
    fn enumerate_paths_linear() {
        let g = linear_graph();
        let cond = condense(&g);
        let paths = enumerate_paths(&g, &cond, 16);
        assert_eq!(paths.len(), 1);
        // In(X) -> Out(X) -> In(Y) -> Out(Y): 4 SCC hops.
        assert_eq!(paths[0].len(), 4);
    }

    #[test]
    fn diamond_graph_two_paths() {
        let mut g = DataflowGraph::new("diamond");
        let s = g.add_source("src", &["a"]);
        let top = g.add_component("Top");
        g.add_path(top, "in", "l", CA::cr());
        g.add_path(top, "in", "r", CA::cr());
        let left = g.add_component("Left");
        g.add_path(left, "in", "out", CA::cr());
        let right = g.add_component("Right");
        g.add_path(right, "in", "out", CA::cr());
        let bottom = g.add_component("Bottom");
        g.add_path(bottom, "in", "out", CA::cw());
        let k = g.add_sink("sink");
        g.connect_source(s, top, "in");
        g.connect(top, "l", left, "in");
        g.connect(top, "r", right, "in");
        g.connect(left, "out", bottom, "in");
        g.connect(right, "out", bottom, "in");
        g.connect_sink(bottom, "out", k);

        let cond = condense(&g);
        let paths = enumerate_paths(&g, &cond, 16);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn tarjan_on_simple_cycle() {
        // 0 -> 1 -> 2 -> 0, plus 2 -> 3.
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let sccs = tarjan(&adj);
        assert_eq!(sccs.len(), 2);
        assert!(sccs.iter().any(|s| s == &vec![0, 1, 2]));
        assert!(sccs.iter().any(|s| s == &vec![3]));
    }
}
