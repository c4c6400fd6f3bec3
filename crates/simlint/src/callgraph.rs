//! The workspace-wide call graph.
//!
//! Nodes are the [`FnItem`]s the parser extracted; edges are resolved
//! call sites. Resolution is name-based and deliberately
//! over-approximate (DESIGN.md, "Interprocedural analysis"):
//!
//! * **path calls** (`Picos::max`, `timing::validate`) match any
//!   function whose qualified name ends with the written segments;
//! * **method calls** (`x.service(..)`) match every `impl`/`trait`
//!   method of that name in the workspace (no type inference), falling
//!   back to free functions of that name;
//! * **bare calls** (`helper()`) prefer same-file definitions, then
//!   same-crate, then workspace-wide.
//!
//! Unresolved names (std library, primitives) simply produce no edge.
//! When a workspace dependency map is supplied
//! ([`CallGraph::build_with_deps`]), candidates in crates the caller
//! cannot link against are discarded before tiering. Cycles are fine
//! — reachability is a BFS with a visited set.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::FnItem;
use sim_util::json::JsonObject;

/// The resolved graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All parsed functions, in file/source order.
    pub fns: Vec<FnItem>,
    /// `callees[i]` — sorted, deduplicated indices of functions that
    /// `fns[i]` may call.
    pub callees: Vec<Vec<usize>>,
}

/// The result of a reachability sweep: for every node, whether it is
/// reachable and (for diagnostics) the BFS tree that proves it.
#[derive(Debug)]
pub struct Reach {
    /// `true` when the node is reachable from any start node.
    pub visited: Vec<bool>,
    /// BFS parent of each visited node (`None` for start nodes).
    pub parent: Vec<Option<usize>>,
    /// The start node each visited node was first reached from.
    pub origin: Vec<Option<usize>>,
}

/// The request-stream trait. Every phase pulls its beats through the
/// `Iterator::next` of a stream implementing it, so `next` — otherwise
/// ubiquitous — resolves in a function that holds a stream: one whose
/// signature names the trait, or a method of the trait or of a type
/// implementing it. There a `.next()` resolves to the workspace's
/// `Iterator::next` impls, tiered like any method call.
pub(crate) const SOURCE_TRAIT: &str = "RequestSource";

/// Method names that collide with std prelude / primitive methods.
/// Name-based resolution would wire every `.max()` on a float to
/// `Picos::max`, dragging unrelated callers into clock-construction
/// reachability — calls to these names produce no edge. Workspace
/// types reached through such a method must be covered by a direct
/// call elsewhere (they all are: the combinators are thin wrappers),
/// except a stream's `next`, which [`SOURCE_TRAIT`] resolves.
const UBIQUITOUS_METHODS: &[&str] = &[
    "abs", "clamp", "clone", "cmp", "collect", "default", "eq", "from", "into", "is_empty", "len",
    "max", "min", "ne", "next", "product", "sum",
];

fn crate_of(file: &str) -> &str {
    let mut segs = file.split('/');
    match (segs.next(), segs.next()) {
        (Some("crates"), Some(c)) => c,
        _ => "",
    }
}

impl CallGraph {
    /// Builds the graph from every parsed function in the workspace,
    /// with no linkage information: every name-match is a candidate.
    pub fn build(fns: Vec<FnItem>) -> CallGraph {
        CallGraph::build_with_deps(fns, None)
    }

    /// Builds the graph, additionally refusing any edge into a crate
    /// the caller's crate does not (transitively) depend on per
    /// `deps` — see [`crate::walk::workspace_deps`]. Name-based
    /// resolution is blind to `use` statements, so without this a
    /// `.collect()` in a simulator crate could "resolve" to a free fn
    /// in `simlint` that the simulator cannot even link against.
    /// Crates absent from the map stay permissive.
    pub fn build_with_deps(
        fns: Vec<FnItem>,
        deps: Option<&BTreeMap<String, Vec<String>>>,
    ) -> CallGraph {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
        let linkable = |caller: &str, callee: usize| -> bool {
            let Some(deps) = deps else { return true };
            let to = crate_of(&fns[callee].file);
            if caller == to {
                return true;
            }
            match deps.get(caller) {
                Some(ds) => ds.iter().any(|d| d == to),
                None => true,
            }
        };
        // Types implementing the stream trait, and the trait itself.
        let sources: BTreeSet<&str> = fns
            .iter()
            .filter(|f| f.impl_trait.as_deref() == Some(SOURCE_TRAIT))
            .filter_map(|f| f.impl_type.as_deref())
            .chain([SOURCE_TRAIT])
            .collect();
        let mut callees: Vec<Vec<usize>> = Vec::with_capacity(fns.len());
        for f in &fns {
            let caller_crate = crate_of(&f.file);
            let holds_source =
                f.source_sig || f.impl_type.as_deref().is_some_and(|t| sources.contains(t));
            let mut out: Vec<usize> = Vec::new();
            for call in &f.calls {
                let Some(all_cands) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                // A stream's `next` is dispatched through the trait, so a
                // generic caller runs impls from crates downstream of it.
                let pulls = call.method && holds_source && call.name == "next";
                let cands: Vec<usize> = all_cands
                    .iter()
                    .copied()
                    .filter(|&c| pulls || linkable(caller_crate, c))
                    .collect();
                if cands.is_empty() {
                    continue;
                }
                if call.method {
                    if UBIQUITOUS_METHODS.contains(&call.name.as_str()) && !pulls {
                        continue;
                    }
                    // Prefer impl/trait methods, tiered like bare
                    // calls (same file, then same crate, then
                    // anywhere): a `.build()` in one crate must not
                    // wire up every `build` impl in the workspace.
                    // Free fns are the last resort.
                    let methods: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            fns[c].impl_type.is_some()
                                && (!pulls || fns[c].impl_trait.as_deref() == Some("Iterator"))
                        })
                        .collect();
                    if pulls && methods.is_empty() {
                        continue;
                    }
                    let same_file: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].file == f.file)
                        .collect();
                    let same_crate: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&c| crate_of(&fns[c].file) == crate_of(&f.file))
                        .collect();
                    out.extend(if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else if !methods.is_empty() {
                        methods
                    } else {
                        cands.clone()
                    });
                } else if !call.path.is_empty() {
                    // Qualified: the written segments must be a suffix
                    // of the definition's qualified path.
                    let want: Vec<&str> = call
                        .path
                        .iter()
                        .map(|s| s.as_str())
                        .chain([call.name.as_str()])
                        .collect();
                    out.extend(cands.iter().copied().filter(|&c| {
                        let segs: Vec<&str> = fns[c].qual.split("::").collect();
                        segs.len() >= want.len() && segs[segs.len() - want.len()..] == want[..]
                    }));
                } else {
                    // Bare: same file, then same crate, then anywhere.
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| fns[c].file == f.file)
                        .collect();
                    let tier = if !same_file.is_empty() {
                        same_file
                    } else {
                        let same_crate: Vec<usize> = cands
                            .iter()
                            .copied()
                            .filter(|&c| crate_of(&fns[c].file) == crate_of(&f.file))
                            .collect();
                        if !same_crate.is_empty() {
                            same_crate
                        } else {
                            cands.clone()
                        }
                    };
                    out.extend(tier);
                }
            }
            out.sort_unstable();
            out.dedup();
            callees.push(out);
        }
        CallGraph { fns, callees }
    }

    /// Indices of functions declaring entry scope `scope`.
    pub fn entries(&self, scope: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.entries.iter().any(|e| e == scope))
            .map(|(i, _)| i)
            .collect()
    }

    /// BFS over call edges from `starts`, never entering test code.
    pub fn reach(&self, starts: &[usize]) -> Reach {
        let n = self.fns.len();
        let mut r = Reach {
            visited: vec![false; n],
            parent: vec![None; n],
            origin: vec![None; n],
        };
        let mut queue: Vec<usize> = Vec::new();
        for &s in starts {
            if !r.visited[s] && !self.fns[s].in_test {
                r.visited[s] = true;
                r.origin[s] = Some(s);
                queue.push(s);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &c in &self.callees[u] {
                if !r.visited[c] && !self.fns[c].in_test {
                    r.visited[c] = true;
                    r.parent[c] = Some(u);
                    r.origin[c] = r.origin[u];
                    queue.push(c);
                }
            }
        }
        r
    }

    /// Reverse BFS: every node from which some node in `targets` is
    /// reachable (including the targets themselves). Test code is
    /// excluded.
    pub fn reaches_any(&self, targets: &[bool]) -> Vec<bool> {
        let n = self.fns.len();
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, cs) in self.callees.iter().enumerate() {
            for &c in cs {
                rev[c].push(u);
            }
        }
        let mut hit = vec![false; n];
        let mut queue: Vec<usize> = Vec::new();
        for i in 0..n {
            if targets[i] && !self.fns[i].in_test {
                hit[i] = true;
                queue.push(i);
            }
        }
        let mut head = 0usize;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            for &p in &rev[u] {
                if !hit[p] && !self.fns[p].in_test {
                    hit[p] = true;
                    queue.push(p);
                }
            }
        }
        hit
    }

    /// The BFS chain `entry → … → node` as qualified names, for
    /// diagnostic messages. Long chains elide their middle.
    pub fn chain(&self, r: &Reach, node: usize) -> String {
        let mut path: Vec<usize> = vec![node];
        let mut cur = node;
        while let Some(p) = r.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        let names: Vec<&str> = path.iter().map(|&i| self.fns[i].qual.as_str()).collect();
        if names.len() <= 5 {
            names.join(" → ")
        } else {
            format!(
                "{} → {} → … → {} → {}",
                names[0],
                names[1],
                names[names.len() - 2],
                names[names.len() - 1]
            )
        }
    }

    /// Serializes the graph as one JSON object per function (JSON
    /// lines): id, qualified name, file, line, entry scopes and callee
    /// ids. This is the `--emit callgraph` debug dump.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.fns.iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", i as u64);
            o.field_str("qual", &f.qual);
            o.field_str("file", &f.file);
            o.field_u64("line", u64::from(f.line));
            o.field_bool("test", f.in_test);
            o.field_raw(
                "entries",
                &sim_util::json::array(
                    f.entries
                        .iter()
                        .map(|e| format!("\"{}\"", sim_util::json::escape(e))),
                ),
            );
            o.field_raw(
                "callees",
                &sim_util::json::array(self.callees[i].iter().map(|c| c.to_string())),
            );
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::contexts;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let mut fns = Vec::new();
        for (path, src) in files {
            let l = lex(src).unwrap();
            let ctxs = contexts(&l.tokens, false);
            let (items, diags) = parse_file(path, &l.tokens, &ctxs, &l.comments);
            assert!(diags.is_empty(), "{diags:?}");
            fns.extend(items);
        }
        CallGraph::build(fns)
    }

    fn idx(g: &CallGraph, qual: &str) -> usize {
        g.fns.iter().position(|f| f.qual == qual).unwrap()
    }

    #[test]
    fn direct_bare_call_prefers_same_file() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper(); } fn helper() {}",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}"),
        ]);
        let top = idx(&g, "a::top");
        assert_eq!(g.callees[top], vec![idx(&g, "a::helper")]);
    }

    #[test]
    fn bare_call_falls_back_to_other_crates() {
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn top() { helper(); }"),
            ("crates/b/src/lib.rs", "pub fn helper() {}"),
        ]);
        assert_eq!(g.callees[idx(&g, "a::top")], vec![idx(&g, "b::helper")]);
    }

    #[test]
    fn qualified_call_matches_path_suffix() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { timing::validate(); other::validate2(); }",
            ),
            ("crates/b/src/timing.rs", "pub fn validate() {}"),
            ("crates/b/src/elsewhere.rs", "pub fn validate() {}"),
        ]);
        // Only the module whose path matches resolves.
        assert_eq!(
            g.callees[idx(&g, "a::top")],
            vec![idx(&g, "b::timing::validate")]
        );
    }

    #[test]
    fn method_call_prefers_near_impls_then_falls_back() {
        // A same-crate impl wins outright…
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top(m: M) { m.service(1); } impl M { fn service(&self, x: u64) {} }",
            ),
            ("crates/b/src/lib.rs", "impl N { fn service(&self) {} }"),
        ]);
        assert_eq!(g.callees[idx(&g, "a::top")], vec![idx(&g, "a::M::service")]);

        // …but with no local impl, every workspace impl of that name
        // is a candidate (no type inference).
        let g = graph(&[
            ("crates/a/src/lib.rs", "fn top(m: M) { m.service(1); }"),
            (
                "crates/b/src/lib.rs",
                "impl N { fn service(&self) {} } impl O { fn service(&self) {} }",
            ),
        ]);
        let top = idx(&g, "a::top");
        let mut want = vec![idx(&g, "b::N::service"), idx(&g, "b::O::service")];
        want.sort_unstable();
        assert_eq!(g.callees[top], want);
    }

    #[test]
    fn ubiquitous_method_names_produce_no_edges() {
        let g = graph(&[
            (
                "crates/a/src/lib.rs",
                "fn top(x: f64, y: f64) -> f64 { x.max(y) }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Picos { fn max(self, o: Picos) -> Picos { Picos(0) } }",
            ),
        ]);
        assert!(g.callees[idx(&g, "a::top")].is_empty());
    }

    #[test]
    fn dep_map_refuses_edges_into_unlinkable_crates() {
        let mut fns = Vec::new();
        for (path, src) in [
            ("crates/a/src/lib.rs", "fn top() { helper(); m.stage(); }"),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() {} impl S { fn stage(&self) {} }",
            ),
            (
                "crates/c/src/lib.rs",
                "pub fn helper() {} impl T { fn stage(&self) {} }",
            ),
        ] {
            let l = lex(src).unwrap();
            let ctxs = contexts(&l.tokens, false);
            let (items, diags) = parse_file(path, &l.tokens, &ctxs, &l.comments);
            assert!(diags.is_empty(), "{diags:?}");
            fns.extend(items);
        }
        let deps: std::collections::BTreeMap<String, Vec<String>> = [
            ("a".to_string(), vec!["b".to_string()]),
            ("b".to_string(), vec![]),
            ("c".to_string(), vec![]),
        ]
        .into_iter()
        .collect();
        let g = CallGraph::build_with_deps(fns, Some(&deps));
        let top = idx(&g, "a::top");
        // Crate `a` links only `b`: both the bare call and the method
        // call resolve there alone, never into `c`.
        let mut want = vec![idx(&g, "b::helper"), idx(&g, "b::S::stage")];
        want.sort_unstable();
        assert_eq!(g.callees[top], want);
    }

    #[test]
    fn trait_method_edges_via_impl() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "trait Source { fn next_run(&mut self) -> u64; }\n\
             impl Source for S { fn next_run(&mut self) -> u64 { self.inner[0] } }\n\
             fn drive(s: &mut S) { s.next_run(); }",
        )]);
        let drive = idx(&g, "a::drive");
        assert!(g.callees[drive].contains(&idx(&g, "a::S::next_run")));
    }

    #[test]
    fn transitive_reachability_and_cycles() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); } fn b() { c(); a(); } fn c() { b(); } fn island() {}",
        )]);
        let r = g.reach(&[idx(&g, "a::a")]);
        assert!(r.visited[idx(&g, "a::b")]);
        assert!(r.visited[idx(&g, "a::c")]);
        assert!(!r.visited[idx(&g, "a::island")]);
        // Chain reconstruction terminates despite the cycle.
        let chain = g.chain(&r, idx(&g, "a::c"));
        assert_eq!(chain, "a::a → a::b → a::c");
    }

    #[test]
    fn cross_module_resolution_within_file() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "mod inner { pub fn leaf() {} } fn top() { inner::leaf(); }",
        )]);
        assert_eq!(
            g.callees[idx(&g, "a::top")],
            vec![idx(&g, "a::inner::leaf")]
        );
    }

    #[test]
    fn reach_skips_test_code() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn top() { helper(); }\n#[cfg(test)] mod tests { pub fn helper() {} }\nfn helper() {}",
        )]);
        let r = g.reach(&[idx(&g, "a::top")]);
        assert!(r.visited[idx(&g, "a::helper")]);
        assert!(!r.visited[idx(&g, "a::tests::helper")]);
    }

    #[test]
    fn reverse_reachability() {
        let g = graph(&[(
            "crates/a/src/lib.rs",
            "fn a() { b(); } fn b() { sink(); } fn sink() {} fn other() {}",
        )]);
        let targets: Vec<bool> = g.fns.iter().map(|f| f.name == "sink").collect();
        let hit = g.reaches_any(&targets);
        assert!(hit[idx(&g, "a::a")]);
        assert!(hit[idx(&g, "a::b")]);
        assert!(hit[idx(&g, "a::sink")]);
        assert!(!hit[idx(&g, "a::other")]);
    }
}
