//! Call-graph construction and queries.
//!
//! The paper's region-inference algorithm walks caller chains
//! (Algorithm 1, lines 8–15) and its formal system rejects recursive
//! functions; both services live here.

use crate::error::{IrError, Result};
use crate::ir::{FuncId, InstrRef, Program};

/// A call edge: `caller` invokes `callee` from the instruction `site`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallEdge {
    /// Calling function.
    pub caller: FuncId,
    /// Called function.
    pub callee: FuncId,
    /// The call instruction.
    pub site: InstrRef,
}

/// The program call graph.
#[derive(Debug, Clone)]
pub struct CallGraph {
    edges: Vec<CallEdge>,
    /// `callees[f]` = outgoing edges of `f`.
    callees: Vec<Vec<usize>>,
    /// `callers[f]` = incoming edges of `f`.
    callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of `p`.
    pub fn new(p: &Program) -> Self {
        let n = p.funcs.len();
        let mut edges = Vec::new();
        let mut callees = vec![Vec::new(); n];
        let mut callers = vec![Vec::new(); n];
        for f in &p.funcs {
            for (label, callee) in f.call_sites() {
                let idx = edges.len();
                edges.push(CallEdge {
                    caller: f.id,
                    callee,
                    site: InstrRef { func: f.id, label },
                });
                callees[f.id.0 as usize].push(idx);
                callers[callee.0 as usize].push(idx);
            }
        }
        CallGraph {
            edges,
            callees,
            callers,
        }
    }

    /// All edges leaving `f` (its call sites).
    pub fn callees(&self, f: FuncId) -> impl Iterator<Item = &CallEdge> {
        self.callees[f.0 as usize]
            .iter()
            .map(move |&i| &self.edges[i])
    }

    /// All edges entering `f` (who calls it, from where).
    pub fn callers(&self, f: FuncId) -> impl Iterator<Item = &CallEdge> {
        self.callers[f.0 as usize]
            .iter()
            .map(move |&i| &self.edges[i])
    }

    /// Functions reachable from `root` (including `root`), in BFS order.
    pub fn reachable_from(&self, root: FuncId) -> Vec<FuncId> {
        let mut seen = vec![false; self.callees.len()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::from([root]);
        seen[root.0 as usize] = true;
        while let Some(f) = queue.pop_front() {
            order.push(f);
            for e in self.callees(f) {
                if !seen[e.callee.0 as usize] {
                    seen[e.callee.0 as usize] = true;
                    queue.push_back(e.callee);
                }
            }
        }
        order
    }

    /// Returns the functions in reverse topological order (callees before
    /// callers), or an error naming a function on a call cycle.
    ///
    /// # Errors
    ///
    /// [`IrError::Validate`] if the graph has a cycle (direct or mutual
    /// recursion), which the paper's model disallows.
    pub fn topo_callees_first(&self, p: &Program) -> Result<Vec<FuncId>> {
        let n = self.callees.len();
        // Kahn's algorithm over "caller depends on callee" edges.
        let mut out_deg: Vec<usize> = (0..n)
            .map(|f| {
                // Count distinct callees (parallel edges collapse).
                let mut cs: Vec<FuncId> =
                    self.callees(FuncId(f as u32)).map(|e| e.callee).collect();
                cs.sort_unstable();
                cs.dedup();
                cs.retain(|c| c.0 as usize != f); // self loop handled as cycle below
                if self
                    .callees(FuncId(f as u32))
                    .any(|e| e.callee.0 as usize == f)
                {
                    // Force a self-recursive function to never drain.
                    return usize::MAX / 2;
                }
                cs.len()
            })
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<FuncId> = (0..n)
            .filter(|&f| out_deg[f] == 0)
            .map(|f| FuncId(f as u32))
            .collect();
        while let Some(f) = ready.pop() {
            order.push(f);
            let mut seen_callers = std::collections::HashSet::new();
            for e in self.callers(f) {
                if e.caller != f && seen_callers.insert(e.caller) {
                    let d = &mut out_deg[e.caller.0 as usize];
                    *d -= 1;
                    if *d == 0 {
                        ready.push(e.caller);
                    }
                }
            }
        }
        if order.len() != n {
            let stuck = (0..n)
                .find(|&f| !order.iter().any(|g| g.0 as usize == f))
                .expect("some function must be stuck");
            return Err(IrError::validate(format!(
                "recursive call cycle involving `{}` (recursion is not supported)",
                p.func(FuncId(stuck as u32)).name
            )));
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn edges_record_call_sites() {
        let p = compile("fn leaf() {} fn mid() { leaf(); leaf(); } fn main() { mid(); }").unwrap();
        let cg = CallGraph::new(&p);
        let mid = p.func_by_name("mid").unwrap();
        let leaf = p.func_by_name("leaf").unwrap();
        assert_eq!(cg.callees(mid).count(), 2, "two calls to leaf");
        assert_eq!(cg.callers(leaf).count(), 2);
        assert_eq!(cg.callers(p.main).count(), 0);
    }

    #[test]
    fn reachable_from_main() {
        let p = compile("fn unused() {} fn helper() {} fn main() { helper(); }").unwrap();
        let cg = CallGraph::new(&p);
        let reach = cg.reachable_from(p.main);
        assert!(reach.contains(&p.main));
        assert!(reach.contains(&p.func_by_name("helper").unwrap()));
        assert!(!reach.contains(&p.func_by_name("unused").unwrap()));
    }

    #[test]
    fn topo_orders_callees_first() {
        let p =
            compile("fn a() {} fn b() { a(); } fn c() { b(); a(); } fn main() { c(); }").unwrap();
        let cg = CallGraph::new(&p);
        let order = cg.topo_callees_first(&p).unwrap();
        let pos = |name: &str| {
            let id = p.func_by_name(name).unwrap();
            order.iter().position(|f| *f == id).unwrap()
        };
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
        assert!(pos("c") < pos("main"));
    }

    #[test]
    fn detects_mutual_recursion() {
        let p =
            compile("fn ping() { pong(); } fn pong() { ping(); } fn main() { ping(); }").unwrap();
        let cg = CallGraph::new(&p);
        assert!(cg.topo_callees_first(&p).is_err());
        let err = cg.topo_callees_first(&p).unwrap_err();
        assert!(err.to_string().contains("recursi"));
    }

    #[test]
    fn detects_self_recursion() {
        let p = compile("fn f() { f(); } fn main() { f(); }").unwrap();
        let cg = CallGraph::new(&p);
        assert!(cg.topo_callees_first(&p).is_err());
    }

    #[test]
    fn acyclic_graph_is_ok() {
        let p = compile("fn main() { }").unwrap();
        assert!(CallGraph::new(&p).topo_callees_first(&p).is_ok());
    }
}
