//! Graphviz export of the trace cache.
//!
//! Renders every linked trace as a chain of block nodes — entry branches
//! as dashed arrows, the trace's expected completion probability on the
//! chain head. Useful for eyeballing what the constructor stitched
//! together.

use std::collections::HashMap;
use std::fmt::Write as _;

use jvm_bytecode::BlockId;

use crate::cache::TraceCache;

/// Renders the cache's linked traces as Graphviz `dot`.
pub fn to_dot(cache: &TraceCache) -> String {
    let mut out = String::from(
        "digraph traces {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
    );
    // One shared node per (trace, position) so repeated blocks (unrolled
    // loops) stay visually distinct, plus one anchor per entry branch.
    let mut next_id = 0usize;
    let mut ids: HashMap<(u32, usize), usize> = HashMap::new();
    let mut entries: Vec<(BlockId, u32)> = Vec::new();
    let mut rendered: std::collections::HashSet<u32> = std::collections::HashSet::new();

    for (entry, trace) in cache.iter_links() {
        let t = trace.id().index() as u32;
        entries.push((entry.0, t));
        if !rendered.insert(t) {
            continue; // chain already rendered for another entry
        }
        for (pos, b) in trace.blocks().iter().enumerate() {
            let id = *ids.entry((t, pos)).or_insert_with(|| {
                let id = next_id;
                next_id += 1;
                let _ = writeln!(out, "  b{id} [label=\"{b}\"];");
                id
            });
            if pos > 0 {
                let prev = ids[&(t, pos - 1)];
                let _ = writeln!(out, "  b{prev} -> b{id};");
            } else {
                let _ = writeln!(
                    out,
                    "  t{t} [label=\"{} p={:.2}\", shape=plaintext];",
                    trace.id(),
                    trace.expected_completion()
                );
                let _ = writeln!(out, "  t{t} -> b{id} [style=dotted];");
            }
        }
    }
    for (i, (from, t)) in entries.iter().enumerate() {
        let _ = writeln!(out, "  e{i} [label=\"{from}\", shape=ellipse];");
        if let Some(&head) = ids.get(&(*t, 0)) {
            let _ = writeln!(out, "  e{i} -> b{head} [style=dashed, label=\"entry\"];");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jvm_bytecode::FuncId;

    fn blk(b: u32) -> BlockId {
        BlockId::new(FuncId(0), b)
    }

    #[test]
    fn renders_chains_and_entries() {
        let mut cache = TraceCache::new();
        cache.insert_and_link((blk(0), blk(1)), &[blk(1), blk(2), blk(1)], 0.98);
        cache.insert_and_link((blk(5), blk(6)), &[blk(6), blk(7)], 0.99);
        let out = to_dot(&cache);
        assert!(out.starts_with("digraph traces {"));
        assert!(out.contains("entry"));
        assert!(out.contains("p=0.98"));
        // The unrolled repeat of block 1 gets its own visual node.
        assert!(out.matches("label=\"fn#0:b1\"").count() >= 2);
        assert!(out.trim_end().ends_with('}'));
    }

    #[test]
    fn empty_cache_renders_empty_graph() {
        let out = to_dot(&TraceCache::new());
        assert!(out.contains("digraph traces"));
        assert!(!out.contains("->"));
    }
}
