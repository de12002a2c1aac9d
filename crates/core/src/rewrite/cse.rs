//! Common-subexpression elimination by hash-consing.
//!
//! GNMF-style update rules mention subexpressions like `WᵀW` several times;
//! computing each once saves whole jobs. The pass rebuilds the arena keying
//! each node on its variant, parameters, and (already-deduplicated)
//! children.

use std::collections::HashMap;

use cumulon_matrix::tile::ElemOp;

use crate::expr::{ExprId, ExprNode, Program, UnaryOp};

/// Structural key of a node (with f64 params keyed by bit pattern).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Input(String),
    Mul(ExprId, ExprId),
    Elem(ElemOp, ExprId, ExprId),
    Transpose(ExprId),
    Scale(ExprId, u64),
    Unary(UnaryOp, ExprId),
}

/// Deduplicates structurally identical subexpressions and drops dead nodes.
pub(crate) fn eliminate(program: &Program) -> Program {
    let mut out = Program::default();
    let mut interned: HashMap<Key, ExprId> = HashMap::new();
    let mut remap: HashMap<ExprId, ExprId> = HashMap::new();

    // Only live nodes, in arena (= topological) order.
    for id in program.live_nodes() {
        let node = &program.nodes[id];
        let key = match node {
            ExprNode::Input(n) => Key::Input(n.clone()),
            ExprNode::Mul(a, b) => Key::Mul(remap[a], remap[b]),
            ExprNode::Elem(op, a, b) => Key::Elem(*op, remap[a], remap[b]),
            ExprNode::Transpose(a) => Key::Transpose(remap[a]),
            ExprNode::Scale(a, f) => Key::Scale(remap[a], f.to_bits()),
            ExprNode::Unary(op, a) => Key::Unary(*op, remap[a]),
        };
        let new_id = *interned.entry(key).or_insert_with(|| {
            let rebuilt = match node {
                ExprNode::Input(n) => ExprNode::Input(n.clone()),
                ExprNode::Mul(a, b) => ExprNode::Mul(remap[a], remap[b]),
                ExprNode::Elem(op, a, b) => ExprNode::Elem(*op, remap[a], remap[b]),
                ExprNode::Transpose(a) => ExprNode::Transpose(remap[a]),
                ExprNode::Scale(a, f) => ExprNode::Scale(remap[a], *f),
                ExprNode::Unary(op, a) => ExprNode::Unary(*op, remap[a]),
            };
            out.nodes.push(rebuilt);
            out.nodes.len() - 1
        });
        remap.insert(id, new_id);
    }
    out.outputs = program
        .outputs
        .iter()
        .map(|(name, root)| (name.clone(), remap[root]))
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ProgramBuilder;

    #[test]
    fn duplicate_inputs_merge() {
        let mut b = ProgramBuilder::new();
        let a1 = b.input("A");
        let a2 = b.input("A");
        let s = b.add(a1, a2);
        b.output("S", s);
        let p = eliminate(&b.build());
        let inputs = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Input(_)))
            .count();
        assert_eq!(inputs, 1);
        // The add now references the same child twice.
        let (_, root) = &p.outputs[0];
        let children = p.node(*root).unwrap().children();
        assert_eq!(children[0], children[1]);
    }

    #[test]
    fn structurally_equal_subtrees_merge() {
        // (AᵀA) ⊙ (AᵀA): the product must be computed once.
        let mut b = ProgramBuilder::new();
        let a1 = b.input("A");
        let t1 = b.transpose(a1);
        let g1 = b.mul(t1, a1);
        let a2 = b.input("A");
        let t2 = b.transpose(a2);
        let g2 = b.mul(t2, a2);
        let prod = b.elem_mul(g1, g2);
        b.output("P", prod);
        let p = eliminate(&b.build());
        let muls = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Mul(_, _)))
            .count();
        assert_eq!(muls, 1);
        assert_eq!(p.nodes.len(), 4); // Input, Transpose, Mul, Elem
    }

    #[test]
    fn different_scales_stay_distinct() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let s2 = b.scale(a, 2.0);
        let s3 = b.scale(a, 3.0);
        let sum = b.add(s2, s3);
        b.output("S", sum);
        let p = eliminate(&b.build());
        let scales = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Scale(_, _)))
            .count();
        assert_eq!(scales, 2);
    }

    #[test]
    fn identical_scales_merge() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let s2 = b.scale(a, 2.0);
        let s2b = b.scale(a, 2.0);
        let sum = b.add(s2, s2b);
        b.output("S", sum);
        let p = eliminate(&b.build());
        let scales = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Scale(_, _)))
            .count();
        assert_eq!(scales, 1);
    }

    #[test]
    fn dead_nodes_dropped() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let _dead = b.scale(a, 9.0);
        let keep = b.scale(a, 2.0);
        b.output("K", keep);
        let p = eliminate(&b.build());
        assert_eq!(p.nodes.len(), 2);
    }

    #[test]
    fn outputs_remapped() {
        let mut b = ProgramBuilder::new();
        let a1 = b.input("A");
        let a2 = b.input("A");
        b.output("X", a1);
        b.output("Y", a2);
        let p = eliminate(&b.build());
        assert_eq!(p.outputs[0].1, p.outputs[1].1);
    }

    #[test]
    fn noncommutative_order_respected() {
        // Mul(A,B) != Mul(B,A): must not merge.
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let ab = b.mul(a, bb);
        let ba = b.mul(bb, a);
        let s = b.add(ab, ba);
        b.output("S", s);
        let p = eliminate(&b.build());
        let muls = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Mul(_, _)))
            .count();
        assert_eq!(muls, 2);
    }
}
