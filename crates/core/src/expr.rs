//! Matrix programs: expression arenas over named inputs, with shape and
//! density inference.
//!
//! A [`Program`] is an arena of [`ExprNode`]s plus a list of named outputs
//! to materialise. Programs are built through [`ProgramBuilder`], inferred
//! against a set of [`InputDesc`]s, rewritten by the [`crate::rewrite`]
//! passes, and lowered to physical job DAGs by [`mod@crate::lower`].

use std::collections::BTreeMap;

use cumulon_matrix::tile::ElemOp;
use cumulon_matrix::MatrixMeta;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Index of an expression in a program's arena.
pub type ExprId = usize;

/// Unary scalar maps supported by the engine (all zero-preserving, so
/// sparse tiles keep their support).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// `|x|`
    Abs,
    /// `√x`
    Sqrt,
    /// `x²`
    Square,
}

impl UnaryOp {
    /// Applies the map to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Abs => x.abs(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Square => x * x,
        }
    }
}

/// One node of a matrix expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprNode {
    /// A named input matrix (must be described at inference time).
    Input(String),
    /// Matrix product.
    Mul(ExprId, ExprId),
    /// Element-wise combination.
    Elem(ElemOp, ExprId, ExprId),
    /// Transpose.
    Transpose(ExprId),
    /// Scalar multiple.
    Scale(ExprId, f64),
    /// Element-wise scalar map.
    Unary(UnaryOp, ExprId),
}

impl ExprNode {
    /// Child expression ids.
    pub(crate) fn children(&self) -> Vec<ExprId> {
        match *self {
            ExprNode::Input(_) => vec![],
            ExprNode::Mul(a, b) | ExprNode::Elem(_, a, b) => vec![a, b],
            ExprNode::Transpose(a) | ExprNode::Scale(a, _) | ExprNode::Unary(_, a) => vec![a],
        }
    }
}

/// Description of an input matrix: shape, tiling, expected density, and
/// whether it is stored sparse.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InputDesc {
    /// Shape and tiling.
    pub meta: MatrixMeta,
    /// Expected fraction of non-zero cells.
    pub density: f64,
    /// Whether tiles are stored in the sparse format.
    pub sparse: bool,
    /// Whether tiles are produced by a generator (no DFS reads).
    pub generated: bool,
}

impl InputDesc {
    /// A fully dense input.
    pub fn dense(meta: MatrixMeta) -> Self {
        InputDesc {
            meta,
            density: 1.0,
            sparse: false,
            generated: false,
        }
    }

    /// A sparse input with the given density.
    pub fn sparse(meta: MatrixMeta, density: f64) -> Self {
        InputDesc {
            meta,
            density,
            sparse: true,
            generated: false,
        }
    }

    /// Marks the input as generator-backed (builder style).
    pub fn generated(mut self) -> Self {
        self.generated = true;
        self
    }
}

/// Inferred properties of each expression node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeInfo {
    /// Shape and tiling of the node's value.
    pub meta: MatrixMeta,
    /// Estimated density of the node's value.
    pub density: f64,
    /// Whether the node reads straight from a generator (only `Input` and
    /// `Transpose(Input)` nodes can be).
    pub generated: bool,
}

/// A matrix program: an expression arena plus named outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Expression arena; children always precede parents.
    pub nodes: Vec<ExprNode>,
    /// `(output name, root expression)` pairs to materialise.
    pub outputs: Vec<(String, ExprId)>,
}

impl Program {
    /// Node accessor with bounds checking.
    pub(crate) fn node(&self, id: ExprId) -> Result<&ExprNode> {
        self.nodes.get(id).ok_or(CoreError::BadExprId(id))
    }

    /// Infers shape and density for every node, validating the program
    /// against the given input descriptions.
    pub fn infer(&self, inputs: &BTreeMap<String, InputDesc>) -> Result<Vec<NodeInfo>> {
        let mut info: Vec<NodeInfo> = Vec::with_capacity(self.nodes.len());
        for (id, node) in self.nodes.iter().enumerate() {
            let ni = match node {
                ExprNode::Input(name) => {
                    let d = inputs
                        .get(name)
                        .ok_or_else(|| CoreError::UnknownInput(name.clone()))?;
                    NodeInfo {
                        meta: d.meta,
                        density: d.density,
                        generated: d.generated,
                    }
                }
                ExprNode::Mul(a, b) => {
                    let (ia, ib) = (
                        self.child_info(&info, *a, id)?,
                        self.child_info(&info, *b, id)?,
                    );
                    if ia.meta.cols != ib.meta.rows || ia.meta.tile_size != ib.meta.tile_size {
                        return Err(CoreError::Shape {
                            node: format!("Mul@{id}"),
                            detail: format!(
                                "{}x{} (tile {}) × {}x{} (tile {})",
                                ia.meta.rows,
                                ia.meta.cols,
                                ia.meta.tile_size,
                                ib.meta.rows,
                                ib.meta.cols,
                                ib.meta.tile_size
                            ),
                        });
                    }
                    NodeInfo {
                        meta: MatrixMeta::new(ia.meta.rows, ib.meta.cols, ia.meta.tile_size),
                        density: product_density(ia.density, ib.density, ia.meta.cols),
                        generated: false,
                    }
                }
                ExprNode::Elem(op, a, b) => {
                    let (ia, ib) = (
                        self.child_info(&info, *a, id)?,
                        self.child_info(&info, *b, id)?,
                    );
                    if ia.meta != ib.meta {
                        return Err(CoreError::Shape {
                            node: format!("Elem@{id}"),
                            detail: format!(
                                "{}x{} vs {}x{}",
                                ia.meta.rows, ia.meta.cols, ib.meta.rows, ib.meta.cols
                            ),
                        });
                    }
                    let density = match op {
                        ElemOp::Add | ElemOp::Sub => {
                            (ia.density + ib.density - ia.density * ib.density).min(1.0)
                        }
                        ElemOp::Mul => ia.density * ib.density,
                        ElemOp::Div => ia.density,
                    };
                    NodeInfo {
                        meta: ia.meta,
                        density,
                        generated: false,
                    }
                }
                ExprNode::Transpose(a) => {
                    let ia = self.child_info(&info, *a, id)?;
                    NodeInfo {
                        meta: ia.meta.transposed(),
                        density: ia.density,
                        generated: ia.generated,
                    }
                }
                ExprNode::Scale(a, factor) => {
                    let ia = self.child_info(&info, *a, id)?;
                    let density = if *factor == 0.0 { 0.0 } else { ia.density };
                    NodeInfo {
                        meta: ia.meta,
                        density,
                        generated: false,
                    }
                }
                ExprNode::Unary(_, a) => {
                    let ia = self.child_info(&info, *a, id)?;
                    NodeInfo {
                        meta: ia.meta,
                        density: ia.density,
                        generated: false,
                    }
                }
            };
            info.push(ni);
        }
        for (name, root) in &self.outputs {
            if *root >= self.nodes.len() {
                return Err(CoreError::Shape {
                    node: format!("output {name}"),
                    detail: format!("root id {root} out of range"),
                });
            }
        }
        Ok(info)
    }

    fn child_info<'a>(
        &self,
        info: &'a [NodeInfo],
        child: ExprId,
        parent: ExprId,
    ) -> Result<&'a NodeInfo> {
        info.get(child).ok_or_else(|| {
            CoreError::Invariant(format!("node {parent} references later node {child}"))
        })
    }

    /// Ids reachable from the outputs (live nodes), in ascending order.
    pub fn live_nodes(&self) -> Vec<ExprId> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<ExprId> = self.outputs.iter().map(|(_, id)| *id).collect();
        while let Some(id) = stack.pop() {
            if id >= live.len() || live[id] {
                continue;
            }
            live[id] = true;
            stack.extend(self.nodes[id].children());
        }
        (0..self.nodes.len()).filter(|&i| live[i]).collect()
    }

    /// Reference count of each node from live parents and outputs.
    pub(crate) fn ref_counts(&self) -> Vec<usize> {
        let live = self.live_nodes();
        let mut counts = vec![0usize; self.nodes.len()];
        for &id in &live {
            for c in self.nodes[id].children() {
                counts[c] += 1;
            }
        }
        for (_, id) in &self.outputs {
            counts[*id] += 1;
        }
        counts
    }
}

/// Estimated density of a product over a shared dimension of `l`
/// elements (independence assumption; matches
/// [`cumulon_matrix::Tile::mul`]'s phantom propagation).
pub(crate) fn product_density(da: f64, db: f64, l: usize) -> f64 {
    1.0 - (1.0 - da * db).powf(l.max(1) as f64)
}

/// Fluent builder for [`Program`]s.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    nodes: Vec<ExprNode>,
    outputs: Vec<(String, ExprId)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, node: ExprNode) -> ExprId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// References a named input matrix.
    pub fn input(&mut self, name: &str) -> ExprId {
        self.push(ExprNode::Input(name.to_string()))
    }

    /// `a × b`
    pub fn mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push(ExprNode::Mul(a, b))
    }

    /// `a (op) b` for any element-wise operator.
    pub fn elem(&mut self, op: ElemOp, a: ExprId, b: ExprId) -> ExprId {
        self.push(ExprNode::Elem(op, a, b))
    }

    /// `a + b`
    pub fn add(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push(ExprNode::Elem(ElemOp::Add, a, b))
    }

    /// `a - b`
    pub fn sub(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push(ExprNode::Elem(ElemOp::Sub, a, b))
    }

    /// `a ⊙ b`
    pub fn elem_mul(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push(ExprNode::Elem(ElemOp::Mul, a, b))
    }

    /// `a ⊘ b`
    pub fn elem_div(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.push(ExprNode::Elem(ElemOp::Div, a, b))
    }

    /// `aᵀ`
    pub fn transpose(&mut self, a: ExprId) -> ExprId {
        self.push(ExprNode::Transpose(a))
    }

    /// `factor · a`
    pub fn scale(&mut self, a: ExprId, factor: f64) -> ExprId {
        self.push(ExprNode::Scale(a, factor))
    }

    /// Element-wise unary map.
    pub fn unary(&mut self, op: UnaryOp, a: ExprId) -> ExprId {
        self.push(ExprNode::Unary(op, a))
    }

    /// Chained product `m[0] × m[1] × …` (left-assoc; the chain rewrite
    /// re-associates it cost-optimally later).
    pub fn mul_chain(&mut self, ms: &[ExprId]) -> ExprId {
        assert!(!ms.is_empty(), "mul_chain needs at least one operand");
        let mut acc = ms[0];
        for &m in &ms[1..] {
            acc = self.mul(acc, m);
        }
        acc
    }

    /// Marks a node as a named output.
    pub fn output(&mut self, name: &str, id: ExprId) {
        self.outputs.push((name.to_string(), id));
    }

    /// Finalises the program.
    pub fn build(self) -> Program {
        Program {
            nodes: self.nodes,
            outputs: self.outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("A".into(), InputDesc::dense(MatrixMeta::new(100, 50, 10)));
        m.insert("B".into(), InputDesc::dense(MatrixMeta::new(50, 80, 10)));
        m.insert(
            "V".into(),
            InputDesc::sparse(MatrixMeta::new(100, 80, 10), 0.01),
        );
        m
    }

    #[test]
    fn builder_and_inference() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.mul(a, bb);
        b.output("C", c);
        let p = b.build();
        let info = p.infer(&inputs()).unwrap();
        assert_eq!(info[c].meta, MatrixMeta::new(100, 80, 10));
        assert_eq!(info[c].density, 1.0);
    }

    #[test]
    fn unknown_input_rejected() {
        let mut b = ProgramBuilder::new();
        let x = b.input("NOPE");
        b.output("X", x);
        assert!(matches!(
            b.build().infer(&inputs()),
            Err(CoreError::UnknownInput(_))
        ));
    }

    #[test]
    fn mul_shape_mismatch() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let v = b.input("V");
        let c = b.mul(a, v); // 100x50 × 100x80
        b.output("C", c);
        assert!(matches!(
            b.build().infer(&inputs()),
            Err(CoreError::Shape { .. })
        ));
    }

    #[test]
    fn elem_shape_mismatch() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let v = b.input("V");
        let c = b.add(a, v);
        b.output("C", c);
        assert!(b.build().infer(&inputs()).is_err());
    }

    #[test]
    fn transpose_inference() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let at = b.transpose(a);
        let g = b.mul(at, a); // A'A: 50x50
        b.output("G", g);
        let p = b.build();
        let info = p.infer(&inputs()).unwrap();
        assert_eq!(info[g].meta, MatrixMeta::new(50, 50, 10));
    }

    #[test]
    fn density_inference() {
        let mut b = ProgramBuilder::new();
        let v = b.input("V");
        let v2 = b.elem_mul(v, v);
        let s = b.add(v, v);
        let q = b.elem_div(v, v);
        let z = b.scale(v, 0.0);
        b.output("V2", v2);
        b.output("S", s);
        b.output("Q", q);
        b.output("Z", z);
        let p = b.build();
        let info = p.infer(&inputs()).unwrap();
        assert!((info[v2].density - 0.0001).abs() < 1e-12);
        assert!(info[s].density > 0.01 && info[s].density < 0.02);
        assert_eq!(info[q].density, 0.01);
        assert_eq!(info[z].density, 0.0);
    }

    #[test]
    fn product_density_extremes() {
        assert_eq!(product_density(1.0, 1.0, 50), 1.0);
        assert_eq!(product_density(0.0, 1.0, 50), 0.0);
        let d = product_density(0.01, 0.01, 10_000);
        assert!(d > 0.6, "long shared dimension densifies: {d}");
    }

    #[test]
    fn live_nodes_and_refcounts() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let dead = b.transpose(bb);
        let c = b.mul(a, bb);
        b.output("C", c);
        let p = b.build();
        let live = p.live_nodes();
        assert!(live.contains(&a) && live.contains(&bb) && live.contains(&c));
        assert!(!live.contains(&dead));
        let rc = p.ref_counts();
        assert_eq!(rc[a], 1);
        assert_eq!(rc[bb], 1, "dead transpose must not count");
        assert_eq!(rc[c], 1);
    }

    #[test]
    fn shared_node_refcount() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let at = b.transpose(a);
        let g = b.mul(at, a);
        b.output("G", g);
        let rc = b.build().ref_counts();
        assert_eq!(rc[a], 2, "A feeds both the transpose and the multiply");
    }

    #[test]
    fn mul_chain_left_assoc() {
        let mut b = ProgramBuilder::new();
        let xs: Vec<_> = ["A", "B", "B"].iter().map(|n| b.input(n)).collect();
        let chain = b.mul_chain(&xs);
        b.output("C", chain);
        let p = b.build();
        // ((A×B)×B): two Mul nodes.
        let muls = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Mul(_, _)))
            .count();
        assert_eq!(muls, 2);
        assert_eq!(p.node(chain).unwrap().children().len(), 2);
    }

    #[test]
    fn bad_expr_id() {
        let p = Program {
            nodes: vec![],
            outputs: vec![],
        };
        assert!(matches!(p.node(3), Err(CoreError::BadExprId(3))));
    }

    #[test]
    fn unary_ops_apply() {
        assert_eq!(UnaryOp::Abs.apply(-2.0), 2.0);
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnaryOp::Square.apply(3.0), 9.0);
    }
}
