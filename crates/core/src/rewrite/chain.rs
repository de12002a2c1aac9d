//! Cost-based matrix-chain reordering.
//!
//! Maximal multiply chains (`M₁ × M₂ × … × Mₙ` where the intermediate
//! products are used nowhere else) are re-associated by the classic
//! O(n³) dynamic program — but weighted by a pluggable cost function, so
//! the deployment optimizer can re-run the DP under its fitted cost model
//! rather than raw flops (a flops-optimal order is not always
//! dollars-optimal once materialisation I/O and hourly billing enter).

use std::collections::{BTreeMap, HashMap};

use crate::error::{CoreError, Result};
use crate::expr::{product_density, ExprId, ExprNode, InputDesc, NodeInfo, Program};

/// Cost of multiplying an `m×k` (density `da`) by a `k×n` (density `db`)
/// matrix. Returns an abstract, additive cost.
pub(crate) type MulCostFn = dyn Fn(u64, u64, u64, f64, f64) -> f64;

/// Default cost: estimated flops (density-scaled GEMM) plus the bytes of
/// the materialised intermediate (weighted so I/O breaks flop ties).
pub fn flops_cost(m: u64, k: u64, n: u64, da: f64, db: f64) -> f64 {
    let eff = (da * db).clamp(1e-9, 1.0);
    2.0 * m as f64 * k as f64 * n as f64 * eff + 8.0 * m as f64 * n as f64
}

/// Re-associates every maximal multiply chain cost-optimally.
pub(crate) fn reorder(
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
    cost: &MulCostFn,
) -> Result<Program> {
    let info = program.infer(inputs)?;
    let rc = program.ref_counts();
    let mut out = Program::default();
    let mut memo: HashMap<ExprId, ExprId> = HashMap::new();
    let mut outputs = Vec::with_capacity(program.outputs.len());
    for (name, root) in &program.outputs {
        let new_root = rebuild(program, &info, &rc, *root, &mut out, &mut memo, cost)?;
        outputs.push((name.clone(), new_root));
    }
    out.outputs = outputs;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn rebuild(
    src: &Program,
    info: &[NodeInfo],
    rc: &[usize],
    id: ExprId,
    out: &mut Program,
    memo: &mut HashMap<ExprId, ExprId>,
    cost: &MulCostFn,
) -> Result<ExprId> {
    if let Some(&done) = memo.get(&id) {
        return Ok(done);
    }
    let node = src.node(id)?.clone();
    let new_id = match node {
        ExprNode::Mul(_, _) => {
            // Flatten the maximal chain rooted here. The node being rebuilt
            // is by definition the root of its own chain (passing `false`
            // would make a shared Mul flatten to just itself and recurse
            // forever).
            let mut factors = Vec::new();
            collect_factors(src, rc, id, true, &mut factors)?;
            let rebuilt: Vec<ExprId> = factors
                .iter()
                .map(|&f| rebuild(src, info, rc, f, out, memo, cost))
                .collect::<Result<Vec<_>>>()?;
            if factors.len() < 3 {
                build_left_assoc(out, &rebuilt)
            } else {
                let stats: Vec<(u64, u64, f64)> = factors
                    .iter()
                    .map(|&f| {
                        (
                            info[f].meta.rows as u64,
                            info[f].meta.cols as u64,
                            info[f].density,
                        )
                    })
                    .collect();
                let order = optimal_order(&stats, cost);
                build_ordered(out, &rebuilt, &order, 0, factors.len() - 1)
            }
        }
        ExprNode::Input(name) => push_node(out, ExprNode::Input(name)),
        ExprNode::Transpose(a) => {
            let na = rebuild(src, info, rc, a, out, memo, cost)?;
            push_node(out, ExprNode::Transpose(na))
        }
        ExprNode::Elem(op, a, b) => {
            let na = rebuild(src, info, rc, a, out, memo, cost)?;
            let nb = rebuild(src, info, rc, b, out, memo, cost)?;
            push_node(out, ExprNode::Elem(op, na, nb))
        }
        ExprNode::Scale(a, f) => {
            let na = rebuild(src, info, rc, a, out, memo, cost)?;
            push_node(out, ExprNode::Scale(na, f))
        }
        ExprNode::Unary(op, a) => {
            let na = rebuild(src, info, rc, a, out, memo, cost)?;
            push_node(out, ExprNode::Unary(op, na))
        }
    };
    memo.insert(id, new_id);
    Ok(new_id)
}

/// Collects the chain's factors left-to-right. A `Mul` child is inlined
/// only when this chain is its sole consumer (`rc == 1`), so shared
/// intermediates keep their materialisation.
fn collect_factors(
    src: &Program,
    rc: &[usize],
    id: ExprId,
    is_chain_root: bool,
    factors: &mut Vec<ExprId>,
) -> Result<()> {
    match src.node(id)? {
        ExprNode::Mul(a, b) if is_chain_root || rc[id] == 1 => {
            collect_factors(src, rc, *a, false, factors)?;
            collect_factors(src, rc, *b, false, factors)?;
        }
        _ => factors.push(id),
    }
    Ok(())
}

fn push_node(out: &mut Program, node: ExprNode) -> ExprId {
    out.nodes.push(node);
    out.nodes.len() - 1
}

fn build_left_assoc(out: &mut Program, factors: &[ExprId]) -> ExprId {
    let mut acc = factors[0];
    for &f in &factors[1..] {
        acc = push_node(out, ExprNode::Mul(acc, f));
    }
    acc
}

/// DP split table: `order[i][j]` is the optimal split point of span `i..=j`.
struct Order {
    split: Vec<Vec<usize>>,
}

/// Runs the chain DP over `(rows, cols, density)` factor stats.
fn optimal_order(stats: &[(u64, u64, f64)], cost: &MulCostFn) -> Order {
    let n = stats.len();
    let mut best = vec![vec![0.0f64; n]; n];
    let mut dens = vec![vec![0.0f64; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    for (i, s) in stats.iter().enumerate() {
        dens[i][i] = s.2;
    }
    for span in 2..=n {
        for i in 0..=n - span {
            let j = i + span - 1;
            best[i][j] = f64::INFINITY;
            for s in i..j {
                let (m, k, nn) = (stats[i].0, stats[s].1, stats[j].1);
                let c = best[i][s] + best[s + 1][j] + cost(m, k, nn, dens[i][s], dens[s + 1][j]);
                if c < best[i][j] {
                    best[i][j] = c;
                    split[i][j] = s;
                    dens[i][j] = product_density(dens[i][s], dens[s + 1][j], k as usize);
                }
            }
        }
    }
    Order { split }
}

fn build_ordered(
    out: &mut Program,
    factors: &[ExprId],
    order: &Order,
    i: usize,
    j: usize,
) -> ExprId {
    if i == j {
        return factors[i];
    }
    let s = order.split[i][j];
    let l = build_ordered(out, factors, order, i, s);
    let r = build_ordered(out, factors, order, s + 1, j);
    push_node(out, ExprNode::Mul(l, r))
}

/// Total cost of a program's multiplies under a cost function — used by
/// tests and the optimizer to compare orders.
pub fn program_mul_cost(
    program: &Program,
    inputs: &BTreeMap<String, InputDesc>,
    cost: &MulCostFn,
) -> Result<f64> {
    let info = program.infer(inputs)?;
    let mut total = 0.0;
    for id in program.live_nodes() {
        if let ExprNode::Mul(a, b) = program.node(id)? {
            let (ia, ib) = (&info[*a], &info[*b]);
            total += cost(
                ia.meta.rows as u64,
                ia.meta.cols as u64,
                ib.meta.cols as u64,
                ia.density,
                ib.density,
            );
        }
    }
    if total.is_infinite() {
        return Err(CoreError::Invariant("infinite chain cost".into()));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ProgramBuilder;
    use cumulon_matrix::MatrixMeta;

    fn desc(rows: usize, cols: usize) -> InputDesc {
        InputDesc::dense(MatrixMeta::new(rows, cols, 10))
    }

    /// Classic example: A (10×1000), B (1000×10), C (10×1000).
    /// (AB)C costs 10·1000·10 + 10·10·1000 = 2e5 multiplications;
    /// A(BC) costs 1000·10·1000 + 10·1000·1000 = 2e7. DP must pick (AB)C.
    fn skewed_inputs() -> BTreeMap<String, InputDesc> {
        let mut m = BTreeMap::new();
        m.insert("A".into(), desc(10, 1000));
        m.insert("B".into(), desc(1000, 10));
        m.insert("C".into(), desc(10, 1000));
        m
    }

    #[test]
    fn dp_beats_left_and_right_assoc() {
        let inputs = skewed_inputs();
        // Right-associated on purpose: A(BC).
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.input("C");
        let bc = b.mul(bb, c);
        let abc = b.mul(a, bc);
        b.output("O", abc);
        let bad = b.build();
        let bad_cost = program_mul_cost(&bad, &inputs, &flops_cost).unwrap();

        let good = reorder(&bad, &inputs, &flops_cost).unwrap();
        let good_cost = program_mul_cost(&good, &inputs, &flops_cost).unwrap();
        assert!(
            good_cost < bad_cost / 10.0,
            "DP should be ≫ cheaper: {good_cost} vs {bad_cost}"
        );
        // Shape unchanged.
        let info = good.infer(&inputs).unwrap();
        let (_, root) = &good.outputs[0];
        assert_eq!((info[*root].meta.rows, info[*root].meta.cols), (10, 1000));
    }

    #[test]
    fn dp_matches_bruteforce_on_random_chains() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let n = rng.random_range(3usize..6);
            let dims: Vec<u64> = (0..=n).map(|_| rng.random_range(1u64..40) * 10).collect();
            let stats: Vec<(u64, u64, f64)> = (0..n).map(|i| (dims[i], dims[i + 1], 1.0)).collect();
            let order = optimal_order(&stats, &flops_cost);
            let dp_cost = eval_order(&stats, &order, 0, n - 1).0;
            let brute = brute_force(&stats);
            assert!(
                (dp_cost - brute).abs() <= 1e-6 * brute.max(1.0),
                "dp {dp_cost} vs brute {brute} for dims {dims:?}"
            );
        }
    }

    /// Recomputes cost of a DP order (for cross-checking).
    fn eval_order(stats: &[(u64, u64, f64)], order: &Order, i: usize, j: usize) -> (f64, f64) {
        if i == j {
            return (0.0, stats[i].2);
        }
        let s = order.split[i][j];
        let (cl, dl) = eval_order(stats, order, i, s);
        let (cr, dr) = eval_order(stats, order, s + 1, j);
        let (m, k, n) = (stats[i].0, stats[s].1, stats[j].1);
        (
            cl + cr + flops_cost(m, k, n, dl, dr),
            product_density(dl, dr, k as usize),
        )
    }

    fn brute_force(stats: &[(u64, u64, f64)]) -> f64 {
        fn go(stats: &[(u64, u64, f64)], i: usize, j: usize) -> Vec<(f64, f64)> {
            if i == j {
                return vec![(0.0, stats[i].2)];
            }
            let mut results = Vec::new();
            for s in i..j {
                for &(cl, dl) in &go(stats, i, s) {
                    for &(cr, dr) in &go(stats, s + 1, j) {
                        let (m, k, n) = (stats[i].0, stats[s].1, stats[j].1);
                        results.push((
                            cl + cr + flops_cost(m, k, n, dl, dr),
                            product_density(dl, dr, k as usize),
                        ));
                    }
                }
            }
            results
        }
        go(stats, 0, stats.len() - 1)
            .into_iter()
            .map(|(c, _)| c)
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn two_factor_products_untouched() {
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let ab = b.mul(a, bb);
        b.output("O", ab);
        let mut inputs = BTreeMap::new();
        inputs.insert("A".into(), desc(10, 1000));
        inputs.insert("B".into(), desc(1000, 10));
        let p = reorder(&b.build(), &inputs, &flops_cost).unwrap();
        let muls = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Mul(_, _)))
            .count();
        assert_eq!(muls, 1);
    }

    #[test]
    fn shared_intermediate_not_inlined() {
        // G = A B is used twice; the chain (A B) C must not steal it.
        let mut b = ProgramBuilder::new();
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.input("C");
        let g = b.mul(a, bb); // 10x10, used twice
        let gc = b.mul(g, c); // 10x1000
        b.output("G", g);
        b.output("GC", gc);
        let inputs = skewed_inputs();
        let p = reorder(&b.build(), &inputs, &flops_cost).unwrap();
        // G must remain its own Mul (2 muls total, no 3-way flattening).
        let muls = p
            .nodes
            .iter()
            .filter(|n| matches!(n, ExprNode::Mul(_, _)))
            .count();
        assert_eq!(muls, 2);
        // And both outputs still resolve.
        assert_eq!(p.outputs.len(), 2);
        p.infer(&inputs).unwrap();
    }

    #[test]
    fn density_aware_ordering() {
        // S is very sparse: multiplying through S first keeps intermediates
        // sparse and cheap. Dims symmetric so only density matters.
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "S".into(),
            InputDesc::sparse(MatrixMeta::new(100, 100, 10), 0.001),
        );
        inputs.insert("D1".into(), desc(100, 100));
        inputs.insert("D2".into(), desc(100, 100));
        let mut b = ProgramBuilder::new();
        let d1 = b.input("D1");
        let d2 = b.input("D2");
        let s = b.input("S");
        // D1 D2 S, left-assoc: dense D1·D2 first = expensive.
        let chain = b.mul_chain(&[d1, d2, s]);
        b.output("O", chain);
        let src = b.build();
        let before = program_mul_cost(&src, &inputs, &flops_cost).unwrap();
        let p = reorder(&src, &inputs, &flops_cost).unwrap();
        let after = program_mul_cost(&p, &inputs, &flops_cost).unwrap();
        assert!(
            after < before,
            "sparse-aware order should win: {after} vs {before}"
        );
    }

    #[test]
    fn longer_chain_five_factors() {
        let mut inputs = BTreeMap::new();
        let dims = [30usize, 350, 150, 50, 100, 400];
        for i in 0..5 {
            inputs.insert(format!("M{i}"), desc(dims[i], dims[i + 1]));
        }
        let mut b = ProgramBuilder::new();
        let ms: Vec<_> = (0..5).map(|i| b.input(&format!("M{i}"))).collect();
        let chain = b.mul_chain(&ms);
        b.output("O", chain);
        let src = b.build();
        let before = program_mul_cost(&src, &inputs, &flops_cost).unwrap();
        let p = reorder(&src, &inputs, &flops_cost).unwrap();
        let after = program_mul_cost(&p, &inputs, &flops_cost).unwrap();
        assert!(after <= before);
        let info = p.infer(&inputs).unwrap();
        let (_, root) = &p.outputs[0];
        assert_eq!((info[*root].meta.rows, info[*root].meta.cols), (30, 400));
    }
}
