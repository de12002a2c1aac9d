//! Abstract syntax of the surface language.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Matrix product `*`.
    MatMul,
    /// Element-wise `+`.
    Add,
    /// Element-wise `-`.
    Sub,
    /// Element-wise `.*`.
    ElemMul,
    /// Element-wise `./`.
    ElemDiv,
}

/// Unary element-wise functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnFn {
    /// `abs(x)`
    Abs,
    /// `sqrt(x)`
    Sqrt,
    /// `sq(x)` — element-wise square.
    Sq,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A matrix name (input or earlier assignment).
    Var(String),
    /// Binary combination.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Postfix transpose.
    Transpose(Box<Expr>),
    /// Scalar multiple.
    Scale(f64, Box<Expr>),
    /// Unary element-wise function application.
    Apply(UnFn, Box<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `name = expr;`
    Assign {
        /// Target name.
        name: String,
        /// Right-hand side.
        expr: Expr,
        /// Source line, for diagnostics.
        line: usize,
    },
    /// `out a, b;` — explicit output declaration.
    Out {
        /// Declared output names.
        names: Vec<String>,
        /// Source line.
        line: usize,
    },
}

/// A whole script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Script {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Expr {
    /// Variables referenced (with duplicates).
    pub(crate) fn vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(n) => out.push(n.clone()),
            Expr::Bin(_, a, b) => {
                a.vars(out);
                b.vars(out);
            }
            Expr::Transpose(a) | Expr::Scale(_, a) | Expr::Apply(_, a) => a.vars(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_collects_all() {
        let e = Expr::Bin(
            BinOp::MatMul,
            Box::new(Expr::Transpose(Box::new(Expr::Var("A".into())))),
            Box::new(Expr::Scale(2.0, Box::new(Expr::Var("B".into())))),
        );
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec!["A", "B"]);
    }
}
