//! Recursive-descent parser for the surface language, depth-bounded by
//! `MAX_EXPR_DEPTH`.

use cumulon_core::error::CoreError;
use cumulon_core::Result;

use crate::ast::{BinOp, Expr, Script, Stmt, UnFn};
use crate::lexer::{Token, TokenKind};

/// Deepest expression the parser accepts. Every tree node — a binary
/// operator, unary minus, scalar prefix, postfix transpose or function —
/// adds one level to the tree's height, and every open parenthesis or
/// prefix adds one level of parser recursion. The height of each subtree
/// plus the levels still open around it must stay within the bound:
/// compiling and dropping an expression recurse once per tree level, so
/// the bound keeps a hostile script from overflowing the stack.
const MAX_EXPR_DEPTH: usize = 256;

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
    /// Parentheses and prefixes open at the current position.
    depth: usize,
}

fn err(line: usize, msg: impl Into<String>) -> CoreError {
    CoreError::Parse(format!("parse error at line {line}: {}", msg.into()))
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        let line = self.line();
        match self.bump() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(err(t.line, format!("expected {what}, found {:?}", t.kind))),
            None => Err(err(line, format!("expected {what}, found end of input"))),
        }
    }

    /// Fails with the depth error past [`MAX_EXPR_DEPTH`] open levels.
    fn check_depth(&self, levels: usize) -> Result<()> {
        if levels > MAX_EXPR_DEPTH {
            return Err(err(
                self.line(),
                format!("expression nested deeper than {MAX_EXPR_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    /// Opens one parenthesis or prefix level; the caller closes it with
    /// `self.depth -= 1`.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        self.check_depth(self.depth)
    }

    /// Accepts a just-built subtree of tree height `height`.
    fn built(&self, height: usize) -> Result<usize> {
        self.check_depth(self.depth + height)?;
        Ok(height)
    }

    fn parse_script(&mut self) -> Result<Script> {
        let mut stmts = Vec::new();
        while self.peek().is_some() {
            stmts.push(self.parse_stmt()?);
        }
        Ok(Script { stmts })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        match self.peek() {
            Some(TokenKind::Out) => {
                self.bump();
                let mut names = vec![self.parse_ident()?];
                while self.peek() == Some(&TokenKind::Comma) {
                    self.bump();
                    names.push(self.parse_ident()?);
                }
                self.expect(&TokenKind::Semi, "';'")?;
                Ok(Stmt::Out { names, line })
            }
            Some(TokenKind::Ident(_)) => {
                let name = self.parse_ident()?;
                self.expect(&TokenKind::Assign, "'='")?;
                let (expr, _) = self.parse_expr()?;
                self.expect(&TokenKind::Semi, "';'")?;
                Ok(Stmt::Assign { name, expr, line })
            }
            Some(other) => Err(err(line, format!("expected a statement, found {other:?}"))),
            None => Err(err(line, "expected a statement, found end of input")),
        }
    }

    fn parse_ident(&mut self) -> Result<String> {
        let line = self.line();
        match self.bump() {
            Some(Token {
                kind: TokenKind::Ident(n),
                ..
            }) => Ok(n.clone()),
            Some(t) => Err(err(
                t.line,
                format!("expected an identifier, found {:?}", t.kind),
            )),
            None => Err(err(line, "expected an identifier, found end of input")),
        }
    }

    fn parse_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut lhs, mut height) = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_height) = self.parse_term()?;
            height = self.built(1 + height.max(rhs_height))?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_term(&mut self) -> Result<(Expr, usize)> {
        let (mut lhs, mut height) = self.parse_factor()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::MatMul,
                Some(TokenKind::DotStar) => BinOp::ElemMul,
                Some(TokenKind::DotSlash) => BinOp::ElemDiv,
                _ => break,
            };
            self.bump();
            let (rhs, rhs_height) = self.parse_factor()?;
            height = self.built(1 + height.max(rhs_height))?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    fn parse_factor(&mut self) -> Result<(Expr, usize)> {
        let (scale, (inner, height)) = match self.peek() {
            Some(TokenKind::Minus) => {
                self.bump();
                self.descend()?;
                (-1.0, self.parse_factor()?)
            }
            Some(&TokenKind::Number(value)) => {
                self.bump();
                self.descend()?;
                // A bare number is a scalar factor: `2 * A`, `2 A`… only
                // the explicit-`*` form and direct juxtaposition with a
                // postfix expression are accepted.
                let inner = match self.peek() {
                    Some(TokenKind::Star) => {
                        self.bump();
                        self.parse_factor()?
                    }
                    Some(TokenKind::Ident(_)) | Some(TokenKind::LParen) => self.parse_postfix()?,
                    _ => {
                        return Err(err(
                            self.line(),
                            "a number must scale a matrix (write `2 * A` or `2A`)",
                        ))
                    }
                };
                (value, inner)
            }
            _ => return self.parse_postfix(),
        };
        self.depth -= 1;
        Ok((Expr::Scale(scale, Box::new(inner)), self.built(height + 1)?))
    }

    fn parse_postfix(&mut self) -> Result<(Expr, usize)> {
        let (mut e, mut height) = self.parse_atom()?;
        while self.peek() == Some(&TokenKind::Tick) {
            self.bump();
            height = self.built(height + 1)?;
            e = Expr::Transpose(Box::new(e));
        }
        Ok((e, height))
    }

    fn parse_atom(&mut self) -> Result<(Expr, usize)> {
        let line = self.line();
        match self.bump().cloned() {
            Some(Token {
                kind: TokenKind::Ident(name),
                ..
            }) => {
                // Function application?
                let func = match name.as_str() {
                    "abs" => Some(UnFn::Abs),
                    "sqrt" => Some(UnFn::Sqrt),
                    "sq" => Some(UnFn::Sq),
                    _ => None,
                };
                if let (Some(f), Some(TokenKind::LParen)) = (func, self.peek()) {
                    self.bump();
                    let (inner, height) = self.parse_paren()?;
                    return Ok((Expr::Apply(f, Box::new(inner)), self.built(height + 1)?));
                }
                Ok((Expr::Var(name), 0))
            }
            Some(Token {
                kind: TokenKind::LParen,
                ..
            }) => self.parse_paren(),
            Some(t) => Err(err(
                t.line,
                format!("expected an expression, found {:?}", t.kind),
            )),
            None => Err(err(line, "expected an expression, found end of input")),
        }
    }

    /// Parses `expr ")"` after an opening parenthesis.
    fn parse_paren(&mut self) -> Result<(Expr, usize)> {
        self.descend()?;
        let inner = self.parse_expr()?;
        self.expect(&TokenKind::RParen, "')'")?;
        self.depth -= 1;
        Ok(inner)
    }
}

/// Parses a token stream into a script.
pub fn parse(tokens: &[Token]) -> Result<Script> {
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .parse_script()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_src(src: &str) -> Script {
        parse(&tokenize(src).unwrap()).unwrap()
    }

    fn expr_of(src: &str) -> Expr {
        let script = parse_src(&format!("X = {src};"));
        match &script.stmts[0] {
            Stmt::Assign { expr, .. } => expr.clone(),
            _ => panic!("expected assignment"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        // A + B * C = A + (B*C)
        let e = expr_of("A + B * C");
        let Expr::Bin(BinOp::Add, _, rhs) = e else {
            panic!("top must be Add")
        };
        assert!(matches!(*rhs, Expr::Bin(BinOp::MatMul, _, _)));
    }

    #[test]
    fn left_associativity() {
        // A * B * C = (A*B)*C
        let e = expr_of("A * B * C");
        let Expr::Bin(BinOp::MatMul, lhs, _) = e else {
            panic!()
        };
        assert!(matches!(*lhs, Expr::Bin(BinOp::MatMul, _, _)));
    }

    #[test]
    fn transpose_binds_tightest() {
        // A * B' = A * (B')
        let e = expr_of("A * B'");
        let Expr::Bin(BinOp::MatMul, _, rhs) = e else {
            panic!()
        };
        assert!(matches!(*rhs, Expr::Transpose(_)));
        // Double transpose parses.
        let e = expr_of("A''");
        assert!(matches!(e, Expr::Transpose(_)));
    }

    #[test]
    fn parenthesised_transpose() {
        let e = expr_of("(A * B)'");
        assert!(matches!(e, Expr::Transpose(_)));
    }

    #[test]
    fn scalar_scaling_forms() {
        assert_eq!(
            expr_of("2 * A"),
            Expr::Scale(2.0, Box::new(Expr::Var("A".into())))
        );
        assert_eq!(
            expr_of("2A"),
            Expr::Scale(2.0, Box::new(Expr::Var("A".into())))
        );
        assert_eq!(
            expr_of("0.5 (A + B)"),
            Expr::Scale(
                0.5,
                Box::new(Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Var("A".into())),
                    Box::new(Expr::Var("B".into()))
                ))
            )
        );
        assert_eq!(
            expr_of("-A"),
            Expr::Scale(-1.0, Box::new(Expr::Var("A".into())))
        );
    }

    #[test]
    fn functions() {
        assert!(matches!(expr_of("abs(A)"), Expr::Apply(UnFn::Abs, _)));
        assert!(matches!(
            expr_of("sqrt(A .* A)"),
            Expr::Apply(UnFn::Sqrt, _)
        ));
        assert!(matches!(expr_of("sq(A)"), Expr::Apply(UnFn::Sq, _)));
        // A variable can still be called `absolute`.
        assert_eq!(expr_of("absolute"), Expr::Var("absolute".into()));
        // And `abs` without parens is a plain variable.
        assert_eq!(expr_of("abs"), Expr::Var("abs".into()));
    }

    #[test]
    fn statements_and_outputs() {
        let s = parse_src("X = A; out X, Y;");
        assert_eq!(s.stmts.len(), 2);
        assert!(matches!(&s.stmts[1], Stmt::Out { names, .. } if names == &["X", "Y"]));
    }

    #[test]
    fn elementwise_chain() {
        let e = expr_of("H .* WtV ./ (WtW * H)");
        let Expr::Bin(BinOp::ElemDiv, lhs, _) = e else {
            panic!("left-assoc chain")
        };
        assert!(matches!(*lhs, Expr::Bin(BinOp::ElemMul, _, _)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let toks = tokenize("X = A;\nY = ;").unwrap();
        let e = parse(&toks).unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&tokenize("= A;").unwrap()).is_err());
        assert!(parse(&tokenize("X = A").unwrap()).is_err()); // missing semi
        assert!(parse(&tokenize("X = 2;").unwrap()).is_err()); // bare scalar
        assert!(parse(&tokenize("out;").unwrap()).is_err());
        assert!(parse(&tokenize("X = (A;").unwrap()).is_err());
    }

    /// Runs `compile_source` on a thread with a 2 MiB stack — what a
    /// spawned thread, and so a `serve` handler, gets by default.
    fn compile_on_small_stack(script: String) -> std::result::Result<(), String> {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                crate::compile_source(&script)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })
            .unwrap()
            .join()
            .expect("compiling must not overflow the stack")
    }

    /// `levels` brackets, each closing a chain of `terms` sums:
    /// `((A + A) + A) + A` for two levels of one term each. The tree is
    /// `levels * terms` high, while the brackets nest only `levels` deep.
    fn nested_sums(levels: usize, terms: usize) -> String {
        let mut e = "A".to_string();
        for _ in 0..levels {
            e = format!("({e}){}", " + A".repeat(terms));
        }
        e
    }

    /// Nesting, unary prefixes, chain length and chains nested in brackets
    /// each hit the depth bound: at 30 000 levels every shape ends in a
    /// parse error naming the line, and at the bound itself every shape
    /// still compiles.
    #[test]
    fn hostile_depth_is_a_parse_error() {
        let shapes = |n: usize| {
            [
                format!("X = {}A{};", "(".repeat(n), ")".repeat(n)),
                format!("X = {}A;", "-".repeat(n)),
                format!("X = A{};", " + A".repeat(n)),
            ]
        };
        for script in shapes(30_000) {
            let e = compile_on_small_stack(format!("Y = A;\n{script}")).unwrap_err();
            assert!(e.contains("line 2") && e.contains("deeper than 256"), "{e}");
        }
        for script in shapes(MAX_EXPR_DEPTH) {
            compile_on_small_stack(script).unwrap();
        }
        for script in shapes(MAX_EXPR_DEPTH + 1) {
            assert!(compile_on_small_stack(script).is_err());
        }
        // Chains nested in brackets: the tree's height counts, however
        // shallow the brackets and however short each chain.
        let e = compile_on_small_stack(format!("Y = A;\nX = {};", nested_sums(128, 128)));
        let e = e.unwrap_err();
        assert!(e.contains("line 2") && e.contains("deeper than 256"), "{e}");
        compile_on_small_stack(format!("X = {};", nested_sums(2, 128))).unwrap();
        assert!(compile_on_small_stack(format!("X = {} + A;", nested_sums(2, 128))).is_err());
    }
}
