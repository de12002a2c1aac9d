//! Tokenizer for the surface language.

use cumulon_core::error::CoreError;
use cumulon_core::Result;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier (matrix name or keyword-like function name).
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `.*`
    DotStar,
    /// `./`
    DotSlash,
    /// `'` (postfix transpose)
    Tick,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `out` keyword.
    Out,
}

/// A token with its source position (byte offset and 1-based line).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The kind and payload.
    pub kind: TokenKind,
    /// 1-based line number for diagnostics.
    pub line: usize,
}

fn err(line: usize, msg: impl Into<String>) -> CoreError {
    CoreError::Parse(format!("parse error at line {line}: {}", msg.into()))
}

/// Tokenizes source text. `#` starts a line comment.
pub fn tokenize(source: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let bytes = source.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Assign,
                    line,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    line,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    line,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    line,
                });
                i += 1;
            }
            '\'' => {
                tokens.push(Token {
                    kind: TokenKind::Tick,
                    line,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    line,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semi,
                    line,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    line,
                });
                i += 1;
            }
            '.' => {
                // `.*`, `./`, or the start of a fraction like `.5`.
                match bytes.get(i + 1).map(|&b| b as char) {
                    Some('*') => {
                        tokens.push(Token {
                            kind: TokenKind::DotStar,
                            line,
                        });
                        i += 2;
                    }
                    Some('/') => {
                        tokens.push(Token {
                            kind: TokenKind::DotSlash,
                            line,
                        });
                        i += 2;
                    }
                    Some(d) if d.is_ascii_digit() => {
                        let (value, next) = lex_number(source, i, line)?;
                        tokens.push(Token {
                            kind: TokenKind::Number(value),
                            line,
                        });
                        i = next;
                    }
                    _ => return Err(err(line, "stray '.'")),
                }
            }
            '/' => {
                return Err(err(
                    line,
                    "matrix division is not defined; use ./ for element-wise",
                ))
            }
            c if c.is_ascii_digit() => {
                let (value, next) = lex_number(source, i, line)?;
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    line,
                });
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &source[start..i];
                let kind = if word == "out" {
                    TokenKind::Out
                } else {
                    TokenKind::Ident(word.to_string())
                };
                tokens.push(Token { kind, line });
            }
            other => return Err(err(line, format!("unexpected character '{other}'"))),
        }
    }
    Ok(tokens)
}

fn lex_number(source: &str, start: usize, line: usize) -> Result<(f64, usize)> {
    let bytes = source.as_bytes();
    let mut i = start;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !seen_dot && !seen_exp {
            // A dot followed by `*` or `/` is an operator, not a fraction.
            match bytes.get(i + 1).map(|&b| b as char) {
                Some('*') | Some('/') => break,
                _ => {
                    seen_dot = true;
                    i += 1;
                }
            }
        } else if (c == 'e' || c == 'E') && !seen_exp {
            seen_exp = true;
            i += 1;
            if matches!(bytes.get(i).map(|&b| b as char), Some('+') | Some('-')) {
                i += 1;
            }
        } else {
            break;
        }
    }
    source[start..i]
        .parse::<f64>()
        .map(|v| (v, i))
        .map_err(|_| err(line, format!("bad number literal '{}'", &source[start..i])))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        use TokenKind::*;
        assert_eq!(
            kinds("G = A' * B;"),
            vec![
                Ident("G".into()),
                Assign,
                Ident("A".into()),
                Tick,
                Star,
                Ident("B".into()),
                Semi
            ]
        );
    }

    #[test]
    fn elementwise_operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("H .* X ./ Y"),
            vec![
                Ident("H".into()),
                DotStar,
                Ident("X".into()),
                DotSlash,
                Ident("Y".into())
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("2"), vec![TokenKind::Number(2.0)]);
        assert_eq!(kinds("0.5"), vec![TokenKind::Number(0.5)]);
        assert_eq!(kinds(".25"), vec![TokenKind::Number(0.25)]);
        assert_eq!(kinds("1e3"), vec![TokenKind::Number(1000.0)]);
        assert_eq!(kinds("2.5e-2"), vec![TokenKind::Number(0.025)]);
    }

    #[test]
    fn number_then_elementwise_op() {
        use TokenKind::*;
        // `2.*A` must lex as 2 .* A, not 2. * A.
        assert_eq!(kinds("2.*A"), vec![Number(2.0), DotStar, Ident("A".into())]);
        assert_eq!(
            kinds("2./A"),
            vec![Number(2.0), DotSlash, Ident("A".into())]
        );
    }

    #[test]
    fn comments_and_lines() {
        let toks = tokenize("A = B; # trailing\n# full line\nC = D;").unwrap();
        assert_eq!(toks.len(), 8);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[4].line, 3);
    }

    #[test]
    fn out_keyword_vs_ident() {
        use TokenKind::*;
        assert_eq!(kinds("out X"), vec![Out, Ident("X".into())]);
        assert_eq!(kinds("outX"), vec![Ident("outX".into())]);
    }

    #[test]
    fn errors() {
        assert!(tokenize("A @ B").is_err());
        assert!(tokenize("A / B").is_err());
        assert!(tokenize("A . B").is_err());
    }
}
