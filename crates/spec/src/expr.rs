//! The narrow-transform expression language: what `filter`, `map`, and
//! sink `sort` keys are written in.
//!
//! Grammar (standard precedence, left-associative):
//!
//! ```text
//! expr  := or
//! or    := and ("||" and)*
//! and   := cmp ("&&" cmp)*
//! cmp   := add (("==" | "!=" | "<=" | ">=" | "<" | ">") add)?
//! add   := mul (("+" | "-") mul)*
//! mul   := unary (("*" | "/" | "%") unary)*
//! unary := ("-" | "!")? atom
//! atom  := int | float | "string" | true | false | column | "(" expr ")"
//! ```
//!
//! Columns resolve against the stage's input schema **at compile time**
//! — an unknown column is a [`SpecError`] with a nearest-column hint,
//! not a runtime surprise. Numeric semantics mirror what a hand-written
//! Rust pipeline would do: `int ∘ int → int`, any float operand promotes
//! the operation to `f64` (so `arrests * 100000.0 / population` computes
//! exactly like `arrests as f64 * 100_000.0 / population as f64`).
//! Comparisons accept mixed numbers (promote), strings with strings, and
//! bools with bools. A type mismatch *at evaluation time* panics with
//! the offending expression — spec evaluation is deliberately strict so
//! equivalence suites never paper over a type confusion.

use crate::parse::SpecError;
use crate::value::Value;

/// A compiled expression over a row schema.
#[derive(Debug, Clone)]
pub enum Expr {
    /// Literal.
    Lit(Value),
    /// Column reference, pre-resolved to its index.
    Col(usize, String),
    /// Unary negation / not.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean not.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Int(i64),
    Float(f64),
    Str(String),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
}

fn lex(src: &str, line: usize, section: &str) -> Result<Vec<Tok>, SpecError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            match chars.get(i + 1) {
                                Some('n') => s.push('\n'),
                                Some('t') => s.push('\t'),
                                Some('"') => s.push('"'),
                                Some('\\') => s.push('\\'),
                                other => {
                                    return Err(SpecError::at(
                                        line,
                                        section,
                                        format!("bad escape in expression string: {other:?}"),
                                    ))
                                }
                            }
                            i += 2;
                        }
                        Some(&c) => {
                            s.push(c);
                            i += 1;
                        }
                        None => {
                            return Err(SpecError::at(
                                line,
                                section,
                                format!("unterminated string in expression `{src}`"),
                            ))
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            '0'..='9' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit() || chars[i] == '.' || chars[i] == '_')
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().filter(|&&c| c != '_').collect();
                if text.contains('.') {
                    let f: f64 = text.parse().map_err(|_| {
                        SpecError::at(line, section, format!("bad float literal `{text}`"))
                    })?;
                    toks.push(Tok::Float(f));
                } else {
                    let n: i64 = text.parse().map_err(|_| {
                        SpecError::at(line, section, format!("bad integer literal `{text}`"))
                    })?;
                    toks.push(Tok::Int(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            _ => {
                let two: String = chars[i..chars.len().min(i + 2)].iter().collect();
                let op = match two.as_str() {
                    "==" | "!=" | "<=" | ">=" | "&&" | "||" => {
                        i += 2;
                        match two.as_str() {
                            "==" => "==",
                            "!=" => "!=",
                            "<=" => "<=",
                            ">=" => ">=",
                            "&&" => "&&",
                            _ => "||",
                        }
                    }
                    _ => {
                        i += 1;
                        match c {
                            '+' => "+",
                            '-' => "-",
                            '*' => "*",
                            '/' => "/",
                            '%' => "%",
                            '<' => "<",
                            '>' => ">",
                            '!' => "!",
                            other => {
                                return Err(SpecError::at(
                                    line,
                                    section,
                                    format!("unexpected character `{other}` in expression `{src}`"),
                                ))
                            }
                        }
                    }
                };
                toks.push(Tok::Op(op));
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    schema: &'a [String],
    src: &'a str,
    line: usize,
    section: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> SpecError {
        SpecError::at(self.line, self.section, msg)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat_op(&mut self, ops: &[&'static str]) -> Option<&'static str> {
        if let Some(Tok::Op(op)) = self.peek() {
            if ops.contains(op) {
                let op = *op;
                self.pos += 1;
                return Some(op);
            }
        }
        None
    }

    fn expr(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.and()?;
        while self.eat_op(&["||"]).is_some() {
            let rhs = self.and()?;
            lhs = Expr::Bin(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.cmp()?;
        while self.eat_op(&["&&"]).is_some() {
            let rhs = self.cmp()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp(&mut self) -> Result<Expr, SpecError> {
        let lhs = self.add()?;
        if let Some(op) = self.eat_op(&["==", "!=", "<=", ">=", "<", ">"]) {
            let rhs = self.add()?;
            let op = match op {
                "==" => BinOp::Eq,
                "!=" => BinOp::Ne,
                "<=" => BinOp::Le,
                ">=" => BinOp::Ge,
                "<" => BinOp::Lt,
                _ => BinOp::Gt,
            };
            return Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn add(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.mul()?;
        while let Some(op) = self.eat_op(&["+", "-"]) {
            let rhs = self.mul()?;
            let op = if op == "+" { BinOp::Add } else { BinOp::Sub };
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul(&mut self) -> Result<Expr, SpecError> {
        let mut lhs = self.unary()?;
        while let Some(op) = self.eat_op(&["*", "/", "%"]) {
            let rhs = self.unary()?;
            let op = match op {
                "*" => BinOp::Mul,
                "/" => BinOp::Div,
                _ => BinOp::Rem,
            };
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, SpecError> {
        if self.eat_op(&["-"]).is_some() {
            return Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)));
        }
        if self.eat_op(&["!"]).is_some() {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr, SpecError> {
        let tok = self
            .peek()
            .cloned()
            .ok_or_else(|| self.err(format!("expression `{}` ends unexpectedly", self.src)))?;
        self.pos += 1;
        match tok {
            Tok::Int(i) => Ok(Expr::Lit(Value::Int(i))),
            Tok::Float(f) => Ok(Expr::Lit(Value::Float(f))),
            Tok::Str(s) => Ok(Expr::Lit(Value::Str(s))),
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Expr::Lit(Value::Bool(true))),
                "false" => Ok(Expr::Lit(Value::Bool(false))),
                _ => match self.schema.iter().position(|c| c == &name) {
                    Some(idx) => Ok(Expr::Col(idx, name)),
                    None => {
                        let known: Vec<&str> = self.schema.iter().map(String::as_str).collect();
                        Err(self
                            .err(format!(
                                "unknown column `{name}` (columns: {})",
                                known.join(", ")
                            ))
                            .with_hint_from(&name, &known))
                    }
                },
            },
            Tok::LParen => {
                let inner = self.expr()?;
                match self.peek() {
                    Some(Tok::RParen) => {
                        self.pos += 1;
                        Ok(inner)
                    }
                    _ => Err(self.err(format!("missing `)` in expression `{}`", self.src))),
                }
            }
            other => Err(self.err(format!("unexpected token {other:?} in `{}`", self.src))),
        }
    }
}

/// Parse `src` against `schema`, resolving column names to indices.
pub fn parse_expr(
    src: &str,
    schema: &[String],
    line: usize,
    section: &str,
) -> Result<Expr, SpecError> {
    let toks = lex(src, line, section)?;
    if toks.is_empty() {
        return Err(SpecError::at(line, section, "empty expression"));
    }
    let mut p = Parser {
        toks,
        pos: 0,
        schema,
        src,
        line,
        section,
    };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(SpecError::at(
            line,
            section,
            format!("trailing tokens after expression `{src}`"),
        ));
    }
    Ok(e)
}

impl Expr {
    /// Evaluate against one row. Type mismatches panic (see module docs).
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Lit(v) => v.clone(),
            Expr::Col(idx, name) => row
                .get(*idx)
                .unwrap_or_else(|| panic!("column `{name}` (index {idx}) out of row bounds"))
                .clone(),
            Expr::Unary(op, inner) => {
                let v = inner.eval(row);
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
                    (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
                    (UnOp::Not, Value::Bool(b)) => Value::Bool(!b),
                    (op, v) => panic!("spec expression: cannot apply {op:?} to {}", v.type_name()),
                }
            }
            Expr::Bin(op, lhs, rhs) => {
                // Short-circuit the boolean connectives.
                match op {
                    BinOp::And => {
                        return match lhs.eval(row) {
                            Value::Bool(false) => Value::Bool(false),
                            Value::Bool(true) => match rhs.eval(row) {
                                Value::Bool(b) => Value::Bool(b),
                                v => {
                                    panic!("spec expression: && needs bools, got {}", v.type_name())
                                }
                            },
                            v => panic!("spec expression: && needs bools, got {}", v.type_name()),
                        }
                    }
                    BinOp::Or => {
                        return match lhs.eval(row) {
                            Value::Bool(true) => Value::Bool(true),
                            Value::Bool(false) => match rhs.eval(row) {
                                Value::Bool(b) => Value::Bool(b),
                                v => {
                                    panic!("spec expression: || needs bools, got {}", v.type_name())
                                }
                            },
                            v => panic!("spec expression: || needs bools, got {}", v.type_name()),
                        }
                    }
                    _ => {}
                }
                let a = lhs.eval(row);
                let b = rhs.eval(row);
                eval_bin(*op, a, b)
            }
        }
    }

    /// Evaluate and require a boolean (filter predicates).
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        match self.eval(row) {
            Value::Bool(b) => b,
            v => panic!(
                "spec expression: filter must evaluate to bool, got {}",
                v.type_name()
            ),
        }
    }
}

/// `a + b` under the expression language's promotion rules — the
/// combiner `sum`/`count` stages reduce with.
pub(crate) fn add_values(a: Value, b: Value) -> Value {
    eval_bin(BinOp::Add, a, b)
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> Value {
    use BinOp::*;
    use Value::*;
    match op {
        Add | Sub | Mul | Div | Rem => match (a, b) {
            (Int(x), Int(y)) => Int(match op {
                Add => x.wrapping_add(y),
                Sub => x.wrapping_sub(y),
                Mul => x.wrapping_mul(y),
                Div => x
                    .checked_div(y)
                    .unwrap_or_else(|| panic!("spec expression: integer division by zero")),
                _ => x
                    .checked_rem(y)
                    .unwrap_or_else(|| panic!("spec expression: integer modulo by zero")),
            }),
            (Str(x), Str(y)) if op == Add => Str(x + &y),
            (a, b) => {
                let (x, y) = match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => panic!(
                        "spec expression: arithmetic on {} and {}",
                        a.type_name(),
                        b.type_name()
                    ),
                };
                Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => x % y,
                })
            }
        },
        Eq | Ne => {
            let equal = match (&a, &b) {
                // Mixed numbers compare by promoted value.
                (Int(x), Float(y)) => (*x as f64) == *y,
                (Float(x), Int(y)) => *x == (*y as f64),
                _ => a == b,
            };
            Bool(if op == Eq { equal } else { !equal })
        }
        Lt | Le | Gt | Ge => {
            let ord = match (&a, &b) {
                (Int(x), Int(y)) => x.partial_cmp(y),
                (Str(x), Str(y)) => x.partial_cmp(y),
                (a, b) => match (a.as_f64(), b.as_f64()) {
                    (Some(x), Some(y)) => x.partial_cmp(&y),
                    _ => panic!(
                        "spec expression: cannot order {} and {}",
                        a.type_name(),
                        b.type_name()
                    ),
                },
            };
            let Some(ord) = ord else {
                panic!("spec expression: unordered comparison (NaN operand)")
            };
            Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                _ => ord.is_ge(),
            })
        }
        And | Or => unreachable!("short-circuited above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(cols: &[&str]) -> Vec<String> {
        cols.iter().map(|s| s.to_string()).collect()
    }

    fn eval(src: &str, cols: &[&str], row: &[Value]) -> Value {
        parse_expr(src, &schema(cols), 1, "test").unwrap().eval(row)
    }

    #[test]
    fn arithmetic_promotes_like_rust() {
        assert_eq!(eval("2 + 3 * 4", &[], &[]), Value::Int(14));
        assert_eq!(eval("7 / 2", &[], &[]), Value::Int(3));
        assert_eq!(eval("7 / 2.0", &[], &[]), Value::Float(3.5));
        // The per-100k shape: (int → f64) * float / (int → f64).
        let v = eval(
            "arrests * 100000.0 / population",
            &["arrests", "population"],
            &[Value::Int(7), Value::Int(13000)],
        );
        assert_eq!(v, Value::Float(7f64 * 100000.0 / 13000f64));
    }

    #[test]
    fn comparisons_and_logic() {
        let row = [Value::Int(2021), Value::Str("fraud".into())];
        assert_eq!(
            eval(
                "year == 2021 && offense != \"theft\"",
                &["year", "offense"],
                &row
            ),
            Value::Bool(true)
        );
        assert_eq!(
            eval("year < 2000 || year >= 2021", &["year", "offense"], &row),
            Value::Bool(true)
        );
        assert_eq!(
            eval("!(year == 2021)", &["year", "offense"], &row),
            Value::Bool(false)
        );
    }

    #[test]
    fn string_concat_and_compare() {
        assert_eq!(eval("\"a\" + \"b\" < \"ac\"", &[], &[]), Value::Bool(true));
    }

    #[test]
    fn unknown_column_hints_nearest() {
        let err =
            parse_expr("yaer == 2021", &schema(&["year", "offense"]), 7, "stage.f").unwrap_err();
        assert_eq!(err.line, 7);
        assert_eq!(err.section, "stage.f");
        assert_eq!(err.hint.as_deref(), Some("year"));
    }

    #[test]
    fn syntax_errors_are_spec_errors() {
        assert!(parse_expr("1 +", &[], 1, "s").is_err());
        assert!(parse_expr("(1 + 2", &[], 1, "s").is_err());
        assert!(parse_expr("1 ~ 2", &[], 1, "s").is_err());
        assert!(parse_expr("", &[], 1, "s").is_err());
        assert!(parse_expr("1 2", &[], 1, "s").is_err());
    }
}
