//! Recursive-descent parser for the source language.
//!
//! Operator precedence follows Standard ML: `handle` and type annotations
//! bind loosest, then `orelse`, `andalso`, `:=`, comparisons, `::` (right
//! associative), additive operators (`+ - ^`), multiplicative operators
//! (`* div mod`), application, and atomic expressions.
//!
//! Every production records the byte-range [`Span`] of the source text it
//! consumed: leaves take their token's span, composites merge the spans of
//! their first and last tokens, and desugared nodes (tuples, `andalso`,
//! list literals, tuple-pattern bindings) inherit the span of the sugar
//! they expand.

use crate::ast::{Decl, Expr, ExprKind, FunBind, PrimOp, Program, TyAnn};
use crate::lexer::{lex, LexError, Tok, Token};
use crate::symbol::Symbol;
use rml_session::Span;
use std::fmt;

/// Parse error, carrying a 1-based source position and a byte span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// 1-based line (0 when at end of input).
    pub line: u32,
    /// 1-based column (0 when at end of input).
    pub col: u32,
    /// Byte range of the offending token (the last token when at end of
    /// input; [`Span::DUMMY`] for empty input).
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: parse error: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            msg: e.msg,
            line: e.line,
            col: e.col,
            span: e.span,
        }
    }
}

/// Maximum expression/type nesting depth. The parser is recursive
/// descent, so unbounded nesting (`((((…`) would overflow the stack —
/// a crash, not a [`ParseError`]. Each nesting level costs the full
/// precedence chain (~11 stack frames), so the limit keeps worst-case
/// stack use under a megabyte even in debug builds on a default 2 MiB
/// thread, while staying far beyond any real program's nesting.
const MAX_PARSE_DEPTH: usize = 64;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    depth: usize,
    /// Fresh parameter names drawn so far.
    fresh: u32,
}

/// A parsed parameter, possibly a tuple pattern pending desugaring.
struct Param {
    var: Symbol,
    ann: Option<TyAnn>,
    tuple: Option<Vec<Symbol>>,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    /// Lexes `src`, giving its byte `i` the span offset `offset + i`.
    fn new(src: &str, offset: u32, fresh: u32) -> Result<Parser, ParseError> {
        let shift = |sp: Span| Span::new(sp.start + offset, sp.end + offset);
        let mut toks = lex(src).map_err(|e| ParseError {
            span: shift(e.span),
            ..ParseError::from(e)
        })?;
        for t in &mut toks {
            t.span = shift(t.span);
        }
        Ok(Parser {
            toks,
            pos: 0,
            depth: 0,
            fresh,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Span of the next token to consume (falling back to the last token's
    /// span at end of input).
    fn cur_span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.span)
            .unwrap_or(Span::DUMMY)
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        if self.pos == 0 {
            Span::DUMMY
        } else {
            self.toks[self.pos - 1].span
        }
    }

    /// Wraps `kind` in the span from `lo` through the last consumed token.
    fn close(&self, lo: Span, kind: ExprKind) -> Expr {
        kind.at(lo.merge(self.prev_span()))
    }

    fn err_here(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|t| (t.line, t.col))
            .unwrap_or((0, 0));
        ParseError {
            msg: msg.into(),
            line,
            col,
            span: self.cur_span(),
        }
    }

    /// Depth accounting for the recursive productions ([`Parser::expr`]
    /// and [`Parser::ty`], which every nesting cycle passes through).
    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            Err(self.err_here("expression nesting too deep"))
        } else {
            Ok(())
        }
    }

    fn expect(&mut self, t: Tok) -> PResult<()> {
        match self.peek() {
            Some(x) if *x == t => {
                self.bump();
                Ok(())
            }
            Some(x) => Err(self.err_here(format!("expected `{t}`, found `{x}`"))),
            None => Err(self.err_here(format!("expected `{t}`, found end of input"))),
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<Symbol> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(Symbol::intern(&s)),
            Some(Tok::Underscore) => Ok(Symbol::intern("_")),
            Some(t) => {
                self.pos -= 1;
                Err(self.err_here(format!("expected identifier, found `{t}`")))
            }
            None => Err(self.err_here("expected identifier, found end of input")),
        }
    }

    // ---------- types ----------

    fn ty(&mut self) -> PResult<TyAnn> {
        self.enter()?;
        let r = self.ty_inner();
        self.depth -= 1;
        r
    }

    fn ty_inner(&mut self) -> PResult<TyAnn> {
        let lhs = self.ty_prod()?;
        if self.eat(&Tok::Arrow) {
            let rhs = self.ty()?;
            Ok(TyAnn::Arrow(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn ty_prod(&mut self) -> PResult<TyAnn> {
        let mut parts = vec![self.ty_postfix()?];
        while self.eat(&Tok::Star) {
            parts.push(self.ty_postfix()?);
        }
        let mut it = parts.into_iter().rev();
        let mut acc = it.next().unwrap();
        for p in it {
            acc = TyAnn::Pair(Box::new(p), Box::new(acc));
        }
        Ok(acc)
    }

    fn ty_postfix(&mut self) -> PResult<TyAnn> {
        let mut t = self.ty_atom()?;
        loop {
            match self.peek() {
                Some(Tok::Ident(s)) if s == "list" => {
                    self.bump();
                    t = TyAnn::List(Box::new(t));
                }
                Some(Tok::RefKw) => {
                    self.bump();
                    t = TyAnn::Ref(Box::new(t));
                }
                _ => return Ok(t),
            }
        }
    }

    fn ty_atom(&mut self) -> PResult<TyAnn> {
        match self.bump() {
            Some(Tok::TyVar(v)) => Ok(TyAnn::Var(Symbol::intern(&v))),
            Some(Tok::Ident(s)) => match s.as_str() {
                "int" => Ok(TyAnn::Int),
                "string" => Ok(TyAnn::String),
                "bool" => Ok(TyAnn::Bool),
                "unit" => Ok(TyAnn::Unit),
                "exn" => Ok(TyAnn::Exn),
                _ => {
                    self.pos -= 1;
                    Err(self.err_here(format!("unknown type constructor `{s}`")))
                }
            },
            Some(Tok::LParen) => {
                if self.eat(&Tok::RParen) {
                    return Ok(TyAnn::Unit);
                }
                let t = self.ty()?;
                self.expect(Tok::RParen)?;
                Ok(t)
            }
            Some(t) => {
                self.pos -= 1;
                Err(self.err_here(format!("expected type, found `{t}`")))
            }
            None => Err(self.err_here("expected type, found end of input")),
        }
    }

    // ---------- declarations ----------

    fn decl(&mut self) -> PResult<Decl> {
        match self.peek() {
            Some(Tok::Val) => {
                self.bump();
                let name = self.ident()?;
                self.expect(Tok::Equal)?;
                let e = self.expr()?;
                Ok(Decl::Val(name, e))
            }
            Some(Tok::Fun) => {
                self.bump();
                let mut binds = vec![self.funbind()?];
                while self.eat(&Tok::And) {
                    binds.push(self.funbind()?);
                }
                Ok(Decl::Fun(binds))
            }
            Some(Tok::Exception) => {
                self.bump();
                let name = self.ident()?;
                let arg = if matches!(self.peek(), Some(Tok::Of)) {
                    self.bump();
                    Some(self.ty()?)
                } else {
                    None
                };
                Ok(Decl::Exception(name, arg))
            }
            other => Err(self.err_here(format!(
                "expected declaration, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    fn funbind(&mut self) -> PResult<FunBind> {
        let name_span = self.cur_span();
        let name = self.ident()?;
        let mut params = vec![self.param()?];
        while matches!(
            self.peek(),
            Some(Tok::Ident(_) | Tok::Underscore | Tok::LParen)
        ) {
            params.push(self.param()?);
        }
        let ret = if self.eat(&Tok::Colon) {
            Some(self.ty()?)
        } else {
            None
        };
        self.expect(Tok::Equal)?;
        let mut body = self.expr()?;
        // Desugar tuple patterns, innermost parameter first.
        for p in params.iter().rev() {
            if let Some(comps) = &p.tuple {
                body = Self::wrap_tuple_param(p.var, comps, body);
            }
        }
        Ok(FunBind {
            name,
            params: params.into_iter().map(|p| (p.var, p.ann)).collect(),
            ret,
            body,
            span: name_span,
        })
    }

    /// A function or `fn` parameter: `x`, `_`, `()`, `(x : ty)`, or a tuple
    /// pattern `(x, y, ...)` of plain identifiers. Tuple patterns are
    /// desugared: the parameter becomes a fresh variable and the body is
    /// wrapped in projection bindings (see [`Parser::wrap_tuple_param`]).
    fn param(&mut self) -> PResult<Param> {
        match self.peek() {
            Some(Tok::Ident(_) | Tok::Underscore) => Ok(Param {
                var: self.ident()?,
                ann: None,
                tuple: None,
            }),
            Some(Tok::LParen) => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    // Unit parameter `()`: bind a wildcard of type unit.
                    return Ok(Param {
                        var: Symbol::intern("_"),
                        ann: Some(TyAnn::Unit),
                        tuple: None,
                    });
                }
                let name = self.ident()?;
                if self.peek() == Some(&Tok::Comma) {
                    let mut comps = vec![name];
                    while self.eat(&Tok::Comma) {
                        comps.push(self.ident()?);
                    }
                    self.expect(Tok::RParen)?;
                    self.fresh += 1;
                    return Ok(Param {
                        var: Symbol::fresh("p", self.fresh - 1),
                        ann: None,
                        tuple: Some(comps),
                    });
                }
                let ann = if self.eat(&Tok::Colon) {
                    Some(self.ty()?)
                } else {
                    None
                };
                self.expect(Tok::RParen)?;
                Ok(Param {
                    var: name,
                    ann,
                    tuple: None,
                })
            }
            other => Err(self.err_here(format!(
                "expected parameter, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    /// Wraps `body` with bindings that destructure the tuple parameter
    /// `var` into `comps` via nested pair projections. The synthesised
    /// nodes inherit the body's span.
    fn wrap_tuple_param(var: Symbol, comps: &[Symbol], body: Expr) -> Expr {
        // (a, b, c) matches the right-nested pair (a, (b, c)).
        let span = body.span;
        let mut decls = Vec::new();
        let mut path: Expr = ExprKind::Var(var).at(span);
        for (i, &c) in comps.iter().enumerate() {
            if i + 1 == comps.len() {
                decls.push(Decl::Val(c, path.clone()));
            } else {
                decls.push(Decl::Val(
                    c,
                    ExprKind::Sel(1, Box::new(path.clone())).at(span),
                ));
                path = ExprKind::Sel(2, Box::new(path)).at(span);
            }
        }
        ExprKind::Let {
            decls,
            body: Box::new(body),
        }
        .at(span)
    }

    // ---------- expressions ----------

    fn expr(&mut self) -> PResult<Expr> {
        self.enter()?;
        let r = self.expr_inner();
        self.depth -= 1;
        r
    }

    fn expr_inner(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let mut e = self.expr_orelse()?;
        loop {
            match self.peek() {
                Some(Tok::Colon) => {
                    self.bump();
                    let t = self.ty()?;
                    e = self.close(lo, ExprKind::Ann(Box::new(e), t));
                }
                Some(Tok::Handle) => {
                    self.bump();
                    let exn = self.ident()?;
                    // Optional argument binder; nullary handlers use `_`.
                    let arg = if matches!(self.peek(), Some(Tok::Ident(_) | Tok::Underscore)) {
                        self.ident()?
                    } else {
                        Symbol::intern("_")
                    };
                    self.expect(Tok::DArrow)?;
                    let handler = self.expr()?;
                    e = self.close(
                        lo,
                        ExprKind::Handle {
                            body: Box::new(e),
                            exn,
                            arg,
                            handler: Box::new(handler),
                        },
                    );
                }
                _ => return Ok(e),
            }
        }
    }

    fn expr_orelse(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let lhs = self.expr_andalso()?;
        if self.eat(&Tok::Orelse) {
            let rhs = self.expr_orelse()?;
            // e1 orelse e2  ==  if e1 then true else e2
            let t: Expr = ExprKind::Bool(true).into();
            Ok(self.close(lo, ExprKind::If(Box::new(lhs), Box::new(t), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn expr_andalso(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let lhs = self.expr_assign()?;
        if self.eat(&Tok::Andalso) {
            let rhs = self.expr_andalso()?;
            // e1 andalso e2  ==  if e1 then e2 else false
            let f: Expr = ExprKind::Bool(false).into();
            Ok(self.close(lo, ExprKind::If(Box::new(lhs), Box::new(rhs), Box::new(f))))
        } else {
            Ok(lhs)
        }
    }

    fn expr_assign(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let lhs = self.expr_cmp()?;
        if self.eat(&Tok::Assign) {
            let rhs = self.expr_cmp()?;
            Ok(self.close(lo, ExprKind::Assign(Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn expr_cmp(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let lhs = self.expr_cons()?;
        let op = match self.peek() {
            Some(Tok::Equal) => PrimOp::Eq,
            Some(Tok::NotEqual) => PrimOp::Ne,
            Some(Tok::Less) => PrimOp::Lt,
            Some(Tok::LessEq) => PrimOp::Le,
            Some(Tok::Greater) => PrimOp::Gt,
            Some(Tok::GreaterEq) => PrimOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.expr_cons()?;
        Ok(self.close(lo, ExprKind::Prim(op, vec![lhs, rhs])))
    }

    fn expr_cons(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let lhs = self.expr_add()?;
        if self.eat(&Tok::Cons) {
            let rhs = self.expr_cons()?; // right associative
            Ok(self.close(lo, ExprKind::Cons(Box::new(lhs), Box::new(rhs))))
        } else {
            Ok(lhs)
        }
    }

    fn expr_add(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let mut lhs = self.expr_mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => PrimOp::Add,
                Some(Tok::Minus) => PrimOp::Sub,
                Some(Tok::Caret) => PrimOp::Concat,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.expr_mul()?;
            lhs = self.close(lo, ExprKind::Prim(op, vec![lhs, rhs]));
        }
    }

    fn expr_mul(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let mut lhs = self.expr_app()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => PrimOp::Mul,
                Some(Tok::Div) => PrimOp::Div,
                Some(Tok::Mod) => PrimOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.expr_app()?;
            lhs = self.close(lo, ExprKind::Prim(op, vec![lhs, rhs]));
        }
    }

    fn expr_app(&mut self) -> PResult<Expr> {
        let mut e = self.expr_unary()?;
        while self.starts_atom() {
            let arg = self.expr_unary()?;
            let span = e.span.merge(arg.span);
            e = ExprKind::App(Box::new(e), Box::new(arg)).at(span);
        }
        Ok(e)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Tok::Ident(_)
                    | Tok::Int(_)
                    | Tok::Str(_)
                    | Tok::True
                    | Tok::False
                    | Tok::NilKw
                    | Tok::LParen
                    | Tok::LBracket
                    | Tok::Hash
                    | Tok::Bang
                    | Tok::Tilde
                    | Tok::RefKw
                    | Tok::Not
                    | Tok::Let
                    | Tok::Underscore
            )
        )
    }

    fn expr_unary(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        match self.peek() {
            Some(Tok::Tilde) => {
                self.bump();
                // `~3` folds to a negative literal; `~e` is negation.
                if let Some(Tok::Int(n)) = self.peek() {
                    let n = *n;
                    self.bump();
                    Ok(self.close(lo, ExprKind::Int(-n)))
                } else {
                    let e = self.expr_unary()?;
                    Ok(self.close(lo, ExprKind::Prim(PrimOp::Neg, vec![e])))
                }
            }
            Some(Tok::Bang) => {
                self.bump();
                let e = self.expr_unary()?;
                Ok(self.close(lo, ExprKind::Deref(Box::new(e))))
            }
            Some(Tok::RefKw) => {
                self.bump();
                let e = self.expr_unary()?;
                Ok(self.close(lo, ExprKind::Ref(Box::new(e))))
            }
            Some(Tok::Not) => {
                self.bump();
                let e = self.expr_unary()?;
                Ok(self.close(lo, ExprKind::Prim(PrimOp::Not, vec![e])))
            }
            Some(Tok::Hash) => {
                self.bump();
                match self.bump() {
                    Some(Tok::Int(1)) => {
                        let e = self.expr_unary()?;
                        Ok(self.close(lo, ExprKind::Sel(1, Box::new(e))))
                    }
                    Some(Tok::Int(2)) => {
                        let e = self.expr_unary()?;
                        Ok(self.close(lo, ExprKind::Sel(2, Box::new(e))))
                    }
                    _ => {
                        self.pos -= 1;
                        Err(self.err_here("expected `#1` or `#2`"))
                    }
                }
            }
            _ => self.expr_atom(),
        }
    }

    fn expr_atom(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        match self.peek() {
            Some(Tok::Int(_)) => {
                let Some(Tok::Int(n)) = self.bump() else {
                    unreachable!()
                };
                Ok(ExprKind::Int(n).at(lo))
            }
            Some(Tok::Str(_)) => {
                let Some(Tok::Str(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(ExprKind::Str(s).at(lo))
            }
            Some(Tok::True) => {
                self.bump();
                Ok(ExprKind::Bool(true).at(lo))
            }
            Some(Tok::False) => {
                self.bump();
                Ok(ExprKind::Bool(false).at(lo))
            }
            Some(Tok::NilKw) => {
                self.bump();
                Ok(ExprKind::Nil.at(lo))
            }
            Some(Tok::Ident(_) | Tok::Underscore) => Ok(ExprKind::Var(self.ident()?).at(lo)),
            Some(Tok::Fn) => {
                self.bump();
                let p = self.param()?;
                self.expect(Tok::DArrow)?;
                let mut body = self.expr()?;
                if let Some(comps) = &p.tuple {
                    body = Self::wrap_tuple_param(p.var, comps, body);
                }
                Ok(self.close(
                    lo,
                    ExprKind::Lam {
                        param: p.var,
                        ann: p.ann,
                        body: Box::new(body),
                    },
                ))
            }
            Some(Tok::If) => {
                self.bump();
                let c = self.expr()?;
                self.expect(Tok::Then)?;
                let t = self.expr()?;
                self.expect(Tok::Else)?;
                let e = self.expr()?;
                Ok(self.close(lo, ExprKind::If(Box::new(c), Box::new(t), Box::new(e))))
            }
            Some(Tok::Case) => {
                self.bump();
                let scrut = self.expr()?;
                self.expect(Tok::Of)?;
                let e = self.case_match(scrut)?;
                Ok(self.close(lo, e.kind))
            }
            Some(Tok::Raise) => {
                self.bump();
                let e = self.expr()?;
                Ok(self.close(lo, ExprKind::Raise(Box::new(e))))
            }
            Some(Tok::Let) => {
                self.bump();
                let mut decls = Vec::new();
                while matches!(self.peek(), Some(Tok::Val | Tok::Fun | Tok::Exception)) {
                    decls.push(self.decl()?);
                }
                self.expect(Tok::In)?;
                let body = self.expr_seq()?;
                self.expect(Tok::End)?;
                Ok(self.close(
                    lo,
                    ExprKind::Let {
                        decls,
                        body: Box::new(body),
                    },
                ))
            }
            Some(Tok::LParen) => {
                self.bump();
                if self.eat(&Tok::RParen) {
                    return Ok(self.close(lo, ExprKind::Unit));
                }
                let first = self.expr()?;
                match self.peek() {
                    Some(Tok::Comma) => {
                        let mut items = vec![first];
                        while self.eat(&Tok::Comma) {
                            items.push(self.expr()?);
                        }
                        self.expect(Tok::RParen)?;
                        let span = lo.merge(self.prev_span());
                        // Right-nest tuples into pairs.
                        let mut it = items.into_iter().rev();
                        let mut acc = it.next().unwrap();
                        for x in it {
                            acc = ExprKind::Pair(Box::new(x), Box::new(acc)).at(span);
                        }
                        Ok(acc)
                    }
                    Some(Tok::Semi) => {
                        let mut items = vec![first];
                        while self.eat(&Tok::Semi) {
                            items.push(self.expr()?);
                        }
                        self.expect(Tok::RParen)?;
                        let span = lo.merge(self.prev_span());
                        let mut it = items.into_iter().rev();
                        let mut acc = it.next().unwrap();
                        for x in it {
                            acc = ExprKind::Seq(Box::new(x), Box::new(acc)).at(span);
                        }
                        Ok(acc)
                    }
                    _ => {
                        self.expect(Tok::RParen)?;
                        // Keep the inner expression but widen its span to
                        // include the parentheses.
                        let span = lo.merge(self.prev_span());
                        Ok(first.kind.at(span))
                    }
                }
            }
            Some(Tok::LBracket) => {
                self.bump();
                let mut items = Vec::new();
                if !self.eat(&Tok::RBracket) {
                    items.push(self.expr()?);
                    while self.eat(&Tok::Comma) {
                        items.push(self.expr()?);
                    }
                    self.expect(Tok::RBracket)?;
                }
                let span = lo.merge(self.prev_span());
                let mut acc = ExprKind::Nil.at(span);
                for x in items.into_iter().rev() {
                    acc = ExprKind::Cons(Box::new(x), Box::new(acc)).at(span);
                }
                Ok(acc)
            }
            other => Err(self.err_here(format!(
                "expected expression, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or("end of input".into())
            ))),
        }
    }

    /// Parses the two arms of a list case, in either order.
    fn case_match(&mut self, scrut: Expr) -> PResult<Expr> {
        // First arm.
        if self.eat(&Tok::NilKw) || self.empty_brackets() {
            self.expect(Tok::DArrow)?;
            let nil_rhs = self.expr()?;
            self.expect(Tok::Bar)?;
            let head = self.ident()?;
            self.expect(Tok::Cons)?;
            let tail = self.ident()?;
            self.expect(Tok::DArrow)?;
            let cons_rhs = self.expr()?;
            Ok(ExprKind::CaseList {
                scrut: Box::new(scrut),
                nil_rhs: Box::new(nil_rhs),
                head,
                tail,
                cons_rhs: Box::new(cons_rhs),
            }
            .into())
        } else {
            let head = self.ident()?;
            self.expect(Tok::Cons)?;
            let tail = self.ident()?;
            self.expect(Tok::DArrow)?;
            let cons_rhs = self.expr()?;
            self.expect(Tok::Bar)?;
            if !self.eat(&Tok::NilKw) && !self.empty_brackets() {
                return Err(self.err_here("expected `nil` pattern"));
            }
            self.expect(Tok::DArrow)?;
            let nil_rhs = self.expr()?;
            Ok(ExprKind::CaseList {
                scrut: Box::new(scrut),
                nil_rhs: Box::new(nil_rhs),
                head,
                tail,
                cons_rhs: Box::new(cons_rhs),
            }
            .into())
        }
    }

    fn empty_brackets(&mut self) -> bool {
        if self.peek() == Some(&Tok::LBracket) && self.peek2() == Some(&Tok::RBracket) {
            self.bump();
            self.bump();
            true
        } else {
            false
        }
    }

    fn expr_seq(&mut self) -> PResult<Expr> {
        let lo = self.cur_span();
        let first = self.expr()?;
        if self.eat(&Tok::Semi) {
            let rest = self.expr_seq()?;
            Ok(self.close(lo, ExprKind::Seq(Box::new(first), Box::new(rest))))
        } else {
            Ok(first)
        }
    }
}

/// Parses a whole program (a sequence of top-level declarations).
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntactic errors, or if input
/// remains after the last declaration.
///
/// # Example
///
/// ```
/// let p = rml_syntax::parse_program("val x = 1 + 2").unwrap();
/// assert_eq!(p.decls.len(), 1);
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_program_at(src, 0, 0).map(|(prog, _)| prog)
}

/// As [`parse_program`], but byte `i` of `src` gets the span offset
/// `offset + i` and tuple parameters are named from `p#fresh` on. Also
/// returns the next unused fresh number, so that a program parsed later
/// can continue the numbering as if the two were one text.
///
/// # Errors
///
/// As [`parse_program`].
pub fn parse_program_at(src: &str, offset: u32, fresh: u32) -> Result<(Program, u32), ParseError> {
    let mut p = Parser::new(src, offset, fresh)?;
    let mut decls = Vec::new();
    while p.peek().is_some() {
        decls.push(p.decl()?);
    }
    Ok((Program { decls }, p.fresh))
}

/// Parses a single expression, requiring all input to be consumed.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntactic errors or trailing
/// input.
///
/// # Example
///
/// ```
/// let e = rml_syntax::parse_expr("(fn x => x) 42").unwrap();
/// assert_eq!(e.size(), 4);
/// ```
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src, 0, 0)?;
    let e = p.expr()?;
    if p.peek().is_some() {
        return Err(p.err_here("trailing input after expression"));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Decl, Expr, ExprKind, PrimOp};

    #[test]
    fn parses_application_left_assoc() {
        let e = parse_expr("f x y").unwrap();
        assert_eq!(
            e,
            Expr::app(Expr::app(Expr::var("f"), Expr::var("x")), Expr::var("y"))
        );
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        let mul: Expr = ExprKind::Prim(
            PrimOp::Mul,
            vec![ExprKind::Int(2).into(), ExprKind::Int(3).into()],
        )
        .into();
        assert_eq!(
            e,
            ExprKind::Prim(PrimOp::Add, vec![ExprKind::Int(1).into(), mul]).into()
        );
    }

    #[test]
    fn cons_is_right_assoc() {
        let e = parse_expr("1 :: 2 :: nil").unwrap();
        let tail: Expr = ExprKind::Cons(
            Box::new(ExprKind::Int(2).into()),
            Box::new(ExprKind::Nil.into()),
        )
        .into();
        assert_eq!(
            e,
            ExprKind::Cons(Box::new(ExprKind::Int(1).into()), Box::new(tail)).into()
        );
    }

    #[test]
    fn list_literal_desugars_to_cons() {
        assert_eq!(
            parse_expr("[1, 2]").unwrap(),
            parse_expr("1 :: 2 :: nil").unwrap()
        );
        assert_eq!(parse_expr("[]").unwrap(), ExprKind::Nil.into());
    }

    #[test]
    fn tuples_nest_right() {
        assert_eq!(
            parse_expr("(1, 2, 3)").unwrap(),
            parse_expr("(1, (2, 3))").unwrap()
        );
    }

    #[test]
    fn projections() {
        let e = parse_expr("#1 p + #2 p").unwrap();
        assert_eq!(
            e,
            ExprKind::Prim(
                PrimOp::Add,
                vec![
                    ExprKind::Sel(1, Box::new(Expr::var("p"))).into(),
                    ExprKind::Sel(2, Box::new(Expr::var("p"))).into()
                ]
            )
            .into()
        );
    }

    #[test]
    fn let_with_fun_and_val() {
        let e = parse_expr("let val x = 1 fun f y = y + x in f 2 end").unwrap();
        let ExprKind::Let { decls, .. } = e.kind else {
            panic!("expected let")
        };
        assert_eq!(decls.len(), 2);
        assert!(matches!(decls[0], Decl::Val(..)));
        assert!(matches!(decls[1], Decl::Fun(..)));
    }

    #[test]
    fn mutual_recursion_with_and() {
        let p = parse_program("fun even n = if n = 0 then true else odd (n - 1) and odd n = if n = 0 then false else even (n - 1)").unwrap();
        let Decl::Fun(binds) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(binds.len(), 2);
    }

    #[test]
    fn case_on_lists_both_orders() {
        let a = parse_expr("case xs of nil => 0 | h :: t => h").unwrap();
        let b = parse_expr("case xs of h :: t => h | nil => 0").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn andalso_orelse_desugar_to_if() {
        assert_eq!(
            parse_expr("a andalso b").unwrap(),
            parse_expr("if a then b else false").unwrap()
        );
        assert_eq!(
            parse_expr("a orelse b").unwrap(),
            parse_expr("if a then true else b").unwrap()
        );
    }

    #[test]
    fn refs_and_assignment() {
        let e = parse_expr("r := !r + 1").unwrap();
        assert!(matches!(e.kind, ExprKind::Assign(..)));
    }

    #[test]
    fn sequencing_in_parens() {
        let e = parse_expr("(print \"a\"; 1)").unwrap();
        assert!(matches!(e.kind, ExprKind::Seq(..)));
    }

    #[test]
    fn annotations() {
        let e = parse_expr("(f : int -> int)").unwrap();
        assert!(matches!(e.kind, ExprKind::Ann(..)));
    }

    #[test]
    fn exceptions_parse() {
        let p = parse_program(
            "exception E of string fun f x = raise x val g = fn x => x handle E s => s",
        )
        .unwrap();
        assert_eq!(p.decls.len(), 3);
    }

    #[test]
    fn unit_param_in_fun() {
        let p = parse_program("fun main () = 42").unwrap();
        let Decl::Fun(binds) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(binds[0].params.len(), 1);
        assert_eq!(binds[0].params[0].1, Some(crate::ast::TyAnn::Unit));
    }

    #[test]
    fn negative_literals() {
        assert_eq!(parse_expr("~3").unwrap(), ExprKind::Int(-3).into());
        assert!(matches!(
            parse_expr("~x").unwrap().kind,
            ExprKind::Prim(PrimOp::Neg, _)
        ));
    }

    #[test]
    fn string_concat_precedence() {
        // ^ at additive level, below comparison
        let e = parse_expr("\"a\" ^ \"b\" = \"ab\"").unwrap();
        assert!(matches!(e.kind, ExprKind::Prim(PrimOp::Eq, _)));
    }

    #[test]
    fn fun_with_annotations() {
        let p = parse_program("fun f (x : int) : int = x + 1").unwrap();
        let Decl::Fun(binds) = &p.decls[0] else {
            panic!()
        };
        assert!(binds[0].ret.is_some());
        assert!(binds[0].params[0].1.is_some());
    }

    #[test]
    fn parse_error_has_position() {
        let err = parse_expr("let val = 3 in x end").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
        assert!(!err.span.is_dummy());
    }

    #[test]
    fn trailing_input_rejected() {
        assert!(parse_expr("1 2 3 )").is_err());
    }

    #[test]
    fn spans_cover_source_text() {
        let src = "f (g 1)";
        let e = parse_expr(src).unwrap();
        assert_eq!((e.span.start, e.span.end), (0, 7));
        let ExprKind::App(f, arg) = &e.kind else {
            panic!("expected application")
        };
        assert_eq!(&src[f.span.start as usize..f.span.end as usize], "f");
        assert_eq!(
            &src[arg.span.start as usize..arg.span.end as usize],
            "(g 1)"
        );
    }

    #[test]
    fn lambda_span_covers_fn_through_body() {
        let src = "val h = fn x => x + 1";
        let p = parse_program(src).unwrap();
        let Decl::Val(_, e) = &p.decls[0] else {
            panic!()
        };
        assert_eq!(
            &src[e.span.start as usize..e.span.end as usize],
            "fn x => x + 1"
        );
    }

    #[test]
    fn a_program_parsed_at_an_offset_continues_spans_and_fresh_names() {
        let (a, fresh) = parse_program_at("fun f (x, y) = x", 0, 0).unwrap();
        let (b, next) = parse_program_at("fun g (x, y) = y", 100, fresh).unwrap();
        assert_eq!((fresh, next), (1, 2));
        for (p, n, start) in [(a, 0, 4), (b, 1, 104)] {
            let Decl::Fun(binds) = &p.decls[0] else {
                panic!()
            };
            assert_eq!(binds[0].params[0].0, Symbol::fresh("p", n));
            assert_eq!(binds[0].span.start, start);
        }
    }

    #[test]
    fn funbind_span_is_the_name() {
        let src = "fun main () = 42";
        let p = parse_program(src).unwrap();
        let Decl::Fun(binds) = &p.decls[0] else {
            panic!()
        };
        let sp = binds[0].span;
        assert_eq!(&src[sp.start as usize..sp.end as usize], "main");
    }

    #[test]
    fn figure1_program_parses() {
        // The paper's problematic program (Fig. 1), adapted to our syntax
        // with `compose` for `op o` and `forcegc` for `work`.
        let src = r#"
            fun compose (f, g) = fn a => f (g a)
            fun run () =
              let val h = compose (fn x => (), fn () => "oh" ^ "no")
                  val u = forcegc ()
              in h () end
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.decls.len(), 2);
    }
}
