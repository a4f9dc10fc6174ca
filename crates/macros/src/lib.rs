//! Profile-guided meta-programming for Rust's own meta-programming
//! system: procedural macros.
//!
//! This is the workspace's second implementation of the paper's design
//! (the paper validates generality with Chez Scheme + Racket; we use the
//! embedded Scheme system + Rust proc macros). The mapping:
//!
//! - **profile points** are string names (`"site#index"`), generated
//!   deterministically from a site label and the arm's source position —
//!   the same determinism `make-profile-point` guarantees;
//! - **`annotate-expr`** is the instrumentation these macros insert: a
//!   `static` [`pgmp_rt::Point`] per point, hit where the point executes
//!   (it resolves its counter slot once, so later hits hash nothing);
//! - **`profile-query`** is a profile file read *at macro expansion time*
//!   (the `profile "path"` clause, or the `PGMP_PROFILE_PATH` environment
//!   variable), parsed with [`pgmp_rt::Weights`];
//! - **`store-profile`** is [`pgmp_rt::store_profile`] at run time.
//!
//! # `exclusive_cond!`
//!
//! The §6.1 case study, ported: a multi-way conditional whose arms the
//! programmer asserts are mutually exclusive, reordered at compile time by
//! profile weight.
//!
//! ```ignore
//! let class = exclusive_cond!(
//!     profile "profiles/parse.pgmp";   // optional; else $PGMP_PROFILE_PATH
//!     site "parse";
//!     (c == ' ' || c == '\t') => ('w');
//!     (c.is_ascii_digit()) => ('d');
//!     (c == '(') => ('o');
//!     else => ('x')
//! );
//! ```
//!
//! Without a profile the arms keep their source order; with one, they are
//! sorted hottest-first (the `else` arm always stays last). Each arm body
//! is instrumented with the point `"parse#i"` where `i` is the arm's
//! *source* index, so counts stay attached to the same arm across
//! reordered builds — exactly the profile-point stability §3.1 requires.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?})").parse().expect("valid error tokens")
}

struct Cursor {
    toks: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Cursor {
        Cursor {
            toks: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(TokenTree::Ident(i)) if i.to_string() == word)
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), String> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            Err(format!("expected `{c}`, found {:?}", self.peek().map(|t| t.to_string())))
        }
    }

    fn expect_string_literal(&mut self) -> Result<String, String> {
        match self.bump() {
            Some(TokenTree::Literal(l)) => {
                let s = l.to_string();
                if s.starts_with('"') && s.ends_with('"') && s.len() >= 2 {
                    Ok(s[1..s.len() - 1].to_owned())
                } else {
                    Err(format!("expected string literal, found {s}"))
                }
            }
            other => Err(format!("expected string literal, found {:?}", other.map(|t| t.to_string()))),
        }
    }

    fn expect_group(&mut self, delim: Delimiter, what: &str) -> Result<Group, String> {
        match self.bump() {
            Some(TokenTree::Group(g)) if g.delimiter() == delim => Ok(g),
            other => Err(format!(
                "expected parenthesized {what}, found {:?}",
                other.map(|t| t.to_string())
            )),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

/// Resolves `path` against `CARGO_MANIFEST_DIR` when relative, and loads
/// the profile. Missing or malformed profiles yield empty weights (the
/// unprofiled build must always succeed).
fn load_weights(path: Option<&str>) -> pgmp_rt::Weights {
    let path = match path {
        Some(p) => Some(p.to_owned()),
        None => std::env::var("PGMP_PROFILE_PATH").ok(),
    };
    let Some(path) = path else {
        return pgmp_rt::Weights::empty();
    };
    let resolved = if std::path::Path::new(&path).is_absolute() {
        std::path::PathBuf::from(&path)
    } else {
        let base = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
        std::path::Path::new(&base).join(&path)
    };
    pgmp_rt::Weights::load(resolved).unwrap_or_else(|_| pgmp_rt::Weights::empty())
}

/// The instrumentation for one profile point: a block holding the point's
/// `static`, which caches its counter slot, and the hit itself.
fn hit_code(point: &str) -> String {
    format!(
        "{{ static POINT: ::pgmp_rt::Point = ::pgmp_rt::Point::new({point:?}); POINT.hit(); }}"
    )
}

struct Arm {
    /// Condition tokens (absent for the `else` arm).
    cond: Option<String>,
    body: String,
    /// Source index, used as the stable profile-point name.
    index: usize,
}

/// `exclusive_cond!` — see the crate docs for grammar and semantics.
#[proc_macro]
pub fn exclusive_cond(input: TokenStream) -> TokenStream {
    match exclusive_cond_impl(input) {
        Ok(ts) => ts,
        Err(msg) => compile_error(&format!("exclusive_cond!: {msg}")),
    }
}

fn exclusive_cond_impl(input: TokenStream) -> Result<TokenStream, String> {
    let mut cur = Cursor::new(input);

    // Optional: profile "path";
    let mut profile_path: Option<String> = None;
    if cur.at_ident("profile") {
        cur.bump();
        profile_path = Some(cur.expect_string_literal()?);
        cur.expect_punct(';')?;
    }
    // Required: site "label";
    if !cur.at_ident("site") {
        return Err("expected `site \"label\";`".into());
    }
    cur.bump();
    let site = cur.expect_string_literal()?;
    cur.expect_punct(';')?;

    // Arms.
    let mut arms: Vec<Arm> = Vec::new();
    let mut else_arm: Option<Arm> = None;
    let mut index = 0usize;
    while !cur.done() {
        if cur.at_ident("else") {
            cur.bump();
            cur.expect_punct('=')?;
            cur.expect_punct('>')?;
            let body = cur.expect_group(Delimiter::Parenthesis, "else body")?;
            else_arm = Some(Arm {
                cond: None,
                body: body.stream().to_string(),
                index: usize::MAX,
            });
            cur.eat_punct(';');
            if !cur.done() {
                return Err("`else` arm must be last".into());
            }
            break;
        }
        let cond = cur.expect_group(Delimiter::Parenthesis, "condition")?;
        cur.expect_punct('=')?;
        cur.expect_punct('>')?;
        let body = cur.expect_group(Delimiter::Parenthesis, "arm body")?;
        arms.push(Arm {
            cond: Some(cond.stream().to_string()),
            body: body.stream().to_string(),
            index,
        });
        index += 1;
        cur.eat_punct(';');
    }
    if arms.is_empty() {
        return Err("needs at least one condition arm".into());
    }

    // The profile-guided reordering: sort arms hottest-first (stable, so
    // an empty profile keeps source order).
    let weights = load_weights(profile_path.as_deref());
    arms.sort_by(|a, b| {
        let wa = weights.weight(&format!("{site}#{}", a.index));
        let wb = weights.weight(&format!("{site}#{}", b.index));
        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal)
    });

    // Code generation.
    let mut out = String::from("{ ");
    for (i, arm) in arms.iter().enumerate() {
        let kw = if i == 0 { "if" } else { "else if" };
        let cond = arm.cond.as_ref().expect("non-else arm");
        out.push_str(&format!(
            "{kw} {cond} {{ {hit} {body} }} ",
            hit = hit_code(&format!("{site}#{}", arm.index)),
            body = arm.body,
        ));
    }
    match else_arm {
        Some(arm) => out.push_str(&format!(
            "else {{ {hit} {body} }} ",
            hit = hit_code(&format!("{site}#else")),
            body = arm.body,
        )),
        None => out.push_str(
            "else { panic!(\"exclusive_cond!: no clause matched (arms must be exhaustive or provide else)\") } ",
        ),
    }
    out.push('}');
    out.parse()
        .map_err(|e| format!("generated code failed to parse: {e}"))
}

/// `profile!("point", expr)` — the `annotate-expr` analogue: evaluates
/// `expr`, counting executions under the named profile point.
///
/// ```ignore
/// let v = profile!("hot-path", compute());
/// ```
#[proc_macro]
pub fn profile(input: TokenStream) -> TokenStream {
    match profile_impl(input) {
        Ok(ts) => ts,
        Err(msg) => compile_error(&format!("profile!: {msg}")),
    }
}

fn profile_impl(input: TokenStream) -> Result<TokenStream, String> {
    let mut cur = Cursor::new(input);
    let point = cur.expect_string_literal()?;
    cur.expect_punct(',')?;
    let rest: String = cur.toks[cur.pos..]
        .iter()
        .cloned()
        .collect::<TokenStream>()
        .to_string();
    if rest.trim().is_empty() {
        return Err("expected an expression after the point name".into());
    }
    format!("{{ {} {rest} }}", hit_code(&point))
        .parse()
        .map_err(|e| format!("generated code failed to parse: {e}"))
}

/// `static_weight!("point")` or `static_weight!("point", "profile-path")`
/// — the `profile-query` analogue: expands to the point's weight as an
/// `f64` literal, read from the profile at **compile time**.
#[proc_macro]
pub fn static_weight(input: TokenStream) -> TokenStream {
    match static_weight_impl(input) {
        Ok(ts) => ts,
        Err(msg) => compile_error(&format!("static_weight!: {msg}")),
    }
}

fn static_weight_impl(input: TokenStream) -> Result<TokenStream, String> {
    let mut cur = Cursor::new(input);
    let point = cur.expect_string_literal()?;
    let path = if cur.eat_punct(',') {
        Some(cur.expect_string_literal()?)
    } else {
        None
    };
    if !cur.done() {
        return Err("unexpected trailing tokens".into());
    }
    let w = load_weights(path.as_deref()).weight(&point);
    format!("{w:?}f64")
        .parse()
        .map_err(|e| format!("generated code failed to parse: {e}"))
}

/// `#[profiled]` — instruments a function: its body is preceded by a
/// hit of the point `"fn:<name>"`, giving per-function counters like GHC
/// cost-centres (§5.1's default granularity).
#[proc_macro_attribute]
pub fn profiled(_attr: TokenStream, item: TokenStream) -> TokenStream {
    match profiled_impl(item) {
        Ok(ts) => ts,
        Err(msg) => compile_error(&format!("#[profiled]: {msg}")),
    }
}

fn profiled_impl(item: TokenStream) -> Result<TokenStream, String> {
    let toks: Vec<TokenTree> = item.into_iter().collect();
    // Find the function name: the identifier following `fn`.
    let mut name = None;
    for w in toks.windows(2) {
        if let (TokenTree::Ident(kw), TokenTree::Ident(n)) = (&w[0], &w[1]) {
            if kw.to_string() == "fn" {
                name = Some(n.to_string());
                break;
            }
        }
    }
    let name = name.ok_or("can only be applied to `fn` items")?;
    // The body is the final brace group.
    let Some(TokenTree::Group(body)) = toks.last() else {
        return Err("function has no body".into());
    };
    if body.delimiter() != Delimiter::Brace {
        return Err("function has no brace-delimited body".into());
    }
    let signature: String = toks[..toks.len() - 1]
        .iter()
        .cloned()
        .collect::<TokenStream>()
        .to_string();
    format!(
        "{signature} {{ {hit} {body} }}",
        hit = hit_code(&format!("fn:{name}")),
        body = body.stream(),
    )
    .parse()
    .map_err(|e| format!("generated code failed to parse: {e}"))
}
