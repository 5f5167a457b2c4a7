//! Tokenization: the one lexer behind every rule.
//!
//! [`tokenize`] turns a file into a token stream over the Rust subset the
//! workspace uses, with a line/column position on every token. The token
//! rules match short token sequences on it, and the structural rules walk
//! it through the bracket partner table built in [`crate::textual`].
//! String literals keep their text (the `obj!` duplicate-key check needs
//! the keys); comments are dropped.

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// `r"`, `r#"`, `br"`, `br#"` … (any number of `#`).
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    if prev_is_ident(b, i) {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Distinguishes `'a'` / `'\n'` (char literals) from `'static` (lifetimes).
fn is_char_literal(b: &[u8], i: usize) -> bool {
    if i + 1 >= b.len() {
        return false;
    }
    if b[i + 1] == b'\\' {
        return true;
    }
    // `'X'` with exactly one character between the quotes.
    i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\''
}

/// Token category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `let`, `foo`, …).
    Ident,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Integer literal (any base, with suffix/underscores).
    Int,
    /// Float literal.
    Float,
    /// String / raw string / byte string literal (text kept, quotes included).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Punctuation: single char, or one of the combined operators
    /// (`::`, `->`, `=>`, `..`, `..=`, `...`, `==`, `!=`, `<=`, `>=`,
    /// `&&`, `||`, `<<`, `>>`, and the compound assignments).
    Punct,
}

/// One token with its source position (1-indexed line and byte column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Category.
    pub kind: TokKind,
    /// Exact source text of the token.
    pub text: String,
    /// 1-indexed line.
    pub line: u32,
    /// 1-indexed byte column.
    pub col: u32,
}

impl Tok {
    /// `true` if this is punctuation `p`.
    #[must_use]
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// `true` if this is the identifier/keyword `word`.
    #[must_use]
    pub fn is_ident(&self, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text == word
    }
}

/// Combined multi-character operators, longest first (max munch).
const MULTI_PUNCT: [&str; 24] = [
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "..", "==", "!=", "<=", ">=", "&&", "||",
    "<<", ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Tokenizes `src`, dropping comments and whitespace. Never fails: bytes
/// that fit no token class are emitted as single-character puncts, which
/// no rule matches.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut line_start = 0usize;
    macro_rules! pos {
        ($at:expr) => {
            (line, ($at - line_start + 1) as u32)
        };
    }
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < b.len() {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                        line_start = i;
                        continue;
                    }
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let (l, col) = pos!(i);
                let end = raw_string_end(b, i);
                let text = String::from_utf8_lossy(&b[i..end]).into_owned();
                line += text.bytes().filter(|&c| c == b'\n').count() as u32;
                if let Some(last_nl) = text.rfind('\n') {
                    line_start = i + last_nl + 1;
                }
                toks.push(Tok { kind: TokKind::Str, text, line: l, col });
                i = end;
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' && !prev_is_ident(b, i) => {
                let (l, col) = pos!(i);
                let end = quoted_end(b, i + 1);
                push_str_tok(&mut toks, b, i, end, l, col, &mut line, &mut line_start);
                i = end;
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'\'' && !prev_is_ident(b, i) => {
                let (l, col) = pos!(i);
                let end = char_end(b, i + 1);
                let text = String::from_utf8_lossy(&b[i..end]).into_owned();
                toks.push(Tok { kind: TokKind::Char, text, line: l, col });
                i = end;
            }
            b'"' => {
                let (l, col) = pos!(i);
                let end = quoted_end(b, i);
                push_str_tok(&mut toks, b, i, end, l, col, &mut line, &mut line_start);
                i = end;
            }
            b'\'' => {
                let (l, col) = pos!(i);
                if is_char_literal(b, i) {
                    let end = char_end(b, i);
                    let text = String::from_utf8_lossy(&b[i..end]).into_owned();
                    toks.push(Tok { kind: TokKind::Char, text, line: l, col });
                    i = end;
                } else {
                    // Lifetime / label: `'` + identifier.
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    let text = String::from_utf8_lossy(&b[i..j]).into_owned();
                    toks.push(Tok { kind: TokKind::Lifetime, text, line: l, col });
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let (l, col) = pos!(i);
                let (end, float) = number_end(b, i);
                let text = String::from_utf8_lossy(&b[i..end]).into_owned();
                let kind = if float { TokKind::Float } else { TokKind::Int };
                toks.push(Tok { kind, text, line: l, col });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let (l, col) = pos!(i);
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                // `r#ident` raw identifiers: keep the ident part.
                let text = String::from_utf8_lossy(&b[i..j]).into_owned();
                toks.push(Tok { kind: TokKind::Ident, text, line: l, col });
                i = j;
            }
            _ => {
                let (l, col) = pos!(i);
                let rest = &src[i..];
                let mut matched = None;
                for op in MULTI_PUNCT {
                    if rest.starts_with(op) {
                        matched = Some(op);
                        break;
                    }
                }
                match matched {
                    Some(op) => {
                        toks.push(Tok {
                            kind: TokKind::Punct,
                            text: op.to_owned(),
                            line: l,
                            col,
                        });
                        i += op.len();
                    }
                    None => {
                        let ch_len = utf8_len(c);
                        let text = String::from_utf8_lossy(&b[i..(i + ch_len).min(b.len())])
                            .into_owned();
                        toks.push(Tok { kind: TokKind::Punct, text, line: l, col });
                        i += ch_len;
                    }
                }
            }
        }
    }
    toks
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[allow(clippy::too_many_arguments)]
fn push_str_tok(
    toks: &mut Vec<Tok>,
    b: &[u8],
    start: usize,
    end: usize,
    l: u32,
    col: u32,
    line: &mut u32,
    line_start: &mut usize,
) {
    let text = String::from_utf8_lossy(&b[start..end]).into_owned();
    *line += text.bytes().filter(|&c| c == b'\n').count() as u32;
    if let Some(last_nl) = text.rfind('\n') {
        *line_start = start + last_nl + 1;
    }
    toks.push(Tok { kind: TokKind::Str, text, line: l, col });
}

/// End offset of a raw string starting at `start` (`r"`, `br#"` …).
fn raw_string_end(b: &[u8], start: usize) -> usize {
    let mut i = start;
    if b[i] == b'b' {
        i += 1;
    }
    i += 1; // `r`
    let mut hashes = 0;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == b'"' {
            let close = &b[i + 1..];
            if close.len() >= hashes && close[..hashes].iter().all(|&c| c == b'#') {
                return i + hashes + 1;
            }
        }
        i += 1;
    }
    i
}

/// End offset of a `"…"` literal starting at the opening quote.
fn quoted_end(b: &[u8], quote: usize) -> usize {
    let mut i = quote + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// End offset of a char literal starting at the opening `'`.
fn char_end(b: &[u8], quote: usize) -> usize {
    let mut i = quote + 1;
    if i < b.len() && b[i] == b'\\' {
        i += 2;
        while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
            i += 1;
        }
    } else if i < b.len() {
        i += utf8_len(b[i]);
    }
    if i < b.len() && b[i] == b'\'' {
        i += 1;
    }
    i
}

/// End offset of a numeric literal starting at a digit; the bool says
/// whether it lexed as a float. Handles `0x`/`0o`/`0b`, underscores,
/// exponents, and type suffixes; `1..n` keeps the `..` out of the number,
/// and `x.0` tuple indexing never reaches here (the `.` lexes first).
fn number_end(b: &[u8], start: usize) -> (usize, bool) {
    let mut i = start;
    let mut float = false;
    if b[i] == b'0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
        i += 2;
        while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
            i += 1;
        }
        return (i, false);
    }
    while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
        i += 1;
    }
    // Fractional part — but not `..` (range) and not `.ident` (method).
    if i < b.len()
        && b[i] == b'.'
        && !(i + 1 < b.len()
            && (b[i + 1] == b'.' || b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_'))
    {
        float = true;
        i += 1;
        while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
            i += 1;
        }
    }
    // Exponent.
    if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
        let mut j = i + 1;
        if j < b.len() && (b[j] == b'+' || b[j] == b'-') {
            j += 1;
        }
        if j < b.len() && b[j].is_ascii_digit() {
            float = true;
            i = j;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'_') {
                i += 1;
            }
        }
    }
    // Type suffix (`u64`, `f64`, `usize`, …).
    let suffix_start = i;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
        i += 1;
    }
    if b[suffix_start..i].starts_with(b"f") {
        float = true;
    }
    (i, float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn tokenize_numbers_ranges_and_fields() {
        let toks = kinds("0..samples x.0 1.5e-3 0xFF 2_000u64 1.0f64");
        assert_eq!(toks[0], (TokKind::Int, "0".to_owned()));
        assert_eq!(toks[1], (TokKind::Punct, "..".to_owned()));
        assert_eq!(toks[2], (TokKind::Ident, "samples".to_owned()));
        assert_eq!(toks[3], (TokKind::Ident, "x".to_owned()));
        assert_eq!(toks[4], (TokKind::Punct, ".".to_owned()));
        assert_eq!(toks[5], (TokKind::Int, "0".to_owned()));
        assert_eq!(toks[6], (TokKind::Float, "1.5e-3".to_owned()));
        assert_eq!(toks[7], (TokKind::Int, "0xFF".to_owned()));
        assert_eq!(toks[8], (TokKind::Int, "2_000u64".to_owned()));
        assert_eq!(toks[9], (TokKind::Float, "1.0f64".to_owned()));
    }

    #[test]
    fn tokenize_multichar_ops_and_lifetimes() {
        let toks = kinds("a::<T>() -> x; 'outer: loop {} e ..= 3 && b'c' 'd'");
        assert!(toks.iter().any(|t| t == &(TokKind::Punct, "::".to_owned())));
        assert!(toks.iter().any(|t| t == &(TokKind::Punct, "->".to_owned())));
        assert!(toks.iter().any(|t| t == &(TokKind::Lifetime, "'outer".to_owned())));
        assert!(toks.iter().any(|t| t == &(TokKind::Punct, "..=".to_owned())));
        assert!(toks.iter().any(|t| t == &(TokKind::Punct, "&&".to_owned())));
        assert!(toks.iter().any(|t| t.0 == TokKind::Char && t.1 == "b'c'"));
        assert!(toks.iter().any(|t| t.0 == TokKind::Char && t.1 == "'d'"));
    }

    #[test]
    fn tokenize_keeps_string_text_and_positions() {
        let toks = tokenize("let k = \"axis\";\nlet r = r#\"raw\"#;");
        let s = toks.iter().find(|t| t.kind == TokKind::Str).map(|t| t.text.clone());
        assert_eq!(s.as_deref(), Some("\"axis\""));
        let raw = toks.iter().filter(|t| t.kind == TokKind::Str).nth(1).map(|t| &t.text);
        assert_eq!(raw.map(String::as_str), Some("r#\"raw\"#"));
        let second_let = toks.iter().filter(|t| t.is_ident("let")).nth(1);
        assert_eq!(second_let.map(|t| (t.line, t.col)), Some((2, 1)));
    }
}
