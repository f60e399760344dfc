//! Tokenizer of the `.has` specification language.
//!
//! The lexer turns source text into a flat token stream with 1-based
//! line/column spans on every token; keywords are not distinguished here
//! (the parser matches identifier text where the grammar expects one), so
//! the token set stays small and the spans stay exact.

use crate::error::SpecError;
use verifas_core::SourceSpan;

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier (or keyword — the parser decides by position).
    Ident(String),
    /// String literal, unquoted and unescaped.
    Str(String),
    /// Integer literal (possibly negative).
    Int(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `:=`
    Assign,
    /// `.`
    Dot,
    /// `!`
    Bang,
    /// `!=`
    NotEq,
    /// `==`
    EqEq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `->`
    Arrow,
    /// End of input.
    Eof,
}

impl Token {
    /// A short human-readable rendering used in error messages.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(name) => format!("`{name}`"),
            Token::Str(s) => format!("string \"{s}\""),
            Token::Int(i) => format!("integer {i}"),
            Token::LBrace => "`{`".into(),
            Token::RBrace => "`}`".into(),
            Token::LParen => "`(`".into(),
            Token::RParen => "`)`".into(),
            Token::Comma => "`,`".into(),
            Token::Semi => "`;`".into(),
            Token::Colon => "`:`".into(),
            Token::Assign => "`:=`".into(),
            Token::Dot => "`.`".into(),
            Token::Bang => "`!`".into(),
            Token::NotEq => "`!=`".into(),
            Token::EqEq => "`==`".into(),
            Token::AndAnd => "`&&`".into(),
            Token::OrOr => "`||`".into(),
            Token::Arrow => "`->`".into(),
            Token::Eof => "end of file".into(),
        }
    }
}

/// A token with the span of its first character.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// 1-based line/column of the token's first character.
    pub span: SourceSpan,
}

struct Lexer<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    line: u32,
    column: u32,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().peekable(),
            line: 1,
            column: 1,
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    /// Peek one character past the next one.
    fn peek2(&self) -> Option<char> {
        let mut ahead = self.chars.clone();
        ahead.next();
        ahead.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        match c {
            Some('\n') => {
                self.line += 1;
                self.column = 1;
            }
            Some(_) => self.column += 1,
            None => {}
        }
        c
    }

    fn here(&self) -> SourceSpan {
        SourceSpan::new(self.line, self.column)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') if self.peek2() == Some('/') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    fn lex_int(&mut self, negative: bool, span: SourceSpan) -> Result<Token, SpecError> {
        let mut digits = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                digits.push(c);
                self.bump();
            } else {
                break;
            }
        }
        let value: i64 = digits.parse().map_err(|_| {
            SpecError::new(span, format!("integer literal `{digits}` is out of range"))
        })?;
        Ok(Token::Int(if negative { -value } else { value }))
    }

    fn next_token(&mut self) -> Result<Spanned, SpecError> {
        self.skip_trivia();
        let span = self.here();
        let Some(c) = self.peek() else {
            return Ok(Spanned {
                token: Token::Eof,
                span,
            });
        };
        let token = match c {
            '{' => {
                self.bump();
                Token::LBrace
            }
            '}' => {
                self.bump();
                Token::RBrace
            }
            '(' => {
                self.bump();
                Token::LParen
            }
            ')' => {
                self.bump();
                Token::RParen
            }
            ',' => {
                self.bump();
                Token::Comma
            }
            ';' => {
                self.bump();
                Token::Semi
            }
            '.' => {
                self.bump();
                Token::Dot
            }
            ':' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    Token::Assign
                } else {
                    Token::Colon
                }
            }
            '!' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    Token::NotEq
                } else {
                    Token::Bang
                }
            }
            '=' => {
                self.bump();
                if self.peek() == Some('=') {
                    self.bump();
                    Token::EqEq
                } else {
                    return Err(SpecError::new(
                        span,
                        "expected `==` (single `=` is not an operator; \
                         use `==` to compare, `:=` to define)",
                    ));
                }
            }
            '&' => {
                self.bump();
                if self.peek() == Some('&') {
                    self.bump();
                    Token::AndAnd
                } else {
                    return Err(SpecError::new(span, "expected `&&`"));
                }
            }
            '|' => {
                self.bump();
                if self.peek() == Some('|') {
                    self.bump();
                    Token::OrOr
                } else {
                    return Err(SpecError::new(span, "expected `||`"));
                }
            }
            '-' => {
                self.bump();
                match self.peek() {
                    Some('>') => {
                        self.bump();
                        Token::Arrow
                    }
                    Some(d) if d.is_ascii_digit() => self.lex_int(true, span)?,
                    _ => {
                        return Err(SpecError::new(
                            span,
                            "expected `->` or a negative integer after `-`",
                        ))
                    }
                }
            }
            '"' => {
                self.bump();
                let mut text = String::new();
                loop {
                    match self.bump() {
                        None | Some('\n') => {
                            return Err(SpecError::new(span, "unterminated string literal"))
                        }
                        Some('"') => break,
                        Some('\\') => match self.bump() {
                            Some('"') => text.push('"'),
                            Some('\\') => text.push('\\'),
                            Some(other) => {
                                return Err(SpecError::new(
                                    span,
                                    format!("unknown escape `\\{other}` in string literal"),
                                ))
                            }
                            None => {
                                return Err(SpecError::new(span, "unterminated string literal"))
                            }
                        },
                        Some(other) => text.push(other),
                    }
                }
                Token::Str(text)
            }
            d if d.is_ascii_digit() => self.lex_int(false, span)?,
            a if a.is_ascii_alphabetic() || a == '_' => {
                let mut name = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Token::Ident(name)
            }
            other => {
                return Err(SpecError::new(
                    span,
                    format!("unexpected character `{other}`"),
                ))
            }
        };
        Ok(Spanned { token, span })
    }
}

/// A `//` comment, collected for the comment-preserving formatter
/// (`verifas fmt` re-anchors these against the canonical layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line the comment starts on.
    pub line: u32,
    /// `true` when the comment is the first non-whitespace on its line
    /// (a standalone comment); `false` when it trails code.
    pub own_line: bool,
    /// The text after `//`, trimmed.
    pub text: String,
}

/// Every `//` comment in `source` (outside string literals), in order.
///
/// Follows the lexer's string rules: escapes only exist inside strings,
/// and a string never spans lines (the lexer rejects one that reaches a
/// newline), so the in-string state resets at each newline.
pub fn collect_comments(source: &str) -> Vec<Comment> {
    let mut out = Vec::new();
    for (index, text) in source.lines().enumerate() {
        let mut chars = text.char_indices().peekable();
        let mut in_string = false;
        while let Some((at, c)) = chars.next() {
            match c {
                '"' => in_string = !in_string,
                '\\' if in_string => {
                    chars.next();
                }
                '/' if !in_string && matches!(chars.peek(), Some((_, '/'))) => {
                    out.push(Comment {
                        line: (index + 1) as u32,
                        own_line: text[..at].trim().is_empty(),
                        text: text[at + 2..].trim().to_owned(),
                    });
                    break;
                }
                _ => {}
            }
        }
    }
    out
}

/// Tokenize a whole source text (stops at the first lexical error).
pub fn tokenize(source: &str) -> Result<Vec<Spanned>, SpecError> {
    let mut lexer = Lexer::new(source);
    let mut out = Vec::new();
    loop {
        let spanned = lexer.next_token()?;
        let done = spanned.token == Token::Eof;
        out.push(spanned);
        if done {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<Token> {
        tokenize(source)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn tokens_and_spans() {
        let toks = tokenize("spec \"x\";\n  a == -3").unwrap();
        assert_eq!(toks[0].token, Token::Ident("spec".into()));
        assert_eq!(toks[0].span, SourceSpan::new(1, 1));
        assert_eq!(toks[1].token, Token::Str("x".into()));
        assert_eq!(toks[1].span, SourceSpan::new(1, 6));
        assert_eq!(toks[2].token, Token::Semi);
        assert_eq!(toks[3].token, Token::Ident("a".into()));
        assert_eq!(toks[3].span, SourceSpan::new(2, 3));
        assert_eq!(toks[4].token, Token::EqEq);
        assert_eq!(toks[5].token, Token::Int(-3));
        assert_eq!(toks[6].token, Token::Eof);
    }

    #[test]
    fn comments_and_operators() {
        assert_eq!(
            kinds("a := b // ignored\n!= ! && || -> : ."),
            vec![
                Token::Ident("a".into()),
                Token::Assign,
                Token::Ident("b".into()),
                Token::NotEq,
                Token::Bang,
                Token::AndAnd,
                Token::OrOr,
                Token::Arrow,
                Token::Colon,
                Token::Dot,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\\c""#),
            vec![Token::Str("a\"b\\c".into()), Token::Eof]
        );
    }

    #[test]
    fn comment_detection_is_string_aware() {
        let has_comments = |source: &str| !collect_comments(source).is_empty();
        assert!(has_comments("a // trailing"));
        assert!(has_comments("// leading\nspec \"x\";"));
        assert!(!has_comments("spec \"not // a comment\";"));
        assert!(!has_comments("a / b"));
        assert!(has_comments("\"s\" // after a string"));
        assert!(!has_comments(""));
    }

    #[test]
    fn lexical_errors_carry_spans() {
        let err = tokenize("ok\n  @").unwrap_err();
        assert_eq!(err.span, SourceSpan::new(2, 3));
        assert!(err.message.contains('@'));
        let err = tokenize("\"open").unwrap_err();
        assert!(err.message.contains("unterminated"));
        let err = tokenize("a = b").unwrap_err();
        assert!(err.message.contains("=="));
    }
}
