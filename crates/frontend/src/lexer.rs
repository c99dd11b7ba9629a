//! Indentation-aware lexer for the DSL.

use crate::FrontendError;

/// A lexical token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub kind: Tok,
    pub line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    // keywords
    Def,
    Return,
    For,
    While,
    In,
    If,
    Else,
    Not,
    And,
    Or,
    True,
    False,
    // punctuation
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Dot,
    Assign,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    Plus,
    Minus,
    Star,
    Slash,
    SlashSlash,
    Percent,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    Newline,
    Indent,
    Dedent,
    Eof,
}

fn keyword(word: &str) -> Option<Tok> {
    Some(match word {
        "def" => Tok::Def,
        "return" => Tok::Return,
        "for" => Tok::For,
        "while" => Tok::While,
        "in" => Tok::In,
        "if" => Tok::If,
        "else" => Tok::Else,
        "not" => Tok::Not,
        "and" => Tok::And,
        "or" => Tok::Or,
        "True" => Tok::True,
        "False" => Tok::False,
        _ => return None,
    })
}

/// Tokenize `source`, emitting `Indent`/`Dedent` pairs from leading
/// whitespace like Python.
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, FrontendError> {
    let mut out = Vec::new();
    // Open indentation levels past column 0, innermost last.
    let mut indents: Vec<usize> = Vec::new();
    let level = |indents: &[usize]| indents.last().copied().unwrap_or(0);
    for (lineno0, raw) in source.lines().enumerate() {
        let line = lineno0 + 1;
        let body = raw.split('#').next().unwrap_or("");
        if body.trim().is_empty() {
            continue;
        }
        let indent = body.len() - body.trim_start_matches(' ').len();
        if body.trim_start().starts_with('\t') || body.starts_with('\t') {
            return Err(FrontendError::at(
                line,
                "tabs are not supported; use spaces",
            ));
        }
        if indent > level(&indents) {
            indents.push(indent);
            out.push(Token {
                kind: Tok::Indent,
                line,
            });
        } else {
            while indent < level(&indents) {
                indents.pop();
                out.push(Token {
                    kind: Tok::Dedent,
                    line,
                });
            }
            if indent != level(&indents) {
                return Err(FrontendError::at(line, "inconsistent indentation"));
            }
        }
        lex_line(body.trim_start_matches(' '), line, &mut out)?;
        out.push(Token {
            kind: Tok::Newline,
            line,
        });
    }
    for _ in indents {
        out.push(Token {
            kind: Tok::Dedent,
            line: source.lines().count(),
        });
    }
    out.push(Token {
        kind: Tok::Eof,
        line: source.lines().count() + 1,
    });
    Ok(out)
}

fn lex_line(text: &str, line: usize, out: &mut Vec<Token>) -> Result<(), FrontendError> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    let push = |out: &mut Vec<Token>, kind: Tok| out.push(Token { kind, line });
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' => i += 1,
            '(' => {
                push(out, Tok::LParen);
                i += 1;
            }
            ')' => {
                push(out, Tok::RParen);
                i += 1;
            }
            '[' => {
                push(out, Tok::LBracket);
                i += 1;
            }
            ']' => {
                push(out, Tok::RBracket);
                i += 1;
            }
            ',' => {
                push(out, Tok::Comma);
                i += 1;
            }
            ':' => {
                push(out, Tok::Colon);
                i += 1;
            }
            '.' => {
                push(out, Tok::Dot);
                i += 1;
            }
            '%' => {
                push(out, Tok::Percent);
                i += 1;
            }
            '+' | '-' | '*' | '/' => {
                let eq = chars.get(i + 1) == Some(&'=');
                if eq {
                    push(
                        out,
                        match c {
                            '+' => Tok::PlusEq,
                            '-' => Tok::MinusEq,
                            '*' => Tok::StarEq,
                            _ => Tok::SlashEq,
                        },
                    );
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'/') {
                    push(out, Tok::SlashSlash);
                    i += 2;
                } else {
                    push(
                        out,
                        match c {
                            '+' => Tok::Plus,
                            '-' => Tok::Minus,
                            '*' => Tok::Star,
                            _ => Tok::Slash,
                        },
                    );
                    i += 1;
                }
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    push(out, Tok::Le);
                    i += 2;
                } else {
                    push(out, Tok::Lt);
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    push(out, Tok::Ge);
                    i += 2;
                } else {
                    push(out, Tok::Gt);
                    i += 1;
                }
            }
            '=' => {
                if chars.get(i + 1) == Some(&'=') {
                    push(out, Tok::EqEq);
                    i += 2;
                } else {
                    push(out, Tok::Assign);
                    i += 1;
                }
            }
            '!' => {
                if chars.get(i + 1) == Some(&'=') {
                    push(out, Tok::NotEq);
                    i += 2;
                } else {
                    return Err(FrontendError::at(line, "unexpected `!`"));
                }
            }
            _ if c.is_ascii_digit() => {
                let mut s = String::new();
                let mut float = false;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || (chars[i] == '-' && s.ends_with('e')))
                {
                    // Trailing method call like `1.clone()` is not a float.
                    if chars[i] == '.'
                        && chars.get(i + 1).map(|n| n.is_alphabetic()).unwrap_or(false)
                    {
                        break;
                    }
                    if chars[i] == '.' || chars[i] == 'e' {
                        float = true;
                    }
                    s.push(chars[i]);
                    i += 1;
                }
                let kind = if float {
                    Tok::Float(s.parse().map_err(|_| {
                        FrontendError::at(line, format!("invalid float literal `{s}`"))
                    })?)
                } else {
                    Tok::Int(s.parse().map_err(|_| {
                        FrontendError::at(line, format!("invalid int literal `{s}`"))
                    })?)
                };
                push(out, kind);
            }
            _ if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    s.push(chars[i]);
                    i += 1;
                }
                push(out, keyword(&s).unwrap_or(Tok::Ident(s)));
            }
            _ => {
                return Err(FrontendError::at(
                    line,
                    format!("unexpected character {c:?}"),
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_operators_and_literals() {
        let k = kinds("x = a + 2.5 * b[1:3]\n");
        assert!(k.contains(&Tok::Assign));
        assert!(k.contains(&Tok::Float(2.5)));
        assert!(k.contains(&Tok::Int(1)));
        assert!(k.contains(&Tok::LBracket));
        assert!(k.contains(&Tok::Colon));
    }

    #[test]
    fn emits_indent_dedent() {
        let k = kinds("for i in range(3):\n    x = 1\ny = 2\n");
        let indents = k.iter().filter(|t| **t == Tok::Indent).count();
        let dedents = k.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn closes_indents_at_eof() {
        let k = kinds("if x:\n    if y:\n        z = 1\n");
        let dedents = k.iter().filter(|t| **t == Tok::Dedent).count();
        assert_eq!(dedents, 2);
        assert_eq!(*k.last().unwrap(), Tok::Eof);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let k = kinds("# a comment\n\nx = 1  # trailing\n");
        assert_eq!(k.iter().filter(|t| matches!(t, Tok::Newline)).count(), 1);
    }

    #[test]
    fn rejects_inconsistent_indentation() {
        assert!(tokenize("if x:\n    a = 1\n  b = 2\n").is_err());
    }

    #[test]
    fn method_call_on_int_receiver_is_not_float() {
        let k = kinds("x = t.size(0)\n");
        assert!(k.contains(&Tok::Dot));
        assert!(k.contains(&Tok::Int(0)));
    }

    #[test]
    fn augmented_assignment_tokens() {
        let k = kinds("a += 1\nb -= 2\nc *= 3\nd /= 4\ne = 7 // 2 % 3\n");
        for t in [
            Tok::PlusEq,
            Tok::MinusEq,
            Tok::StarEq,
            Tok::SlashEq,
            Tok::SlashSlash,
            Tok::Percent,
        ] {
            assert!(k.contains(&t), "{t:?} missing");
        }
    }
}
