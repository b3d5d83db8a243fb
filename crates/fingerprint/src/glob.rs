//! A small glob matcher for path patterns.
//!
//! The vendor rule API of the paper is "regular expression-based"; this
//! reproduction uses the glob dialect every package tool understands
//! instead of pulling a full regex engine:
//!
//! * `?` matches a single character other than `/`;
//! * `*` matches any run of characters not containing `/`;
//! * `**` matches any run of characters *including* `/`;
//! * everything else matches literally.
//!
//! Patterns anchor at both ends (they must match the whole path).

use std::fmt;

/// A compiled glob pattern.
///
/// # Examples
///
/// ```
/// use mirage_fingerprint::Glob;
/// let g = Glob::new("/var/**");
/// assert!(g.matches("/var/lib/mysql/user.frm"));
/// assert!(!g.matches("/usr/lib/libc.so"));
/// let g = Glob::new("/usr/lib/*.so");
/// assert!(g.matches("/usr/lib/libm.so"));
/// assert!(!g.matches("/usr/lib/sub/libm.so"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Glob {
    pattern: String,
    tokens: Vec<Token>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Literal(char),
    AnyChar,
    AnySegment,
    AnyPath,
}

impl Glob {
    /// Compiles `pattern`.
    pub fn new(pattern: impl Into<String>) -> Self {
        let pattern = pattern.into();
        let mut tokens = Vec::new();
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            match chars[i] {
                '*' => {
                    if chars.get(i + 1) == Some(&'*') {
                        tokens.push(Token::AnyPath);
                        i += 2;
                    } else {
                        tokens.push(Token::AnySegment);
                        i += 1;
                    }
                }
                '?' => {
                    tokens.push(Token::AnyChar);
                    i += 1;
                }
                c => {
                    tokens.push(Token::Literal(c));
                    i += 1;
                }
            }
        }
        Glob { pattern, tokens }
    }

    /// Returns `true` if `path` matches the pattern in full.
    pub fn matches(&self, path: &str) -> bool {
        match_tokens(&self.tokens, path)
    }
}

impl fmt::Display for Glob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pattern)
    }
}

/// Matches `path` against `tokens`, one `char` at a time; the unmatched
/// tail of the path is the backtrack point, so nothing is allocated.
fn match_tokens(tokens: &[Token], path: &str) -> bool {
    let Some((token, rest)) = tokens.split_first() else {
        return path.is_empty();
    };
    let mut chars = path.chars();
    match token {
        Token::Literal(c) => chars.next() == Some(*c) && match_tokens(rest, chars.as_str()),
        Token::AnyChar => {
            matches!(chars.next(), Some(ch) if ch != '/') && match_tokens(rest, chars.as_str())
        }
        // Try every split of a non-'/' run, including the empty one.
        Token::AnySegment => loop {
            if match_tokens(rest, chars.as_str()) {
                return true;
            }
            if !matches!(chars.next(), Some(ch) if ch != '/') {
                return false;
            }
        },
        Token::AnyPath => loop {
            if match_tokens(rest, chars.as_str()) {
                return true;
            }
            if chars.next().is_none() {
                return false;
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literals_match_exactly() {
        let g = Glob::new("/etc/my.cnf");
        assert!(g.matches("/etc/my.cnf"));
        assert!(!g.matches("/etc/my.cnf2"));
        assert!(!g.matches("/etc/my_cnf"));
    }

    #[test]
    fn question_mark_single_char() {
        let g = Glob::new("/etc/rc?.d");
        assert!(g.matches("/etc/rc3.d"));
        assert!(!g.matches("/etc/rc33.d"));
        assert!(!g.matches("/etc/rc/.d"), "? must not match a slash");
    }

    #[test]
    fn star_stays_in_segment() {
        let g = Glob::new("/usr/lib/*.so");
        assert!(g.matches("/usr/lib/a.so"));
        assert!(g.matches("/usr/lib/.so"));
        assert!(!g.matches("/usr/lib/x/a.so"));
    }

    #[test]
    fn double_star_crosses_segments() {
        let g = Glob::new("/var/**");
        assert!(g.matches("/var/lib/mysql/db.frm"));
        assert!(g.matches("/var/"));
        assert!(!g.matches("/varx/y"));
        let g = Glob::new("/home/**/.my.cnf");
        assert!(g.matches("/home/u/.my.cnf"));
        assert!(g.matches("/home/a/b/.my.cnf"));
        assert!(!g.matches("/home/u/my.cnf"));
    }

    #[test]
    fn suffix_globs() {
        let g = Glob::new("**/*.xpi");
        assert!(g.matches("/home/u/.mozilla/extensions/foo.xpi"));
        assert!(g.matches("a/b.xpi"));
        assert!(!g.matches("foo.xpi.bak"));
    }

    #[test]
    fn multi_byte_paths_match_per_char() {
        // `?` and `*` consume whole characters, never a byte of one.
        let g = Glob::new("/home/?/*.cnf");
        assert!(g.matches("/home/é/mÿ.cnf"));
        assert!(!g.matches("/home/éé/my.cnf"));
        assert!(Glob::new("/données/**").matches("/données/日本/語.db"));
        assert!(Glob::new("**/語.*").matches("/données/日本/語.db"));
        assert!(!Glob::new("/donn?es/*").matches("/données/日本/語.db"));
        assert!(Glob::new("/日?/語").matches("/日本/語"));
    }

    #[test]
    fn empty_pattern_matches_empty_only() {
        let g = Glob::new("");
        assert!(g.matches(""));
        assert!(!g.matches("x"));
    }

    #[test]
    fn display_roundtrip() {
        let g = Glob::new("/a/**/b*");
        assert_eq!(g.to_string(), "/a/**/b*");
    }
}
