//! The `.peachy` surface syntax: a hand-rolled, no-dependency sectioned
//! key/value format (TOML-lite).
//!
//! ```text
//! # comment
//! [section]          # or [section.name]
//! key = "string"     # \n \t \" \\ escapes
//! key = 42           # integer
//! key = 1.5          # float
//! key = true         # bool
//! key = bareword     # unquoted single token → string
//! ```
//!
//! Keys may repeat inside a section (`kill = …` twice schedules two
//! deaths); entry order is preserved. This module only builds the raw
//! document — [`crate::spec`] validates it into a typed
//! [`ScenarioSpec`](crate::ScenarioSpec), attaching the known-key tables
//! that power the "did you mean" hints.
//!
//! **Error quality is a feature**: every failure anywhere in the layer
//! (lexing, validation, compilation) is a [`SpecError`] carrying the
//! 1-based line number, the enclosing `[section]`, a message, and — when
//! a near-miss against a known vocabulary exists — a nearest-key hint.

use std::fmt;

/// Any failure in the scenario layer: parse, validation, or compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line in the spec text (0 when no line applies).
    pub line: usize,
    /// The enclosing section (`"stage.counts"`), or `""` before any.
    pub section: String,
    /// What went wrong.
    pub message: String,
    /// Nearest known key/name, when one is plausibly intended.
    pub hint: Option<String>,
}

impl SpecError {
    /// An error at `line` inside `section`.
    pub fn at(line: usize, section: &str, message: impl Into<String>) -> Self {
        Self {
            line,
            section: section.to_string(),
            message: message.into(),
            hint: None,
        }
    }

    /// Attach a "did you mean" hint: the nearest of `known` to `got`, if
    /// any is close enough to be a plausible typo.
    pub fn with_hint_from(mut self, got: &str, known: &[&str]) -> Self {
        self.hint = nearest(got, known).map(str::to_string);
        self
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error: line {}", self.line)?;
        if !self.section.is_empty() {
            write!(f, " [{}]", self.section)?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(hint) = &self.hint {
            write!(f, " — did you mean `{hint}`?")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecError {}

/// Optimal-string-alignment distance: Levenshtein plus adjacent
/// transposition at cost 1, so `yaer` sits one edit from `year`.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev2 = vec![0usize; b.len() + 1];
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            let mut best = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && a[i] == b[j - 1] && a[i - 1] == b[j] {
                best = best.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The nearest of `known` to `got`, if within a typo-plausible distance
/// (≤ 1 for short words, ≤ len/3 for longer ones).
pub fn nearest<'a>(got: &str, known: &[&'a str]) -> Option<&'a str> {
    let budget = (got.chars().count() / 3).max(1);
    known
        .iter()
        .map(|k| (edit_distance(got, k), *k))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, k)| (*d, k.len()))
        .map(|(_, k)| k)
}

/// One scalar value as written in the spec.
#[derive(Debug, Clone, PartialEq)]
pub enum RawValue {
    /// Quoted or bareword string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// `true` / `false`.
    Bool(bool),
}

impl RawValue {
    /// Tag for type-mismatch messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            RawValue::Str(_) => "string",
            RawValue::Int(_) => "integer",
            RawValue::Float(_) => "float",
            RawValue::Bool(_) => "bool",
        }
    }
}

/// One `key = value` line.
#[derive(Debug, Clone)]
pub struct RawEntry {
    /// The key, verbatim (may be dotted: `col.per_100k`).
    pub key: String,
    /// The parsed scalar.
    pub value: RawValue,
    /// 1-based source line.
    pub line: usize,
}

/// One `[section]` block with its entries in source order.
#[derive(Debug, Clone)]
pub struct RawSection {
    /// Full section name (`"stage.counts"`).
    pub name: String,
    /// 1-based line of the `[…]` header.
    pub line: usize,
    /// Entries in source order; keys may repeat.
    pub entries: Vec<RawEntry>,
}

/// A parsed spec file: sections in source order.
#[derive(Debug, Clone, Default)]
pub struct RawDoc {
    /// Sections in source order.
    pub sections: Vec<RawSection>,
}

/// Parse `.peachy` text into the raw section/entry document.
pub fn parse_document(text: &str) -> Result<RawDoc, SpecError> {
    let mut doc = RawDoc::default();
    let mut section: Option<RawSection> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        let section_name = section.as_ref().map(|s| s.name.clone()).unwrap_or_default();
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(SpecError::at(
                    line_no,
                    &section_name,
                    format!("unterminated section header `{line}`"),
                ));
            };
            let name = name.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(SpecError::at(
                    line_no,
                    &section_name,
                    format!("invalid section name `[{name}]` (letters, digits, `_`, `.`)"),
                ));
            }
            if let Some(done) = section.take() {
                doc.sections.push(done);
            }
            section = Some(RawSection {
                name: name.to_string(),
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(SpecError::at(
                line_no,
                &section_name,
                format!("expected `key = value` or `[section]`, got `{line}`"),
            ));
        };
        let key = key.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        {
            return Err(SpecError::at(
                line_no,
                &section_name,
                format!("invalid key `{key}` (letters, digits, `_`, `.`)"),
            ));
        }
        let Some(sec) = section.as_mut() else {
            return Err(SpecError::at(
                line_no,
                "",
                format!("`{key} = …` before any [section] header"),
            ));
        };
        let value = parse_value(value.trim(), line_no, &sec.name)?;
        sec.entries.push(RawEntry {
            key: key.to_string(),
            value,
            line: line_no,
        });
    }
    if let Some(done) = section.take() {
        doc.sections.push(done);
    }
    Ok(doc)
}

/// Strip a trailing `# comment`, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str => escaped = !escaped,
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => escaped = false,
        }
    }
    line
}

fn parse_value(src: &str, line: usize, section: &str) -> Result<RawValue, SpecError> {
    if src.is_empty() {
        return Err(SpecError::at(line, section, "missing value after `=`"));
    }
    if let Some(rest) = src.strip_prefix('"') {
        return parse_string(rest, line, section);
    }
    match src {
        "true" => return Ok(RawValue::Bool(true)),
        "false" => return Ok(RawValue::Bool(false)),
        _ => {}
    }
    let numeric_start = src.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+');
    if numeric_start {
        if let Ok(i) = src.replace('_', "").parse::<i64>() {
            return Ok(RawValue::Int(i));
        }
        if let Ok(f) = src.replace('_', "").parse::<f64>() {
            return Ok(RawValue::Float(f));
        }
        return Err(SpecError::at(
            line,
            section,
            format!("`{src}` looks numeric but parses as neither integer nor float"),
        ));
    }
    // Bareword: a single identifier-ish token is a string.
    if src
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == ':' || c == '-')
    {
        return Ok(RawValue::Str(src.to_string()));
    }
    Err(SpecError::at(
        line,
        section,
        format!("cannot parse value `{src}` (quote strings with spaces)"),
    ))
}

fn parse_string(rest: &str, line: usize, section: &str) -> Result<RawValue, SpecError> {
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let tail: String = chars.collect();
                if !tail.trim().is_empty() {
                    return Err(SpecError::at(
                        line,
                        section,
                        format!("trailing garbage after closing quote: `{}`", tail.trim()),
                    ));
                }
                return Ok(RawValue::Str(out));
            }
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    return Err(SpecError::at(
                        line,
                        section,
                        format!("unknown escape `\\{other}` (know \\n \\t \\\" \\\\)"),
                    ));
                }
                None => break,
            },
            c => out.push(c),
        }
    }
    Err(SpecError::at(line, section, "unterminated string literal"))
}

impl RawSection {
    /// First entry with `key`, if present.
    pub fn get(&self, key: &str) -> Option<&RawEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Every entry with `key`, in order (repeatable keys).
    pub fn get_all<'a>(&'a self, key: &str) -> impl Iterator<Item = &'a RawEntry> {
        let key = key.to_string();
        self.entries.iter().filter(move |e| e.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_entries_and_types() {
        let doc = parse_document(
            "# a scenario\n[scenario]\nname = demo\n\n[source.rows]\nkind = inline\ntext = \"a b\\nc\"\nn = 42\nfrac = 0.5\nflag = true\n",
        )
        .unwrap();
        assert_eq!(doc.sections.len(), 2);
        assert_eq!(doc.sections[0].name, "scenario");
        let src = &doc.sections[1];
        assert_eq!(src.name, "source.rows");
        assert_eq!(
            src.get("text").unwrap().value,
            RawValue::Str("a b\nc".into())
        );
        assert_eq!(src.get("n").unwrap().value, RawValue::Int(42));
        assert_eq!(src.get("frac").unwrap().value, RawValue::Float(0.5));
        assert_eq!(src.get("flag").unwrap().value, RawValue::Bool(true));
    }

    #[test]
    fn repeated_keys_preserved_in_order() {
        let doc = parse_document("[fault]\nkill = a\nkill = b\n").unwrap();
        let kills: Vec<_> = doc.sections[0].get_all("kill").collect();
        assert_eq!(kills.len(), 2);
        assert_eq!(kills[0].value, RawValue::Str("a".into()));
        assert_eq!(kills[1].value, RawValue::Str("b".into()));
    }

    #[test]
    fn comments_respect_strings() {
        let doc = parse_document("[s]\nk = \"a # not a comment\" # real\n").unwrap();
        assert_eq!(
            doc.sections[0].get("k").unwrap().value,
            RawValue::Str("a # not a comment".into())
        );
    }

    #[test]
    fn errors_carry_line_and_section() {
        let err = parse_document("[stage.one]\nbad line\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.section, "stage.one");
        let err = parse_document("key = 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("before any [section]"));
    }

    #[test]
    fn nearest_finds_plausible_typos_only() {
        assert_eq!(
            nearest("partions", &["partitions", "optimizer"]),
            Some("partitions")
        );
        assert_eq!(nearest("ky", &["key", "kind"]), Some("key"));
        assert_eq!(nearest("zzzzz", &["key", "kind"]), None);
    }

    #[test]
    fn unterminated_string_and_bad_escape_fail() {
        assert!(parse_document("[s]\nk = \"abc\n").is_err());
        let err = parse_document("[s]\nk = \"a\\q\"\n").unwrap_err();
        assert!(err.message.contains("unknown escape"));
    }
}
