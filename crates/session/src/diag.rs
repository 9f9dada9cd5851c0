//! Structured diagnostics and a terminal renderer that underlines source.
//!
//! Every error path of the compiler ends in a [`Diagnostic`]: a stable
//! code, a severity, a one-line message, a primary span, and free-form
//! notes. The renderer produces the usual `file:line:col` header followed
//! by the offending source line with a caret underline.

use crate::span::{SourceMap, Span};
use std::fmt;

/// How bad it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Severity {
    /// A hard error; compilation (or checking) failed.
    #[default]
    Error,
    /// A warning; compilation continues.
    Warning,
    /// Supplementary information.
    Note,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

/// A structured compiler diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`E0001` parse, `E0002` type, `E0003`
    /// region inference, `E0004` region-type checking).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// One-line description.
    pub message: String,
    /// The primary location ([`Span::DUMMY`] when unknown).
    pub primary: Span,
    /// Free-form notes appended after the source excerpt.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A fresh error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            primary: Span::DUMMY,
            notes: Vec::new(),
        }
    }

    /// Sets the primary span.
    pub fn with_primary(mut self, span: Span) -> Diagnostic {
        self.primary = span;
        self
    }

    /// Adds a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic against its source, underlining the primary
    /// span. `name` labels the source buffer (a file name or `<expr>`).
    pub fn render(&self, sm: &SourceMap, name: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        );
        if !self.primary.is_dummy() {
            render_span(&mut out, sm, name, self.primary);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  = note: {n}");
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    /// The compatibility form: just the message, so a `Diagnostic` can
    /// stand in anywhere a stringly-typed error used to flow.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Diagnostic {}

fn render_span(out: &mut String, sm: &SourceMap, name: &str, span: Span) {
    use std::fmt::Write;
    let (line, col) = sm.line_col(span.start);
    let text = sm.line_text(line);
    let _ = writeln!(out, "  --> {name}:{line}:{col}");
    let gutter = format!("{line}");
    let _ = writeln!(out, "{:>width$} |", "", width = gutter.len());
    let _ = writeln!(out, "{gutter} | {text}");
    // Underline within this line only (multi-line spans underline to EOL).
    let line_len = text.len() as u32;
    let start = (col - 1).min(line_len);
    let (end_line, end_col) = sm.line_col(span.end);
    let end = if end_line == line {
        (end_col - 1).min(line_len)
    } else {
        line_len
    };
    let width = (end.saturating_sub(start)).max(1) as usize;
    let _ = writeln!(
        out,
        "{:>gw$} | {:sp$}{}",
        "",
        "",
        "^".repeat(width),
        gw = gutter.len(),
        sp = start as usize
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_underline_at_span() {
        let sm = SourceMap::new("val x = 1 + true\n");
        let d = Diagnostic::error("E0002", "type mismatch")
            .with_primary(Span::new(12, 16))
            .with_note("booleans are not ints");
        let r = d.render(&sm, "<test>");
        assert!(r.contains("error[E0002]: type mismatch"), "{r}");
        assert!(r.contains("--> <test>:1:13"), "{r}");
        assert!(r.contains("1 | val x = 1 + true"), "{r}");
        assert!(r.contains("  |             ^^^^"), "{r}");
        assert!(r.contains("= note: booleans are not ints"), "{r}");
    }

    #[test]
    fn display_is_the_bare_message() {
        let d = Diagnostic::error("E0001", "oops").with_primary(Span::new(1, 2));
        assert_eq!(d.to_string(), "oops");
    }

    #[test]
    fn dummy_primary_renders_no_excerpt() {
        let sm = SourceMap::new("x");
        let d = Diagnostic::error("E0003", "no position");
        let r = d.render(&sm, "f");
        assert!(!r.contains("-->"), "{r}");
    }
}
