//! The error types shared by all simulator crates.
//!
//! [`ConfigError`] covers invalid configuration; [`DsmError`] is the
//! structured runtime error every fallible surface (trace decode, CLI
//! parsing, results writing, invariant checking) funnels into, carrying a
//! failure class for process exit codes plus a context chain so a failure
//! deep in a sweep still names the point, workload and reference it hit.

use core::fmt;
use std::error::Error;

/// An invalid configuration was supplied (bad sizes, zero counts, mismatched
/// geometry, ...).
///
/// # Example
///
/// ```
/// use dsm_types::Geometry;
/// let err = Geometry::new(48, 4096).unwrap_err();
/// assert!(err.to_string().contains("power of two"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ConfigError {}

/// The failure class of a [`DsmError`], mapped 1:1 onto process exit
/// codes so scripts and CI can distinguish "you called it wrong" from
/// "your input is bad" from "the simulator is broken".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// The command line was malformed (exit code 2).
    Usage,
    /// An input file or argument value was invalid — corrupt trace,
    /// out-of-range scale, unknown system name (exit code 3).
    BadInput,
    /// An internal failure: I/O on results, a panicked sweep point, a
    /// poisoned lock (exit code 4).
    Internal,
    /// The coherence invariant checker found corrupt protocol state
    /// (exit code 4 — the output cannot be trusted).
    InvariantViolation,
    /// A supervised operation exceeded its deadline — a hung subprocess
    /// (exit code 4 — the run did not complete).
    Stalled,
}

impl ErrorKind {
    /// The process exit code for this failure class: 2 usage, 3 bad
    /// input, 4 internal or invariant violation (0 is reserved for
    /// success and never produced by an error).
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorKind::Usage => 2,
            ErrorKind::BadInput => 3,
            ErrorKind::Internal | ErrorKind::InvariantViolation | ErrorKind::Stalled => 4,
        }
    }

    /// A short stable label used in rendered messages and journals.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Usage => "usage",
            ErrorKind::BadInput => "bad input",
            ErrorKind::Internal => "internal",
            ErrorKind::InvariantViolation => "invariant violation",
            ErrorKind::Stalled => "stalled",
        }
    }
}

/// A structured simulator error: a failure class, a root message, and a
/// chain of context frames added as the error propagates outward.
///
/// Context frames are pushed innermost-first with [`DsmError::context`]
/// and rendered outermost-first, so the final message reads top-down like
/// a stack trace:
///
/// ```text
/// bad input: while decoding trace.dsmt: record 17: op byte 3 is not a MemOp
/// ```
///
/// # Example
///
/// ```
/// use dsm_types::{DsmError, ErrorKind};
/// let e = DsmError::bad_input("op byte 3 is not a MemOp")
///     .context("record 17")
///     .context("while decoding trace.dsmt");
/// assert_eq!(e.kind(), ErrorKind::BadInput);
/// assert_eq!(e.exit_code(), 3);
/// assert_eq!(
///     e.to_string(),
///     "bad input: while decoding trace.dsmt: record 17: op byte 3 is not a MemOp"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsmError {
    kind: ErrorKind,
    message: String,
    /// Context frames, innermost first (reverse of display order).
    context: Vec<String>,
}

impl DsmError {
    /// Creates an error of the given kind with a root message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        DsmError {
            kind,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// A malformed command line (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Usage, message)
    }

    /// An invalid input file or argument value (exit code 3).
    pub fn bad_input(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::BadInput, message)
    }

    /// An internal failure (exit code 4).
    pub fn internal(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Internal, message)
    }

    /// A coherence invariant violation (exit code 4).
    pub fn invariant(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::InvariantViolation, message)
    }

    /// A deadline expiry — a hung subprocess (exit code 4).
    pub fn stalled(message: impl Into<String>) -> Self {
        Self::new(ErrorKind::Stalled, message)
    }

    /// Pushes a context frame describing where the error passed through;
    /// frames added later render further to the left (outermost first).
    #[must_use]
    pub fn context(mut self, frame: impl Into<String>) -> Self {
        self.context.push(frame.into());
        self
    }

    /// The failure class.
    #[must_use]
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The root message without kind label or context frames.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The process exit code (see [`ErrorKind::exit_code`]).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        self.kind.exit_code()
    }
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind.label())?;
        f.write_str(": ")?;
        for frame in self.context.iter().rev() {
            f.write_str(frame)?;
            f.write_str(": ")?;
        }
        f.write_str(&self.message)
    }
}

impl Error for DsmError {}

impl From<ConfigError> for DsmError {
    /// Configuration errors are the caller's input being invalid.
    fn from(e: ConfigError) -> Self {
        DsmError::bad_input(e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_message() {
        let e = ConfigError::new("bad things");
        assert_eq!(e.to_string(), "bad things");
    }

    #[test]
    fn implements_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ConfigError>();
        assert_traits::<DsmError>();
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        assert_eq!(DsmError::usage("x").exit_code(), 2);
        assert_eq!(DsmError::bad_input("x").exit_code(), 3);
        assert_eq!(DsmError::internal("x").exit_code(), 4);
        assert_eq!(DsmError::invariant("x").exit_code(), 4);
        assert_eq!(DsmError::stalled("x").exit_code(), 4);
        assert_eq!(ErrorKind::Stalled.label(), "stalled");
    }

    #[test]
    fn context_renders_outermost_first() {
        let e = DsmError::bad_input("root")
            .context("inner")
            .context("outer");
        assert_eq!(e.to_string(), "bad input: outer: inner: root");
        assert_eq!(e.message(), "root");
    }

    #[test]
    fn config_error_converts_to_bad_input() {
        let e: DsmError = ConfigError::new("pc too small").into();
        assert_eq!(e.kind(), ErrorKind::BadInput);
        assert_eq!(e.to_string(), "bad input: pc too small");
    }
}
