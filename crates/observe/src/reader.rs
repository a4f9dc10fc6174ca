//! Reading traces back: strict and lenient JSONL readers with typed
//! errors. Corrupt input — truncated tail lines, interleaved garbage,
//! version skew — produces a [`TraceError`], never a panic, matching the
//! workspace's store discipline.

use crate::event::{DecodeError, TraceEvent};
use crate::json;
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a trace could not be (fully) read.
#[derive(Debug)]
pub enum TraceError {
    /// The file could not be opened or read.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// A line was not valid JSON (truncation lands here).
    Json {
        line: usize,
        source: json::JsonError,
    },
    /// A line parsed as JSON but was not a valid versioned event.
    Event { line: usize, source: DecodeError },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { path, source } => {
                write!(f, "cannot read trace {}: {source}", path.display())
            }
            TraceError::Json { line, source } => {
                write!(f, "trace line {line}: invalid JSON ({source})")
            }
            TraceError::Event { line, source } => {
                write!(f, "trace line {line}: {source}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            TraceError::Json { source, .. } => Some(source),
            TraceError::Event { source, .. } => Some(source),
        }
    }
}

impl TraceError {
    /// The 1-based line number the error is about, if line-scoped.
    pub fn line(&self) -> Option<usize> {
        match self {
            TraceError::Io { .. } => None,
            TraceError::Json { line, .. } | TraceError::Event { line, .. } => Some(*line),
        }
    }
}

/// Parses trace text strictly: every non-empty line must be a valid
/// versioned event. Returns the first error encountered.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|source| TraceError::Json {
            line: lineno,
            source,
        })?;
        let ev = TraceEvent::from_json(&v).map_err(|source| TraceError::Event {
            line: lineno,
            source,
        })?;
        events.push(ev);
    }
    Ok(events)
}

/// Parses trace text leniently: bad lines become errors in the second
/// return slot and parsing continues. Useful for inspecting a trace whose
/// tail was truncated by a crash.
pub fn parse_trace_lenient(text: &str) -> (Vec<TraceEvent>, Vec<TraceError>) {
    let mut events = Vec::new();
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line) {
            Err(source) => errors.push(TraceError::Json {
                line: lineno,
                source,
            }),
            Ok(v) => match TraceEvent::from_json(&v) {
                Err(source) => errors.push(TraceError::Event {
                    line: lineno,
                    source,
                }),
                Ok(ev) => events.push(ev),
            },
        }
    }
    (events, errors)
}

fn read_file(path: &Path) -> Result<String, TraceError> {
    std::fs::read_to_string(path).map_err(|source| TraceError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Reads and strictly parses a trace file.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, TraceError> {
    parse_trace(&read_file(path.as_ref())?)
}

/// Reads a trace file leniently; see [`parse_trace_lenient`].
pub fn read_trace_lenient(
    path: impl AsRef<Path>,
) -> Result<(Vec<TraceEvent>, Vec<TraceError>), TraceError> {
    Ok(parse_trace_lenient(&read_file(path.as_ref())?))
}
