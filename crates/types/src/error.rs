//! Error type shared across the workspace.

use std::fmt;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while configuring or driving the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value is inconsistent or out of range.
    Config(String),
    /// An experiment was asked to run with an impossible topology
    /// (e.g. more gang-scheduled VCPUs than cores can ever hold).
    Topology(String),
    /// The simulation reached an internal inconsistency. This always
    /// indicates a bug in the simulator, never in the simulated
    /// software.
    Internal(String),
    /// The host refused a resource the simulator needs, such as a
    /// thread.
    Host(String),
}

impl Error {
    /// Creates a [`Error::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        Error::Config(msg.into())
    }

    /// Creates a [`Error::Topology`].
    pub fn topology(msg: impl Into<String>) -> Self {
        Error::Topology(msg.into())
    }

    /// Creates a [`Error::Internal`].
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }

    /// Creates a [`Error::Host`].
    pub fn host(msg: impl Into<String>) -> Self {
        Error::Host(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(m) => write!(f, "configuration error: {m}"),
            Error::Topology(m) => write!(f, "topology error: {m}"),
            Error::Internal(m) => write!(f, "internal simulator error: {m}"),
            Error::Host(m) => write!(f, "host error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        assert_eq!(Error::config("bad").to_string(), "configuration error: bad");
        assert_eq!(Error::topology("bad").to_string(), "topology error: bad");
        assert!(Error::internal("x").to_string().contains("internal"));
        assert_eq!(Error::host("bad").to_string(), "host error: bad");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::config("x"));
    }
}
