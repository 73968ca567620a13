//! The CLI error type: usage errors (bad flags, bad values) and wrapped errors from the
//! experiment and I/O layers.

use std::fmt;

/// Errors surfaced by the `ccache` command-line driver.
#[derive(Debug)]
pub enum CliError {
    /// The command line was malformed: unknown flag, missing value, unparsable value.
    /// These exit with status 2 and point at `--help`.
    Usage(String),
    /// An experiment failed (invalid configuration, layout failure, ...).
    Core(ccache_core::CoreError),
    /// A simulator configuration was rejected.
    Sim(ccache_sim::SimError),
    /// The experiment layer rejected a spec or failed a job.
    Exp(ccache_exp::ExpError),
    /// The session refused a request or the tuner failed.
    Session(column_caching::SessionError),
    /// Reading or writing a file failed, including trace-format violations.
    Io(std::io::Error),
}

impl CliError {
    /// Builds a usage error.
    pub fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// The process exit code this error maps to (2 for usage errors, 1 otherwise).
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "{e}"),
            CliError::Exp(e) => write!(f, "{e}"),
            CliError::Session(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<column_caching::SessionError> for CliError {
    fn from(e: column_caching::SessionError) -> Self {
        use column_caching::SessionError;
        match e {
            SessionError::Sim(e) => CliError::Sim(e),
            SessionError::Core(e) => CliError::Core(e),
            SessionError::Exp(e) => CliError::Exp(e),
            other => CliError::Session(other),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_) => None,
            CliError::Core(e) => Some(e),
            CliError::Sim(e) => Some(e),
            CliError::Exp(e) => Some(e),
            CliError::Session(e) => Some(e),
            CliError::Io(e) => Some(e),
        }
    }
}

impl From<ccache_core::CoreError> for CliError {
    fn from(e: ccache_core::CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<ccache_sim::SimError> for CliError {
    fn from(e: ccache_sim::SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<ccache_exp::ExpError> for CliError {
    fn from(e: ccache_exp::ExpError) -> Self {
        // Unwrap the layers the CLI already has variants for, so error text and exit
        // codes stay what they were before commands routed through the pipeline.
        match e {
            ccache_exp::ExpError::Core(e) => CliError::Core(e),
            ccache_exp::ExpError::Sim(e) => CliError::Sim(e),
            ccache_exp::ExpError::Io(e) => CliError::Io(e),
            other => CliError::Exp(other),
        }
    }
}

impl From<ccache_layout::LayoutError> for CliError {
    fn from(e: ccache_layout::LayoutError) -> Self {
        CliError::Core(e.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_exit_2_everything_else_1() {
        assert_eq!(CliError::usage("bad").exit_code(), 2);
        let io = CliError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "x"));
        assert_eq!(io.exit_code(), 1);
        assert_eq!(CliError::usage("bad flag").to_string(), "bad flag");
    }
}
