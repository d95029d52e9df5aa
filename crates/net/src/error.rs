//! Error type for the HTTP subset.

use std::fmt;
use std::io;
use std::time::Duration;

/// Errors produced by the HTTP client, server and parser.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket I/O failed.
    Io(io::Error),
    /// The peer sent bytes that are not valid for the HTTP subset.
    Protocol(&'static str),
    /// A header or body exceeded the configured size caps.
    TooLarge {
        /// What overflowed ("header", "body", ...).
        what: &'static str,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The server answered with a non-success status the caller did not
    /// expect. Carries the code so callers can branch on 429 vs 404, and
    /// the server's `retry-after` hint (if it sent one) so retry policies
    /// can honor it instead of guessing a backoff.
    Status {
        /// The HTTP status code (404, 429, 503, ...).
        code: u16,
        /// Parsed `retry-after` response header, if present.
        retry_after: Option<Duration>,
    },
    /// The connection closed before a complete message was read.
    UnexpectedEof,
    /// The per-host circuit breaker is open: the request was rejected
    /// locally, without touching the wire (see
    /// [`crate::resilience::BreakerConfig`]).
    CircuitOpen,
}

impl NetError {
    /// Every label [`NetError::kind`] can return — the one list per-kind
    /// counter sets are pre-registered from.
    pub const KINDS: [&'static str; 6] = [
        "io",
        "protocol",
        "too_large",
        "status",
        "eof",
        "circuit_open",
    ];

    /// Short stable label for the error's kind, used as the `kind` label
    /// on telemetry counters; always one of [`NetError::KINDS`].
    pub fn kind(&self) -> &'static str {
        match self {
            NetError::Io(_) => "io",
            NetError::Protocol(_) => "protocol",
            NetError::TooLarge { .. } => "too_large",
            NetError::Status { .. } => "status",
            NetError::UnexpectedEof => "eof",
            NetError::CircuitOpen => "circuit_open",
        }
    }

    /// Whether a fresh attempt on a new connection may plausibly succeed:
    /// connection-level failures (socket I/O, mid-message EOF from a reset
    /// or truncated response). Protocol violations and size-cap overflows
    /// are deterministic peer bugs — retrying them is blind.
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Io(_) | NetError::UnexpectedEof)
    }

    /// Whether a retry policy should consider retrying this error:
    /// [transient](NetError::is_transient) failures plus the retryable
    /// status codes (429 throttles, 500/503 server faults). 4xx lookup
    /// misses are definitive answers, not failures.
    pub(crate) fn is_retryable(&self) -> bool {
        self.is_transient()
            || matches!(
                self,
                NetError::Status {
                    code: 429 | 500 | 503,
                    ..
                }
            )
    }

    /// The server's `retry-after` hint, when this is a status error that
    /// carried one.
    pub(crate) fn retry_after(&self) -> Option<Duration> {
        match self {
            NetError::Status { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Protocol(m) => write!(f, "protocol: {m}"),
            NetError::TooLarge { what, limit } => {
                write!(f, "{what} exceeds limit of {limit} bytes")
            }
            NetError::Status { code, retry_after } => {
                write!(f, "unexpected status {code}")?;
                if let Some(d) = retry_after {
                    write!(f, " (retry after {:?})", d)?;
                }
                Ok(())
            }
            NetError::UnexpectedEof => write!(f, "connection closed mid-message"),
            NetError::CircuitOpen => write!(f, "circuit breaker open for host"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A [`NetError::Status`] with no retry hint.
    fn status(code: u16) -> NetError {
        NetError::Status {
            code,
            retry_after: None,
        }
    }

    #[test]
    fn display_and_source() {
        let e = NetError::from(io::Error::other("boom"));
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(status(429).to_string().contains("429"));
        assert!(NetError::TooLarge {
            what: "body",
            limit: 10
        }
        .to_string()
        .contains("body"));
        assert!(std::error::Error::source(&NetError::UnexpectedEof).is_none());
        assert!(NetError::CircuitOpen.to_string().contains("breaker"));
    }

    #[test]
    fn kinds_are_stable_labels_and_all_listed() {
        let variants = [
            (NetError::from(io::Error::other("boom")), "io"),
            (NetError::Protocol("x"), "protocol"),
            (
                NetError::TooLarge {
                    what: "body",
                    limit: 1,
                },
                "too_large",
            ),
            (status(404), "status"),
            (NetError::UnexpectedEof, "eof"),
            (NetError::CircuitOpen, "circuit_open"),
        ];
        for (err, want) in &variants {
            // Exhaustive on purpose: a new variant fails to compile here
            // until it is added to `variants` (and so checked below).
            match err {
                NetError::Io(_)
                | NetError::Protocol(_)
                | NetError::TooLarge { .. }
                | NetError::Status { .. }
                | NetError::UnexpectedEof
                | NetError::CircuitOpen => {}
            }
            assert_eq!(err.kind(), *want);
            assert!(NetError::KINDS.contains(&err.kind()), "{want} not in KINDS");
        }
        assert_eq!(variants.len(), NetError::KINDS.len());
    }

    #[test]
    fn transience_is_connection_level_only() {
        assert!(NetError::from(io::Error::other("reset")).is_transient());
        assert!(NetError::UnexpectedEof.is_transient());
        assert!(!NetError::Protocol("junk").is_transient());
        assert!(!status(503).is_transient());
        assert!(!NetError::CircuitOpen.is_transient());
    }

    #[test]
    fn retryability_branches_on_the_error_not_magic_literals() {
        for code in [429, 500, 503] {
            assert!(status(code).is_retryable(), "{code}");
        }
        for code in [400, 404] {
            assert!(!status(code).is_retryable(), "{code}");
        }
        assert!(NetError::UnexpectedEof.is_retryable());
        assert!(!NetError::CircuitOpen.is_retryable());
        assert_eq!(
            NetError::Status {
                code: 503,
                retry_after: Some(Duration::from_millis(250)),
            }
            .retry_after(),
            Some(Duration::from_millis(250))
        );
        assert_eq!(status(503).retry_after(), None);
    }
}
