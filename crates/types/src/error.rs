//! Error handling for the pager.

use std::fmt;
use std::io;

use crate::ids::{PageId, ServerId, StoreKey};

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, RmpError>;

/// Typed failure reason carried in protocol `Error` frames.
///
/// Replaces string matching on error messages: a server reports *why* a
/// request failed as one of these codes, and the client maps each code
/// to pager-level behaviour (`OutOfMemory` → try another server,
/// `ShuttingDown` → treat the server as gone, ...). The human-readable
/// message travels alongside the code for diagnostics only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The server's swap allocation is exhausted; the request may
    /// succeed on a different server.
    OutOfMemory,
    /// The request named a page or group the server does not hold.
    UnknownKey,
    /// The server is draining connections and will not accept work.
    ShuttingDown,
    /// An unexpected server-side failure; not attributable to the
    /// request.
    Internal,
    /// A page payload failed its end-to-end checksum: the frame arrived
    /// intact (the framing CRC passed) but the page bytes do not match
    /// the checksum stamped by the writer.
    Corrupt,
    /// Every session the server may run is taken; the connection was
    /// refused. Transient by construction — the client
    /// should back off and retry rather than declare the server dead.
    Overloaded,
}

impl ErrorCode {
    /// Wire encoding of the code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::OutOfMemory => 1,
            ErrorCode::UnknownKey => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Corrupt => 5,
            ErrorCode::Overloaded => 6,
        }
    }

    /// Decodes a wire byte; unknown bytes map to [`ErrorCode::Internal`]
    /// so newer servers stay intelligible to older clients.
    pub fn from_u8(raw: u8) -> ErrorCode {
        match raw {
            1 => ErrorCode::OutOfMemory,
            2 => ErrorCode::UnknownKey,
            3 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Corrupt,
            6 => ErrorCode::Overloaded,
            _ => ErrorCode::Internal,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::OutOfMemory => "out-of-memory",
            ErrorCode::UnknownKey => "unknown-key",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Overloaded => "overloaded",
        };
        f.write_str(name)
    }
}

/// Errors produced by the remote memory pager and its substrates.
#[derive(Debug)]
pub enum RmpError {
    /// An underlying I/O operation failed (socket or local disk).
    Io(io::Error),
    /// A wire-protocol frame was malformed or unexpected.
    Protocol(String),
    /// A server returned a typed `Error` frame; the request itself was
    /// delivered and answered, so the transport is healthy.
    Remote {
        /// Typed failure reason.
        code: ErrorCode,
        /// Diagnostic message supplied by the server.
        message: String,
    },
    /// A request to a server exceeded its configured deadline
    /// (connect, read, or write timeout).
    Timeout(ServerId),
    /// A server denied a swap-space allocation request (out of memory).
    NoSpace(ServerId),
    /// No registered server can accept more pages and no disk fallback is
    /// configured.
    ClusterFull,
    /// The requested page is not stored anywhere the pager knows about.
    PageNotFound(PageId),
    /// A server connection failed or the server crashed mid-operation.
    ServerCrashed(ServerId),
    /// Page contents failed an integrity check after recovery.
    Corrupt(PageId),
    /// A specific remote copy of a page failed its end-to-end checksum:
    /// the bytes fetched from `server` under `key` do not match the
    /// checksum recorded when the page was written. Unlike
    /// [`RmpError::Corrupt`], the faulty copy is attributable, so the
    /// pager can heal from redundancy while avoiding that copy.
    CorruptPage {
        /// Server whose copy failed verification.
        server: ServerId,
        /// Store key of the corrupt copy.
        key: StoreKey,
    },
    /// Recovery was attempted but cannot complete (e.g. two servers of a
    /// mirror pair are down, or a parity group lost two members).
    Unrecoverable(String),
    /// The pager was configured inconsistently.
    Config(String),
    /// The operation is not supported by the selected policy or device.
    Unsupported(&'static str),
}

impl fmt::Display for RmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmpError::Io(e) => write!(f, "i/o error: {e}"),
            RmpError::Protocol(m) => write!(f, "protocol error: {m}"),
            RmpError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            RmpError::Timeout(s) => write!(f, "request to server {s} timed out"),
            RmpError::NoSpace(s) => write!(f, "server {s} denied swap allocation"),
            RmpError::ClusterFull => write!(f, "no server has free memory and no disk fallback"),
            RmpError::PageNotFound(p) => write!(f, "page {p} not found"),
            RmpError::ServerCrashed(s) => write!(f, "server {s} crashed"),
            RmpError::Corrupt(p) => write!(f, "page {p} failed integrity check"),
            RmpError::CorruptPage { server, key } => {
                write!(f, "copy {key} on server {server} failed its checksum")
            }
            RmpError::Unrecoverable(m) => write!(f, "unrecoverable: {m}"),
            RmpError::Config(m) => write!(f, "configuration error: {m}"),
            RmpError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
        }
    }
}

impl std::error::Error for RmpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RmpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RmpError {
    fn from(e: io::Error) -> Self {
        RmpError::Io(e)
    }
}

impl RmpError {
    /// Returns `true` when the error indicates a crashed or unreachable
    /// server, i.e. the condition the reliability policies recover from.
    pub fn is_server_failure(&self) -> bool {
        match self {
            RmpError::ServerCrashed(_) | RmpError::Timeout(_) => true,
            RmpError::Remote { code, .. } => *code == ErrorCode::ShuttingDown,
            RmpError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::ConnectionReset
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::BrokenPipe
                    | io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionRefused
                    | io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }

    /// Returns `true` when a server refused the connection because every
    /// session it may run is taken. The server is alive; back off
    /// and retry instead of starting crash recovery.
    pub fn is_overload(&self) -> bool {
        matches!(
            self,
            RmpError::Remote {
                code: ErrorCode::Overloaded,
                ..
            }
        )
    }

    /// Returns `true` when the error is a deadline expiry: the server
    /// may still be alive but slow, which retry/backoff handles
    /// differently from a hard crash.
    pub fn is_timeout(&self) -> bool {
        match self {
            RmpError::Timeout(_) => true,
            RmpError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RmpError::NoSpace(ServerId(2));
        assert!(e.to_string().contains("srv2"));
        let e = RmpError::PageNotFound(PageId(7));
        assert!(e.to_string().contains("pg7"));
    }

    #[test]
    fn io_errors_convert() {
        let e: RmpError = io::Error::new(io::ErrorKind::BrokenPipe, "gone").into();
        assert!(matches!(e, RmpError::Io(_)));
        assert!(e.is_server_failure());
    }

    #[test]
    fn server_crash_is_server_failure() {
        assert!(RmpError::ServerCrashed(ServerId(0)).is_server_failure());
        assert!(!RmpError::ClusterFull.is_server_failure());
        assert!(!RmpError::Corrupt(PageId(1)).is_server_failure());
        let corrupt = RmpError::CorruptPage {
            server: ServerId(3),
            key: StoreKey(9),
        };
        // A corrupt copy is a data fault, not a transport fault: the
        // server answered, so it must not be treated as crashed.
        assert!(!corrupt.is_server_failure());
        assert!(corrupt.to_string().contains("srv3"));
    }

    #[test]
    fn error_code_roundtrips_on_wire() {
        for code in [
            ErrorCode::OutOfMemory,
            ErrorCode::UnknownKey,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
            ErrorCode::Corrupt,
            ErrorCode::Overloaded,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()), code);
        }
        // Unknown bytes degrade to Internal rather than failing decode.
        assert_eq!(ErrorCode::from_u8(0), ErrorCode::Internal);
        assert_eq!(ErrorCode::from_u8(250), ErrorCode::Internal);
    }

    #[test]
    fn timeout_classification() {
        assert!(RmpError::Timeout(ServerId(1)).is_timeout());
        assert!(RmpError::Timeout(ServerId(1)).is_server_failure());
        let wouldblock: RmpError = io::Error::new(io::ErrorKind::WouldBlock, "t/o").into();
        assert!(wouldblock.is_timeout());
        let timed: RmpError = io::Error::new(io::ErrorKind::TimedOut, "t/o").into();
        assert!(timed.is_timeout());
        assert!(!RmpError::ServerCrashed(ServerId(0)).is_timeout());
        assert!(!RmpError::ClusterFull.is_timeout());
    }

    #[test]
    fn remote_errors_classify_by_code() {
        let oom = RmpError::Remote {
            code: ErrorCode::OutOfMemory,
            message: "swap full".into(),
        };
        assert!(!oom.is_server_failure());
        assert!(!oom.is_timeout());
        let down = RmpError::Remote {
            code: ErrorCode::ShuttingDown,
            message: "draining".into(),
        };
        assert!(down.is_server_failure());
        assert!(oom.to_string().contains("out-of-memory"));
        let busy = RmpError::Remote {
            code: ErrorCode::Overloaded,
            message: "backlog full".into(),
        };
        // Overload is transient: retryable, but neither a crash nor a
        // deadline expiry.
        assert!(busy.is_overload());
        assert!(!busy.is_server_failure());
        assert!(!busy.is_timeout());
        assert!(!down.is_overload());
    }

    #[test]
    fn source_chains_io_errors() {
        use std::error::Error;
        let e: RmpError = io::Error::other("x").into();
        assert!(e.source().is_some());
        assert!(RmpError::ClusterFull.source().is_none());
    }
}
