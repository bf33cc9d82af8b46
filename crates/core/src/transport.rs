//! Client-side transport to one remote memory server.

use std::net::{TcpStream, ToSocketAddrs};

use rmp_proto::Message;
use rmp_types::{Result, RmpError, TransportConfig};

/// A request/response channel to one server.
///
/// Production uses [`crate::reactor::WindowedTransport`] (a TCP socket, as
/// in the paper, carrying a request window); tests and benches plug in
/// sessions of in-process servers, which implement `call` and `send_only`
/// and take the provided rest, or script a wire of their own. The pool
/// calls only
/// [`ServerTransport::submit`], [`ServerTransport::reconnect`] and
/// [`ServerTransport::window_stats`]; the other methods serve the
/// provided `submit`.
pub trait ServerTransport: Send {
    /// Sends `msg` and returns the server's reply.
    ///
    /// # Errors
    ///
    /// I/O failures signal a crashed/unreachable server (timeouts arrive
    /// as `TimedOut`/`WouldBlock` I/O errors); protocol `Error` replies
    /// surface as [`rmp_types::RmpError::Remote`].
    fn call(&mut self, msg: &Message) -> Result<Message>;

    /// Sends `msg` without waiting for a reply.
    ///
    /// # Errors
    ///
    /// Propagates send failures.
    fn send_only(&mut self, msg: &Message) -> Result<()>;

    /// Sends every message in `msgs` before reading any reply, keeping
    /// all frames outstanding on the connection at once, then returns the
    /// replies in request order: `n` frames cost one round trip plus
    /// `n - 1` serialized sends instead of `n` full round trips: what a
    /// transport without a request window answers
    /// [`ServerTransport::submit`] with.
    ///
    /// The default degrades to a serial request/response loop so fakes
    /// and single-frame transports stay correct without changes.
    ///
    /// # Errors
    ///
    /// Fails on the first transport failure; a protocol `Error` reply to
    /// any frame surfaces as [`rmp_types::RmpError::Remote`] (replies to
    /// earlier frames are discarded).
    fn call_pipelined(&mut self, msgs: &[Message]) -> Result<Vec<Message>> {
        msgs.iter().map(|m| self.call(m)).collect()
    }

    /// Re-establishes the underlying connection if it broke, used by the
    /// pool's retry ladder before an attempt after a failed one. A
    /// connection that is still up is kept — with the server's session on
    /// it, which holds every page stored through it. Transports without a
    /// reconnect story (in-process fakes that never lose a connection)
    /// keep the default.
    ///
    /// # Errors
    ///
    /// [`RmpError::Unsupported`] when nothing was redialled: by default,
    /// and for a connection that is up; implementations propagate redial
    /// failures.
    fn reconnect(&mut self) -> Result<()> {
        Err(RmpError::Unsupported("transport cannot reconnect"))
    }

    /// Submits `msgs` without waiting for the replies, returning a handle
    /// the caller completes later (see [`crate::reactor::PendingReplies`]).
    /// A transport with a request window returns at once; the provided
    /// version, for transports without one, runs the burst through
    /// [`ServerTransport::call_pipelined`] here and returns a handle that
    /// is already complete — a failure included, which surfaces from
    /// `wait_all`. Callers drive one submit-then-collect path either way;
    /// no in-tree transport returns `None`.
    fn submit(&mut self, msgs: &[Message]) -> Option<Result<crate::reactor::PendingReplies>> {
        let outcome = self.call_pipelined(msgs);
        Some(Ok(crate::reactor::PendingReplies::ready(
            msgs.len(),
            outcome,
        )))
    }

    /// Cumulative request-window counters, when this transport runs a
    /// reactor; `None` for fakes.
    fn window_stats(&self) -> Option<crate::reactor::WindowStats> {
        None
    }
}

/// Opens the socket every connection starts from — "the RMP connects to
/// the remote memory servers using sockets over TCP/IP" (Section 3.1) —
/// under the deadlines of `config`: the connect uses `connect_timeout`,
/// each blocking read/write `read_timeout`/`write_timeout`. The paper's
/// pager relied on kernel TCP timeouts (minutes); a page fault cannot wait
/// that long, so deadlines here are what keeps the paging path bounded.
pub(crate) fn dial(addr: &str, config: &TransportConfig) -> Result<TcpStream> {
    let socket_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| RmpError::Config(format!("address {addr} resolves to nothing")))?;
    let stream = TcpStream::connect_timeout(&socket_addr, config.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::WindowedTransport;
    use std::io::Read;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    fn quick_config() -> TransportConfig {
        TransportConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_millis(200),
            ..TransportConfig::default()
        }
    }

    #[test]
    fn read_deadline_bounds_a_silent_server() {
        // A listener that accepts and then never replies: the exact hang
        // the paper's kernel-timeout pager would sit on for minutes.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let guard = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().expect("accept");
            // Swallow the request, send nothing back, hold the socket open.
            let mut sink = [0u8; 4096];
            while matches!(sock.read(&mut sink), Ok(n) if n > 0) {}
        });

        // The handshake is the first request to go unanswered: the read
        // deadline bounds it, and every call then reports that timeout.
        let start = Instant::now();
        let mut transport =
            WindowedTransport::connect_with(&addr, &quick_config()).expect("connect");
        let err = transport.call(&Message::LoadQuery).expect_err("deadline");
        assert!(err.is_timeout(), "expected timeout, got {err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "call returned in bounded time"
        );
        drop(transport);
        guard.join().expect("server thread");
    }

    #[test]
    fn connect_timeout_bounds_an_unreachable_address() {
        // Reserved TEST-NET-1 address: on a normal network the connect
        // can neither succeed nor be refused, so only the deadline gets
        // us out. Some sandboxed environments intercept the connect and
        // answer — the invariant under test is the *bound*, not the
        // outcome.
        let start = Instant::now();
        let _ = WindowedTransport::connect_with("192.0.2.1:9", &quick_config());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "connect returned in bounded time"
        );
    }

    #[test]
    fn reconnect_redials_the_stored_address() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let guard = std::thread::spawn(move || {
            // Two sequential connections: the original and the redial.
            for _ in 0..2 {
                let (sock, _) = listener.accept().expect("accept");
                drop(sock);
            }
        });
        let mut transport =
            WindowedTransport::connect_with(&addr, &quick_config()).expect("connect");
        transport.reconnect().expect("redial");
        guard.join().expect("listener thread");
    }

    #[test]
    fn default_reconnect_is_unsupported() {
        let (id, clock) = (rmp_types::ServerId(0), crate::Clock::Real);
        let mut local = in_process::Local::new(id, Default::default(), clock);
        assert!(matches!(local.reconnect(), Err(RmpError::Unsupported(_))));
    }
}

/// The crate's own tests' way to an in-process memory server, the socket
/// server's request handler without the socket. A test bends the
/// sessions of a pool: `lose_pageins` reads are lost before any server
/// sees them, and data requests to `late.0` come `late.1` late on the
/// pool's clock. It is this crate's one test transport (CI holds it to
/// one): a fault a unit test needs is a field of `Bend`, not a second
/// transport.
#[cfg(test)]
pub(crate) mod in_process {
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use rmp_proto::Message;
    use rmp_server::{InProcessSession, MemoryServer, ServerConfig};
    use rmp_types::{Result, RmpError, ServerId};

    use crate::{Clock, ServerPool, ServerTransport};

    #[derive(Default)]
    pub(crate) struct Bend {
        pub(crate) lose_pageins: u32,
        pub(crate) late: Option<(ServerId, Duration)>,
    }

    /// Server `.0`'s session, bent by `.2`, late on `.3`.
    pub(crate) struct Local(ServerId, InProcessSession, Arc<Mutex<Bend>>, Clock);

    impl Local {
        /// A session on a fresh default-configured server.
        pub(crate) fn new(id: ServerId, bend: Arc<Mutex<Bend>>, clock: Clock) -> Self {
            let server = MemoryServer::in_process(ServerConfig::default());
            Local(id, server.session(), bend, clock)
        }
    }

    impl ServerTransport for Local {
        fn call(&mut self, msg: &Message) -> Result<Message> {
            let late = {
                let mut bend = self.2.lock().expect("bend lock");
                if bend.lose_pageins > 0 && matches!(msg, Message::PageIn { .. }) {
                    bend.lose_pageins -= 1;
                    let lost = std::io::Error::new(std::io::ErrorKind::TimedOut, "lost");
                    return Err(RmpError::Io(lost));
                }
                bend.late
                    .filter(|&(id, _)| id == self.0 && msg.is_data_op())
            };
            if let Some((_, delay)) = late {
                self.3.sleep(delay);
            }
            match self.1.serve(msg.clone())? {
                Message::Error { code, message } => Err(RmpError::Remote { code, message }),
                reply => Ok(reply),
            }
        }

        fn send_only(&mut self, msg: &Message) -> Result<()> {
            self.call(msg).map(drop)
        }
    }

    /// A pool on `clock` over `n` servers, and the bend its sessions share.
    pub(crate) fn pool(n: u32, clock: Clock) -> (Arc<Mutex<Bend>>, ServerPool) {
        let (bend, mut pool) = (Arc::default(), ServerPool::new());
        pool.set_clock(clock.clone());
        for id in (0..n).map(ServerId) {
            let local = Local::new(id, Arc::clone(&bend), clock.clone());
            pool.add_transport(id, Box::new(local), 1.0);
        }
        (bend, pool)
    }
}
