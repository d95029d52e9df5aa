//! The nonblocking I/O primitives the event loops share: the server's
//! acceptor and shards in [`crate::reactor`] and the client driver in
//! [`crate::mux`].
//!
//! Every loop is level-triggered `poll(2)`, so every helper here may
//! stop early — unread bytes, an unflushed tail or a backlog not yet
//! emptied simply make the descriptor poll ready again. This is the only
//! place in the crate that interprets `WouldBlock`.

use super::sys;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;

/// Read chunk size for [`read_available`].
const READ_CHUNK: usize = 16 * 1024;

/// A self-pipe that interrupts a blocked `poll`: any thread calls
/// [`wake`](WakePipe::wake), the loop thread polls
/// [`pollfd`](WakePipe::pollfd) and [`drain`](WakePipe::drain)s it.
pub(crate) struct WakePipe {
    tx: UnixStream,
    rx: UnixStream,
}

impl WakePipe {
    pub(crate) fn new() -> io::Result<WakePipe> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(WakePipe { tx, rx })
    }

    /// Make the loop's next (or current) `poll` return.
    pub(crate) fn wake(&self) {
        // WouldBlock (pipe full) already guarantees a pending wake; any
        // other error means the loop exited — both safe to ignore.
        let _ = (&self.tx).write(&[1]);
    }

    /// The poll-set entry the loop thread watches.
    pub(crate) fn pollfd(&self) -> sys::PollFd {
        sys::PollFd::new(self.rx.as_raw_fd(), sys::POLLIN)
    }

    /// Swallow every pending wake byte.
    pub(crate) fn drain(&self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.rx).read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break, // WouldBlock: drained
            }
        }
    }
}

/// Take one connection off a nonblocking listener's backlog; `Ok(None)`
/// once it is empty. `Err` is the listener failing to accept (EMFILE,
/// ECONNABORTED), which leaves the listener itself usable.
pub(crate) fn accept_pending(listener: &TcpListener) -> io::Result<Option<TcpStream>> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Ok(Some(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Append what a readable nonblocking socket has to `buf`, stopping at
/// the first short read. Returns the byte count and whether the peer
/// closed its write side; `Err` is a dead socket.
pub(crate) fn read_available(stream: &TcpStream, buf: &mut Vec<u8>) -> io::Result<(usize, bool)> {
    let mut chunk = [0u8; READ_CHUNK];
    let mut total = 0;
    let mut stream = stream;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok((total, true)),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                total += n;
                if n < chunk.len() {
                    return Ok((total, false));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok((total, false)),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Write `buf[*pos..]` to a nonblocking socket, advancing `*pos`.
/// `Ok(true)` once everything is flushed, `Ok(false)` when the socket
/// pushed back first; `Err` is a dead socket.
pub(crate) fn write_pending(stream: &TcpStream, buf: &[u8], pos: &mut usize) -> io::Result<bool> {
    let mut stream = stream;
    while *pos < buf.len() {
        match stream.write(&buf[*pos..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => *pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn connected_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn readable(fd: sys::PollFd, timeout: Duration) -> bool {
        let mut fds = [fd];
        sys::poll_fds(&mut fds, Some(timeout)).unwrap() == 1 && fds[0].readable()
    }

    #[test]
    fn wake_pipe_wakes_once_then_drains_idle() {
        let pipe = WakePipe::new().unwrap();
        assert!(!readable(pipe.pollfd(), Duration::ZERO));
        pipe.wake();
        pipe.wake();
        assert!(readable(pipe.pollfd(), Duration::from_secs(5)));
        pipe.drain();
        assert!(!readable(pipe.pollfd(), Duration::ZERO), "drain left bytes");
    }

    #[test]
    fn accept_pending_empties_the_backlog_and_never_blocks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        assert!(accept_pending(&listener).unwrap().is_none());
        let _a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _b = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(readable(
            sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN),
            Duration::from_secs(5)
        ));
        assert!(accept_pending(&listener).unwrap().is_some());
        assert!(accept_pending(&listener).unwrap().is_some());
        assert!(accept_pending(&listener).unwrap().is_none());
    }

    #[test]
    fn read_available_reports_bytes_then_eof_and_never_blocks() {
        let (a, b) = connected_pair();
        let mut buf = Vec::new();
        // Nothing to read on an open socket: zero bytes, not EOF, no block.
        assert_eq!(read_available(&a, &mut buf).unwrap(), (0, false));
        // More than one chunk, so the loop has to go round.
        let sent = vec![7u8; READ_CHUNK + 100];
        let mut pos = 0;
        while !write_pending(&b, &sent, &mut pos).unwrap() {
            read_available(&a, &mut buf).unwrap();
        }
        drop(b);
        let mut eof = false;
        while !eof {
            assert!(readable(
                sys::PollFd::new(a.as_raw_fd(), sys::POLLIN),
                Duration::from_secs(5)
            ));
            eof = read_available(&a, &mut buf).unwrap().1;
        }
        assert_eq!(buf, sent);
    }

    #[test]
    fn write_pending_resumes_from_its_cursor_after_pushback() {
        let (a, b) = connected_pair();
        // Far more than loopback socket buffers hold: the first call must
        // push back with the cursor part-way.
        let sent: Vec<u8> = (0..8 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        let mut pos = 0;
        assert!(!write_pending(&a, &sent, &mut pos).unwrap());
        assert!(pos > 0 && pos < sent.len());
        let mut got = Vec::new();
        while !write_pending(&a, &sent, &mut pos).unwrap() {
            read_available(&b, &mut got).unwrap();
        }
        assert_eq!(pos, sent.len());
        while got.len() < sent.len() {
            read_available(&b, &mut got).unwrap();
        }
        assert_eq!(got, sent);
    }
}
