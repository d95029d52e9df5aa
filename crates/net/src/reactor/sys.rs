//! The one `unsafe`-scoped syscall shim in the workspace: thin wrappers
//! over `poll(2)` and the nonblocking-connect trio.
//!
//! The event loops need exactly two primitives the standard library does
//! not expose — "block until any of these descriptors is ready" and
//! "start a TCP connect without blocking, harvest its outcome later".
//! Rather than grow an async runtime (or even a `libc` dependency) for a
//! handful of syscalls, we declare the symbols ourselves: `poll`,
//! `socket`, `connect`, and `getsockopt` are part of the C library every
//! `std` binary already links against. Everything else the reactors need
//! (nonblocking mode, socketpair wake pipes) comes from safe `std` APIs,
//! so `unsafe` stays confined to this module.

#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

/// Readable data (or a peer close, together with [`POLLHUP`]).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (always polled, never requested).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (always polled, never requested).
pub(crate) const POLLHUP: i16 = 0x010;
/// Invalid descriptor (always polled, never requested).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One entry in a `poll(2)` set, ABI-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events` (a mask of [`POLLIN`] /
    /// [`POLLOUT`]).
    pub(crate) fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The returned readiness mask from the last poll.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }

    /// Whether the descriptor has data to read — or an error / hangup,
    /// which a reader must also consume to observe (EOF, ECONNRESET).
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

extern "C" {
    // `nfds_t` is `unsigned long` and `int` is 32-bit on every Unix
    // target this workspace builds for (linux/macos, 64-bit).
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
}

const SOCK_STREAM: i32 = 1;
const AF_INET: i32 = 2;
#[cfg(target_os = "linux")]
const AF_INET6: i32 = 10;
#[cfg(target_os = "macos")]
const AF_INET6: i32 = 30;
#[cfg(target_os = "linux")]
const SOL_SOCKET: i32 = 1;
#[cfg(target_os = "macos")]
const SOL_SOCKET: i32 = 0xffff;
#[cfg(target_os = "linux")]
const SO_ERROR: i32 = 4;
#[cfg(target_os = "macos")]
const SO_ERROR: i32 = 0x1007;
#[cfg(target_os = "linux")]
const EINPROGRESS: i32 = 115;
#[cfg(target_os = "macos")]
const EINPROGRESS: i32 = 36;

/// ABI-compatible `struct sockaddr_in` (BSD variants carry a length
/// prefix byte; Linux packs the family into the first two bytes).
#[repr(C)]
struct SockAddrIn {
    #[cfg(target_os = "macos")]
    sin_len: u8,
    #[cfg(target_os = "macos")]
    sin_family: u8,
    #[cfg(target_os = "linux")]
    sin_family: u16,
    /// Network byte order.
    sin_port: u16,
    /// Network byte order.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// ABI-compatible `struct sockaddr_in6`.
#[repr(C)]
struct SockAddrIn6 {
    #[cfg(target_os = "macos")]
    sin6_len: u8,
    #[cfg(target_os = "macos")]
    sin6_family: u8,
    #[cfg(target_os = "linux")]
    sin6_family: u16,
    /// Network byte order.
    sin6_port: u16,
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    sin6_scope_id: u32,
}

/// Begin a TCP connect without blocking the caller.
///
/// Returns the nonblocking stream plus `true` if the handshake already
/// completed (loopback connects sometimes finish inside the syscall).
/// When it returns `false` the socket is mid-handshake: poll it for
/// [`POLLOUT`], then call [`take_socket_error`] to learn whether the
/// connect succeeded or why it failed. Any error other than
/// `EINPROGRESS` is reported immediately.
pub(crate) fn connect_nonblocking(addr: &SocketAddr) -> io::Result<(TcpStream, bool)> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: plain syscall; a negative return is checked before use.
    let fd = unsafe { socket(domain, SOCK_STREAM, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // Wrap immediately so the descriptor is closed on every early return,
    // and flip to nonblocking through the safe std accessor.
    // SAFETY: `fd` is a fresh descriptor we exclusively own.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    stream.set_nonblocking(true)?;
    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                #[cfg(target_os = "macos")]
                sin_len: std::mem::size_of::<SockAddrIn>() as u8,
                #[cfg(target_os = "macos")]
                sin_family: AF_INET as u8,
                #[cfg(target_os = "linux")]
                sin_family: AF_INET as u16,
                sin_port: v4.port().to_be(),
                sin_addr: u32::from_ne_bytes(v4.ip().octets()),
                sin_zero: [0; 8],
            };
            // SAFETY: `sa` is a live `#[repr(C)]` sockaddr_in and the
            // length passed matches its size exactly.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                #[cfg(target_os = "macos")]
                sin6_len: std::mem::size_of::<SockAddrIn6>() as u8,
                #[cfg(target_os = "macos")]
                sin6_family: AF_INET6 as u8,
                #[cfg(target_os = "linux")]
                sin6_family: AF_INET6 as u16,
                sin6_port: v6.port().to_be(),
                sin6_flowinfo: v6.flowinfo().to_be(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            };
            // SAFETY: `sa` is a live `#[repr(C)]` sockaddr_in6 and the
            // length passed matches its size exactly.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if rc == 0 {
        return Ok((stream, true));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        Ok((stream, false))
    } else {
        Err(err)
    }
}

/// Harvest the outcome of a nonblocking connect after the socket polled
/// writable: `Ok(())` if the handshake succeeded, otherwise the pending
/// socket error (e.g. `ECONNREFUSED`) converted to an [`io::Error`].
pub(crate) fn take_socket_error(fd: RawFd) -> io::Result<()> {
    let mut pending: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    // SAFETY: `pending`/`len` are live stack slots sized for the `int`
    // the kernel writes back for SO_ERROR.
    let rc = unsafe {
        getsockopt(
            fd,
            SOL_SOCKET,
            SO_ERROR,
            (&mut pending as *mut i32).cast(),
            &mut len,
        )
    };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    if pending == 0 {
        Ok(())
    } else {
        Err(io::Error::from_raw_os_error(pending))
    }
}

/// Wait until at least one entry is ready, the timeout elapses (`Ok(0)`),
/// or an error occurs. `None` blocks indefinitely; `Some(ZERO)` is a
/// nonblocking readiness probe. `EINTR` is retried internally.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: i32 = match timeout {
        None => -1,
        // Round sub-millisecond timeouts *up* so a caller sweeping
        // deadlines cannot spin on a zero-duration poll.
        Some(d) => {
            let ms = d.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && !d.is_zero() {
                1
            } else {
                ms
            }
        }
    };
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // structs matching the `pollfd` ABI; the kernel reads `fd` and
        // `events` and writes only `revents`, all within `fds.len()`
        // entries.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Poll a single descriptor and return its readiness mask (`0` if the
/// timeout elapsed first).
pub(crate) fn poll_one(fd: RawFd, events: i16, timeout: Option<Duration>) -> io::Result<i16> {
    let mut fds = [PollFd::new(fd, events)];
    let n = poll_fds(&mut fds, timeout)?;
    Ok(if n == 0 { 0 } else { fds[0].revents })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn zero_timeout_probe_reports_idle_then_ready() {
        let (a, b) = UnixStream::pair().unwrap();
        let ready = poll_one(a.as_raw_fd(), POLLIN, Some(Duration::ZERO)).unwrap();
        assert_eq!(ready, 0, "idle socket must not report readiness");
        (&b).write_all(&[1]).unwrap();
        let ready = poll_one(a.as_raw_fd(), POLLIN, Some(Duration::from_secs(1))).unwrap();
        assert!(ready & POLLIN != 0, "written socket must be readable");
    }

    #[test]
    fn hangup_is_readable() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "peer close must wake a reader");
    }

    #[test]
    fn timeout_expires_without_events() {
        let (a, _b) = UnixStream::pair().unwrap();
        let start = std::time::Instant::now();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(20))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn nonblocking_connect_completes_against_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stream, done) = connect_nonblocking(&addr).unwrap();
        if !done {
            let ready =
                poll_one(stream.as_raw_fd(), POLLOUT, Some(Duration::from_secs(5))).unwrap();
            assert!(ready != 0, "connect never became ready");
        }
        take_socket_error(stream.as_raw_fd()).unwrap();
        // The connected socket really works: round-trip one byte.
        let (mut peer, _) = listener.accept().unwrap();
        peer.write_all(&[7]).unwrap();
        poll_one(stream.as_raw_fd(), POLLIN, Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        use std::io::Read;
        (&stream).read_exact(&mut buf).unwrap();
        assert_eq!(buf, [7]);
    }

    #[test]
    fn nonblocking_connect_to_dead_port_surfaces_refusal() {
        // Bind-then-drop: the port was just free, so the connect is
        // refused rather than timing out.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let (stream, done) = connect_nonblocking(&addr).unwrap();
        if !done {
            poll_one(stream.as_raw_fd(), POLLOUT, Some(Duration::from_secs(5))).unwrap();
        }
        let err =
            take_socket_error(stream.as_raw_fd()).expect_err("connect to a closed port must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn nonblocking_connect_speaks_ipv6() {
        // Environments without a loopback v6 stack skip rather than fail.
        let Ok(listener) = std::net::TcpListener::bind("[::1]:0") else {
            return;
        };
        let addr = listener.local_addr().unwrap();
        let (stream, done) = connect_nonblocking(&addr).unwrap();
        if !done {
            poll_one(stream.as_raw_fd(), POLLOUT, Some(Duration::from_secs(5))).unwrap();
        }
        take_socket_error(stream.as_raw_fd()).unwrap();
        listener.accept().unwrap();
    }
}
