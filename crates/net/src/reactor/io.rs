//! The loop core under the server's shards ([`crate::reactor`]) and the
//! client driver ([`crate::mux`]), and the nonblocking I/O primitives
//! they drive sockets with. A loop body watches descriptors, arms
//! deadlines and calls [`Poller::turn`]: the crate's only `poll(2)` and
//! its only clock read, so every deadline is [`Poller::now`] plus a
//! duration.
//!
//! Every loop is level-triggered, so every I/O helper here may stop early
//! — unread bytes, an unflushed tail or a backlog not yet emptied simply
//! make the descriptor poll ready again. This is the only place in the
//! crate that interprets `WouldBlock`.

use super::sys;
use parking_lot::Mutex;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Read chunk size for [`read_available`].
const READ_CHUNK: usize = 16 * 1024;

/// The loop core's one clock.
fn clock() -> Instant {
    Instant::now()
}

/// A loop thread's inbox: messages in posting order, and a self-pipe
/// whose byte ends the loop's [`Poller::turn`].
pub(crate) struct Inbox<M> {
    msgs: Mutex<Vec<M>>,
    tx: UnixStream,
    rx: UnixStream,
}

impl<M> Inbox<M> {
    pub(crate) fn new() -> io::Result<Inbox<M>> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Inbox {
            msgs: Mutex::new(Vec::new()),
            tx,
            rx,
        })
    }

    /// Queue `msg` and end the loop's current or next turn. Only a post
    /// to an empty inbox wakes: the loop drains the pipe before it takes,
    /// so a later post is taken with the one whose wake is pending.
    pub(crate) fn post(&self, msg: M) {
        let mut msgs = self.msgs.lock();
        msgs.push(msg);
        if msgs.len() == 1 {
            self.wake();
        }
    }

    /// End the loop's current or next turn.
    pub(crate) fn wake(&self) {
        // WouldBlock (pipe full) already guarantees a pending wake; any
        // other error means the loop exited — both safe to ignore.
        let _ = (&self.tx).write(&[1]);
    }

    /// Every message posted since the last call, oldest first.
    pub(crate) fn take(&self) -> Vec<M> {
        std::mem::take(&mut *self.msgs.lock())
    }

    /// Swallow every pending wake byte.
    fn drain(&self) {
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

/// A slot table addressed by `u64` tokens, `slot | generation << 32`.
/// Removing a value bumps its slot's generation, so a token held past the
/// removal — readiness for a slot a message just repurposed — reads
/// `None`, never the slot's next occupant.
pub(crate) struct Slab<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<usize>,
}

fn token(idx: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Store `value` and return its token.
    pub(crate) fn insert(&mut self, value: T) -> u64 {
        let idx = self.free.pop().unwrap_or(self.slots.len());
        if idx == self.slots.len() {
            self.slots.push((0, None));
        }
        self.slots[idx].1 = Some(value);
        token(idx, self.slots[idx].0)
    }

    /// The slot `token` names, if it still holds that token's value.
    fn slot(&self, token: u64) -> Option<usize> {
        let idx = token as u32 as usize;
        let (gen, value) = self.slots.get(idx)?;
        (u64::from(*gen) == token >> 32 && value.is_some()).then_some(idx)
    }

    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let idx = self.slot(token)?;
        self.slots[idx].1.as_mut()
    }

    pub(crate) fn remove(&mut self, token: u64) -> Option<T> {
        let idx = self.slot(token)?;
        self.free.push(idx);
        let (gen, value) = &mut self.slots[idx];
        *gen = gen.wrapping_add(1);
        value.take()
    }

    /// Remove every value `pick` selects, in slot order.
    pub(crate) fn remove_where(&mut self, pick: impl Fn(&T) -> bool) -> Vec<T> {
        let picked: Vec<u64> = self
            .iter()
            .filter(|(_, value)| pick(value))
            .map(|(token, _)| token)
            .collect();
        picked.into_iter().filter_map(|t| self.remove(t)).collect()
    }

    /// Every occupied slot with its token, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, (gen, value))| Some((token(idx, *gen), value.as_ref()?)))
    }
}

/// What a loop blocks on: the poll set it rebuilds every turn, the one
/// deadline bound, and the clock.
pub(crate) struct Poller {
    fds: Vec<sys::PollFd>,
    /// `tokens[i]` names `fds[i]`.
    tokens: Vec<u64>,
    /// The last turn's ready `(token, revents)`, last-watched first.
    ready: Vec<(u64, i16)>,
    deadline: Option<Instant>,
    now: Instant,
}

impl Poller {
    pub(crate) fn new() -> Poller {
        Poller {
            fds: Vec::new(),
            tokens: Vec::new(),
            ready: Vec::new(),
            deadline: None,
            now: clock(),
        }
    }

    /// Poll `fd` for `events` in the next turn, reporting it as `token`.
    pub(crate) fn watch(&mut self, fd: RawFd, events: i16, token: u64) {
        self.fds.push(sys::PollFd::new(fd, events));
        self.tokens.push(token);
    }

    /// End a turn no later than `deadline`. Only the earliest armed
    /// deadline is kept, a lower bound on every deadline the loop waits
    /// on: one that activity only moves later needs no re-arming.
    pub(crate) fn arm(&mut self, deadline: Instant) {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
    }

    /// Block until a watched descriptor is ready, `inbox` is posted to,
    /// or the armed deadline passes, then read the clock. Returns whether
    /// the armed deadline has passed, which disarms it: the loop then
    /// sweeps, arming what it still waits on (see [`Poller::expired`]).
    pub(crate) fn turn<M>(&mut self, inbox: &Inbox<M>) -> bool {
        self.fds
            .push(sys::PollFd::new(inbox.rx.as_raw_fd(), sys::POLLIN));
        // Time stands still within a turn: deadlines armed since the last
        // clock read are measured from it.
        let timeout = self.deadline.map(|d| d.saturating_duration_since(self.now));
        // A failed `poll` writes no `revents`: a turn with nothing ready.
        let _ = sys::poll_fds(&mut self.fds, timeout);
        if self.fds.pop().is_some_and(|wake| wake.readable()) {
            inbox.drain();
        }
        self.ready.clear();
        for (fd, &token) in self.fds.iter().zip(&self.tokens).rev() {
            if fd.revents() != 0 {
                self.ready.push((token, fd.revents()));
            }
        }
        self.fds.clear();
        self.tokens.clear();
        self.now = clock();
        let due = self.deadline.is_some_and(|d| d <= self.now);
        if due {
            self.deadline = None;
        }
        due
    }

    /// The next descriptor the last turn found ready, as `(token,
    /// revents)`, in watch order.
    pub(crate) fn ready(&mut self) -> Option<(u64, i16)> {
        self.ready.pop()
    }

    /// The clock as the last turn read it.
    pub(crate) fn now(&self) -> Instant {
        self.now
    }

    /// A due turn's sweep of `slab`: the tokens whose `deadline` has
    /// passed, in slot order. Every later deadline is armed again.
    pub(crate) fn expired<T>(
        &mut self,
        slab: &Slab<T>,
        deadline: impl Fn(&T) -> Option<Instant>,
    ) -> Vec<u64> {
        let mut expired = Vec::new();
        for (token, value) in slab.iter() {
            match deadline(value) {
                Some(d) if d <= self.now => expired.push(token),
                Some(d) => self.arm(d),
                None => {}
            }
        }
        expired
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
        let inbox = Inbox::<()>::new().unwrap();
        let pipe = || sys::PollFd::new(inbox.rx.as_raw_fd(), sys::POLLIN);
        assert!(!readable(pipe(), Duration::ZERO));
        inbox.wake();
        inbox.wake();
        assert!(readable(pipe(), Duration::from_secs(5)));
        inbox.drain();
        assert!(!readable(pipe(), Duration::ZERO), "drain left bytes");
    }

    #[test]
    fn only_a_post_to_an_empty_inbox_writes_a_wake() {
        let inbox = Inbox::new().unwrap();
        let pending = |inbox: &Inbox<u32>| {
            let mut sink = [0u8; 64];
            let mut n = 0;
            while let Ok(got) = (&inbox.rx).read(&mut sink) {
                n += got;
            }
            n
        };
        for i in 0..1000 {
            inbox.post(i);
        }
        assert_eq!(pending(&inbox), 1, "a batch of posts wakes once");
        assert_eq!(inbox.take().len(), 1000);
        inbox.post(1000);
        assert_eq!(pending(&inbox), 1, "a post after a take wakes again");
    }

    #[test]
    fn a_token_outlived_by_its_slot_reads_none() {
        let mut slab = Slab::new();
        let first = slab.insert("first");
        let kept = slab.insert("kept");
        assert_eq!(slab.remove(first), Some("first"));
        assert_eq!(slab.remove(first), None, "a token removes once");
        let reused = slab.insert("reused");
        assert_eq!(reused as u32, first as u32, "the freed slot is reused");
        assert_eq!(slab.get_mut(first), None);
        assert_eq!(slab.remove(first), None);
        assert_eq!(slab.get_mut(reused), Some(&mut "reused"));
        assert_eq!(slab.get_mut(kept), Some(&mut "kept"));
        let listed: Vec<_> = slab.iter().collect();
        assert_eq!(listed, [(reused, &"reused"), (kept, &"kept")]);
        assert_ne!(reused, first);
    }

    #[test]
    fn remove_where_takes_the_picked_values_and_stales_their_tokens() {
        let mut slab = Slab::new();
        let tokens: Vec<u64> = (0..5).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.remove_where(|&i| i % 2 == 0), [0, 2, 4]);
        assert_eq!(slab.get_mut(tokens[2]), None);
        assert_eq!(slab.get_mut(tokens[3]), Some(&mut 3));
        let left: Vec<i32> = slab.iter().map(|(_, &i)| i).collect();
        assert_eq!(left, [1, 3]);
    }

    #[test]
    fn arm_keeps_the_earliest_deadline_and_turn_reports_it_once_passed() {
        let inbox = Inbox::<()>::new().unwrap();
        let mut poller = Poller::new();
        let early = poller.now() + Duration::from_millis(500);
        let late = poller.now() + Duration::from_secs(5);
        poller.arm(late);
        poller.arm(early);
        poller.arm(late);
        // A post ends the turn before the deadline: not due.
        inbox.post(());
        assert!(!poller.turn(&inbox));
        assert!(poller.now() < early);
        // Taken, as every loop does after a turn, so the next post wakes.
        assert_eq!(inbox.take().len(), 1);
        // Nothing posted: the turn waits for the earliest deadline.
        while !poller.turn(&inbox) {}
        assert!(poller.now() >= early, "due before the deadline");
        assert!(poller.now() < late, "waited for the latest deadline");
        // A due turn disarms.
        inbox.post(());
        assert!(!poller.turn(&inbox));
    }

    #[test]
    fn ready_names_the_watched_tokens_when_slots_are_sparse() {
        let inbox = Inbox::<()>::new().unwrap();
        let pairs: Vec<_> = (0..6).map(|_| connected_pair()).collect();
        let mut slab = Slab::new();
        let tokens: Vec<u64> = (0..pairs.len()).map(|i| slab.insert(i)).collect();
        // Holes, and a reused slot under a new generation.
        for i in [0, 2, 3] {
            slab.remove(tokens[i]);
        }
        let reused = slab.insert(3);
        // Bytes wait on pairs 0 (not watched), 1, 3 and 4; 5 is idle.
        for i in [0, 1, 3, 4] {
            assert!(write_pending(&pairs[i].1, b"x", &mut 0).unwrap());
        }
        let mut poller = Poller::new();
        let got = loop {
            for (token, &i) in slab.iter() {
                poller.watch(pairs[i].0.as_raw_fd(), sys::POLLIN, token);
            }
            poller.turn(&inbox);
            let got: Vec<u64> = std::iter::from_fn(|| poller.ready())
                .map(|(token, revents)| {
                    assert!(revents & sys::POLLIN != 0);
                    token
                })
                .collect();
            if got.len() >= 3 {
                break got;
            }
        };
        assert_eq!(got, [tokens[1], reused, tokens[4]]);
        assert_ne!(reused, tokens[3]);
    }

    #[test]
    fn an_inbox_keeps_posting_order_and_a_post_ends_a_turn() {
        let inbox = std::sync::Arc::new(Inbox::new().unwrap());
        for i in 0..3 {
            inbox.post(i);
        }
        assert_eq!(inbox.take(), [0, 1, 2]);
        assert!(inbox.take().is_empty());
        let mut poller = Poller::new();
        // A watchdog only: a post must end each turn long before it.
        poller.arm(poller.now() + Duration::from_secs(10));
        // The wakes of the posts above end this turn; the next one blocks.
        assert!(!poller.turn(&*inbox), "a pending wake did not end the turn");
        let poster = {
            let inbox = std::sync::Arc::clone(&inbox);
            std::thread::spawn(move || (3..6).for_each(|i| inbox.post(i)))
        };
        let mut got = Vec::new();
        while got.len() < 3 {
            assert!(!poller.turn(&*inbox), "the post did not end the turn");
            got.extend(inbox.take());
        }
        poster.join().unwrap();
        assert_eq!(got, [3, 4, 5]);
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
