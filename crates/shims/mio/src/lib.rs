//! Offline stand-in for the `mio` crate: the readiness-polling surface
//! the serving layer uses, built directly on hand-declared `extern "C"`
//! bindings (std already links libc, so no new dependency enters the
//! air-gapped build).
//!
//! Two backends implement the same [`Poll`] API:
//!
//! * **epoll** (Linux, the default there): `epoll_create1` /
//!   `epoll_ctl` / `epoll_wait`, level-triggered;
//! * **poll(2)** (every other unix): a registration table replayed into
//!   a `pollfd` array per wait. [`Poll::with_backend`] selects it on
//!   Linux too, which is how the unit tests cover both backends.
//!
//! Both are *level-triggered*: an event keeps firing until its cause is
//! drained, which is the simpler contract for the server's event loop
//! (no lost-wakeup class of bugs, at the cost of re-arming interest
//! explicitly via [`Poll::reregister`]).
//!
//! Divergences from the real crate, kept deliberately small:
//!
//! * sources are anything `AsRawFd` — no `event::Source` trait, and the
//!   caller keeps the fd alive while registered;
//! * [`Waker`] exposes an explicit [`Waker::drain`] the event loop calls
//!   when its token fires (real mio drains internally; with a shared
//!   level-triggered pipe the explicit form is clearer and testable).

#![warn(missing_docs)]
#![cfg(unix)]

use std::io;
use std::os::unix::io::AsRawFd;
use std::sync::Mutex;
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = std::os::raw::c_int;
#[allow(non_camel_case_types)]
type c_short = std::os::raw::c_short;
#[allow(non_camel_case_types)]
type c_ulong = std::os::raw::c_ulong;

// The kernel packs `epoll_event` on x86 so the 64-bit data field sits at
// offset 4; other architectures use natural alignment.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn pipe(fds: *mut c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

fn set_nonblocking(fd: c_int) -> io::Result<()> {
    // SAFETY: fcntl on an owned fd with valid GETFL/SETFL arguments.
    unsafe {
        let flags = cvt(fcntl(fd, F_GETFL, 0))?;
        cvt(fcntl(fd, F_SETFL, flags | O_NONBLOCK))?;
    }
    Ok(())
}

/// Identifies one registered source in poll results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(pub usize);

/// Readiness interest: readable, writable, or both (`|`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Interested in read readiness.
    pub const READABLE: Interest = Interest(1);
    /// Interested in write readiness.
    pub const WRITABLE: Interest = Interest(2);
    /// Interested in nothing (hangup/error still reported).
    pub const NONE: Interest = Interest(0);

    /// Does this interest include read readiness?
    pub fn is_readable(self) -> bool {
        self.0 & 1 != 0
    }

    /// Does this interest include write readiness?
    pub fn is_writable(self) -> bool {
        self.0 & 2 != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One readiness event.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: Token,
    readable: bool,
    writable: bool,
    error: bool,
    hup: bool,
}

impl Event {
    /// The token the source was registered with.
    pub fn token(&self) -> Token {
        self.token
    }

    /// The source is ready to read (includes hangup/error, so a read is
    /// always the way to observe the condition).
    pub fn is_readable(&self) -> bool {
        self.readable || self.hup || self.error
    }

    /// The source is ready to write.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// The peer hung up or the source errored.
    pub fn is_closed(&self) -> bool {
        self.hup || self.error
    }
}

/// A reusable batch of events filled by [`Poll::poll`].
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// An empty batch with the given capacity hint.
    pub fn with_capacity(cap: usize) -> Events {
        Events {
            inner: Vec::with_capacity(cap),
        }
    }

    /// Iterates the events of the last poll.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.inner.iter()
    }

    /// No events were ready (the poll timed out).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// Which syscall family a [`Poll`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` (default on Linux).
    Epoll,
    /// Portable `poll(2)` (default elsewhere; [`Poll::with_backend`]
    /// selects it on Linux too, so tests cover both).
    PollSyscall,
}

enum Impl {
    Epoll {
        epfd: c_int,
    },
    PollSyscall {
        table: Mutex<Vec<(c_int, Token, Interest)>>,
    },
}

/// The readiness selector: register fds with a token + interest, then
/// [`poll`](Poll::poll) for whatever became ready.
pub struct Poll {
    inner: Impl,
}

impl Poll {
    /// A selector on the platform-default backend (epoll on Linux,
    /// `poll(2)` elsewhere).
    pub fn new() -> io::Result<Poll> {
        if cfg!(target_os = "linux") {
            Poll::with_backend(Backend::Epoll)
        } else {
            Poll::with_backend(Backend::PollSyscall)
        }
    }

    /// A selector on an explicit backend (tests exercise both on Linux).
    pub fn with_backend(backend: Backend) -> io::Result<Poll> {
        let inner = match backend {
            Backend::Epoll => {
                // SAFETY: plain syscall, the fd is owned by this Poll.
                let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
                Impl::Epoll { epfd }
            }
            Backend::PollSyscall => Impl::PollSyscall {
                table: Mutex::new(Vec::new()),
            },
        };
        Ok(Poll { inner })
    }

    /// The backend this selector runs on.
    pub fn backend(&self) -> Backend {
        match self.inner {
            Impl::Epoll { .. } => Backend::Epoll,
            Impl::PollSyscall { .. } => Backend::PollSyscall,
        }
    }

    /// Starts watching `source` for `interest`, reported as `token`.
    /// The caller keeps the source alive (and deregisters it) — the shim
    /// tracks raw fds only.
    pub fn register(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(source.as_raw_fd(), token, interest, false)
    }

    /// Changes the interest (and/or token) of an already-registered
    /// source.
    pub fn reregister(
        &self,
        source: &impl AsRawFd,
        token: Token,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(source.as_raw_fd(), token, interest, true)
    }

    fn ctl(&self, fd: c_int, token: Token, interest: Interest, modify: bool) -> io::Result<()> {
        match &self.inner {
            Impl::Epoll { epfd } => {
                let mut ev = EpollEvent {
                    events: epoll_bits(interest),
                    data: token.0 as u64,
                };
                let op = if modify { EPOLL_CTL_MOD } else { EPOLL_CTL_ADD };
                // SAFETY: `ev` outlives the call; fd validity is the
                // caller's contract (it owns the source).
                cvt(unsafe { epoll_ctl(*epfd, op, fd, &mut ev) })?;
                Ok(())
            }
            Impl::PollSyscall { table } => {
                let mut table = table.lock().expect("poll table poisoned");
                match table.iter_mut().find(|(f, _, _)| *f == fd) {
                    Some(entry) => {
                        if !modify {
                            return Err(io::Error::new(
                                io::ErrorKind::AlreadyExists,
                                "fd already registered",
                            ));
                        }
                        *entry = (fd, token, interest);
                    }
                    None => {
                        if modify {
                            return Err(io::Error::new(
                                io::ErrorKind::NotFound,
                                "fd not registered",
                            ));
                        }
                        table.push((fd, token, interest));
                    }
                }
                Ok(())
            }
        }
    }

    /// Stops watching a source. Call *before* closing the fd — a closed
    /// fd silently leaves epoll, but the poll(2) table would keep
    /// handing the stale fd to the kernel.
    pub fn deregister(&self, source: &impl AsRawFd) -> io::Result<()> {
        let fd = source.as_raw_fd();
        match &self.inner {
            Impl::Epoll { epfd } => {
                let mut ev = EpollEvent { events: 0, data: 0 };
                // SAFETY: see `ctl`.
                cvt(unsafe { epoll_ctl(*epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
                Ok(())
            }
            Impl::PollSyscall { table } => {
                let mut table = table.lock().expect("poll table poisoned");
                let before = table.len();
                table.retain(|(f, _, _)| *f != fd);
                if table.len() == before {
                    return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
                }
                Ok(())
            }
        }
    }

    /// Waits for readiness, filling `events` (previous contents are
    /// cleared). `None` blocks indefinitely; `Some(d)` waits at most `d`.
    /// An interrupted wait (`EINTR`) returns an empty batch.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.inner.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a 1ns timeout still sleeps ~1ms instead of
            // spinning at 0.
            Some(d) => d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
                .min(c_int::MAX as u128) as c_int,
        };
        match &self.inner {
            Impl::Epoll { epfd } => {
                let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
                // SAFETY: `buf` is a valid out-array of the stated length.
                let n =
                    unsafe { epoll_wait(*epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for ev in &buf[..n as usize] {
                    let bits = ev.events;
                    events.inner.push(Event {
                        token: Token(ev.data as usize),
                        readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                        writable: bits & EPOLLOUT != 0,
                        error: bits & EPOLLERR != 0,
                        hup: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
                    });
                }
                Ok(())
            }
            Impl::PollSyscall { table } => {
                let snapshot: Vec<(c_int, Token, Interest)> =
                    table.lock().expect("poll table poisoned").clone();
                let mut fds: Vec<PollFd> = snapshot
                    .iter()
                    .map(|(fd, _, interest)| PollFd {
                        fd: *fd,
                        events: poll_bits(*interest),
                        revents: 0,
                    })
                    .collect();
                // SAFETY: `fds` is a valid array of the stated length.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
                if n < 0 {
                    let err = io::Error::last_os_error();
                    if err.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(err);
                }
                for (pfd, (_, token, _)) in fds.iter().zip(&snapshot) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    events.inner.push(Event {
                        token: *token,
                        readable: bits & POLLIN != 0,
                        writable: bits & POLLOUT != 0,
                        error: bits & POLLERR != 0,
                        hup: bits & POLLHUP != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        if let Impl::Epoll { epfd } = self.inner {
            // SAFETY: the fd is owned by this Poll and not closed twice.
            unsafe { close(epfd) };
        }
    }
}

fn epoll_bits(interest: Interest) -> u32 {
    let mut bits = EPOLLRDHUP;
    if interest.is_readable() {
        bits |= EPOLLIN;
    }
    if interest.is_writable() {
        bits |= EPOLLOUT;
    }
    bits
}

fn poll_bits(interest: Interest) -> c_short {
    let mut bits = 0;
    if interest.is_readable() {
        bits |= POLLIN;
    }
    if interest.is_writable() {
        bits |= POLLOUT;
    }
    bits
}

/// Cross-thread wakeup for a [`Poll`]: a nonblocking self-pipe whose
/// read end is registered with the selector. Any thread may call
/// [`wake`](Waker::wake); the polling thread sees the token readable and
/// calls [`drain`](Waker::drain) before going back to sleep (the pipe is
/// level-triggered, so an undrained wake would spin the loop).
pub struct Waker {
    read_fd: c_int,
    write_fd: c_int,
}

// Both ends are plain fds used through atomic read/write syscalls.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Builds a waker and registers its read end with `poll` as `token`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: `fds` is a valid out-array for pipe(2).
        cvt(unsafe { pipe(fds.as_mut_ptr()) })?;
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
        };
        set_nonblocking(waker.read_fd)?;
        set_nonblocking(waker.write_fd)?;
        poll.register(&RawSource(waker.read_fd), token, Interest::READABLE)?;
        Ok(waker)
    }

    /// Wakes the polling thread. A full pipe means a wake is already
    /// pending, which is just as good — the error is swallowed.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write on an owned fd.
        unsafe { write(self.write_fd, &byte, 1) };
    }

    /// Drains pending wakes; the polling thread calls this when the
    /// waker's token fires.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        // SAFETY: bounded reads into a local buffer on an owned fd.
        while unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by this Waker and closed once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

struct RawSource(c_int);

impl AsRawFd for RawSource {
    fn as_raw_fd(&self) -> c_int {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    fn backends() -> Vec<Backend> {
        if cfg!(target_os = "linux") {
            vec![Backend::Epoll, Backend::PollSyscall]
        } else {
            vec![Backend::PollSyscall]
        }
    }

    #[test]
    fn readable_and_writable_sockets_report_on_both_backends() {
        for backend in backends() {
            let poll = Poll::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut served, _) = listener.accept().unwrap();
            served.set_nonblocking(true).unwrap();
            poll.register(&served, Token(7), Interest::READABLE | Interest::WRITABLE)
                .unwrap();

            // A fresh socket with empty buffers is writable immediately.
            let mut events = Events::with_capacity(8);
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            let ev = events.iter().find(|e| e.token() == Token(7)).unwrap();
            assert!(ev.is_writable(), "{backend:?}");

            // Data from the peer turns it readable.
            client.write_all(b"hi").unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let readable = loop {
                poll.poll(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if let Some(ev) = events.iter().find(|e| e.token() == Token(7)) {
                    if ev.is_readable() {
                        break true;
                    }
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
            };
            assert!(readable, "{backend:?}");
            let mut buf = [0u8; 8];
            assert_eq!(served.read(&mut buf).unwrap(), 2);

            // Dropping interest in writes stops the writable reports.
            poll.reregister(&served, Token(7), Interest::READABLE)
                .unwrap();
            poll.poll(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(
                events.iter().all(|e| !e.is_writable()),
                "{backend:?}: still writable after reregister"
            );

            poll.deregister(&served).unwrap();
            poll.poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(events.is_empty(), "{backend:?}: events after deregister");
        }
    }

    #[test]
    fn peer_hangup_is_reported_as_readable_close() {
        for backend in backends() {
            let poll = Poll::with_backend(backend).unwrap();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (served, _) = listener.accept().unwrap();
            served.set_nonblocking(true).unwrap();
            poll.register(&served, Token(1), Interest::READABLE)
                .unwrap();
            drop(client);
            let mut events = Events::with_capacity(8);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let saw = loop {
                poll.poll(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if let Some(ev) = events.iter().find(|e| e.token() == Token(1)) {
                    break ev.is_readable();
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
            };
            // Either way the loop reads, sees EOF, and closes — the event
            // just has to arrive.
            assert!(saw, "{backend:?}: hangup never reported");
        }
    }

    #[test]
    fn waker_crosses_threads_and_drains() {
        for backend in backends() {
            let poll = Poll::with_backend(backend).unwrap();
            let waker = std::sync::Arc::new(Waker::new(&poll, Token(99)).unwrap());
            let remote = std::sync::Arc::clone(&waker);
            let handle = std::thread::spawn(move || {
                for _ in 0..100 {
                    remote.wake();
                }
            });
            let mut events = Events::with_capacity(8);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let woke = loop {
                poll.poll(&mut events, Some(Duration::from_millis(100)))
                    .unwrap();
                if events.iter().any(|e| e.token() == Token(99)) {
                    break true;
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
            };
            assert!(woke, "{backend:?}: waker never fired");
            handle.join().unwrap();
            waker.drain();
            // Drained: the token stays quiet now.
            poll.poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| e.token() != Token(99)),
                "{backend:?}: waker still ready after drain"
            );
        }
    }
}
