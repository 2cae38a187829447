//! Minimal level-triggered `epoll` wrapper for the prototype's sharded
//! connection engine.
//!
//! The workspace builds without external crates, so this talks to the kernel
//! directly through a few `extern "C"` declarations (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `writev`, `socket`, `connect`) resolved by
//! the libc that `std` already links.
//! All `unsafe` in the workspace is confined to this crate; everything above
//! it keeps `#![forbid(unsafe_code)]`.
//!
//! The wrapper is deliberately small:
//!
//! * **level-triggered** only — readiness is re-reported until drained, so a
//!   shard never needs to loop a socket to `WouldBlock` before re-arming;
//! * `u64` tokens carried in `epoll_data`, mapped back by the caller;
//! * a [`Waker`] built from a non-blocking `UnixStream` pair so other
//!   threads (a node's `stop`, a caller posting a control request) can
//!   interrupt a blocked [`Poller::wait`];
//! * [`write_vectored`] — a thin `writev(2)` wrapper over any descriptor
//!   (at most [`MAX_IOV`] segments a call, the most an out-queue offers
//!   the kernel at once);
//! * [`connect`] — a TCP connect that returns while still in progress,
//!   so a shard that dials a peer never waits for the handshake.
//!
//! On non-Linux targets the same API exists but every constructor returns
//! [`std::io::ErrorKind::Unsupported`], which callers propagate: the live
//! prototype requires Linux.

#![warn(missing_docs)]

pub mod fault;

use std::io;

/// Readiness interest registered for a file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable or the peer closes its
    /// sending side (`EPOLLRDHUP` rides with read interest: it is
    /// level-triggered and would spin a caller that has stopped reading).
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification returned by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// `EPOLLIN`: a read will not block (data or EOF available).
    pub readable: bool,
    /// `EPOLLOUT`: a write will not block.
    pub writable: bool,
    /// `EPOLLHUP` / `EPOLLRDHUP`: the peer closed its end.
    pub hangup: bool,
    /// `EPOLLERR`: the descriptor is in an error state.
    pub error: bool,
}

impl Event {
    /// True when the connection should be read (to observe data, EOF, or the
    /// pending socket error) rather than left idle.
    pub fn needs_read(&self) -> bool {
        self.readable || self.hangup || self.error
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_int;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;

    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    // The kernel ABI packs the 12-byte epoll_event on x86-64; other
    // architectures use natural alignment.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Mirrors the kernel's `struct iovec`. `std::io::IoSlice` documents ABI
    // compatibility with iovec, but we keep our own definition so the cast
    // below is explicit about the layout we rely on.
    #[repr(C)]
    struct IoVec {
        base: *const u8,
        len: usize,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        #[link_name = "connect"]
        fn sys_connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
    }

    const AF_INET: c_int = 2;
    const AF_INET6: c_int = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const EINPROGRESS: i32 = 115;

    /// Starts a TCP connect to `addr` without waiting for it: the socket
    /// is non-blocking from birth, and the connect is usually still in
    /// progress when this returns. Its completion raises writable
    /// readiness; then `TcpStream::take_error` says whether it failed
    /// and `TcpStream::peer_addr` whether it succeeded.
    pub fn connect(addr: &std::net::SocketAddr) -> io::Result<std::net::TcpStream> {
        // `struct sockaddr_in` / `sockaddr_in6`, byte for byte: family in
        // host order, port and address in network order.
        let mut raw = [0u8; 28];
        let (domain, len) = match addr {
            std::net::SocketAddr::V4(v4) => {
                raw[4..8].copy_from_slice(&v4.ip().octets());
                (AF_INET, 16)
            }
            std::net::SocketAddr::V6(v6) => {
                raw[4..8].copy_from_slice(&v6.flowinfo().to_be_bytes());
                raw[8..24].copy_from_slice(&v6.ip().octets());
                raw[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (AF_INET6, 28)
            }
        };
        raw[..2].copy_from_slice(&(domain as u16).to_ne_bytes());
        raw[2..4].copy_from_slice(&addr.port().to_be_bytes());
        // SAFETY: socket takes no pointers; a negative return is checked
        // before the fd is wrapped.
        let fd = unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created, otherwise unowned socket; the
        // stream closes it on every path below.
        let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
        // SAFETY: `raw` outlives the call and holds `len` initialised bytes
        // laid out as the sockaddr the family names.
        if unsafe { sys_connect(fd, raw.as_ptr(), len) } == 0 {
            return Ok(stream);
        }
        let err = io::Error::last_os_error();
        match err.raw_os_error() {
            Some(EINPROGRESS) => Ok(stream),
            _ => Err(err),
        }
    }

    /// Most buffers passed to the kernel in one [`write_vectored`] call.
    ///
    /// Linux caps `iovcnt` at `IOV_MAX` (1024); 64 keeps the stack copy of
    /// the slice small while still amortising the syscall across a deep
    /// reply queue.
    pub const MAX_IOV: usize = 64;

    /// Writes up to [`MAX_IOV`] buffers to `fd` with one `writev(2)` call,
    /// returning the number of bytes accepted. `EINTR` is retried
    /// transparently; `WouldBlock` and other errors surface to the caller.
    pub fn write_vectored(fd: &impl AsRawFd, bufs: &[std::io::IoSlice<'_>]) -> io::Result<usize> {
        if bufs.is_empty() {
            return Ok(0);
        }
        let cnt = bufs.len().min(MAX_IOV);
        loop {
            // SAFETY: `std::io::IoSlice` is guaranteed ABI-compatible with
            // iovec (same layout as our repr(C) IoVec); `bufs` stays borrowed
            // for the duration of the call and the kernel reads at most
            // `cnt` entries.
            let rc = unsafe { writev(fd.as_raw_fd(), bufs.as_ptr() as *const IoVec, cnt as c_int) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    fn interest_mask(interest: Interest) -> u32 {
        let mut mask = 0;
        if interest.readable {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// A level-triggered epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: OwnedFd,
    }

    impl Poller {
        /// Creates a fresh epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: epoll_create1 takes no pointers; a negative return is
            // checked before the fd is wrapped, so OwnedFd only ever owns a
            // valid descriptor.
            let raw = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if raw < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `raw` is a freshly created, otherwise unowned fd.
            let epfd = unsafe { OwnedFd::from_raw_fd(raw) };
            Ok(Poller { epfd })
        }

        fn ctl(&self, op: c_int, fd: RawFd, event: Option<&mut EpollEvent>) -> io::Result<()> {
            let ptr = event.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
            // SAFETY: `ptr` is either null (only for EPOLL_CTL_DEL, which
            // ignores it) or a live &mut EpollEvent for the duration of the
            // call; the kernel does not retain the pointer.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, ptr) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        /// Starts watching `fd` with the given token and interest.
        pub fn register(
            &self,
            fd: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), Some(&mut ev))
        }

        /// Replaces the interest set for an already-registered `fd`.
        pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_mask(interest),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), Some(&mut ev))
        }

        /// Stops watching `fd`.
        pub fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), None)
        }

        /// Blocks until at least one descriptor is ready or `timeout`
        /// elapses, appending events to `out`. Returns the number appended.
        /// `None` waits indefinitely. `EINTR` is retried transparently.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            let timeout_ms: c_int = match timeout {
                None => -1,
                Some(d) => {
                    let ms = d.as_millis();
                    // Round sub-millisecond waits up so Some(small) cannot
                    // spin as a zero-timeout poll.
                    let ms = if ms == 0 && !d.is_zero() { 1 } else { ms };
                    ms.min(c_int::MAX as u128) as c_int
                }
            };
            let mut buf = [EpollEvent { events: 0, data: 0 }; 128];
            let n = loop {
                // SAFETY: `buf` is a live array of `buf.len()` EpollEvent;
                // the kernel writes at most `maxevents` entries into it.
                let rc = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        buf.as_mut_ptr(),
                        buf.len() as c_int,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    break rc as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for slot in buf.iter().take(n) {
                // Copy out of the (possibly packed) struct before touching
                // the fields.
                let ev = *slot;
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLHUP | EPOLLRDHUP) != 0,
                    error: bits & EPOLLERR != 0,
                });
            }
            Ok(n)
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "bh-netpoll requires Linux epoll",
        ))
    }

    /// Mirrors the Linux constant so shared code can size reply queues.
    pub const MAX_IOV: usize = 64;

    /// Always fails on this target; the sharded engine is Linux-only.
    pub fn write_vectored(
        _fd: &impl std::os::fd::AsRawFd,
        _bufs: &[std::io::IoSlice<'_>],
    ) -> io::Result<usize> {
        unsupported()
    }

    /// Always fails on this target.
    pub fn connect(_addr: &std::net::SocketAddr) -> io::Result<std::net::TcpStream> {
        unsupported()
    }

    /// Stub poller for non-Linux targets; every constructor fails with
    /// [`io::ErrorKind::Unsupported`].
    #[derive(Debug)]
    pub struct Poller {
        _priv: (),
    }

    impl Poller {
        /// Always fails on this target.
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        /// Unreachable (no `Poller` value can exist on this target).
        pub fn register(
            &self,
            _fd: &impl std::os::fd::AsRawFd,
            _token: u64,
            _interest: Interest,
        ) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no `Poller` value can exist on this target).
        pub fn modify(
            &self,
            _fd: &impl std::os::fd::AsRawFd,
            _token: u64,
            _interest: Interest,
        ) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no `Poller` value can exist on this target).
        pub fn deregister(&self, _fd: &impl std::os::fd::AsRawFd) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no `Poller` value can exist on this target).
        pub fn wait(&self, _out: &mut Vec<Event>, _timeout: Option<Duration>) -> io::Result<usize> {
            unsupported()
        }
    }
}

pub use imp::{connect, write_vectored, Poller, MAX_IOV};

/// Cross-thread wake-up handle paired with a [`WakeReceiver`].
///
/// Built from a non-blocking `UnixStream` pair: `wake` writes one byte (a
/// full pipe already guarantees a pending wake-up, so `WouldBlock` is
/// success), the receiver side is registered with a [`Poller`] and drained on
/// readiness. A shared `pending` flag coalesces wake-ups: once a wake is in
/// flight, further `wake` calls are free until the receiver drains, which
/// matters when several threads wake one poller in a burst.
#[derive(Debug)]
pub struct Waker {
    tx: std::os::unix::net::UnixStream,
    pending: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Waker {
    /// Makes the paired [`WakeReceiver`]'s descriptor readable.
    ///
    /// Returns `true` when this call actually issued the wake-up syscall and
    /// `false` when it coalesced onto a wake already in flight — callers can
    /// count the `false`s to measure how many poller round-trips the flag
    /// saved.
    pub fn wake(&self) -> bool {
        use std::io::Write;
        use std::sync::atomic::Ordering;
        if self.pending.swap(true, Ordering::AcqRel) {
            return false; // A wake-up is already in flight; coalesced.
        }
        // A failed or short write is fine: WouldBlock means wake-ups are
        // already pending; a broken pipe means the poller is gone.
        let _ = (&self.tx).write(&[1u8]);
        true
    }

    /// Clones the handle so several threads can hold wakers independently.
    pub fn try_clone(&self) -> io::Result<Waker> {
        Ok(Waker {
            tx: self.tx.try_clone()?,
            pending: std::sync::Arc::clone(&self.pending),
        })
    }
}

/// Receiving side of a [`Waker`]; register it with a [`Poller`] and call
/// [`WakeReceiver::drain`] whenever its token fires.
#[derive(Debug)]
pub struct WakeReceiver {
    rx: std::os::unix::net::UnixStream,
    pending: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl WakeReceiver {
    /// Consumes all pending wake-up bytes so level-triggered polling stops
    /// reporting the descriptor as readable.
    ///
    /// A byte can only be in flight while the shared flag is set (`wake`
    /// raises the flag before writing), so the common no-wake case is a
    /// single atomic load and no syscall.
    pub fn drain(&self) {
        use std::io::Read;
        use std::sync::atomic::Ordering;
        if !self.pending.load(Ordering::Acquire) {
            return;
        }
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Clear the flag only after the reads: a wake that slips in between
        // is skipped by its sender precisely because the flag is still set,
        // and the work it advertises is observed by whatever the caller
        // checks right after this drain. A wake that lands after the clear
        // writes a fresh byte, which level-triggered polling re-reports.
        self.pending.store(false, Ordering::Release);
    }
}

impl std::os::fd::AsRawFd for WakeReceiver {
    fn as_raw_fd(&self) -> std::os::fd::RawFd {
        self.rx.as_raw_fd()
    }
}

/// Creates a connected waker pair, both ends non-blocking.
pub fn waker_pair() -> io::Result<(Waker, WakeReceiver)> {
    let (rx, tx) = std::os::unix::net::UnixStream::pair()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    let pending = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    Ok((
        Waker {
            tx,
            pending: std::sync::Arc::clone(&pending),
        },
        WakeReceiver { rx, pending },
    ))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn readable_event_fires_and_clears() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(&b, 7, Interest::READABLE).unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "no data yet");

        a.write_all(b"x").unwrap();
        events.clear();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(events.len(), 1);

        let mut byte = [0u8; 8];
        let got = (&b).read(&mut byte).unwrap();
        assert_eq!(got, 1);
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained");
    }

    #[test]
    fn modify_switches_interest_and_hangup_reported() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(&b, 1, Interest::WRITABLE).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        poller.modify(&b, 1, Interest::READABLE).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "writable interest removed");

        drop(a);
        events.clear();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.needs_read()));

        poller.deregister(&b).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "deregistered fd is silent");
    }

    /// A caller that has stopped reading (backpressure) must not be woken
    /// over and over by the peer's half-close: level-triggered
    /// `EPOLLRDHUP` is only asked for together with read interest.
    #[test]
    fn half_close_is_silent_without_read_interest() {
        let poller = Poller::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let none = Interest {
            readable: false,
            writable: false,
        };
        poller.register(&b, 3, none).unwrap();
        a.shutdown(std::net::Shutdown::Write).unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "not reading: the half-close can wait");

        poller.modify(&b, 3, Interest::READABLE).unwrap();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.hangup));
    }

    #[test]
    fn waker_interrupts_wait() {
        let poller = Poller::new().unwrap();
        let (waker, receiver) = waker_pair().unwrap();
        poller.register(&receiver, 0, Interest::READABLE).unwrap();

        let waker2 = waker.try_clone().unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker2.wake();
        });

        let mut events = Vec::new();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        handle.join().unwrap();

        receiver.drain();
        // Repeated wakes coalesce but never block the waker: the first wake
        // after a drain issues the syscall, every later one reports
        // coalesced until the receiver drains again.
        let mut issued = 0usize;
        for _ in 0..10_000 {
            if waker.wake() {
                issued += 1;
            }
        }
        assert_eq!(issued, 1, "all but the first wake coalesce");
        events.clear();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(events[0].token, 0);
        receiver.drain();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    /// The connect returns before the handshake; writable readiness
    /// announces the outcome, which `take_error` and `peer_addr` read.
    #[test]
    fn connect_completes_on_writable_readiness() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let poller = Poller::new().unwrap();
        let stream = connect(&listener.local_addr().unwrap()).unwrap();
        poller.register(&stream, 5, Interest::WRITABLE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 5 && e.writable));
        assert!(stream.take_error().unwrap().is_none());
        assert!(stream.peer_addr().is_ok(), "connected");

        // A port nobody listens on: the refusal arrives as readiness too.
        let dead = listener.local_addr().unwrap();
        drop(listener);
        let refused = match connect(&dead) {
            Ok(stream) => stream,
            Err(e) => return assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
        };
        poller.register(&refused, 6, Interest::WRITABLE).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 6));
        let err = refused.take_error().unwrap().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn write_vectored_drains_many_buffers_in_one_call() {
        let (tx, mut rx) = UnixStream::pair().unwrap();
        let parts: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 16]).collect();
        let slices: Vec<std::io::IoSlice<'_>> =
            parts.iter().map(|p| std::io::IoSlice::new(p)).collect();
        let wrote = write_vectored(&tx, &slices).unwrap();
        assert_eq!(wrote, 160, "small gathered write is accepted whole");

        let mut got = vec![0u8; 160];
        rx.read_exact(&mut got).unwrap();
        let want: Vec<u8> = parts.concat();
        assert_eq!(got, want, "bytes arrive in iovec order");

        assert_eq!(write_vectored(&tx, &[]).unwrap(), 0, "empty is a no-op");
    }

    #[test]
    fn write_vectored_reports_would_block_on_full_pipe() {
        let (tx, _rx) = UnixStream::pair().unwrap();
        tx.set_nonblocking(true).unwrap();
        let chunk = vec![0xabu8; 64 * 1024];
        let slices = [std::io::IoSlice::new(&chunk)];
        loop {
            match write_vectored(&tx, &slices) {
                Ok(_) => continue,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    break;
                }
            }
        }
    }
}
