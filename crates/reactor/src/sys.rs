//! Direct `extern "C"` bindings to the handful of kernel interfaces the
//! reactor needs: `epoll` on Linux, `poll(2)` everywhere, a pipe for
//! cross-thread wakeups, and the `RLIMIT_NOFILE` pair for fd-pressure
//! experiments. This environment is offline — no `libc` crate — so the
//! declarations live here, kept to the minimal stable subset of the
//! POSIX/Linux ABI (x86_64/aarch64 LP64 layouts).
//!
//! Everything unsafe in the workspace's serving stack is confined to
//! this module; [`Poller`](crate::Poller) and [`Waker`](crate::Waker)
//! wrap it in safe owned types.

#![allow(clippy::missing_safety_doc)]

use std::io;
use std::os::fd::RawFd;

pub(crate) type CInt = i32;
pub(crate) type CShort = i16;
pub(crate) type NfdsT = u64; // c_ulong on LP64

// --- epoll (Linux) ---------------------------------------------------

/// `EPOLL_CTL_ADD`.
pub(crate) const EPOLL_CTL_ADD: CInt = 1;
/// `EPOLL_CTL_DEL`.
pub(crate) const EPOLL_CTL_DEL: CInt = 2;
/// `EPOLL_CTL_MOD`.
pub(crate) const EPOLL_CTL_MOD: CInt = 3;
/// `EPOLLIN`.
pub(crate) const EPOLLIN: u32 = 0x001;
/// `EPOLLOUT`.
pub(crate) const EPOLLOUT: u32 = 0x004;
/// `EPOLLERR` — always reported, never requested.
pub(crate) const EPOLLERR: u32 = 0x008;
/// `EPOLLHUP` — always reported, never requested.
pub(crate) const EPOLLHUP: u32 = 0x010;
/// `EPOLLRDHUP` — peer shut down its write half.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
/// `EPOLL_CLOEXEC` (== `O_CLOEXEC`).
pub(crate) const EPOLL_CLOEXEC: CInt = 0o2000000;

/// `struct epoll_event`. On x86_64 the kernel ABI packs this to 12
/// bytes (`__EPOLL_PACKED`); `repr(C, packed)` reproduces that layout
/// and is also correct (if overaligned-in-spirit) on aarch64, where
/// glibc declares the same packed struct.
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn epoll_create1(flags: CInt) -> CInt;
    fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
    fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
}

/// Creates a close-on-exec epoll instance.
#[cfg(target_os = "linux")]
pub(crate) fn sys_epoll_create() -> io::Result<RawFd> {
    // SAFETY: no pointers involved; the return value is checked.
    let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// One `epoll_ctl` call; `event` is ignored by the kernel for `DEL`.
#[cfg(target_os = "linux")]
pub(crate) fn sys_epoll_ctl(
    epfd: RawFd,
    op: CInt,
    fd: RawFd,
    events: u32,
    data: u64,
) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    // SAFETY: `ev` is a live stack value for the duration of the call.
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Blocks until readiness, filling `events`; returns the ready count.
#[cfg(target_os = "linux")]
pub(crate) fn sys_epoll_wait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: CInt,
) -> io::Result<usize> {
    // SAFETY: the pointer/length pair describes the caller's live slice.
    let rc = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as CInt, timeout_ms) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

// --- poll(2) (POSIX) -------------------------------------------------

/// `POLLIN`.
pub(crate) const POLLIN: CShort = 0x001;
/// `POLLOUT`.
pub(crate) const POLLOUT: CShort = 0x004;
/// `POLLERR`.
pub(crate) const POLLERR: CShort = 0x008;
/// `POLLHUP`.
pub(crate) const POLLHUP: CShort = 0x010;
/// `POLLNVAL` — fd was not open.
pub(crate) const POLLNVAL: CShort = 0x020;

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    pub fd: CInt,
    pub events: CShort,
    pub revents: CShort,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: CInt) -> CInt;
    fn pipe(fds: *mut CInt) -> CInt;
    fn fcntl(fd: CInt, cmd: CInt, arg: CInt) -> CInt;
    fn close(fd: CInt) -> CInt;
    fn read(fd: CInt, buf: *mut u8, count: usize) -> isize;
    fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
    fn getrlimit(resource: CInt, rlim: *mut Rlimit) -> CInt;
    fn setrlimit(resource: CInt, rlim: *const Rlimit) -> CInt;
}

/// One `poll(2)` call over the caller's `pollfd` table.
pub(crate) fn sys_poll(fds: &mut [PollFd], timeout_ms: CInt) -> io::Result<usize> {
    // SAFETY: the pointer/length pair describes the caller's live slice.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

const F_GETFL: CInt = 3;
const F_SETFL: CInt = 4;
const F_GETFD: CInt = 1;
const F_SETFD: CInt = 2;
const FD_CLOEXEC: CInt = 1;
const O_NONBLOCK: CInt = 0o4000;

/// A nonblocking close-on-exec pipe `(read end, write end)`. Built from
/// the portable `pipe` + `fcntl` pair rather than `pipe2` so the same
/// code serves the `poll(2)` fallback targets.
pub(crate) fn sys_pipe_nonblocking() -> io::Result<(RawFd, RawFd)> {
    let mut fds: [CInt; 2] = [-1, -1];
    // SAFETY: `fds` is a live 2-element array, exactly what pipe expects.
    let rc = unsafe { pipe(fds.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    for &fd in &fds {
        // SAFETY: `fd` is a freshly created, owned descriptor.
        unsafe {
            let flags = fcntl(fd, F_GETFL, 0);
            if flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0 {
                let e = io::Error::last_os_error();
                close(fds[0]);
                close(fds[1]);
                return Err(e);
            }
            let fdflags = fcntl(fd, F_GETFD, 0);
            if fdflags < 0 || fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC) < 0 {
                let e = io::Error::last_os_error();
                close(fds[0]);
                close(fds[1]);
                return Err(e);
            }
        }
    }
    Ok((fds[0], fds[1]))
}

/// Closes an owned descriptor (errors ignored: nothing sensible to do).
pub(crate) fn sys_close(fd: RawFd) {
    // SAFETY: the caller owns `fd` and never uses it again.
    unsafe {
        close(fd);
    }
}

/// One nonblocking `read` into `buf`.
pub(crate) fn sys_read(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: the pointer/length pair describes the caller's live slice.
    let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// One nonblocking `write` of `buf`.
pub(crate) fn sys_write(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: the pointer/length pair describes the caller's live slice.
    let n = unsafe { write(fd, buf.as_ptr(), buf.len()) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

// --- RLIMIT_NOFILE ---------------------------------------------------

const RLIMIT_NOFILE: CInt = 7;

/// `struct rlimit` (LP64: both fields are `unsigned long`).
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct Rlimit {
    pub cur: u64,
    pub max: u64,
}

/// Reads `(soft, hard)` for `RLIMIT_NOFILE`.
pub(crate) fn sys_get_nofile() -> io::Result<(u64, u64)> {
    let mut r = Rlimit { cur: 0, max: 0 };
    // SAFETY: `r` is a live stack value for the duration of the call.
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut r) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((r.cur, r.max))
}

/// Sets the `RLIMIT_NOFILE` soft limit (hard limit unchanged).
pub(crate) fn sys_set_nofile_soft(soft: u64) -> io::Result<()> {
    let (_, hard) = sys_get_nofile()?;
    let r = Rlimit { cur: soft.min(hard), max: hard };
    // SAFETY: `r` is a live stack value for the duration of the call.
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &r) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}
