//! Socket calls the standard library lacks: waiting for readability
//! with a precise timeout, and acknowledging received data at once.
//!
//! The standard library offers only `SO_RCVTIMEO`, which the kernel
//! rounds up to whole scheduler ticks (a 1 ms timeout waits ~8 ms on a
//! 250 Hz kernel) — too coarse for an open-loop schedule of sub-ms
//! sends. `ppoll(2)` sleeps on a high-resolution timer and wakes the
//! moment data arrives. Linux only, like the `/proc` reads elsewhere.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// Puts `stream` in quick-ACK mode: received data is acknowledged at
/// once instead of after the delayed-ACK timer (up to 40 ms). The
/// daemon leaves Nagle's algorithm on, so a reply written while an
/// earlier one is still unacknowledged waits for that ACK; a
/// delayed-ACK client would charge the timer to the server. The kernel
/// drops back to delayed ACKs on its own, so callers re-arm this after
/// every read.
pub fn quick_ack(stream: &TcpStream) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: `on` is a live `i32` for the whole call and `len` is its
    // exact size; the descriptor is owned by `stream`, which outlives
    // the call.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Whether `stream` has data (or end-of-stream) to read, waiting at
/// most `wait`.
pub fn readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: i64::try_from(wait.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live, properly laid out (`repr(C)`
    // matching `struct pollfd` and the 64-bit `struct timespec`) for the
    // whole call; `nfds` is 1, the length of the one-element array
    // `&mut fd` points to; a null signal mask is allowed and leaves the
    // mask unchanged; the descriptor is owned by `stream`, which
    // outlives the call.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
    }
}
