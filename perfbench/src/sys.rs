//! Waiting on a socket with sub-millisecond timeouts, and CPU clocks.
//!
//! The load generator must sleep, not spin, between scheduled sends:
//! spinning threads would take CPU from a server that has only as many
//! CPUs as the generator has threads. `std` offers only millisecond-grain
//! socket timeouts, so on Linux this calls `ppoll` with a nanosecond
//! timeout and lowers the thread's timer slack to 1 µs.
//!
//! Set-up time and throughput are taken in CPU time (`clock_gettime` on
//! the thread or process CPU clock), which leaves out the time a thread
//! waits: for a socket, for a reply, or for a CPU another thread holds.

use std::net::TcpStream;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod linux {
    use std::os::raw::{c_int, c_long, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const PR_SET_TIMERSLACK: c_int = 29;
    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }

    /// Reads `clock`, in nanoseconds.
    pub fn cpu_ns(clock: c_int) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, properly laid-out local the kernel
        // writes once; both clock ids exist on every Linux since 2.6.12.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock})");
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

/// CPU time the calling thread has used, ns. Elsewhere than Linux, wall
/// time since the first call on any thread.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    return linux::cpu_ns(linux::CLOCK_THREAD_CPUTIME_ID);
    #[cfg(not(target_os = "linux"))]
    return wall_ns();
}

/// CPU time all threads of this process have used, ended ones included,
/// ns. Elsewhere than Linux, wall time since the first call.
pub fn process_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    return linux::cpu_ns(linux::CLOCK_PROCESS_CPUTIME_ID);
    #[cfg(not(target_os = "linux"))]
    return wall_ns();
}

#[cfg(not(target_os = "linux"))]
fn wall_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Lowers the calling thread's timer slack so short waits end on time.
pub fn precise_timers() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes a scheduling attribute of the calling thread; no memory is
    // passed to the kernel.
    unsafe {
        linux::prctl(linux::PR_SET_TIMERSLACK, 1000 as std::os::raw::c_ulong);
    }
}

/// Blocks until `stream` is readable (or writable, if `want_write`), or
/// `timeout` passes.
pub fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        let mut fd = linux::PollFd {
            fd: stream.as_raw_fd(),
            events: linux::POLLIN | if want_write { linux::POLLOUT } else { 0 },
            revents: 0,
        };
        let ts = linux::Timespec {
            tv_sec: timeout.as_secs() as _,
            tv_nsec: timeout.subsec_nanos() as _,
        };
        // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
        // whole call; nfds is 1, matching the single `PollFd`; a null
        // sigmask means "leave the signal mask alone". The result is not
        // needed: the caller re-checks the socket either way.
        unsafe {
            linux::ppoll(&mut fd, 1, &ts, std::ptr::null());
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (stream, want_write);
        std::thread::sleep(timeout.min(Duration::from_micros(100)));
    }
}
