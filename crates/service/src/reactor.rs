//! The readiness layer for the nonblocking TCP front end: one blocking
//! `poll(2)` call per wakeup.
//!
//! std exposes no selector and the workspace policy forbids external
//! crates — but std already links libc, so [`poll`] declares `poll(2)`
//! itself (one `extern "C"` block, unix-only) and blocks in the kernel
//! until a descriptor is ready or the caller's deadline passes. An idle
//! loop therefore costs nothing, and a request is served the moment its
//! bytes arrive instead of at the next timer tick. `poll(2)` rather than
//! `epoll`: it is stateless — the caller rebuilds a [`PollFd`] slice per
//! call, so there is no registration to keep in step with the connection
//! table — and level-triggered, the contract [`Conn`] is written to: a
//! socket stays ready until its bytes are consumed. The price is O(fds)
//! per call in the kernel, which `repro -- load` measures at 5,000
//! connections.
//!
//! A thread blocked in [`poll`] is woken from outside through a
//! [`Waker`] — a socketpair whose read end sits in the poll set — so
//! neither intake of new sockets nor shutdown waits on a timer.
//!
//! The other half of the module is the per-connection state the event
//! loop multiplexes over:
//!
//! * [`LineFramer`] — an incremental line-framing state machine. Bytes
//!   arrive in arbitrary chunks; frames come out *identically however
//!   the stream was split* (pinned by a property test). Oversized lines
//!   and NUL bytes become typed [`Frame`] errors, never a disconnect —
//!   the connection resynchronises at the next newline.
//! * [`Conn`] — one connection's socket, framer, and bounded write
//!   buffer, with nonblocking `fill`/`flush` halves.
//!
//! The write path never blocks either: responses are queued into
//! [`Conn::queue`] and drained by [`Conn::flush`] as the socket accepts
//! them (the loop asks for write readiness only while something is
//! queued); a peer that stops reading past the buffer cap is a slow
//! consumer and is disconnected by the server, not waited on.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// One framed event out of a [`LineFramer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete request line (without its `\n`; a single trailing `\r`
    /// is stripped so `telnet` CRLF input works).
    Line(String),
    /// The line under construction exceeded `max_line` bytes before a
    /// newline arrived. The overlong tail is discarded up to (and
    /// including) the next newline, after which framing resumes.
    TooLong,
    /// The line contained a NUL byte — never legal in this protocol, and
    /// a classic sign of a confused (binary) client.
    Nul,
}

/// Incremental line framing over an arbitrarily-chunked byte stream.
///
/// Feed bytes with [`push`](LineFramer::push), drain frames with
/// [`pop`](LineFramer::pop). Processing is byte-at-a-time internally, so
/// the emitted frame sequence is invariant under re-chunking — the
/// property the framing test suite pins.
#[derive(Debug)]
pub struct LineFramer {
    max_line: usize,
    partial: Vec<u8>,
    pending: VecDeque<Frame>,
    /// Discarding the tail of an oversized line until the next newline.
    discarding: bool,
    /// The current line contained a NUL; it frames as [`Frame::Nul`].
    poisoned: bool,
}

impl LineFramer {
    /// A framer that rejects lines longer than `max_line` bytes
    /// (exclusive of the terminating newline).
    pub fn new(max_line: usize) -> LineFramer {
        assert!(max_line > 0, "max_line must be positive");
        LineFramer {
            max_line,
            partial: Vec::new(),
            pending: VecDeque::new(),
            discarding: false,
            poisoned: false,
        }
    }

    /// Appends one chunk of the byte stream.
    pub fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if self.discarding {
                if b == b'\n' {
                    self.discarding = false;
                }
                continue;
            }
            if b == b'\n' {
                let frame = if self.poisoned {
                    Frame::Nul
                } else {
                    if self.partial.last() == Some(&b'\r') {
                        self.partial.pop();
                    }
                    Frame::Line(String::from_utf8_lossy(&self.partial).into_owned())
                };
                self.pending.push_back(frame);
                self.partial.clear();
                self.poisoned = false;
                continue;
            }
            if b == 0 {
                self.poisoned = true;
                continue;
            }
            if self.partial.len() >= self.max_line {
                self.pending.push_back(Frame::TooLong);
                self.partial.clear();
                self.poisoned = false;
                self.discarding = true;
                continue;
            }
            self.partial.push(b);
        }
    }

    /// The next framed event, if one is complete.
    pub fn pop(&mut self) -> Option<Frame> {
        self.pending.pop_front()
    }

    /// Bytes buffered for the line under construction.
    pub fn buffered(&self) -> usize {
        self.partial.len()
    }
}

/// One entry of a [`poll`] set: a descriptor and what to wait for on it.
/// Laid out as C's `struct pollfd`, so a slice of these is handed to the
/// kernel as is. The entry's index in the slice is its [`Event::token`].
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits for `fd` to become readable (always) and, when `want_write`,
    /// writable. Errors and hang-ups are reported regardless.
    pub fn new(fd: &impl AsRawFd, want_write: bool) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events: POLLIN | if want_write { POLLOUT } else { 0 },
            revents: 0,
        }
    }

    /// A placeholder the kernel skips (negative descriptor): keeps later
    /// entries' indices — their tokens — stable across an empty slot.
    pub fn none() -> PollFd {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: c_int) -> c_int;
}

/// One readiness observation from [`poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Index of the ready entry in the polled slice.
    pub token: usize,
    /// Bytes are waiting to be read — or EOF: a peer that has finished
    /// sending (FIN, `shutdown(SHUT_WR)`) is readable, its read returns
    /// zero, and it may still be reading what is written to it.
    pub readable: bool,
    /// The socket accepts more output. Only reported for entries that
    /// asked for write readiness.
    pub writable: bool,
    /// The descriptor is dead: in error, invalid, or hung up in both
    /// directions. Nothing more can be written to it.
    pub hup: bool,
}

/// Blocks in `poll(2)` until an entry of `fds` is ready or `timeout`
/// passes (`None`: no deadline), then lists the ready entries in
/// `events` — none at all means the timeout ran out. Level-triggered: an
/// entry is reported on every call until its bytes are consumed. Never
/// returns early: the timeout is rounded up to whole milliseconds and a
/// signal starts the wait over.
pub fn poll(
    fds: &mut [PollFd],
    timeout: Option<Duration>,
    events: &mut Vec<Event>,
) -> io::Result<()> {
    events.clear();
    let nfds = NfdsT::try_from(fds.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
    let timeout_ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `fds` is an exclusive borrow of `nfds` initialised `repr(C)`
    // pollfd entries that outlives the call, and the kernel writes only
    // their `revents` fields. A stale or closed descriptor number is not
    // a memory hazard: it comes back as `POLLNVAL`.
    while unsafe { sys_poll(fds.as_mut_ptr(), nfds, timeout_ms) } < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    events.extend(
        fds.iter()
            .enumerate()
            .filter(|(_, fd)| fd.revents != 0)
            .map(|(token, fd)| Event {
                token,
                readable: fd.revents & POLLIN != 0,
                writable: fd.revents & POLLOUT != 0,
                hup: fd.revents & (POLLHUP | POLLERR | POLLNVAL) != 0,
            }),
    );
    Ok(())
}

/// Wakes a thread blocked in [`poll`]: a nonblocking socketpair whose
/// read end the thread keeps in its poll set. Any thread may
/// [`wake`](Waker::wake); the polling thread [`drain`](Waker::drain)s
/// when the entry reports readable.
#[derive(Debug)]
pub struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    /// Makes the read end readable. A full pipe means wake-ups are
    /// already pending, so the failed write loses nothing.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes pending wake-ups; any left over simply report readable
    /// again on the next [`poll`].
    pub fn drain(&self) {
        let _ = (&self.rx).read(&mut [0u8; 64]);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

/// One multiplexed connection: nonblocking socket, framing state, and a
/// pending-output buffer the event loop drains as the socket allows.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    /// The inbound framing state machine; the event loop `pop`s it after
    /// every [`fill`](Conn::fill).
    pub framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    /// Last instant a complete request arrived (idle-reaping clock).
    pub last_activity: Instant,
    /// Close once the output buffer drains: nothing more is served (set
    /// after `SHUTDOWN`'s farewell, or once the peer has finished sending).
    pub closing: bool,
}

impl Conn {
    /// Adopts an accepted stream: switches it nonblocking and disables
    /// Nagle (single-line request/response traffic).
    pub fn new(stream: TcpStream, max_line: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        Ok(Conn {
            stream,
            framer: LineFramer::new(max_line),
            out: Vec::new(),
            out_pos: 0,
            last_activity: Instant::now(),
            closing: false,
        })
    }

    /// The underlying socket (for [`PollFd::new`]).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// This connection's [`poll`] entry as a server holds it: read
    /// interest unless `closing` (nothing more is served, and a peer's
    /// EOF would report readable on every call), write interest while
    /// output is queued.
    pub fn poll_fd(&self) -> PollFd {
        let read = if self.closing { 0 } else { POLLIN };
        let write = if self.flushed() { 0 } else { POLLOUT };
        PollFd {
            fd: self.stream.as_raw_fd(),
            events: read | write,
            revents: 0,
        }
    }

    /// Nonblocking read: moves what one `read` returns into the framer —
    /// one per readiness report, so a firehosing peer cannot hold the
    /// loop; its surplus is reported again by the next [`poll`].
    /// `Ok(false)` means the peer closed cleanly; transport errors
    /// surface as `Err`.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    self.framer.push(&buf[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Queues `text` plus the protocol's line terminator for writing.
    pub fn queue(&mut self, text: &str) {
        self.out.extend_from_slice(text.as_bytes());
        self.out.push(b'\n');
    }

    /// Nonblocking write: drains as much pending output as the socket
    /// accepts right now. `WouldBlock` is not an error — the remainder
    /// stays queued until the socket reports writable.
    pub fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// `true` when nothing remains queued for writing.
    pub fn flushed(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// Bytes currently queued for writing (slow-consumer accounting).
    pub fn out_len(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(framer: &mut LineFramer) -> Vec<Frame> {
        std::iter::from_fn(|| framer.pop()).collect()
    }

    #[test]
    fn frames_lines_and_strips_cr() {
        let mut f = LineFramer::new(64);
        f.push(b"HELLO\r\nSTATUS q1\npartial");
        assert_eq!(
            frames(&mut f),
            vec![Frame::Line("HELLO".into()), Frame::Line("STATUS q1".into())]
        );
        assert_eq!(f.buffered(), "partial".len());
        f.push(b"\n");
        assert_eq!(frames(&mut f), vec![Frame::Line("partial".into())]);
    }

    #[test]
    fn oversized_line_frames_once_and_resyncs() {
        let mut f = LineFramer::new(8);
        f.push(b"0123456789abcdef\nNEXT\n");
        assert_eq!(
            frames(&mut f),
            vec![Frame::TooLong, Frame::Line("NEXT".into())]
        );
    }

    #[test]
    fn nul_poisons_exactly_one_line() {
        let mut f = LineFramer::new(64);
        f.push(b"bad\0line\nGOOD\n");
        assert_eq!(frames(&mut f), vec![Frame::Nul, Frame::Line("GOOD".into())]);
    }

    #[test]
    fn chunking_is_invisible() {
        let stream = b"HELLO\nSUBMIT SELECT 1 FROM t\n\0\nxxxxxxxxxxxxxxxxxxxxx\nBYE\n";
        let mut oneshot = LineFramer::new(16);
        oneshot.push(stream);
        let want = frames(&mut oneshot);
        for split in 0..stream.len() {
            let mut f = LineFramer::new(16);
            f.push(&stream[..split]);
            f.push(&stream[split..]);
            assert_eq!(frames(&mut f), want, "split at {split}");
        }
    }
}
