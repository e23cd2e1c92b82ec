//! The load generator: one thread per connection, each writing requests
//! on its own socket and reading whatever responses are ready between
//! writes. Open loop sends on a schedule whatever happened to earlier
//! requests; closed loop keeps a fixed window of requests in flight.

use crate::script::Req;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("tcbench waits with Linux ppoll(2) and reads /proc/self/status");

/// Blocks until `stream` has bytes to read or `wait` has passed. The
/// socket read timeout is rounded up to the kernel tick (4 ms on common
/// kernels), which would make the open loop send late; `ppoll` sleeps on
/// a high-resolution timer and wakes as soon as a byte arrives.
fn wait_readable(stream: &TcpStream, wait: Duration) -> std::io::Result<()> {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            mask: *const c_void,
        ) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: wait.as_secs() as c_long,
        tv_nsec: c_long::from(wait.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `timeout` are live locals laid out as the kernel's
    // `struct pollfd` and `struct timespec` (64-bit Linux, checked above)
    // for the whole call, `nfds` = 1 matches the one entry, and a null
    // mask leaves the signal mask alone.
    let rc = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// One request's life, in offsets from the phase start.
#[derive(Debug)]
pub struct Record {
    /// What was sent.
    pub req: Req,
    /// When it was due: its scheduled time (open loop) or its send time
    /// (closed loop). Latency counts from here.
    pub due: Duration,
    /// When its line was written.
    pub sent: Duration,
    /// When its response line arrived; `None` if it never did.
    pub done: Option<Duration>,
    /// The response line.
    pub response: String,
}

impl Record {
    /// Latency from due time to response, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// A connection driven by one load thread.
pub struct Conn {
    stream: TcpStream,
    t0: Instant,
    rbuf: Vec<u8>,
    chunk: Vec<u8>,
    inflight: VecDeque<Record>,
    /// Requests whose response arrived, in completion order.
    pub done: Vec<Record>,
    /// Push-notification frames received.
    pub pushes: u64,
    /// Response lines that matched no outstanding request: answers to
    /// [`call`](Conn::call) until it takes them, strays otherwise.
    loose: VecDeque<String>,
}

/// How long a drained phase waits for stragglers before giving up on
/// them (they then count as unanswered).
const DRAIN: Duration = Duration::from_secs(20);

impl Conn {
    /// Connects; offsets count from `t0`.
    pub fn connect(addr: SocketAddr, t0: Instant) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            t0,
            rbuf: Vec::new(),
            chunk: vec![0; 1 << 16],
            inflight: VecDeque::new(),
            done: Vec::new(),
            pushes: 0,
            loose: VecDeque::new(),
        })
    }

    /// Response lines no request claimed.
    pub fn strays(&self) -> usize {
        self.loose.len()
    }

    /// Restarts offsets at `t0` (the next phase's start).
    pub fn rebase(&mut self, t0: Instant) {
        self.t0 = t0;
    }

    /// Takes the requests that are still unanswered.
    pub fn take_unanswered(&mut self) -> Vec<Record> {
        self.inflight.drain(..).collect()
    }

    fn send(&mut self, req: Req, due: Duration) -> std::io::Result<()> {
        self.write_line(&req.line)?;
        let sent = self.t0.elapsed();
        self.inflight.push_back(Record {
            req,
            due,
            sent,
            done: None,
            response: String::new(),
        });
        Ok(())
    }

    /// Writes `line` and its newline on the non-blocking socket, reading
    /// responses while the send buffer is full.
    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let bytes = format!("{line}\n").into_bytes();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.poll(Duration::from_micros(50))?
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Waits up to `wait` (at most a second) for bytes and files every
    /// complete line.
    fn poll(&mut self, wait: Duration) -> std::io::Result<()> {
        wait_readable(&self.stream, wait.min(Duration::from_secs(1)))?;
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                let now = self.t0.elapsed();
                self.rbuf.extend_from_slice(&self.chunk[..n]);
                while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
                    let raw: Vec<u8> = self.rbuf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&raw[..pos]).into_owned();
                    self.file(line, now);
                }
                Ok(())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn file(&mut self, line: String, now: Duration) {
        // The server leads every push frame with `"push"` and no
        // response with it, so a prefix check classifies a line.
        if line.starts_with(r#"{"push":"#) {
            self.pushes += 1;
        } else if let Some(mut rec) = self.inflight.pop_front() {
            rec.done = Some(now);
            rec.response = line;
            self.done.push(rec);
        } else {
            self.loose.push_back(line);
        }
    }

    /// Sends a set-up or admin line while nothing else is in flight and
    /// returns its response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        assert!(
            self.inflight.is_empty(),
            "call() while requests are in flight"
        );
        self.write_line(line)?;
        let deadline = Instant::now() + DRAIN;
        loop {
            if let Some(response) = self.loose.pop_front() {
                return Ok(response);
            }
            if Instant::now() > deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no response"));
            }
            self.poll(Duration::from_millis(50))?;
        }
    }

    /// Open loop: sends each request at its scheduled offset, then
    /// drains the responses.
    pub fn open_loop(&mut self, plan: Vec<(Duration, Req)>) -> std::io::Result<()> {
        let end = plan.last().map_or(Duration::ZERO, |p| p.0);
        let mut plan = plan.into_iter().peekable();
        loop {
            while let Some((due, _)) = plan.peek() {
                if *due > self.t0.elapsed() {
                    break;
                }
                let (due, req) = plan.next().expect("peeked");
                self.send(req, due)?;
            }
            let now = self.t0.elapsed();
            let wait = match plan.peek() {
                Some((due, _)) => due.saturating_sub(now),
                None if self.inflight.is_empty() || now > end + DRAIN => return Ok(()),
                None => Duration::from_millis(5),
            };
            self.poll(wait)?;
        }
    }

    /// Closed loop: keeps `window` requests in flight until `until` or
    /// until `next` runs out, then drains. Each request is due when it
    /// is sent.
    pub fn closed_loop(
        &mut self,
        window: usize,
        until: Duration,
        mut next: impl FnMut() -> Option<Req>,
    ) -> std::io::Result<()> {
        let mut stopped = None;
        loop {
            let now = self.t0.elapsed();
            if stopped.is_none() && now >= until {
                stopped = Some(now);
            }
            while stopped.is_none() && self.inflight.len() < window {
                match next() {
                    Some(req) => {
                        let due = self.t0.elapsed();
                        self.send(req, due)?;
                    }
                    None => stopped = Some(now),
                }
            }
            match stopped {
                None => self.poll(until - now)?,
                Some(at) if self.inflight.is_empty() || now > at + DRAIN => return Ok(()),
                Some(_) => self.poll(Duration::from_millis(5))?,
            }
        }
    }
}
