//! A minimal blocking client for the newline-delimited JSON protocol.
//!
//! One request line in, one response line out, in order. Used by the
//! e2e tests, the `serve-bench` load generator, and the
//! `service_demo` example; also a reference implementation for clients
//! in other languages (the protocol is just lines of JSON).
//!
//! # Push notifications
//!
//! A connection with live subscriptions receives `{"push":...}` frames
//! interleaved between response lines. Every read path here classifies
//! each incoming line: push frames are buffered aside (never returned
//! from [`ServiceClient::request`]/[`ServiceClient::pipeline`]), and
//! [`ServiceClient::next_notification`] /
//! [`ServiceClient::try_next_notification`] drain that buffer before
//! blocking on the socket.

use crate::json::{self, Json};
use crate::protocol::write_line;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Whether a response line is a push-notification frame. The server
/// guarantees `"push"` is the first member of every frame and never the
/// first member of a response, so a prefix check suffices — no parse.
fn is_push_frame(line: &str) -> bool {
    line.starts_with(r#"{"push":"#)
}

/// A connected client.
pub struct ServiceClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Push frames that arrived while reading responses, oldest first.
    pushes: VecDeque<String>,
    /// Partial line carried across a read timeout in
    /// [`try_next_notification`](Self::try_next_notification).
    partial: String,
}

impl ServiceClient {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            pushes: VecDeque::new(),
            partial: String::new(),
        })
    }

    /// Reads the next non-push line from the socket, buffering any push
    /// frames encountered on the way.
    fn read_response_line(&mut self) -> std::io::Result<String> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            if is_push_frame(&line) {
                self.pushes.push_back(line);
                continue;
            }
            return Ok(line);
        }
    }

    /// Connects with bounded retry: connection-refused/reset failures
    /// (the server is restarting — e.g. recovering its WAL) back off
    /// exponentially from 10ms, capped at 500ms per wait, for at most
    /// `attempts` tries. Other errors (unroutable address, permission)
    /// fail immediately — retrying cannot fix them.
    pub fn connect_with_retry(addr: impl ToSocketAddrs, attempts: u32) -> std::io::Result<Self> {
        let mut backoff = std::time::Duration::from_millis(10);
        let mut tries = 0;
        loop {
            match Self::connect(&addr) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    tries += 1;
                    let transient = matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionRefused
                            | std::io::ErrorKind::ConnectionReset
                            | std::io::ErrorKind::ConnectionAborted
                    );
                    if !transient || tries >= attempts.max(1) {
                        return Err(e);
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(std::time::Duration::from_millis(500));
                }
            }
        }
    }

    /// Sends one raw request line and returns the raw response line
    /// (no trailing newline).
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        write_line(&mut self.writer, line)?;
        self.read_response_line()
    }

    /// Sends one request and parses the response JSON.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        let raw = self.request_raw(line)?;
        json::parse(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )
        })
    }

    /// Sends every request line in one write, then reads one response
    /// line per request — exercising the server's pipelined path (all
    /// requests enter the worker pool before the first response is
    /// read). Responses come back in request order.
    pub fn pipeline(&mut self, lines: &[&str]) -> std::io::Result<Vec<String>> {
        let mut batch = String::new();
        for line in lines {
            batch.push_str(line);
            batch.push('\n');
        }
        self.writer.write_all(batch.as_bytes())?;
        let mut responses = Vec::with_capacity(lines.len());
        for _ in lines {
            responses.push(self.read_response_line()?);
        }
        Ok(responses)
    }

    /// Sends a request and returns `Ok(payload)` if the server answered
    /// `"ok":true`, else the protocol error code as `Err`.
    pub fn request_ok(&mut self, line: &str) -> std::io::Result<Json> {
        let v = self.request(line)?;
        if v.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(v)
        } else {
            let code = v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed error response")
                .to_string();
            let message = v.get("message").and_then(Json::as_str).unwrap_or("");
            Err(std::io::Error::other(format!("{code}: {message}")))
        }
    }

    /// Blocks until the next push-notification frame and returns it
    /// parsed. Frames buffered while reading responses are drained
    /// first. A non-push line arriving here (a response nobody asked
    /// for) is a protocol violation and errors with `InvalidData`.
    pub fn next_notification(&mut self) -> std::io::Result<Json> {
        let line = match self.pushes.pop_front() {
            Some(line) => line,
            None => {
                let mut line = String::new();
                let n = self.reader.read_line(&mut line)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ));
                }
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                if !is_push_frame(&line) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("expected a push frame, got a response line: {line}"),
                    ));
                }
                line
            }
        };
        json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable push frame: {e}"),
            )
        })
    }

    /// Like [`next_notification`](Self::next_notification) but gives up
    /// after `wait`, returning `Ok(None)` — the way a test asserts
    /// *silence* (e.g. after an unsubscribe). A line split by the
    /// timeout is carried over and completed on the next call, so
    /// polling never tears frames.
    pub fn try_next_notification(&mut self, wait: Duration) -> std::io::Result<Option<Json>> {
        if let Some(line) = self.pushes.pop_front() {
            return json::parse(&line)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
        self.writer.set_read_timeout(Some(wait))?;
        let result = loop {
            let mut chunk = String::new();
            let read = self.reader.read_line(&mut chunk);
            // read_line appends what it read even on error, so a line
            // split by the timeout survives in `partial` for next time.
            self.partial.push_str(&chunk);
            match read {
                Ok(0) => {
                    break Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) => {
                    if !self.partial.ends_with('\n') {
                        // Timeout split the line; keep accumulating.
                        continue;
                    }
                    let mut line = std::mem::take(&mut self.partial);
                    while line.ends_with('\n') || line.ends_with('\r') {
                        line.pop();
                    }
                    if !is_push_frame(&line) {
                        break Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("expected a push frame, got a response line: {line}"),
                        ));
                    }
                    break json::parse(&line)
                        .map(Some)
                        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break Ok(None)
                }
                Err(e) => break Err(e),
            }
        };
        self.writer.set_read_timeout(None)?;
        result
    }

    /// A blocking iterator over push notifications; ends on a transport
    /// error (e.g. the server closed the connection).
    pub fn notifications(&mut self) -> impl Iterator<Item = Json> + '_ {
        std::iter::from_fn(move || self.next_notification().ok())
    }
}
