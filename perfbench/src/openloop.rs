//! Open-loop load: requests sent on a fixed schedule whatever the replies
//! do, over non-blocking keep-alive connections driven from one thread.
//!
//! Each request is timed from when it was *due*, so a stall in the server
//! also charges the requests queued behind it; how late the generator
//! itself sent (`sent - due`) is reported separately as a validity check.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// A constant-rate stream of requests over `[start_s, end_s)` of the load
/// phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Requests per second.
    pub rate_hz: f64,
    /// Phase start, seconds from the start of the load phase.
    pub start_s: f64,
    /// Phase end (exclusive), seconds from the start of the load phase.
    pub end_s: f64,
}

impl Phase {
    /// Due times of the phase's requests: `start + k / rate` for every
    /// `k >= 0` that falls before `end`.
    #[must_use]
    pub fn due_times(&self) -> Vec<f64> {
        if self.rate_hz <= 0.0 || self.end_s <= self.start_s {
            return Vec::new();
        }
        let n = ((self.end_s - self.start_s) * self.rate_hz - 1e-9).ceil() as usize;
        (0..n)
            .map(|k| self.start_s + k as f64 / self.rate_hz)
            .collect()
    }
}

/// Splits `[start_s, end_s)` into `rates.len()` equal consecutive phases,
/// one per rate.
#[must_use]
pub fn stepped(rates: &[f64], start_s: f64, end_s: f64) -> Vec<Phase> {
    let width = (end_s - start_s) / rates.len().max(1) as f64;
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate_hz)| Phase {
            rate_hz,
            start_s: start_s + i as f64 * width,
            end_s: start_s + (i + 1) as f64 * width,
        })
        .collect()
}

/// How late the generator sent a request, in ms: `sent - due`, never
/// negative (a request is never sent early).
#[must_use]
pub fn late_ms(due_s: f64, sent_s: f64) -> f64 {
    ((sent_s - due_s) * 1e3).max(0.0)
}

/// Latency of a request timed from when it was due, in ms.
#[must_use]
pub fn from_due_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A non-blocking keep-alive HTTP/1.1 connection that pipelines requests:
/// writes go out when due, responses are matched to requests in order.
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    /// Tags of requests sent and not yet answered, oldest first.
    pending: VecDeque<usize>,
}

impl Conn {
    /// Connects to `addr` and switches the socket to non-blocking mode.
    ///
    /// # Errors
    /// Propagates connect and socket-option errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            wbuf: Vec::new(),
            rbuf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Queues a request tagged `tag` and writes as much as the socket
    /// takes now.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn send(
        &mut self,
        tag: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let head = if body.is_empty() {
            format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n\r\n")
        } else {
            format!(
                "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
        };
        self.wbuf.extend_from_slice(head.as_bytes());
        self.wbuf.extend_from_slice(body.as_bytes());
        self.pending.push_back(tag);
        self.flush()
    }

    /// Requests sent and not yet answered.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Writes what is buffered, reads what has arrived, and appends each
    /// complete response with its request's tag to `out`.
    ///
    /// # Errors
    /// Propagates socket errors; a closed connection with requests still
    /// pending is an error.
    pub fn poll(&mut self, out: &mut Vec<(usize, Response)>) -> std::io::Result<()> {
        self.flush()?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if !self.pending.is_empty() {
                        return Err(ErrorKind::UnexpectedEof.into());
                    }
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        while let Some((response, used)) = parse_response(&self.rbuf)? {
            self.rbuf.drain(..used);
            let tag = self.pending.pop_front().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidData, "unsolicited response")
            })?;
            out.push((tag, response));
        }
        Ok(())
    }
}

/// Parses one complete response off the front of `buf`; `None` when more
/// bytes are needed. Returns the response and the bytes it used.
///
/// # Errors
/// Fails on a malformed status line or header block.
pub fn parse_response(buf: &[u8]) -> std::io::Result<Option<(Response, usize)>> {
    let bad = |m: &str| std::io::Error::new(ErrorKind::InvalidData, m.to_string());
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            }
        }
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    let body = buf[body_start..body_start + length].to_vec();
    Ok(Some((Response { status, body }, body_start + length)))
}

/// Seconds elapsed since `origin`.
#[must_use]
pub fn secs_since(origin: Instant) -> f64 {
    origin.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_phase_start() {
        let p = Phase {
            rate_hz: 4.0,
            start_s: 1.0,
            end_s: 2.0,
        };
        assert_eq!(p.due_times(), vec![1.0, 1.25, 1.5, 1.75]);
        // A phase whose length is not a whole number of periods keeps the
        // last request that still falls inside it.
        let q = Phase {
            rate_hz: 3.0,
            start_s: 0.0,
            end_s: 1.1,
        };
        assert_eq!(q.due_times().len(), 4);
        assert!(q.due_times().iter().all(|&t| t < 1.1));
        assert!(Phase {
            rate_hz: 0.0,
            start_s: 0.0,
            end_s: 5.0
        }
        .due_times()
        .is_empty());
    }

    #[test]
    fn stepped_phases_tile_the_window() {
        let phases = stepped(&[100.0, 200.0, 400.0], 6.0, 12.0);
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].start_s, 6.0);
        assert_eq!(phases[1].start_s, 8.0);
        assert_eq!(phases[2].end_s, 12.0);
        let total: usize = phases.iter().map(|p| p.due_times().len()).sum();
        assert_eq!(total, 200 + 400 + 800);
    }

    #[test]
    fn latency_counts_from_due_not_from_send() {
        // Due at 1.000 s, sent 5 ms late, answered at 1.020 s: 20 ms of
        // latency, 5 ms of which the generator's own lateness.
        assert!((from_due_ms(1.0, 1.020) - 20.0).abs() < 1e-9);
        assert!((late_ms(1.0, 1.005) - 5.0).abs() < 1e-9);
        assert_eq!(late_ms(1.0, 0.999), 0.0);
    }

    #[test]
    fn parses_pipelined_responses() {
        let wire = b"HTTP/1.1 201 Created\r\nContent-Length: 8\r\n\r\n{\"id\":3}HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK\r\nContent-Le";
        let (first, used) = parse_response(wire).unwrap().unwrap();
        assert_eq!(first.status, 201);
        assert_eq!(first.body, b"{\"id\":3}".to_vec());
        let rest = &wire[used..];
        let (second, used2) = parse_response(rest).unwrap().unwrap();
        assert_eq!(second.status, 200);
        assert!(second.body.is_empty());
        assert!(parse_response(&rest[used2..]).unwrap().is_none());
    }
}
