//! The workspace's one HTTP/1.1 transport, shared by the telemetry
//! endpoint ([`crate::serve`]) and the online service (`rapid-serve`,
//! whose client also reads its responses through [`ConnBuf`]).
//!
//! * [`ConnBuf::read_frame`] frames one message, request or response: a
//!   start line, headers up to [`MAX_HEADER_BYTES`], and a
//!   `Content-Length` body up to the caller's cap. It is a byte scanner,
//!   not a spec-complete parser — chunked bodies, continuation lines and
//!   HTTP/2 are refused — but hostile input never panics it: every
//!   malformed shape is a typed [`FrameError`], which a server answers
//!   with [`FrameError::status`] and a close. Bytes read past the end of
//!   one message stay buffered for the next, so pipelined keep-alive
//!   peers lose nothing between messages.
//! * [`listen`] binds a nonblocking listener polled every 10 ms under a
//!   stop flag, and queues each accepted connection, with 500 ms read and
//!   write timeouts, in a bounded channel ahead of a worker pool. A
//!   worker hands the connection and its queue wait to the caller's
//!   handler; a connection the full queue cannot hold goes to the
//!   caller's `on_full` instead of waiting.
//! * [`response_bytes`] renders one response.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on start-line and header bytes: no legitimate client of
/// these routes sends 8 KiB of headers, and the cap bounds what a
/// hostile peer can make a worker buffer.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// How long the accept loop sleeps between polls. Shutdown latency and
/// idle cost both scale with this; 10 ms keeps either negligible.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Per-stream read/write timeout, so one stalled peer cannot wedge a
/// worker. Also bounds how long a worker waits for the next keep-alive
/// request before recycling the connection.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

/// One framed message: a request or a response.
#[derive(Debug, PartialEq, Eq)]
pub struct Frame {
    /// The start line and header lines, without the blank line.
    head: String,
    /// Exactly `Content-Length` bytes (empty without the header).
    pub body: Vec<u8>,
}

impl Frame {
    /// The `n`th word of the start line: `GET /path HTTP/1.1` for a
    /// request, `HTTP/1.1 200 OK` for a response.
    fn start_word(&self, n: usize) -> &str {
        let start = self.head.split("\r\n").next().unwrap_or("");
        start.split_whitespace().nth(n).unwrap_or("")
    }

    /// A request's method (`GET`, `POST`, …) as sent.
    pub fn method(&self) -> &str {
        self.start_word(0)
    }

    /// A request's target with any query string stripped.
    pub fn path(&self) -> &str {
        let target = self.start_word(1);
        target.split('?').next().unwrap_or(target)
    }

    /// A response's status code, if its status line carries one.
    pub fn status(&self) -> Option<u16> {
        self.start_word(1).parse().ok()
    }

    /// The trimmed value of the first header called `name`, compared
    /// ASCII case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.split("\r\n").skip(1).find_map(|line| {
            let (field, value) = line.split_once(':')?;
            field.eq_ignore_ascii_case(name).then(|| value.trim())
        })
    }

    /// Whether the sender keeps the connection open after this message:
    /// HTTP/1.1's default, unless it sent `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why [`ConnBuf::read_frame`] produced no message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed or timed out before a whole head arrived: the
    /// normal end of a keep-alive connection, with nothing to answer.
    Closed,
    /// The head exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// The declared `Content-Length` exceeds the caller's cap.
    BodyTooLarge,
    /// Malformed framing: a start line of fewer than two words, an
    /// unparsable or overflowing `Content-Length`, a `Transfer-Encoding`,
    /// or a body shorter than declared.
    Malformed(&'static str),
}

impl FrameError {
    /// The status and reason a server answers with before it closes the
    /// connection (a framing error leaves the byte stream
    /// unsynchronised); `None` for [`FrameError::Closed`].
    pub fn status(self) -> Option<(&'static str, &'static str)> {
        match self {
            Self::Closed => None,
            Self::HeadersTooLarge => {
                Some(("431 Request Header Fields Too Large", "headers too large"))
            }
            Self::BodyTooLarge => Some(("413 Payload Too Large", "body too large")),
            Self::Malformed(why) => Some(("400 Bad Request", why)),
        }
    }
}

/// Per-connection carry-over buffer for pipelined keep-alive peers.
#[derive(Debug, Default)]
pub struct ConnBuf {
    buf: Vec<u8>,
}

impl ConnBuf {
    /// An empty carry-over buffer for a fresh connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one message from `stream`, using and refilling the
    /// carry-over buffer. `max_body` caps the declared body size.
    ///
    /// # Errors
    /// [`FrameError::Closed`] when the peer goes away between messages,
    /// and the other variants for framing the caller must refuse.
    pub fn read_frame(
        &mut self,
        stream: &mut TcpStream,
        max_body: usize,
    ) -> Result<Frame, FrameError> {
        // Phase 1: accumulate until the header terminator.
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > MAX_HEADER_BYTES {
                return Err(FrameError::HeadersTooLarge);
            }
            if !fill(stream, &mut self.buf) {
                return Err(FrameError::Closed);
            }
        };
        if header_end > MAX_HEADER_BYTES {
            return Err(FrameError::HeadersTooLarge);
        }
        let head = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
        let mut lines = head.split("\r\n");
        let start = lines.next().unwrap_or("");
        if start.split_whitespace().nth(1).is_none() {
            return Err(FrameError::Malformed("bad start line"));
        }
        let mut content_length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| FrameError::Malformed("unparsable Content-Length"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Chunked bodies are out of scope; refuse rather than
                // misframe the connection.
                return Err(FrameError::Malformed("transfer-encoding unsupported"));
            }
        }
        if content_length > max_body {
            return Err(FrameError::BodyTooLarge);
        }

        // Phase 2: ensure the declared body is buffered. Checked, so a
        // hostile length near `usize::MAX` under an uncapped reader is
        // refused instead of overflowing.
        let body_start = header_end + 4;
        let end = body_start
            .checked_add(content_length)
            .ok_or(FrameError::Malformed("Content-Length overflows"))?;
        while self.buf.len() < end {
            if !fill(stream, &mut self.buf) {
                return Err(FrameError::Malformed("body shorter than declared"));
            }
        }
        let body = self.buf[body_start..end].to_vec();
        self.buf.drain(..end);
        Ok(Frame { head, body })
    }
}

/// Reads one chunk from the stream into `buf`; `false` on EOF, an I/O
/// error or a timeout (all a dead peer).
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) | Err(_) => false,
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            true
        }
    }
}

/// Renders a full HTTP/1.1 response. `keep_alive` sets the `Connection`
/// header (the server closes after writing otherwise). `extra` headers
/// follow the framing headers; their names and values must already be
/// field-safe, as the fixed names and hex ids the servers pass are.
pub fn response_bytes(
    status: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
    extra: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head.push_str(body);
    head.into_bytes()
}

/// The numeric status code of a `"200 OK"`-style status line (0 when
/// the line is malformed — callers only bucket by class).
pub fn status_code(status: &str) -> u16 {
    status
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A running listener: its accept thread, its workers, and the stop
/// flag they poll. Dropping the handle detaches the threads (they keep
/// serving); call [`ServeHandle::stop`] for an orderly shutdown.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address — with an OS-assigned port when the caller
    /// bound `:0`.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals every thread to stop and joins them.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// An accepted connection waiting for a worker, stamped so its queue
/// wait can be charged against its first request.
struct Queued {
    stream: TcpStream,
    enqueued: Instant,
}

/// Binds `addr` (port `0` for an OS-assigned one) and serves it from
/// `workers` threads behind a queue of `queue_capacity` accepted
/// connections. Each worker calls `handle(stream, queue_wait, stop)`
/// per connection; the handler owns the connection's framing and should
/// return once `stop` is set. A connection arriving at a full queue goes
/// to `on_full` on the accept thread, which should refuse it fast.
/// Returns once the socket is bound, so a request cannot race the bind.
///
/// # Errors
/// Bind, socket-configuration and thread-spawn failures.
pub fn listen<F, H>(
    addr: &str,
    workers: usize,
    queue_capacity: usize,
    on_full: F,
    handle: H,
) -> std::io::Result<ServeHandle>
where
    F: Fn(TcpStream) + Send + 'static,
    H: Fn(TcpStream, Duration, &AtomicBool) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Queued>(queue_capacity.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let handle = Arc::new(handle);

    let mut threads = Vec::with_capacity(workers.max(1) + 1);
    for _ in 0..workers.max(1) {
        let (rx, handle, stop) = (Arc::clone(&rx), Arc::clone(&handle), Arc::clone(&stop));
        threads.push(std::thread::Builder::new().spawn(move || worker_loop(&rx, &*handle, &stop))?);
    }
    let accept_stop = Arc::clone(&stop);
    threads.push(
        std::thread::Builder::new()
            .spawn(move || accept_loop(&listener, &tx, &accept_stop, on_full))?,
    );
    Ok(ServeHandle {
        addr,
        stop,
        threads,
    })
}

fn accept_loop(
    listener: &TcpListener,
    tx: &mpsc::SyncSender<Queued>,
    stop: &AtomicBool,
    on_full: impl Fn(TcpStream),
) {
    while !stop.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            // `WouldBlock` (nothing pending) or a transient accept error.
            std::thread::sleep(POLL_INTERVAL);
            continue;
        };
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let conn = Queued {
            stream,
            enqueued: crate::clock::now(),
        };
        match tx.try_send(conn) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(conn)) => on_full(conn.stream),
            Err(mpsc::TrySendError::Disconnected(_)) => return, // all workers gone
        }
    }
}

fn worker_loop<H>(rx: &Mutex<mpsc::Receiver<Queued>>, handle: &H, stop: &AtomicBool)
where
    H: Fn(TcpStream, Duration, &AtomicBool),
{
    while !stop.load(Ordering::SeqCst) {
        // The guard is a temporary: the lock is released as soon as
        // `recv_timeout` returns, before the connection is handled.
        let next = rx
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv_timeout(Duration::from_millis(50));
        match next {
            Ok(conn) => handle(conn.stream, conn.enqueued.elapsed(), stop),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Frames `raw`, written by a peer that then closes.
    fn frame_bytes(raw: &[u8], max_body: usize) -> Result<Frame, FrameError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        peer.write_all(raw).unwrap();
        drop(peer); // EOF after the payload
        ConnBuf::new().read_frame(&mut stream, max_body)
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /events HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let r = frame_bytes(raw, 1024).unwrap();
        assert_eq!((r.method(), r.path()), ("POST", "/events"));
        assert_eq!(r.body, b"abcd");
        assert!(r.keep_alive());
        assert_eq!(r.header("x-rapid-deadline-ms"), None);
    }

    #[test]
    fn headers_are_found_case_insensitively_and_passed_through_raw() {
        let raw = b"GET /rerank HTTP/1.1\r\nX-Rapid-Deadline-Ms: 25\r\n\r\n";
        let r = frame_bytes(raw, 1024).unwrap();
        assert_eq!(r.header("x-rapid-deadline-ms"), Some("25"));
        // Framing never judges a hint's value; the service ignores
        // values it cannot parse rather than answering 400.
        let raw = b"GET /rerank HTTP/1.1\r\nx-rapid-deadline-ms: soon\r\n\r\n";
        let r = frame_bytes(raw, 1024).unwrap();
        assert_eq!(r.header("X-Rapid-Deadline-Ms"), Some("soon"));
    }

    #[test]
    fn strips_query_strings_and_honors_connection_close() {
        let raw = b"GET /aggregates?probe=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
        let r = frame_bytes(raw, 1024).unwrap();
        assert_eq!(r.path(), "/aggregates");
        assert!(!r.keep_alive());
    }

    #[test]
    fn pipelined_messages_are_both_framed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
        peer.write_all(b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n")
            .unwrap();
        let mut conn = ConnBuf::new();
        let a = conn.read_frame(&mut stream, 1024).unwrap();
        assert_eq!((a.path(), a.body.as_slice()), ("/a", &b"hi"[..]));
        let b = conn.read_frame(&mut stream, 1024).unwrap();
        assert_eq!((b.path(), b.body.as_slice()), ("/b", &b""[..]));
    }

    #[test]
    fn oversized_declared_body_is_rejected_without_reading_it() {
        let raw = b"POST /events HTTP/1.1\r\nContent-Length: 999999\r\n\r\n";
        assert_eq!(frame_bytes(raw, 1024), Err(FrameError::BodyTooLarge));
    }

    #[test]
    fn hostile_content_length_is_refused_in_either_direction() {
        // A server's cap refuses it before any arithmetic…
        let raw = b"POST /events HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
        assert_eq!(frame_bytes(raw, 1024), Err(FrameError::BodyTooLarge));
        // …and a client reading uncapped gets a typed error, not an
        // overflow or an out-of-bounds slice.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n";
        assert_eq!(
            frame_bytes(raw, usize::MAX),
            Err(FrameError::Malformed("Content-Length overflows"))
        );
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST /events HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert_eq!(
            frame_bytes(raw, 1024),
            Err(FrameError::Malformed("body shorter than declared"))
        );
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEADER_BYTES + 1024 {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.extend_from_slice(b"\r\n");
        assert_eq!(frame_bytes(&raw, 1024), Err(FrameError::HeadersTooLarge));
    }

    #[test]
    fn bad_start_lines_content_lengths_and_chunked_are_malformed() {
        for (raw, why) in [
            (&b"GARBAGE\r\n\r\n"[..], "bad start line"),
            (
                b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                "unparsable Content-Length",
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                "transfer-encoding unsupported",
            ),
        ] {
            assert_eq!(frame_bytes(raw, 1024), Err(FrameError::Malformed(why)));
        }
        assert_eq!(
            FrameError::Malformed("x").status(),
            Some(("400 Bad Request", "x"))
        );
        assert_eq!(FrameError::Closed.status(), None);
    }

    #[test]
    fn response_bytes_frame_correctly() {
        let text = String::from_utf8(response_bytes(
            "200 OK",
            "application/json",
            "{}",
            true,
            &[],
        ))
        .unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert_eq!(status_code("404 Not Found"), 404);
        assert_eq!(status_code(""), 0);
    }

    #[test]
    fn extra_headers_land_between_framing_and_body() {
        let bytes = response_bytes(
            "200 OK",
            "application/json",
            "{}",
            false,
            &[("X-Rapid-Trace-Id", "00000000deadbeef")],
        );
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: close\r\n"));
        assert!(
            text.contains("\r\nX-Rapid-Trace-Id: 00000000deadbeef\r\n"),
            "{text}"
        );
        assert!(text.ends_with("\r\n\r\n{}"));
        // The header block still terminates with exactly one blank line.
        assert_eq!(text.matches("\r\n\r\n").count(), 1);
    }
}
