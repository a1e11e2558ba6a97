//! A minimal in-process HTTP/1.1 client for the load harness and the
//! integration tests.
//!
//! One [`Client`] owns one keep-alive connection and issues requests
//! sequentially over it (the load generator runs one client per worker
//! thread). Transport failures surface as `Err` strings — the caller
//! counts them — and the client transparently reconnects on the next
//! request, so a server-side connection drop (chaos plans, timeouts)
//! costs exactly one failed request. Responses are framed by the same
//! reader the servers use, `rapid_obs::http::ConnBuf`.
//!
//! [`RetryingClient`] wraps a [`Client`] with the [`RetryPolicy`]
//! backoff machine: transport errors and shed responses (`429`/`503`)
//! are retried with capped, jittered delays that honor the server's
//! `Retry-After` hint, under an attempt cap and a cumulative-sleep
//! budget. Replaying a `/events` POST is safe because every event
//! carries a per-user `seq` watermark the server deduplicates on.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rapid_obs::http::ConnBuf;

use crate::backoff::{RetryPolicy, RetryState};

/// Client-side I/O timeout; generous next to the server's 500 ms.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One keep-alive connection to the server.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response.
    conn: ConnBuf,
    /// Sent as `X-Rapid-Admin-Token` on every request when set.
    admin_token: Option<String>,
}

/// A parsed response: status code, body text, and the request's trace
/// id when the server stamped one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Numeric status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// The `X-Rapid-Trace-Id` response header, when present.
    pub trace_id: Option<String>,
    /// The `Retry-After` header in seconds, when the server shed this
    /// request.
    pub retry_after_s: Option<u64>,
}

impl Response {
    /// Whether this is a shed (`429`/`503`) worth retrying.
    pub fn is_shed(&self) -> bool {
        self.status == 429 || self.status == 503
    }
}

impl Client {
    /// A client for `addr`; the connection opens lazily on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            conn: ConnBuf::new(),
            admin_token: None,
        }
    }

    /// Attaches `X-Rapid-Admin-Token: token` to every request, for
    /// servers booted with [`crate::AppState::with_admin_token`].
    #[must_use]
    pub fn with_admin_token(mut self, token: impl Into<String>) -> Self {
        self.admin_token = Some(token.into());
        self
    }

    /// Sends `GET path`.
    ///
    /// # Errors
    /// Returns a description of the transport failure (connect, write,
    /// read, or framing); the connection is recycled for the next call.
    pub fn get(&mut self, path: &str) -> Result<Response, String> {
        self.request("GET", path, None, None)
    }

    /// Sends `POST path` with a JSON body.
    ///
    /// # Errors
    /// As [`Client::get`].
    pub fn post(&mut self, path: &str, body: &str) -> Result<Response, String> {
        self.request("POST", path, Some(body), None)
    }

    /// [`Client::post`] with a per-request deadline budget attached as
    /// `X-Rapid-Deadline-Ms`.
    ///
    /// # Errors
    /// As [`Client::get`].
    pub fn post_with_deadline(
        &mut self,
        path: &str,
        body: &str,
        deadline_ms: u64,
    ) -> Result<Response, String> {
        self.request("POST", path, Some(body), Some(deadline_ms))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        let result = self.request_inner(method, path, body, deadline_ms);
        if result.is_err() {
            // Drop the (possibly misframed) connection; the next
            // request dials fresh.
            self.stream = None;
        }
        result
    }

    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .map_err(|e| format!("timeout: {e}"))?;
            stream
                .set_write_timeout(Some(IO_TIMEOUT))
                .map_err(|e| format!("timeout: {e}"))?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.conn = ConnBuf::new();
        }
        let Some(stream) = self.stream.as_mut() else {
            return Err("no connection".to_string());
        };

        let payload = body.unwrap_or("");
        let deadline_header = match deadline_ms {
            Some(ms) => format!("X-Rapid-Deadline-Ms: {ms}\r\n"),
            None => String::new(),
        };
        let token_header = match self.admin_token.as_deref() {
            Some(token) => format!("X-Rapid-Admin-Token: {token}\r\n"),
            None => String::new(),
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: rapid-serve\r\nContent-Length: {}\r\nConnection: keep-alive\r\n{deadline_header}{token_header}\r\n{payload}",
            payload.len(),
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;

        // Responses are not capped: the peer is this crate's own
        // server, and the framer refuses lengths it cannot address.
        let frame = self
            .conn
            .read_frame(stream, usize::MAX)
            .map_err(|e| format!("response framing: {e:?}"))?;
        let status = frame
            .status()
            .ok_or_else(|| "response without a status code".to_string())?;
        if !frame.keep_alive() {
            self.stream = None;
        }
        Ok(Response {
            status,
            trace_id: frame.header("x-rapid-trace-id").map(str::to_string),
            retry_after_s: frame.header("retry-after").and_then(|v| v.parse().ok()),
            body: String::from_utf8_lossy(&frame.body).into_owned(),
        })
    }
}

/// A [`Client`] that retries transport errors and shed (`429`/`503`)
/// responses under a [`RetryPolicy`]. Everything else — including other
/// 4xx/5xx — returns immediately: a `400` will not become a `200` by
/// asking again, and retrying a `500` would double-apply non-idempotent
/// work without a watermark to dedupe on.
pub struct RetryingClient {
    inner: Client,
    policy: RetryPolicy,
    seed: u64,
    /// Logical requests issued (salts each request's jitter stream).
    seq: u64,
    /// Retries issued over this client's lifetime (the load report
    /// sums these).
    pub retries: u64,
}

impl RetryingClient {
    /// Wraps a fresh connection to `addr`. `seed` makes the jitter
    /// sequence reproducible.
    pub fn new(addr: SocketAddr, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            inner: Client::new(addr),
            policy,
            seed,
            seq: 0,
            retries: 0,
        }
    }

    /// Direct access to the wrapped client (for unretried requests).
    pub fn client(&mut self) -> &mut Client {
        &mut self.inner
    }

    /// POSTs with retries: each shed or transport failure backs off by
    /// the policy (honoring `Retry-After`) and re-issues the identical
    /// request. Returns the final response (possibly still a shed once
    /// the policy is exhausted) or the final transport error.
    ///
    /// # Errors
    /// The last transport failure when retries run out without a
    /// response.
    pub fn post_retrying(
        &mut self,
        path: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.seq += 1;
        // Each logical request gets its own deterministic jitter
        // stream, decorrelated from other clients by the seed.
        let mut state = RetryState::new(self.seed ^ self.seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        loop {
            let result = match deadline_ms {
                Some(ms) => self.inner.post_with_deadline(path, body, ms),
                None => self.inner.post(path, body),
            };
            let retry_after_ms = match &result {
                Ok(r) if r.is_shed() => r.retry_after_s.map(|s| s.saturating_mul(1_000)),
                Ok(r) => return Ok(r.clone()),
                Err(_) => None,
            };
            match self.policy.next_delay(&mut state, retry_after_ms) {
                Some(delay_ms) => {
                    self.retries += 1;
                    rapid_obs::global().counter_add("serve.client.retries", 1);
                    std::thread::sleep(Duration::from_millis(delay_ms));
                }
                None => return result,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn a_hostile_content_length_is_an_error_not_a_panic() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let _ = s.read(&mut [0u8; 1024]);
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n")
                .unwrap();
        });
        let result = Client::new(addr).get("/healthz");
        assert!(result.is_err(), "{result:?}");
        server.join().unwrap();
    }
}
