//! A minimal HTTP/1.1 keep-alive client: one request at a time over one
//! connection, `Content-Length` framing only. The benchmark measures
//! through this rather than the service's own client so that a change to
//! the service's client code cannot change the instrument.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// No single request in any workload should come near this.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A response: status code and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn invalid(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
}

impl Conn {
    /// Connects to `addr` with Nagle off.
    pub fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads its response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut msg = Vec::with_capacity(head.len() + body.len());
        msg.extend_from_slice(head.as_bytes());
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;
        self.read_response()
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("header"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| invalid("status line"))?;
        let mut len = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| invalid("content-length"))?;
                }
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + len].to_vec();
        self.buf.drain(..body_start + len);
        Ok(Response { status, body })
    }
}
