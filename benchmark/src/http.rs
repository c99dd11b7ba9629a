//! The harness's own HTTP/1.1 client, behaving as `curl` does: `TCP_NODELAY`
//! set and each request sent with a single `write`. It deliberately does not
//! reuse `tssa_net::roundtrip` (two writes, Nagle on), so a stall measured on
//! a round trip is the server's.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Responses larger than this are refused rather than allocated for.
const MAX_BODY: usize = 64 << 20;

pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        // A hung server fails the op instead of hanging the benchmark.
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(64 * 1024, writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Send one request built by [`message`] with a single `write_all` and
    /// read the reply.
    pub fn round_trip(&mut self, message: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(message)?;
        read_reply(&mut self.reader)
    }
}

/// One HTTP/1.1 request, head and body in one buffer. Built ahead of the
/// timed loop, so a round trip times the server and the sockets, not the
/// client assembling bytes.
pub fn message(method: &str, path: &str, content_type: &str, body: &[u8]) -> Vec<u8> {
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: gateway\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    message
}

fn read_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn read_exact_vec<R: Read>(reader: &mut R, len: usize, into: &mut Vec<u8>) -> io::Result<()> {
    if into.len() + len > MAX_BODY {
        return Err(bad("reply body too large"));
    }
    let at = into.len();
    into.resize(at + len, 0);
    reader.read_exact(&mut into[at..])
}

/// Read one reply with `Content-Length` or chunked framing.
pub fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<Reply> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("status line `{status_line}`")))?;
    let (mut length, mut chunked) = (0usize, false);
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().map_err(|_| bad("content-length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            chunked = value.eq_ignore_ascii_case("chunked");
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let size = usize::from_str_radix(read_line(reader)?.trim(), 16)
                .map_err(|_| bad("chunk size"))?;
            if size == 0 {
                read_line(reader)?;
                break;
            }
            read_exact_vec(reader, size, &mut body)?;
            read_line(reader)?;
        }
    } else {
        read_exact_vec(reader, length, &mut body)?;
    }
    Ok(Reply { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fixed_length_and_chunked_replies() {
        let fixed = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 404";
        let reply = read_reply(&mut &fixed[..]).unwrap();
        assert_eq!((reply.status, reply.body.as_slice()), (200, &b"hello"[..]));

        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let reply = read_reply(&mut &chunked[..]).unwrap();
        assert_eq!(reply.body, b"abcde");
    }

    #[test]
    fn refuses_truncated_and_oversized_replies() {
        assert!(read_reply(&mut &b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc"[..]).is_err());
        assert!(read_reply(&mut &b"nonsense\r\n\r\n"[..]).is_err());
        let huge = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_reply(&mut huge.as_bytes()).is_err());
    }
}
