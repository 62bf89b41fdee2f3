//! Transports: JSONL over TCP (thread-per-connection) and over
//! stdin/stdout.
//!
//! std-only by design — the protocol is one request line in, one
//! response line out, and every response is computed synchronously on
//! the shared worker pool, so blocking reads and plain threads are the
//! whole story. The accept loop polls non-blockingly so a `shutdown`
//! request handled on any connection stops the daemon without needing
//! to interrupt a blocked `accept`.

use crate::protocol::status_response;
use crate::service::Service;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Longest request line served, in bytes, newline excluded. The largest
/// bundled circuit (`s38417_like`, 25.7k gates) renders to a request
/// line of about 860 KB, so this leaves ~20x headroom while bounding
/// what one line can make the daemon buffer. A longer line is discarded
/// unread and answered with one `error` response.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// What [`read_request_line`] found.
enum RequestLine {
    /// A line of at most [`MAX_REQUEST_LINE`] bytes is in the buffer.
    Complete,
    /// The line was longer; it was skipped through its newline.
    TooLong,
    /// End of input.
    Eof,
}

/// Reads the next line of `input` into `buf` without its `\n` (or
/// `\r\n`). A line longer than `cap` bytes is consumed through its
/// newline but never buffered, so a newline-less stream costs no
/// memory beyond `input`'s own buffer.
fn read_request_line(
    input: &mut impl BufRead,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<RequestLine> {
    buf.clear();
    let (mut seen, mut too_long) = (false, false);
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(match (seen, too_long) {
                (false, _) => RequestLine::Eof,
                (true, false) => RequestLine::Complete,
                (true, true) => RequestLine::TooLong,
            });
        }
        seen = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !too_long {
            if buf.len() + take > cap {
                too_long = true;
                buf.clear();
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        input.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(if too_long {
                RequestLine::TooLong
            } else {
                RequestLine::Complete
            });
        }
    }
}

/// Serves one established connection until EOF or shutdown (see
/// [`serve_lines`]).
fn serve_connection(service: &Service, stream: TcpStream) -> std::io::Result<()> {
    let writer = stream.try_clone()?;
    serve_lines(service, BufReader::new(stream), writer)
}

/// Accepts connections on `listener` until a `shutdown` request is
/// handled. Each connection gets its own thread; the diagnosis work
/// itself is still bounded by the service's shared pool.
///
/// # Errors
///
/// Returns accept-loop I/O errors; per-connection errors (a client
/// hanging up mid-request) only end that connection.
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if service.shutdown_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false)?;
                // One small response line per request: disable Nagle so
                // replies are not held back for a delayed ACK.
                stream.set_nodelay(true)?;
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    // A dropped connection is the client's business.
                    let _ = serve_connection(&service, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serves request lines from `input` to `output` until EOF or a
/// `shutdown` request — the `--stdio` transport, each TCP connection,
/// and what the in-process tests drive. Blank lines are ignored; every
/// other line gets exactly one response line, including a line over
/// [`MAX_REQUEST_LINE`], which gets an `error` response.
///
/// # Errors
///
/// Returns the first read or write error; a request line that is not
/// UTF-8 is a read error.
pub fn serve_lines(
    service: &Service,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        let response = match read_request_line(&mut input, &mut buf, MAX_REQUEST_LINE)? {
            RequestLine::Eof => break,
            RequestLine::TooLong => status_response(
                "error",
                &format!("request line longer than {MAX_REQUEST_LINE} bytes"),
            ),
            RequestLine::Complete => {
                let line = std::str::from_utf8(&buf)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                if line.trim().is_empty() {
                    continue;
                }
                service.handle_line(line)
            }
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if service.shutdown_requested() {
            break;
        }
    }
    Ok(())
}
