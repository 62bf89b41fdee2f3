//! Transports: JSONL over TCP (thread-per-connection) and over
//! stdin/stdout.
//!
//! std-only by design — the protocol is one request line in, one
//! response line out, and every response is computed synchronously on
//! the shared worker pool, so blocking reads and plain threads are the
//! whole story. The accept loop polls non-blockingly so a `shutdown`
//! request handled on any connection stops the daemon without needing
//! to interrupt a blocked `accept`.
//!
//! A request line carries a whole bench text (hundreds of kilobytes for
//! the larger circuits), so framing reads it in a 64 KiB buffer per
//! connection and finds its newline a word at a time
//! ([`gatediag_obs::json::find_byte`]); every line goes out in one write.

use crate::protocol::status_response;
use crate::service::Service;
use gatediag_obs::json::find_byte;
use std::io::{BufRead, BufReader, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
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
        let newline = find_byte(chunk, b'\n');
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

/// Read buffer of each connection, in bytes. A request carries its
/// whole bench text (about 116 KB for `s6669_like`), so a buffer this
/// size takes a typical request in a few reads rather than dozens.
const READ_BUFFER: usize = 64 << 10;

/// Writes `line` and its `\n` in one vectored write, so a request or
/// response line leaves as one unit (one segment under `TCP_NODELAY`
/// when it fits) rather than its body and then a lone newline. A short
/// write resumes where it stopped.
pub(crate) fn write_line(output: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut slices = [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match output.write_vectored(rest) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    output.flush()
}

/// Serves one established connection until EOF or shutdown (see
/// [`serve_lines`]).
fn serve_connection(service: &Service, stream: TcpStream) -> std::io::Result<()> {
    let writer = stream.try_clone()?;
    serve_lines(
        service,
        BufReader::with_capacity(READ_BUFFER, stream),
        writer,
    )
}

/// Most connections [`serve_tcp`] serves at once. Each holds a thread
/// and up to [`MAX_REQUEST_LINE`] bytes of line buffer, so this bounds
/// what idle or flooding clients can pin. A connection over the cap gets
/// one `error` response line and is closed.
pub const MAX_CONNECTIONS: usize = 64;

/// Accepts connections on `listener` until a `shutdown` request is
/// handled. Each connection gets its own thread, at most
/// [`MAX_CONNECTIONS`] at once; the diagnosis work itself is still
/// bounded by the service's shared pool.
///
/// # Errors
///
/// Returns accept-loop I/O errors. Per-connection errors only end that
/// connection: a client hanging up mid-request, a socket that cannot be
/// set up, or the OS refusing a thread for it.
pub fn serve_tcp(service: Arc<Service>, listener: TcpListener) -> std::io::Result<()> {
    accept_loop(service, listener, MAX_CONNECTIONS)
}

/// [`serve_tcp`] with the connection cap as an argument.
fn accept_loop(
    service: Arc<Service>,
    listener: TcpListener,
    max_connections: usize,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let open = Arc::new(AtomicUsize::new(0));
    loop {
        if service.shutdown_requested() {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                // One small response line per request: disable Nagle so
                // replies are not held back for a delayed ACK.
                if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                if open.load(Ordering::Relaxed) >= max_connections {
                    refuse(
                        stream,
                        &format!("server busy: {max_connections} connections open"),
                    );
                    continue;
                }
                let slot = ConnectionSlot::take(&open);
                let service = Arc::clone(&service);
                // A refused thread drops the closure, and with it the
                // stream (closing the connection) and the slot.
                let _ = std::thread::Builder::new()
                    .name("serve-connection".to_string())
                    .spawn(move || {
                        let _slot = slot;
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

/// Answers a connection over the cap with one `error` line and closes
/// it. The line is far smaller than a fresh socket's send buffer, so the
/// write does not block the accept loop; a failed write is the client's
/// business.
fn refuse(mut stream: TcpStream, message: &str) {
    let _ = write_line(&mut stream, &status_response("error", message));
}

/// One of the accept loop's open-connection slots, released on drop.
/// The count publishes no other data, so its operations are relaxed.
struct ConnectionSlot(Arc<AtomicUsize>);

impl ConnectionSlot {
    fn take(open: &Arc<AtomicUsize>) -> Self {
        open.fetch_add(1, Ordering::Relaxed);
        ConnectionSlot(Arc::clone(open))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
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
        write_line(&mut output, &response)?;
        if service.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::Client;
    use gatediag_obs::json::parse_json;

    const PING: &str = "{\"schema\": \"gatediag-serve-v1\", \"op\": \"ping\"}";

    fn status_of(response: &str) -> String {
        let v = parse_json(response).expect("response is JSON");
        let status = v.get("status").expect("status field");
        status.as_str("status").unwrap().to_string()
    }

    #[test]
    fn connections_over_the_cap_get_one_error_line_and_are_closed() {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        let daemon = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || accept_loop(service, listener, 2))
        };
        // Two clients fill the cap; an answered request proves each one
        // holds its slot.
        let mut first = Client::connect(&addr).expect("connect");
        let mut second = Client::connect(&addr).expect("connect");
        assert_eq!(status_of(&first.request(PING).unwrap()), "ok");
        assert_eq!(status_of(&second.request(PING).unwrap()), "ok");
        // The third gets one error line, then end of stream, without
        // sending anything.
        let mut third = BufReader::new(TcpStream::connect(&addr).expect("connect"));
        let mut line = String::new();
        third.read_line(&mut line).expect("refusal line");
        assert_eq!(status_of(&line), "error", "{line}");
        assert!(line.contains("2 connections open"), "{line}");
        line.clear();
        assert_eq!(third.read_line(&mut line).expect("end of stream"), 0);
        // The others are still served, and a closed connection frees its
        // slot for the third client.
        assert_eq!(status_of(&second.request(PING).unwrap()), "ok");
        drop(first);
        let mut served = false;
        for _ in 0..500 {
            let answer = Client::connect(&addr).and_then(|mut third| third.request(PING));
            if answer.is_ok_and(|response| status_of(&response) == "ok") {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(served, "the closed connection's slot was never freed");
        let bye = second
            .request("{\"schema\": \"gatediag-serve-v1\", \"op\": \"shutdown\"}")
            .unwrap();
        assert_eq!(status_of(&bye), "ok");
        daemon
            .join()
            .expect("accept loop thread")
            .expect("accept loop exits cleanly");
    }
}
