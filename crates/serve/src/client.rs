//! A minimal blocking JSONL client for the daemon — one connection,
//! many request/response exchanges.

use crate::server::write_line;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

/// A connected client. Holds the connection open across requests, so a
/// sequence of exchanges measures the daemon's warm path rather than
/// TCP handshakes.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:7171`).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests and responses are single small lines; without this
        // the Nagle/delayed-ACK interplay stalls every warm exchange.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and blocks for its response line.
    ///
    /// # Errors
    ///
    /// Returns write/read errors; an EOF before the response arrives is
    /// reported as [`std::io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        write_line(&mut self.writer, line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

/// One-shot convenience: connect, exchange a single line, disconnect.
///
/// # Errors
///
/// Same as [`Client::connect`] and [`Client::request`].
pub fn request(addr: &str, line: &str) -> std::io::Result<String> {
    Client::connect(addr)?.request(line)
}
