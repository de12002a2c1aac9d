//! A minimal blocking client for the `cumulon-serve-v1` protocol — used
//! by tests, the benchmark and scripts. One TCP connection, one
//! in-order request/response exchange per call.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use cumulon_core::error::CoreError;
use cumulon_core::Result;
use cumulon_trace::json::{parse, JsonValue};

/// A blocking protocol client over one TCP connection.
///
/// ```no_run
/// use cumulon_serve::Client;
/// let mut client = Client::connect("127.0.0.1:7070".parse().unwrap()).unwrap();
/// let resp = client
///     .request(r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"me","action":"plan",
///                  "script":"G = A' * A;","inputs":["A=2000x1000"]}"#)
///     .unwrap();
/// assert_eq!(resp.get("ok").and_then(|v| v.as_bool()), Some(true));
/// ```
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> Result<Client> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| CoreError::Io(format!("cannot connect {addr}: {e}")))?;
        // One request is in flight at a time: there is nothing for Nagle's
        // algorithm to coalesce, only a reply for it to delay.
        stream
            .set_nodelay(true)
            .map_err(|e| CoreError::Io(format!("cannot set TCP_NODELAY: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| CoreError::Io(format!("cannot clone stream: {e}")))?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads the matching response line,
    /// parsed. Newlines inside `line` are rejected — they would frame as
    /// multiple requests.
    pub fn request(&mut self, line: &str) -> Result<JsonValue> {
        send_line(&mut self.writer, line)?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| CoreError::Io(format!("receive failed: {e}")))?;
        if response.is_empty() {
            return Err(CoreError::Io("server closed the connection".into()));
        }
        parse(&response).map_err(|e| CoreError::Invariant(format!("bad response JSON: {e}")))
    }
}

/// Frames `line` as one request and hands it to the transport in a single
/// buffer: a line and its terminator sent as two segments leave the second
/// waiting on the peer's delayed ACK of the first.
fn send_line(writer: &mut impl Write, line: &str) -> Result<()> {
    if line.contains('\n') {
        return Err(CoreError::Usage("request must be a single line".into()));
    }
    writer
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| CoreError::Io(format!("send failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts whatever it is given, one entry per `write` call.
    #[derive(Default)]
    struct Segments(Vec<Vec<u8>>);

    impl Write for Segments {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_is_one_write() {
        let mut wire = Segments::default();
        send_line(&mut wire, r#"{"id":"r1"}"#).unwrap();
        send_line(&mut wire, "").unwrap();
        assert_eq!(wire.0, vec![b"{\"id\":\"r1\"}\n".to_vec(), b"\n".to_vec()]);
    }

    #[test]
    fn embedded_newlines_never_reach_the_wire() {
        let mut wire = Segments::default();
        assert!(send_line(&mut wire, "{}\n{}").is_err());
        assert!(wire.0.is_empty());
    }
}
