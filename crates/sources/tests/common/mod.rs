//! A minimal HTTP/1.1 client for the listener tests. Each response is read
//! by its `Content-Length`, so one kept-alive connection carries many
//! exchanges; requests go out whole, or as raw bytes when a test cuts or
//! pipelines them. Also the NDJSON encoding the ingest tests post.

#![allow(dead_code)]

use dquag_tabular::{DataFrame, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: the status code, the head (status line and headers,
/// CRLF-separated) and the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub head: String,
    pub body: String,
}

impl Response {
    /// Whether the server keeps the connection open after this response.
    pub fn keeps_alive(&self) -> bool {
        self.head.contains("Connection: keep-alive")
    }

    /// The `seq` of a `202 Accepted` ingest reply.
    pub fn seq(&self) -> Option<u64> {
        let rest = self.body.split_once("\"seq\": ")?.1;
        let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    }
}

/// One client connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect with `TCP_NODELAY` and a 30 s read timeout, so a missing
    /// reply fails the test instead of hanging it.
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Self {
            writer: stream,
            reader,
        }
    }

    /// The socket, for tests that tune it or write to it directly.
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// Write request bytes as they are.
    pub fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("request write");
    }

    /// Read the next response.
    pub fn response(&mut self) -> Response {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("head read");
            assert!(n > 0, "connection closed mid-response; head so far: {head}");
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse().ok())
            .unwrap_or_else(|| panic!("no status code in {head:?}"));
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .unwrap_or_else(|| panic!("no Content-Length in {head:?}"));
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("body read");
        Response {
            status,
            head,
            body: String::from_utf8(body).expect("UTF-8 body"),
        }
    }

    /// Send one request and read its response.
    pub fn exchange(&mut self, request: &str) -> Response {
        self.send(request.as_bytes());
        self.response()
    }

    /// Everything the server sends until it closes the connection.
    pub fn rest(&mut self) -> String {
        let mut rest = String::new();
        self.reader.read_to_string(&mut rest).expect("read to EOF");
        rest
    }
}

/// A kept-alive `POST /ingest` of `body` typed `content_type`.
pub fn post(content_type: &str, body: &str) -> String {
    format!(
        "POST /ingest HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A kept-alive `GET path`.
pub fn get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n\r\n")
}

/// One request on its own connection, read to EOF (`Connection: close`).
pub fn request_once(addr: SocketAddr, request: &str) -> String {
    let mut client = Client::connect(addr);
    client.send(request.as_bytes());
    client.rest()
}

/// `batch` as NDJSON: one object per row, keyed by column name.
pub fn ndjson(batch: &DataFrame) -> String {
    let mut out = String::new();
    for row in batch.iter_rows() {
        let cells: Vec<String> = batch
            .schema()
            .fields()
            .iter()
            .zip(row)
            .map(|(field, value)| {
                let value = match value {
                    Value::Null => "null".to_string(),
                    Value::Number(n) => serde_json::to_string(&n).unwrap(),
                    Value::Text(s) => serde_json::to_string(&s).unwrap(),
                };
                format!("{}: {value}", serde_json::to_string(&field.name).unwrap())
            })
            .collect();
        out.push_str(&format!("{{{}}}\n", cells.join(", ")));
    }
    out
}
