//! The HTTP/1.1 client the serving examples share: one kept-alive
//! connection, each reply read by its `Content-Length`, so a producer
//! streams all its batches over one socket.

#![allow(dead_code)]

use dquag::tabular::{csv, DataFrame};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One kept-alive connection to the gate.
pub struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connect with `TCP_NODELAY`, so a request leaves without waiting on
    /// the previous reply's ACK.
    pub fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the gate");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Self { stream, reader }
    }

    /// `POST /ingest` one batch as CSV; returns (status line, body).
    pub fn post_csv(&mut self, batch: &DataFrame) -> (String, String) {
        let body = csv::to_csv_string(batch);
        self.exchange(&format!(
            "POST /ingest HTTP/1.1\r\nHost: gate\r\nConnection: keep-alive\r\n\
             Content-Type: text/csv\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ))
    }

    /// `GET path`; returns (status line, body).
    pub fn get(&mut self, path: &str) -> (String, String) {
        self.exchange(&format!(
            "GET {path} HTTP/1.1\r\nHost: gate\r\nConnection: keep-alive\r\n\r\n"
        ))
    }

    fn exchange(&mut self, request: &str) -> (String, String) {
        self.stream
            .write_all(request.as_bytes())
            .expect("HTTP request");
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("status line");
        let mut length = 0;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line).expect("header line");
            assert!(n > 0, "connection closed mid-response");
            if line == "\r\n" {
                break;
            }
            if let Some(value) = line.strip_prefix("Content-Length:") {
                length = value.trim().parse().expect("Content-Length");
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body).expect("body");
        let body = String::from_utf8(body).expect("UTF-8 body");
        (status.trim_end().to_string(), body)
    }
}

/// Post `batches` on one kept-alive connection, asserting each is
/// accepted.
pub fn send_batches(addr: SocketAddr, batches: &[DataFrame]) {
    let mut conn = Connection::open(addr);
    for batch in batches {
        let (status, reply) = conn.post_csv(batch);
        assert!(status.starts_with("HTTP/1.1 202"), "{status} {reply}");
    }
}
