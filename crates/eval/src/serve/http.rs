//! Minimal HTTP/1.1 support for `pdn serve`.
//!
//! Exactly the subset the daemon needs — request line, headers,
//! `Content-Length` bodies, fixed-length responses, one request per
//! connection (`Connection: close`) — built on `std` alone so the server
//! adds no dependencies. Chunked encoding, keep-alive and multipart are
//! deliberately out of scope: clients are `curl`, test harnesses and
//! fleet-internal callers.

use std::io::{self, BufRead, Read, Write};

/// Largest accepted request body. Vector CSVs for even the full-scale
/// designs are far below this; the cap bounds memory per connection against
/// hostile or broken clients.
pub const MAX_BODY_BYTES: usize = 16 << 20;

/// Longest accepted request line or header line, line ending included.
/// Bounds the memory a client can make the head cost before it sends a
/// newline.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path with any query string stripped, e.g. `/predict`.
    pub path: String,
    /// Query string after the `?` (empty when none was sent).
    pub query: String,
    /// Headers in arrival order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (lowercase), if the client sent it.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `reader`. Returns `Ok(None)` on a clean EOF
/// before any bytes (client closed an idle connection).
///
/// # Errors
///
/// `InvalidData` for malformed request lines or headers, lines longer than
/// [`MAX_LINE_BYTES`], more than [`MAX_HEADERS`] headers, or bodies larger
/// than [`MAX_BODY_BYTES`]; propagates transport errors.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some(line) = read_head_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err(bad(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("unsupported protocol version {version:?}")));
    }

    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (path, String::new()),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    let mut content_length: usize = 0;
    loop {
        let Some(header) = read_head_line(reader)? else {
            return Err(bad("connection closed mid-headers"));
        };
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(bad(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse::<usize>()
                .map_err(|e| bad(format!("bad content-length {value:?}: {e}")))?;
            if content_length > MAX_BODY_BYTES {
                return Err(bad(format!(
                    "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
        }
        headers.push((name, value.to_string()));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, headers, body }))
}

/// Reads one line of the request head, ending included, reading at most
/// [`MAX_LINE_BYTES`]. Returns `Ok(None)` on EOF before any byte.
fn read_head_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    let limit = MAX_LINE_BYTES as u64;
    if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.len() == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
        return Err(bad(format!("request head line exceeds {MAX_LINE_BYTES} bytes")));
    }
    String::from_utf8(line).map(Some).map_err(|_| bad("request head is not UTF-8"))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one complete response and flushes. The connection is meant to be
/// closed afterwards (`Connection: close` is always sent).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(writer, status, content_type, &[], body)
}

/// [`write_response`] plus arbitrary extra headers (request IDs,
/// `Retry-After`, ...). Header names and values must already be valid
/// HTTP token/field text; the caller controls both.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_response_with<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    write!(
        writer,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert!(req.query.is_empty());
        assert_eq!(req.body, b"hello");
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn splits_query_and_lowercases_headers() {
        let raw = b"GET /metrics?format=jsonl&x=1 HTTP/1.1\r\nX-Pdn-Request-Id:  abc-123 \r\nAccept: text/plain\r\n\r\n";
        let req = read_request(&mut BufReader::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "format=jsonl&x=1");
        assert_eq!(req.header("x-pdn-request-id"), Some("abc-123"));
        assert_eq!(req.header("accept"), Some("text/plain"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn parses_a_get_without_body_and_eof() {
        let raw = b"GET /healthz HTTP/1.0\r\n\r\n";
        let mut reader = BufReader::new(&raw[..]);
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(read_request(&mut reader).unwrap().is_none(), "clean EOF is None");
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        let raw = b"NOT-HTTP\r\n\r\n";
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
        let raw = b"GET / SPDY/3\r\n\r\n";
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
        let oversized =
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(read_request(&mut BufReader::new(oversized.as_bytes())).is_err());
        let truncated = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut BufReader::new(&truncated[..])).is_err());
    }

    #[test]
    fn rejects_an_unterminated_request_line_past_the_limit() {
        // A 1 MiB request line with no newline must fail after reading at
        // most MAX_LINE_BYTES, not buffer the whole line.
        let mut raw = b"GET /".to_vec();
        raw.resize(1 << 20, b'a');
        let mut reader = BufReader::new(&raw[..]);
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let consumed = raw.len() - reader.get_ref().len() - reader.buffer().len();
        assert!(consumed <= MAX_LINE_BYTES, "consumed {consumed} bytes of the line");
        // A header line is held to the same limit; a line exactly at it is
        // still accepted.
        let long = format!("GET / HTTP/1.1\r\nX-Long: {}\r\n\r\n", "b".repeat(MAX_LINE_BYTES));
        assert!(read_request(&mut BufReader::new(long.as_bytes())).is_err());
        let fits = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "b".repeat(MAX_LINE_BYTES - 5));
        assert!(read_request(&mut BufReader::new(fits.as_bytes())).unwrap().is_some());
    }

    #[test]
    fn caps_the_header_count() {
        let request = |headers: usize| {
            let mut raw = String::from("GET / HTTP/1.1\r\n");
            for i in 0..headers {
                raw.push_str(&format!("X-H{i}: v\r\n"));
            }
            raw.push_str("\r\n");
            read_request(&mut BufReader::new(raw.as_bytes()))
        };
        assert_eq!(request(MAX_HEADERS).unwrap().unwrap().headers.len(), MAX_HEADERS);
        let err = request(MAX_HEADERS + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn response_has_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn extra_headers_are_emitted_before_the_body() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "1"), ("x-pdn-request-id", "r-7")],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("x-pdn-request-id: r-7\r\n"), "{text}");
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("Retry-After"), "headers before the blank line");
        assert_eq!(body, "{}");
    }
}
