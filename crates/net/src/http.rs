//! HTTP/1.1-subset message types, parser and serializer.

use crate::error::NetError;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

/// Maximum accepted size of the request/status line plus headers.
pub const MAX_HEAD: usize = 16 * 1024;
/// Maximum accepted body size (APK payloads stay far below this).
pub const MAX_BODY: usize = 64 * 1024 * 1024;
/// Maximum number of header fields.
pub(crate) const MAX_HEADERS: usize = 64;

/// Request methods supported by the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve a resource.
    Get,
    /// Submit a body (used by developer upload endpoints).
    Post,
}

impl Method {
    /// Wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }

    /// Parse a wire name.
    pub(crate) fn parse(s: &str) -> Result<Method, NetError> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            _ => Err(NetError::Protocol("unsupported method")),
        }
    }
}

/// Response status codes used by the market simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 200
    Ok,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 429 — Google Play's rate limiting (Section 3.1) surfaces as this.
    TooManyRequests,
    /// 500
    InternalError,
    /// 503 — injected fault bursts and flaky mirrors answer with this.
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::TooManyRequests => 429,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::TooManyRequests => "Too Many Requests",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }

    /// Map a numeric code back to a known status.
    pub(crate) fn from_code(code: u16) -> Result<Status, NetError> {
        match code {
            200 => Ok(Status::Ok),
            400 => Ok(Status::BadRequest),
            404 => Ok(Status::NotFound),
            429 => Ok(Status::TooManyRequests),
            500 => Ok(Status::InternalError),
            503 => Ok(Status::ServiceUnavailable),
            _ => Err(NetError::Protocol("unknown status code")),
        }
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path component (no scheme/host), e.g. `/app/com.foo.bar`.
    pub path: String,
    /// Decoded query parameters, in document order of first occurrence.
    pub query: Vec<(String, String)>,
    /// Header fields (names lower-cased).
    pub headers: BTreeMap<String, String>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Request {
    /// Build a GET request for `path_and_query` (e.g. `/search?q=maps`).
    pub fn get(path_and_query: &str) -> Request {
        let (path, query) = split_query(path_and_query);
        Request {
            method: Method::Get,
            path,
            query,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// First query parameter with the given key.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The path's segments as handlers match them: split on `/`, empty
    /// segments dropped, each percent-decoded on its own — so
    /// `/app/com%2Efoo/` reads `["app", "com.foo"]`.
    pub fn segments(&self) -> Vec<String> {
        let segments = self.path.split('/').filter(|s| !s.is_empty());
        segments.map(url_decode).collect()
    }

    /// Value of one header, if present (header names are stored
    /// lower-cased).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    /// The propagated trace context from the
    /// [`TRACE_HEADER`](marketscope_telemetry::TRACE_HEADER) request
    /// header, if present and well-formed.
    pub(crate) fn trace_context(&self) -> Option<marketscope_telemetry::SpanContext> {
        self.header(marketscope_telemetry::TRACE_HEADER)
            .and_then(marketscope_telemetry::SpanContext::parse)
    }

    /// A copy of this request carrying the given trace context in the
    /// [`TRACE_HEADER`](marketscope_telemetry::TRACE_HEADER) header.
    pub(crate) fn with_trace_context(&self, ctx: marketscope_telemetry::SpanContext) -> Request {
        let mut req = self.clone();
        req.headers
            .insert(marketscope_telemetry::TRACE_HEADER.to_owned(), ctx.render());
        req
    }

    /// Serialize onto a writer (adds `Content-Length`; keeps the
    /// connection alive unless a `connection: close` header was set).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let mut target = self.path.clone();
        for (i, (k, v)) in self.query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&url_encode(k));
            target.push('=');
            target.push_str(&url_encode(v));
        }
        write!(w, "{} {} HTTP/1.1\r\n", self.method.as_str(), target)?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body)?;
        w.flush()?;
        Ok(())
    }

    /// Incrementally parse one request out of an in-memory byte buffer —
    /// how the server shards (see [`crate::reactor`]) cut requests out of
    /// bytes that arrive in readiness-sized chunks.
    ///
    /// Returns `Ok(None)` while the buffer holds only a prefix of a
    /// request (read more and call again), or `Ok(Some((request, n)))`
    /// once a full message is present, where `n` is the number of bytes
    /// consumed — the caller drains them and may call again on the
    /// residue (pipelined keep-alive requests). Errors mean the
    /// connection is unrecoverable: protocol violations and breaches of
    /// [`MAX_HEAD`], `MAX_HEADERS` or [`MAX_BODY`].
    pub fn parse_partial(buf: &[u8]) -> Result<Option<(Request, usize)>, NetError> {
        let Some((((method, target), headers), body, used)) =
            parse_framed(buf, parse_request_head)?
        else {
            return Ok(None);
        };
        let (path, query) = split_query(target);
        if !path.starts_with('/') {
            return Err(NetError::Protocol("target must be absolute path"));
        }
        let req = Request {
            method,
            path,
            query,
            headers,
            body,
        };
        Ok(Some((req, used)))
    }

    /// Whether the peer asked to close the connection after this message.
    pub(crate) fn wants_close(&self) -> bool {
        self.headers
            .get("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Response status.
    pub status: Status,
    /// Header fields (names lower-cased).
    pub headers: BTreeMap<String, String>,
    /// Message body.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 response with a body and content type.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        let mut headers = BTreeMap::new();
        headers.insert("content-type".to_owned(), content_type.to_owned());
        Response {
            status: Status::Ok,
            headers,
            body,
        }
    }

    /// A 200 response carrying a JSON document.
    pub fn json(doc: &marketscope_core::json::Json) -> Response {
        Response::ok("application/json", doc.to_string_compact().into_bytes())
    }

    /// An empty response with the given status.
    pub fn status(status: Status) -> Response {
        Response {
            status,
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    /// An empty response with the given status and a `retry-after` header
    /// telling the client when to come back. Rendered as decimal seconds
    /// — a subset extension (RFC 9110 allows only integer seconds, too
    /// coarse for loopback rate limiters refilling in milliseconds).
    pub fn status_with_retry_after(status: Status, after: Duration) -> Response {
        let mut resp = Response::status(status);
        resp.headers
            .insert("retry-after".to_owned(), format!("{}", after.as_secs_f64()));
        resp
    }

    /// Parsed `retry-after` response header (decimal seconds), if present
    /// and well-formed. Negative, non-finite and out-of-range values
    /// (past `Duration::MAX`) are ignored.
    pub(crate) fn retry_after(&self) -> Option<Duration> {
        let secs: f64 = self.headers.get("retry-after")?.parse().ok()?;
        Duration::try_from_secs_f64(secs).ok()
    }

    /// Serialize onto a writer (adds `Content-Length`).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        self.write_truncated_to(w, self.body.len())
    }

    /// Serialize with only the first `keep` body bytes following a head
    /// that declares the full `Content-Length`. With `keep` short of the
    /// body this is a deliberately broken copy: a reader sees a mid-body
    /// EOF once the connection closes — the fault-injection layer's
    /// "truncated body" failure mode (see [`crate::fault`]).
    pub(crate) fn write_truncated_to(
        &self,
        w: &mut impl Write,
        keep: usize,
    ) -> Result<(), NetError> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        )?;
        for (k, v) in &self.headers {
            write!(w, "{k}: {v}\r\n")?;
        }
        write!(w, "content-length: {}\r\n\r\n", self.body.len())?;
        w.write_all(&self.body[..keep.min(self.body.len())])?;
        w.flush()?;
        Ok(())
    }

    /// Incrementally parse one response out of an in-memory byte buffer —
    /// how the mux client (see [`crate::mux`]) cuts responses out of
    /// bytes that arrive in readiness-sized chunks. Same contract and
    /// limits as [`Request::parse_partial`]; the caller keeps any residue
    /// past the consumed bytes for the next keep-alive exchange.
    pub fn parse_partial(buf: &[u8]) -> Result<Option<(Response, usize)>, NetError> {
        let framed = parse_framed(buf, parse_status_head)?;
        Ok(framed.map(|((status, headers), body, used)| {
            let resp = Response {
                status,
                headers,
                body,
            };
            (resp, used)
        }))
    }
}

/// A parsed head: the start line's value plus lower-cased headers.
type Head<T> = (T, BTreeMap<String, String>);
/// A framed message: its head, its body, and the bytes it occupied.
type Framed<T> = (Head<T>, Vec<u8>, usize);

/// The framing both incremental parsers share: find the head terminator
/// (within [`MAX_HEAD`]), parse the head with `parse_head`, size the body
/// from `content-length` (within [`MAX_BODY`]) and slice it out. Returns
/// `Ok(None)` while `buf` holds only a prefix of a message, else the head
/// (minus `content-length`, which is transport framing, not message
/// metadata), the body and the bytes consumed.
fn parse_framed<'a, T>(
    buf: &'a [u8],
    parse_head: impl FnOnce(&'a str) -> Result<Head<T>, NetError>,
) -> Result<Option<Framed<T>>, NetError> {
    let window = &buf[..buf.len().min(MAX_HEAD + 4)];
    let Some(pos) = window.windows(4).position(|w| w == b"\r\n\r\n") else {
        // Only a *full* window rules a terminator out: judging a shorter
        // buffer would make the verdict depend on how the bytes were
        // chunked.
        if window.len() == MAX_HEAD + 4 {
            return Err(NetError::TooLarge {
                what: "header",
                limit: MAX_HEAD,
            });
        }
        return Ok(None);
    };
    let head =
        std::str::from_utf8(&buf[..pos]).map_err(|_| NetError::Protocol("head not utf-8"))?;
    let (start, mut headers) = parse_head(head)?;
    let body_len: usize = match headers.remove("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| NetError::Protocol("bad content-length"))?,
    };
    if body_len > MAX_BODY {
        return Err(NetError::TooLarge {
            what: "body",
            limit: MAX_BODY,
        });
    }
    let body_start = pos + 4;
    let Some(body_end) = body_start.checked_add(body_len).filter(|&e| e <= buf.len()) else {
        return Ok(None); // head complete, body still in flight
    };
    let body = buf[body_start..body_end].to_vec();
    Ok(Some(((start, headers), body, body_end)))
}

/// Parse the status line plus header block (everything before the blank
/// line) into status and lower-cased headers.
fn parse_status_head(head: &str) -> Result<Head<Status>, NetError> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or(NetError::Protocol("empty head"))?;
    let mut parts = status_line.splitn(3, ' ');
    match parts.next() {
        Some("HTTP/1.1" | "HTTP/1.0") => {}
        _ => return Err(NetError::Protocol("bad http version")),
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or(NetError::Protocol("bad status code"))?;
    let status = Status::from_code(code)?;
    let headers = parse_headers(lines)?;
    Ok((status, headers))
}

/// Parse the request line plus header block (everything before the blank
/// line) into method, raw target, and lower-cased headers.
fn parse_request_head(head: &str) -> Result<Head<(Method, &str)>, NetError> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(NetError::Protocol("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = Method::parse(parts.next().unwrap_or(""))?;
    let target = parts.next().ok_or(NetError::Protocol("missing target"))?;
    match parts.next() {
        Some("HTTP/1.1" | "HTTP/1.0") => {}
        _ => return Err(NetError::Protocol("bad http version")),
    }
    if parts.next().is_some() {
        return Err(NetError::Protocol("malformed request line"));
    }
    let headers = parse_headers(lines)?;
    Ok(((method, target), headers))
}

fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<BTreeMap<String, String>, NetError> {
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or(NetError::Protocol("malformed header"))?;
        if k.is_empty() || k.contains(' ') {
            return Err(NetError::Protocol("malformed header name"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(NetError::TooLarge {
                what: "header count",
                limit: MAX_HEADERS,
            });
        }
        headers.insert(k.to_ascii_lowercase(), v.trim().to_owned());
    }
    Ok(headers)
}

/// Split a request target into path and decoded query pairs.
fn split_query(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_owned(), Vec::new()),
        Some((path, q)) => {
            let mut out = Vec::new();
            for pair in q.split('&') {
                if pair.is_empty() {
                    continue;
                }
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                out.push((url_decode(k), url_decode(v)));
            }
            (path.to_owned(), out)
        }
    }
}

/// Percent-encode everything outside the unreserved set.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                use std::fmt::Write;
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

/// Percent-decode; invalid escapes pass through literally (lenient, as
/// real crawlers must be).
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                out.push(hi * 16 + lo);
                i += 3;
                continue;
            }
        }
        if bytes[i] == b'+' {
            out.push(b' ');
        } else {
            out.push(bytes[i]);
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let (back, used) = Request::parse_partial(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        back
    }

    fn round_trip_response(resp: &Response) -> Response {
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let (back, used) = Response::parse_partial(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        back
    }

    #[test]
    fn request_round_trip() {
        let mut req = Request::get("/app/com.foo.bar?fields=all&lang=zh");
        req.headers.insert("x-crawler".into(), "marketscope".into());
        let back = round_trip_request(&req);
        assert_eq!(back.method, Method::Get);
        assert_eq!(back.path, "/app/com.foo.bar");
        assert_eq!(back.query_param("fields"), Some("all"));
        assert_eq!(back.query_param("lang"), Some("zh"));
        assert_eq!(back.headers.get("x-crawler").unwrap(), "marketscope");
    }

    #[test]
    fn request_with_body_round_trip() {
        let mut req = Request::get("/upload");
        req.method = Method::Post;
        req.body = vec![1, 2, 3, 255, 0];
        let back = round_trip_request(&req);
        assert_eq!(back.body, vec![1, 2, 3, 255, 0]);
    }

    #[test]
    fn query_encoding_round_trips_special_chars() {
        let mut req = Request::get("/search");
        req.query.push(("q".into(), "酷狗 music & more".into()));
        let back = round_trip_request(&req);
        assert_eq!(back.query_param("q"), Some("酷狗 music & more"));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("application/octet-stream", vec![9u8; 1000]);
        assert_eq!(round_trip_response(&resp), resp);
    }

    #[test]
    fn retry_after_round_trips_fractional_seconds() {
        let resp = Response::status_with_retry_after(
            Status::ServiceUnavailable,
            Duration::from_millis(250),
        );
        let back = round_trip_response(&resp);
        assert_eq!(back.status, Status::ServiceUnavailable);
        assert_eq!(back.retry_after(), Some(Duration::from_millis(250)));
        // Absent and malformed headers parse to None.
        assert_eq!(Response::status(Status::Ok).retry_after(), None);
        let mut junk = Response::status(Status::Ok);
        junk.headers.insert("retry-after".into(), "soon".into());
        assert_eq!(junk.retry_after(), None);
        // Negative, or past the largest `Duration`.
        for secs in ["-3", "1e30", "1.8446744073709552e19"] {
            junk.headers.insert("retry-after".into(), secs.into());
            assert_eq!(junk.retry_after(), None, "{secs}");
        }
    }

    #[test]
    fn truncated_messages_stay_incomplete() {
        // A reader holding these bytes at connection close reports a
        // mid-message EOF; the parser itself just asks for more.
        let resp = Response::ok("text/plain", vec![7u8; 100]);
        let mut wire = Vec::new();
        resp.write_truncated_to(&mut wire, 40).unwrap();
        assert!(matches!(Response::parse_partial(&wire), Ok(None)));
        let wire = b"GET /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        assert!(matches!(Request::parse_partial(wire), Ok(None)));
    }

    #[test]
    fn empty_status_responses() {
        for s in [
            Status::NotFound,
            Status::TooManyRequests,
            Status::InternalError,
            Status::ServiceUnavailable,
        ] {
            let back = round_trip_response(&Response::status(s));
            assert_eq!(back.status, s);
            assert!(back.body.is_empty());
        }
    }

    #[test]
    fn url_codec_round_trip() {
        for s in ["hello", "a b+c", "100%", "中文/路径", "a=b&c=d"] {
            assert_eq!(url_decode(&url_encode(s)), s, "{s}");
        }
    }

    #[test]
    fn url_decode_lenient_on_invalid() {
        assert_eq!(url_decode("%zz"), "%zz");
        assert_eq!(url_decode("%"), "%");
        assert_eq!(url_decode("a+b"), "a b");
    }

    #[test]
    fn parse_partial_needs_more_then_parses() {
        let wire = b"POST /upload HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        // Every strict prefix is "need more bytes", never an error.
        for cut in 0..wire.len() {
            assert!(
                matches!(Request::parse_partial(&wire[..cut]), Ok(None)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (req, used) = Request::parse_partial(wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/upload");
        assert_eq!(req.body, b"hello");
        assert!(!req.headers.contains_key("content-length"));
    }

    #[test]
    fn segments_drop_empty_ones_and_decode_each_on_its_own() {
        let segments = |path: &str| Request::get(path).segments();
        assert_eq!(segments("/app/com%2Efoo/"), ["app", "com.foo"]);
        assert_eq!(segments("//index"), ["index"]);
        // A decoded slash stays inside its own segment.
        assert_eq!(segments("/apk/a%2Fb/3"), ["apk", "a/b", "3"]);
        assert!(segments("/").is_empty());
    }

    #[test]
    fn parse_partial_pipelined_requests_consume_in_order() {
        let mut wire = Vec::new();
        Request::get("/a").write_to(&mut wire).unwrap();
        Request::get("/b?x=1").write_to(&mut wire).unwrap();
        let (first, used) = Request::parse_partial(&wire).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, used2) = Request::parse_partial(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(second.query_param("x"), Some("1"));
        assert_eq!(used + used2, wire.len());
        assert!(matches!(Request::parse_partial(&[]), Ok(None)));
    }

    #[test]
    fn request_parse_rejects_protocol_violations() {
        for bad in [
            "BREW /x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad header line\r\n\r\n",
            "GET /x HTTP/1.1\r\ncontent-length: banana\r\n\r\n",
        ] {
            assert!(Request::parse_partial(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_partial_enforces_size_caps() {
        // A head that never terminates within MAX_HEAD is rejected, not
        // buffered forever.
        let endless = vec![b'x'; MAX_HEAD + 8];
        assert!(matches!(
            Request::parse_partial(&endless),
            Err(NetError::TooLarge { what: "header", .. })
        ));
        // So is a well-formed head whose terminator lies past the cap.
        let mut long_head = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..2000 {
            long_head.push_str(&format!("x-h{i}: {}\r\n", "v".repeat(20)));
        }
        long_head.push_str("\r\n");
        assert!(matches!(
            Request::parse_partial(long_head.as_bytes()),
            Err(NetError::TooLarge { what: "header", .. })
        ));
        // A head within the byte cap but over the field-count cap.
        let mut many = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(
            Request::parse_partial(many.as_bytes()),
            Err(NetError::TooLarge {
                what: "header count",
                ..
            })
        ));
        let huge_body = format!(
            "GET /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            Request::parse_partial(huge_body.as_bytes()),
            Err(NetError::TooLarge { what: "body", .. })
        ));
    }

    #[test]
    fn response_parse_partial_needs_more_then_parses() {
        let sent = Response::ok("text/plain", b"hello".to_vec());
        let mut wire = Vec::new();
        sent.write_to(&mut wire).unwrap();
        // Every strict prefix is "need more bytes", never an error.
        for cut in 0..wire.len() {
            assert!(
                matches!(Response::parse_partial(&wire[..cut]), Ok(None)),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (resp, used) = Response::parse_partial(&wire).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(resp, sent);
        assert!(!resp.headers.contains_key("content-length"));
    }

    #[test]
    fn response_parse_partial_keep_alive_residue_consumes_in_order() {
        let mut wire = Vec::new();
        Response::status(Status::NotFound)
            .write_to(&mut wire)
            .unwrap();
        Response::status_with_retry_after(Status::TooManyRequests, Duration::from_millis(250))
            .write_to(&mut wire)
            .unwrap();
        let (first, used) = Response::parse_partial(&wire).unwrap().unwrap();
        assert_eq!(first.status, Status::NotFound);
        let (second, used2) = Response::parse_partial(&wire[used..]).unwrap().unwrap();
        assert_eq!(second.status, Status::TooManyRequests);
        assert_eq!(second.retry_after(), Some(Duration::from_millis(250)));
        assert_eq!(used + used2, wire.len());
        assert!(matches!(Response::parse_partial(&[]), Ok(None)));
    }

    #[test]
    fn response_parse_rejects_protocol_violations() {
        for bad in [
            "HTTP/2 200 OK\r\n\r\n",
            "HTTP/1.1 banana OK\r\n\r\n",
            "HTTP/1.1 200 OK\r\nbad header line\r\n\r\n",
            "HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n",
        ] {
            assert!(Response::parse_partial(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn response_parse_partial_enforces_size_caps() {
        let endless = vec![b'x'; MAX_HEAD + 8];
        assert!(matches!(
            Response::parse_partial(&endless),
            Err(NetError::TooLarge { what: "header", .. })
        ));
        let huge_body = format!(
            "HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            Response::parse_partial(huge_body.as_bytes()),
            Err(NetError::TooLarge { what: "body", .. })
        ));
    }

    #[test]
    fn wants_close_header() {
        let mut req = Request::get("/");
        assert!(!req.wants_close());
        req.headers.insert("connection".into(), "close".into());
        assert!(req.wants_close());
        req.headers.insert("connection".into(), "keep-alive".into());
        assert!(!req.wants_close());
    }
}
