//! Property tests for the HTTP subset, through the parser that faces
//! sockets (`parse_partial`): total over hostile bytes, lossless
//! round-trips over arbitrary content, size caps, and verdicts that do
//! not depend on how the bytes were chunked.

use marketscope_core::propcheck::{any_u64, bytes, check, printable, string_of, usize_in, vec_of};
use marketscope_core::rng::DetRng;
use marketscope_net::http::{
    url_decode, url_encode, Method, Request, Response, Status, MAX_BODY, MAX_HEAD,
};
use marketscope_net::NetError;

/// This suite's runner: 128 cases per property, streams named
/// `http_properties::<property>`.
fn property(name: &str, body: impl FnMut(&mut DetRng)) {
    check(&format!("http_properties::{name}"), 128, body);
}

/// A parse outcome reduced to something comparable: the message and
/// bytes consumed, "need more", or the error's class and text.
fn outcome<M>(r: Result<Option<(M, usize)>, NetError>) -> Result<Option<(M, usize)>, String> {
    r.map_err(|e| format!("{}: {e}", e.kind()))
}

/// Every prefix of `wire` must parse to "need more" or to exactly what
/// the whole buffer parses to — a complete message or an error, once
/// reached, is not changed by the bytes that follow.
fn assert_prefix_consistent<M: PartialEq + std::fmt::Debug>(
    wire: &[u8],
    parse: impl Fn(&[u8]) -> Result<Option<(M, usize)>, NetError>,
) {
    let full = outcome(parse(wire));
    for cut in 0..wire.len() {
        let partial = outcome(parse(&wire[..cut]));
        assert!(
            partial == Ok(None) || partial == full,
            "prefix of {cut}/{} bytes gave {partial:?}, whole buffer {full:?}",
            wire.len()
        );
    }
}

#[test]
fn request_parser_is_total_and_chunking_blind() {
    property("request_parser_is_total_and_chunking_blind", |rng| {
        assert_prefix_consistent(&bytes(rng, 0..2048), Request::parse_partial)
    });
}

#[test]
fn response_parser_is_total_and_chunking_blind() {
    property("response_parser_is_total_and_chunking_blind", |rng| {
        assert_prefix_consistent(&bytes(rng, 0..2048), Response::parse_partial)
    });
}

#[test]
fn request_round_trips() {
    property("request_round_trips", |rng| {
        let mut req = Request::get(&format!("/x/{}", string_of(rng, "a-zA-Z0-9._-", 1..=24)));
        req.method = if rng.chance(0.5) {
            Method::Post
        } else {
            Method::Get
        };
        req.query = vec_of(rng, 0..5, |r| {
            (string_of(r, "a-z", 1..=8), printable(r, 0..=24))
        });
        req.body = bytes(rng, 0..512);
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();
        let message_len = wire.len();
        // Whatever follows the message (a pipelined request, garbage)
        // must not leak into it.
        wire.extend_from_slice(&bytes(rng, 0..64));
        let (back, used) = Request::parse_partial(&wire)
            .unwrap()
            .expect("complete request");
        assert_eq!(used, message_len);
        assert_eq!(back.method, req.method);
        assert_eq!(back.path, req.path);
        assert_eq!(back.body, req.body);
        // Query params survive in order with exact values.
        assert_eq!(back.query, req.query);
        assert_prefix_consistent(&wire, Request::parse_partial);
    });
}

#[test]
fn response_round_trips() {
    property("response_round_trips", |rng| {
        let ct = format!(
            "{}/{}",
            string_of(rng, "a-z", 3..=12),
            string_of(rng, "a-z", 3..=12)
        );
        let resp = Response::ok(&ct, bytes(rng, 0..4096));
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let message_len = wire.len();
        wire.extend_from_slice(&bytes(rng, 0..64));
        let (back, used) = Response::parse_partial(&wire)
            .unwrap()
            .expect("complete response");
        assert_eq!(used, message_len);
        assert_eq!(back.status, Status::Ok);
        assert_eq!(back, resp);
        assert_prefix_consistent(&wire, Response::parse_partial);
    });
}

#[test]
fn url_codec_round_trips() {
    property("url_codec_round_trips", |rng| {
        let s = printable(rng, 0..=64);
        assert_eq!(url_decode(&url_encode(&s)), s);
    });
}

#[test]
fn url_decode_total() {
    property("url_decode_total", |rng| {
        let _ = url_decode(&printable(rng, 0..=64)); // must not panic, whatever the input
    });
}

#[test]
fn pipelined_requests_parse_in_order() {
    property("pipelined_requests_parse_in_order", |rng| {
        let n = usize_in(rng, 1..6);
        let mut wire = Vec::new();
        for i in 0..n {
            Request::get(&format!("/req/{i}"))
                .write_to(&mut wire)
                .unwrap();
        }
        let mut at = 0;
        for i in 0..n {
            let (req, used) = Request::parse_partial(&wire[at..])
                .unwrap()
                .expect("request");
            assert_eq!(req.path, format!("/req/{i}"));
            at += used;
        }
        assert_eq!(at, wire.len());
        assert!(Request::parse_partial(&wire[at..]).unwrap().is_none());
    });
}

#[test]
fn size_caps_hold_for_any_overshoot() {
    property("size_caps_hold_for_any_overshoot", |rng| {
        let filler = any_u64(rng) as u8;
        let head_over = usize_in(rng, 4..4096);
        let body_over = rng.range_u64(1, 1 << 40);
        // A head that has not terminated within the cap is refused, not
        // buffered forever, whatever it is made of (`\r`/`\n` fillers
        // that happen to terminate it are heads, not overshoots).
        if filler != b'\r' && filler != b'\n' {
            let endless = vec![filler; MAX_HEAD + head_over];
            assert!(matches!(
                Request::parse_partial(&endless),
                Err(NetError::TooLarge { what: "header", .. })
            ));
            assert!(matches!(
                Response::parse_partial(&endless),
                Err(NetError::TooLarge { what: "header", .. })
            ));
        }
        // A declared body over the cap is refused from the head alone.
        let declared = MAX_BODY as u64 + body_over;
        let req = format!("POST /x HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n");
        assert!(matches!(
            Request::parse_partial(req.as_bytes()),
            Err(NetError::TooLarge { what: "body", .. })
        ));
        let resp = format!("HTTP/1.1 200 OK\r\ncontent-length: {declared}\r\n\r\n");
        assert!(matches!(
            Response::parse_partial(resp.as_bytes()),
            Err(NetError::TooLarge { what: "body", .. })
        ));
    });
}

/// The chunking-blind property at the one place random inputs never
/// reach: a head whose terminator straddles the size cap.
#[test]
fn heads_at_the_size_cap_parse_the_same_however_chunked() {
    for pad in (MAX_HEAD - 40)..(MAX_HEAD + 8) {
        let mut wire = b"GET /x HTTP/1.1\r\nx-pad: ".to_vec();
        wire.resize(pad, b'v');
        wire.extend_from_slice(b"\r\n\r\n");
        let full = outcome(Request::parse_partial(&wire));
        let accepted = pad <= MAX_HEAD;
        assert_eq!(full.is_ok(), accepted, "head of {pad} bytes");
        for cut in (pad - 8)..wire.len() {
            let partial = outcome(Request::parse_partial(&wire[..cut]));
            assert!(
                partial == Ok(None) || partial == full,
                "head of {pad} bytes cut at {cut}: {partial:?} vs {full:?}"
            );
        }
    }
}
