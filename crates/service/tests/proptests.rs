//! Property tests of the service's network-facing codecs: the JSON reader
//! and writer, the HTTP request and reply framing, and the canonical
//! request documents that a coordinator and its workers must agree on byte
//! for byte.

use std::io::{BufReader, Read};

use proptest::prelude::*;
use proptest::TestRng;
use service::api::{CheckRequest, SimulateRequest};
use service::http::{self, ReadError};
use service::json::{self, Json};
use service::Response;

/// A uniform index below `n`.
fn pick(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

/// A coin flip.
fn coin(rng: &mut TestRng) -> bool {
    pick(rng, 2) == 1
}

/// Text mixing plain ASCII, the characters JSON must escape (quotes,
/// backslashes, every control character), and non-ASCII text up to astral
/// code points.
fn text(rng: &mut TestRng, max_len: usize) -> String {
    const PALETTE: [char; 14] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'λ', '\u{2028}',
        '𝄞',
    ];
    (0..pick(rng, max_len + 1))
        .map(|_| match pick(rng, 3) {
            0 => PALETTE[pick(rng, PALETTE.len())],
            1 => char::from(pick(rng, 0x80) as u8),
            // Surrogate code points are not chars; they fall back to U+FFFD.
            _ => char::from_u32((0x80u32..0x11_0000).generate(rng)).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// A finite number: an arbitrary bit pattern (subnormals, extremes, -0)
/// or a small integer.
fn number(rng: &mut TestRng) -> f64 {
    loop {
        let n = if coin(rng) {
            f64::from_bits((0u64..u64::MAX).generate(rng))
        } else {
            (-1000i64..1000).generate(rng) as f64
        };
        if n.is_finite() {
            return n;
        }
    }
}

/// A JSON document nested at most `depth` levels, with unique object keys.
fn document(rng: &mut TestRng, depth: u32) -> Json {
    match pick(rng, if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(coin(rng)),
        2 => Json::Number(number(rng)),
        3 => Json::String(text(rng, 12)),
        4 => Json::Array(
            (0..pick(rng, 5))
                .map(|_| document(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut members: Vec<(String, Json)> = Vec::new();
            for _ in 0..pick(rng, 5) {
                let key = text(rng, 6);
                if members.iter().all(|(k, _)| *k != key) {
                    members.push((key, document(rng, depth - 1)));
                }
            }
            Json::Object(members)
        }
    }
}

/// Renders `value` as a client might: object members shuffled, whitespace
/// between every token, integers sometimes written with a fraction.
fn noisy(rng: &mut TestRng, value: &Json) -> String {
    let space = |rng: &mut TestRng| [" ", "", "\n  ", "\t", "\r\n"][pick(rng, 5)].to_string();
    match value {
        Json::Object(members) => {
            let mut order: Vec<usize> = (0..members.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, pick(rng, i + 1));
            }
            let parts: Vec<String> = order
                .into_iter()
                .map(|i| {
                    let (key, member) = &members[i];
                    let key = Json::str(key.clone()).render();
                    format!(
                        "{}{key}{}:{}{}",
                        space(rng),
                        space(rng),
                        space(rng),
                        noisy(rng, member)
                    )
                })
                .collect();
            format!("{{{}{}}}", parts.join(","), space(rng))
        }
        Json::Array(items) => {
            let parts: Vec<String> = items
                .iter()
                .map(|item| format!("{}{}", space(rng), noisy(rng, item)))
                .collect();
            format!("[{}{}]", parts.join(","), space(rng))
        }
        Json::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 && coin(rng) => format!("{n}.0"),
        other => other.render(),
    }
}

/// Strategy: arbitrary JSON documents up to four levels deep.
struct Documents;

impl Strategy for Documents {
    type Value = Json;

    fn generate(&self, rng: &mut TestRng) -> Json {
        document(rng, 4)
    }
}

/// Strategy: arbitrary text, biased towards JSON punctuation so the parser
/// gets past its first byte.
struct Garbage;

impl Strategy for Garbage {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const JSONISH: &[u8] = b"{}[]\",:0123456789.eE+-truefalsnl\\u \n";
        (0..pick(rng, 64))
            .map(|_| match pick(rng, 4) {
                0 => text(rng, 1),
                _ => char::from(JSONISH[pick(rng, JSONISH.len())]).to_string(),
            })
            .collect()
    }
}

const SPECIES: [&str; 6] = ["a", "b", "x1", "_y", "z'", "Q_2"];

/// A reaction network: `(reactants, products, rate)` with
/// `(coefficient, species)` terms.
type Reactions = Vec<(Vec<(u32, usize)>, Vec<(u32, usize)>, f64)>;

fn reactions(rng: &mut TestRng) -> Reactions {
    (0..1 + pick(rng, 4))
        .map(|_| {
            let side = |rng: &mut TestRng| -> Vec<(u32, usize)> {
                (0..pick(rng, 3))
                    .map(|_| (1 + pick(rng, 3) as u32, pick(rng, SPECIES.len())))
                    .collect()
            };
            let mut reactants = side(rng);
            let products = side(rng);
            if reactants.is_empty() && products.is_empty() {
                reactants.push((1, pick(rng, SPECIES.len())));
            }
            (reactants, products, (0.001f64..1000.0).generate(rng))
        })
        .collect()
}

/// A one-line comment. It never holds `{`, which `/check` reserves for
/// sweep placeholders.
fn comment(rng: &mut TestRng) -> String {
    format!("# {}", text(rng, 8).replace(['\n', '\r', '{'], "."))
}

/// Writes `network` with random spacing, glued or spaced coefficients,
/// `0`/`∅`/empty sides, full-line comments, blank lines and trailing
/// comments (which the reaction parser reads as labels).
fn network_text(rng: &mut TestRng, network: &Reactions) -> String {
    let mut lines = Vec::new();
    for (reactants, products, rate) in network {
        if coin(rng) {
            lines.push(comment(rng));
        }
        if coin(rng) {
            lines.push("   ".to_string());
        }
        let side = |rng: &mut TestRng, terms: &[(u32, usize)]| -> String {
            if terms.is_empty() {
                return ["0", "∅", ""][pick(rng, 3)].to_string();
            }
            let terms: Vec<String> = terms
                .iter()
                .map(|&(c, s)| match (c, pick(rng, 2)) {
                    (1, 0) => SPECIES[s].to_string(),
                    (c, 0) => format!("{c}{}", SPECIES[s]),
                    (c, _) => format!("{c}  {}", SPECIES[s]),
                })
                .collect();
            terms.join(["+", " + ", "  +\t"][pick(rng, 3)])
        };
        let rate = if coin(rng) {
            format!("{rate}")
        } else {
            format!("{rate:e}")
        };
        let mut line = format!(
            "  {} ->  {} @ {rate}",
            side(rng, reactants),
            side(rng, products)
        );
        if coin(rng) {
            line.push_str(&format!("   {}", comment(rng)));
        }
        lines.push(line);
    }
    lines.join("\n")
}

/// The species `network` mentions.
fn mentioned(network: &Reactions) -> Vec<usize> {
    let mut seen: Vec<usize> = Vec::new();
    for (reactants, products, _) in network {
        for &(_, s) in reactants.iter().chain(products) {
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
    }
    seen
}

fn target(rng: &mut TestRng, species: &[usize]) -> Json {
    Json::object([
        (
            "species",
            Json::str(SPECIES[species[pick(rng, species.len())]]),
        ),
        ("at_least", Json::count(pick(rng, 20) as u64)),
    ])
}

/// Counts for a random subset of `species`, each below `cap`.
fn counts(rng: &mut TestRng, species: &[usize], cap: usize) -> Json {
    let mut members = Vec::new();
    for &s in species {
        if coin(rng) {
            members.push((SPECIES[s].to_string(), Json::count(pick(rng, cap) as u64)));
        }
    }
    Json::Object(members)
}

fn stop(rng: &mut TestRng, species: &[usize], depth: u32) -> Json {
    let species_stop = |rng: &mut TestRng, kind: &str| {
        Json::object([
            ("type", Json::str(kind)),
            (
                "species",
                Json::str(SPECIES[species[pick(rng, species.len())]]),
            ),
            ("count", Json::count(pick(rng, 50) as u64)),
        ])
    };
    match pick(rng, if depth == 0 { 5 } else { 7 }) {
        0 => Json::object([("type", Json::str("exhaustion"))]),
        1 => Json::object([
            ("type", Json::str("time")),
            ("t", Json::num((0.0f64..100.0).generate(rng))),
        ]),
        2 => Json::object([
            ("type", Json::str("events")),
            ("n", Json::count(pick(rng, 10_000) as u64)),
        ]),
        3 => species_stop(rng, "species_at_least"),
        4 => species_stop(rng, "species_at_most"),
        kind => Json::object([
            (
                "type",
                Json::str(if kind == 5 { "any_of" } else { "all_of" }),
            ),
            (
                "conditions",
                Json::Array(
                    (0..1 + pick(rng, 3))
                        .map(|_| stop(rng, species, depth - 1))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// A `/simulate` request, written twice by different clients (independent
/// member order, whitespace and comments), plus a shard range of it.
#[derive(Debug)]
struct SimulateCase {
    bodies: [String; 2],
    range: (u64, u64),
}

struct SimulateCases;

impl Strategy for SimulateCases {
    type Value = SimulateCase;

    fn generate(&self, rng: &mut TestRng) -> SimulateCase {
        const METHODS: [&str; 6] = [
            "direct",
            "first-reaction",
            "next-reaction",
            "composition-rejection",
            "tau-leaping",
            "hybrid",
        ];
        let network = reactions(rng);
        let species = mentioned(&network);
        let trials = 1 + pick(rng, 10_000) as u64;
        let start = pick(rng, trials as usize) as u64;
        let end = start + 1 + pick(rng, (trials - start) as usize) as u64;
        let mut members = vec![
            ("initial", counts(rng, &species, 30)),
            ("trials", Json::count(trials)),
            ("seed", Json::count(pick(rng, 1 << 20) as u64)),
            ("wait", Json::Bool(coin(rng))),
        ];
        // `auto` gets a quarter of the cases: it is the method whose
        // resolution must cross the wire.
        match pick(rng, 4) {
            0 => {}
            1 => members.push(("method", Json::str("auto"))),
            _ => members.push(("method", Json::str(METHODS[pick(rng, METHODS.len())]))),
        }
        if coin(rng) {
            members.push(("stop", stop(rng, &species, 2)));
        }
        if coin(rng) {
            members.push(("max_events", Json::count(1 + pick(rng, 1 << 20) as u64)));
        }
        if coin(rng) {
            let rules = (0..pick(rng, 3))
                .map(|_| {
                    let mut rule = target(rng, &species);
                    if let Json::Object(m) = &mut rule {
                        m.push(("outcome".to_string(), Json::String(text(rng, 6))));
                    }
                    rule
                })
                .collect();
            members.push(("classifier", Json::Array(rules)));
        }
        let bodies = [0, 1].map(|_| {
            let mut request = members.clone();
            request.push(("network", Json::str(network_text(rng, &network))));
            noisy(rng, &Json::object(request))
        });
        SimulateCase {
            bodies,
            range: (start, end),
        }
    }
}

/// A `/check` request — a single point or a sweep over a rate — written
/// twice by different clients.
#[derive(Debug)]
struct CheckCase {
    bodies: [String; 2],
}

struct CheckCases;

impl Strategy for CheckCases {
    type Value = CheckCase;

    fn generate(&self, rng: &mut TestRng) -> CheckCase {
        let network = reactions(rng);
        let species = mentioned(&network);
        let mut bounds = vec![
            ("default_cap", Json::count(pick(rng, 50) as u64)),
            ("caps", counts(rng, &species, 50)),
        ];
        if coin(rng) {
            bounds.push(("policy", Json::str(["strict", "truncating"][pick(rng, 2)])));
        }
        if coin(rng) {
            bounds.push(("max_states", Json::count(1 + pick(rng, 100_000) as u64)));
        }
        let mut property = vec![("target", target(rng, &species))];
        let kind = ["reach_before", "reach_within", "hitting_time", "stationary"][pick(rng, 4)];
        property.push(("type", Json::str(kind)));
        match kind {
            "reach_before" => property.push(("competitor", target(rng, &species))),
            "reach_within" => {
                // A window with t2 < t1 is refused at parse time.
                let (a, b) = ((0.0f64..10.0).generate(rng), (0.0f64..10.0).generate(rng));
                let (t1, t2) = (a.min(b), a.max(b));
                property.push(("window", Json::Array(vec![Json::num(t1), Json::num(t2)])));
            }
            _ => {}
        }
        let mut members = vec![
            ("initial", counts(rng, &species, 30)),
            ("bounds", Json::object(bounds)),
            ("property", Json::object(property)),
        ];
        let sweep = coin(rng);
        if sweep {
            let values = (0..1 + pick(rng, 4))
                .map(|_| Json::num((0.01f64..100.0).generate(rng)))
                .collect();
            members.push((
                "sweep",
                Json::object([
                    ("parameter", Json::str("k")),
                    ("values", Json::Array(values)),
                ]),
            ));
        }
        let bodies = [0, 1].map(|_| {
            let mut text = network_text(rng, &network);
            if sweep {
                text.push_str("\nb -> a @ {k}");
            }
            let mut request = members.clone();
            request.push(("network", Json::str(text)));
            noisy(rng, &Json::object(request))
        });
        CheckCase { bodies }
    }
}

/// Strategy: byte strings built from HTTP tokens (methods, versions,
/// separators, header names, lengths up to past `u64::MAX`) and arbitrary
/// bytes, so the parsers get past their first line often.
struct HttpGarbage;

impl Strategy for HttpGarbage {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        const TOKENS: [&[u8]; 21] = [
            b"GET",
            b"POST",
            b"DELETE",
            b"HTTP/1.1",
            b"HTTP/2",
            b"200",
            b" ",
            b"\r\n",
            b"\n",
            b"\r\n\r\n",
            b":",
            b"/x?q",
            b"content-length",
            b"Content-Length: ",
            b"connection: close",
            b"0",
            b"7",
            b"99999999999",
            b"18446744073709551616",
            b"{\"a\":1}",
            b"\xff\xfe",
        ];
        let mut bytes = Vec::new();
        for _ in 0..pick(rng, 48) {
            if pick(rng, 4) == 0 {
                bytes.push(pick(rng, 256) as u8);
            } else {
                bytes.extend_from_slice(TOKENS[pick(rng, TOKENS.len())]);
            }
        }
        bytes
    }
}

/// A header name written with random letter case.
fn header_case(rng: &mut TestRng, name: &str) -> String {
    name.chars()
        .map(|c| if coin(rng) { c.to_ascii_uppercase() } else { c })
        .collect()
}

/// A header value: printable ASCII with no surrounding spaces (the parser
/// trims them).
fn header_value(rng: &mut TestRng) -> String {
    (0..pick(rng, 12))
        .map(|_| char::from(0x21 + pick(rng, 0x5e) as u8))
        .collect()
}

/// One request as the parser should read it back, and its bytes on the
/// wire: random method, target, header case and spacing, and a body framed
/// by `content-length` (omitted now and then when the body is empty).
#[derive(Debug)]
struct WireRequest {
    method: &'static str,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    body: String,
    bytes: Vec<u8>,
}

fn wire_request(rng: &mut TestRng) -> WireRequest {
    let method = ["GET", "POST", "DELETE"][pick(rng, 3)];
    let segment = |rng: &mut TestRng| -> String {
        (0..pick(rng, 8))
            .map(|_| char::from(b"abz09-_./%"[pick(rng, 10)]))
            .collect()
    };
    let path = format!("/{}", segment(rng));
    let query = coin(rng).then(|| segment(rng));
    let body = text(rng, 24).replace('\r', "");
    let mut headers: Vec<(String, String)> = (0..pick(rng, 4))
        .map(|i| (format!("x-h{i}"), header_value(rng)))
        .collect();
    if !body.is_empty() || coin(rng) {
        headers.insert(
            pick(rng, headers.len() + 1),
            ("content-length".to_string(), body.len().to_string()),
        );
    }
    let mut wire = format!("{method} {path}");
    if let Some(query) = &query {
        wire.push_str(&format!("?{query}"));
    }
    wire.push_str(&format!(" HTTP/1.{}\r\n", pick(rng, 2)));
    for (name, value) in &headers {
        let space = [" ", "", "  "][pick(rng, 3)];
        wire.push_str(&format!("{}:{space}{value}\r\n", header_case(rng, name)));
    }
    wire.push_str("\r\n");
    wire.push_str(&body);
    WireRequest {
        method,
        path,
        query,
        headers,
        body,
        bytes: wire.into_bytes(),
    }
}

/// Two requests and the bytes that follow them on the stream.
#[derive(Debug)]
struct RequestPair {
    requests: [WireRequest; 2],
    trailer: Vec<u8>,
}

struct RequestPairs;

impl Strategy for RequestPairs {
    type Value = RequestPair;

    fn generate(&self, rng: &mut TestRng) -> RequestPair {
        RequestPair {
            requests: [wire_request(rng), wire_request(rng)],
            trailer: HttpGarbage.generate(rng),
        }
    }
}

/// One reply as the server writes it.
#[derive(Debug)]
struct WireReply {
    status: u16,
    header: (String, String),
    body: String,
    close: bool,
}

/// Two replies and the bytes that follow them on the stream.
#[derive(Debug)]
struct ReplyPair {
    replies: [WireReply; 2],
    trailer: Vec<u8>,
}

struct ReplyPairs;

impl Strategy for ReplyPairs {
    type Value = ReplyPair;

    fn generate(&self, rng: &mut TestRng) -> ReplyPair {
        let reply = |rng: &mut TestRng| WireReply {
            status: [200, 202, 400, 404, 413, 429, 503][pick(rng, 7)],
            header: ("cache".to_string(), header_value(rng)),
            body: text(rng, 24),
            close: coin(rng),
        };
        ReplyPair {
            replies: [reply(rng), reply(rng)],
            trailer: HttpGarbage.generate(rng),
        }
    }
}

/// A source of one byte, endlessly, that counts the bytes read from it.
struct Endless {
    byte: u8,
    read: usize,
}

impl Read for Endless {
    fn read(&mut self, buffer: &mut [u8]) -> std::io::Result<usize> {
        buffer.fill(self.byte);
        self.read += buffer.len();
        Ok(buffer.len())
    }
}

/// `true` when `error` is the line-length rejection.
fn line_too_long(error: &ReadError) -> bool {
    matches!(error, ReadError::Malformed(m) if m.contains("too long"))
}

proptest! {
    /// (i) Rendering then parsing gives back the document, escapes, control
    /// characters and non-ASCII text included.
    #[test]
    fn json_render_then_parse_is_the_identity(value in Documents) {
        let rendered = value.render();
        prop_assert_eq!(json::parse(&rendered), Ok(value), "rendered: {rendered}");
    }

    /// (ii) The parser never panics on arbitrary text; whatever it accepts
    /// re-renders to a document it parses back unchanged.
    #[test]
    fn json_parse_survives_arbitrary_text(input in Garbage) {
        if let Ok(value) = json::parse(&input) {
            prop_assert_eq!(json::parse(&value.render()), Ok(value));
        }
    }

    /// (ii) Nesting deeper than 64 levels is an error, never a stack
    /// overflow, whatever the mix of arrays and objects.
    #[test]
    fn json_parse_rejects_nesting_deeper_than_64(depth in 65usize..400, mix in 0u64..u64::MAX) {
        let opens = |i: usize| if mix >> (i % 64) & 1 == 1 { "{\"k\":" } else { "[" };
        let closes = |i: usize| if mix >> (i % 64) & 1 == 1 { "}" } else { "]" };
        let mut text: String = (0..depth).map(opens).collect();
        text.push('1');
        text.extend((0..depth).rev().map(closes));
        prop_assert!(json::parse(&text).is_err());
        // Text that deep but unbalanced is rejected the same way.
        prop_assert!(json::parse(&text[..text.len() / 2]).is_err());
    }

    /// (iii) One document per simulate request: clients that differ only in
    /// member order, whitespace and comments share the cache key; a worker
    /// parsing the shard body rebuilds the coordinator's network (species
    /// and reaction order included) with the resolved method, so it never
    /// classifies; and re-encoding that parse gives back the same body.
    #[test]
    fn simulate_shard_bodies_round_trip_through_a_worker(case in SimulateCases) {
        let parse = |text: &str| {
            SimulateRequest::parse(&json::parse(text).expect("valid JSON")).expect("valid request")
        };
        let coordinator = parse(&case.bodies[0]);
        prop_assert_eq!(coordinator.cache_key(), parse(&case.bodies[1]).cache_key());
        let wire = coordinator.to_wire(case.range);
        let worker = parse(&wire);
        prop_assert_eq!(&worker.crn, &coordinator.crn);
        prop_assert_eq!(&worker.initial, &coordinator.initial);
        prop_assert_eq!(worker.method, coordinator.resolved);
        prop_assert!(worker.classifier_report.is_none());
        prop_assert_eq!(worker.range, Some(case.range));
        prop_assert_eq!(worker.to_wire(case.range), wire);
    }

    /// (iii) One document per check point: both clients' requests share the
    /// key, and every point's body parses on a worker into the same network
    /// and the same key — which is what federates worker caches.
    #[test]
    fn check_point_bodies_round_trip_through_a_worker(case in CheckCases) {
        let parse = |text: &str| {
            CheckRequest::parse(&json::parse(text).expect("valid JSON")).expect("valid request")
        };
        let coordinator = parse(&case.bodies[0]);
        prop_assert_eq!(coordinator.cache_key(), parse(&case.bodies[1]).cache_key());
        for point in &coordinator.points {
            let wire = point.to_wire();
            let worker = parse(&wire);
            prop_assert_eq!(worker.points.len(), 1);
            let remote = &worker.points[0];
            prop_assert_eq!(&remote.crn, &point.crn);
            prop_assert_eq!(remote.cache_key(), point.cache_key());
            prop_assert_eq!(remote.to_wire(), wire);
        }
    }

    /// HTTP (i): arbitrary bytes never panic either parser; they give a
    /// typed error or a message, and a huge declared length costs no more
    /// than the bytes that arrived.
    #[test]
    fn http_parsers_survive_arbitrary_bytes(bytes in HttpGarbage, max_body in 0usize..64) {
        if let Ok(request) = http::read_request(&mut &bytes[..], max_body) {
            prop_assert!(request.body.len() <= max_body);
        }
        if let Ok(reply) = http::read_response(&mut &bytes[..]) {
            prop_assert!(reply.body.len() <= bytes.len());
        }
    }

    /// HTTP (ii): two requests back to back on one stream parse as exactly
    /// those two, and nothing past the second's body is consumed.
    #[test]
    fn http_requests_back_to_back_parse_exactly(pair in RequestPairs) {
        let mut stream = Vec::new();
        for request in &pair.requests {
            stream.extend_from_slice(&request.bytes);
        }
        stream.extend_from_slice(&pair.trailer);
        let mut rest = &stream[..];
        for expected in &pair.requests {
            let parsed = http::read_request(&mut rest, 1 << 10).expect("valid request");
            prop_assert_eq!(parsed.method.as_str(), expected.method);
            prop_assert_eq!(&parsed.path, &expected.path);
            prop_assert_eq!(&parsed.query, &expected.query);
            prop_assert_eq!(&parsed.headers, &expected.headers);
            prop_assert_eq!(&parsed.body, &expected.body);
        }
        prop_assert_eq!(rest, &pair.trailer[..]);
    }

    /// HTTP (ii): two replies as the server writes them, back to back on
    /// one stream, parse as exactly those two, and nothing past the
    /// second's body is consumed.
    #[test]
    fn http_replies_back_to_back_parse_exactly(pair in ReplyPairs) {
        let mut stream = Vec::new();
        for reply in &pair.replies {
            Response::json(reply.status, reply.body.clone())
                .header(reply.header.0.clone(), reply.header.1.clone())
                .write_to(&mut stream, reply.close)
                .expect("write to memory");
        }
        stream.extend_from_slice(&pair.trailer);
        let mut rest = &stream[..];
        for expected in &pair.replies {
            let parsed = http::read_response(&mut rest).expect("valid reply");
            prop_assert_eq!(parsed.status, expected.status);
            prop_assert_eq!(&parsed.body, &expected.body);
            prop_assert_eq!(parsed.header(&expected.header.0), Some(expected.header.1.as_str()));
            prop_assert_eq!(parsed.keeps_alive(), !expected.close);
        }
        prop_assert_eq!(rest, &pair.trailer[..]);
    }

    /// HTTP (iii): a line longer than 8 KiB — a request line, a status line
    /// or a header line — is rejected after at most 8 KiB plus one buffer
    /// of it is read.
    #[test]
    fn http_long_lines_are_cut_off_after_8_kib_and_one_buffer(
        capacity in 1usize..20_000,
        case in 0usize..4,
    ) {
        // Even cases read a request, odd ones a reply; the first two make
        // the first line the long one, the last two a header line.
        let before: &[u8] = match case {
            0 | 1 => b"",
            2 => b"GET /x HTTP/1.1\r\nx-long: ",
            _ => b"HTTP/1.1 200 OK\r\nx-long: ",
        };
        let source = before.chain(Endless { byte: b'a', read: 0 });
        let mut reader = BufReader::with_capacity(capacity, source);
        let error = if case % 2 == 0 {
            http::read_request(&mut reader, 1 << 10).expect_err("an endless line")
        } else {
            http::read_response(&mut reader).map(drop).expect_err("an endless line")
        };
        prop_assert!(line_too_long(&error), "{error:?}");
        let (unread, endless) = reader.into_inner().into_inner();
        let read = before.len() - unread.len() + endless.read;
        let earlier_lines = before.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
        prop_assert!(read <= earlier_lines + 8192 + capacity, "read {read} bytes");
    }
}
