//! Pipelining properties: the incremental line framer produces exactly
//! the same frames no matter how the byte stream is chopped up, and a
//! client that writes K requests before reading anything gets K
//! responses back in request order.

use inconsist_server::wire::LineFramer;
use inconsist_server::{serve, Client, Json, ServerConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Feeds the whole input at once and drains every complete frame.
fn frame_whole(input: &[u8], max_line: usize) -> Result<Vec<String>, String> {
    let mut framer = LineFramer::new(max_line);
    framer.push(input);
    drain(&mut framer)
}

/// Feeds the input in chunks at the given split points and drains after
/// every chunk, concatenating the frames in arrival order.
fn frame_chunked(input: &[u8], splits: &[usize], max_line: usize) -> Result<Vec<String>, String> {
    let mut framer = LineFramer::new(max_line);
    let mut lines = Vec::new();
    let mut start = 0;
    let mut cuts: Vec<usize> = splits.iter().map(|s| s % (input.len() + 1)).collect();
    cuts.sort_unstable();
    for cut in cuts {
        framer.push(&input[start..cut.max(start)]);
        lines.extend(drain(&mut framer)?);
        start = start.max(cut);
    }
    framer.push(&input[start..]);
    lines.extend(drain(&mut framer)?);
    Ok(lines)
}

fn drain(framer: &mut LineFramer) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    loop {
        match framer.next_line() {
            Ok(Some(line)) => lines.push(line),
            Ok(None) => return Ok(lines),
            Err(e) => return Err(e.to_string()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte-by-byte, arbitrary-chunk, and whole-buffer feeding all frame
    /// identically — including inputs with CRLF, empty lines, multi-byte
    /// UTF-8 torn across chunk boundaries, and raw non-UTF-8 bytes.
    #[test]
    fn chunked_framing_equals_whole_framing(
        lines in prop::collection::vec("[ -~é★]{0,40}", 0..8),
        raw in prop::collection::vec(0u8..255, 0..64),
        splits in prop::collection::vec(0usize..4096, 0..12),
        crlf in 0u8..2,
        trailing_newline in 0u8..2,
    ) {
        let sep = if crlf == 1 { "\r\n" } else { "\n" };
        let mut input = lines.join(sep).into_bytes();
        // Splice in raw bytes (may tear UTF-8, embed newlines, or add
        // stray \r) to prove framing is byte-oriented, not char-oriented.
        input.extend_from_slice(&raw);
        if trailing_newline == 1 {
            input.extend_from_slice(sep.as_bytes());
        }
        let whole = frame_whole(&input, 4096);
        let chunked = frame_chunked(&input, &splits, 4096);
        prop_assert_eq!(&whole, &chunked);
        // And fully torn: one byte at a time.
        let torn: Vec<usize> = (0..input.len()).collect();
        prop_assert_eq!(&whole, &frame_chunked(&input, &torn, 4096));
    }

    /// Oversized lines error identically whether the bytes arrive all at
    /// once or one at a time, and the error fires even before any
    /// terminator shows up.
    #[test]
    fn oversized_lines_error_identically_regardless_of_chunking(
        len in 64usize..256,
        max in 8usize..48,
    ) {
        let input = vec![b'x'; len];
        let whole = frame_whole(&input, max);
        let torn: Vec<usize> = (0..input.len()).collect();
        prop_assert!(whole.is_err());
        prop_assert_eq!(whole, frame_chunked(&input, &torn, max));
    }
}

const CSV: &str = "City,Country,Pop\nParis,FR,1\nParis,DE,2\nLyon,FR,3\nLyon,FR,4\n";
const DC: &str = "fd: t.City = t'.City & t.Country != t'.Country\n";

/// End-to-end pipelining: K `op` requests (interleaved with inline
/// `ping`s, which take a different execution path) written in one burst
/// come back as exactly K+pings responses in request order, with the
/// per-op sequence numbers ascending — proof the server neither reorders
/// nor interleaves responses on a connection.
#[test]
fn pipelined_requests_return_in_order_with_ascending_seqs() {
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(&addr).unwrap();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"p\",\"csv\":{},\"dc\":{}}}",
        Json::str(CSV),
        Json::str(DC)
    );
    let created = Json::parse(&client.request(&create).unwrap()).unwrap();
    assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));

    const K: usize = 32;
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut burst = String::new();
    for i in 0..K {
        burst.push_str(&format!(
            "{{\"cmd\":\"op\",\"session\":\"p\",\"ops\":\"update 1 Pop {}\"}}\n",
            i + 100
        ));
        // Every 8th request is an inline ping: it must not jump the queue.
        if i % 8 == 7 {
            burst.push_str("{\"cmd\":\"ping\"}\n");
        }
    }
    (&stream).write_all(burst.as_bytes()).unwrap();

    let mut next_seq = 1.0;
    for i in 0..K {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let json = Json::parse(line.trim_end()).unwrap();
        assert_eq!(
            json.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {i}: {line}"
        );
        let ops = json.get("ops").and_then(Json::as_arr).unwrap();
        assert_eq!(ops.len(), 1, "{line}");
        let seq = ops[0].get("seq").and_then(Json::as_f64).unwrap();
        assert_eq!(
            seq, next_seq,
            "out-of-order response at request {i}: {line}"
        );
        next_seq += 1.0;
        if i % 8 == 7 {
            let mut pong = String::new();
            reader.read_line(&mut pong).unwrap();
            assert!(pong.contains("\"pong\":true"), "{pong}");
        }
    }
    // Nothing extra is buffered: the next line on the wire is the
    // response to the next request, not a stray.
    (&stream).write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\":true"), "{line}");

    // All K ops applied exactly once, in order.
    let stats = Json::parse(
        &client
            .request("{\"cmd\":\"stats\",\"session\":\"p\"}")
            .unwrap(),
    )
    .unwrap();
    assert_eq!(stats.get("op_seq").and_then(Json::as_f64), Some(K as f64));

    client.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}

/// 400 warm reads written down one connection ahead of any read all
/// answer `ok`; release builds require at least 27.5k req/s.
/// A writer thread keeps the burst flowing once the server's pipeline
/// bound pushes back.
#[test]
fn a_pipelined_read_burst_answers_in_full() {
    const BURST: usize = 400;
    let handle = serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        solve_threads: 1,
        event_threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = handle.addr();
    // 60 blocks of 4 tuples agreeing on `A` with distinct `B`s.
    let csv: String = (0..240).fold("A,B\n".into(), |csv, i| csv + &format!("{},{i}\n", i / 4));
    let mut client = Client::connect(&addr).unwrap();
    let create = format!(
        "{{\"cmd\":\"create\",\"session\":\"fe\",\"csv\":{},\"dc\":{}}}",
        Json::str(csv),
        Json::str("fd: t.A = t'.A & t.B != t'.B\n")
    );
    assert!(client.request(&create).unwrap().contains("\"ok\":true"));
    let read = "{\"cmd\":\"measure\",\"session\":\"fe\",\"measures\":[\"I_MI\"]}";
    client.request(read).unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let burst = format!("{read}\n").repeat(BURST);
    let started = std::time::Instant::now();
    let writer = std::thread::spawn(move || (&stream).write_all(burst.as_bytes()));
    let mut line = String::new();
    for i in 0..BURST {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("{\"ok\":true"), "request {i}: {line}");
    }
    let rate = BURST as f64 / started.elapsed().as_secs_f64();
    writer.join().unwrap().unwrap();
    if !cfg!(debug_assertions) {
        assert!(rate >= 55_000.0 * 0.5, "{rate:.0} pipelined req/s");
    }
    client.request("{\"cmd\":\"shutdown\"}").unwrap();
    handle.wait();
}
