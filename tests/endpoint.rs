//! The frame endpoint the daemon and the router share, probed with raw
//! frames over TCP on both tiers: an oversized length prefix is answered
//! with an error and the connection closes; an undecodable payload is
//! answered with an error and the same connection keeps serving; a good
//! `optimize` from a second client succeeds meanwhile; `shutdown` is
//! answered with `shutting_down` and the connection closes.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mc_cluster::{Router, RouterConfig};
use mc_serve::{
    read_frame, write_frame, Client, OptimizeRequest, Request, Response, ServeConfig, Server,
    MAX_FRAME_LEN,
};
use xag_network::{write_bristol, Xag};

/// A raw connection: these tests write frames `Client` would never send.
fn connect(addr: SocketAddr) -> TcpStream {
    // lint: allow(offline-policy): loopback test connection that sends malformed frames on purpose
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream
}

fn reply(stream: &mut TcpStream) -> Response {
    let payload = read_frame(&mut *stream)
        .expect("a well-formed reply frame")
        .expect("a reply before the connection closes");
    Response::from_payload(&payload).expect("a decodable reply")
}

fn assert_closed(stream: &mut TcpStream) {
    assert!(
        matches!(read_frame(&mut *stream), Ok(None)),
        "connection should close after the reply"
    );
}

fn error_message(response: Response) -> String {
    match response {
        Response::Error { message } => message,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// A 2-AND circuit for a 1-AND function: `a & (b ^ c)`.
fn circuit() -> String {
    let mut xag = Xag::new();
    let (a, b, c) = (xag.input(), xag.input(), xag.input());
    let ab = xag.and(a, b);
    let ac = xag.and(a, c);
    let x = xag.xor(ab, ac);
    xag.output(x);
    let mut text = Vec::new();
    write_bristol(&xag, &mut text).expect("in-memory write");
    String::from_utf8(text).expect("bristol is ASCII")
}

fn probe_endpoint(addr: SocketAddr) {
    // Oversized: only the length prefix is sent; the body can never be
    // read, so the endpoint answers and hangs up.
    let mut oversized = connect(addr);
    let prefix = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
    oversized.write_all(&prefix).expect("write prefix");
    let message = error_message(reply(&mut oversized));
    assert!(message.contains("oversized frame"), "{message}");
    assert_closed(&mut oversized);

    // Undecodable payloads: an error each, and the connection stays up.
    let mut raw = connect(addr);
    for payload in [
        &b"{not json"[..],
        b"{\"type\":\"no_such_request\"}",
        b"\xff",
    ] {
        write_frame(&mut raw, payload).expect("write frame");
        error_message(reply(&mut raw));
    }
    write_frame(&mut raw, &Request::Ping.to_payload()).expect("write ping");
    assert!(matches!(reply(&mut raw), Response::Pong));

    // A second client is served while the raw connection stays open.
    let mut client = Client::connect(addr).expect("connect client");
    let result = client
        .optimize(OptimizeRequest {
            circuit: circuit(),
            ..OptimizeRequest::default()
        })
        .expect("optimize");
    assert_eq!((result.ands_before, result.ands_after), (2, 1));

    write_frame(&mut raw, &Request::Ping.to_payload()).expect("write ping");
    assert!(matches!(reply(&mut raw), Response::Pong));
}

fn shut_down(addr: SocketAddr) {
    let mut raw = connect(addr);
    write_frame(&mut raw, &Request::Shutdown.to_payload()).expect("write shutdown");
    assert!(matches!(reply(&mut raw), Response::ShuttingDown));
    assert_closed(&mut raw);
}

#[test]
fn daemon_endpoint_answers_bad_frames_and_keeps_serving() {
    let daemon = Server::bind(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    probe_endpoint(daemon.local_addr());
    shut_down(daemon.local_addr());
    daemon.join();
}

#[test]
fn router_endpoint_answers_bad_frames_and_keeps_serving() {
    let router = Router::bind(RouterConfig {
        miss_threshold: 100,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let backend = Server::bind(ServeConfig {
        workers: 1,
        join: Some(router.local_addr().to_string()),
        heartbeat_interval: Duration::from_millis(100),
        ..ServeConfig::default()
    })
    .expect("bind backend");
    let mut probe = Client::connect(router.local_addr()).expect("connect probe");
    for _ in 0..500 {
        let stats = probe.cluster_stats().expect("cluster_stats");
        if stats.backends.iter().any(|b| b.up) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    probe_endpoint(router.local_addr());
    shut_down(router.local_addr());
    router.join();
    backend.shutdown();
}
