//! Malformed-bytes decode fuzzing for the frame protocol.
//!
//! Starting from *valid* encoded frames, seeded mutations — truncation,
//! bit flips, byte splices, and wholesale garbage — must always come
//! back as structured errors (`FrameError`, `Err(String)`), never as a
//! panic. A panicking decoder would let one malformed client take down
//! a connection thread; the `no-panic-in-request-path` lint rule guards
//! the source, this test guards the behavior.

use mc_rng::Rng;
use mc_serve::protocol::{
    read_frame, write_frame, FrameError, HeartbeatInfo, OptimizeRequest, RegisterInfo,
    MAX_FRAME_LEN,
};
use mc_serve::{Request, Response};

/// One representative payload per request variant (decode side), plus
/// an `optimize` frame of an older client.
fn request_payloads() -> Vec<Vec<u8>> {
    vec![
        Request::Optimize(OptimizeRequest {
            circuit: "2 5\n2 1 1\n1 1\n2 1 0 1 2 AND\n".to_string(),
            ..OptimizeRequest::default()
        })
        .to_payload(),
        // An `optimize` frame as clients sent it before the thread knob
        // was removed: a `threads` member and a `par` block, which the
        // decoder refuses as an unknown unit.
        br#"{"type":"optimize","flow":"par(threads=2){mc(cut=6)};cleanup*","threads":4,"max_rounds":100,"output":"bristol","circuit":"2 5\n2 1 1\n1 1\n2 1 0 1 2 AND\n"}"#
            .to_vec(),
        Request::Status.to_payload(),
        Request::Stats.to_payload(),
        Request::Ping.to_payload(),
        Request::Register(RegisterInfo {
            addr: "127.0.0.1:7171".to_string(),
            capacity: 4,
            queue_capacity: 64,
        })
        .to_payload(),
        Request::Heartbeat(HeartbeatInfo {
            backend_id: 3,
            queue_depth: 2,
            busy: 1,
        })
        .to_payload(),
        Request::ClusterStats.to_payload(),
    ]
}

/// Applies one seeded mutation to `bytes`.
fn mutate(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.next_u64() % 4 {
        // Truncate at a random point.
        0 => {
            let cut = (rng.next_u64() as usize) % (out.len().max(1));
            out.truncate(cut);
        }
        // Flip 1–8 random bits.
        1 => {
            for _ in 0..=(rng.next_u64() % 8) {
                if out.is_empty() {
                    break;
                }
                let i = (rng.next_u64() as usize) % out.len();
                out[i] ^= 1 << (rng.next_u64() % 8);
            }
        }
        // Splice a random slice of the input over another position.
        2 => {
            if out.len() >= 2 {
                let a = (rng.next_u64() as usize) % out.len();
                let b = (rng.next_u64() as usize) % out.len();
                let len = ((rng.next_u64() as usize) % 16).min(out.len() - a.max(b));
                let (src, dst) = (a.min(b), a.max(b));
                let slice: Vec<u8> = out[src..src + len].to_vec();
                out[dst..dst + len].copy_from_slice(&slice);
            }
        }
        // Replace with garbage of similar length.
        _ => {
            let len = (rng.next_u64() as usize) % (bytes.len() + 16);
            out = (0..len).map(|_| rng.next_u64() as u8).collect();
        }
    }
    out
}

#[test]
fn mutated_request_payloads_decode_to_errors_never_panic() {
    let payloads = request_payloads();
    let mut rng = Rng::seed_from_u64(0xDAC1_9F02);
    let mut decoded_ok = 0usize;
    for round in 0..400 {
        let base = &payloads[round % payloads.len()];
        let mutated = mutate(base, &mut rng);
        // Any Ok/Err outcome is fine; reaching the next line is the test.
        if Request::from_payload(&mutated).is_ok() {
            decoded_ok += 1;
        }
    }
    // Mutations must actually be corrupting most inputs, or the test
    // is vacuous.
    assert!(
        decoded_ok < 200,
        "mutator too gentle: {decoded_ok}/400 still valid"
    );
}

#[test]
fn mutated_response_payloads_decode_to_errors_never_panic() {
    let payloads = [
        Response::Pong.to_payload(),
        Response::Registered { backend_id: 9 }.to_payload(),
        Response::Error {
            message: "queue full".to_string(),
        }
        .to_payload(),
    ];
    let mut rng = Rng::seed_from_u64(0x5EED_CAFE);
    for round in 0..300 {
        let base = &payloads[round % payloads.len()];
        let mutated = mutate(base, &mut rng);
        let _ = Response::from_payload(&mutated);
    }
}

#[test]
fn mutated_frames_read_as_structured_errors_never_panic() {
    let mut frame = Vec::new();
    write_frame(&mut frame, b"{\"type\":\"ping\"}").expect("in-memory write");
    let mut rng = Rng::seed_from_u64(0xF4A3_0001);
    for _ in 0..500 {
        let mutated = mutate(&frame, &mut rng);
        match read_frame(&mutated[..]) {
            Ok(_) => {}
            Err(FrameError::Io(_) | FrameError::Truncated | FrameError::Oversized(_)) => {}
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_not_allocated() {
    // A length prefix past MAX_FRAME_LEN must fail fast instead of
    // attempting a huge allocation.
    let declared = (MAX_FRAME_LEN + 1) as u32;
    let mut bytes = declared.to_be_bytes().to_vec();
    bytes.extend_from_slice(b"tiny");
    match read_frame(&bytes[..]) {
        Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

#[test]
fn truncated_frame_is_truncated_error() {
    let mut frame = Vec::new();
    write_frame(&mut frame, b"0123456789").expect("in-memory write");
    for cut in 1..frame.len() {
        match read_frame(&frame[..cut]) {
            Err(FrameError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}
