//! Bus protocol contract: every message roundtrips byte-identically,
//! and every way a frame can be malformed surfaces as a typed
//! [`BusError`] — never a panic, never an allocation driven by a bogus
//! length prefix.

mod common;

use common::{all_requests, all_responses};
use daemon::proto::{
    decode_frame, encode_frame, read_frame, BusError, Request, Response, Tier, HEADER_BYTES,
    MAGIC, MAX_FRAME_BYTES, VERSION,
};

#[test]
fn every_request_roundtrips_byte_identically() {
    for msg in all_requests() {
        let frame = encode_frame(&msg).expect("encode");
        let back: Request = decode_frame(&frame).expect("decode").expect("one frame");
        assert_eq!(back, msg);
        // Deterministic encoding: re-encoding the decoded message yields
        // the same bytes (vendored serde emits fields in declaration
        // order, so this pins the wire format).
        assert_eq!(encode_frame(&back).expect("re-encode"), frame, "{msg:?}");
    }
}

#[test]
fn every_response_roundtrips_byte_identically() {
    for msg in all_responses() {
        let frame = encode_frame(&msg).expect("encode");
        let back: Response = decode_frame(&frame).expect("decode").expect("one frame");
        assert_eq!(back, msg);
        assert_eq!(encode_frame(&back).expect("re-encode"), frame, "{msg:?}");
    }
}

#[test]
fn frames_concatenate_on_a_stream() {
    let mut stream = Vec::new();
    for msg in all_requests() {
        stream.extend_from_slice(&encode_frame(&msg).expect("encode"));
    }
    let mut reader = &stream[..];
    let mut decoded = Vec::new();
    while let Some(msg) = read_frame::<Request, _>(&mut reader).expect("frame") {
        decoded.push(msg);
    }
    assert_eq!(decoded, all_requests());
}

#[test]
fn empty_stream_is_a_clean_eof() {
    let got: Option<Request> = decode_frame(&[]).expect("clean EOF");
    assert!(got.is_none());
}

#[test]
fn truncated_header_is_typed() {
    let frame = encode_frame(&Request::Ping).expect("encode");
    for cut in 1..HEADER_BYTES {
        match decode_frame::<Request>(&frame[..cut]) {
            Err(BusError::Truncated { needed, got }) => {
                assert_eq!(needed, HEADER_BYTES);
                assert_eq!(got, cut);
            }
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn truncated_payload_is_typed() {
    let frame = encode_frame(&Request::ListSessions).expect("encode");
    let payload_len = frame.len() - HEADER_BYTES;
    let cut = frame.len() - 3;
    match decode_frame::<Request>(&frame[..cut]) {
        Err(BusError::Truncated { needed, got }) => {
            assert_eq!(needed, payload_len);
            assert_eq!(got, payload_len - 3);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_typed() {
    let mut frame = encode_frame(&Request::Ping).expect("encode");
    frame[0] ^= 0xff;
    match decode_frame::<Request>(&frame) {
        Err(BusError::BadMagic { found }) => assert_ne!(found, MAGIC),
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn unknown_version_is_typed() {
    let mut frame = encode_frame(&Request::Ping).expect("encode");
    frame[4] = 0x63;
    frame[5] = 0;
    match decode_frame::<Request>(&frame) {
        Err(BusError::BadVersion { found }) => assert_eq!(found, 99),
        other => panic!("expected BadVersion, got {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&u32::MAX.to_le_bytes()); // 4 GiB claim
    match decode_frame::<Request>(&frame) {
        Err(BusError::FrameTooLarge { len }) => assert!(len > MAX_FRAME_BYTES),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
}

/// A valid frame around an arbitrary payload, for malformed-payload cases.
fn frame_around(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

#[test]
fn unknown_message_tag_is_a_decode_error() {
    for payload in [
        br#""NotARequest""#.as_slice(),
        br#"{"NotARequest":{"x":1}}"#.as_slice(),
        br#"{"GetSeries":{"metric":"dl_mbps"}}"#.as_slice(), // missing fields
        br#"42"#.as_slice(),
    ] {
        match decode_frame::<Request>(&frame_around(payload)) {
            Err(BusError::Decode { .. }) => {}
            other => panic!("payload {payload:?}: expected Decode, got {other:?}"),
        }
    }
}

#[test]
fn non_utf8_and_non_json_payloads_are_decode_errors() {
    for payload in [&[0xff, 0xfe, 0x00][..], b"{not json"] {
        match decode_frame::<Request>(&frame_around(payload)) {
            Err(BusError::Decode { .. }) => {}
            other => panic!("expected Decode, got {other:?}"),
        }
    }
}

#[test]
fn tier_variants_are_distinguishable_on_the_wire() {
    let encodings: Vec<Vec<u8>> = [Tier::Raw, Tier::Seconds, Tier::Minutes]
        .iter()
        .map(|t| {
            encode_frame(&Request::GetSeries {
                metric: "cqi".to_string(),
                tier: *t,
                last: 1,
            })
            .expect("encode")
        })
        .collect();
    assert_ne!(encodings[0], encodings[1]);
    assert_ne!(encodings[1], encodings[2]);
}
