//! Property tests for the wire protocol's failure surface: arbitrary
//! and malformed bytes fed through the bounded [`FrameBuffer`] and the
//! versioned request decoder must never panic, never emit a spurious
//! request, and must behave identically regardless of how the byte
//! stream is chunked (TCP segmentation must not change protocol
//! behavior). The version field in particular is fuzzed: any `v` other
//! than `1` must produce a *typed* rejection, never a panic.

use mcds_serve::{
    decode_request, ErrorCode, FrameBuffer, FrameError, QosClass, RequestError, ScheduleSpec,
    ServeRequest, ServeResponse,
};
use proptest::prelude::*;

/// Drains every frame decision (frames and typed errors) out of a
/// buffer, bounded so a test can never loop forever.
fn drain(frames: &mut FrameBuffer) -> Vec<Result<String, FrameError>> {
    let mut out = Vec::new();
    for _ in 0..10_000 {
        match frames.next_frame() {
            Ok(Some(frame)) => out.push(Ok(frame.to_owned())),
            Ok(None) => break,
            Err(e) => {
                out.push(Err(e));
                // Oversized leaves the frame boundary unknown — the
                // server drops the connection there, so stop too.
                if matches!(out.last(), Some(Err(FrameError::Oversized { .. }))) {
                    break;
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, arbitrary chunking: the frame buffer never
    /// panics, every decoded frame is newline-free, and every failure
    /// is one of the two typed errors.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_buffer(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        chunk in 1usize..64,
        max in 1usize..256,
    ) {
        let mut frames = FrameBuffer::new(max);
        let mut decisions = Vec::new();
        for piece in bytes.chunks(chunk) {
            frames.extend(piece);
            decisions.extend(drain(&mut frames));
        }
        for d in &decisions {
            match d {
                Ok(frame) => {
                    prop_assert!(!frame.contains('\n'), "frames are newline-stripped");
                    prop_assert!(frame.len() <= bytes.len());
                }
                Err(FrameError::Oversized { limit }) => prop_assert_eq!(*limit, max),
                Err(_) => {}
            }
        }
        // An Oversized error only fires past the limit; anything still
        // buffered below the limit is an incomplete frame, not an error.
        if !decisions.iter().any(|d| matches!(d, Err(FrameError::Oversized { .. }))) {
            prop_assert!(frames.len() <= max);
        }
    }

    /// Chunking-invariance: delivering the same bytes one-at-a-time or
    /// all-at-once yields the identical frame/error sequence, so the
    /// fault behavior of a connection cannot depend on TCP segmentation.
    #[test]
    fn frame_decisions_are_chunking_invariant(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        chunk in 1usize..48,
    ) {
        let mut whole = FrameBuffer::new(64);
        whole.extend(&bytes);
        let mut expected = drain(&mut whole);

        let mut split = FrameBuffer::new(64);
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            split.extend(piece);
            got.extend(drain(&mut split));
        }
        // The all-at-once drain stops at the first Oversized (lost
        // boundary); incremental delivery can surface frames before
        // hitting it, but the prefix up to that point must agree.
        let cut = expected
            .iter()
            .position(|d| matches!(d, Err(FrameError::Oversized { .. })))
            .map_or(expected.len(), |i| i + 1);
        expected.truncate(cut);
        got.truncate(cut);
        prop_assert_eq!(got, expected);
    }

    /// Decoding arbitrary frames never panics, and garbage never yields
    /// a well-formed request by accident: every failure is one of the
    /// typed [`RequestError`]s.
    #[test]
    fn malformed_frames_never_parse_to_spurious_requests(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        match decode_request(&text) {
            // Random bytes essentially never form valid JSON with a
            // `verb` member — but if they do, the parse is honest, so
            // only assert the non-JSON case.
            Ok(_) => prop_assert!(text.trim_start().starts_with('{')),
            Err(
                RequestError::Malformed(_)
                | RequestError::UnsupportedVersion { .. }
                | RequestError::Unversioned,
            ) => {}
            Err(other) => panic!("untyped failure: {other:?}"),
        }
    }

    /// The version field never panics the decoder, whatever JSON value
    /// it holds: only `1` decodes, `null` and any other integer are a
    /// typed `unsupported_version`, and any other non-integer is a typed
    /// `bad_request` — all without reading the rest of the frame.
    #[test]
    fn version_field_fuzzing_yields_typed_decisions(
        version_json in prop_oneof![
            Just("1".to_owned()),
            Just("null".to_owned()),
            any::<u64>().prop_map(|v| v.to_string()),
            any::<i64>().prop_map(|v| v.to_string()),
            any::<f64>().prop_map(|v| format!("{v:?}")),
            any::<u32>().prop_map(|v| format!("\"s{v}\"")),
            Just("[1]".to_owned()),
            Just("{\"major\":1}".to_owned()),
            Just("true".to_owned()),
        ],
    ) {
        let line = format!(r#"{{"v":{version_json},"verb":"ping"}}"#);
        match decode_request(&line) {
            Ok(request) => {
                prop_assert_eq!(request, ServeRequest::Ping);
                prop_assert_eq!(version_json, "1", "only v1 may decode");
            }
            Err(RequestError::UnsupportedVersion { got }) => {
                prop_assert!(got != 1, "v1 must never be rejected");
                prop_assert_eq!(got.to_string(), version_json);
            }
            Err(RequestError::Unversioned) => prop_assert_eq!(version_json, "null"),
            Err(RequestError::Malformed(_)) => {
                prop_assert!(version_json != "1" && version_json != "null");
            }
            Err(other) => panic!("untyped failure: {other:?}"),
        }
    }

    /// The typed error code of a version rejection survives the full
    /// wire round-trip: server-side encode → client-side decode keeps
    /// the machine-readable code intact.
    #[test]
    fn unsupported_version_code_roundtrips(got in 2u64..1_000_000) {
        let line = format!(r#"{{"v":{got},"verb":"stats"}}"#);
        let result = decode_request(&line);
        prop_assert!(result.is_err(), "future version must not decode");
        prop_assert_eq!(result.unwrap_err().code(), ErrorCode::UnsupportedVersion);
    }

    /// QoS lane resolution is total over class *strings*: the three
    /// known names map to their lanes, and every other string degrades
    /// to the standard lane rather than an error, so a newer client's
    /// future class name can never get its request rejected by an older
    /// server. Without `v` the same frame is refused for its version,
    /// whatever its class.
    #[test]
    fn any_class_string_resolves_to_a_lane(
        name in prop_oneof![
            Just("priority".to_owned()),
            Just("standard".to_owned()),
            Just("batch".to_owned()),
            any::<u32>().prop_map(|v| format!("lane-{v}")),
            Just(String::new()),
            Just("PRIORITY".to_owned()), // case-sensitive: unknown
        ],
        versioned in any::<bool>(),
    ) {
        let v = if versioned { r#""v":1,"# } else { "" };
        let line = format!(r#"{{{v}"verb":"schedule","workload":"e1","class":"{name}"}}"#);
        match decode_request(&line) {
            Ok(ServeRequest::Schedule(spec)) if versioned => match QosClass::from_wire(&name) {
                Some(known) => prop_assert_eq!(spec.qos(), known),
                None => prop_assert_eq!(spec.qos(), QosClass::Standard),
            },
            Err(err) if !versioned => prop_assert_eq!(err.code(), ErrorCode::UnsupportedVersion),
            other => panic!("versioned {versioned}: {other:?}"),
        }
    }

    /// Frames that omit `class` entirely (the whole pre-lane installed
    /// base) land on the standard lane with no error, whatever else the
    /// spec carries; without `v` they are refused for their version.
    #[test]
    fn absent_class_is_standard_on_every_frame_shape(
        iterations in prop_oneof![Just(None), (1u64..64).prop_map(Some)],
        deadline in prop_oneof![Just(None), (1u64..10_000).prop_map(Some)],
        versioned in any::<bool>(),
    ) {
        let v = if versioned { r#""v":1,"# } else { "" };
        let mut body = format!(r#"{{{v}"verb":"schedule","workload":"e1""#);
        if let Some(i) = iterations {
            body.push_str(&format!(r#","iterations":{i}"#));
        }
        if let Some(d) = deadline {
            body.push_str(&format!(r#","deadline_ms":{d}"#));
        }
        body.push('}');
        match decode_request(&body) {
            Ok(ServeRequest::Schedule(spec)) if versioned => {
                prop_assert_eq!(spec.class, None, "no class is invented");
                prop_assert_eq!(spec.qos(), QosClass::Standard);
            }
            Err(err) if !versioned => prop_assert_eq!(err.code(), ErrorCode::UnsupportedVersion),
            other => panic!("versioned {versioned}: {other:?}"),
        }
    }

    /// A wrong-*typed* `class` field (number, bool, array, object —
    /// anything but a string or null) is a typed `bad_request`, never a
    /// panic and never a silently-defaulted lane.
    #[test]
    fn wrong_typed_class_fields_are_typed_bad_requests(
        value in prop_oneof![
            any::<u64>().prop_map(|v| v.to_string()),
            any::<i64>().prop_map(|v| v.to_string()),
            any::<bool>().prop_map(|v| v.to_string()),
            Just("[\"priority\"]".to_owned()),
            Just("{\"lane\":\"priority\"}".to_owned()),
            Just("3.5".to_owned()),
        ],
    ) {
        let line = format!(r#"{{"v":1,"verb":"schedule","workload":"e1","class":{value}}}"#);
        let err = decode_request(&line).expect_err("a wrong-typed class must not decode");
        prop_assert!(matches!(err, RequestError::Malformed(_)), "typed rejection: {:?}", err);
        prop_assert_eq!(err.code(), ErrorCode::BadRequest);
    }

    /// Truncating a *valid* v1 request frame at any byte boundary must
    /// never decode as a request (so a mid-frame disconnect can never
    /// be mistaken for a shorter valid request), and truncated
    /// responses never decode at all (so a client never trusts a torn
    /// frame).
    #[test]
    fn truncated_valid_frames_never_parse(cut_seed in any::<u64>()) {
        let spec = ScheduleSpec {
            iterations: Some(16),
            fb_kw: Some(8),
            ..ScheduleSpec::workload("e1")
        };
        let request_json = ServeRequest::Schedule(spec).encode();
        let cut = 1 + (cut_seed as usize) % (request_json.len() - 1);
        prop_assert!(
            decode_request(&request_json[..cut]).is_err(),
            "truncated request parsed at cut {}",
            cut
        );

        let response_json = ServeResponse::Pong { latency_us: 17 }.encode();
        let cut = 1 + (cut_seed as usize) % (response_json.len() - 1);
        prop_assert!(
            ServeResponse::decode(&response_json[..cut]).is_err(),
            "torn response frame decoded at cut {}",
            cut
        );
    }
}
