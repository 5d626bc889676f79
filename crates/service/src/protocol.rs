//! The service wire protocol: length-prefixed UTF-8 line frames over a
//! Unix-domain socket.
//!
//! # Framing
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! frame := len u32 (little-endian) | payload (len bytes, UTF-8)
//! ```
//!
//! The payload is a single logical line of text (it may contain embedded
//! newlines — a `status` response carries one line per submission inside
//! one frame). Frames are capped at [`MAX_FRAME`] bytes; a peer announcing
//! a larger frame is protocol-broken and the connection is dropped rather
//! than allocating unbounded memory from a hostile or corrupt length.
//!
//! # Requests
//!
//! One frame per request, first token selects the verb:
//!
//! ```text
//! submit <spec>     queue a sweep; <spec> is a SubmitSpec line (spec.rs)
//! status            one-frame report over every known submission
//! watch <id>        subscribe to a submission's progress events
//! cancel <id>       stop a queued or running submission and discard it
//! drain             finish in-flight work, journal it, refuse new
//!                   submissions, and shut the service down
//! ```
//!
//! # Responses
//!
//! Every request is answered by at least one frame whose first token is the
//! outcome:
//!
//! * `ok <body>` — the request succeeded; `<body>` is verb-specific
//!   (`submit` echoes the submission id, `status` carries the report).
//! * `err <message>` — the request failed; the connection stays usable.
//! * `event <id> <detail>` — only while a `watch` is active: one frame per
//!   observed state change (queue position, per-job progress as
//!   `running <done_jobs>/<total_jobs>`, terminal state).
//! * `done <id> <state>` — terminates a `watch` stream; after it the
//!   connection returns to request/response.
//!
//! The protocol is deliberately synchronous per connection: a client sends
//! one request and reads frames until `ok`/`err` (or, for `watch`, until
//! `done`). Concurrency comes from opening more connections, each served by
//! its own thread.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload. Requests and responses are short text
/// lines; even a `status` report over hundreds of submissions fits with
/// orders of magnitude to spare. A length above this means the peer is not
/// speaking this protocol (or the stream is corrupt), and is treated as a
/// connection error instead of an allocation request.
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one frame: little-endian `u32` payload length, then the payload.
///
/// # Errors
///
/// The payload exceeding [`MAX_FRAME`] (an `InvalidInput` error — the
/// frame is never partially written), or any underlying write error.
pub fn write_frame<W: Write>(w: &mut W, line: &str) -> io::Result<()> {
    let payload = line.as_bytes();
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, returning `None` on a clean end-of-stream (the peer
/// closed the connection between frames).
///
/// # Errors
///
/// A truncated frame (EOF mid-length or mid-payload), a length above
/// [`MAX_FRAME`], a payload that is not UTF-8, or any underlying read
/// error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    // Only an EOF before the first length byte is a clean close; one after
    // it is a torn frame, which `read_exact` reports as `UnexpectedEof`.
    let first = loop {
        match r.read(&mut len_bytes[..1]) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    if first == 0 {
        return Ok(None);
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (cap {MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("non-UTF-8 frame: {e}")))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Queue a sweep described by the spec line (see `spec.rs`).
    Submit(String),
    /// Report every known submission.
    Status,
    /// Stream progress events for one submission.
    Watch(String),
    /// Stop (and discard) one submission.
    Cancel(String),
    /// Graceful shutdown: finish in-flight jobs, journal, exit.
    Drain,
}

impl Request {
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown verb or missing operand —
    /// sent back to the client verbatim as an `err` frame.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        let (verb, rest) = match line.split_once(' ') {
            Some((v, r)) => (v, r.trim()),
            None => (line, ""),
        };
        match verb {
            "submit" if !rest.is_empty() => Ok(Request::Submit(rest.to_string())),
            "submit" => Err("submit needs a spec: `submit <spec>`".to_string()),
            "status" => Ok(Request::Status),
            "watch" if !rest.is_empty() => Ok(Request::Watch(rest.to_string())),
            "watch" => Err("watch needs a submission id: `watch <id>`".to_string()),
            "cancel" if !rest.is_empty() => Ok(Request::Cancel(rest.to_string())),
            "cancel" => Err("cancel needs a submission id: `cancel <id>`".to_string()),
            "drain" => Ok(Request::Drain),
            other => Err(format!(
                "unknown request `{other}` (expected submit/status/watch/cancel/drain)"
            )),
        }
    }

    /// The request as the line a client sends (the inverse of
    /// [`Request::parse`]).
    pub fn encode(&self) -> String {
        match self {
            Request::Submit(spec) => format!("submit {spec}"),
            Request::Status => "status".to_string(),
            Request::Watch(id) => format!("watch {id}"),
            Request::Cancel(id) => format!("cancel {id}"),
            Request::Drain => "drain".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "submit v1|config=smoke").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "status\nmulti line").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("submit v1|config=smoke")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("status\nmulti line")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF is None");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        // EOF mid-payload.
        let mut buf = Vec::new();
        write_frame(&mut buf, "status").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = io::Cursor::new(buf);
        assert!(read_frame(&mut r).is_err());

        // Every prefix of a two-frame stream: a cut on a frame boundary
        // reads the complete frames and then a clean end of stream; a cut
        // anywhere else, including inside a length prefix, reads the
        // complete frames and then an error.
        let mut stream = Vec::new();
        write_frame(&mut stream, "status").unwrap();
        let first_end = stream.len();
        write_frame(&mut stream, "watch s1").unwrap();
        let ends = [first_end, stream.len()];
        for cut in 0..=stream.len() {
            let mut r = io::Cursor::new(&stream[..cut]);
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            for expected in ["status", "watch s1"].into_iter().take(complete) {
                assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(expected));
            }
            let tail = read_frame(&mut r);
            if cut == 0 || ends.contains(&cut) {
                assert!(matches!(tail, Ok(None)), "cut {cut}: {tail:?}");
            } else {
                assert!(tail.is_err(), "cut {cut} must be an error: {tail:?}");
            }
        }

        // A hostile length is rejected before allocating.
        let mut r = io::Cursor::new((u32::MAX).to_le_bytes().to_vec());
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Writing an oversized frame refuses up front.
        let huge = "x".repeat(MAX_FRAME + 1);
        let err = write_frame(&mut Vec::new(), &huge).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn requests_parse_and_encode_roundtrip() {
        for req in [
            Request::Submit("v1|config=smoke|workloads=mix".to_string()),
            Request::Status,
            Request::Watch("s0123".to_string()),
            Request::Cancel("s0123".to_string()),
            Request::Drain,
        ] {
            assert_eq!(Request::parse(&req.encode()).as_ref(), Ok(&req));
        }
        assert!(Request::parse("submit").is_err());
        assert!(Request::parse("watch ").is_err());
        assert!(Request::parse("reboot").is_err());
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_read_as_frames_then_end_or_error(
            segments in proptest::collection::vec(
                (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..24)),
                0..6,
            ),
        ) {
            // Each segment is either raw bytes or those bytes framed with a
            // correct length prefix (UTF-8 or not), so streams mix whole
            // frames, torn prefixes, hostile lengths and bad payloads.
            let mut stream = Vec::new();
            for (framed, bytes) in &segments {
                if *framed {
                    stream.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                }
                stream.extend_from_slice(bytes);
            }
            let mut r = io::Cursor::new(&stream);
            let mut frames = 0;
            let end = loop {
                match read_frame(&mut r) {
                    // Every frame consumes at least its 4-byte prefix.
                    Ok(Some(_)) => {
                        frames += 1;
                        prop_assert!(frames * 4 <= stream.len());
                    }
                    end => break end,
                }
            };
            if end.is_ok() {
                prop_assert_eq!(r.position() as usize, stream.len(), "clean end at the end");
            }
        }
    }
}
