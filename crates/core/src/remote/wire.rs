//! The hand-rolled wire protocol: length-prefixed frames over `std::net`.
//!
//! The environment is offline, so there is no serde and no protobuf — every
//! message is a tag byte followed by fixed-layout little-endian fields,
//! wrapped in a `u32` length prefix.  Two rules keep the protocol honest:
//!
//! * **f64s travel as `to_bits` words**, exactly like
//!   `pagani-persist::Snapshot`'s JSON encoding, so an estimate computed on a
//!   remote worker round-trips to the front-end bit-exactly (pinned
//!   invariant 9, wire transparency).
//! * **Integrands travel by registry name** — the same identity scheme as
//!   [`pagani_persist::CacheKey`] — never by value; both ends must agree on
//!   an [`crate::remote::IntegrandRegistry`].
//!
//! The handshake is versioned: the front-end opens with
//! [`Message::Hello`], the worker answers [`Message::HelloAck`] (carrying its
//! capacity so the front-end can plan slab splitting) or
//! [`Message::HelloReject`] on a version mismatch.

use std::io::{Read, Write};

use pagani_quadrature::Termination;

use crate::service::Priority;

/// Version of the wire protocol spoken by this build.  Bumped on any frame
/// layout change; a mismatch is refused at the handshake.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a single frame's payload (64 MiB) — a corrupt or hostile
/// length prefix must not make a reader allocate unbounded memory.
const MAX_FRAME_BYTES: usize = 64 << 20;

/// Sentinel for "no deadline" in [`Message::Submit::deadline_micros`].
pub(crate) const NO_DEADLINE: u64 = u64::MAX;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The frame decoded to nonsense: unknown tag, truncated field, invalid
    /// UTF-8.
    Corrupt(&'static str),
    /// The length prefix exceeded the frame bound.
    TooLarge(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "wire i/o error: {err}"),
            WireError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
            WireError::TooLarge(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        WireError::Io(err)
    }
}

/// One protocol message.  See the [`crate::remote`] module docs for the framing and
/// encoding rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Front-end → worker: open a connection.
    Hello {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Worker → front-end: connection accepted.
    HelloAck {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
        /// The worker device's memory capacity in bytes (drives the
        /// front-end's slab-splitting admission).
        memory_capacity: u64,
        /// Worker threads serving the remote service (drives load
        /// normalisation in dispatch).
        workers: u32,
    },
    /// Worker → front-end: connection refused (version mismatch).
    HelloReject {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
        /// Human-readable refusal reason.
        message: String,
    },
    /// Front-end → worker: run a job.
    Submit {
        /// Front-end-assigned job identifier, echoed in the reply.
        job_id: u64,
        /// Registry name of the integrand ([`pagani_quadrature::Integrand::name`]).
        integrand: String,
        /// Dimensionality of the region (sanity-checked against the registry
        /// entry on the worker).
        dim: u32,
        /// Region lower bounds, `f64::to_bits` per axis.
        lo_bits: Vec<u64>,
        /// Region upper bounds, `f64::to_bits` per axis.
        hi_bits: Vec<u64>,
        /// Scheduling priority tag (0 = low, 1 = normal, 2 = high).
        priority: u8,
        /// Deadline in microseconds from submission, `u64::MAX` for
        /// none.
        deadline_micros: u64,
        /// Optional warm-start snapshot (the persist layer's JSON encoding,
        /// f64s already `to_bits` inside) from a previous partial run.
        snapshot_json: Option<String>,
    },
    /// Worker → front-end: a job finished.  All f64s as `to_bits`.
    JobDone {
        /// Echoed job identifier.
        job_id: u64,
        /// `estimate.to_bits()`.
        estimate_bits: u64,
        /// `error_estimate.to_bits()`.
        error_bits: u64,
        /// Termination tag (converged, max-iterations, memory-exhausted, cancelled).
        termination: u8,
        /// Outer iterations executed.
        iterations: u64,
        /// Total integrand evaluations.
        function_evaluations: u64,
        /// Total sub-regions ever created.
        regions_generated: u64,
        /// Regions still active at termination.
        active_regions_final: u64,
        /// Wall-clock time on the worker, microseconds.
        wall_micros: u64,
        /// Partial-progress snapshot for cancelled / memory-exhausted runs,
        /// so the front-end can resume the job elsewhere.
        snapshot_json: Option<String>,
    },
    /// Worker → front-end: a job could not run (unknown integrand, dimension
    /// mismatch, or it panicked).
    JobFailed {
        /// Echoed job identifier.
        job_id: u64,
        /// What went wrong.
        message: String,
    },
    /// Front-end → worker: cancel an in-flight job cooperatively.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Front-end → worker: liveness probe.
    Heartbeat {
        /// Monotonic probe sequence number.
        seq: u64,
    },
    /// Worker → front-end: liveness answer.
    HeartbeatAck {
        /// Echoed sequence number.
        seq: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_HELLO_REJECT: u8 = 3;
const TAG_SUBMIT: u8 = 4;
const TAG_JOB_DONE: u8 = 5;
const TAG_JOB_FAILED: u8 = 6;
const TAG_CANCEL: u8 = 7;
const TAG_HEARTBEAT: u8 = 8;
const TAG_HEARTBEAT_ACK: u8 = 9;

/// Map a [`Priority`] to its wire tag.
#[must_use]
pub(crate) fn priority_to_tag(priority: Priority) -> u8 {
    match priority {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
    }
}

/// Map a wire tag back to a [`Priority`].
pub(crate) fn tag_to_priority(tag: u8) -> Result<Priority, WireError> {
    match tag {
        0 => Ok(Priority::Low),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::High),
        _ => Err(WireError::Corrupt("unknown priority tag")),
    }
}

/// Map a [`Termination`] to its wire tag.
#[must_use]
pub(crate) fn termination_to_tag(termination: Termination) -> u8 {
    match termination {
        Termination::Converged => 0,
        Termination::MaxIterations => 1,
        Termination::MaxEvaluations => 2,
        Termination::MemoryExhausted => 3,
        Termination::Cancelled => 4,
    }
}

/// Map a wire tag back to a [`Termination`].
pub(crate) fn tag_to_termination(tag: u8) -> Result<Termination, WireError> {
    match tag {
        0 => Ok(Termination::Converged),
        1 => Ok(Termination::MaxIterations),
        2 => Ok(Termination::MaxEvaluations),
        3 => Ok(Termination::MemoryExhausted),
        4 => Ok(Termination::Cancelled),
        _ => Err(WireError::Corrupt("unknown termination tag")),
    }
}

// ---- encoding -------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string fits a frame"));
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&String>) {
    match s {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
    }
}

fn put_u64s(buf: &mut Vec<u8>, vs: &[u64]) {
    put_u32(buf, u32::try_from(vs.len()).expect("vector fits a frame"));
    for &v in vs {
        put_u64(buf, v);
    }
}

// ---- decoding -------------------------------------------------------------

struct Decoder<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Corrupt("truncated field"))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Corrupt("invalid UTF-8 string"))
    }

    fn opt_string(&mut self) -> Result<Option<String>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.string()?)),
            _ => Err(WireError::Corrupt("invalid option flag")),
        }
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let count = self.u32()? as usize;
        if count > MAX_FRAME_BYTES / 8 {
            return Err(WireError::Corrupt("vector length exceeds frame bound"));
        }
        (0..count).map(|_| self.u64()).collect()
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes after message"))
        }
    }
}

impl Message {
    /// Encode this message as one payload (tag + fields, no length prefix).
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Message::Hello { version } => {
                put_u8(&mut buf, TAG_HELLO);
                put_u32(&mut buf, *version);
            }
            Message::HelloAck {
                version,
                memory_capacity,
                workers,
            } => {
                put_u8(&mut buf, TAG_HELLO_ACK);
                put_u32(&mut buf, *version);
                put_u64(&mut buf, *memory_capacity);
                put_u32(&mut buf, *workers);
            }
            Message::HelloReject { version, message } => {
                put_u8(&mut buf, TAG_HELLO_REJECT);
                put_u32(&mut buf, *version);
                put_str(&mut buf, message);
            }
            Message::Submit {
                job_id,
                integrand,
                dim,
                lo_bits,
                hi_bits,
                priority,
                deadline_micros,
                snapshot_json,
            } => {
                put_u8(&mut buf, TAG_SUBMIT);
                put_u64(&mut buf, *job_id);
                put_str(&mut buf, integrand);
                put_u32(&mut buf, *dim);
                put_u64s(&mut buf, lo_bits);
                put_u64s(&mut buf, hi_bits);
                put_u8(&mut buf, *priority);
                put_u64(&mut buf, *deadline_micros);
                put_opt_str(&mut buf, snapshot_json.as_ref());
            }
            Message::JobDone {
                job_id,
                estimate_bits,
                error_bits,
                termination,
                iterations,
                function_evaluations,
                regions_generated,
                active_regions_final,
                wall_micros,
                snapshot_json,
            } => {
                put_u8(&mut buf, TAG_JOB_DONE);
                put_u64(&mut buf, *job_id);
                put_u64(&mut buf, *estimate_bits);
                put_u64(&mut buf, *error_bits);
                put_u8(&mut buf, *termination);
                put_u64(&mut buf, *iterations);
                put_u64(&mut buf, *function_evaluations);
                put_u64(&mut buf, *regions_generated);
                put_u64(&mut buf, *active_regions_final);
                put_u64(&mut buf, *wall_micros);
                put_opt_str(&mut buf, snapshot_json.as_ref());
            }
            Message::JobFailed { job_id, message } => {
                put_u8(&mut buf, TAG_JOB_FAILED);
                put_u64(&mut buf, *job_id);
                put_str(&mut buf, message);
            }
            Message::Cancel { job_id } => {
                put_u8(&mut buf, TAG_CANCEL);
                put_u64(&mut buf, *job_id);
            }
            Message::Heartbeat { seq } => {
                put_u8(&mut buf, TAG_HEARTBEAT);
                put_u64(&mut buf, *seq);
            }
            Message::HeartbeatAck { seq } => {
                put_u8(&mut buf, TAG_HEARTBEAT_ACK);
                put_u64(&mut buf, *seq);
            }
        }
        buf
    }

    /// Decode one payload (tag + fields, no length prefix).
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut d = Decoder::new(bytes);
        let message = match d.u8()? {
            TAG_HELLO => Message::Hello { version: d.u32()? },
            TAG_HELLO_ACK => Message::HelloAck {
                version: d.u32()?,
                memory_capacity: d.u64()?,
                workers: d.u32()?,
            },
            TAG_HELLO_REJECT => Message::HelloReject {
                version: d.u32()?,
                message: d.string()?,
            },
            TAG_SUBMIT => Message::Submit {
                job_id: d.u64()?,
                integrand: d.string()?,
                dim: d.u32()?,
                lo_bits: d.u64s()?,
                hi_bits: d.u64s()?,
                priority: d.u8()?,
                deadline_micros: d.u64()?,
                snapshot_json: d.opt_string()?,
            },
            TAG_JOB_DONE => Message::JobDone {
                job_id: d.u64()?,
                estimate_bits: d.u64()?,
                error_bits: d.u64()?,
                termination: d.u8()?,
                iterations: d.u64()?,
                function_evaluations: d.u64()?,
                regions_generated: d.u64()?,
                active_regions_final: d.u64()?,
                wall_micros: d.u64()?,
                snapshot_json: d.opt_string()?,
            },
            TAG_JOB_FAILED => Message::JobFailed {
                job_id: d.u64()?,
                message: d.string()?,
            },
            TAG_CANCEL => Message::Cancel { job_id: d.u64()? },
            TAG_HEARTBEAT => Message::Heartbeat { seq: d.u64()? },
            TAG_HEARTBEAT_ACK => Message::HeartbeatAck { seq: d.u64()? },
            _ => return Err(WireError::Corrupt("unknown message tag")),
        };
        d.finish()?;
        Ok(message)
    }

    /// Write this message as one length-prefixed frame and flush.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        let payload = self.encode();
        debug_assert!(payload.len() <= MAX_FRAME_BYTES, "oversized outbound frame");
        let len = u32::try_from(payload.len()).expect("payload fits a u32 prefix");
        writer.write_all(&len.to_le_bytes())?;
        writer.write_all(&payload)?;
        writer.flush()
    }

    /// Read one length-prefixed frame and decode it.
    ///
    /// # Errors
    /// [`WireError::Io`] on socket failure or EOF, [`WireError::TooLarge`]
    /// on a length prefix past the frame bound, [`WireError::Corrupt`] on a
    /// malformed payload.
    pub fn read_from(reader: &mut impl Read) -> Result<Self, WireError> {
        let mut prefix = [0u8; 4];
        reader.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge(len));
        }
        let mut payload = vec![0u8; len];
        reader.read_exact(&mut payload)?;
        Self::decode(&payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Round-trip `message` through one frame, then feed the decoder every
    /// strict prefix of the frame (each must be refused) and the frame with
    /// each byte overwritten by every value (none may panic).
    fn round_trip(message: Message) {
        let mut frame = Vec::new();
        message.write_to(&mut frame).unwrap();
        let decoded = Message::read_from(&mut frame.as_slice()).unwrap();
        assert_eq!(decoded, message);
        for cut in 0..frame.len() {
            assert!(Message::read_from(&mut &frame[..cut]).is_err(), "cut {cut}");
        }
        for (at, byte) in (0..frame.len()).flat_map(|at| (0..=255u8).map(move |b| (at, b))) {
            let mut hostile = frame.clone();
            hostile[at] = byte;
            let _ = Message::read_from(&mut hostile.as_slice());
        }
    }

    #[test]
    fn every_message_round_trips_bit_exactly() {
        round_trip(Message::Hello {
            version: PROTOCOL_VERSION,
        });
        round_trip(Message::HelloAck {
            version: PROTOCOL_VERSION,
            memory_capacity: 8 << 20,
            workers: 8,
        });
        round_trip(Message::HelloReject {
            version: 99,
            message: "speak v1".into(),
        });
        round_trip(Message::Submit {
            job_id: 42,
            integrand: "oscillatory-5d".into(),
            dim: 5,
            lo_bits: vec![0.0f64.to_bits(); 5],
            hi_bits: vec![1.0f64.to_bits(); 5],
            priority: priority_to_tag(Priority::High),
            deadline_micros: 1_500_000,
            snapshot_json: Some("{\"format\":\"pagani-snapshot\"}".into()),
        });
        round_trip(Message::JobDone {
            job_id: 42,
            estimate_bits: std::f64::consts::PI.to_bits(),
            error_bits: 1e-7f64.to_bits(),
            termination: termination_to_tag(Termination::Converged),
            iterations: 12,
            function_evaluations: 1 << 20,
            regions_generated: 1 << 16,
            active_regions_final: 0,
            wall_micros: 250_000,
            snapshot_json: None,
        });
        round_trip(Message::JobFailed {
            job_id: 7,
            message: "unknown integrand".into(),
        });
        round_trip(Message::Cancel { job_id: 42 });
        round_trip(Message::Heartbeat { seq: 3 });
        round_trip(Message::HeartbeatAck { seq: 3 });
    }

    #[test]
    fn f64_payloads_survive_as_exact_bits() {
        // The awkward values: negative zero, subnormals, NaN payloads.
        for value in [
            -0.0f64,
            f64::MIN_POSITIVE / 2.0,
            f64::NAN,
            1.0 + f64::EPSILON,
        ] {
            let message = Message::JobDone {
                job_id: 0,
                estimate_bits: value.to_bits(),
                error_bits: (-value).to_bits(),
                termination: 0,
                iterations: 0,
                function_evaluations: 0,
                regions_generated: 0,
                active_regions_final: 0,
                wall_micros: 0,
                snapshot_json: None,
            };
            let mut frame = Vec::new();
            message.write_to(&mut frame).unwrap();
            let Message::JobDone {
                estimate_bits,
                error_bits,
                ..
            } = Message::read_from(&mut frame.as_slice()).unwrap()
            else {
                panic!("tag changed in flight");
            };
            assert_eq!(estimate_bits, value.to_bits());
            assert_eq!(error_bits, (-value).to_bits());
        }
    }

    #[test]
    fn corrupt_frames_are_refused_not_trusted() {
        // Unknown tag.
        let mut frame = Vec::new();
        Message::Cancel { job_id: 1 }.write_to(&mut frame).unwrap();
        frame[4] = 0xFF;
        assert!(matches!(
            Message::read_from(&mut frame.as_slice()),
            Err(WireError::Corrupt(_))
        ));
        // Oversized length prefix.
        let huge = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        assert!(matches!(
            Message::read_from(&mut huge.as_slice()),
            Err(WireError::TooLarge(_))
        ));
        // Truncated payload is an Io error (read_exact hits EOF).
        let mut short = Vec::new();
        Message::Heartbeat { seq: 9 }.write_to(&mut short).unwrap();
        short.truncate(short.len() - 2);
        assert!(matches!(
            Message::read_from(&mut short.as_slice()),
            Err(WireError::Io(_))
        ));
        // Trailing garbage after a valid message.
        let mut padded = Vec::new();
        Message::Heartbeat { seq: 9 }.write_to(&mut padded).unwrap();
        let len = (padded.len() - 4 + 3) as u32;
        padded.splice(0..4, len.to_le_bytes());
        padded.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            Message::read_from(&mut padded.as_slice()),
            Err(WireError::Corrupt("trailing bytes after message"))
        ));
    }

    #[test]
    fn priority_and_termination_tags_are_total() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(tag_to_priority(priority_to_tag(p)).unwrap(), p);
        }
        for t in [
            Termination::Converged,
            Termination::MaxIterations,
            Termination::MaxEvaluations,
            Termination::MemoryExhausted,
            Termination::Cancelled,
        ] {
            assert_eq!(tag_to_termination(termination_to_tag(t)).unwrap(), t);
        }
        assert!(tag_to_priority(3).is_err());
        assert!(tag_to_termination(5).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Decoding never panics on a random payload behind a valid length
        /// prefix, its tag byte mostly a known one so the field decoders run.
        #[test]
        fn prop_the_decoder_never_panics_on_random_payloads(
            tag in 0u8..12,
            payload in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            let mut frame = (payload.len() as u32 + 1).to_le_bytes().to_vec();
            frame.push(tag);
            frame.extend_from_slice(&payload);
            let _ = Message::read_from(&mut frame.as_slice());
        }
    }
}
