//! In-memory spans for the traced run, written out when the run ends.
//!
//! Each client thread owns one [`SpanLog`]; no span crosses threads, so
//! recording takes no lock.  A span is a name, a start and an end relative
//! to the run's epoch, the index of its parent span in the same log, and the
//! job it belongs to.  Logs stop storing spans at a fixed cap (counting the
//! rest) so a million-request run cannot grow the benchmark's own memory.

use std::io::Write;
use std::time::Instant;

/// Spans one log stores before it only counts.
const SPANS_PER_LOG: usize = 50_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed, e.g. `service.try_submit`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<u32>,
    /// The job (or probe) the span belongs to.
    pub job: u64,
}

/// One thread's spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Which log this is, to keep parent indices unambiguous in the output.
    log_id: usize,
    spans: Vec<Span>,
    dropped: u64,
}

/// Handle of a recorded span, for parenting children; `None` when the span
/// was counted but not stored.
pub type SpanId = Option<u32>;

impl SpanLog {
    /// An empty log whose times count from `epoch`.
    pub fn new(epoch: Instant, log_id: usize) -> Self {
        Self {
            epoch,
            log_id,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        job: u64,
    ) -> SpanId {
        if self.spans.len() >= SPANS_PER_LOG {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            parent,
            job,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Spans stored plus spans only counted.
    pub fn total(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Append this log as JSON lines to `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"log\":{},\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                self.log_id, span.name, span.start_ns, span.end_ns, span.job
            )?;
        }
        if self.dropped > 0 {
            writeln!(
                out,
                "{{\"log\":{},\"dropped_spans\":{}}}",
                self.log_id, self.dropped
            )?;
        }
        Ok(())
    }
}
