//! Streaming JSONL trace record/replay.
//!
//! A trace file is line-oriented JSON:
//!
//! * **line 1** — a [`TraceHeader`]: format tag, version, the substrate the
//!   trace was recorded from, its metric set, tick period and host spec;
//! * **every further line** — one [`Observation`], in tick order.
//!
//! The format is versioned: readers accept any header whose `version` is
//! at most [`TRACE_VERSION`] (newer minor revisions must stay
//! backwards-readable; a breaking change bumps the version and old readers
//! reject it with [`TelemetryError::UnsupportedVersion`] instead of
//! misdecoding). Decode failures — a line that is not UTF-8 included —
//! carry the 1-based line number of the offending line so hand-edited
//! traces fail debuggably. The header line goes through `serde_json` once
//! per file; observation lines go through [`crate::codec`].
//!
//! [`TraceWriter`] appends to any [`Write`]; [`RecordingSource`] tees it
//! around any other [`ObservationSource`] so a live run records itself;
//! [`TraceSource`] streams a trace back as an open-loop source.

use crate::codec::{decode_observation_into, encode_observation};
use crate::observation::{Action, Observation};
use crate::run::{RequestQos, TickRecord};
use crate::source::{ObservationSource, SourceKind, SourceMeta};
use crate::{HostSpec, ResourceKind, TelemetryError};
use serde::{Deserialize, Serialize};
use stayaway_obs::{Counter, MetricsRegistry};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Magic format tag of the header line.
pub const TRACE_FORMAT: &str = "stayaway-trace";

/// Newest trace version this build reads and the version it writes.
pub const TRACE_VERSION: u32 = 1;

/// First line of every trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Format magic; always [`TRACE_FORMAT`].
    pub format: String,
    /// Trace format version; see the module docs for the versioning rules.
    pub version: u32,
    /// The substrate the trace was recorded from.
    pub recorded_from: SourceKind,
    /// The metric set the recording source reported.
    pub metrics: Vec<ResourceKind>,
    /// Declared control-period length of the recording source, in seconds.
    pub tick_period_secs: f64,
    /// Host capacities of the recorded host, when known.
    pub host: Option<HostSpec>,
}

impl TraceHeader {
    /// Builds the header describing a recording of `meta`.
    pub fn for_meta(meta: &SourceMeta) -> Self {
        TraceHeader {
            format: TRACE_FORMAT.to_string(),
            version: TRACE_VERSION,
            recorded_from: meta.kind,
            metrics: meta.metrics.clone(),
            tick_period_secs: meta.tick_period_secs,
            host: meta.host,
        }
    }

    /// Checks the format tag and version.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MissingHeader`] for a foreign format tag,
    /// [`TelemetryError::UnsupportedVersion`] for a version this build
    /// cannot read.
    pub fn validate(&self) -> Result<(), TelemetryError> {
        if self.format != TRACE_FORMAT {
            return Err(TelemetryError::MissingHeader {
                reason: format!("format tag {:?} is not {TRACE_FORMAT:?}", self.format),
            });
        }
        if self.version == 0 || self.version > TRACE_VERSION {
            return Err(TelemetryError::UnsupportedVersion {
                found: self.version,
                supported: TRACE_VERSION,
            });
        }
        Ok(())
    }

    /// The source metadata a replay of this trace advertises.
    pub fn replay_meta(&self) -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Trace,
            metrics: self.metrics.clone(),
            tick_period_secs: self.tick_period_secs,
            host: self.host,
        }
    }
}

/// Appends a versioned trace to any byte sink, one JSON line per tick.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    observations: u64,
    /// The line being written, kept across ticks so a steady recording
    /// allocates nothing per observation.
    line: String,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace describing `meta` by writing the header line.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Io`] when the sink fails.
    pub fn new(mut out: W, meta: &SourceMeta) -> Result<Self, TelemetryError> {
        let header = TraceHeader::for_meta(meta);
        let line = serde_json::to_string(&header).map_err(|e| TelemetryError::Codec {
            line: 1,
            reason: e.to_string(),
        })?;
        writeln!(out, "{line}")?;
        Ok(TraceWriter {
            out,
            observations: 0,
            line: String::new(),
        })
    }

    /// Appends one observation line.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Io`] when the sink fails, or
    /// [`TelemetryError::Codec`] when the observation contains a
    /// non-finite float — JSON has no representation for those, so writing
    /// one would produce a trace the reader must reject.
    pub fn record(&mut self, observation: &Observation) -> Result<(), TelemetryError> {
        if let Some(reason) = non_finite_field(observation) {
            return Err(TelemetryError::Codec {
                line: self.observations + 2,
                reason,
            });
        }
        self.line.clear();
        encode_observation(&mut self.line, observation);
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        self.observations += 1;
        Ok(())
    }

    /// Number of observation lines written so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Flushes and returns the underlying sink.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Io`] when the flush fails.
    pub fn finish(mut self) -> Result<W, TelemetryError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Describes the first non-finite float in an observation, if any.
fn non_finite_field(observation: &Observation) -> Option<String> {
    if !observation.qos_value.is_finite() {
        return Some(format!("qos_value is {}", observation.qos_value));
    }
    for c in &observation.containers {
        if !c.ipc.is_finite() {
            return Some(format!("ipc of {} is {}", c.id, c.ipc));
        }
        for kind in ResourceKind::ALL {
            let v = c.usage.get(kind);
            if !v.is_finite() {
                return Some(format!("{kind} usage of {} is {v}", c.id));
            }
        }
    }
    None
}

/// Tees a trace recording around any other source: every observation the
/// inner source produces is appended to the writer before it is handed to
/// the policy, so a live run records exactly what its controller saw.
#[derive(Debug)]
pub struct RecordingSource<S: ObservationSource, W: Write> {
    inner: S,
    writer: TraceWriter<W>,
}

impl<S: ObservationSource, W: Write> RecordingSource<S, W> {
    /// Wraps `inner`, writing the trace header for its metadata to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Io`] when the sink fails.
    pub fn new(inner: S, out: W) -> Result<Self, TelemetryError> {
        let writer = TraceWriter::new(out, &inner.meta())?;
        Ok(RecordingSource { inner, writer })
    }

    /// Stops recording: flushes the trace and returns the inner source and
    /// the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Io`] when the flush fails.
    pub fn finish(self) -> Result<(S, W), TelemetryError> {
        let out = self.writer.finish()?;
        Ok((self.inner, out))
    }
}

impl<S: ObservationSource, W: Write> ObservationSource for RecordingSource<S, W> {
    fn meta(&self) -> SourceMeta {
        self.inner.meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        let next = self.inner.next_observation()?;
        if let Some(observation) = &next {
            self.writer.record(observation)?;
        }
        Ok(next)
    }

    fn recycle(&mut self, observation: Observation) {
        self.inner.recycle(observation);
    }

    fn apply(&mut self, actions: &[Action]) -> Result<u64, TelemetryError> {
        self.inner.apply(actions)
    }

    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        self.inner.record_for(observation, actions)
    }

    fn batch_work(&self) -> f64 {
        self.inner.batch_work()
    }

    fn request_qos(&self) -> Option<RequestQos> {
        self.inner.request_qos()
    }
}

/// Streams a recorded trace back as an open-loop observation source.
///
/// Actions are accepted and discarded — the recorded world already ran —
/// which is exactly why a replay reproduces a live controller
/// bit-for-bit: the controller's state depends only on the observation
/// sequence and its own seeded randomness, both of which the trace pins.
#[derive(Debug)]
pub struct TraceSource<R: BufRead> {
    reader: R,
    header: TraceHeader,
    /// 1-based number of the last line consumed (the header is line 1).
    line: u64,
    /// The raw bytes of the current line, reused across lines.
    buf: Vec<u8>,
    /// The observation handed back by [`ObservationSource::recycle`],
    /// decoded into by the next line.
    spare: Option<Observation>,
    /// Counts undecodable observation lines (DESIGN.md §11); decoding
    /// still fails hard — the counter only makes the failure visible in
    /// exported metrics.
    decode_errors: Option<Counter>,
}

impl TraceSource<BufReader<File>> {
    /// Opens a trace file for replay.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Io`] when the file cannot be read, plus
    /// the header failures of [`TraceSource::new`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TelemetryError> {
        TraceSource::new(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Wraps a reader positioned at the start of a trace and consumes the
    /// header line.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::MissingHeader`] for an empty stream or an
    /// undecodable first line, [`TelemetryError::UnsupportedVersion`] for
    /// a version this build cannot read, [`TelemetryError::Io`] on read
    /// failures.
    pub fn new(mut reader: R) -> Result<Self, TelemetryError> {
        let mut buf = Vec::new();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Err(TelemetryError::MissingHeader {
                reason: "empty stream".into(),
            });
        }
        let header: TraceHeader = std::str::from_utf8(&buf)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text.trim_end()).map_err(|e| e.to_string()))
            .map_err(|e| TelemetryError::MissingHeader {
                reason: format!("undecodable header line: {e}"),
            })?;
        header.validate()?;
        Ok(TraceSource {
            reader,
            header,
            line: 1,
            buf,
            spare: None,
            decode_errors: None,
        })
    }

    /// Registers this source's instruments into `registry`
    /// (builder-style, decision-inert): undecodable observation lines
    /// increment `stayaway_telemetry_trace_decode_errors_total`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.decode_errors = Some(registry.counter(
            "stayaway_telemetry_trace_decode_errors_total",
            "Trace observation lines that failed to decode",
        ));
        self
    }

    /// The decoded trace header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }
}

impl<R: BufRead> ObservationSource for TraceSource<R> {
    fn meta(&self) -> SourceMeta {
        self.header.replay_meta()
    }

    fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
        loop {
            self.buf.clear();
            // `read_until` + one validation is what `read_line` does, but a
            // byte that is not UTF-8 stays a decode failure of this line
            // instead of an I/O error without a line number.
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Ok(None);
            }
            self.line += 1;
            let spare = &mut self.spare;
            let decoded = std::str::from_utf8(&self.buf)
                .map_err(|e| e.to_string())
                .and_then(|text| match text.trim() {
                    "" => Ok(None), // tolerate blank separator lines
                    text => {
                        let mut observation = spare.take().unwrap_or_default();
                        decode_observation_into(text, &mut observation).map(|()| Some(observation))
                    }
                });
            match decoded {
                Ok(None) => continue,
                Ok(observation) => return Ok(observation),
                Err(reason) => {
                    if let Some(counter) = &self.decode_errors {
                        counter.inc();
                    }
                    return Err(TelemetryError::Codec {
                        line: self.line,
                        reason,
                    });
                }
            }
        }
    }

    fn recycle(&mut self, observation: Observation) {
        self.spare = Some(observation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{AppClass, ContainerId, ContainerObs, NullPolicy};
    use crate::run::drive;
    use crate::ResourceVector;

    fn meta() -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Sim,
            metrics: ResourceKind::ALL.to_vec(),
            tick_period_secs: 1.0,
            host: Some(HostSpec::default()),
        }
    }

    fn observation(tick: u64) -> Observation {
        Observation {
            tick,
            containers: vec![ContainerObs {
                id: ContainerId::from_raw(0),
                name: "svc".into(),
                class: AppClass::Sensitive,
                active: true,
                paused: false,
                finished: false,
                usage: ResourceVector::zero().with(ResourceKind::Cpu, 1.5),
                ipc: 0.97,
                priority: 0,
            }],
            qos_violation: false,
            qos_value: 0.99,
        }
    }

    fn record_two_ticks() -> Vec<u8> {
        let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
        writer.record(&observation(0)).unwrap();
        writer.record(&observation(1)).unwrap();
        assert_eq!(writer.observations(), 2);
        writer.finish().unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let bytes = record_two_ticks();
        let mut source = TraceSource::new(bytes.as_slice()).unwrap();
        assert_eq!(source.header().recorded_from, SourceKind::Sim);
        assert_eq!(source.header().version, TRACE_VERSION);
        assert_eq!(source.meta().kind, SourceKind::Trace);
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(0));
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(1));
        assert!(source.next_observation().unwrap().is_none());
        // Exhausted sources stay exhausted.
        assert!(source.next_observation().unwrap().is_none());
    }

    #[test]
    fn empty_stream_is_a_missing_header() {
        match TraceSource::new(&b""[..]) {
            Err(TelemetryError::MissingHeader { .. }) => {}
            other => panic!("expected MissingHeader, got {other:?}"),
        }
    }

    #[test]
    fn foreign_first_line_is_a_missing_header() {
        match TraceSource::new(&b"not json at all\n"[..]) {
            Err(TelemetryError::MissingHeader { .. }) => {}
            other => panic!("expected MissingHeader, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_rejected_as_unsupported() {
        let mut header = TraceHeader::for_meta(&meta());
        header.version = TRACE_VERSION + 1;
        let line = serde_json::to_string(&header).unwrap();
        match TraceSource::new(format!("{line}\n").as_bytes()) {
            Err(TelemetryError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, TRACE_VERSION + 1);
                assert_eq!(supported, TRACE_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn truncated_observation_line_reports_its_line_number() {
        let mut bytes = record_two_ticks();
        // Truncate the last line mid-JSON.
        let cut = bytes.len() - 25;
        bytes.truncate(cut);
        let mut source = TraceSource::new(bytes.as_slice()).unwrap();
        assert!(source.next_observation().unwrap().is_some());
        match source.next_observation() {
            Err(TelemetryError::Codec { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected Codec error, got {other:?}"),
        }
    }

    #[test]
    fn decode_errors_increment_the_registered_counter() {
        let mut bytes = record_two_ticks();
        let cut = bytes.len() - 25;
        bytes.truncate(cut);
        let registry = MetricsRegistry::new();
        let errors = registry.counter(
            "stayaway_telemetry_trace_decode_errors_total",
            "Trace observation lines that failed to decode",
        );
        let mut source = TraceSource::new(bytes.as_slice())
            .unwrap()
            .with_metrics(&registry);
        assert!(source.next_observation().unwrap().is_some());
        assert_eq!(errors.get(), 0);
        assert!(source.next_observation().is_err());
        assert_eq!(errors.get(), 1);
    }

    #[test]
    fn a_line_that_is_not_utf8_is_a_counted_codec_error_on_its_line() {
        let mut bytes = record_two_ticks();
        bytes.extend_from_slice(b"{\"tick\":\xff}\n");
        let registry = MetricsRegistry::new();
        let mut source = TraceSource::new(bytes.as_slice())
            .unwrap()
            .with_metrics(&registry);
        assert!(source.next_observation().unwrap().is_some());
        assert!(source.next_observation().unwrap().is_some());
        match source.next_observation() {
            Err(TelemetryError::Codec { line, reason }) => {
                assert_eq!(line, 4);
                assert!(reason.contains("utf-8"), "{reason}");
            }
            other => panic!("expected Codec error, got {other:?}"),
        }
        let errors = registry.counter(
            "stayaway_telemetry_trace_decode_errors_total",
            "Trace observation lines that failed to decode",
        );
        assert_eq!(errors.get(), 1);
    }

    #[test]
    fn a_header_that_is_not_utf8_is_a_missing_header() {
        match TraceSource::new(&b"{\"format\":\"\xff\"}\n"[..]) {
            Err(TelemetryError::MissingHeader { .. }) => {}
            other => panic!("expected MissingHeader, got {other:?}"),
        }
    }

    #[test]
    fn a_final_line_without_a_newline_still_decodes() {
        let mut bytes = record_two_ticks();
        assert_eq!(bytes.pop(), Some(b'\n'));
        let mut source = TraceSource::new(bytes.as_slice()).unwrap();
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(0));
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(1));
        assert!(source.next_observation().unwrap().is_none());
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let mut bytes = record_two_ticks();
        bytes.extend_from_slice(b"\n   \n");
        let mut source = TraceSource::new(bytes.as_slice()).unwrap();
        assert!(source.next_observation().unwrap().is_some());
        assert!(source.next_observation().unwrap().is_some());
        assert!(source.next_observation().unwrap().is_none());
    }

    #[test]
    fn writer_rejects_non_finite_floats() {
        let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
        let mut bad = observation(0);
        bad.containers[0].ipc = f64::NAN;
        match writer.record(&bad) {
            Err(TelemetryError::Codec { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("ipc"));
            }
            other => panic!("expected Codec error, got {other:?}"),
        }
        let mut bad = observation(0);
        bad.qos_value = f64::INFINITY;
        assert!(writer.record(&bad).is_err());
        let mut bad = observation(0);
        bad.containers[0].usage.set(ResourceKind::Memory, f64::NAN);
        assert!(writer.record(&bad).is_err());
        assert_eq!(writer.observations(), 0);
    }

    /// A canned source for tee tests.
    struct Canned(u64);
    impl ObservationSource for Canned {
        fn meta(&self) -> SourceMeta {
            meta()
        }
        fn next_observation(&mut self) -> Result<Option<Observation>, TelemetryError> {
            if self.0 >= 3 {
                return Ok(None);
            }
            let o = observation(self.0);
            self.0 += 1;
            Ok(Some(o))
        }
    }

    #[test]
    fn recording_source_tees_what_the_policy_saw() {
        let mut recorder = RecordingSource::new(Canned(0), Vec::new()).unwrap();
        let live = drive(&mut recorder, &mut NullPolicy::new(), 10).unwrap();
        assert_eq!(live.timeline.len(), 3);
        let (_, bytes) = recorder.finish().unwrap();
        let mut replayed = TraceSource::new(bytes.as_slice()).unwrap();
        let replay = drive(&mut replayed, &mut NullPolicy::new(), 10).unwrap();
        assert_eq!(replay.timeline, live.timeline);
        assert_eq!(replay.qos, live.qos);
    }

    #[test]
    fn the_tee_composes_with_boxed_sources_and_borrowed_sinks() {
        // How a `SourceSpec`-built run records: the source arrives boxed,
        // the sink stays with the caller, and nothing calls `finish`.
        let boxed: Box<dyn ObservationSource> = Box::new(Canned(0));
        let mut bytes = Vec::new();
        let mut tee: Box<dyn ObservationSource + '_> =
            Box::new(RecordingSource::new(boxed, &mut bytes).unwrap());
        let live = drive(tee.as_mut(), &mut NullPolicy::new(), 10).unwrap();
        assert_eq!(tee.request_qos(), None);
        drop(tee);
        let mut replayed = TraceSource::new(bytes.as_slice()).unwrap();
        let replay = drive(&mut replayed, &mut NullPolicy::new(), 10).unwrap();
        assert_eq!(replay.timeline, live.timeline);
    }
}
