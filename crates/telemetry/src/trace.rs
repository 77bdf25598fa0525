//! Streaming JSONL trace record/replay.
//!
//! A trace file is line-oriented JSON. Version 2, the one
//! [`TraceWriter`] writes ([`TRACE_VERSION`]):
//!
//! * **line 1** — a [`TraceHeader`]: format tag, version, the substrate the
//!   trace was recorded from, its metric set, tick period, host spec and
//!   the container **roster** — each container's `id`, `name`, `class` and
//!   `priority`, in observation order;
//! * **every further line** — one tick, an array of only what changes from
//!   period to period: `[tick, violated, qos, [[flags, [usage×6], ipc], …]]`,
//!   one entry per roster container, `flags` packing `active` (1),
//!   `paused` (2) and `finished` (4). Floats are the scalar writer's
//!   shortest round-trip text, so a replay is the recorded run bit for
//!   bit;
//! * where a source's roster changes (a tenant attached or detached), a
//!   line `{"roster":[…]}` restating it comes before the first tick under
//!   it.
//!
//! Version 1 traces — one [`Observation`] object per line, every
//! container's identity and every key restated on every tick — still
//! read: [`TraceSource`] picks its path by the header's `version`, and a
//! v1 line goes through the `serde` derives as before.
//!
//! The format is versioned: readers accept any header whose `version` is
//! at most [`TRACE_VERSION`], and a change old readers would misdecode
//! bumps it, so they reject it with [`TelemetryError::UnsupportedVersion`].
//! Readers skip header members they do not know, so a member added later
//! that a replay can do without (a run's identity, say) needs no bump.
//! Decode failures — a line that is not UTF-8, or a tick whose container
//! count is not the roster's, included — carry the 1-based line number of
//! the offending line so hand-edited traces fail debuggably. The writer
//! keeps one line buffer and the reader refills the observation the
//! controller handed back, its names copied from the roster into the
//! buffers they already hold, so a steady recording or replay allocates
//! nothing per line.
//!
//! [`TraceWriter`] appends to any [`Write`]; [`RecordingSource`] tees it
//! around any other [`ObservationSource`] so a live run records itself;
//! [`TraceSource`] streams a trace back as an open-loop source.

use crate::observation::{Action, AppClass, ContainerId, ContainerObs, Observation};
use crate::run::{derive_record, RequestQos, TickRecord};
use crate::source::{ObservationSource, SourceKind, SourceMeta};
use crate::{HostSpec, ResourceKind, TelemetryError};
use serde::value::{write_json_bool, write_json_f64, write_json_u64};
use serde::{Cursor, Deserialize, Serialize};
use stayaway_obs::{Counter, MetricsRegistry};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Magic format tag of the header line.
pub(crate) const TRACE_FORMAT: &str = "stayaway-trace";

/// Newest trace version this build reads and the version it writes.
pub const TRACE_VERSION: u32 = 2;

/// The bits of a v2 container entry's `flags`.
const ACTIVE: u64 = 1;
const PAUSED: u64 = 2;
const FINISHED: u64 = 4;

/// First line of every trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Format magic; always [`TRACE_FORMAT`].
    pub(crate) format: String,
    /// Trace format version; see the module docs for the versioning rules.
    pub version: u32,
    /// The substrate the trace was recorded from.
    pub recorded_from: SourceKind,
    /// The metric set the recording source reported.
    pub(crate) metrics: Vec<ResourceKind>,
    /// Declared control-period length of the recording source, in seconds.
    pub(crate) tick_period_secs: f64,
    /// Host capacities of the recorded host, when known.
    pub(crate) host: Option<HostSpec>,
    /// The roster of the first tick (v2); absent from a v1 header, and
    /// read as empty from a v2 header without one.
    roster: Option<Vec<RosterEntry>>,
}

impl TraceHeader {
    /// Builds the header describing a recording of `meta`, with no roster
    /// yet: the writer sets it from the first observation.
    pub fn for_meta(meta: &SourceMeta) -> Self {
        TraceHeader {
            format: TRACE_FORMAT.to_string(),
            version: TRACE_VERSION,
            recorded_from: meta.kind,
            metrics: meta.metrics.clone(),
            tick_period_secs: meta.tick_period_secs,
            host: meta.host,
            roster: None,
        }
    }

    /// Checks the format tag, the version and the host spec, when there
    /// is one.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MissingHeader`] for a foreign format tag,
    /// [`TelemetryError::UnsupportedVersion`] for a version this build
    /// cannot read, [`TelemetryError::Codec`] at line 1 for a host
    /// capacity that is not positive and finite.
    pub(crate) fn validate(&self) -> Result<(), TelemetryError> {
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
        if let Some(host) = &self.host {
            host.validate().map_err(|e| TelemetryError::Codec {
                line: 1,
                reason: format!("header host: {e}"),
            })?;
        }
        Ok(())
    }

    /// The source metadata a replay of this trace advertises.
    pub(crate) fn replay_meta(&self) -> SourceMeta {
        SourceMeta {
            kind: SourceKind::Trace,
            metrics: self.metrics.clone(),
            tick_period_secs: self.tick_period_secs,
            host: self.host,
        }
    }
}

/// What a v2 trace says of a container once per roster instead of on
/// every tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RosterEntry {
    id: ContainerId,
    name: String,
    class: AppClass,
    priority: u8,
}

/// The containers a v2 tick line's entries belong to, in order; written
/// as the line that restates it, `{"roster":[…]}`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Roster {
    roster: Vec<RosterEntry>,
}

impl Roster {
    /// True when `containers` are this roster's, in its order: id, name,
    /// class and priority compared in place.
    fn lists(&self, containers: &[ContainerObs]) -> bool {
        self.roster.len() == containers.len()
            && self.roster.iter().zip(containers).all(|(r, c)| {
                r.id == c.id && r.class == c.class && r.priority == c.priority && r.name == c.name
            })
    }

    /// Makes this the roster of `containers`.
    fn set(&mut self, containers: &[ContainerObs]) {
        self.roster.clear();
        self.roster.extend(containers.iter().map(|c| RosterEntry {
            id: c.id,
            name: c.name.clone(),
            class: c.class,
            priority: c.priority,
        }));
    }
}

/// Appends one v2 tick line, without its newline.
fn write_tick(out: &mut String, observation: &Observation) {
    out.push('[');
    write_json_u64(out, observation.tick);
    out.push(',');
    write_json_bool(out, observation.qos_violation);
    out.push(',');
    write_json_f64(out, observation.qos_value);
    out.push_str(",[");
    for (i, c) in observation.containers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let flags = (ACTIVE * u64::from(c.active))
            | (PAUSED * u64::from(c.paused))
            | (FINISHED * u64::from(c.finished));
        out.push('[');
        write_json_u64(out, flags);
        out.push(',');
        c.usage.values.serialize(out);
        out.push(',');
        write_json_f64(out, c.ipc);
        out.push(']');
    }
    out.push_str("]]");
}

/// Walks an array of exactly `len` entries, handing each to `entry` with
/// its index, which is therefore below `len`.
fn entries(
    cursor: &mut Cursor<'_>,
    what: &str,
    len: usize,
    mut entry: impl FnMut(&mut Cursor<'_>, usize) -> Result<(), String>,
) -> Result<(), String> {
    let mut at = 0;
    cursor.array(|cursor| {
        if at == len {
            return Err(format!("{what} holds more than {len}"));
        }
        entry(cursor, at)?;
        at += 1;
        Ok(())
    })?;
    if at == len {
        Ok(())
    } else {
        Err(format!("{what} holds {at} where {len} belong"))
    }
}

/// Reads one v2 tick line into `observation`, its containers named by
/// `roster`.
fn read_tick(
    cursor: &mut Cursor<'_>,
    roster: &[RosterEntry],
    observation: &mut Observation,
) -> Result<(), String> {
    observation.resize_containers(roster.len());
    entries(cursor, "a tick line", 4, |cursor, at| match at {
        0 => cursor.u64().map(|tick| observation.tick = tick),
        1 => cursor
            .bool()
            .map(|violated| observation.qos_violation = violated),
        2 => cursor.f64().map(|qos| observation.qos_value = qos),
        _ => {
            let what = "the tick's container list (one entry per roster container)";
            let containers = &mut observation.containers;
            entries(cursor, what, roster.len(), |cursor, i| {
                read_container(cursor, &roster[i], &mut containers[i])
            })
        }
    })
}

/// Reads one `[flags, [usage×6], ipc]` entry into `slot`, its identity
/// copied from `entry`.
fn read_container(
    cursor: &mut Cursor<'_>,
    entry: &RosterEntry,
    slot: &mut ContainerObs,
) -> Result<(), String> {
    entries(cursor, "a container entry", 3, |cursor, at| match at {
        0 => {
            let flags = cursor.u64()?;
            if flags > ACTIVE | PAUSED | FINISHED {
                return Err(format!("container flags {flags} above 7"));
            }
            slot.active = flags & ACTIVE != 0;
            slot.paused = flags & PAUSED != 0;
            slot.finished = flags & FINISHED != 0;
            Ok(())
        }
        1 => slot.usage.values.deserialize_in_place(cursor),
        _ => cursor.f64().map(|ipc| slot.ipc = ipc),
    })?;
    slot.id = entry.id;
    slot.name.clone_from(&entry.name);
    slot.class = entry.class;
    slot.priority = entry.priority;
    Ok(())
}

/// Appends a versioned trace to any byte sink, one JSON line per tick.
///
/// The header carries the first tick's roster, so it is written with the
/// first observation — or by [`TraceWriter::finish`], or when the writer
/// is dropped, for a recording of no observations.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    /// The sink; taken only by [`TraceWriter::finish`], which consumes
    /// the writer.
    out: Option<W>,
    /// The header, until it is written.
    header: Option<TraceHeader>,
    /// The roster of the last tick line written.
    roster: Roster,
    /// Lines the trace holds once the header is written.
    lines: u64,
    /// The line being written, kept across ticks so a steady recording
    /// allocates nothing per observation.
    line: String,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace describing `meta`; the header line is written with
    /// the first observation.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Codec`] at line 1 when `meta`'s host spec
    /// holds a capacity that is not positive and finite, which no reader
    /// would accept.
    pub fn new(out: W, meta: &SourceMeta) -> Result<Self, TelemetryError> {
        let header = TraceHeader::for_meta(meta);
        header.validate()?;
        Ok(TraceWriter {
            out: Some(out),
            header: Some(header),
            roster: Roster::default(),
            lines: 1,
            line: String::new(),
        })
    }

    /// Hands the line buffer to the sink in one write.
    fn emit(&mut self) -> Result<(), TelemetryError> {
        let out = self
            .out
            .as_mut()
            .expect("the sink is taken only by `finish`");
        out.write_all(self.line.as_bytes())
            .map_err(TelemetryError::Record)
    }

    /// Writes the header, with the current roster, unless it is written.
    fn start(&mut self) -> Result<(), TelemetryError> {
        if let Some(mut header) = self.header.take() {
            header.roster = Some(self.roster.roster.clone());
            self.line.clear();
            header.serialize(&mut self.line);
            self.line.push('\n');
            self.emit()?;
        }
        Ok(())
    }

    /// Appends one tick line, after the header or a line restating the
    /// roster when this observation's roster is new.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Record`] when the sink fails, or
    /// [`TelemetryError::Codec`] when the observation contains a
    /// non-finite float — JSON has no representation for those, so writing
    /// one would produce a trace the reader must reject.
    pub fn record(&mut self, observation: &Observation) -> Result<(), TelemetryError> {
        let new_roster = !self.roster.lists(&observation.containers);
        let restate = new_roster && self.header.is_none();
        if let Some(reason) = non_finite_field(observation) {
            return Err(TelemetryError::Codec {
                line: self.lines + 1 + u64::from(restate),
                reason,
            });
        }
        if new_roster {
            self.roster.set(&observation.containers);
        }
        self.start()?;
        self.line.clear();
        if restate {
            self.roster.serialize(&mut self.line);
            self.line.push('\n');
            self.lines += 1;
        }
        write_tick(&mut self.line, observation);
        self.line.push('\n');
        self.emit()?;
        self.lines += 1;
        Ok(())
    }

    /// Flushes and returns the underlying sink, after writing the header
    /// if no observation did.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Record`] when the header write or the
    /// flush fails.
    pub fn finish(mut self) -> Result<W, TelemetryError> {
        self.start()?;
        let mut out = self.out.take().expect("the sink is taken only here");
        out.flush().map_err(TelemetryError::Record)?;
        Ok(out)
    }
}

impl<W: Write> Drop for TraceWriter<W> {
    /// Writes the header of a recording that saw no observation, so a run
    /// of zero periods leaves a trace that replays as one. A sink failing
    /// here has no caller to tell.
    fn drop(&mut self) {
        // After `finish`, which took the sink, the header is written.
        let _ = self.start();
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
    /// Wraps `inner`, starting a trace of its metadata on `out`.
    ///
    /// # Errors
    ///
    /// Those of [`TraceWriter::new`].
    pub fn new(inner: S, out: W) -> Result<Self, TelemetryError> {
        let writer = TraceWriter::new(out, &inner.meta())?;
        Ok(RecordingSource { inner, writer })
    }

    /// Stops recording: flushes the trace and returns the inner source and
    /// the sink.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::Record`] when the flush fails.
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
    /// The roster in force, for a v2 trace; `None` reads v1 lines.
    roster: Option<Roster>,
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
    /// Counts the bytes of the lines read after the header.
    bytes: Option<Counter>,
    /// The file the trace was opened from, named by every failure.
    path: Option<Box<Path>>,
}

impl TraceSource<BufReader<File>> {
    /// Opens a trace file for replay.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::File`] naming `path` when the file cannot
    /// be opened or fails a check of [`TraceSource::new`]; every line that
    /// later fails to read or decode names `path` the same way.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TelemetryError> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| in_file(path, TelemetryError::Io(e)))?;
        let mut source = TraceSource::new(BufReader::new(file)).map_err(|e| in_file(path, e))?;
        source.path = Some(path.into());
        Ok(source)
    }
}

/// `error`, met reading the trace file at `path`, with the file named.
fn in_file(path: &Path, error: TelemetryError) -> TelemetryError {
    let error = match error {
        TelemetryError::Io(error) => error,
        error => std::io::Error::new(std::io::ErrorKind::InvalidData, error),
    };
    TelemetryError::File {
        path: path.into(),
        error,
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
    /// a version this build cannot read, [`TelemetryError::Codec`] at line
    /// 1 for a header whose host spec is invalid, [`TelemetryError::Io`] on
    /// read failures.
    pub fn new(mut reader: R) -> Result<Self, TelemetryError> {
        let mut buf = Vec::new();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            return Err(TelemetryError::MissingHeader {
                reason: "empty stream".into(),
            });
        }
        let mut header: TraceHeader = std::str::from_utf8(&buf)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text.trim_end()).map_err(|e| e.to_string()))
            .map_err(|e| TelemetryError::MissingHeader {
                reason: format!("undecodable header line: {e}"),
            })?;
        header.validate()?;
        let roster = (header.version >= 2).then(|| Roster {
            roster: header.roster.take().unwrap_or_default(),
        });
        Ok(TraceSource {
            reader,
            header,
            roster,
            line: 1,
            buf,
            spare: None,
            decode_errors: None,
            bytes: None,
            path: None,
        })
    }

    /// Registers this source's instruments into `registry`
    /// (builder-style, decision-inert): undecodable observation lines
    /// increment `stayaway_telemetry_trace_decode_errors_total`, and every
    /// line read after the header adds its bytes to
    /// `stayaway_telemetry_trace_bytes_total`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.decode_errors = Some(registry.counter(
            "stayaway_telemetry_trace_decode_errors_total",
            "Trace observation lines that failed to decode",
        ));
        self.bytes = Some(registry.counter(
            "stayaway_telemetry_trace_bytes_total",
            "Bytes of the trace lines read after the header",
        ));
        self
    }

    /// `error` met reading this trace, naming its file when it has one.
    fn named(&self, error: TelemetryError) -> TelemetryError {
        match &self.path {
            Some(path) => in_file(path, error),
            None => error,
        }
    }
}

/// Decodes one non-blank line: an observation, or `None` for a line that
/// restates the roster. A v1 line (`roster` is `None`) is a derived
/// [`Observation`] object, read in place into `spare`.
fn decode_line(
    text: &str,
    roster: Option<&mut Roster>,
    spare: &mut Option<Observation>,
) -> Result<Option<Observation>, String> {
    let mut cursor = Cursor::new(text);
    let mut observation = None;
    match roster {
        Some(roster) if text.starts_with('{') => roster.deserialize_in_place(&mut cursor)?,
        Some(roster) => {
            let into = observation.insert(spare.take().unwrap_or_default());
            read_tick(&mut cursor, &roster.roster, into)?;
        }
        None => {
            let into = observation.insert(spare.take().unwrap_or_default());
            into.deserialize_in_place(&mut cursor)?;
        }
    }
    cursor.end()?;
    Ok(observation)
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
            let read = self.reader.read_until(b'\n', &mut self.buf);
            let read = read.map_err(|e| self.named(TelemetryError::Io(e)))?;
            if read == 0 {
                return Ok(None);
            }
            if let Some(counter) = &self.bytes {
                counter.add(read as u64);
            }
            self.line += 1;
            let decoded = std::str::from_utf8(&self.buf)
                .map_err(|e| e.to_string())
                .and_then(|text| match text.trim() {
                    "" => Ok(None), // tolerate blank separator lines
                    text => decode_line(text, self.roster.as_mut(), &mut self.spare),
                });
            match decoded {
                Ok(None) => continue,
                Ok(observation) => return Ok(observation),
                Err(reason) => {
                    if let Some(counter) = &self.decode_errors {
                        counter.inc();
                    }
                    return Err(self.named(TelemetryError::Codec {
                        line: self.line,
                        reason,
                    }));
                }
            }
        }
    }

    fn recycle(&mut self, observation: Observation) {
        self.spare = Some(observation);
    }

    /// The record derived from the observation and the header's host,
    /// read in place: [`meta`](ObservationSource::meta) clones the metric
    /// list.
    fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
        derive_record(observation, actions.len(), self.header.host.as_ref())
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
        assert_eq!(writer.lines, 3);
        writer.finish().unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let bytes = record_two_ticks();
        let first = std::str::from_utf8(&bytes).unwrap().lines().next().unwrap();
        let header: TraceHeader = serde_json::from_str(first).unwrap();
        let mut roster = Roster::default();
        roster.set(&observation(0).containers);
        let want = TraceHeader {
            roster: Some(roster.roster),
            ..TraceHeader::for_meta(&meta())
        };
        assert_eq!(header, want);
        assert_eq!(header.recorded_from, SourceKind::Sim);
        assert_eq!(header.version, TRACE_VERSION);
        let mut source = TraceSource::new(bytes.as_slice()).unwrap();
        assert_eq!(source.meta().kind, SourceKind::Trace);
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(0));
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(1));
        assert!(source.next_observation().unwrap().is_none());
        // Exhausted sources stay exhausted.
        assert!(source.next_observation().unwrap().is_none());
    }

    /// A file that cannot be opened, and a directory whose header line
    /// cannot be read, both name their path.
    #[test]
    fn an_unreadable_trace_file_names_its_path() {
        let dir = std::env::temp_dir();
        let missing = dir.join(format!("stayaway-missing-{}.jsonl", std::process::id()));
        for path in [missing, dir] {
            match TraceSource::open(&path) {
                Err(e @ TelemetryError::File { .. }) => {
                    assert!(e
                        .to_string()
                        .starts_with(&format!("cannot read {}: ", path.display())));
                }
                other => panic!("expected File, got {:?}", other.map(|_| ())),
            }
        }
    }

    /// A line that fails to decode names the file it is in, its line and
    /// what it held; the same bytes read from memory name no file.
    #[test]
    fn a_bad_line_of_a_trace_file_names_its_path() {
        let mut text = Vec::new();
        TraceWriter::new(&mut text, &meta()).unwrap();
        text.extend_from_slice(b"garbage\n");
        let path = std::env::temp_dir().join(format!("stayaway-bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let error = TraceSource::open(&path)
            .unwrap()
            .next_observation()
            .unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            error.to_string(),
            format!(
                "cannot read {}: codec error at line 2: unexpected 'g' at byte 0, expected '['",
                path.display()
            )
        );
        let unnamed = TraceSource::new(&text[..]).unwrap().next_observation();
        assert!(matches!(
            unnamed,
            Err(TelemetryError::Codec { line: 2, .. })
        ));
    }

    /// A sink that fails is the recording's failure, whatever it fails on.
    #[test]
    fn a_failing_sink_is_a_record_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = TraceWriter::new(Full, &meta()).unwrap();
        match writer.record(&observation(0)) {
            Err(e @ TelemetryError::Record(_)) => {
                assert_eq!(e.to_string(), "cannot write the trace: disk full");
            }
            other => panic!("expected Record, got {other:?}"),
        }
        let unstarted = TraceWriter::new(Full, &meta()).unwrap();
        assert!(matches!(unstarted.finish(), Err(TelemetryError::Record(_))));
    }

    /// The header is written with the first observation and carries its
    /// roster; each tick line holds only the changing values.
    #[test]
    fn a_tick_line_holds_only_the_changing_values() {
        let text = String::from_utf8(record_two_ticks()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0]
            .ends_with(r#","roster":[{"id":0,"name":"svc","class":"Sensitive","priority":0}]}"#));
        assert_eq!(
            lines[1],
            "[0,false,0.99,[[1,[1.5,0.0,0.0,0.0,0.0,0.0],0.97]]]"
        );
        assert_eq!(
            lines[2],
            "[1,false,0.99,[[1,[1.5,0.0,0.0,0.0,0.0,0.0],0.97]]]"
        );
    }

    /// A writer that saw no observation still leaves a trace, when it is
    /// finished and when it is only dropped.
    #[test]
    fn a_trace_of_no_observations_is_its_header() {
        let finished = TraceWriter::new(Vec::new(), &meta())
            .unwrap()
            .finish()
            .unwrap();
        let mut dropped = Vec::new();
        drop(TraceWriter::new(&mut dropped, &meta()).unwrap());
        assert_eq!(finished, dropped);
        assert!(finished.ends_with(b",\"roster\":[]}\n"));
        let mut source = TraceSource::new(finished.as_slice()).unwrap();
        assert!(source.next_observation().unwrap().is_none());
    }

    /// A source whose containers change: a line restating the roster comes
    /// before the first tick under it, and the replay is the recording.
    #[test]
    fn a_changed_roster_is_restated_and_replays() {
        let mut two = observation(2);
        two.containers.push(ContainerObs {
            id: ContainerId::from_raw(4),
            name: "batch".into(),
            class: AppClass::Batch,
            ..observation(2).containers[0].clone()
        });
        let mut renamed = observation(4);
        renamed.containers[0].name = "svc-2".into();
        let mut reprioritised = observation(5);
        reprioritised.containers[0].priority = 3;
        let ticks = [
            observation(0),
            observation(1),
            two.clone(),
            two,
            observation(3),
            renamed,
            reprioritised,
            Observation::default(),
        ];
        let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
        for tick in &ticks {
            writer.record(tick).unwrap();
        }
        let text = String::from_utf8(writer.finish().unwrap()).unwrap();
        let restated: Vec<usize> = (text.lines().enumerate())
            .filter(|(i, line)| *i > 0 && line.starts_with('{'))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(restated, [4, 7, 9, 11, 13]);
        let mut source = TraceSource::new(text.as_bytes()).unwrap();
        for tick in &ticks {
            let got = source.next_observation().unwrap().unwrap();
            assert_eq!(&got, tick);
            source.recycle(got);
        }
        assert!(source.next_observation().unwrap().is_none());
    }

    /// Entries that do not match the roster, or flags no writer sets, are
    /// typed errors on their line.
    #[test]
    fn a_tick_that_does_not_fit_its_roster_names_its_line() {
        let bytes = record_two_ticks();
        let header = std::str::from_utf8(&bytes).unwrap().lines().next().unwrap();
        let entry = "[1,[1.5,0.0,0.0,0.0,0.0,0.0],0.97]";
        for (line, want) in [
            ("[0,false,1.0,[]]".into(), "holds 0 where 1 belong"),
            (
                format!("[0,false,1.0,[{entry},{entry}]]"),
                "holds more than 1",
            ),
            (
                "[0,false,1.0,[[8,[0,0,0,0,0,0],1]]]".into(),
                "flags 8 above 7",
            ),
            ("[0,false,1.0,[[1,[0,0,0,0,0],1]]]".into(), "length 6"),
            ("[0,false,1.0]".into(), "a tick line holds 3 where 4 belong"),
            (
                format!("[0,false,1.0,[{entry}],5]"),
                "a tick line holds more than 4",
            ),
            (
                "[0,false,1.0,[[1,[0,0,0,0,0,0]]]]".into(),
                "a container entry holds 2",
            ),
            (r#"{"roster":[{"id":0}]}"#.into(), "missing field `name`"),
        ] {
            let text = format!("{header}\n[0,false,1.0,[{entry}]]\n{line}\n");
            let mut source = TraceSource::new(text.as_bytes()).unwrap();
            assert!(source.next_observation().unwrap().is_some());
            match source.next_observation() {
                Err(TelemetryError::Codec { line: 3, reason }) => {
                    assert!(reason.contains(want), "{reason:?} lacks {want:?}");
                }
                other => panic!("expected a line-3 Codec error on {line}, got {other:?}"),
            }
        }
    }

    /// A version 1 trace still reads: one derived observation object per
    /// line.
    #[test]
    fn a_version_one_trace_still_reads() {
        let header = TraceHeader {
            version: 1,
            ..TraceHeader::for_meta(&meta())
        };
        let mut text = serde_json::to_string(&header).unwrap();
        for tick in 0..2 {
            text.push('\n');
            text.push_str(&serde_json::to_string(&observation(tick)).unwrap());
        }
        let mut source = TraceSource::new(text.as_bytes()).unwrap();
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(0));
        assert_eq!(source.next_observation().unwrap().unwrap(), observation(1));
        assert!(source.next_observation().unwrap().is_none());
    }

    /// Every line read after the header adds its bytes, newline included.
    #[test]
    fn the_bytes_read_are_counted() {
        let bytes = record_two_ticks();
        let header = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let registry = MetricsRegistry::new();
        let mut source = TraceSource::new(bytes.as_slice())
            .unwrap()
            .with_metrics(&registry);
        while source.next_observation().unwrap().is_some() {}
        let counted = registry.counter(
            "stayaway_telemetry_trace_bytes_total",
            "Bytes of the trace lines read after the header",
        );
        assert_eq!(counted.get(), (bytes.len() - header) as u64);
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
    fn a_non_positive_host_capacity_is_rejected_at_line_one() {
        for cores in [0.0, -4.0] {
            let mut header = TraceHeader::for_meta(&meta());
            header.host = Some(HostSpec {
                cpu_cores: cores,
                ..HostSpec::default()
            });
            let line = serde_json::to_string(&header).unwrap();
            match TraceSource::new(format!("{line}\n").as_bytes()) {
                Err(TelemetryError::Codec { line, reason }) => {
                    assert_eq!(line, 1);
                    assert!(reason.contains("cpu"), "{reason}");
                }
                other => panic!("expected a line-1 Codec error, got {other:?}"),
            }
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
        assert_eq!(writer.lines, 1);
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
        fn record_for(&self, observation: &Observation, actions: &[Action]) -> TickRecord {
            derive_record(observation, actions.len(), meta().host.as_ref())
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
