//! Typed, causally-linked structured events — the vocabulary of the
//! flight recorder (DESIGN.md §16).
//!
//! An [`EventRecord`] is one decision or observation somewhere in the
//! stack: a controller throttle, a predictor verdict, a cluster verb, a
//! workload SLO violation. Records carry logical time only (the
//! controller tick), never wall clock, and order totally by
//! `(tick, layer, seq, scope)`, so a merged stream from any number of
//! per-cell recorders is byte-identical regardless of worker count.
//!
//! Causality is explicit: a record may name the [`EventId`] of the
//! event that triggered it (a migration names the SLO violation on the
//! source host; the violation names the predictor verdict that foresaw
//! it), letting tooling walk multi-layer "why did this happen" chains.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Which layer of the stack an event originates from. The discriminant
/// order is the sort order within a tick: controller decisions come
/// before the predictor's verdict annotations, workload effects, and
/// the fleet/cluster planes above them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Layer {
    /// The per-host Stay-Away controller (throttle/resume/β/anchor).
    Controller,
    /// The prediction plane (forecast verdicts).
    Predictor,
    /// The request-driven workload substrate (SLO violations).
    Workload,
    /// The fleet runtime (template waves, cell lifecycle).
    Fleet,
    /// The cluster plane (placement verbs).
    Cluster,
}

impl Layer {
    /// The lower-case name used in JSONL output and CLI filters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Layer::Controller => "controller",
            Layer::Predictor => "predictor",
            Layer::Workload => "workload",
            Layer::Fleet => "fleet",
            Layer::Cluster => "cluster",
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened. Kinds cover every decision class the reproduction
/// makes: controller actions, predictor verdicts, cluster verbs,
/// workload SLO violations, and template imports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// Batch applications were frozen (proactively or reactively).
    Throttle,
    /// Batch applications were thawed.
    Resume,
    /// The violation-probability threshold β was raised.
    BetaChange,
    /// The action stage anchored the drift reference point while
    /// throttled (DESIGN.md §5: resume requires drift from here).
    DriftAnchor,
    /// The prediction plane voted an imminent violation.
    PredictorVerdict,
    /// A sensitive application missed its QoS/SLO bound this tick.
    SloViolation,
    /// A learned state-map template was imported before the first tick.
    TemplateImport,
    /// Cluster verb: a queued job was placed on a host.
    Admit,
    /// Cluster verb: an arriving job was parked in the admission queue.
    Queue,
    /// Cluster verb: a job's placement was deferred this epoch.
    Defer,
    /// Cluster verb: a job was moved between hosts.
    Migrate,
}

impl EventKind {
    /// Every kind, in sort order (useful for filters and tests).
    pub const ALL: [EventKind; 11] = [
        EventKind::Throttle,
        EventKind::Resume,
        EventKind::BetaChange,
        EventKind::DriftAnchor,
        EventKind::PredictorVerdict,
        EventKind::SloViolation,
        EventKind::TemplateImport,
        EventKind::Admit,
        EventKind::Queue,
        EventKind::Defer,
        EventKind::Migrate,
    ];

    /// The kebab-case name used in JSONL output and CLI filters.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::Throttle => "throttle",
            EventKind::Resume => "resume",
            EventKind::BetaChange => "beta-change",
            EventKind::DriftAnchor => "drift-anchor",
            EventKind::PredictorVerdict => "predictor-verdict",
            EventKind::SloViolation => "slo-violation",
            EventKind::TemplateImport => "template-import",
            EventKind::Admit => "admit",
            EventKind::Queue => "queue",
            EventKind::Defer => "defer",
            EventKind::Migrate => "migrate",
        }
    }

    /// Parses a kebab-case kind name (as printed by `EventKind::name`).
    ///
    /// # Errors
    ///
    /// Returns a description listing the accepted names.
    pub fn parse(token: &str) -> Result<Self, String> {
        let token = token.trim().to_ascii_lowercase();
        Self::ALL
            .into_iter()
            .find(|k| k.name() == token)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown event kind `{token}` (expected one of {})",
                    names.join(", ")
                )
            })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identity of one recorded event: the recorder that produced it
/// (`scope` — a cell or host index, or the cluster plane) and the
/// per-recorder sequence number. Both are logical, so ids are stable
/// across runs and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId {
    /// Index of the producing recorder (cell/host index; the cluster
    /// plane records under its own scope above the hosts).
    pub scope: u32,
    /// Position in that recorder's stream, starting at 0. Monotone even
    /// past ring eviction, so an id never aliases.
    pub seq: u64,
}

impl EventId {
    /// Parses the `scope:seq` form printed by `Display` (e.g. `2:17`).
    ///
    /// # Errors
    ///
    /// Returns a description of the expected shape.
    pub fn parse(token: &str) -> Result<Self, String> {
        let (scope, seq) = token
            .trim()
            .split_once(':')
            .ok_or_else(|| format!("event id `{token}` is not of the form <scope>:<seq>"))?;
        Ok(EventId {
            scope: scope
                .parse()
                .map_err(|_| format!("event id scope `{scope}` is not an integer"))?,
            seq: seq
                .parse()
                .map_err(|_| format!("event id seq `{seq}` is not an integer"))?,
        })
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.scope, self.seq)
    }
}

/// One structured attribute value. Floats are sanitised at
/// construction ([`AttrValue::float`]) so the canonical stream never
/// carries NaN/infinity (which JSON cannot represent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Finite floating-point attribute.
    F64(f64),
    /// Boolean attribute.
    Bool(bool),
    /// String attribute.
    Str(String),
}

impl AttrValue {
    /// Wraps a float, mapping non-finite values to 0.0 — the canonical
    /// event stream must stay NaN-free to round-trip through JSON.
    pub fn float(value: f64) -> Self {
        AttrValue::F64(if value.is_finite() { value } else { 0.0 })
    }

    /// Renders the value for human-facing CLI output.
    pub(crate) fn render(&self) -> String {
        match self {
            AttrValue::U64(v) => v.to_string(),
            AttrValue::I64(v) => v.to_string(),
            AttrValue::F64(v) => format!("{v:.4}"),
            AttrValue::Bool(v) => v.to_string(),
            AttrValue::Str(v) => v.clone(),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::float(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Builds one attribute pair; `attrs` lists are kept in insertion
/// order (call sites use a fixed order, keeping JSONL deterministic).
pub fn attr(name: &str, value: impl Into<AttrValue>) -> (String, AttrValue) {
    (name.to_string(), value.into())
}

/// One recorded event.
///
/// Field order mirrors the sort key: `(tick, layer, seq, scope)` is a
/// total order over any merged stream — `(scope, seq)` is unique per
/// event, so ties cannot occur. Wall-clock time is deliberately absent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Controller tick (logical time) the event belongs to.
    pub tick: u64,
    /// Originating layer; breaks same-tick ties in stack order.
    pub layer: Layer,
    /// Per-recorder sequence number (== the id's `seq`).
    pub seq: u64,
    /// Producing recorder (== the id's `scope`).
    pub scope: u32,
    /// What happened.
    pub kind: EventKind,
    /// What it happened to (`cell:3`, `host:1`, `job:7`, ...).
    pub subject: String,
    /// The event that triggered this one, when known.
    pub cause: Option<EventId>,
    /// Structured details, in fixed call-site order.
    pub attrs: Vec<(String, AttrValue)>,
}

impl EventRecord {
    /// This event's identity.
    pub fn id(&self) -> EventId {
        EventId {
            scope: self.scope,
            seq: self.seq,
        }
    }

    /// The attribute called `name`, when the record carries one.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The total sort key: `(tick, layer, seq, scope)`. Unique per
    /// event in any merged stream, since `(scope, seq)` is unique.
    pub(crate) fn sort_key(&self) -> (u64, Layer, u64, u32) {
        (self.tick, self.layer, self.seq, self.scope)
    }

    /// Renders the record as one human-facing timeline line (the `stayaway
    /// events` listing format):
    /// `scope:seq t=<tick> [layer] kind subject k=v ... <- cause`.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} t={} [{}] {} {}",
            self.id(),
            self.tick,
            self.layer,
            self.kind,
            self.subject
        );
        for (name, value) in &self.attrs {
            line.push_str(&format!(" {name}={}", value.render()));
        }
        if let Some(cause) = self.cause {
            line.push_str(&format!(" <- {cause}"));
        }
        line
    }
}

/// Why a causal chain could not be walked to its root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// The chain names an event the stream does not contain (evicted from
    /// a recorder ring, filtered out of an export, or never recorded).
    Missing(EventId),
    /// The `cause` links lead back to an event already on the chain — only
    /// a hand-edited or corrupted stream can do this, since recorders link
    /// each event to an earlier one.
    Cycle(EventId),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Missing(id) => write!(f, "event {id} not found in the stream"),
            ChainError::Cycle(id) => write!(f, "causal chain loops back to event {id}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// Walks the `cause` links from event `id` back to its root: the returned
/// chain starts at `id` and ends at the first event without a cause. Every
/// event is visited at most once, so the walk terminates on any input.
///
/// # Errors
///
/// [`ChainError::Missing`] when a link names an event absent from
/// `events`, [`ChainError::Cycle`] when the links loop.
pub fn causal_chain(events: &[EventRecord], id: EventId) -> Result<Vec<&EventRecord>, ChainError> {
    let mut unvisited: HashMap<EventId, &EventRecord> =
        events.iter().map(|e| (e.id(), e)).collect();
    let mut chain: Vec<&EventRecord> = Vec::new();
    let mut next = Some(id);
    while let Some(id) = next {
        let Some(event) = unvisited.remove(&id) else {
            return Err(if chain.iter().any(|e| e.id() == id) {
                ChainError::Cycle(id)
            } else {
                ChainError::Missing(id)
            });
        };
        chain.push(event);
        next = event.cause;
    }
    Ok(chain)
}

/// Sorts a merged event stream into its canonical total order.
pub fn sort_events(events: &mut [EventRecord]) {
    events.sort_by_key(EventRecord::sort_key);
}

/// Renders events as JSON Lines, one record per line, in stream order.
pub fn events_to_jsonl(events: &[EventRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for event in events {
        let line = serde_json::to_string(event).expect("event record serializes");
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Parses a JSONL event stream (as written by [`events_to_jsonl`]).
///
/// # Errors
///
/// Returns a description naming the first unparsable line.
pub fn events_from_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", idx + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64, layer: Layer, scope: u32, seq: u64) -> EventRecord {
        EventRecord {
            tick,
            layer,
            seq,
            scope,
            kind: EventKind::Throttle,
            subject: format!("cell:{scope}"),
            cause: None,
            attrs: vec![attr("count", 3u64), attr("proactive", true)],
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(EventKind::parse("warp-core").is_err());
    }

    #[test]
    fn event_id_parses_its_display_form() {
        let id = EventId { scope: 3, seq: 42 };
        assert_eq!(EventId::parse(&id.to_string()).unwrap(), id);
        assert!(EventId::parse("7").is_err());
        assert!(EventId::parse("a:b").is_err());
    }

    #[test]
    fn float_attrs_are_sanitised() {
        assert_eq!(AttrValue::float(f64::NAN), AttrValue::F64(0.0));
        assert_eq!(AttrValue::float(f64::INFINITY), AttrValue::F64(0.0));
        assert_eq!(AttrValue::float(1.5), AttrValue::F64(1.5));
    }

    #[test]
    fn jsonl_round_trips() {
        let mut events = vec![
            sample(2, Layer::Cluster, 4, 0),
            sample(1, Layer::Controller, 0, 7),
        ];
        events[0].cause = Some(EventId { scope: 0, seq: 7 });
        let jsonl = events_to_jsonl(&events);
        assert_eq!(jsonl.lines().count(), 2);
        let back = events_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, events);
        assert!(events_from_jsonl("not json\n").is_err());
    }

    #[test]
    fn sort_orders_by_tick_layer_seq_scope() {
        let mut events = vec![
            sample(2, Layer::Controller, 0, 5),
            sample(1, Layer::Cluster, 3, 0),
            sample(1, Layer::Controller, 1, 4),
            sample(1, Layer::Controller, 0, 4),
        ];
        sort_events(&mut events);
        let keys: Vec<(u64, u32, u64)> = events.iter().map(|e| (e.tick, e.scope, e.seq)).collect();
        assert_eq!(keys, vec![(1, 0, 4), (1, 1, 4), (1, 3, 0), (2, 0, 5)]);
    }

    #[test]
    fn render_mentions_cause_and_attrs() {
        let mut event = sample(9, Layer::Cluster, 4, 1);
        event.cause = Some(EventId { scope: 1, seq: 33 });
        assert_eq!(
            event.render(),
            "4:1 t=9 [cluster] throttle cell:4 count=3 proactive=true <- 1:33"
        );
    }

    /// `scope:seq`, caused by `cause` (same scope).
    fn linked(scope: u32, seq: u64, kind: EventKind, cause: Option<(u32, u64)>) -> EventRecord {
        EventRecord {
            kind,
            cause: cause.map(|(scope, seq)| EventId { scope, seq }),
            ..sample(seq, Layer::Controller, scope, seq)
        }
    }

    #[test]
    fn chain_walks_migrate_back_to_the_predictor_verdict() {
        // The storm-cluster shape: cluster migrate <- host slo-violation
        // <- predictor verdict, spread over two recorder scopes.
        let events = vec![
            linked(2, 31, EventKind::PredictorVerdict, None),
            linked(2, 33, EventKind::SloViolation, Some((2, 31))),
            linked(4, 3, EventKind::Migrate, Some((2, 33))),
            linked(2, 34, EventKind::Throttle, Some((2, 33))),
        ];
        let chain = causal_chain(&events, EventId { scope: 4, seq: 3 }).unwrap();
        let kinds: Vec<EventKind> = chain.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Migrate,
                EventKind::SloViolation,
                EventKind::PredictorVerdict
            ]
        );
        // A root event is a one-hop chain.
        assert_eq!(
            causal_chain(&events, EventId { scope: 2, seq: 31 })
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn chain_reports_cycles_and_missing_links_as_typed_errors() {
        let cyclic = vec![
            linked(2, 0, EventKind::Throttle, Some((2, 1))),
            linked(2, 1, EventKind::Throttle, Some((2, 0))),
        ];
        let start = EventId { scope: 2, seq: 1 };
        assert_eq!(causal_chain(&cyclic, start), Err(ChainError::Cycle(start)));
        let self_caused = vec![linked(0, 0, EventKind::Resume, Some((0, 0)))];
        let id = EventId { scope: 0, seq: 0 };
        assert_eq!(causal_chain(&self_caused, id), Err(ChainError::Cycle(id)));

        let dangling = vec![linked(1, 5, EventKind::Throttle, Some((1, 4)))];
        let gone = EventId { scope: 1, seq: 4 };
        assert_eq!(
            causal_chain(&dangling, EventId { scope: 1, seq: 5 }),
            Err(ChainError::Missing(gone))
        );
        assert_eq!(causal_chain(&[], gone), Err(ChainError::Missing(gone)));
        assert_eq!(
            ChainError::Missing(gone).to_string(),
            "event 1:4 not found in the stream"
        );
    }
}
