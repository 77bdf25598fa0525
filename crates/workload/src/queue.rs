//! The engine's event queue: it orders only the control tick that is open.
//!
//! Pop order is the `(time_ns, seq)` order of one global binary heap —
//! `seq` is the push counter, so ties break by insertion — but only the
//! events the open tick can reach are ever compared:
//!
//! - an event due in a *later* tick is appended, unsorted, to that tick's
//!   bucket. Buckets are keyed sparsely by tick in an ordered map and
//!   emptied `Vec`s are recycled, so a keepalive timer twenty ticks out or
//!   an arrival a day ahead costs one entry while it waits;
//! - when [`EventQueue::open_tick`] opens a tick, its bucket is sorted
//!   once and consumed from the end;
//! - an event scheduled *during* the open tick *for* the open tick goes
//!   through a binary heap that holds only such events — tens, not the
//!   whole backlog;
//! - each tenant's single pending native arrival sits in a per-tenant
//!   slot, with the soonest slot cached.
//!
//! [`EventQueue::pop_due`] takes the minimum of those three heads. The
//! module's property test drives the queue and a plain
//! `BinaryHeap<Reverse<(time_ns, seq)>>` with the same script and requires
//! the same pop sequence.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// A request arrives at `tenant`.
    Arrival { tenant: usize },
    /// A deploying container finishes its cold start.
    ContainerReady {
        tenant: usize,
        slot: usize,
        gen: u64,
    },
    /// A running invocation completes.
    Completion { tenant: usize, inv: usize, gen: u64 },
    /// An idle warm container's keepalive window expires.
    IdleExpire {
        tenant: usize,
        slot: usize,
        gen: u64,
    },
    /// An externally generated request arrives at `tenant` (cluster-routed
    /// job traffic). Carries its nominal service time, so processing it
    /// consumes no host RNG stream: the request timeline stays a pure
    /// function of whoever generated it, not of where it was routed.
    Injected { tenant: usize, nominal_ns: u64 },
}

impl EventKind {
    pub(crate) fn discriminant(&self) -> u64 {
        match self {
            EventKind::Arrival { .. } => 0,
            EventKind::ContainerReady { .. } => 1,
            EventKind::Completion { .. } => 2,
            EventKind::IdleExpire { .. } => 3,
            EventKind::Injected { .. } => 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    pub(crate) time_ns: u64,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

/// `(time_ns, seq)`: the total order events pop in.
type Key = (u64, u64);

/// The key of an empty head. `seq` counts pushes and never reaches
/// `u64::MAX`, so every real key sorts before it — and its time is never
/// before the end of any tick.
const NO_EVENT: Key = (u64::MAX, u64::MAX);

impl Event {
    fn key(&self) -> Key {
        (self.time_ns, self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
pub(crate) struct EventQueue {
    period_ns: u64,
    /// End (exclusive) of the open tick; 0 until the first tick opens.
    /// Events due before it are ordered, events at or after it wait in
    /// `far`.
    open_end_ns: u64,
    /// Events pushed so far: the next event's `seq`.
    seq: u64,
    /// The open tick's bucket, sorted latest-first and consumed from the
    /// end.
    due: Vec<Event>,
    /// Events pushed for the open tick after it opened.
    near: BinaryHeap<Reverse<Event>>,
    /// Unsorted events of later ticks, keyed by `time_ns / period_ns`.
    far: BTreeMap<u64, Vec<Event>>,
    /// Emptied buckets, kept for their capacity.
    spare: Vec<Vec<Event>>,
    /// Pending native arrival of each tenant, by tenant index.
    arrivals: Vec<Option<Key>>,
    /// The least key in `arrivals` and its tenant.
    soonest: Option<(Key, usize)>,
}

impl EventQueue {
    /// An empty queue over ticks of `period_ns` (positive) nanoseconds,
    /// no tick open yet.
    pub(crate) fn new(period_ns: u64) -> Self {
        EventQueue {
            period_ns,
            open_end_ns: 0,
            seq: 0,
            due: Vec::new(),
            near: BinaryHeap::new(),
            far: BTreeMap::new(),
            spare: Vec::new(),
            arrivals: Vec::new(),
            soonest: None,
        }
    }

    /// Schedules `kind` at `time_ns` under the next sequence number.
    pub(crate) fn push(&mut self, time_ns: u64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        if let EventKind::Arrival { tenant } = kind {
            if self.arrivals.len() <= tenant {
                self.arrivals.resize(tenant + 1, None);
            }
            // The engine keeps one native arrival pending per tenant; a
            // second one for the same tenant takes the general path.
            if self.arrivals[tenant].is_none() {
                let key = (time_ns, seq);
                self.arrivals[tenant] = Some(key);
                if self.soonest.is_none_or(|(head, _)| key < head) {
                    self.soonest = Some((key, tenant));
                }
                return;
            }
        }
        let event = Event { time_ns, seq, kind };
        if time_ns < self.open_end_ns {
            self.near.push(Reverse(event));
        } else {
            let spare = &mut self.spare;
            self.far
                .entry(time_ns / self.period_ns)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(event);
        }
    }

    /// Opens control tick `tick` — events due before its end become
    /// poppable — and returns that end, `(tick + 1) · period` in
    /// nanoseconds, saturating at the end of the `u64` clock.
    pub(crate) fn open_tick(&mut self, tick: u64) -> u64 {
        self.open_end_ns = tick.saturating_add(1).saturating_mul(self.period_ns);
        let mut grew = false;
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() > tick {
                break;
            }
            let mut bucket = entry.remove();
            self.due.append(&mut bucket);
            self.spare.push(bucket);
            grew = true;
        }
        if grew {
            self.due.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.open_end_ns
    }

    /// Removes and returns the earliest event due before the end of the
    /// open tick, in `(time_ns, seq)` order; `None` once the tick is
    /// drained.
    pub(crate) fn pop_due(&mut self) -> Option<Event> {
        let due = self.due.last().map_or(NO_EVENT, Event::key);
        let near = self.near.peek().map_or(NO_EVENT, |Reverse(e)| e.key());
        let arrival = self.soonest.map_or(NO_EVENT, |(key, _)| key);
        let head = due.min(near).min(arrival);
        if head.0 >= self.open_end_ns {
            return None;
        }
        // Keys are unique, so the head's key names its source.
        if head == due {
            self.due.pop()
        } else if head == near {
            self.near.pop().map(|Reverse(event)| event)
        } else {
            let (_, tenant) = self.soonest?;
            self.arrivals[tenant] = None;
            self.soonest = self
                .arrivals
                .iter()
                .enumerate()
                .filter_map(|(tenant, key)| key.map(|key| (key, tenant)))
                .min();
            Some(Event {
                time_ns: head.0,
                seq: head.1,
                kind: EventKind::Arrival { tenant },
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const PERIOD: u64 = 1_000;
    const DAY: u64 = 86_400 * PERIOD;

    /// The reference: one global heap of keys, popped while the head is
    /// due before the end of the open tick.
    struct Reference {
        heap: BinaryHeap<Reverse<Key>>,
        kinds: Vec<EventKind>,
        open_end_ns: u64,
    }

    impl Reference {
        fn push(&mut self, time_ns: u64, kind: EventKind) {
            self.heap.push(Reverse((time_ns, self.kinds.len() as u64)));
            self.kinds.push(kind);
        }

        fn pop_due(&mut self) -> Option<Event> {
            let Reverse((time_ns, seq)) = *self.heap.peek()?;
            if time_ns >= self.open_end_ns {
                return None;
            }
            self.heap.pop();
            let kind = self.kinds[seq as usize];
            Some(Event { time_ns, seq, kind })
        }
    }

    /// Runs one script against both queues. Each step is `(op, where,
    /// jitter)`; a push lands relative to the open tick as `where` says.
    fn agree(script: &[(u8, u8, u64)], drain_each_tick: bool) -> Result<(), TestCaseError> {
        let mut queue = EventQueue::new(PERIOD);
        let mut model = Reference {
            heap: BinaryHeap::new(),
            kinds: Vec::new(),
            open_end_ns: 0,
        };
        let mut tick = 0u64; // the next tick to open
        let mut last_time = 0u64;
        let mut popped = 0usize;
        let pop_both = |queue: &mut EventQueue, model: &mut Reference| {
            let (got, want) = (queue.pop_due(), model.pop_due());
            prop_assert_eq!(got, want);
            Ok(got.is_some())
        };
        for &(op, place, jitter) in script {
            let start = model.open_end_ns.saturating_sub(PERIOD);
            let end = model.open_end_ns;
            match op {
                // Push a timer / completion / injected request.
                0..=4 => {
                    let time_ns = match place % 8 {
                        0 | 1 => start + jitter % PERIOD, // inside the open tick
                        2 => end,                         // exactly at its end
                        3 => end + jitter % PERIOD,       // the next tick (between ticks)
                        4 => end + (1 + jitter % 30) * PERIOD + jitter % 7, // many ticks ahead
                        5 => start + DAY + jitter % PERIOD, // a full day ahead
                        6 => last_time,                   // same instant, later seq
                        _ => start.saturating_sub(jitter % PERIOD), // already past
                    };
                    last_time = time_ns;
                    let tenant = (jitter % 5) as usize;
                    let kind = match op {
                        0 => EventKind::IdleExpire {
                            tenant,
                            slot: 1,
                            gen: jitter,
                        },
                        1 | 2 => EventKind::Completion {
                            tenant,
                            inv: 2,
                            gen: jitter,
                        },
                        3 => EventKind::ContainerReady {
                            tenant,
                            slot: 3,
                            gen: jitter,
                        },
                        _ => EventKind::Injected {
                            tenant,
                            nominal_ns: jitter,
                        },
                    };
                    queue.push(time_ns, kind);
                    model.push(time_ns, kind);
                }
                // Push a native arrival: usually into an empty slot
                // (replacing what a pop took), sometimes onto a full one.
                5 | 6 => {
                    let time_ns = match place % 4 {
                        0 | 1 => start + jitter % (2 * PERIOD),
                        2 => last_time,
                        _ => end + jitter % DAY,
                    };
                    last_time = time_ns;
                    let kind = EventKind::Arrival {
                        tenant: (place % 3) as usize,
                    };
                    queue.push(time_ns, kind);
                    model.push(time_ns, kind);
                }
                // Open the next tick, or skip a few (empty or not).
                7 => {
                    if place % 4 == 0 {
                        tick += jitter % 4;
                    }
                    model.open_end_ns = (tick + 1) * PERIOD;
                    prop_assert_eq!(queue.open_tick(tick), model.open_end_ns);
                    tick += 1;
                    if drain_each_tick {
                        while pop_both(&mut queue, &mut model)? {
                            popped += 1;
                        }
                    }
                }
                // Pop a few.
                _ => {
                    for _ in 0..=place % 8 {
                        if pop_both(&mut queue, &mut model)? {
                            popped += 1;
                        }
                    }
                }
            }
        }
        // Everything still queued comes out in order, day-ahead events
        // included.
        let horizon = tick + 2 * DAY / PERIOD;
        model.open_end_ns = (horizon + 1) * PERIOD;
        queue.open_tick(horizon);
        while pop_both(&mut queue, &mut model)? {
            popped += 1;
        }
        prop_assert_eq!(popped, model.kinds.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The engine's usage: every opened tick is drained before the
        /// next opens.
        #[test]
        fn pops_like_one_global_heap_when_each_tick_is_drained(
            script in proptest::collection::vec((0u8..10, 0u8..8, 0u64..1_000_000), 1..400),
        ) {
            agree(&script, true)?;
        }

        /// Beyond it: ticks opened over leftovers, pops interleaved
        /// anywhere.
        #[test]
        fn pops_like_one_global_heap_under_any_interleaving(
            script in proptest::collection::vec((0u8..10, 0u8..8, 0u64..1_000_000), 1..400),
        ) {
            agree(&script, false)?;
        }
    }

    #[test]
    fn far_events_cost_one_entry_and_buckets_are_recycled() {
        let mut queue = EventQueue::new(PERIOD);
        queue.push(
            DAY + 5,
            EventKind::Injected {
                tenant: 0,
                nominal_ns: 1,
            },
        );
        assert_eq!(queue.far.len(), 1, "a day ahead is one bucket, not a ring");
        for tick in 0..3 {
            queue.push(
                tick * PERIOD + 7,
                EventKind::Injected {
                    tenant: 0,
                    nominal_ns: 1,
                },
            );
            queue.open_tick(tick);
            assert!(queue.pop_due().is_some());
            assert!(queue.pop_due().is_none());
        }
        // Three buckets were opened and emptied; one Vec served them all.
        assert_eq!(queue.spare.len(), 1);
        assert_eq!(queue.far.len(), 1);
    }

    #[test]
    fn nothing_is_due_before_a_tick_opens() {
        let mut queue = EventQueue::new(PERIOD);
        queue.push(0, EventKind::Arrival { tenant: 0 });
        queue.push(
            0,
            EventKind::Injected {
                tenant: 0,
                nominal_ns: 1,
            },
        );
        assert_eq!(queue.pop_due(), None);
        queue.open_tick(0);
        assert_eq!(queue.pop_due().map(|e| e.seq), Some(0));
        assert_eq!(queue.pop_due().map(|e| e.seq), Some(1));
        assert_eq!(queue.pop_due(), None);
    }
}
