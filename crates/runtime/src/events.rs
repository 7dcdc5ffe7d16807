//! Control-plane event tracing: a fixed-capacity ring of timestamped,
//! structured events, exportable as Chrome trace-event JSON.
//!
//! Every consequential control-plane action leaves a record here: epoch
//! publication and per-shard acknowledgement, module load/update/unload,
//! incremental rule installs, reconfiguration windows, state export/inject,
//! shard retirement, RETA rewrites, log compaction, and whole-resize spans.
//! The data path never writes to the trace — emission sits on the control
//! paths (`publish`, `reshard`, `compact_log`) and the per-epoch
//! acknowledgement in the shard loop, all of which are off the per-packet
//! hot path — so tracing is always on and costs nothing per packet.
//!
//! The buffer is a bounded ring: when it fills, the *oldest* events are
//! dropped (and counted in [`EventTrace::dropped`]) so a long-running
//! runtime keeps its most recent history rather than its oldest.
//!
//! [`EventTrace::to_chrome_trace`] renders the ring in the Chrome
//! trace-event format — load the file in `chrome://tracing` or Perfetto
//! and a full reshard reads as a story: the resize span (`ph: "X"`) over
//! the control track, with export/inject/retire/RETA instants inside it
//! and per-shard acknowledgement instants on each shard's own track.
//! [`chrome_trace_to_events`] parses that JSON back into structured events
//! (the round-trip the test suite pins down).

use menshen_json::Json;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Default event-ring capacity (events, not bytes).
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// One timestamped control-plane event. Timestamps are nanoseconds since
/// the runtime's clock origin (the same base as every latency stamp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlEvent {
    /// Nanoseconds since runtime start.
    pub ts_ns: u64,
    /// What happened.
    pub kind: ControlEventKind,
}

/// The structured payload of a control-plane event.
///
/// Fields are `u64` across the board so the Chrome-trace `args` round-trip
/// is exact (JSON numbers are doubles; every value here is far below
/// 2^53).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlEventKind {
    /// A control batch became epoch `epoch` with `ops` operations.
    EpochPublished {
        /// The published epoch.
        epoch: u64,
        /// Operations in the batch.
        ops: u64,
    },
    /// Shard `shard` finished applying epoch `epoch` (the ack).
    EpochApplied {
        /// The acknowledged epoch.
        epoch: u64,
        /// The acknowledging shard.
        shard: u64,
    },
    /// A module was loaded.
    ModuleLoaded {
        /// The module ID.
        module: u64,
    },
    /// A module was hitlessly updated.
    ModuleUpdated {
        /// The module ID.
        module: u64,
    },
    /// A module was unloaded.
    ModuleUnloaded {
        /// The module ID.
        module: u64,
    },
    /// Incremental rules were installed into one module stage.
    RulesInstalled {
        /// The module ID.
        module: u64,
        /// The target stage.
        stage: u64,
        /// Rules in the batch.
        rules: u64,
    },
    /// A reconfiguration window opened for a module.
    ReconfigBegan {
        /// The module ID.
        module: u64,
    },
    /// A reconfiguration window closed.
    ReconfigEnded {
        /// The module ID.
        module: u64,
    },
    /// A statistics snapshot was requested of every shard.
    SnapshotRequested {
        /// The epoch carrying the request.
        epoch: u64,
    },
    /// The acknowledged log prefix was dropped from the log.
    LogCompacted {
        /// The new base epoch.
        through_epoch: u64,
        /// Entries dropped from the live log.
        entries_dropped: u64,
    },
    /// A live resize began.
    ResizeStarted {
        /// Shards before.
        from_shards: u64,
        /// Shards after.
        to_shards: u64,
    },
    /// Tenant state was extracted for migration.
    StateExported {
        /// Modules whose state was exported.
        modules: u64,
        /// Export applied to shards at or beyond this index.
        from_shard: u64,
    },
    /// Migrated state was injected into a shard.
    StateInjected {
        /// The receiving shard.
        shard: u64,
        /// Modules injected.
        modules: u64,
    },
    /// Shards at or beyond `kept` were retired.
    ShardsRetired {
        /// Surviving shard count.
        kept: u64,
    },
    /// The RSS indirection table was rewritten.
    RetaRewritten {
        /// RETA entries.
        buckets: u64,
        /// Active shard count after the rewrite.
        shards: u64,
    },
    /// A worker shard died (panic caught and contained) and was taken out
    /// of the steering table.
    ShardFailed {
        /// The dead shard.
        shard: u64,
        /// Nanoseconds between the worker's death and the supervisor
        /// noticing it.
        detection_ns: u64,
    },
    /// A shard stopped making progress while its rings held work — routed
    /// around, but left running in case it wakes.
    ShardWedged {
        /// The wedged shard.
        shard: u64,
        /// Nanoseconds since the shard's last heartbeat.
        stalled_ns: u64,
    },
    /// A failed shard was replaced by a standby replica and steered back in.
    ShardRecovered {
        /// The recovered shard slot.
        shard: u64,
        /// Nanoseconds the slot was out of service (death to re-steer).
        pause_ns: u64,
        /// In-flight packets that could not be recovered.
        lost: u64,
    },
    /// A live resize completed (rendered as a Chrome duration span).
    ResizeCompleted {
        /// Shards before.
        from_shards: u64,
        /// Shards after.
        to_shards: u64,
        /// When the resize began (nanoseconds since runtime start).
        start_ns: u64,
        /// The measured packet-visible pause, nanoseconds.
        pause_ns: u64,
        /// Modules whose state migrated.
        migrated_modules: u64,
        /// Stateful words migrated.
        migrated_words: u64,
    },
}

impl ControlEventKind {
    /// The event's Chrome-trace name (also the discriminator the importer
    /// matches on).
    pub fn name(&self) -> &'static str {
        match self {
            ControlEventKind::EpochPublished { .. } => "epoch_published",
            ControlEventKind::EpochApplied { .. } => "epoch_applied",
            ControlEventKind::ModuleLoaded { .. } => "module_loaded",
            ControlEventKind::ModuleUpdated { .. } => "module_updated",
            ControlEventKind::ModuleUnloaded { .. } => "module_unloaded",
            ControlEventKind::RulesInstalled { .. } => "rules_installed",
            ControlEventKind::ReconfigBegan { .. } => "reconfig_began",
            ControlEventKind::ReconfigEnded { .. } => "reconfig_ended",
            ControlEventKind::SnapshotRequested { .. } => "snapshot_requested",
            ControlEventKind::LogCompacted { .. } => "log_compacted",
            ControlEventKind::ResizeStarted { .. } => "resize_started",
            ControlEventKind::StateExported { .. } => "state_exported",
            ControlEventKind::StateInjected { .. } => "state_injected",
            ControlEventKind::ShardsRetired { .. } => "shards_retired",
            ControlEventKind::RetaRewritten { .. } => "reta_rewritten",
            ControlEventKind::ShardFailed { .. } => "shard_failed",
            ControlEventKind::ShardWedged { .. } => "shard_wedged",
            ControlEventKind::ShardRecovered { .. } => "shard_recovered",
            ControlEventKind::ResizeCompleted { .. } => "resize_completed",
        }
    }

    /// The event's argument fields as `(key, value)` pairs, in declaration
    /// order.
    fn args(&self) -> Vec<(&'static str, u64)> {
        match *self {
            ControlEventKind::EpochPublished { epoch, ops } => {
                vec![("epoch", epoch), ("ops", ops)]
            }
            ControlEventKind::EpochApplied { epoch, shard } => {
                vec![("epoch", epoch), ("shard", shard)]
            }
            ControlEventKind::ModuleLoaded { module } => vec![("module", module)],
            ControlEventKind::ModuleUpdated { module } => vec![("module", module)],
            ControlEventKind::ModuleUnloaded { module } => vec![("module", module)],
            ControlEventKind::RulesInstalled {
                module,
                stage,
                rules,
            } => vec![("module", module), ("stage", stage), ("rules", rules)],
            ControlEventKind::ReconfigBegan { module } => vec![("module", module)],
            ControlEventKind::ReconfigEnded { module } => vec![("module", module)],
            ControlEventKind::SnapshotRequested { epoch } => vec![("epoch", epoch)],
            ControlEventKind::LogCompacted {
                through_epoch,
                entries_dropped,
            } => vec![
                ("through_epoch", through_epoch),
                ("entries_dropped", entries_dropped),
            ],
            ControlEventKind::ResizeStarted {
                from_shards,
                to_shards,
            } => vec![("from_shards", from_shards), ("to_shards", to_shards)],
            ControlEventKind::StateExported {
                modules,
                from_shard,
            } => vec![("modules", modules), ("from_shard", from_shard)],
            ControlEventKind::StateInjected { shard, modules } => {
                vec![("shard", shard), ("modules", modules)]
            }
            ControlEventKind::ShardsRetired { kept } => vec![("kept", kept)],
            ControlEventKind::RetaRewritten { buckets, shards } => {
                vec![("buckets", buckets), ("shards", shards)]
            }
            ControlEventKind::ShardFailed {
                shard,
                detection_ns,
            } => vec![("shard", shard), ("detection_ns", detection_ns)],
            ControlEventKind::ShardWedged { shard, stalled_ns } => {
                vec![("shard", shard), ("stalled_ns", stalled_ns)]
            }
            ControlEventKind::ShardRecovered {
                shard,
                pause_ns,
                lost,
            } => vec![("shard", shard), ("pause_ns", pause_ns), ("lost", lost)],
            ControlEventKind::ResizeCompleted {
                from_shards,
                to_shards,
                start_ns,
                pause_ns,
                migrated_modules,
                migrated_words,
            } => vec![
                ("from_shards", from_shards),
                ("to_shards", to_shards),
                ("start_ns", start_ns),
                ("pause_ns", pause_ns),
                ("migrated_modules", migrated_modules),
                ("migrated_words", migrated_words),
            ],
        }
    }

    /// The Chrome-trace thread ID this event renders on: shard events on
    /// their shard's track (tid = shard + 1), control-plane events on
    /// track 0.
    fn tid(&self) -> u64 {
        match *self {
            ControlEventKind::EpochApplied { shard, .. } => shard + 1,
            ControlEventKind::StateInjected { shard, .. } => shard + 1,
            ControlEventKind::ShardFailed { shard, .. } => shard + 1,
            ControlEventKind::ShardWedged { shard, .. } => shard + 1,
            ControlEventKind::ShardRecovered { shard, .. } => shard + 1,
            _ => 0,
        }
    }
}

impl ControlEvent {
    /// Renders one Chrome trace-event object. Instant events use `ph: "i"`
    /// with global scope; [`ControlEventKind::ResizeCompleted`] becomes a
    /// complete-span `ph: "X"` covering the whole resize. The exact
    /// nanosecond timestamp rides along in `args.ts_ns` (Chrome's `ts` is
    /// microseconds, which would otherwise lose precision).
    pub fn to_chrome(&self) -> Json {
        let mut args: Vec<(String, Json)> = self
            .kind
            .args()
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Json::from(v)))
            .collect();
        args.push(("ts_ns".to_owned(), Json::from(self.ts_ns)));
        let mut event = Json::obj([
            ("name", Json::from(self.kind.name())),
            ("cat", Json::from("control")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(self.kind.tid())),
            ("args", Json::obj(args)),
        ]);
        match self.kind {
            ControlEventKind::ResizeCompleted { start_ns, .. } => {
                event.set("ph", Json::from("X"));
                event.set("ts", Json::from(start_ns as f64 / 1_000.0));
                event.set(
                    "dur",
                    Json::from(self.ts_ns.saturating_sub(start_ns) as f64 / 1_000.0),
                );
            }
            _ => {
                event.set("ph", Json::from("i"));
                event.set("s", Json::from("g"));
                event.set("ts", Json::from(self.ts_ns as f64 / 1_000.0));
            }
        }
        event
    }

    /// Parses one Chrome trace-event object produced by
    /// [`to_chrome`](Self::to_chrome) back into a structured event.
    pub fn from_chrome(event: &Json) -> Result<ControlEvent, String> {
        let name = match event.get("name") {
            Some(Json::Str(name)) => name.as_str(),
            other => return Err(format!("event without a name: {other:?}")),
        };
        let args = event.get("args").ok_or("event without args")?;
        let field = |key: &str| -> Result<u64, String> {
            match args.get(key) {
                Some(Json::Num(value)) => Ok(*value as u64),
                other => Err(format!("{name}: missing numeric arg {key:?}: {other:?}")),
            }
        };
        let kind = match name {
            "epoch_published" => ControlEventKind::EpochPublished {
                epoch: field("epoch")?,
                ops: field("ops")?,
            },
            "epoch_applied" => ControlEventKind::EpochApplied {
                epoch: field("epoch")?,
                shard: field("shard")?,
            },
            "module_loaded" => ControlEventKind::ModuleLoaded {
                module: field("module")?,
            },
            "module_updated" => ControlEventKind::ModuleUpdated {
                module: field("module")?,
            },
            "module_unloaded" => ControlEventKind::ModuleUnloaded {
                module: field("module")?,
            },
            "rules_installed" => ControlEventKind::RulesInstalled {
                module: field("module")?,
                stage: field("stage")?,
                rules: field("rules")?,
            },
            "reconfig_began" => ControlEventKind::ReconfigBegan {
                module: field("module")?,
            },
            "reconfig_ended" => ControlEventKind::ReconfigEnded {
                module: field("module")?,
            },
            "snapshot_requested" => ControlEventKind::SnapshotRequested {
                epoch: field("epoch")?,
            },
            "log_compacted" => ControlEventKind::LogCompacted {
                through_epoch: field("through_epoch")?,
                entries_dropped: field("entries_dropped")?,
            },
            "resize_started" => ControlEventKind::ResizeStarted {
                from_shards: field("from_shards")?,
                to_shards: field("to_shards")?,
            },
            "state_exported" => ControlEventKind::StateExported {
                modules: field("modules")?,
                from_shard: field("from_shard")?,
            },
            "state_injected" => ControlEventKind::StateInjected {
                shard: field("shard")?,
                modules: field("modules")?,
            },
            "shards_retired" => ControlEventKind::ShardsRetired {
                kept: field("kept")?,
            },
            "reta_rewritten" => ControlEventKind::RetaRewritten {
                buckets: field("buckets")?,
                shards: field("shards")?,
            },
            "shard_failed" => ControlEventKind::ShardFailed {
                shard: field("shard")?,
                detection_ns: field("detection_ns")?,
            },
            "shard_wedged" => ControlEventKind::ShardWedged {
                shard: field("shard")?,
                stalled_ns: field("stalled_ns")?,
            },
            "shard_recovered" => ControlEventKind::ShardRecovered {
                shard: field("shard")?,
                pause_ns: field("pause_ns")?,
                lost: field("lost")?,
            },
            "resize_completed" => ControlEventKind::ResizeCompleted {
                from_shards: field("from_shards")?,
                to_shards: field("to_shards")?,
                start_ns: field("start_ns")?,
                pause_ns: field("pause_ns")?,
                migrated_modules: field("migrated_modules")?,
                migrated_words: field("migrated_words")?,
            },
            unknown => return Err(format!("unknown event name {unknown:?}")),
        };
        Ok(ControlEvent {
            ts_ns: field("ts_ns")?,
            kind,
        })
    }
}

/// Parses a whole Chrome trace document (the `traceEvents` form that
/// [`EventTrace::to_chrome_trace`] produces) back into structured events.
pub fn chrome_trace_to_events(trace: &Json) -> Result<Vec<ControlEvent>, String> {
    let events = match trace.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => return Err(format!("no traceEvents array: {other:?}")),
    };
    events.iter().map(ControlEvent::from_chrome).collect()
}

struct TraceInner {
    events: VecDeque<ControlEvent>,
    dropped: u64,
}

/// The fixed-capacity control-plane event ring. Interior-mutable (a mutex,
/// acceptable because every writer is a control-plane path or a per-epoch
/// shard acknowledgement — never the per-packet hot path).
pub struct EventTrace {
    capacity: usize,
    inner: Mutex<TraceInner>,
}

impl Default for EventTrace {
    fn default() -> Self {
        EventTrace::with_capacity(DEFAULT_EVENT_CAPACITY)
    }
}

impl EventTrace {
    /// A trace ring holding at most `capacity` events (oldest evicted
    /// first). A zero capacity disables recording entirely.
    pub fn with_capacity(capacity: usize) -> Self {
        EventTrace {
            capacity,
            inner: Mutex::new(TraceInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn emit(&self, ts_ns: u64, kind: ControlEventKind) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("event trace poisoned");
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(ControlEvent { ts_ns, kind });
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<ControlEvent> {
        self.inner
            .lock()
            .expect("event trace poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event trace poisoned").dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("event trace poisoned")
            .events
            .len()
    }

    /// True when nothing has been recorded (or capacity is zero).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the ring as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`) — write it to a
    /// file and open it in `chrome://tracing` or Perfetto.
    pub fn to_chrome_trace(&self) -> Json {
        let events: Vec<Json> = self
            .inner
            .lock()
            .expect("event trace poisoned")
            .events
            .iter()
            .map(ControlEvent::to_chrome)
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<ControlEventKind> {
        vec![
            ControlEventKind::EpochPublished { epoch: 3, ops: 2 },
            ControlEventKind::EpochApplied { epoch: 3, shard: 1 },
            ControlEventKind::ModuleLoaded { module: 7 },
            ControlEventKind::ModuleUpdated { module: 7 },
            ControlEventKind::ModuleUnloaded { module: 7 },
            ControlEventKind::RulesInstalled {
                module: 7,
                stage: 2,
                rules: 10_000,
            },
            ControlEventKind::ReconfigBegan { module: 7 },
            ControlEventKind::ReconfigEnded { module: 7 },
            ControlEventKind::SnapshotRequested { epoch: 4 },
            ControlEventKind::LogCompacted {
                through_epoch: 4,
                entries_dropped: 3,
            },
            ControlEventKind::ResizeStarted {
                from_shards: 2,
                to_shards: 4,
            },
            ControlEventKind::StateExported {
                modules: 3,
                from_shard: 0,
            },
            ControlEventKind::StateInjected {
                shard: 2,
                modules: 3,
            },
            ControlEventKind::ShardsRetired { kept: 2 },
            ControlEventKind::RetaRewritten {
                buckets: 128,
                shards: 4,
            },
            ControlEventKind::ShardFailed {
                shard: 1,
                detection_ns: 40_000,
            },
            ControlEventKind::ShardWedged {
                shard: 2,
                stalled_ns: 9_000_000,
            },
            ControlEventKind::ShardRecovered {
                shard: 1,
                pause_ns: 600_000,
                lost: 17,
            },
            ControlEventKind::ResizeCompleted {
                from_shards: 2,
                to_shards: 4,
                start_ns: 1_000_000,
                pause_ns: 250_000,
                migrated_modules: 3,
                migrated_words: 4096,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_chrome_json() {
        let trace = EventTrace::default();
        for (index, kind) in every_kind().into_iter().enumerate() {
            trace.emit(1_000_000 + index as u64 * 500, kind);
        }
        let original = trace.events();
        // Through the exporter, through text, through the parser, back.
        let text = trace.to_chrome_trace().pretty();
        let parsed = Json::parse(&text).expect("chrome trace parses as JSON");
        let recovered = chrome_trace_to_events(&parsed).expect("events reconstruct");
        assert_eq!(recovered, original, "lossless round trip");
    }

    #[test]
    fn chrome_events_carry_required_viewer_fields() {
        let event = ControlEvent {
            ts_ns: 2_500,
            kind: ControlEventKind::EpochApplied { epoch: 1, shard: 3 },
        };
        let json = event.to_chrome();
        for key in ["name", "ph", "ts", "pid", "tid", "args"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.get("tid"), Some(&Json::from(4u64)), "shard track");
        let span = ControlEvent {
            ts_ns: 9_000,
            kind: ControlEventKind::ResizeCompleted {
                from_shards: 1,
                to_shards: 2,
                start_ns: 4_000,
                pause_ns: 1_000,
                migrated_modules: 1,
                migrated_words: 0,
            },
        }
        .to_chrome();
        assert_eq!(span.get("ph"), Some(&Json::from("X")));
        assert_eq!(
            span.get("ts"),
            Some(&Json::from(4.0)),
            "span starts at start_ns"
        );
        assert_eq!(
            span.get("dur"),
            Some(&Json::from(5.0)),
            "span covers the resize"
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let trace = EventTrace::with_capacity(3);
        for epoch in 1..=5u64 {
            trace.emit(
                epoch * 10,
                ControlEventKind::EpochPublished { epoch, ops: 1 },
            );
        }
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.dropped(), 2);
        let epochs: Vec<u64> = trace
            .events()
            .iter()
            .map(|e| match e.kind {
                ControlEventKind::EpochPublished { epoch, .. } => epoch,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(epochs, vec![3, 4, 5], "oldest evicted first");

        let disabled = EventTrace::with_capacity(0);
        disabled.emit(1, ControlEventKind::ShardsRetired { kept: 1 });
        assert!(disabled.is_empty());
        assert_eq!(disabled.dropped(), 0);
    }
}
