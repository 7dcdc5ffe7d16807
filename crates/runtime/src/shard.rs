//! The shard core, and the worker threads of the dispatch plane: shards and
//! dispatchers.
//!
//! A **shard** is deliberately boring — that is the point of the design. Its
//! `ShardCore` owns a full [`MenshenPipeline`] replica and has two
//! methods: `catch_up` applies pending control-plane epochs (in published
//! order), and `step` runs one burst through the allocation-free batched
//! data path and books it. Both backends run that one core: the
//! deterministic runtime keeps its cores in-process, and a threaded worker
//! loops over catch up, pop the next burst from one of its SPSC input rings
//! (one ring per dispatcher, drained round-robin, all sharing one [`Parker`]
//! so any producer can wake an idle shard), step, and send the spent frames
//! home over its return ring so the thread that allocated them is the one
//! that frees them.
//! All cross-thread coordination happens at burst granularity through the
//! shared state: the epoch log on the way in, the progress board
//! (applied epoch, bursts completed, traffic tallies, on-demand snapshots)
//! on the way out.
//!
//! A **dispatcher** is one thread of the parallel dispatch plane
//! (`RuntimeOptions::dispatchers ≥ 1`): it pops raw packet chunks from its
//! own input ring (the model of one NIC RX queue), steers every packet with
//! its own [`crate::Steerer`] clone into per-shard scratch, and hands full
//! bursts to its row of shard rings — so ring synchronisation happens once
//! per (dispatcher, shard, burst), never per packet. Partial bursts are
//! flushed whenever the input ring runs dry, which is exactly the quiesce
//! point the control plane's flush barrier waits for.
//!
//! Each shard keeps one [`ShardTelemetry`] record: per-packet sojourn time
//! (ring wait + service, measured from the ingress stamp in
//! [`menshen_packet::Packet::timestamp_ns`]), per-burst service time and a
//! per-tenant ledger. Recording is shard-local and lock-free; the control
//! plane only sees the record when a `Snapshot` epoch exports it, completed
//! with the replica's stage profile and link counters, inside a
//! [`ShardSnapshot`] beside the live-only gauges (per-module counters,
//! input-ring depth). The runtime folds every exported record — and the
//! records of shards that are gone — with the one `ShardTelemetry::merge`.

use crate::control::{EpochEntry, EpochLog};
use crate::events::{ControlEventKind, EventTrace};
use crate::faults::{FaultPlan, WorkerFault};
use crate::ring::{Consumer, Parker, Producer, PushError};
use crate::rss::Steerer;
use menshen_core::{
    BaselineMismatch, LatencyHistogram, MenshenPipeline, ModuleCounters, ModuleState, StageProfile,
    StateDigest, TenantTelemetry, Verdict,
};
use menshen_packet::Packet;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A plain vector of packets on the move: one chunk of raw ingress packets
/// through a *dispatcher's* input ring (not yet steered), or one spent burst
/// through a shard's *return* ring, on its way back to the thread that
/// allocated its frames.
pub(crate) type Burst = Vec<Packet>;

/// What travels through a *shard's* input ring: one burst of steered
/// packets plus the state digests of packets the replicated-module plane
/// steered elsewhere. Digests are bookkeeping, not traffic — only
/// `packets` feeds the dispatch tallies, the flush barrier and the
/// conservation audit.
///
/// Frame lifecycle: the caller of `submit_owned` allocates the frames, the
/// dispatch plane moves them into `packets`, the input ring carries the
/// burst to the shard, and once the shard is done with it `packets` rides
/// the shard's return ring back to the caller's thread, which frees the
/// frames and keeps the emptied vector for a later burst. The shard only
/// ever *borrows* the frames; what it allocates itself (the rewritten clone
/// inside a forwarding verdict) it also frees itself.
#[derive(Debug, Default)]
pub(crate) struct ShardBurst {
    /// Steered packets, processed by the shard's pipeline replica.
    pub packets: Burst,
    /// State digests of replicated-module packets owned by *other* shards,
    /// interleaved with `packets` via [`StateDigest::before`]: a digest
    /// replays after `packets[..before]` and before `packets[before..]`.
    /// `before` values are nondecreasing within a burst.
    pub digests: Vec<StateDigest>,
}

/// A transmit hook the data plane invokes once per processed packet, with
/// the *original* ingress packet (its `ingress_port` names the rx queue it
/// arrived on) and the verdict the pipeline produced (which carries the
/// rewritten packet for forwards). Socket backends implement this to echo
/// verdicts back out of the box; in threaded mode it is the only way packet
/// outcomes leave the worker threads, whose verdict streams are otherwise
/// consumed as telemetry.
///
/// Every shard, threaded or deterministic, calls `transmit` on the hot path,
/// after the burst's pipeline pass and before its progress-board update — so
/// by the time a flush barrier returns, every processed packet has been
/// handed to the sink.
/// Implementations must be cheap and must never panic (a panicking sink
/// takes its worker shard down). Both references are valid for the call
/// only: the ingress packet goes home to the submitting thread right after
/// the burst, and the verdict's packet is overwritten by the next burst —
/// a sink that needs the bytes later copies them.
///
/// Install one with [`crate::ShardedRuntime::set_egress`]; shards adopt a
/// newly staged sink at their next burst boundary.
pub trait EgressSink: Send + Sync {
    /// Hands one processed packet and its verdict to the sink.
    fn transmit(&self, packet: &Packet, verdict: &Verdict);
}

/// Iterations a shard spins over its empty rings before parking.
const IDLE_SPIN_LIMIT: u32 = 128;

/// Per-shard traffic tallies, updated once per burst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Bursts processed.
    pub bursts: u64,
    /// Packets processed.
    pub packets: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped (all reasons).
    pub dropped: u64,
}

impl ShardStats {
    /// Adds another shard's tallies to these.
    pub(crate) fn merge(&mut self, other: &ShardStats) {
        self.bursts += other.bursts;
        self.packets += other.packets;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
    }
}

/// The runtime's one telemetry record: what a shard recorded, what a
/// retired shard left behind, and — merged — what the whole runtime
/// recorded. Every field merges exactly, so records folded in any order
/// equal one central recording.
#[derive(Debug, Clone, Default)]
pub struct ShardTelemetry {
    /// Per-packet latency: dispatcher ingress stamp → burst completion
    /// (queueing in the ring plus pipeline service).
    pub packet_ns: LatencyHistogram,
    /// Per-burst service time: the wall-clock cost of one
    /// `process_batch_into` call.
    pub burst_ns: LatencyHistogram,
    /// Per-tenant SLO telemetry (sojourn histogram + verdict ledger), keyed
    /// by module ID. Tenant 0 collects packets that carry no module ID (no
    /// VLAN tag, data-path reconfiguration packets).
    pub tenants: BTreeMap<u16, TenantTelemetry>,
    /// Sampled per-stage timing of the shard's replica (empty while its
    /// pipeline's sampling interval is 0). Filled in when the record is
    /// snapshotted.
    pub profile: StageProfile,
    /// Packets observed on the replica's ingress link, filled in when the
    /// record is snapshotted.
    pub link_packets: u64,
    /// Bytes observed on the replica's ingress link, filled in when the
    /// record is snapshotted.
    pub link_bytes: u64,
}

impl ShardTelemetry {
    /// Attributes one packet's verdict and sojourn to its tenant.
    pub fn record_verdict(&mut self, verdict: &Verdict, sojourn_ns: u64) {
        self.tenants
            .entry(verdict_tenant(verdict))
            .or_default()
            .record(verdict, sojourn_ns);
    }

    /// Folds another record in: histograms add bucket counts, tenant views
    /// and profiles merge, link counters add.
    pub(crate) fn merge(&mut self, other: &ShardTelemetry) {
        self.packet_ns.merge(&other.packet_ns);
        self.burst_ns.merge(&other.burst_ns);
        for (tenant, view) in &other.tenants {
            self.tenants.entry(*tenant).or_default().merge(view);
        }
        self.profile.merge(&other.profile);
        self.link_packets += other.link_packets;
        self.link_bytes += other.link_bytes;
    }

    /// `self − baseline`, for measuring one run on a reused runtime whose
    /// records are cumulative. Errors when `baseline` is not an earlier
    /// snapshot of this record.
    pub fn subtracting(
        &self,
        baseline: &ShardTelemetry,
    ) -> Result<ShardTelemetry, BaselineMismatch> {
        let counter = |current: u64, earlier: u64| {
            current.checked_sub(earlier).ok_or(BaselineMismatch {
                bucket: None,
                current,
                baseline: earlier,
            })
        };
        let mut tenants = self.tenants.clone();
        for (tenant, before) in &baseline.tenants {
            let view = tenants.entry(*tenant).or_default();
            *view = view.subtracting(before)?;
        }
        Ok(ShardTelemetry {
            packet_ns: self.packet_ns.subtracting(&baseline.packet_ns)?,
            burst_ns: self.burst_ns.subtracting(&baseline.burst_ns)?,
            tenants,
            profile: self.profile.subtracting(&baseline.profile)?,
            link_packets: counter(self.link_packets, baseline.link_packets)?,
            link_bytes: counter(self.link_bytes, baseline.link_bytes)?,
        })
    }
}

/// The tenant a verdict is attributed to: the packet's module ID (also when
/// no module with that ID is loaded), or 0 for packets that carry none (no
/// VLAN tag, data-path reconfiguration packets).
pub(crate) fn verdict_tenant(verdict: &Verdict) -> u16 {
    match verdict {
        Verdict::Forwarded { module_id, .. } => *module_id,
        Verdict::Dropped { module_id, .. } => module_id.unwrap_or(0),
    }
}

/// The tenant a *not yet processed* packet is attributed to for shed
/// accounting: its VLAN ID (which is the module ID in Menshen's tenancy
/// model), or 0 when untagged.
pub(crate) fn packet_tenant(packet: &Packet) -> u16 {
    packet.vlan_id().map(|id| id.value()).unwrap_or(0)
}

/// Renders a caught panic payload as a message (the common `&str`/`String`
/// payloads verbatim, anything else generically).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "worker panicked with a non-string payload".to_owned()
    }
}

/// A snapshot of one shard's input-ring depths, taken at `Snapshot` epochs
/// so queueing/backpressure is visible in telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingDepth {
    /// The deepest any of this shard's input rings has ever been, in bursts.
    pub high_watermark: u64,
    /// Bursts queued across this shard's input rings at snapshot time.
    pub occupancy: u64,
}

/// A shard's exported statistics snapshot, produced on demand by the
/// [`crate::ControlOp::Snapshot`] operation: its cumulative telemetry
/// record plus the gauges that only mean something for a live shard.
#[derive(Debug, Clone, Default)]
pub struct ShardSnapshot {
    /// Everything this shard has recorded, cumulatively.
    pub telemetry: ShardTelemetry,
    /// Per-module traffic counters of this shard's replica.
    pub counters: Vec<(u16, ModuleCounters)>,
    /// Input-ring depth telemetry (zero in deterministic mode, where no
    /// rings exist).
    pub ring: RingDepth,
    /// The replica's simulated output-queue occupancy, in packets.
    pub queue_len: u32,
    /// The replica's link utilisation over its last accounting window,
    /// 0.0–1.0.
    pub link_utilization: f64,
}

/// One shard's slice of the progress board.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardProgress {
    /// Highest epoch this shard has fully applied.
    pub applied_epoch: u64,
    /// Bursts completed (matched against bursts submitted for inline-mode
    /// `flush`).
    pub bursts_done: u64,
    /// Running traffic tallies.
    pub stats: ShardStats,
    /// Snapshot exported by the most recent `Snapshot` op.
    pub snapshot: Option<ShardSnapshot>,
    /// Dynamic state extracted by the most recent `ExportState` op, tagged
    /// with the epoch that requested it. The resharding control path takes
    /// these, merges them per module and republishes them as `InjectState`.
    pub exported: Option<(u64, Vec<ModuleState>)>,
    /// First error of the most recent epoch that failed on this shard, with
    /// the epoch it belongs to.
    pub last_error: Option<(u64, String)>,
    /// True once the worker thread has exited (shutdown, retirement or
    /// panic). Waiters must never block on an exited shard's progress.
    pub exited: bool,
    /// The panic message of a *contained* worker failure — set by the dying
    /// worker just before it exits, so the supervisor can tell an abnormal
    /// death from orderly shutdown/retirement.
    pub failure: Option<String>,
    /// When (nanoseconds since runtime start) the worker died. Detection
    /// latency is measured against this.
    pub exited_at_ns: Option<u64>,
    /// The worker's last sign of life (nanoseconds since runtime start),
    /// posted with every burst completion. A stale heartbeat *while the
    /// shard's rings hold work* marks a wedged shard.
    pub heartbeat_ns: u64,
    /// Packets bound for this slot that failure made unprocessable: the
    /// burst in flight when the worker died, plus the ring residue the
    /// supervisor drained. Feeds the conservation audit's `lost_to_failure`.
    pub lost_packets: u64,
    /// Processing credit inherited from this slot's previous incarnations —
    /// a recovered casualty's processed + lost packets. The flush barrier
    /// adds it to the replacement worker's (from-zero) counters so the
    /// per-shard dispatch tallies still reconcile across a respawn.
    pub flush_offset: u64,
}

/// One dispatcher's slice of the progress board.
#[derive(Debug, Clone, Default)]
pub(crate) struct DispatcherProgress {
    /// Packets this dispatcher has handed to shard rings (partial bursts
    /// still in its scratch are *not* counted — the flush barrier waits for
    /// this to reach the submitted count, which only happens after the
    /// dispatcher's quiesce-point flush).
    pub packets_dispatched: u64,
    /// Bursts this dispatcher has pushed onto shard rings.
    pub bursts_dispatched: u64,
    /// Packets pushed per destination shard — the flush barrier sums these
    /// across dispatchers to know how much each shard still owes.
    pub per_shard: Vec<u64>,
    /// True once the dispatcher thread has exited (shutdown or failure).
    pub exited: bool,
    /// The most recent shard whose ring closed under this dispatcher. Since
    /// the chaos work a closed shard ring no longer kills the dispatcher
    /// (the burst is counted in `lost_per_shard` and dispatch continues);
    /// this survives as a diagnostic.
    pub failed_shard: Option<usize>,
    /// The steering version this dispatcher last adopted. The supervisor
    /// waits for every live dispatcher to reach a staged version before
    /// draining a dead shard's rings, so no in-flight push can race the
    /// residue count.
    pub steering_adopted: u64,
    /// Packets shed per tenant because a shard ring stayed full past the
    /// bounded wait — the overloaded tenant's own backpressure drops.
    pub shed_tenants: BTreeMap<u16, u64>,
    /// Packets lost per destination shard because its ring closed
    /// mid-stream (the degraded path: a worker death that left no
    /// drainable rings behind).
    pub lost_per_shard: Vec<u64>,
    /// State digests this dispatcher generated for replicated-module
    /// packets (one per packet per non-owning shard). Bookkeeping, not
    /// packets: excluded from `packets_dispatched` and the flush barrier.
    pub digests_dispatched: u64,
    /// Wire bytes of those digests — the replication overhead the bench
    /// plane reports as bytes/packet.
    pub digest_bytes_dispatched: u64,
}

/// The progress board: one slot per shard plus one per dispatcher, guarded
/// by a single mutex so the shared condvar can wait on any combination.
#[derive(Debug, Default)]
pub(crate) struct ProgressBoard {
    pub shards: Vec<ShardProgress>,
    pub dispatchers: Vec<DispatcherProgress>,
}

/// A pending topology/steering change for one dispatcher thread, staged by
/// the resharding control path and applied by the dispatcher *before it
/// steers its next packet*. Resharding only ever publishes these while the
/// whole plane is quiesced (flush barrier + no concurrent submitter), so a
/// dispatcher that is parked simply finds the update waiting when the next
/// chunk wakes it.
pub(crate) struct DispatcherUpdate {
    /// The steerer to use from now on (new RETA, shard count, replicated
    /// modules).
    pub steerer: Steerer,
    /// Keep only the first `keep` shard rings; the rest are dropped (their
    /// producers close — the retired workers are already gone).
    pub keep: usize,
    /// Producers for newly stood-up shards, appended after `keep`.
    pub append: Vec<Producer<ShardBurst>>,
    /// In-place slot replacements — `(slot, producer)` pairs that swap one
    /// surviving slot's producer for a fresh ring. Shard recovery uses this
    /// to steer a respawned replacement back into an existing slot without
    /// disturbing its neighbours; dropping the old producer closes the dead
    /// (already drained) ring.
    pub replace: Vec<(usize, Producer<ShardBurst>)>,
}

impl DispatcherUpdate {
    /// Composes a later update onto an unapplied earlier one, so a
    /// dispatcher that slept through several reshards applies their net
    /// effect in one step.
    pub(crate) fn then(self, next: DispatcherUpdate) -> DispatcherUpdate {
        // Later slot replacements win over earlier ones for the same slot;
        // earlier replacements survive only if the later topology keeps
        // their slot.
        fn merge_replace(
            earlier: Vec<(usize, Producer<ShardBurst>)>,
            later: Vec<(usize, Producer<ShardBurst>)>,
            limit: usize,
        ) -> Vec<(usize, Producer<ShardBurst>)> {
            let mut merged: Vec<(usize, Producer<ShardBurst>)> = earlier
                .into_iter()
                .filter(|(slot, _)| *slot < limit)
                .collect();
            for (slot, producer) in later {
                if let Some(entry) = merged.iter_mut().find(|(s, _)| *s == slot) {
                    entry.1 = producer;
                } else {
                    merged.push((slot, producer));
                }
            }
            merged
        }
        if next.keep <= self.keep {
            // The later truncation discards everything the earlier update
            // appended (and possibly more of the originals).
            let keep = next.keep;
            DispatcherUpdate {
                steerer: next.steerer,
                keep,
                append: next.append,
                replace: merge_replace(self.replace, next.replace, keep),
            }
        } else {
            // The later update keeps `next.keep - self.keep` of the rings
            // the earlier one appended.
            let mut append = self.append;
            append.truncate(next.keep - self.keep);
            append.extend(next.append);
            DispatcherUpdate {
                steerer: next.steerer,
                keep: self.keep,
                append,
                replace: merge_replace(self.replace, next.replace, usize::MAX),
            }
        }
    }
}

/// State shared between the runtime (control plane) and all worker threads.
pub(crate) struct Shared {
    /// The compactable log of published control epochs.
    pub log: Mutex<EpochLog>,
    /// Epoch of the newest published entry; checked without taking the log
    /// lock on the per-burst fast path. `SeqCst` so the shard parkers'
    /// flag/recheck wakeup protocol covers epoch publication too.
    pub published: AtomicU64,
    /// The progress board (shards + dispatchers).
    pub progress: Mutex<ProgressBoard>,
    /// Notified whenever any progress slot advances.
    pub cv: Condvar,
    /// The runtime's clock origin: ingress stamps and latency measurements
    /// are nanoseconds since this instant, so dispatchers and shards share
    /// a time base.
    pub start: Instant,
    /// Bumped once per staged steering/topology change; dispatchers compare
    /// it against their last-seen value at chunk boundaries (one relaxed
    /// load per chunk on the hot path) and drain their update slot when it
    /// moved.
    pub steering_version: AtomicU64,
    /// One staged-update slot per dispatcher (empty for inline dispatch).
    pub dispatcher_updates: Mutex<Vec<Option<DispatcherUpdate>>>,
    /// Bumped once per [`EgressSink`] change; workers compare it against
    /// their last-seen value at burst boundaries (one atomic load per burst
    /// on the hot path) and reload the slot below when it moved — the same
    /// staged-pickup protocol the dispatchers use for steering changes.
    pub egress_version: AtomicU64,
    /// The currently installed egress sink, if any.
    pub egress: Mutex<Option<Arc<dyn EgressSink>>>,
    /// The control-plane event trace: every publish, per-shard ack, resize
    /// step and RETA rewrite leaves a timestamped record here. Shard threads
    /// write only at epoch boundaries, never per packet.
    pub events: EventTrace,
    /// The armed fault-injection schedule, if any. Workers and dispatchers
    /// consult it per burst/chunk — but only after the one-relaxed-load
    /// `faults_armed` check below, so a production runtime pays a single
    /// branch per burst for the whole chaos plane.
    pub faults: Mutex<Option<Arc<FaultPlan>>>,
    /// Fast-path gate for `faults`.
    pub faults_armed: AtomicBool,
    /// One slot per shard where a dying worker parks its input-ring
    /// consumers. Keeping the consumers alive keeps the rings *open*, so
    /// in-flight dispatcher pushes still land instead of erroring — every
    /// unprocessed packet is then either the dying worker's in-flight burst
    /// (counted by the worker) or ring residue the supervisor drains and
    /// counts. That is what makes `lost_to_failure` exact rather than an
    /// estimate.
    pub wreckage: Mutex<Vec<Option<Vec<Consumer<ShardBurst>>>>>,
}

impl Shared {
    pub(crate) fn new(shards: usize, dispatchers: usize) -> Self {
        Shared {
            log: Mutex::new(EpochLog::new()),
            published: AtomicU64::new(0),
            progress: Mutex::new(ProgressBoard {
                shards: vec![ShardProgress::default(); shards],
                dispatchers: vec![DispatcherProgress::default(); dispatchers],
            }),
            cv: Condvar::new(),
            start: Instant::now(),
            steering_version: AtomicU64::new(0),
            dispatcher_updates: Mutex::new((0..dispatchers).map(|_| None).collect()),
            egress_version: AtomicU64::new(0),
            egress: Mutex::new(None),
            events: EventTrace::default(),
            faults: Mutex::new(None),
            faults_armed: AtomicBool::new(false),
            wreckage: Mutex::new((0..shards).map(|_| None).collect()),
        }
    }

    /// Nanoseconds since the runtime's clock origin.
    pub(crate) fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The fault (if any) scheduled for worker `shard` at its `burst`-th
    /// popped burst. One relaxed load when no plan is armed.
    pub(crate) fn worker_fault(&self, shard: usize, burst: u64) -> Option<WorkerFault> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return None;
        }
        self.faults
            .lock()
            .expect("fault plan lock poisoned")
            .as_ref()
            .and_then(|plan| plan.worker_fault(shard, burst))
    }

    /// The stall (if any) scheduled for dispatcher `dispatcher` at its
    /// `chunk`-th popped chunk.
    pub(crate) fn dispatcher_fault(&self, dispatcher: usize, chunk: u64) -> Option<Duration> {
        if !self.faults_armed.load(Ordering::Relaxed) {
            return None;
        }
        self.faults
            .lock()
            .expect("fault plan lock poisoned")
            .as_ref()
            .and_then(|plan| plan.dispatcher_stall(dispatcher, chunk))
    }

    /// Stages `update` for dispatcher `index`, composing onto any update it
    /// has not applied yet, and bumps the steering version.
    pub(crate) fn stage_dispatcher_update(&self, index: usize, update: DispatcherUpdate) {
        let mut slots = self
            .dispatcher_updates
            .lock()
            .expect("dispatcher update lock poisoned");
        let slot = &mut slots[index];
        *slot = Some(match slot.take() {
            Some(pending) => pending.then(update),
            None => update,
        });
        drop(slots);
        self.steering_version.fetch_add(1, Ordering::SeqCst);
    }
}

/// One shard: its pipeline replica, its telemetry record and its log
/// cursor, with the one burst body both backends run. A threaded worker
/// owns one on its thread; the deterministic runtime keeps one per shard
/// in-process and steps it from `process_batch`. Either way, `catch_up` is
/// the only place a shard applies an epoch and `step` the only place it
/// processes, records, transmits and books a burst.
pub(crate) struct ShardCore {
    /// The shard's index: its progress-board slot, and the address the
    /// per-shard control ops name.
    pub(crate) index: usize,
    /// The shard's pipeline replica.
    pub(crate) pipeline: MenshenPipeline,
    /// Everything this shard has recorded, exported by `Snapshot` epochs.
    telemetry: ShardTelemetry,
    /// The highest epoch this shard has applied: its log cursor
    /// (compaction-safe, because the log only ever drops epochs every shard
    /// has acknowledged).
    applied: u64,
    /// The last burst's verdicts, one per packet in burst order.
    pub(crate) verdicts: Vec<Verdict>,
    /// Segment buffer for bursts that interleave digests (the batch path
    /// clears its output vector, so segments are collected here and
    /// appended).
    scratch: Vec<Verdict>,
    /// Shard-local egress-sink cache, refreshed at burst boundaries when the
    /// staged version moves away from `egress_seen`. Cores start at version
    /// 0, so one stood up by a live resize adopts an already-installed sink
    /// on its first burst.
    egress: Option<Arc<dyn EgressSink>>,
    egress_seen: u64,
}

impl ShardCore {
    /// A core for shard `index` whose `pipeline` already embodies every
    /// epoch up to `applied`: 0 for construction-time shards, the current
    /// epoch for shards stood up by a live resize or a recovery from the
    /// runtime's configuration replica.
    pub(crate) fn new(index: usize, pipeline: MenshenPipeline, applied: u64) -> Self {
        ShardCore {
            index,
            pipeline,
            telemetry: ShardTelemetry::default(),
            applied,
            verdicts: Vec::new(),
            scratch: Vec::new(),
            egress: None,
            egress_seen: 0,
        }
    }

    /// Applies every not-yet-applied epoch and advertises each on the
    /// progress board. `ring` reports the shard's input-ring depths for
    /// `Snapshot` epochs; it is only called when an epoch is applied.
    /// Returns true when an applied epoch retired this shard: a worker must
    /// exit after the acknowledgement (already posted, so waiters never
    /// hang on the departing shard).
    pub(crate) fn catch_up(&mut self, shared: &Shared, ring: impl Fn() -> RingDepth) -> bool {
        // Fast path: nothing new published since this shard's cursor.
        if self.applied >= shared.published.load(Ordering::SeqCst) {
            return false;
        }
        // Copy the pending suffix out of the log so heavyweight ops (module
        // loads) never run while holding the log lock.
        let pending = shared
            .log
            .lock()
            .expect("log lock poisoned")
            .entries_after(self.applied);
        let mut retired = false;
        for entry in &pending {
            retired |= self.apply_entry(shared, entry, ring());
            self.applied = entry.epoch;
        }
        retired
    }

    /// Applies one published entry to the replica and posts the outcome —
    /// applied epoch, snapshot, exported state, first error — to the
    /// shard's progress slot, with an `EpochApplied` event. Returns true
    /// when a `Retire` op addressed this shard.
    ///
    /// Later ops still run after a failure so replicas cannot diverge on
    /// which prefix of the entry they applied. The per-shard ops (snapshot,
    /// state export/inject, retirement) are resolved here, where the shard
    /// index is known; `ControlOp::apply` treats them as no-ops so the
    /// runtime's configuration replica stays config-only.
    fn apply_entry(&mut self, shared: &Shared, entry: &EpochEntry, ring: RingDepth) -> bool {
        let shard_index = self.index;
        let pipeline = &mut self.pipeline;
        let mut wants_snapshot = false;
        let mut exported: Option<Vec<ModuleState>> = None;
        let mut error: Option<String> = None;
        let mut retired = false;
        for op in &entry.ops {
            match op {
                crate::ControlOp::Snapshot => {
                    wants_snapshot = true;
                    continue;
                }
                crate::ControlOp::ExportState {
                    modules,
                    from_shard,
                } => {
                    if shard_index >= *from_shard {
                        let exports = exported.get_or_insert_with(Vec::new);
                        for module in modules {
                            if let Some(state) = pipeline.take_module_state(*module) {
                                exports.push(state);
                            }
                        }
                    }
                    continue;
                }
                crate::ControlOp::InjectState { shard, state } => {
                    if *shard == shard_index {
                        if let Err(e) = pipeline.import_module_state(state) {
                            error.get_or_insert_with(|| e.to_string());
                        }
                    }
                    continue;
                }
                crate::ControlOp::ExportStateSnapshot { modules, shard } => {
                    if shard_index == *shard {
                        let exports = exported.get_or_insert_with(Vec::new);
                        for module in modules {
                            if let Some(state) = pipeline.export_module_state(*module) {
                                exports.push(state);
                            }
                        }
                    }
                    continue;
                }
                crate::ControlOp::ReplaceState { shard, state } => {
                    if *shard == shard_index {
                        // Replace-not-merge: clear the target's own words
                        // first (keeping its counter history), then import
                        // the snapshot — additive import onto zeroed words
                        // is assignment, so the replica ends bit-identical
                        // to the donor without double-counting traffic.
                        let module = menshen_core::ModuleId::new(state.module_id);
                        if let Some(own) = pipeline.take_module_state(module) {
                            let mut merged = (**state).clone();
                            merged.counters.add(&own.counters);
                            if let Err(e) = pipeline.import_module_state(&merged) {
                                error.get_or_insert_with(|| e.to_string());
                            }
                        }
                    }
                    continue;
                }
                crate::ControlOp::Retire { keep } => {
                    if shard_index >= *keep {
                        retired = true;
                    }
                    continue;
                }
                _ => {}
            }
            if let Err(e) = op.apply(pipeline) {
                error.get_or_insert_with(|| e.to_string());
            }
        }
        let snapshot = wants_snapshot.then(|| self.snapshot(ring));
        let epoch = entry.epoch;
        let mut progress = shared.progress.lock().expect("progress lock poisoned");
        let slot = &mut progress.shards[shard_index];
        slot.applied_epoch = epoch;
        if snapshot.is_some() {
            slot.snapshot = snapshot;
        }
        if let Some(exports) = exported {
            slot.exported = Some((epoch, exports));
        }
        if let Some(message) = error {
            slot.last_error = Some((epoch, message));
        }
        drop(progress);
        shared.events.emit(
            shared.now_ns(),
            ControlEventKind::EpochApplied {
                epoch,
                shard: shard_index as u64,
            },
        );
        shared.cv.notify_all();
        retired
    }

    /// Runs one burst: the shard's own `packets` through the batched data
    /// path, with each foreign-packet digest replayed at its recorded
    /// interleave point (so every replica of a replicated module observes
    /// the module's packets in the same global order); records the burst's
    /// service time and each packet's sojourn — burst completion minus its
    /// ingress stamp, [`Packet::timestamp_ns`] — in the telemetry record and
    /// its tenant's view; hands every packet and verdict to the egress sink;
    /// and books the burst on the progress board. The verdicts stay in
    /// `verdicts` until the next step.
    ///
    /// Inlined into its two callers: as an outlined call the worker loop
    /// measured ≈ 2 % more CPU per packet on `sharded_rss` (2-core host).
    #[inline(always)]
    pub(crate) fn step(&mut self, packets: &[Packet], digests: &[StateDigest], shared: &Shared) {
        let service_start = Instant::now();
        if digests.is_empty() {
            self.pipeline
                .process_batch_into(packets, &mut self.verdicts);
        } else {
            self.verdicts.clear();
            self.verdicts.reserve(packets.len());
            let mut cursor = 0usize;
            for digest in digests {
                let boundary = (digest.before() as usize).min(packets.len());
                if boundary > cursor {
                    self.pipeline
                        .process_batch_into(&packets[cursor..boundary], &mut self.scratch);
                    self.verdicts.append(&mut self.scratch);
                    cursor = boundary;
                }
                self.pipeline.apply_state_digest(digest);
            }
            if cursor < packets.len() {
                self.pipeline
                    .process_batch_into(&packets[cursor..], &mut self.scratch);
                self.verdicts.append(&mut self.scratch);
            }
        }
        let service_ns = service_start.elapsed().as_nanos() as u64;
        let done_ns = shared.now_ns();
        self.telemetry.burst_ns.record(service_ns);
        let mut forwarded = 0u64;
        for (packet, verdict) in packets.iter().zip(self.verdicts.iter()) {
            let sojourn_ns = done_ns.saturating_sub(packet.timestamp_ns);
            self.telemetry.packet_ns.record(sojourn_ns);
            self.telemetry.record_verdict(verdict, sojourn_ns);
            forwarded += u64::from(verdict.is_forwarded());
        }
        // Verdict egress: hand every processed packet to the installed sink
        // *before* the progress-board update, so a flush barrier returning
        // implies every packet it covers has been transmitted.
        let version = shared.egress_version.load(Ordering::SeqCst);
        if version != self.egress_seen {
            self.egress_seen = version;
            self.egress = shared.egress.lock().expect("egress lock poisoned").clone();
        }
        if let Some(sink) = &self.egress {
            for (packet, verdict) in packets.iter().zip(self.verdicts.iter()) {
                sink.transmit(packet, verdict);
            }
        }
        let total = packets.len() as u64;
        let mut progress = shared.progress.lock().expect("progress lock poisoned");
        let slot = &mut progress.shards[self.index];
        slot.bursts_done += 1;
        slot.stats.bursts += 1;
        slot.stats.packets += total;
        slot.stats.forwarded += forwarded;
        slot.stats.dropped += total - forwarded;
        slot.heartbeat_ns = shared.now_ns();
        drop(progress);
        shared.cv.notify_all();
    }

    /// Exports the telemetry record — completed with the replica's stage
    /// profile and link counters — per-module counters and live gauges.
    fn snapshot(&self, ring: RingDepth) -> ShardSnapshot {
        let pipeline = &self.pipeline;
        let counters = pipeline
            .loaded_modules()
            .into_iter()
            .map(|module| {
                (
                    module.value(),
                    pipeline.module_counters(module).unwrap_or_default(),
                )
            })
            .collect();
        let system = pipeline.system().stats();
        ShardSnapshot {
            telemetry: ShardTelemetry {
                profile: pipeline.stage_profile(),
                link_packets: system.link_packets,
                link_bytes: system.link_bytes,
                ..self.telemetry.clone()
            },
            counters,
            ring,
            queue_len: system.queue_len,
            link_utilization: system.link_utilization,
        }
    }
}

/// The current ring-depth telemetry across a shard's input rings.
fn ring_depth(inputs: &[Consumer<ShardBurst>]) -> RingDepth {
    RingDepth {
        high_watermark: inputs
            .iter()
            .map(|ring| ring.depth_high_watermark())
            .max()
            .unwrap_or(0),
        occupancy: inputs.iter().map(|ring| ring.occupancy() as u64).sum(),
    }
}

/// Marks a shard as exited on the progress board when the worker returns
/// *or panics*, so `wait_for_epoch`/`flush` can never block forever on a
/// dead shard.
struct ShardExitGuard {
    shared: Arc<Shared>,
    shard_index: usize,
}

impl Drop for ShardExitGuard {
    fn drop(&mut self) {
        let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
        progress.shards[self.shard_index].exited = true;
        drop(progress);
        self.shared.cv.notify_all();
    }
}

/// The shard thread body: catch up on published epochs, pop a burst from
/// one of the input rings (round-robin over dispatchers), step the core,
/// send the spent frames home — until every ring closes or a `Retire` epoch
/// addresses this shard. With all rings empty the shard spins briefly, then
/// parks on the shared parker; dispatchers, the inline submitter, and the
/// control plane all wake it through that parker.
///
/// `home` is the shard's return ring. A spent burst's packets go back
/// through it to the thread that submitted (and allocated) them, so the
/// shard never frees a frame it did not allocate; the push never blocks —
/// when the ring is full or its consumer is gone the burst is dropped here
/// instead, so a caller that stopped calling the runtime cannot wedge a
/// shard. Verdict packets, which this thread cloned, stay in the core and
/// are freed when its verdict buffer is reused for the next burst.
pub(crate) fn run_worker(
    mut core: ShardCore,
    inputs: Vec<Consumer<ShardBurst>>,
    home: Producer<Burst>,
    parker: Arc<Parker>,
    shared: Arc<Shared>,
) {
    let shard_index = core.index;
    let _exit_guard = ShardExitGuard {
        shared: Arc::clone(&shared),
        shard_index,
    };
    let mut next_ring = 0usize;
    let mut idle_spins = 0u32;
    // Bursts popped so far — the fault plan's per-worker coordinate.
    let mut burst_index = 0u64;
    // Seed the heartbeat so the wedge detector has a baseline even if the
    // first burst takes a while to arrive.
    {
        let mut progress = shared.progress.lock().expect("progress lock poisoned");
        progress.shards[shard_index].heartbeat_ns = shared.now_ns();
    }
    loop {
        if core.catch_up(&shared, || ring_depth(&inputs)) {
            // Retired by a scale-in epoch. The resharding control path only
            // publishes retirement at a full quiesce (rings drained, state
            // already exported), so exiting here loses nothing; the epoch is
            // already acknowledged, so nobody waits on this shard again.
            return;
        }
        // Round-robin over the per-dispatcher input rings so no dispatcher
        // can starve another.
        let mut burst = None;
        for offset in 0..inputs.len() {
            let ring = (next_ring + offset) % inputs.len();
            if let Some(popped) = inputs[ring].try_pop() {
                next_ring = (ring + 1) % inputs.len();
                burst = Some(popped);
                break;
            }
        }
        let Some(burst) = burst else {
            if inputs.iter().all(|ring| ring.is_finished()) {
                break;
            }
            idle_spins += 1;
            if idle_spins < IDLE_SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                // Park until any producer publishes a burst, every ring
                // finishes, or a new control epoch needs applying.
                parker.park_until(|| {
                    inputs.iter().any(|ring| ring.occupancy() > 0)
                        || inputs.iter().all(|ring| ring.is_finished())
                        || shared.published.load(Ordering::SeqCst) > core.applied
                });
                idle_spins = 0;
            }
            continue;
        };
        idle_spins = 0;
        // Chaos hook: one relaxed load when disarmed. Stalls run outside the
        // containment (they are slowness, not death); panics fire inside it.
        let fault = shared.worker_fault(shard_index, burst_index);
        burst_index += 1;
        if let Some(WorkerFault::Stall(stall)) = fault {
            std::thread::sleep(stall);
        }
        // Panic containment: anything that unwinds out of the burst's step
        // (an injected fault or an organic bug) is caught here, where the
        // core is still alive — so the dying worker can post a final
        // telemetry snapshot, count the in-flight burst as lost, and park
        // its ring consumers for the supervisor to drain. The borrow is
        // confined to this burst (AssertUnwindSafe is sound: on Err the core
        // is only read for its snapshot, then discarded; the next
        // incarnation of this slot starts from a fresh one).
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if matches!(fault, Some(WorkerFault::Panic)) {
                panic!("injected fault: worker {shard_index} killed at burst {burst_index}");
            }
            core.step(&burst.packets, &burst.digests, &shared);
        }));
        if let Err(payload) = outcome {
            contain_worker_panic(
                &core,
                inputs,
                &shared,
                &*payload,
                burst.packets.len() as u64,
            );
            return;
        }
        // Frames go home. On a full or closed ring `try_push` hands the
        // vector straight back and it is dropped here.
        let _ = home.try_push(burst.packets);
    }
    // Epochs published after the final burst must still be acknowledged so a
    // concurrent `wait_for_epoch` cannot hang across shutdown.
    let _ = core.catch_up(&shared, || ring_depth(&inputs));
}

/// A contained worker panic's last act, run with the dying worker's core
/// still alive: post a final telemetry snapshot (so the casualty's ledgers
/// still fold into the books), record the failure and the in-flight burst's
/// packets as lost, and park the input-ring consumers in the wreckage slot.
/// Parking the consumers keeps the rings *open*: concurrent dispatcher
/// pushes land normally, and the supervisor later drains the residue and
/// counts it — which is what makes `lost_to_failure` exact.
fn contain_worker_panic(
    core: &ShardCore,
    inputs: Vec<Consumer<ShardBurst>>,
    shared: &Shared,
    payload: &(dyn std::any::Any + Send),
    lost_in_flight: u64,
) {
    let shard_index = core.index;
    let message = panic_message(payload);
    let snapshot = core.snapshot(ring_depth(&inputs));
    let died_at = shared.now_ns();
    {
        let mut progress = shared.progress.lock().expect("progress lock poisoned");
        let slot = &mut progress.shards[shard_index];
        slot.snapshot = Some(snapshot);
        slot.failure = Some(message);
        slot.exited_at_ns = Some(died_at);
        slot.lost_packets += lost_in_flight;
    }
    let mut wreckage = shared.wreckage.lock().expect("wreckage lock poisoned");
    if let Some(slot) = wreckage.get_mut(shard_index) {
        *slot = Some(inputs);
    }
    drop(wreckage);
    shared.cv.notify_all();
}

/// Marks a dispatcher as exited (and records the shard that failed it, if
/// any) when the thread returns or panics.
struct DispatcherExitGuard {
    shared: Arc<Shared>,
    dispatcher_index: usize,
    failed_shard: Option<usize>,
}

impl Drop for DispatcherExitGuard {
    fn drop(&mut self) {
        let mut progress = self.shared.progress.lock().expect("progress lock poisoned");
        let slot = &mut progress.dispatchers[self.dispatcher_index];
        slot.exited = true;
        slot.failed_shard = self.failed_shard;
        drop(progress);
        self.shared.cv.notify_all();
    }
}

/// The dispatcher thread body: pop a chunk of ingress packets from this
/// dispatcher's input ring, Toeplitz-steer every packet into per-shard
/// scratch, and push *full* bursts onto this dispatcher's row of shard
/// rings — ring synchronisation once per (dispatcher, shard, burst).
/// Partial bursts are flushed whenever the input ring runs dry: that is the
/// dispatcher's quiesce point, after which its `packets_dispatched` equals
/// everything it ever received, which is exactly what the control plane's
/// flush barrier waits for before publishing an epoch.
pub(crate) fn run_dispatcher(
    dispatcher_index: usize,
    mut steerer: Steerer,
    input: Consumer<Burst>,
    mut outputs: Vec<Producer<ShardBurst>>,
    burst_size: usize,
    submit_wait: Duration,
    shared: Arc<Shared>,
) {
    let mut exit_guard = DispatcherExitGuard {
        shared: Arc::clone(&shared),
        dispatcher_index,
        failed_shard: None,
    };
    // One accounting site for every burst handoff: takes the shard's
    // scratch and pushes it with a bounded wait. Every consumed packet is
    // accounted exactly once — delivered (`per_shard`), shed per tenant on
    // a full ring past the deadline, or lost per shard on a closed ring —
    // so a dead or wedged shard can never wedge the dispatcher, and the
    // conservation audit still balances.
    struct DispatchState {
        scatter: Vec<Vec<Packet>>,
        /// Per shard, the digests of replicated-module packets steered to
        /// *other* shards, with `before` indices into the same shard's
        /// `scatter`. Flushed together with `scatter[shard]` — always — so
        /// the recorded interleave points stay valid.
        digest_scatter: Vec<Vec<StateDigest>>,
        packets: u64,
        bursts: u64,
        per_shard: Vec<u64>,
        shed_tenants: BTreeMap<u16, u64>,
        lost_per_shard: Vec<u64>,
        digests: u64,
        digest_bytes: u64,
        failed_shard: Option<usize>,
    }
    impl DispatchState {
        fn pending(&self, shard: usize) -> bool {
            !self.scatter[shard].is_empty() || !self.digest_scatter[shard].is_empty()
        }

        fn push_scratch(
            &mut self,
            outputs: &[Producer<ShardBurst>],
            shard: usize,
            burst_size: usize,
            wait: Duration,
        ) {
            let burst = ShardBurst {
                packets: std::mem::replace(
                    &mut self.scatter[shard],
                    Vec::with_capacity(burst_size),
                ),
                digests: std::mem::take(&mut self.digest_scatter[shard]),
            };
            let packets = burst.packets.len() as u64;
            // `packets` counts everything consumed from the input ring
            // (delivered, shed, or lost) so the stage-1 flush barrier never
            // waits on packets that can no longer move. Digests ride along
            // unaccounted here: they are generated bookkeeping, not
            // consumed traffic.
            self.packets += packets;
            match outputs[shard].push_deadline(burst, wait) {
                Ok(()) => {
                    self.bursts += 1;
                    self.per_shard[shard] += packets;
                }
                Err(PushError::Timeout(burst)) => {
                    // The ring stayed full past the bounded wait: shed the
                    // burst, attributed to the tenants that offered it. The
                    // overloaded (or failure-orphaned) tenant pays; other
                    // tenants' shards keep draining. Its digests drop with
                    // it — the degraded regime where an overloaded replica
                    // falls behind until rebuilt from a live peer.
                    for packet in &burst.packets {
                        *self.shed_tenants.entry(packet_tenant(packet)).or_insert(0) += 1;
                    }
                }
                Err(PushError::Closed(_)) => {
                    // Degraded path: the ring closed without a wreckage
                    // drain (worker died outside containment). Count the
                    // burst as lost and keep dispatching to the survivors.
                    self.lost_per_shard[shard] += packets;
                    self.failed_shard = Some(shard);
                }
            }
        }

        fn advertise(&self, shared: &Shared, dispatcher_index: usize) {
            let mut progress = shared.progress.lock().expect("progress lock poisoned");
            let slot = &mut progress.dispatchers[dispatcher_index];
            slot.packets_dispatched = self.packets;
            slot.bursts_dispatched = self.bursts;
            slot.per_shard.clear();
            slot.per_shard.extend_from_slice(&self.per_shard);
            slot.shed_tenants = self.shed_tenants.clone();
            slot.lost_per_shard.clear();
            slot.lost_per_shard.extend_from_slice(&self.lost_per_shard);
            slot.digests_dispatched = self.digests;
            slot.digest_bytes_dispatched = self.digest_bytes;
            slot.failed_shard = self.failed_shard;
            drop(progress);
            shared.cv.notify_all();
        }
    }
    let mut state = DispatchState {
        scatter: (0..outputs.len())
            .map(|_| Vec::with_capacity(burst_size))
            .collect(),
        digest_scatter: vec![Vec::new(); outputs.len()],
        packets: 0,
        bursts: 0,
        per_shard: vec![0u64; outputs.len()],
        shed_tenants: BTreeMap::new(),
        lost_per_shard: vec![0u64; outputs.len()],
        digests: 0,
        digest_bytes: 0,
        failed_shard: None,
    };
    // Dispatchers are only spawned at construction time, so version 0 is
    // always the state this thread's steerer and ring row were built from.
    let mut seen_version = 0u64;
    // Chunks popped so far — the fault plan's per-dispatcher coordinate.
    let mut chunk_index = 0u64;
    while let Some(chunk) = input.pop() {
        // Chaos hook: a scheduled dispatcher stall (wedge, if long).
        if let Some(stall) = shared.dispatcher_fault(dispatcher_index, chunk_index) {
            std::thread::sleep(stall);
        }
        chunk_index += 1;
        // Resharding/recovery handshake: before steering anything, adopt
        // any staged steering/topology change (new RETA + replicated set, grown or
        // shrunk ring row, in-place slot replacements). The cost on the hot
        // path is one atomic load per chunk.
        let version = shared.steering_version.load(Ordering::SeqCst);
        if version != seen_version {
            seen_version = version;
            let staged = shared
                .dispatcher_updates
                .lock()
                .expect("dispatcher update lock poisoned")[dispatcher_index]
                .take();
            if let Some(update) = staged {
                // Flush partial bursts to the *old* rings first, so every
                // packet steered under the old table is either delivered or
                // counted before the rings change hands. (Resharding stages
                // updates only at a full quiesce, where this is a no-op;
                // failure recovery stages them live and relies on it.)
                for shard in 0..outputs.len() {
                    if state.pending(shard) {
                        state.push_scratch(&outputs, shard, burst_size, submit_wait);
                    }
                }
                steerer = update.steerer;
                // Dropping the truncated producers closes the retired
                // shards' rings; their workers are already gone.
                outputs.truncate(update.keep);
                outputs.extend(update.append);
                for (slot, producer) in update.replace {
                    if slot < outputs.len() {
                        // Swapping in the replacement drops (and closes)
                        // the dead, already-drained ring.
                        outputs[slot] = producer;
                    }
                }
                state.scatter.truncate(update.keep);
                state
                    .scatter
                    .resize_with(outputs.len(), || Vec::with_capacity(burst_size));
                state.digest_scatter.truncate(update.keep);
                state.digest_scatter.resize_with(outputs.len(), Vec::new);
                // Per-shard tallies follow the ring row: surviving shards
                // keep their cumulative counts (their progress slots
                // survived too), fresh shards start at zero.
                state.per_shard.truncate(update.keep);
                state.per_shard.resize(outputs.len(), 0);
                state.lost_per_shard.truncate(update.keep);
                state.lost_per_shard.resize(outputs.len(), 0);
            }
            // Acknowledge adoption — the supervisor waits for every live
            // dispatcher to reach the staged version before draining a dead
            // shard's rings, so no in-flight push can race the drain.
            let mut progress = shared.progress.lock().expect("progress lock poisoned");
            progress.dispatchers[dispatcher_index].steering_adopted = version;
            drop(progress);
            shared.cv.notify_all();
        }
        for packet in chunk {
            let shard = steerer.shard_for(&packet);
            // State-compute replication: a replicated-module packet's state
            // digest broadcasts to every *other* shard, stamped with the
            // receiver's current scatter depth so the replica replays it at
            // the exact interleave point the owner processes the packet at.
            // All of a replicated module's packets flow through one
            // dispatcher (steering affinity), so this order is the module's
            // global order.
            if let Some(spec) = steerer.digest_spec_for(&packet) {
                for other in 0..outputs.len() {
                    if other == shard {
                        continue;
                    }
                    let digest = spec.extract(&packet, state.scatter[other].len() as u32);
                    state.digests += 1;
                    state.digest_bytes += digest.wire_bytes() as u64;
                    state.digest_scatter[other].push(digest);
                    if state.digest_scatter[other].len() >= burst_size {
                        state.push_scratch(&outputs, other, burst_size, submit_wait);
                    }
                }
            }
            state.scatter[shard].push(packet);
            if state.scatter[shard].len() >= burst_size {
                state.push_scratch(&outputs, shard, burst_size, submit_wait);
            }
        }
        // Quiesce point: no further chunk is immediately available, so
        // flush partial bursts — every packet received so far is now in
        // flight — and advertise progress for the flush barrier.
        if input.occupancy() == 0 {
            for shard in 0..outputs.len() {
                if state.pending(shard) {
                    state.push_scratch(&outputs, shard, burst_size, submit_wait);
                }
            }
        }
        state.advertise(&shared, dispatcher_index);
    }
    // Input closed: flush whatever scratch remains toward still-open rings,
    // then let the producers drop — which closes this dispatcher's row of
    // shard rings.
    for shard in 0..outputs.len() {
        if state.pending(shard) {
            state.push_scratch(&outputs, shard, burst_size, submit_wait);
        }
    }
    exit_guard.failed_shard = state.failed_shard;
    state.advertise(&shared, dispatcher_index);
}
