//! The epoch-versioned control plane shared by all shards.
//!
//! Every control-plane change — module install/remove/update, raw daisy-chain
//! writes, reconfiguration marks, system-module routing — is expressed as a
//! [`ControlOp`] and published as one [`EpochEntry`] on a shared, append-only
//! log. Publishing assigns the entry a monotonically increasing *epoch*.
//! Each worker shard applies pending entries, in log order, at a burst
//! boundary of its own choosing and then advertises the epoch it reached.
//!
//! This gives the runtime its hitless-reconfiguration guarantee without ever
//! pausing the data path: configuration is never written mid-burst (bursts
//! hold `&mut` on their pipeline replica), every shard applies the exact same
//! ops in the exact same order (replicas never diverge), and the runtime can
//! wait for all shards to reach an epoch to know a change is globally in
//! effect. The single-pipeline analogue of an epoch boundary is "between two
//! `process_batch` calls", which is what makes the sharded runtime testable
//! against one big pipeline.
//!
//! # Admission and compaction
//!
//! The log only publishes. The runtime decides every op before it reaches
//! the log: it applies the op to its own configuration replica, the one
//! pipeline at the newest published epoch, and publishes only what that
//! replica accepted. So no published configuration op fails on a shard, and
//! a new or respawned shard starts from a copy of that replica. Once every
//! shard has acknowledged epoch `E`, nobody reads the entries up to `E`
//! again, and [`EpochLog::compact`] drops them.

use menshen_core::{
    MenshenPipeline, ModuleConfig, ModuleId, ModuleState, ReconfigCommand, TableRule,
};
use menshen_packet::Ipv4Address;

/// One replicated control-plane operation. Applied identically, in published
/// order, to every shard's pipeline replica.
#[derive(Debug, Clone)]
pub enum ControlOp {
    /// Load a compiled module (assigns a slot, carves partitions, streams the
    /// daisy-chain writes).
    Load(Box<ModuleConfig>),
    /// Re-stream an already-loaded module's configuration.
    Update(Box<ModuleConfig>),
    /// Unload a module and release its resources.
    Unload(ModuleId),
    /// Mark a module as being reconfigured (its packets drop until cleared).
    BeginReconfiguration(ModuleId),
    /// Clear a module's reconfiguration mark.
    EndReconfiguration(ModuleId),
    /// Apply one raw daisy-chain write.
    Command(ReconfigCommand),
    /// Install a batch of flat-table (LPM/range) rules into a loaded
    /// module's stage. A *configuration* op: it applies identically on every
    /// shard and on the runtime's configuration replica, and — being an
    /// incremental insert into the module's own flat table — it never marks
    /// the module as reconfiguring, so traffic keeps flowing while rules
    /// stream in.
    InstallRules {
        /// The module whose table grows.
        module: ModuleId,
        /// The stage holding the table.
        stage: usize,
        /// The rules, applied in order.
        rules: Vec<TableRule>,
    },
    /// Install a route in the system-level module.
    AddRoute(Ipv4Address, u16),
    /// Set the system-level module's default output port.
    SetDefaultPort(u16),
    /// Ask each shard to publish a snapshot of its per-module counters and
    /// device statistics (the aggregation path; no pipeline state changes).
    Snapshot,
    /// Live-resharding, step 1: every shard with index ≥ `from_shard`
    /// extracts-and-clears the listed modules' dynamic state
    /// ([`MenshenPipeline::take_module_state`]) and publishes the extracts on
    /// the progress board for the control plane to merge. A *dynamic-state*
    /// op: a no-op on configuration replicas, which by definition carry no
    /// dynamic state to extract.
    ExportState {
        /// The modules whose state moves.
        modules: Vec<ModuleId>,
        /// First shard index the export applies to (0 = every shard; a
        /// shrink exports everything only from the retiring tail).
        from_shard: usize,
    },
    /// Live-resharding, step 2: the shard whose index equals `shard` replays
    /// a merged extract into its replica
    /// ([`MenshenPipeline::import_module_state`]); every other shard — and
    /// every configuration replica — treats it as a no-op.
    InjectState {
        /// The target shard index.
        shard: usize,
        /// The merged state to replay.
        state: Box<ModuleState>,
    },
    /// Live-resharding, step 3 (scale-in only): every shard with index ≥
    /// `keep` acknowledges the epoch and then exits its worker loop. A no-op
    /// on configuration replicas and on surviving shards.
    Retire {
        /// Number of shards that remain after the epoch.
        keep: usize,
    },
    /// State-compute replication: the shard whose index equals `shard`
    /// publishes a *non-clearing* snapshot of the listed modules' dynamic
    /// state ([`MenshenPipeline::export_module_state`]) on the progress
    /// board. Unlike [`ControlOp::ExportState`], the donor keeps its state —
    /// any replica of a replicated module holds the authoritative words, so
    /// seeding a new or recovered replica never needs a single-owner move.
    /// A no-op on every other shard and on configuration replicas.
    ExportStateSnapshot {
        /// The replicated modules whose state is snapshotted.
        modules: Vec<ModuleId>,
        /// The donor shard index.
        shard: usize,
    },
    /// State-compute replication: the shard whose index equals `shard`
    /// *replaces* its dynamic state words for the snapshotted modules with
    /// the carried extract, keeping its own counters (the publisher zeroes
    /// the snapshot's counters; the target folds them onto its own history).
    /// Used to seed grown shards and rebuild recovered replicas from a live
    /// peer. A no-op on every other shard and on configuration replicas.
    ReplaceState {
        /// The target shard index.
        shard: usize,
        /// The snapshot to replace state words from.
        state: Box<ModuleState>,
    },
}

impl ControlOp {
    /// Applies this operation to one pipeline replica. The runtime applies
    /// every op to its configuration replica before publishing it, and an
    /// op refused there is never published; each shard then applies the
    /// published op to its own replica.
    ///
    /// [`ControlOp::Snapshot`], [`ControlOp::ExportState`],
    /// [`ControlOp::InjectState`], [`ControlOp::ExportStateSnapshot`],
    /// [`ControlOp::ReplaceState`] and [`ControlOp::Retire`] are no-ops here:
    /// they act on *per-shard dynamic state* (or the worker loop itself), so
    /// the shard handles them in `apply_entry` where it knows its own index,
    /// and the configuration replica passes them through unchanged.
    pub fn apply(&self, pipeline: &mut MenshenPipeline) -> menshen_core::Result<()> {
        match self {
            ControlOp::Load(config) => pipeline.load_module(config).map(|_| ()),
            ControlOp::Update(config) => pipeline.update_module(config).map(|_| ()),
            ControlOp::Unload(module) => pipeline.unload_module(*module),
            ControlOp::BeginReconfiguration(module) => pipeline.begin_reconfiguration(*module),
            ControlOp::EndReconfiguration(module) => pipeline.end_reconfiguration(*module),
            ControlOp::Command(command) => pipeline.apply_command(command),
            ControlOp::InstallRules {
                module,
                stage,
                rules,
            } => pipeline.install_rules(*module, *stage, rules).map(|_| ()),
            ControlOp::AddRoute(ip, port) => {
                pipeline.system_mut().add_route(*ip, *port);
                Ok(())
            }
            ControlOp::SetDefaultPort(port) => {
                pipeline.system_mut().set_default_port(*port);
                Ok(())
            }
            ControlOp::Snapshot => Ok(()),
            ControlOp::ExportState { .. } | ControlOp::InjectState { .. } => Ok(()),
            ControlOp::ExportStateSnapshot { .. } | ControlOp::ReplaceState { .. } => Ok(()),
            ControlOp::Retire { .. } => Ok(()),
        }
    }

    /// True for an op that changes a replica's configuration; false for the
    /// dynamic-state ops that [`apply`](Self::apply) passes through.
    pub(crate) fn configures(&self) -> bool {
        !matches!(
            self,
            ControlOp::Snapshot
                | ControlOp::ExportState { .. }
                | ControlOp::InjectState { .. }
                | ControlOp::ExportStateSnapshot { .. }
                | ControlOp::ReplaceState { .. }
                | ControlOp::Retire { .. }
        )
    }
}

/// One published batch of control operations.
#[derive(Debug, Clone)]
pub struct EpochEntry {
    /// The epoch this entry established (1-based, strictly increasing).
    pub epoch: u64,
    /// The operations to apply, in order.
    pub ops: Vec<ControlOp>,
}

/// Summary of one [`EpochLog::compact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The newest epoch dropped so far (every entry at or below it is gone).
    pub compacted_epoch: u64,
    /// Entries removed from the log by this compaction.
    pub entries_dropped: usize,
    /// Entries still in the log after compaction.
    pub entries_remaining: usize,
}

/// The control-plane log: the suffix of [`EpochEntry`]s that some shard may
/// still have to apply. Entries carry contiguous epochs `base_epoch + 1,
/// base_epoch + 2, …`, which makes "everything after epoch `X`" an index
/// computation rather than a scan.
#[derive(Debug, Default)]
pub struct EpochLog {
    /// The newest dropped epoch; `0` before any compaction.
    base_epoch: u64,
    /// Entries `base_epoch + 1 ..`, in epoch order.
    entries: Vec<EpochEntry>,
}

impl EpochLog {
    /// An empty log (epoch 0).
    pub fn new() -> Self {
        EpochLog::default()
    }

    /// The newest dropped epoch (0 before any compaction).
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// The newest epoch in the log (live or dropped).
    pub fn newest_epoch(&self) -> u64 {
        self.entries
            .last()
            .map(|e| e.epoch)
            .unwrap_or(self.base_epoch)
    }

    /// Number of live (uncompacted) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a published entry. Epochs must stay contiguous — the runtime
    /// publishes them that way, and compaction relies on it.
    pub fn append(&mut self, entry: EpochEntry) {
        debug_assert_eq!(
            entry.epoch,
            self.newest_epoch() + 1,
            "epochs must be contiguous"
        );
        self.entries.push(entry);
    }

    /// Clones the entries with epochs strictly greater than `epoch` — what a
    /// shard that has applied `epoch` still has to do. `epoch` must not
    /// predate the dropped prefix (a shard can never be behind it, because
    /// compaction waits for every shard's ack).
    pub fn entries_after(&self, epoch: u64) -> Vec<EpochEntry> {
        assert!(
            epoch >= self.base_epoch,
            "shard at epoch {epoch} is behind the compacted prefix (base {})",
            self.base_epoch
        );
        let skip = (epoch - self.base_epoch) as usize;
        self.entries[skip.min(self.entries.len())..].to_vec()
    }

    /// Drops every entry with epoch ≤ `upto`. The caller must guarantee
    /// every shard has acknowledged `upto`.
    pub fn compact(&mut self, upto: u64) -> CompactionReport {
        let drop = ((upto.max(self.base_epoch) - self.base_epoch) as usize).min(self.entries.len());
        self.entries.drain(..drop);
        self.base_epoch += drop as u64;
        CompactionReport {
            compacted_epoch: self.base_epoch,
            entries_dropped: drop,
            entries_remaining: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use menshen_rmt::TABLE5;

    #[test]
    fn ops_apply_like_direct_calls() {
        let module = ModuleConfig::empty(ModuleId::new(4), "m", 5);
        let mut direct = MenshenPipeline::new(TABLE5);
        direct.load_module(&module).unwrap();
        direct
            .system_mut()
            .add_route(Ipv4Address::new(10, 0, 0, 9), 3);
        direct.system_mut().set_default_port(7);

        let mut replayed = MenshenPipeline::new(TABLE5);
        for op in [
            ControlOp::Load(Box::new(module.clone())),
            ControlOp::AddRoute(Ipv4Address::new(10, 0, 0, 9), 3),
            ControlOp::SetDefaultPort(7),
            ControlOp::Snapshot,
        ] {
            op.apply(&mut replayed).unwrap();
        }
        assert_eq!(replayed.loaded_modules(), direct.loaded_modules());

        ControlOp::Unload(ModuleId::new(4))
            .apply(&mut replayed)
            .unwrap();
        assert!(replayed.loaded_modules().is_empty());
        // Errors propagate (unloading twice).
        assert!(ControlOp::Unload(ModuleId::new(4))
            .apply(&mut replayed)
            .is_err());
    }

    fn entry(epoch: u64, module: u16) -> EpochEntry {
        EpochEntry {
            epoch,
            ops: vec![ControlOp::Load(Box::new(ModuleConfig::empty(
                ModuleId::new(module),
                format!("m{module}"),
                5,
            )))],
        }
    }

    #[test]
    fn compaction_preserves_replayed_configuration() {
        let mut log = EpochLog::new();
        for epoch in 1..=6u64 {
            log.append(entry(epoch, epoch as u16));
        }

        let report = log.compact(4);
        assert_eq!(report.compacted_epoch, 4);
        assert_eq!(report.entries_dropped, 4);
        assert_eq!(report.entries_remaining, 2);
        assert_eq!(log.base_epoch(), 4);
        assert_eq!(log.len(), 2);
        assert_eq!(log.newest_epoch(), 6);
        // The suffix a shard at epoch 4 still replays is intact.
        let suffix = log.entries_after(4);
        assert_eq!(suffix.iter().map(|e| e.epoch).collect::<Vec<_>>(), [5, 6]);

        // Compacting the rest empties the log.
        let report = log.compact(6);
        assert_eq!(report.entries_dropped, 2);
        assert!(log.is_empty());
        assert_eq!(log.newest_epoch(), 6);

        // Compacting past the newest epoch or re-compacting is a no-op.
        let report = log.compact(10);
        assert_eq!(report.entries_dropped, 0);
        assert_eq!(report.compacted_epoch, 6);
    }

    #[test]
    fn entries_after_respects_the_compacted_base() {
        let mut log = EpochLog::new();
        for epoch in 1..=5u64 {
            log.append(entry(epoch, epoch as u16));
        }
        assert_eq!(log.entries_after(0).len(), 5);
        assert_eq!(log.entries_after(3).len(), 2);
        assert_eq!(log.entries_after(3)[0].epoch, 4);
        assert!(log.entries_after(9).is_empty());

        log.compact(2);
        assert_eq!(log.entries_after(2).len(), 3);
        assert_eq!(log.entries_after(4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "behind the compacted prefix")]
    fn entries_after_panics_behind_the_checkpoint() {
        let mut log = EpochLog::new();
        for epoch in 1..=3u64 {
            log.append(entry(epoch, epoch as u16));
        }
        log.compact(2);
        let _ = log.entries_after(1);
    }
}
